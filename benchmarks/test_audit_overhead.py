"""AUDIT — the always-on compliance monitors' cost on the GDPRBench mix.

One measurement, emitted to ``BENCH_audit.json`` in the shared
``bench_util`` schema: the GDPRBench ``customer`` mix on the rgpdOS
adapter with the monitor daemon running in the background (residue
scrubber sweeping the device for non-empty blocks no owner
references, TTL / breach / journal watchers ticking on a short
wall-clock interval, every significant tick sealed into the
hash-chained evidence trail) vs the same mix with no monitors.  Both
sides run the identical op sequence (same seed); min-of-N wall time
absorbs scheduler noise.  The acceptance target: monitors-on
throughput stays >= 0.9x monitors-off.

Scale knobs (for the CI smoke job): ``AUDIT_BENCH_SUBJECTS``,
``AUDIT_BENCH_OPS``, ``AUDIT_BENCH_REPEATS``.
"""

import os
import time

from bench_util import latency_block, merge_metric
from conftest import print_series

from repro.baseline.gdprbench import GDPRBenchRunner, RgpdOSAdapter

SUBJECTS = int(os.environ.get("AUDIT_BENCH_SUBJECTS", "120"))
OPS = int(os.environ.get("AUDIT_BENCH_OPS", "120"))
REPEATS = int(os.environ.get("AUDIT_BENCH_REPEATS", "5"))
PERSONA = "customer"
MIN_THROUGHPUT_RATIO = 0.9
#: 100 ticks/second — aggressive for production (the daemon default is
#: 20/s) but still a realistic duty cycle; each tick walks every
#: membrane, scans the log delta and checks 64 device blocks against
#: the owner set.
MONITOR_INTERVAL_SECONDS = 0.01

LATENCY_OPS = ("ps.invoke", "ded.run", "dbfs.store", "journal.commit")


def _mix_seconds(monitors_on):
    """Wall seconds for one fresh load + customer mix run.

    Only the *on* configuration starts the daemon, whose scrubber
    sweeps the device while the mix runs.
    """
    adapter = RgpdOSAdapter(with_machine=False)
    runner = GDPRBenchRunner(adapter, seed=7)
    runner.load(SUBJECTS)
    system = adapter.system
    daemon = None
    if monitors_on:
        daemon = system.start_monitors(
            interval_seconds=MONITOR_INTERVAL_SECONDS, background=True
        )
    start = time.perf_counter()
    runner.run(PERSONA, OPS)
    seconds = time.perf_counter() - start
    if daemon is not None:
        system.stop_monitors()
    return seconds, system, daemon


def test_monitor_overhead_within_10pct():
    """Background monitors keep the GDPRBench mix at >= 0.9x throughput.

    ``min`` over REPEATS fresh runs per configuration: the best case is
    the honest estimate of the code path's cost — everything above it
    is scheduler/allocator noise.
    """
    on_runs, off_runs = [], []
    on_system, on_daemon = None, None
    for _ in range(REPEATS):
        seconds, system, daemon = _mix_seconds(monitors_on=True)
        on_runs.append(seconds)
        on_system, on_daemon = system, daemon
        seconds, _, _ = _mix_seconds(monitors_on=False)
        off_runs.append(seconds)
    on_best = min(on_runs)
    off_best = min(off_runs)
    throughput_ratio = off_best / on_best

    # The monitors genuinely ran alongside the mix, and the evidence
    # they produced still verifies as an unbroken chain.
    assert on_daemon is not None and on_daemon.ticks > 0, (
        "monitors-on run never ticked — the overhead number is fiction"
    )
    assert on_system.evidence.verify_chain() == len(on_system.evidence)
    registry = on_system.telemetry.registry
    registry.collect()
    scanned = registry.counter("rgpdos.residue.scanned_blocks").value
    assert scanned > 0, "residue scrubber never checked a block"

    rows = [
        ("config", "best_s", "per_op_ms"),
        ("monitors_on", round(on_best, 4), round(on_best / OPS * 1e3, 3)),
        ("monitors_off", round(off_best, 4), round(off_best / OPS * 1e3, 3)),
        ("throughput_ratio", f"{throughput_ratio:.2f}x", ""),
        ("monitor_ticks", on_daemon.ticks, ""),
        ("blocks_scanned", scanned, ""),
        ("evidence_entries", len(on_system.evidence), ""),
    ]
    print_series(
        f"AUDIT monitor overhead ({SUBJECTS} subjects, {OPS} ops, "
        f"min of {REPEATS})", rows,
    )
    merge_metric(
        "audit", "gdprbench_mix_monitor_overhead",
        config={
            "subjects": SUBJECTS, "ops": OPS, "repeats": REPEATS,
            "persona": PERSONA,
            "monitor_interval_seconds": MONITOR_INTERVAL_SECONDS,
        },
        samples={
            "monitors_on_seconds": on_best,
            "monitors_off_seconds": off_best,
            "monitors_on_runs": on_runs,
            "monitors_off_runs": off_runs,
            "monitor_ticks": on_daemon.ticks,
            "residue_blocks_scanned": scanned,
            "evidence_entries": len(on_system.evidence),
        },
        speedup=throughput_ratio, baseline="monitors_off_seconds",
        latency=latency_block(registry, LATENCY_OPS),
    )
    assert throughput_ratio >= MIN_THROUGHPUT_RATIO, (
        f"monitors-on throughput is {throughput_ratio:.2f}x monitors-off "
        f"(floor {MIN_THROUGHPUT_RATIO}x)"
    )
