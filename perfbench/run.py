#!/usr/bin/env python3
"""GDPR persona benchmark: the end-to-end cost of rgpdOS's PS -> DED -> DBFS path.

Usage, from the repository root::

    python3 perfbench/run.py --workload customer --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed, with host times normalised by the host-speed kernel of
``perfbench/hostspeed.py``.  ``--trace 1`` alternates untraced blocks
of ops with blocks run under span wrappers around each layer's public
entry points, and reports the per-layer rollup and the tracing
overhead.  ``--ops N``
replaces the timed phase by exactly N traced ops and reports the op
counts the determinism self-test (``perfbench/selftest.py``) compares.

The program is imported from ``src/`` next to this directory and
receives only the generated inputs.  A single closed-loop client on one
thread issues every op and waits for its reply.  The second-to-last
stdout line is the full report (every metric, the correctness checks
and the provenance stamp); the last line is the summary
``{"correct", "attempted", "failed", "metrics"}`` restricted to the
metrics ``BENCHMARK.json`` lists for the chosen trace mode.  The full
report (with tracing, the per-layer rollup) is also written to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``, and a traced
run's spans to the matching ``-spans.jsonl``.  The exit code is
non-zero when a correctness check fails or an op raises.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The program under test is imported from its sources, never installed.
sys.path.insert(0, str(ROOT / "src"))
try:
    from hostspeed import EVERY_S, HostSpeed
    from repro.baseline.gdprbench import PlainDBAdapter, UserspaceDBAdapter
    from tracing import SpanRecorder, per_op_layers
    from workload import (
        WORKLOADS,
        Driver,
        OpStream,
        Oracle,
        Population,
        encoded_user_bytes,
        replay_on,
    )
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Ops run after each set-up so caches fill; excluded from every metric.
WARMUP_SECONDS = 0.5
#: Erased subjects whose residue and access export are checked.
RESIDUE_SAMPLE = 5
#: Cap on the consent re-checks after a customer run.
CONSENT_RECHECKS = 300
#: Samples the tail percentile leaves above it: at least TAIL_BEYOND,
#: and at least TAIL_SHARE of the samples.  The program's full garbage
#: collections (about one a second) hit a dozen or so ops of a run; a
#: tail with about that many samples above it flips between those ops
#: and ordinary ones from run to run, so it must leave clearly more.
TAIL_BEYOND = 30
TAIL_SHARE = 0.01
#: Ops per traced or untraced block of an interleaved traced run.
TRACE_BLOCK = 6
#: Timed ops the baseline engines replay for the overhead factors.
BASELINE_OPS = 3000
#: Kernel samples taken before and after each set-up.
SETUP_SAMPLES = 2
#: Host times divided by the host-speed factor (and the rate multiplied).
HOST_TIMES = ("p50_ms", "tail_ms", "read_p50_ms", "write_p50_ms", "erase_p50_ms", "setup_s")


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Phase:
    """Latencies and failures of a stretch of the op stream."""

    def __init__(self) -> None:
        self.latencies: List[Tuple[str, int]] = []
        self.failed = 0
        self.wall = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def absorb(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.failed += other.failed
        self.wall += other.wall


class Replica:
    """One freshly set-up store with its own op stream and oracle.

    Replicas of one run share the seed, so each replays the same ops on
    an identical store.
    """

    def __init__(self, workload: str, seed: int, population: Population) -> None:
        self.stream = OpStream(workload, population, seed)
        self.oracle = Oracle(population)
        self.executed: List[tuple] = []
        #: Peak resident memory with the inputs and this oracle built,
        #: before the store is: the part of the process that is not the
        #: program.
        self.rss_before_mb = peak_rss_mb()
        self.driver = Driver.rgpdos()
        start = time.perf_counter()
        self.driver.load(population, indexes=workload == "analytics")
        self.setup_s = time.perf_counter() - start

    @property
    def system(self):
        return self.driver.system

    def run(self, seconds: Optional[float], max_ops: Optional[int] = None,
            recorder: Optional[SpanRecorder] = None,
            speed: Optional[HostSpeed] = None) -> Phase:
        """Issue ops until ``seconds`` pass or ``max_ops`` ops complete.

        An op's latency is the time the client waits for its reply; the
        oracle comparison happens after the clock stops.  With ``speed``,
        the host-speed kernel runs between ops every EVERY_S seconds;
        its time is left out of the phase and added to the deadline.
        """
        phase = Phase()
        clock = time.perf_counter_ns
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else float("inf")
        limit = max_ops if max_ops is not None else float("inf")
        sampled = 0.0
        next_sample = start + EVERY_S
        while phase.ops < limit and time.perf_counter() < deadline + sampled:
            if speed is not None and time.perf_counter() >= next_sample:
                sampled += speed.sample() / 1e9
                next_sample = time.perf_counter() + EVERY_S
            op = next(self.stream)
            if recorder is not None:
                recorder.op_id += 1
            t0 = clock()
            try:
                outcome = self.driver.execute(op)
            except Exception:  # noqa: BLE001 - a raising op is counted, not fatal
                phase.latencies.append((op[0], clock() - t0))
                phase.failed += 1
                if phase.failed <= 3:
                    traceback.print_exc(file=sys.stderr)
            else:
                phase.latencies.append((op[0], clock() - t0))
                self.oracle.check(op, outcome)
            self.executed.append(op)
        phase.wall = time.perf_counter() - start - sampled
        return phase

    def run_traced(self, recorder: SpanRecorder, max_ops: int,
                   seconds: Optional[float] = None) -> Tuple[Phase, Dict[str, float]]:
        """A traced stretch and the layer counters it moved."""
        before = counters(self.system)
        recorder.install(self.system)
        try:
            phase = self.run(seconds, max_ops=max_ops, recorder=recorder)
        finally:
            recorder.uninstall()
        return phase, _delta(before, counters(self.system))


def run_interleaved(replica: Replica, seconds: float,
                    recorder: SpanRecorder) -> Tuple[Phase, Phase, Dict[str, float]]:
    """Alternate untraced and traced blocks of TRACE_BLOCK ops.

    Both halves see the same store as it evolves and the same host
    load, so their gap is the tracing overhead rather than drift.
    Returns the untraced and traced phases and the layer counters the
    traced blocks moved.
    """
    untraced, traced = Phase(), Phase()
    delta: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    block = 0
    while time.perf_counter() < deadline:
        remaining = deadline - time.perf_counter()
        if block % 2:
            phase, moved = replica.run_traced(recorder, TRACE_BLOCK, remaining)
            traced.absorb(phase)
            for key, value in moved.items():
                delta[key] = delta.get(key, 0) + value
        else:
            untraced.absorb(replica.run(remaining, max_ops=TRACE_BLOCK))
        block += 1
    return untraced, traced, delta


def counters(system) -> Dict[str, float]:
    """Cumulative counters of every layer, for before/after deltas."""
    device = system.pd_device.stats
    journal = system.dbfs.journal.stats
    dbfs = system.dbfs.stats
    caches = system.cache_stats()
    values: Dict[str, float] = {
        "block.reads": device.reads,
        "block.writes": device.writes,
        "block.cache_hits": device.cache_hits,
        "block.sim_io_s": device.simulated_io_seconds,
        "journal.commits": journal.commits,
        "journal.flushes": journal.flushes,
        "journal.appends": journal.appends,
        "codec.full_decodes": dbfs.full_decodes,
        "codec.partial_decodes": dbfs.partial_decodes,
        "codec.fields_decoded": dbfs.fields_decoded,
        "btree.page_reads": dbfs.index_page_reads,
        "btree.bloom_hits": dbfs.index_bloom_hits,
        "btree.bloom_skips": dbfs.index_bloom_skips,
    }
    for cache in ("record", "membrane", "listing", "decision"):
        values[f"cache.{cache}_hits"] = caches[f"{cache}_cache"]["hits"]
        values[f"cache.{cache}_misses"] = caches[f"{cache}_cache"]["misses"]
    return values


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in before}


def peak_rss_mb() -> float:
    """The process's peak resident memory so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# End-to-end metrics (untraced)
# ---------------------------------------------------------------------------


def tail(phase: Phase) -> Tuple[float, float, int]:
    """The tail latency (ms), its percentile and the samples above it."""
    every = sorted(ns for _, ns in phase.latencies)
    beyond = max(TAIL_BEYOND, int(TAIL_SHARE * len(every)))
    index = max(0, len(every) - beyond - 1)
    return every[index] / 1e6, 100.0 * (index + 1) / len(every), len(every) - index - 1


def latency_metrics(pooled: Phase) -> Dict[str, object]:
    """Throughput, medians and the tail over the pooled timed ops."""
    every = [ns for _, ns in pooled.latencies]
    by_kind: Dict[str, List[int]] = {}
    for kind, ns in pooled.latencies:
        by_kind.setdefault(kind, []).append(ns)
    tail_ms, percentile, beyond = tail(pooled)
    metrics: Dict[str, object] = {
        "ops_per_s": pooled.ops / pooled.wall,
        "p50_ms": statistics.median(every) / 1e6,
        "tail_ms": tail_ms,
        "tail_percentile": percentile,
        "tail_samples": pooled.ops,
        "tail_beyond": beyond,
        "failed_share": pooled.failed / max(1, pooled.ops),
    }
    for name, kinds in (
        ("read_p50_ms", ("read", "purpose_read")),
        ("write_p50_ms", ("update", "consent")),
        ("erase_p50_ms", ("erase",)),
    ):
        values = [ns for kind in kinds for ns in by_kind.get(kind, ())]
        if values:
            metrics[name] = statistics.median(values) / 1e6
    return metrics


def bytes_per_user_byte(replica: Replica) -> float:
    """PD-device blocks in use outside the journal's reserved extent,
    plus journal blocks holding live records, per byte of live user
    data."""
    device = replica.system.pd_device
    journal = replica.system.dbfs.journal
    blocks = device.used_blocks - journal.reserved_blocks + journal.blocks_in_use
    return blocks * device.block_size / encoded_user_bytes(replica.oracle.records)


def measure(args, population: Population, report: Dict[str, object],
            checks: Dict[str, object]) -> Tuple[Replica, Phase, Phase, int]:
    """SETUP_REPEATS replicas, each set up, warmed, measured for an
    equal share of ``--seconds`` and then checked.

    Alternating set-ups with measurement spreads the timed ops over the
    whole run, so a few seconds of host contention weigh less.  Returns
    the last replica, the pooled timed phase, and the last replica's
    timed phase and warm-up op count.
    """
    pooled = Phase()
    setups: List[float] = []
    footprints: List[float] = []
    moved: Dict[str, float] = {}
    replica: Optional[Replica] = None
    warmup_ops = 0
    baseline_mb = 0.0
    speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        replica = None
        gc.collect()
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        replica = Replica(args.workload, args.seed, population)
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        baseline_mb = baseline_mb or replica.rss_before_mb
        setups.append(replica.setup_s)
        replica.run(WARMUP_SECONDS)
        warmup_ops = len(replica.executed)
        before = counters(replica.system)
        timed = replica.run(args.seconds / SETUP_REPEATS, speed=speed)
        pooled.absorb(timed)
        for key, value in _delta(before, counters(replica.system)).items():
            moved[key] = moved.get(key, 0) + value
        footprints.append(bytes_per_user_byte(replica))
        check_replica(args.workload, replica, checks)
    assert replica is not None
    report.update(latency_metrics(pooled))
    report["setup_s"] = statistics.median(setups)
    report["setup_runs_s"] = setups
    # Times as on a host running at nominal speed; the raw ones beside.
    report["host_factor"] = speed.factor
    report["host_reference_ms"] = speed.reference_ms
    report["host_samples"] = len(speed.samples_ns)
    report["raw"] = {
        name: report[name] for name in ("ops_per_s",) + HOST_TIMES if name in report
    }
    report["ops_per_s"] *= speed.factor
    for name in HOST_TIMES:
        if name in report:
            report[name] /= speed.factor
    report["rss_mb"] = peak_rss_mb() - baseline_mb
    report["bytes_per_user_byte"] = statistics.median(footprints)
    report["sim_io_ms_per_op"] = moved["block.sim_io_s"] * 1e3 / pooled.ops
    return replica, pooled, timed, warmup_ops


def overhead_ratios(workload: str, population: Population, executed: List[tuple],
                    warmup_ops: int, timed: Phase,
                    checks: Dict[str, object]) -> Dict[str, float]:
    """rgpdOS wall time per op over each baseline's, on the same
    population and op sequence: a replica's warm-up ops, then its first
    BASELINE_OPS timed ops, which are the ones compared."""
    replayed = executed[:warmup_ops + BASELINE_OPS]
    compared = len(replayed) - warmup_ops
    rgpdos_per_op = sum(ns for _, ns in timed.latencies[:compared]) / 1e9 / compared
    ratios: Dict[str, float] = {}
    for name, adapter_cls in (("plain", PlainDBAdapter), ("userspace", UserspaceDBAdapter)):
        gc.collect()
        wall, denials = replay_on(Driver(adapter_cls()), population, replayed, warmup_ops)
        ratios[f"overhead_vs_{name}_x"] = rgpdos_per_op / (wall / compared)
        if name == "userspace" and workload == "processor":
            # Processor ops change no consent, so the load consents
            # predict every denial.
            predicted = sum(
                1 for kind, sid, _ in replayed
                if kind == "purpose_read" and not population.consented[sid]
            )
            checks["userspace_denials_match"] = denials == predicted
    return ratios


# ---------------------------------------------------------------------------
# Per-layer metrics (traced)
# ---------------------------------------------------------------------------


def _ded_totals(recorder: SpanRecorder) -> Tuple[int, int, int]:
    """Membranes loaded, consented and records processed by every
    traced DED run."""
    loaded = consented = processed = 0
    for _, membranes, ok, done in recorder.ded_results.values():
        loaded += membranes
        consented += ok
        processed += done
    return loaded, consented, processed


def layer_metrics(recorder: SpanRecorder, phase: Phase, delta: Dict[str, float],
                  untraced: Optional[Phase]) -> Dict[str, float]:
    """Per-op layer metrics over the traced ops."""
    ops = phase.ops
    _, calls, top_ns = recorder.self_times()
    wall_ns = sum(ns for _, ns in phase.latencies)
    loaded, consented, processed = _ded_totals(recorder)
    scans = calls.get("block.scan", 0)
    metrics = per_op_layers(recorder, ops)
    metrics.update({
        "block.scans": scans / ops,
        "block.scan_blocks": scans * recorder.device_blocks / ops,
        "block.scrubs": calls.get("block.scrub", 0) / ops,
        "block.page_hit_rate": delta["block.cache_hits"] / max(1, delta["block.reads"]),
        "planner.rows_examined_per_result": (
            delta["codec.full_decodes"] + delta["codec.partial_decodes"]
        ) / max(1, processed),
        "ded.consented_share": consented / max(1, loaded),
        "trace.unattributed_share": 1.0 - top_ns / wall_ns,
    })
    for key in (
        "block.reads", "block.writes", "journal.commits", "journal.flushes",
        "journal.appends", "codec.full_decodes", "codec.partial_decodes",
        "codec.fields_decoded", "btree.page_reads", "btree.bloom_hits",
        "btree.bloom_skips",
    ):
        metrics[key] = delta[key] / ops
    for cache in ("record", "membrane", "listing", "decision"):
        hits = delta[f"cache.{cache}_hits"]
        lookups = hits + delta[f"cache.{cache}_misses"]
        key = "ded.decision_hit_rate" if cache == "decision" else f"cache.{cache}_hit_rate"
        metrics[key] = hits / lookups if lookups else 0.0
    if untraced is not None and untraced.ops:
        untraced_ns = sum(ns for _, ns in untraced.latencies) / untraced.ops
        metrics["trace.overhead_x"] = (wall_ns / ops) / untraced_ns
    return metrics


def op_counts(recorder: SpanRecorder, delta: Dict[str, float],
              oracle: Oracle) -> Dict[str, int]:
    """Counts that must repeat exactly for one seed and op budget."""
    _, calls, _ = recorder.self_times()
    loaded, consented, processed = _ded_totals(recorder)
    counts = {
        key: int(delta[key])
        for key in (
            "block.reads", "block.writes", "journal.commits",
            "journal.appends", "codec.full_decodes", "codec.partial_decodes",
            "codec.fields_decoded", "btree.page_reads",
        )
    }
    counts.update({
        "block.scrubs": calls.get("block.scrub", 0),
        "block.scans": calls.get("block.scan", 0),
        "ded.membranes_loaded": loaded,
        "ded.consented": consented,
        "ded.denied": loaded - consented,
        "ded.processed": processed,
        "denied_purpose_reads": oracle.observed_denials,
    })
    return counts


# ---------------------------------------------------------------------------
# Correctness checks outside the timed phase
# ---------------------------------------------------------------------------


def check_replica(workload: str, replica: Replica, checks: Dict[str, object]) -> None:
    """Every check of one replica's run, folded into ``checks``: flags
    must hold on every replica, counts and mismatches add up."""
    found: Dict[str, object] = {}
    if workload == "customer":
        check_customer(replica, found)
    if workload == "analytics":
        found["sweeps_checked"] = replica.oracle.check_sweeps()
    oracle = replica.oracle
    found["oracle_mismatches"] = oracle.mismatches
    found["denials_match"] = oracle.predicted_denials == oracle.observed_denials
    for key, value in found.items():
        if isinstance(value, bool):
            checks[key] = checks.get(key, True) and value
        elif isinstance(value, list):
            checks[key] = checks.get(key, []) + value
        else:
            checks[key] = checks.get(key, 0) + value


def check_customer(replica: Replica, checks: Dict[str, object]) -> None:
    """Erased subjects leave no residue; changed consents hold."""
    system = replica.system
    oracle = replica.oracle
    # The program's own post-erasure scan, one evidence entry per erase.
    reports = [
        entry["payload"] for entry in system.evidence.entries()
        if entry["kind"] == "erasure"
    ]
    checks["erasure_reports_checked"] = len(reports)
    checks["erasure_reports_zero_residue"] = len(reports) == len(oracle.erased) and all(
        r["residue_device_blocks"] == 0 and r["residue_journal_records"] == 0
        for r in reports
    )
    # A timed erase is followed by a re-insert that reuses the freed
    # blocks, which would hide an unscrubbed block.  One last erase
    # without a re-insert leaves them free for the scan below.
    last = min(oracle.records)
    replica.driver.adapter.delete(replica.driver.keys.pop(last))
    oracle.forget(last)
    erased = oracle.erased[:-1]
    sample = erased[:: max(1, len(erased) // RESIDUE_SAMPLE)][:RESIDUE_SAMPLE]
    sample.append(oracle.erased[-1])
    residue_clean = access_clean = True
    for subject_id, needles in sample:
        residue = system.dbfs.residue_counts(list(needles), subject_id=subject_id)
        residue_clean &= residue == {"device_blocks": 0, "journal_records": 0}
        records = system.rights.right_of_access(subject_id).export["records"]
        access_clean &= not any(r.get("data") for r in records)
    checks["erased_sampled"] = len(sample)
    checks["erased_zero_residue"] = bool(sample) and residue_clean
    checks["erased_no_access_records"] = bool(sample) and access_clean
    rechecked = sorted(oracle.toggled)[:CONSENT_RECHECKS]
    for subject_id in rechecked:
        op = ("purpose_read", subject_id, None)
        oracle.check(op, replica.driver.execute(op))
    checks["consent_rechecked"] = len(rechecked)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, replica: Replica, population: Population) -> Dict[str, object]:
    system = replica.system
    device = system.pd_device
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "population": len(population.subjects),
        "device": {
            "blocks": device.block_count,
            "block_size": device.block_size,
            "journal_blocks": system.dbfs.journal.reserved_blocks,
        },
        "caches": dataclasses.asdict(system.cache_config),
        "io_delay_scale": system.io_delay_scale,
        "telemetry": system.telemetry.enabled,
        "shards": system.shards,
        "request_engine": system.engine is not None,
        "client": "closed loop, 1 client thread",
        "setup_repeats": 1 if args.trace else SETUP_REPEATS,
        "warmup_seconds": 0 if args.ops is not None else WARMUP_SECONDS,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


#: Units of the report metrics BENCHMARK.json does not list, because
#: they exist only on the workloads that issue their op type.
REPORT_ONLY_UNITS = {
    "read_p50_ms": "ms",
    "write_p50_ms": "ms",
    "erase_p50_ms": "ms",
    "overhead_vs_plain_x": "x",
    "overhead_vs_userspace_x": "x",
    "failed_share": "ratio",
    "tail_percentile": "%",
    "host_factor": "x",
    "host_reference_ms": "ms",
}


def _spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(report: Dict[str, object]) -> Dict[str, str]:
    """Unit of every report metric: BENCHMARK.json's, REPORT_ONLY_UNITS,
    and milliseconds for the layer self times only the report carries."""
    spec = _spec()
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORT_ONLY_UNITS)
    for name in report:
        units.setdefault(name, "ms")
    return units


def _summary_metrics(args, report: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Exactly the metrics BENCHMARK.json lists for this trace mode (in
    self-test mode, which has no untraced ops, those it measured)."""
    spec = _spec()
    return {
        entry["name"]: {"value": report[entry["name"]], "unit": entry["unit"]}
        for entry in spec["per_layer" if args.trace else "end_to_end"]
        if args.ops is None or entry["name"] in report
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many traced ops (self-test mode)")
    args = parser.parse_args(argv)
    if args.ops is not None:
        args.trace = 1
    return args


def main(argv: Optional[List[str]] = None) -> int:
    run_start = time.perf_counter()
    args = parse_args(argv)
    population = Population(args.workload, args.seed)
    report: Dict[str, object] = {}
    checks: Dict[str, object] = {}
    recorder: Optional[SpanRecorder] = None
    untraced: Optional[Phase] = None
    if args.trace:
        replica = Replica(args.workload, args.seed, population)
        recorder = SpanRecorder(device_blocks=replica.system.pd_device.block_count)
        if args.ops is None:
            replica.run(WARMUP_SECONDS)
            untraced, phase, delta = run_interleaved(replica, args.seconds, recorder)
        else:
            phase, delta = replica.run_traced(recorder, args.ops)
            report["counts"] = op_counts(recorder, delta, replica.oracle)
        report.update(layer_metrics(recorder, phase, delta, untraced))
        check_replica(args.workload, replica, checks)
    else:
        replica, phase, last_timed, warmup_ops = measure(
            args, population, report, checks
        )
    stamp = provenance(args, replica, population)
    executed = replica.executed
    replica = None  # release the store before the baselines load

    if not args.trace and args.workload in ("customer", "processor"):
        start = time.perf_counter()
        report.update(overhead_ratios(
            args.workload, population, executed, warmup_ops, last_timed, checks,
        ))
        stamp["baselines_s"] = time.perf_counter() - start
    stamp["run_s"] = time.perf_counter() - run_start

    failed = phase.failed + (untraced.failed if untraced else 0)
    attempted = phase.ops + (untraced.ops if untraced else 0)
    correct = (
        failed == 0
        and not checks["oracle_mismatches"]
        and all(value for value in checks.values() if isinstance(value, bool))
    )
    checks["correct"] = correct

    units = _units(report)
    for name, value in report.items():
        if isinstance(value, float):
            print(f"{name:34s} {value:14.6f} {units[name]}")
    full = {"report": report, "checks": checks, "provenance": stamp}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(full, indent=2, default=str))
    if recorder is not None and args.ops is None:
        recorder.write_jsonl(f"{stem}-spans.jsonl")
    print(json.dumps(full, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": _summary_metrics(args, report),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
