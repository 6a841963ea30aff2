"""CONC — the request engine under a GDPRBench mix, open-loop.

Three measurements, emitted to ``BENCH_concurrency.json`` in the shared
``bench_util`` schema:

* **closed-loop throughput** — the same seeded GDPRBench-style op
  sequence (reads, rectifications, consent toggles, erasures,
  right-of-access exports, purpose reads) executed serially vs
  submitted to the request engine at ``CONC_BENCH_WORKERS`` workers
  over ``CONC_BENCH_SHARDS`` shards.  Both arms run with the same
  ``io_delay_scale`` (the block devices *realize* their simulated
  latency as sleeps outside the device lock), so the engine's win is
  genuine IO overlap, not an accounting trick.  Acceptance target:
  >=3x at 8 workers / 8 shards.
* **open-loop tail latency** — the same mix replayed by
  :class:`repro.workloads.openloop.OpenLoopDriver` at a target Poisson
  arrival rate; latency runs from *scheduled arrival* to completion,
  so queueing counts (no coordinated omission).  Reported: throughput
  and p50/p95/p99 for the engine arm and a serial arm at the same
  offered rate.
* **telemetry overhead with the engine on** — the concurrent mix with
  telemetry enabled vs ``Telemetry.disabled()``; the overhead factor
  must stay within budget even with every probe crossed by many
  threads.

Scale knobs (for the CI smoke job): ``CONC_BENCH_SUBJECTS``,
``CONC_BENCH_OPS``, ``CONC_BENCH_WORKERS``, ``CONC_BENCH_SHARDS``,
``CONC_BENCH_RATE``, ``CONC_BENCH_IO_SCALE``.  Ratio gates apply at
full scale only; smaller runs record their numbers without asserting
what the scale cannot show.
"""

import os
import time
from random import Random

from bench_util import latency_block, merge_metric
from conftest import print_series

from repro.baseline.gdprbench import (
    OP_ACCESS,
    OP_CONSENT,
    OP_DELETE,
    OP_PROCESS,
    OP_READ,
    OP_UPDATE,
    GDPRBenchRunner,
    RgpdOSAdapter,
)
from repro.obs import Telemetry
from repro.workloads.openloop import OpenLoopDriver

SUBJECTS = int(os.environ.get("CONC_BENCH_SUBJECTS", "400"))
OPS = int(os.environ.get("CONC_BENCH_OPS", "400"))
WORKERS = int(os.environ.get("CONC_BENCH_WORKERS", "8"))
SHARDS = int(os.environ.get("CONC_BENCH_SHARDS", "8"))
RATE = float(os.environ.get("CONC_BENCH_RATE", "150"))
IO_SCALE = float(os.environ.get("CONC_BENCH_IO_SCALE", "150"))
TARGET_SPEEDUP = 3.0
TELEMETRY_BUDGET = 1.5
FULL_SCALE = WORKERS >= 8 and SHARDS >= 8 and OPS >= 300

#: A blended GDPRBench mix: the customer ops plus the processor's
#: purpose reads and the regulator's exports, one request stream.
MIX = {
    OP_READ: 0.35,
    OP_UPDATE: 0.20,
    OP_CONSENT: 0.15,
    OP_PROCESS: 0.10,
    OP_ACCESS: 0.15,
    OP_DELETE: 0.05,
}


def build_runner(workers, telemetry=None):
    """An engine-enabled adapter + loaded runner at the bench scale."""
    per_shard = -(-SUBJECTS // SHARDS)  # ceil division
    adapter = RgpdOSAdapter(
        shards=SHARDS,
        pd_device_blocks=per_shard * 8 + 16384,
        with_machine=False,
        workers=workers,
        io_delay_scale=IO_SCALE,
        telemetry=telemetry,
    )
    runner = GDPRBenchRunner(adapter, seed=11)
    runner.load(SUBJECTS)
    return runner


def build_ops(runner, count, seed):
    """A seeded, thread-safe op sequence over the loaded population.

    Deletes each get a *unique* key from a reserved pool (and re-insert
    a fresh subject, keeping the population at steady state), so no two
    concurrent ops erase the same record; every other op draws from the
    stable remainder.  Same seed -> same sequence, so the serial and
    concurrent arms run identical work.
    """
    adapter = runner.adapter
    rng = Random(seed)
    keys = list(runner.keys)
    delete_budget = int(count * MIX[OP_DELETE] * 2) + 4
    delete_pool = keys[:delete_budget]
    stable = keys[delete_budget:]
    op_names = list(MIX)
    weights = [MIX[op] for op in op_names]

    tasks, names = [], []
    for _ in range(count):
        op = rng.choices(op_names, weights=weights, k=1)[0]
        if op == OP_DELETE and not delete_pool:
            op = OP_READ
        if op == OP_READ:
            key = rng.choice(stable)
            task = lambda k=key: adapter.read(k, "account_management")
        elif op == OP_PROCESS:
            key = rng.choice(stable)
            task = lambda k=key: adapter.read(k, "analytics")
        elif op == OP_UPDATE:
            key = rng.choice(stable)
            city = rng.choice(("Lyon", "Paris", "Rennes", "Nantes"))
            task = lambda k=key, c=city: adapter.update(k, {"city": c})
        elif op == OP_CONSENT:
            key = rng.choice(stable)
            granted = bool(rng.random() < 0.5)
            task = lambda k=key, g=granted: adapter.toggle_consent(
                k, "analytics", granted=g
            )
        elif op == OP_ACCESS:
            key = rng.choice(stable)
            task = lambda k=key: adapter.subject_access(k)
        else:  # OP_DELETE
            key = delete_pool.pop(rng.randrange(len(delete_pool)))
            replacement = runner.generator.subject()
            def task(k=key, r=replacement):
                adapter.delete(k)
                adapter.insert(r, {"analytics": "v_ano"})
        tasks.append(task)
        names.append(op)
    return tasks, names


def run_serial(tasks):
    start = time.perf_counter()
    for task in tasks:
        task()
    return time.perf_counter() - start


def run_concurrent(engine, tasks, names):
    start = time.perf_counter()
    futures = [
        engine.submit(task, purpose=name)
        for task, name in zip(tasks, names)
    ]
    for future in futures:
        future.result()
    return time.perf_counter() - start


def test_concurrency_mix_throughput():
    """Closed-loop: serial vs engine on the identical op sequence."""
    serial_runner = build_runner(workers=0)
    serial_tasks, _ = build_ops(serial_runner, OPS, seed=23)
    serial_seconds = run_serial(serial_tasks)

    conc_runner = build_runner(workers=WORKERS)
    conc_tasks, conc_names = build_ops(conc_runner, OPS, seed=23)
    engine = conc_runner.adapter.system.engine
    conc_seconds = run_concurrent(engine, conc_tasks, conc_names)
    speedup = serial_seconds / conc_seconds

    rows = [
        ("arm", "wall_s", "ops_per_s"),
        ("serial", round(serial_seconds, 3), round(OPS / serial_seconds)),
        (f"{WORKERS}_workers", round(conc_seconds, 3),
         round(OPS / conc_seconds)),
        ("speedup", "", round(speedup, 2)),
    ]
    print_series(
        f"CONC mix throughput ({OPS} ops, {SUBJECTS} subjects, "
        f"{SHARDS} shards, io_delay_scale={IO_SCALE})", rows,
    )
    merge_metric(
        "concurrency", "gdprbench_mix_throughput",
        config={
            "subjects": SUBJECTS, "operations": OPS, "workers": WORKERS,
            "shards": SHARDS, "io_delay_scale": IO_SCALE, "mix": MIX,
        },
        samples={
            "serial_seconds": serial_seconds,
            "concurrent_seconds": conc_seconds,
            "serial_ops_per_second": OPS / serial_seconds,
            "concurrent_ops_per_second": OPS / conc_seconds,
        },
        speedup=speedup, baseline="serial_seconds",
        latency=latency_block(
            conc_runner.adapter.system.telemetry.registry,
            ["ps.invoke", "rights.access", "rights.erase", "dbfs.select_where",
             "dbfs.export_subject", "journal.commit"],
        ),
        extra={
            "engine": engine.as_dict(),
            "mvcc": conc_runner.adapter.system.dbfs.mvcc_stats(),
        },
    )
    if FULL_SCALE:
        assert speedup >= TARGET_SPEEDUP, (
            f"GDPRBench-mix speedup {speedup:.2f}x at {WORKERS} workers is "
            f"below the {TARGET_SPEEDUP}x target"
        )
    else:
        assert speedup > 0  # smoke scale: record, don't gate on ratio


def test_concurrency_open_loop_latency():
    """Open-loop arrivals at RATE ops/s: engine arm vs serial arm."""
    conc_runner = build_runner(workers=WORKERS)
    conc_tasks, conc_names = build_ops(conc_runner, OPS, seed=31)
    engine = conc_runner.adapter.system.engine
    driver = OpenLoopDriver(
        submit=lambda task: engine.submit(task, purpose="openloop")
    )
    conc_result = driver.run(conc_tasks, RATE, seed=5, op_names=conc_names)

    serial_runner = build_runner(workers=0)
    serial_tasks, serial_names = build_ops(serial_runner, OPS, seed=31)
    serial_result = OpenLoopDriver(submit=None).run(
        serial_tasks, RATE, seed=5, op_names=serial_names
    )

    rows = [
        ("arm", "throughput", "p50_ms", "p95_ms", "p99_ms"),
        ("serial",
         round(serial_result.throughput, 1),
         round(serial_result.percentile_ms(50), 2),
         round(serial_result.percentile_ms(95), 2),
         round(serial_result.percentile_ms(99), 2)),
        (f"{WORKERS}_workers",
         round(conc_result.throughput, 1),
         round(conc_result.percentile_ms(50), 2),
         round(conc_result.percentile_ms(95), 2),
         round(conc_result.percentile_ms(99), 2)),
    ]
    print_series(
        f"CONC open-loop @ {RATE} ops/s ({OPS} ops, {SHARDS} shards)", rows,
    )
    merge_metric(
        "concurrency", "open_loop_latency",
        config={
            "subjects": SUBJECTS, "operations": OPS, "workers": WORKERS,
            "shards": SHARDS, "target_rate_ops_s": RATE,
            "io_delay_scale": IO_SCALE,
        },
        samples={
            "engine": conc_result.as_dict(),
            "serial": serial_result.as_dict(),
        },
        extra={"engine_stats": engine.as_dict()},
    )
    assert conc_result.failed == 0
    assert conc_result.completed == OPS
    if FULL_SCALE:
        # The engine arm keeps up with the offered rate; the serial arm
        # cannot, so its queueing delay drives p99 far past the engine's.
        assert (
            conc_result.percentile_ms(99) < serial_result.percentile_ms(99)
        ), (
            f"engine p99 {conc_result.percentile_ms(99):.1f}ms is not "
            f"below serial p99 {serial_result.percentile_ms(99):.1f}ms"
        )


def test_concurrency_telemetry_overhead():
    """Probes stay within budget with every layer crossed by threads."""
    ops = max(60, OPS // 4)
    enabled_runner = build_runner(workers=WORKERS)
    enabled_tasks, enabled_names = build_ops(enabled_runner, ops, seed=47)
    enabled_seconds = run_concurrent(
        enabled_runner.adapter.system.engine, enabled_tasks, enabled_names
    )

    disabled_runner = build_runner(
        workers=WORKERS, telemetry=Telemetry.disabled()
    )
    disabled_tasks, disabled_names = build_ops(disabled_runner, ops, seed=47)
    disabled_seconds = run_concurrent(
        disabled_runner.adapter.system.engine, disabled_tasks, disabled_names
    )
    factor = enabled_seconds / disabled_seconds

    rows = [
        ("telemetry", "wall_s"),
        ("disabled", round(disabled_seconds, 3)),
        ("enabled", round(enabled_seconds, 3)),
        ("factor", round(factor, 3)),
    ]
    print_series(f"CONC telemetry overhead ({ops} concurrent ops)", rows)
    merge_metric(
        "concurrency", "telemetry_overhead_with_engine",
        config={"operations": ops, "workers": WORKERS, "shards": SHARDS,
                "budget_factor": TELEMETRY_BUDGET},
        samples={
            "telemetry_enabled_seconds": enabled_seconds,
            "telemetry_disabled_seconds": disabled_seconds,
            "overhead_factor": factor,
        },
    )
    if FULL_SCALE:
        assert factor <= TELEMETRY_BUDGET, (
            f"telemetry overhead {factor:.2f}x with the engine enabled "
            f"exceeds the {TELEMETRY_BUDGET}x budget"
        )


def test_concurrency_snapshot_scan_latency():
    """Readers never block: snapshot scans priced idle vs under load.

    A scan is one consistent membrane sweep of the whole ``user``
    table through a fresh MVCC snapshot.  The loaded arm runs the
    same scans while the engine pushes the write-heavy half of the
    mix (updates, consent toggles) through every shard.  Snapshot
    reads take no write lock, so the loaded median must stay within
    ``SCAN_BUDGET``x of idle — queueing behind writers would blow
    far past that.
    """
    from repro.core.active_data import AccessCredential
    from repro.storage.query import MembraneQuery

    scan_budget = 2.0
    rounds = 30 if FULL_SCALE else 10
    runner = build_runner(workers=WORKERS)
    system = runner.adapter.system
    ded = AccessCredential(holder="bench-scan", is_ded=True)

    def scan_once():
        start = time.perf_counter()
        snapshot = system.dbfs.begin_snapshot()
        try:
            pairs = system.dbfs.query_membranes(
                MembraneQuery("user"), ded, snapshot=snapshot
            )
        finally:
            snapshot.release()
        assert pairs, "scan saw an empty table"
        return time.perf_counter() - start

    idle = sorted(scan_once() for _ in range(rounds))

    write_tasks, write_names = [], []
    candidates, names = build_ops(runner, OPS, seed=59)
    for task, name in zip(candidates, names):
        if name in (OP_UPDATE, OP_CONSENT):
            write_tasks.append(task)
            write_names.append(name)
    engine = system.engine
    futures = [
        engine.submit(task, purpose=name)
        for task, name in zip(write_tasks, write_names)
    ]
    loaded = sorted(scan_once() for _ in range(rounds))
    for future in futures:
        future.result()

    idle_median = idle[len(idle) // 2]
    loaded_median = loaded[len(loaded) // 2]
    factor = loaded_median / idle_median
    rows = [
        ("arm", "median_ms", "p90_ms"),
        ("idle", round(idle_median * 1e3, 2),
         round(idle[int(len(idle) * 0.9)] * 1e3, 2)),
        ("under_writes", round(loaded_median * 1e3, 2),
         round(loaded[int(len(loaded) * 0.9)] * 1e3, 2)),
        ("factor", round(factor, 2), ""),
    ]
    print_series(
        f"CONC snapshot scan latency ({rounds} scans, "
        f"{len(write_tasks)} writes in flight)", rows,
    )
    merge_metric(
        "concurrency", "snapshot_scan_latency",
        config={
            "subjects": SUBJECTS, "workers": WORKERS, "shards": SHARDS,
            "scan_rounds": rounds, "writes_in_flight": len(write_tasks),
            "budget_factor": scan_budget,
        },
        samples={
            "idle_median_ms": idle_median * 1e3,
            "loaded_median_ms": loaded_median * 1e3,
            "factor": factor,
        },
    )
    if FULL_SCALE:
        assert factor <= scan_budget, (
            f"snapshot scans slowed {factor:.2f}x under concurrent "
            f"writes (budget {scan_budget}x) — readers are blocking"
        )
