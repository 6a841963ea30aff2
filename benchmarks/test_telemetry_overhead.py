"""TELEMETRY — the probe layer's cost on the GDPRBench mix and on the
point-read path.

Two measurements, emitted to ``BENCH_telemetry.json`` in the shared
``bench_util`` schema, each comparing telemetry fully enabled (spans +
histograms) with ``Telemetry.disabled()`` (every probe a null-object
no-op):

* ``gdprbench_mix_overhead`` — the GDPRBench ``customer`` mix on the
  rgpdOS adapter.  Both sides run the identical op sequence (same
  seed); min-of-N wall time absorbs scheduler noise.  The acceptance
  target is < 10% overhead for the fully *enabled* configuration over
  the disabled one — which also bounds the disabled configuration
  against the pre-instrumentation code, since the null-object probes
  are strictly cheaper than live ones.  Erase-time residue scans
  dominate this mix, so it says little about the per-op probe cost.
* ``point_read_overhead`` — ``bench_analytics`` purpose reads, one
  subject each, on 2,000 subjects of which about 30% never consented:
  the PS -> DED -> DBFS point path where every op pays about 9.5
  spans and nothing else dominates.  Both stores run the same seeded reads in
  alternating blocks of equal size (the side that runs first
  alternates too); the metric is the median over block pairs of the
  enabled/disabled per-op time.  It is recorded, not gated: a
  telemetry budget for this path belongs to the request-scoped tracing
  work that will change what each op records.

Scale knobs for the mix (for the CI smoke job):
``TELEMETRY_BENCH_SUBJECTS``, ``TELEMETRY_BENCH_OPS``,
``TELEMETRY_BENCH_REPEATS``.  The point-read metric runs at one fixed
scale (a few seconds).
"""

import os
import statistics
import time
from random import Random

from bench_util import latency_block, merge_metric
from conftest import print_series

from repro.baseline.gdprbench import (PURPOSE_ANALYTICS, GDPRBenchRunner,
                                      RgpdOSAdapter)
from repro.obs import Telemetry
from repro.workloads.generator import PopulationGenerator

SUBJECTS = int(os.environ.get("TELEMETRY_BENCH_SUBJECTS", "120"))
OPS = int(os.environ.get("TELEMETRY_BENCH_OPS", "120"))
REPEATS = int(os.environ.get("TELEMETRY_BENCH_REPEATS", "3"))
PERSONA = "customer"
MAX_DISABLED_OVERHEAD = 0.10

# The spans a single customer mix exercises end to end; used to show
# the enabled run actually recorded the whole request path.
EXPECTED_HISTOGRAMS = ("ps.invoke", "ded.run", "dbfs.store", "journal.commit")

POINT_SUBJECTS = 2000
POINT_CONSENT_RATE = 0.7
POINT_BLOCK_OPS = 300
POINT_PAIRS = 20
# Enough reads to fill the 20,000-span ring before timing starts, so
# every timed block pays for evicting old spans as well as adding new.
POINT_WARMUP_OPS = 2500
POINT_HISTOGRAMS = ("ps.invoke", "ded.run", "dbfs.query_membranes",
                    "dbfs.fetch_records")


def _mix_seconds(telemetry):
    """Wall seconds for one fresh load + customer mix run."""
    adapter = RgpdOSAdapter(with_machine=False, telemetry=telemetry)
    runner = GDPRBenchRunner(adapter, seed=7)
    runner.load(SUBJECTS)
    start = time.perf_counter()
    runner.run(PERSONA, OPS)
    seconds = time.perf_counter() - start
    return seconds, adapter.system


def test_telemetry_overhead_under_10pct():
    """Full tracing keeps the GDPRBench mix within 10% of disabled.

    ``min`` over REPEATS fresh runs per configuration: the best case
    is the honest estimate of the code path's cost — everything above
    it is scheduler/allocator noise, which would otherwise dominate a
    sub-10% comparison.
    """
    enabled_runs, disabled_runs = [], []
    enabled_system = None
    for _ in range(REPEATS):
        seconds, system = _mix_seconds(Telemetry())
        enabled_runs.append(seconds)
        enabled_system = system
        seconds, _ = _mix_seconds(Telemetry.disabled())
        disabled_runs.append(seconds)
    enabled_best = min(enabled_runs)
    disabled_best = min(disabled_runs)
    overhead = enabled_best / disabled_best - 1.0

    registry = enabled_system.telemetry.registry
    for name in EXPECTED_HISTOGRAMS:
        histogram = registry.histograms.get(name)
        assert histogram is not None and histogram.count > 0, (
            f"enabled run recorded no {name!r} latencies"
        )
    span_count = len(enabled_system.telemetry.tracer)
    assert span_count > 0

    rows = [
        ("config", "best_s", "per_op_ms"),
        ("enabled", round(enabled_best, 4),
         round(enabled_best / OPS * 1e3, 3)),
        ("disabled", round(disabled_best, 4),
         round(disabled_best / OPS * 1e3, 3)),
        ("enabled_vs_disabled", f"{overhead:+.1%}", ""),
        ("spans_recorded", span_count, ""),
    ]
    print_series(
        f"TELEMETRY overhead ({SUBJECTS} subjects, {OPS} ops, "
        f"min of {REPEATS})", rows,
    )
    merge_metric(
        "telemetry", "gdprbench_mix_overhead",
        config={
            "subjects": SUBJECTS, "ops": OPS, "repeats": REPEATS,
            "persona": PERSONA,
        },
        samples={
            "enabled_seconds": enabled_best,
            "disabled_seconds": disabled_best,
            "enabled_runs": enabled_runs,
            "disabled_runs": disabled_runs,
            "spans_recorded": span_count,
        },
        speedup=enabled_best / disabled_best, baseline="disabled_seconds",
        latency=latency_block(registry, EXPECTED_HISTOGRAMS),
    )
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"enabled-telemetry mix is {overhead:+.1%} over disabled "
        f"(limit +{MAX_DISABLED_OVERHEAD:.0%})"
    )


def _point_store(telemetry, batch):
    """The shipped single-store configuration, loaded with ``batch``."""
    adapter = RgpdOSAdapter(telemetry=telemetry)
    return adapter, adapter.insert_many(batch)


def _read_block(adapter, keys, picks):
    """Wall seconds and answers for one block of point reads."""
    start = time.perf_counter()
    answers = [adapter.read(keys[index], PURPOSE_ANALYTICS) for index in picks]
    return time.perf_counter() - start, answers


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def test_point_read_overhead():
    """Per-op cost of telemetry on purpose reads (recorded, not gated)."""
    rng = Random(2024)
    subjects = PopulationGenerator(seed=41).subjects(POINT_SUBJECTS)
    batch = [
        (subject,
         {PURPOSE_ANALYTICS: "v_ano"} if rng.random() < POINT_CONSENT_RATE
         else {})
        for subject in subjects
    ]
    enabled, enabled_keys = _point_store(Telemetry(), batch)
    disabled, disabled_keys = _point_store(Telemetry.disabled(), batch)
    sides = ((enabled, enabled_keys), (disabled, disabled_keys))

    warmup = [rng.randrange(POINT_SUBJECTS) for _ in range(POINT_WARMUP_OPS)]
    for adapter, keys in sides:
        _read_block(adapter, keys, warmup)
    registry = enabled.system.telemetry.registry
    registry.reset()

    enabled_us, disabled_us, ratios = [], [], []
    denied = 0
    for pair in range(POINT_PAIRS):
        picks = [rng.randrange(POINT_SUBJECTS) for _ in range(POINT_BLOCK_OPS)]
        order = sides if pair % 2 == 0 else sides[::-1]
        timed = {adapter: _read_block(adapter, keys, picks)
                 for adapter, keys in order}
        on_seconds, on_answers = timed[enabled]
        off_seconds, off_answers = timed[disabled]
        assert on_answers == off_answers, "telemetry changed an answer"
        denied += sum(answer is None for answer in on_answers)
        enabled_us.append(on_seconds / POINT_BLOCK_OPS * 1e6)
        disabled_us.append(off_seconds / POINT_BLOCK_OPS * 1e6)
        ratios.append(on_seconds / off_seconds)

    measured_ops = POINT_PAIRS * POINT_BLOCK_OPS
    assert registry.histograms["ps.invoke"].count == measured_ops
    assert len(enabled.system.telemetry.tracer) > 0
    assert len(disabled.system.telemetry.tracer) == 0
    denied_share = denied / measured_ops
    ratio = statistics.median(ratios)
    enabled_q, disabled_q = _quartiles(enabled_us), _quartiles(disabled_us)

    rows = [("config", "median_us_per_op", "q1", "q3")]
    for name, q in (("enabled", enabled_q), ("disabled", disabled_q)):
        rows.append((name, round(q["median"], 2), round(q["q1"], 2),
                     round(q["q3"], 2)))
    rows += [
        ("median enabled/disabled", round(ratio, 3), "", ""),
        ("denied share", round(denied_share, 3), "", ""),
    ]
    print_series(
        f"TELEMETRY point-read overhead ({POINT_SUBJECTS} subjects, "
        f"{POINT_PAIRS} alternating block pairs of {POINT_BLOCK_OPS} reads)",
        rows,
    )
    merge_metric(
        "telemetry", "point_read_overhead",
        config={
            "subjects": POINT_SUBJECTS, "consent_rate": POINT_CONSENT_RATE,
            "block_ops": POINT_BLOCK_OPS, "pairs": POINT_PAIRS,
            "warmup_ops": POINT_WARMUP_OPS, "processing": "bench_analytics",
        },
        samples={
            "enabled_us_per_op": enabled_q,
            "disabled_us_per_op": disabled_q,
            "ratios": [round(value, 4) for value in ratios],
            "denied_share": round(denied_share, 4),
        },
        speedup=ratio, baseline="disabled_us_per_op",
        latency=latency_block(registry, POINT_HISTOGRAMS),
    )
