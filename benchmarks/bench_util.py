"""Shared schema for the ``BENCH_*.json`` result files.

Every benchmark suite in this directory emits a machine-readable
result file at the repo root (``BENCH_fastpath.json``,
``BENCH_shard.json``, ...).  They all share one envelope so the
trajectory tooling can diff any of them without per-bench parsing:

.. code-block:: json

    {
      "bench": "shard",
      "schema_version": 1,
      "metrics": {
        "<metric>": {
          "config":   {"subjects": 20000, "shards": 8},
          "samples":  {"one_shard_seconds": 4.1, "sharded_seconds": 1.2},
          "speedup":  3.4,
          "baseline": "one_shard"
        }
      }
    }

``config`` holds the knobs the metric ran with, ``samples`` the named
raw measurements, and ``speedup``/``baseline`` appear only on
comparative metrics (speedup is *vs the named baseline sample*).
Additional metric-specific keys (cache stats, journal stats) ride
along at the metric level.

Since schema version 2, metrics may carry a ``latency`` block mapping
operation names to latency-histogram summaries pulled from the
telemetry registry (``repro.obs``)::

    "latency": {
      "dbfs.select_where": {"count": 800, "p50_us": 41.2, "p95_us": 97.0,
                      "p99_us": 143.8, "max_us": 512.0, "mean_us": 48.9}
    }
"""

import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

try:  # benchmarks run with PYTHONPATH=src; keep import failure readable
    from repro.obs import MetricsRegistry
except ImportError:  # pragma: no cover - bench harness misconfiguration
    MetricsRegistry = None  # type: ignore[assignment, misc]

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 2


def latency_block(
    registry: "MetricsRegistry", names: Sequence[str]
) -> Dict[str, Dict[str, float]]:
    """Latency summaries (p50/p95/p99/max, µs) for the named histograms.

    Histograms with no observations are omitted, so smoke runs that
    skip an op don't emit all-zero percentiles.
    """
    block: Dict[str, Dict[str, float]] = {}
    for name in names:
        histogram = registry.histograms.get(name)
        if histogram is not None and histogram.count:
            block[name] = histogram.summary()
    return block


def result_path(bench_name: str) -> Path:
    return REPO_ROOT / f"BENCH_{bench_name}.json"


def merge_metric(
    bench_name: str,
    metric: str,
    config: Optional[Mapping[str, object]] = None,
    samples: Optional[Mapping[str, object]] = None,
    speedup: Optional[float] = None,
    baseline: Optional[str] = None,
    latency: Optional[Mapping[str, Mapping[str, float]]] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> Path:
    """Accumulate one metric into ``BENCH_<bench_name>.json``.

    Each test writes its own metric independently, so partial runs
    still leave a valid (if incomplete) result file.
    """
    path = result_path(bench_name)
    data: Dict[str, object] = {}
    if path.exists():
        data = json.loads(path.read_text())
    data["bench"] = bench_name
    data["schema_version"] = SCHEMA_VERSION
    metrics = data.setdefault("metrics", {})
    entry: Dict[str, object] = {}
    if config:
        entry["config"] = dict(config)
    if samples:
        entry["samples"] = dict(samples)
    if speedup is not None:
        entry["speedup"] = round(float(speedup), 4)
        entry["baseline"] = baseline or "baseline"
    if latency:
        entry["latency"] = {name: dict(summary) for name, summary in latency.items()}
    if extra:
        entry.update(extra)
    metrics[metric] = entry  # type: ignore[index]
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
