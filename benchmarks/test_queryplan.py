"""QUERYPLAN — binary-v2 rows + selectivity-driven planning.

Three measurements, emitted to ``BENCH_queryplan.json`` (bench_util
schema v2):

* **codec round-trip** — µs/row to encode/decode one row as binary-v2
  vs the JSON escrow encoding (``encode_record_v1``), plus the v2
  partial-decode cost of touching a single field (informational; no
  gate);
* **single predicate** — one indexed predicate, planned store vs a
  naive store with no indexes (informational);
* **multi-predicate mix** — a conjunctive query mix through
  ``select_uids_where``: the planner over indexed fields against a
  store with no indexes, which scans and partially decodes every row.
  Gate: >= 3x.

Runs at one fixed scale: 400 subjects, 6 rounds, 2000 codec rows.
"""

import itertools
import time

from bench_util import latency_block, merge_metric
from conftest import print_series

from repro import RgpdOS
from repro.storage import dbfs as dbfs_module
from repro.storage.cache import CacheConfig
from repro.storage.codec import (
    RecordCodec,
    decode_record_v1,
    encode_record_v1,
)
from repro.storage.query import Predicate
from repro.workloads.generator import (
    STANDARD_DECLARATIONS,
    PopulationGenerator,
)

SUBJECTS = 400
ROUNDS = 6
CODEC_ROWS = 2000

TARGET_MIX_SPEEDUP = 3.0

#: The conjunctive query mix (fields of the standard ``user`` type).
QUERY_MIX = [
    (Predicate("year_of_birthdate", "ge", 1990),
     Predicate("city", "eq", "Lyon")),
    (Predicate("city", "eq", "Paris"),
     Predicate("year_of_birthdate", "lt", 1985)),
    (Predicate("year_of_birthdate", "ge", 1970),
     Predicate("year_of_birthdate", "le", 1975),
     Predicate("city", "ne", "Nice")),
    (Predicate("city", "eq", "Rennes"),
     Predicate("name", "contains", "a")),
]

#: Record cache off so every query actually decodes rows; all other
#: fast-path caches stay at production defaults on BOTH sides.
BENCH_CACHES = CacheConfig(record_cache_records=0)


def build_system(authority, indexed):
    # Fresh uid counter per system so the naive and planned builds
    # assign the same uids and their query results compare directly.
    dbfs_module._uid_counter = itertools.count(5_000_000)
    system = RgpdOS(
        operator_name="queryplan-bench",
        authority=authority,
        with_machine=False,
        cache_config=BENCH_CACHES,
    )
    system.install(STANDARD_DECLARATIONS)
    generator = PopulationGenerator(seed=404)
    with system.dbfs.batch():
        for subject in generator.subjects(SUBJECTS):
            system.collect(
                "user", subject.user_record(),
                subject_id=subject.subject_id,
                method="web_form", consents={"analytics": "v_ano"},
            )
    credential = system.ps.builtins.credential
    if indexed:
        system.dbfs.create_index("user", "year_of_birthdate", credential)
        system.dbfs.create_index("user", "city", credential)
    return system, credential


def time_repeat(fn, rounds=ROUNDS):
    fn()  # warm-up
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return time.perf_counter() - start


def sample_rows(count):
    generator = PopulationGenerator(seed=505)
    return [subject.user_record() for subject in generator.subjects(count)]


def test_codec_round_trip(benchmark):
    """µs/row: JSON escrow vs v2 binary encode/decode + v2 partial decode."""
    rows = sample_rows(min(CODEC_ROWS, 500))
    repeats = max(1, CODEC_ROWS // len(rows))
    codec = RecordCodec(sorted(rows[0]))
    v1_blobs = [encode_record_v1(dict(row)) for row in rows]
    v2_blobs = [codec.encode(dict(row)) for row in rows]
    for v1_blob, v2_blob, row in zip(v1_blobs, v2_blobs, rows):
        assert decode_record_v1(v1_blob) == codec.decode(v2_blob) == row

    total = len(rows) * repeats

    def per_row_us(fn):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - start) / total * 1e6

    v1_encode = per_row_us(
        lambda: [encode_record_v1(dict(row)) for row in rows])
    v2_encode = per_row_us(lambda: [codec.encode(dict(row)) for row in rows])
    v1_decode = per_row_us(lambda: [decode_record_v1(b) for b in v1_blobs])
    v2_decode = per_row_us(lambda: [codec.decode(b) for b in v2_blobs])
    v2_partial = per_row_us(
        lambda: [codec.decode_fields(b, ("city",)) for b in v2_blobs])

    rows_out = [
        ("codec", "encode_us", "decode_us", "partial_us"),
        ("v1-json", round(v1_encode, 3), round(v1_decode, 3), "-"),
        ("v2-binary", round(v2_encode, 3), round(v2_decode, 3),
         round(v2_partial, 3)),
    ]
    print_series(f"QUERYPLAN codec round-trip ({total} rows)", rows_out)
    benchmark.extra_info["v2_partial_vs_v1_decode"] = v1_decode / v2_partial
    merge_metric(
        "queryplan", "codec_round_trip",
        config={"rows": total},
        samples={
            "v1_encode_us_per_row": v1_encode,
            "v1_decode_us_per_row": v1_decode,
            "v2_encode_us_per_row": v2_encode,
            "v2_decode_us_per_row": v2_decode,
            "v2_partial_decode_us_per_row": v2_partial,
        },
        speedup=v1_decode / v2_partial,
        baseline="v1_decode_us_per_row",
    )
    benchmark(lambda: [codec.decode(b) for b in v2_blobs])


def test_single_predicate(benchmark, authority):
    """One indexed predicate: planned store vs unindexed store."""
    naive, naive_cred = build_system(authority, indexed=False)
    planned, planned_cred = build_system(authority, indexed=True)
    predicates = (Predicate("city", "eq", "Lyon"),)

    def run(system, credential):
        return system.dbfs.select_uids_where("user", predicates, credential)

    assert run(naive, naive_cred) == run(planned, planned_cred)
    naive_seconds = time_repeat(lambda: run(naive, naive_cred))
    planned_seconds = time_repeat(lambda: run(planned, planned_cred))
    speedup = naive_seconds / planned_seconds

    print_series("QUERYPLAN single predicate", [
        ("config", "seconds"),
        ("naive_scan", round(naive_seconds, 5)),
        ("planned_index", round(planned_seconds, 5)),
        ("speedup", round(speedup, 2)),
    ])
    benchmark.extra_info["speedup"] = speedup
    merge_metric(
        "queryplan", "single_predicate",
        config={"subjects": SUBJECTS, "rounds": ROUNDS},
        samples={
            "naive_scan_seconds": naive_seconds,
            "planned_seconds": planned_seconds,
        },
        speedup=speedup, baseline="naive_scan_seconds",
    )
    benchmark(lambda: run(planned, planned_cred))


def test_multi_predicate_mix(benchmark, authority):
    """The conjunctive mix: planner vs unindexed scan, >= 3x gate."""
    naive, naive_cred = build_system(authority, indexed=False)
    planned, planned_cred = build_system(authority, indexed=True)

    def run_mix(system, credential):
        return [
            system.dbfs.select_uids_where("user", predicates, credential)
            for predicates in QUERY_MIX
        ]

    assert run_mix(naive, naive_cred) == run_mix(planned, planned_cred)
    naive_seconds = time_repeat(lambda: run_mix(naive, naive_cred))
    planned_seconds = time_repeat(lambda: run_mix(planned, planned_cred))
    speedup = naive_seconds / planned_seconds

    plans = [
        planned.dbfs.explain("user", predicates, planned_cred).describe()
        for predicates in QUERY_MIX
    ]
    print_series(
        f"QUERYPLAN multi-predicate mix ({SUBJECTS} subjects, "
        f"{len(QUERY_MIX)} queries x {ROUNDS} rounds)",
        [
            ("config", "seconds", "per_mix_ms"),
            ("naive_scan", round(naive_seconds, 5),
             round(naive_seconds / ROUNDS * 1e3, 2)),
            ("planned", round(planned_seconds, 5),
             round(planned_seconds / ROUNDS * 1e3, 2)),
            ("speedup", round(speedup, 2), ""),
        ],
    )
    benchmark.extra_info["speedup"] = speedup
    stats = planned.dbfs.stats
    merge_metric(
        "queryplan", "multi_predicate_mix",
        config={
            "subjects": SUBJECTS, "rounds": ROUNDS,
            "queries": len(QUERY_MIX),
        },
        samples={
            "naive_scan_seconds": naive_seconds,
            "planned_seconds": planned_seconds,
        },
        speedup=speedup, baseline="naive_scan_seconds",
        latency=latency_block(
            planned.telemetry.registry, ["dbfs.select_where", "dbfs.plan"]
        ),
        extra={
            "plans": plans,
            "decode_stats": {
                "partial_decodes": stats.partial_decodes,
                "full_decodes": stats.full_decodes,
                "plans": stats.plans,
            },
        },
    )
    assert speedup >= TARGET_MIX_SPEEDUP, (
        f"multi-predicate speedup {speedup:.2f}x below the "
        f"{TARGET_MIX_SPEEDUP}x target"
    )
    benchmark(lambda: run_mix(planned, planned_cred))

