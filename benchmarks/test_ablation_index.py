"""ABL-I — ablation: B-tree field index vs full scan in DBFS.

Idea 3 turns files into typed records; this ablation quantifies one
payoff: selective queries over a typed field.  Both stores answer
through the one query planner: an indexed selection touches
O(log n + matches) index keys; the scan decodes the predicate's field
of every row in the table.  The gap widens with the store — the
design-choice evidence for DBFS carrying database machinery inside
the filesystem.
"""

import time

from conftest import print_series

from repro.core.active_data import AccessCredential
from repro.core.crypto import Authority
from repro.core.membrane import membrane_for_type
from repro.dsl.loader import load_source
from repro.storage.dbfs import DatabaseFS
from repro.storage.query import Predicate, StoreRequest
from repro.workloads.generator import (
    STANDARD_DECLARATIONS,
    PopulationGenerator,
)

DED = AccessCredential(holder="abl-ded", is_ded=True)


def build_store(record_count, with_index):
    authority = Authority(bits=512, seed=88)
    dbfs = DatabaseFS(operator_key=authority.issue_operator_key("abl-op"))
    types, _ = load_source(STANDARD_DECLARATIONS)
    user_type = types["user"]
    dbfs.create_type(user_type, DED)
    generator = PopulationGenerator(seed=88)
    for subject in generator.subjects(record_count):
        membrane = membrane_for_type(user_type, subject.subject_id, 0.0)
        dbfs.store(
            StoreRequest("user", subject.user_record(), membrane.to_json()),
            DED,
        )
    if with_index:
        dbfs.create_index("user", "year_of_birthdate", DED)
    return dbfs


def timed_selections(dbfs, repetitions=20):
    predicate = Predicate("year_of_birthdate", "lt", 1975)
    start = time.perf_counter()
    for _ in range(repetitions):
        result = dbfs.select_uids("user", predicate, DED)
    return time.perf_counter() - start, result


def test_abli_index_vs_scan_sweep(benchmark):
    rows = [("records", "scan_ms", "indexed_ms", "speedup")]
    speedups = []
    for record_count in (50, 100, 200):
        scan_store = build_store(record_count, with_index=False)
        indexed_store = build_store(record_count, with_index=True)
        scan_seconds, scan_result = timed_selections(scan_store)
        indexed_seconds, indexed_result = timed_selections(indexed_store)
        # Same seeded population → same matching subjects (uids differ
        # because the uid counter is process-global).
        scan_subjects = {
            scan_store.get_membrane(uid, DED).subject_id
            for uid in scan_result
        }
        indexed_subjects = {
            indexed_store.get_membrane(uid, DED).subject_id
            for uid in indexed_result
        }
        assert scan_subjects == indexed_subjects
        speedup = scan_seconds / max(indexed_seconds, 1e-9)
        speedups.append(speedup)
        rows.append(
            (record_count, round(scan_seconds * 1e3, 2),
             round(indexed_seconds * 1e3, 2), round(speedup, 1))
        )
    print_series("Indexed selection vs full scan (20 queries each)", rows)
    benchmark.extra_info["speedups"] = speedups

    indexed_store = build_store(100, with_index=True)
    benchmark(
        indexed_store.select_uids, "user",
        Predicate("year_of_birthdate", "lt", 1975), DED,
    )

    # The index wins decisively at every size (wall-clock ratios are
    # noisy run to run, so assert the magnitude, not strict growth).
    assert all(speedup > 10.0 for speedup in speedups)


def test_abli_index_maintenance_cost(benchmark):
    """What the index costs on the write path: store latency with and
    without a maintained index — the other side of the trade."""
    rows = [("variant", "stores_per_second")]
    rates = {}
    for label, with_index in (("no-index", False), ("indexed", True)):
        dbfs = build_store(10, with_index=with_index)
        types, _ = load_source(STANDARD_DECLARATIONS)
        user_type = types["user"]
        generator = PopulationGenerator(seed=89)
        subjects = generator.subjects(100)
        start = time.perf_counter()
        for subject in subjects:
            membrane = membrane_for_type(user_type, subject.subject_id, 0.0)
            dbfs.store(
                StoreRequest(
                    "user", subject.user_record(), membrane.to_json()
                ),
                DED,
            )
        elapsed = time.perf_counter() - start
        rates[label] = len(subjects) / elapsed
        rows.append((label, round(rates[label])))
    print_series("Store throughput with/without index maintenance", rows)

    # The write-path tax is bounded: well under 2x.
    assert rates["indexed"] > rates["no-index"] / 2

    dbfs = build_store(10, with_index=True)
    types, _ = load_source(STANDARD_DECLARATIONS)
    user_type = types["user"]
    subject = PopulationGenerator(seed=90).subject()

    def one_store():
        membrane = membrane_for_type(
            user_type, subject.subject_id, 0.0
        )
        return dbfs.store(
            StoreRequest("user", subject.user_record(), membrane.to_json()),
            DED,
        )

    benchmark(one_store)
