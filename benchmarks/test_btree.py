"""BTREE — durable index pages keep remount flat; blooms and batches pay off.

Three measurements, emitted to ``BENCH_btree.json`` in the shared
``bench_util`` schema:

* **attach flatness** — a volume at two table sizes (1k and 50k
  records by default) is remounted through the true-crash path and
  the ``dbfs.remount.index_attach`` histogram is read per round.
  Attaching a durable index root is pure inode metadata — root attrs
  only, no page payloads, no bloom bits (that read is deferred to the
  first consult) — so the attach phase must stay flat (≤1.3x) while
  the table grows 50x.  Total remount time is reported alongside for
  context (the tree rebuild is O(records) and is bounded elsewhere).
* **bloom negative-lookup speedup** — the same volume remounted with
  ``bloom_filters`` off vs on, timing a mix of unknown-subject
  membrane queries.  Without the per-table bloom every negative
  lookup walks the full table listing and loads each membrane; with
  it the query answers from the filter alone (≥5x, typically far
  more), and ``stats.index_bloom_skips`` accounts every skip.
* **batched residual speedup** — an unindexed two-sided range over
  ``score`` forces a full scan; DBFS's batched scan (vectorized
  residual evaluation over batches of partially-decoded v2 rows) must
  beat a row-at-a-time loop over the same plan (one membrane load and
  one decode per row) by ≥2x.

Scale knobs (for the CI smoke job): ``BTREE_BENCH_SMALL``,
``BTREE_BENCH_LARGE``, ``BTREE_BENCH_NEG_LOOKUPS``.
"""

import os
import time

from bench_util import latency_block, merge_metric
from conftest import print_series

from repro.core.crypto import Authority
from repro.core.datatypes import FieldDef, PDType
from repro.core.membrane import membrane_for_type
from repro.obs import Telemetry
from repro.storage.block import BlockDevice
from repro.storage.crashsim import DED
from repro.storage.dbfs import DatabaseFS
from repro.storage.planner import compile_residual
from repro.storage.query import MembraneQuery, Predicate, StoreRequest

SMALL = int(os.environ.get("BTREE_BENCH_SMALL", "1000"))
LARGE = int(os.environ.get("BTREE_BENCH_LARGE", "50000"))
NEG_LOOKUPS = int(os.environ.get("BTREE_BENCH_NEG_LOOKUPS", "100"))
ATTACH_ROUNDS = 7
SCAN_ROUNDS = 3

#: Acceptance gates (see ISSUE 7): attach flat in table size, blooms
#: worth ≥5x on negative lookups, batched residuals worth ≥2x on scans.
TARGET_ATTACH_RATIO = 1.3
TARGET_NEG_SPEEDUP = 5.0
TARGET_RESIDUAL_SPEEDUP = 2.0
#: The residual gate only binds at scan sizes where decode cost (not
#: per-query planning overhead) dominates; the CI smoke job runs
#: below this and records the numbers without gating, like the
#: concurrency smoke does for its full-scale target.
RESIDUAL_GATE_MIN_RECORDS = 10000

AUTHORITY = Authority(bits=512, seed=515)
OPERATOR_KEY = AUTHORITY.issue_operator_key("btree-bench-op")


def bench_type() -> PDType:
    return PDType(
        name="btree_user",
        fields=(
            FieldDef("name", "string"),
            FieldDef("year", "int"),
            FieldDef("score", "int"),   # unindexed: drives the scan test
            FieldDef("city", "string"),
        ),
    )


#: Filled volumes are reused across the three tests (the 50k fill is
#: the expensive part of this benchmark, not the measurements).
_STORES = {}


def _filled(records: int) -> DatabaseFS:
    if records in _STORES:
        return _STORES[records]
    # Enough blocks for records plus journal churn; the inode table
    # auto-scales with the device (max_inodes >= block_count).
    device = BlockDevice(block_count=max(65536, 6 * records))
    fs = DatabaseFS(device=device, operator_key=OPERATOR_KEY)
    fs.create_type(bench_type(), DED)
    i = 0
    while i < records:
        hi = min(records, i + 256)
        with fs.journal.batch():
            for j in range(i, hi):
                membrane = membrane_for_type(
                    bench_type(), f"btree-subject-{j}", created_at=0.0
                )
                fs.store(
                    StoreRequest(
                        pd_type="btree_user",
                        record={
                            "name": f"user-{j:06d}",
                            "year": 1900 + (j % 120),
                            # 7919 is coprime to 100000, so scores
                            # spread uniformly at any fill size and
                            # the scan predicates match ~half the
                            # table regardless of scale.
                            "score": j * 7919 % 100000,
                            "city": f"city-{j % 97}",
                        },
                        membrane_json=membrane.to_json(),
                    ),
                    DED,
                )
        i = hi
    for field_name in ("name", "year", "city"):
        fs.create_index("btree_user", field_name, DED)
    fs.flush_accelerators()
    _STORES[records] = fs
    return fs


def test_attach_flat_in_table_size():
    """Index attach at remount must not grow with the table.

    Rounds interleave the two sizes: the attach window is tens of
    microseconds, so comparing back-to-back blocks would gate on
    machine-state drift between the blocks rather than on the phase
    itself.
    """
    sizes = sorted({SMALL, LARGE})
    stores = {records: _filled(records) for records in sizes}
    attach_times = {records: [] for records in sizes}
    total_times = {records: [] for records in sizes}
    recovered_by_size = {}
    last_latency = None
    for _ in range(ATTACH_ROUNDS):
        for records in sizes:
            fs = stores[records]
            telemetry = Telemetry(tracing=False)
            start = time.perf_counter()
            recovered = DatabaseFS.remount_from_device(
                fs.device, fs.inodes,
                operator_key=OPERATOR_KEY, telemetry=telemetry,
            )
            total_times[records].append(time.perf_counter() - start)
            attach_times[records].append(
                telemetry.registry.histograms[
                    "dbfs.remount.index_attach"
                ].sum_ns / 1e9
            )
            recovered_by_size[records] = recovered
            last_latency = latency_block(
                telemetry.registry,
                ["dbfs.remount", "dbfs.remount.index_attach"],
            )

    rows = [("records", "attach_us", "remount_s")]
    samples = {}
    attach_best = {}
    for records in sizes:
        best_attach = min(attach_times[records])
        best_total = min(total_times[records])
        attach_best[records] = best_attach

        # Sanity: the lazily-attached index answers correctly, and
        # only the lookup (not the attach) faults pages in.
        recovered = recovered_by_size[records]
        assert recovered.stats.index_page_reads == 0
        probe = records // 2
        uids = recovered.select_uids(
            "btree_user", Predicate("name", "eq", f"user-{probe:06d}"), DED
        )
        assert len(uids) == 1
        assert recovered.stats.index_page_reads > 0

        samples[f"records_{records}_attach_seconds"] = best_attach
        samples[f"records_{records}_remount_seconds"] = best_total
        rows.append((records, round(best_attach * 1e6, 1),
                     round(best_total, 3)))

    ratio = attach_best[sizes[-1]] / max(attach_best[sizes[0]], 1e-9)
    print_series(
        f"BTREE attach flatness ({sizes[0]} -> {sizes[-1]} records, "
        f"best of {ATTACH_ROUNDS}; ratio {ratio:.2f}x)", rows,
    )
    merge_metric(
        "btree", "remount_attach_flatness",
        config={"sizes": sizes, "rounds": ATTACH_ROUNDS,
                "target_ratio": TARGET_ATTACH_RATIO},
        samples=samples,
        latency=last_latency,
        extra={"attach_ratio": round(ratio, 3)},
    )
    assert ratio <= TARGET_ATTACH_RATIO, (
        f"index attach grew {ratio:.2f}x from {sizes[0]} to {sizes[-1]} "
        f"records (gate: {TARGET_ATTACH_RATIO}x)"
    )


def test_bloom_negative_lookup_speedup():
    """Unknown-subject queries must answer from the bloom, not the device."""
    fs = _filled(SMALL)
    timings = {}
    skips = {}
    for bloom in (False, True):
        recovered = DatabaseFS.remount_from_device(
            fs.device, fs.inodes,
            operator_key=OPERATOR_KEY, bloom_filters=bloom,
        )
        # Warm-up outside the timed loop (page cache, record caches).
        recovered.query_membranes(
            MembraneQuery(pd_type="btree_user", subject_id="absent-warm"),
            DED,
        )
        start = time.perf_counter()
        for i in range(NEG_LOOKUPS):
            out = recovered.query_membranes(
                MembraneQuery(
                    pd_type="btree_user", subject_id=f"absent-{i}"
                ),
                DED,
            )
            assert out == []
        timings[bloom] = time.perf_counter() - start
        skips[bloom] = recovered.stats.index_bloom_skips

    # Every negative lookup on the bloom path must be a recorded skip.
    assert skips[True] >= NEG_LOOKUPS
    assert skips[False] == 0

    speedup = timings[False] / max(timings[True], 1e-9)
    print_series(
        f"BTREE bloom negative lookups ({NEG_LOOKUPS} unknown subjects, "
        f"{SMALL} records)",
        [("bloom", "seconds", "skips"),
         ("off", round(timings[False], 4), skips[False]),
         ("on", round(timings[True], 6), skips[True])],
    )
    merge_metric(
        "btree", "bloom_negative_lookups",
        config={"records": SMALL, "lookups": NEG_LOOKUPS,
                "target_speedup": TARGET_NEG_SPEEDUP},
        samples={"bloom_off_seconds": timings[False],
                 "bloom_on_seconds": timings[True]},
        speedup=round(speedup, 2),
        extra={"bloom_skips": skips[True]},
    )
    assert speedup >= TARGET_NEG_SPEEDUP, (
        f"bloom negative-lookup speedup {speedup:.1f}x below "
        f"{TARGET_NEG_SPEEDUP}x gate"
    )


def _row_at_a_time(fs, type_name, predicates):
    """The same plan without the batched scan: per uid of the table
    listing, load the membrane to check erasure, then decode the
    residual's fields and evaluate them."""
    plan = fs.explain(type_name, predicates, DED)
    evaluate = compile_residual(plan.residual)
    matches = []
    for uid in fs._table_listing(type_name):
        if fs._load_membrane(uid).erased:
            continue
        if evaluate(fs._load_record_fields(uid, plan.fields_needed)):
            matches.append(uid)
    return matches


def test_batched_residual_speedup():
    """Vectorized residual evaluation must beat row-at-a-time scans."""
    fs = _filled(LARGE)
    predicates = (
        Predicate("score", "ge", 20000),
        Predicate("score", "lt", 70000),
    )
    scans = {
        "row_at_a_time": lambda store: _row_at_a_time(
            store, "btree_user", predicates
        ),
        "batched": lambda store: store.select_uids_where(
            "btree_user", predicates, DED
        ),
    }
    timings = {}
    matched = {}
    for name, scan in scans.items():
        recovered = DatabaseFS.remount_from_device(
            fs.device, fs.inodes, operator_key=OPERATOR_KEY,
        )
        scan(recovered)  # warm
        best = None
        for _ in range(SCAN_ROUNDS):
            start = time.perf_counter()
            uids = scan(recovered)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        timings[name] = best
        matched[name] = uids

    assert matched["row_at_a_time"] == matched["batched"]
    assert matched["batched"]

    speedup = timings["row_at_a_time"] / max(timings["batched"], 1e-9)
    print_series(
        f"BTREE batched residual scan ({LARGE} records, "
        f"{len(matched['batched'])} matched)",
        [("scan", "seconds"),
         ("row_at_a_time", round(timings["row_at_a_time"], 4)),
         ("batched", round(timings["batched"], 4))],
    )
    merge_metric(
        "btree", "batched_residual_scan",
        config={"records": LARGE, "rounds": SCAN_ROUNDS,
                "predicates": [str(p) for p in predicates],
                "target_speedup": TARGET_RESIDUAL_SPEEDUP},
        samples={"row_at_a_time_seconds": timings["row_at_a_time"],
                 "batched_seconds": timings["batched"]},
        speedup=round(speedup, 2), baseline="row_at_a_time_seconds",
        extra={"matched": len(matched["batched"])},
    )
    if LARGE >= RESIDUAL_GATE_MIN_RECORDS:
        assert speedup >= TARGET_RESIDUAL_SPEEDUP, (
            f"batched residual speedup {speedup:.1f}x below "
            f"{TARGET_RESIDUAL_SPEEDUP}x gate"
        )
