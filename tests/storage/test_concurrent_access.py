"""Threaded stress tests: snapshot isolation and index coherence
under genuinely parallel writers, plus crash recovery with the
request engine in the loop.

These are seeded and bounded (a few hundred operations, a handful of
threads) so they run in tier-1 time, but every assertion is exact —
no "mostly correct under load" allowances:

* a snapshot begun AFTER a revocation committed must never serve the
  revoked consent, no matter how many writers are in flight;
* a snapshot begun after an RTBF erasure must never expose the
  scrubbed payload;
* an index plan and a scan plan of one predicate must agree on
  records no writer touches, and may disagree only on uids the
  writers own;
* a store is invisible to an older snapshot from the moment a reader
  can find it (deterministic: the select runs inside the store's
  journal commit);
* the CrashSim invariants must hold when every workload op travels
  through a RequestEngine worker instead of the caller's thread.
"""

import random
import threading

import pytest

from repro import errors
from repro.core.active_data import AccessCredential
from repro.core.crypto import Authority
from repro.core.datatypes import FieldDef, PDType
from repro.core.membrane import membrane_for_type
from repro.engine import RequestEngine
from repro.storage.crashsim import CrashSim
from repro.storage.dbfs import DatabaseFS
from repro.storage.planner import plan_query
from repro.storage.query import (
    DeleteRequest,
    MembraneQuery,
    Predicate,
    StoreRequest,
    UpdateRequest,
)
from repro.storage.shard import ShardedDBFS

DED = AccessCredential(holder="stress-ded", is_ded=True)

WRITER_THREADS = 3
SCAN_ROUNDS = 40


def make_type():
    return PDType(
        name="user",
        fields=(FieldDef("name", "string"), FieldDef("year", "int")),
        default_consent={"stats": "all"},
        collection={"web_form": "form.html"},
    )


def store(fs, subject, year=1900):
    membrane = membrane_for_type(make_type(), subject, created_at=0.0)
    return fs.store(
        StoreRequest(
            pd_type="user",
            record={"name": f"name-{subject}", "year": year},
            membrane_json=membrane.to_json(),
        ),
        DED,
    )


def make_fleet(shard_count=4, seed=53):
    authority = Authority(bits=512, seed=seed)
    fs = ShardedDBFS(
        shard_count=shard_count,
        operator_key=authority.issue_operator_key("stress-op"),
    )
    fs.create_type(make_type(), DED)
    return fs


class TestSnapshotIsolationStress:
    def test_no_snapshot_after_revocation_sees_consent(self):
        """Revocations interleaved with snapshot scans, in parallel.

        Writers revoke the ``stats`` purpose subject by subject and
        append the uid to a committed-log AFTER put_membrane returns.
        Scanners begin a snapshot, copy the committed-log prefix, and
        assert every logged uid already reads as revoked through that
        snapshot — the "next snapshot sees it" half of the MVCC
        contract, under real thread interleaving.
        """
        fleet = make_fleet(seed=61)
        refs = [store(fleet, f"subject-{i}") for i in range(60)]
        committed = []  # uids whose revocation has committed
        committed_lock = threading.Lock()
        stop = threading.Event()
        failures = []

        def revoker(worker, rng):
            mine = refs[worker::WRITER_THREADS]
            for ref in mine:
                with fleet.write_lock(ref.uid):
                    membrane = fleet.get_membrane(ref.uid, DED)
                    membrane.revoke("stats", at=1.0, by=membrane.subject_id)
                    fleet.put_membrane(ref.uid, membrane, DED)
                with committed_lock:
                    committed.append(ref.uid)

        def scanner():
            while not stop.is_set():
                with committed_lock:
                    sealed = list(committed)
                snapshot = fleet.begin_snapshot()
                try:
                    pairs = fleet.query_membranes(
                        MembraneQuery("user"), DED, snapshot=snapshot
                    )
                    granted = {
                        ref.uid for ref, m in pairs
                        if m.permits("stats") is not None
                    }
                    leaked = granted & set(sealed)
                    if leaked:
                        failures.append(
                            f"snapshot served revoked consent for {leaked}"
                        )
                        return
                finally:
                    snapshot.release()

        writers = [
            threading.Thread(target=revoker, args=(i, random.Random(i)))
            for i in range(WRITER_THREADS)
        ]
        scanners = [threading.Thread(target=scanner) for _ in range(2)]
        for thread in scanners + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=30.0)
        stop.set()
        for thread in scanners:
            thread.join(timeout=30.0)
        assert not failures, failures[0]
        # Steady state: every membrane revoked, nothing granted.
        pairs = fleet.query_membranes(MembraneQuery("user"), DED)
        assert all(m.permits("stats") is None for _, m in pairs)
        assert fleet.mvcc_stats()["active_snapshots"] == 0

    def test_no_snapshot_exposes_erased_payload(self):
        """RTBF vs. concurrent snapshot exports.

        Erasers scrub subjects and log them as committed; exporters
        take snapshots and export logged subjects.  An export through
        ANY snapshot must show ``data: None`` for a committed erasure
        — erasure is stricter than MVCC and never waits for readers.
        """
        fleet = make_fleet(seed=67)
        subjects = [f"subject-{i}" for i in range(40)]
        refs = {s: store(fleet, s) for s in subjects}
        erased = []
        erased_lock = threading.Lock()
        stop = threading.Event()
        failures = []

        def eraser(worker):
            for subject in subjects[worker::2]:
                fleet.delete(
                    DeleteRequest(refs[subject].uid, mode="erase"), DED
                )
                with erased_lock:
                    erased.append(subject)

        def exporter():
            while not stop.is_set():
                with erased_lock:
                    sealed = list(erased)
                if not sealed:
                    continue
                snapshot = fleet.begin_snapshot()
                try:
                    for subject in sealed[-5:]:
                        export = fleet.export_subject(
                            subject, DED, snapshot=snapshot
                        )
                        for entry in export["records"]:
                            if entry["data"] is not None:
                                failures.append(
                                    f"snapshot exposed erased payload of "
                                    f"{subject}: {entry['uid']}"
                                )
                                return
                finally:
                    snapshot.release()

        erasers = [
            threading.Thread(target=eraser, args=(i,)) for i in range(2)
        ]
        exporters = [threading.Thread(target=exporter) for _ in range(2)]
        for thread in exporters + erasers:
            thread.start()
        for thread in erasers:
            thread.join(timeout=30.0)
        stop.set()
        for thread in exporters:
            thread.join(timeout=30.0)
        assert not failures, failures[0]
        assert sorted(erased) == sorted(subjects)


class TestIndexScanEquivalence:
    def test_indexed_equals_scan_under_parallel_writers(self):
        """The index plan ≡ a scan plan while writers churn.

        The writers own a disjoint "volatile" population (inserted and
        erased in a loop); a stable population is never touched.  On
        every round the planner's index lookup and a scan plan of the
        same predicate (planned with no index) run on the same store:
        they must agree exactly on the stable uids, and any difference
        must be confined to volatile uids (a record committed between
        the two calls), never a phantom.
        """
        authority = Authority(bits=512, seed=71)
        dbfs = DatabaseFS(
            operator_key=authority.issue_operator_key("equiv-op")
        )
        dbfs.create_type(make_type(), DED)
        dbfs.create_index("user", "year", DED)

        stable_uids = {
            store(dbfs, f"stable-{i}", year=1900 + i).uid for i in range(20)
        }
        predicate = Predicate("year", "ge", 1900)
        assert dbfs.explain("user", [predicate], DED).strategy == "index"
        scan_plan = plan_query("user", (predicate,), {}, table_rows=0)
        stop = threading.Event()
        volatile_uids = set()
        volatile_lock = threading.Lock()

        def churn(worker, rng):
            serial = 0
            while not stop.is_set():
                ref = store(
                    dbfs, f"volatile-{worker}-{serial}",
                    year=1900 + rng.randrange(40),
                )
                with volatile_lock:
                    volatile_uids.add(ref.uid)
                serial += 1
                if rng.random() < 0.7:
                    dbfs.delete(DeleteRequest(ref.uid, mode="erase"), DED)

        writers = [
            threading.Thread(target=churn, args=(i, random.Random(100 + i)))
            for i in range(WRITER_THREADS)
        ]
        for thread in writers:
            thread.start()
        try:
            for _ in range(SCAN_ROUNDS):
                indexed = set(
                    dbfs.select_uids_where("user", [predicate], DED)
                )
                scanned = set(dbfs._execute_plan(scan_plan))
                with volatile_lock:
                    churning = set(volatile_uids)
                assert indexed & stable_uids == stable_uids
                assert scanned & stable_uids == stable_uids
                drift = indexed ^ scanned
                assert drift <= churning, (
                    f"select paths disagree on non-volatile uids: "
                    f"{drift - churning}"
                )
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=30.0)

        # Quiesced: the paths must agree exactly, volatile included.
        indexed = sorted(dbfs.select_uids_where("user", [predicate], DED))
        scanned = dbfs._execute_plan(scan_plan)
        assert indexed == scanned

    def test_snapshot_select_is_stable_under_writers(self):
        """A snapshot-scoped select never picks up concurrent inserts."""
        fleet = make_fleet(seed=73)
        for i in range(15):
            store(fleet, f"pre-{i}", year=2000)
        snapshot = fleet.begin_snapshot()
        stop = threading.Event()

        def insert_loop(worker):
            serial = 0
            while not stop.is_set():
                store(fleet, f"late-{worker}-{serial}", year=2000)
                serial += 1

        writers = [
            threading.Thread(target=insert_loop, args=(i,)) for i in range(2)
        ]
        for thread in writers:
            thread.start()
        try:
            baseline = None
            for _ in range(10):
                uids = fleet.select_uids(
                    "user", Predicate("year", "eq", 2000), DED,
                    snapshot=snapshot,
                )
                if baseline is None:
                    baseline = sorted(uids)
                assert sorted(uids) == baseline
            assert len(baseline) == 15
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=30.0)
            snapshot.release()
        # The live view, by contrast, has grown.
        assert len(fleet.select_uids("user", Predicate("year", "eq", 2000), DED)) > 15


class TestStorePublishWindow:
    @pytest.mark.parametrize("shard_count", [1, 2], ids=["dbfs", "fleet"])
    def test_snapshot_select_skips_store_in_commit_window(self, shard_count):
        """A store is invisible to an older snapshot from the moment a
        reader can find it, not only once its journal commit returns.

        Deterministic: the journal commit of the fourth store first
        runs the snapshot-scoped select on a second thread.
        """
        if shard_count == 1:
            authority = Authority(bits=512, seed=83)
            fs = DatabaseFS(
                operator_key=authority.issue_operator_key("window-op")
            )
            fs.create_type(make_type(), DED)
        else:
            fs = make_fleet(shard_count=shard_count, seed=83)
        predicate = Predicate("year", "eq", 2000)
        for i in range(3):
            store(fs, f"pre-{i}", year=2000)
        snapshot = fs.begin_snapshot()
        in_window = []

        def select_on_second_thread():
            reader = threading.Thread(target=lambda: in_window.append(
                fs.select_uids("user", predicate, DED, snapshot=snapshot)
            ))
            reader.start()
            reader.join(timeout=30.0)

        for shard in fs.shards:
            def commit(_commit=shard.journal.commit):
                select_on_second_thread()
                return _commit()
            shard.journal.commit = commit
        try:
            store(fs, "late", year=2000)
            after = fs.select_uids("user", predicate, DED, snapshot=snapshot)
        finally:
            snapshot.release()
        assert len(after) == 3
        assert in_window == [after]


class TestParallelStoreIntegrity:
    def test_parallel_stores_land_exactly_once(self):
        """N threads * M stores: every uid present, routed, readable."""
        fleet = make_fleet(seed=79)
        per_thread = 25
        uids_by_thread = [[] for _ in range(WRITER_THREADS)]

        def writer(worker):
            for i in range(per_thread):
                ref = store(fleet, f"w{worker}-s{i}", year=1800 + i)
                uids_by_thread[worker].append(ref.uid)

        threads = [
            threading.Thread(target=writer, args=(i,))
            for i in range(WRITER_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        all_uids = [uid for uids in uids_by_thread for uid in uids]
        assert len(all_uids) == len(set(all_uids)) == (
            WRITER_THREADS * per_thread
        )
        pairs = fleet.query_membranes(MembraneQuery("user"), DED)
        assert len(pairs) == WRITER_THREADS * per_thread
        # The uid->shard map agrees with subject-hash routing for all.
        for worker in range(WRITER_THREADS):
            for i, uid in enumerate(uids_by_thread[worker]):
                export = fleet.export_subject(f"w{worker}-s{i}", DED)
                assert export["records"][0]["uid"] == uid
                assert export["records"][0]["data"] is not None


class EngineCrashSim(CrashSim):
    """CrashSim whose workload ops each travel through a RequestEngine.

    One worker and a blocking ``result()`` per op keeps the device
    write ordering identical to the serial reference workload, so the
    sweep's cut indexes mean the same thing — what changes is that
    every store/erase executes on an engine thread, with admission
    control and the purpose-fair queue in the path.
    """

    def run_workload(self, fs, progress, uids):
        with RequestEngine(workers=1, name="crash-engine") as engine:
            def step(fn, *args):
                future = engine.submit(fn, *args)
                try:
                    return future.result(timeout=60.0)
                except errors.PowerLossError:
                    raise

            fs.create_type(self._reference_type(), DED)
            progress.append("create_type")
            step(fs.create_index, "crash_user", "name", DED)
            progress.append("index:name")
            step(fs.create_index, "crash_user", "year", DED)
            progress.append("index:year")
            uids[0] = step(self._store, fs, 0)
            progress.append("store:0")
            uids[1] = step(self._store, fs, 1)
            progress.append("store:1")

            def batched():
                batch_ctx = (
                    fs.batch() if isinstance(fs, ShardedDBFS)
                    else fs.journal.batch()
                )
                with batch_ctx:
                    return self._store(fs, 2), self._store(fs, 3)

            uids[2], uids[3] = step(batched)
            progress.append("batch:2,3")
            step(
                fs.update,
                UpdateRequest(uid=uids[1], changes={"year": 2001}),
                DED,
            )
            progress.append("update:1")
            step(
                fs.delete, DeleteRequest(uids[0], mode="erase"), DED
            )
            progress.append("erase:0")
            uids[4] = step(self._store, fs, 4)
            progress.append("store:4")

    @staticmethod
    def _reference_type():
        from repro.storage.crashsim import reference_type

        return reference_type()


class TestCrashRecoveryWithEngine:
    @pytest.mark.parametrize("shard_count", [1, 4])
    def test_sweep_passes_with_engine_in_the_loop(self, shard_count):
        sim = EngineCrashSim(shard_count=shard_count, seed=5)
        report = sim.sweep(stride=7)
        assert report.trials, "sweep produced no trials"
        assert report.passed, report.summary()

    def test_engine_workload_matches_serial_write_count(self):
        """Routing ops through the engine must not change what hits
        the device — same workload, same write trace length."""
        serial_format, serial_total = CrashSim(
            shard_count=1, seed=5
        ).measure()
        engine_format, engine_total = EngineCrashSim(
            shard_count=1, seed=5
        ).measure()
        assert (engine_format, engine_total) == (serial_format, serial_total)
