"""CrashSim — crash-consistency harness for DBFS and the sharded fleet.

The harness answers one question exhaustively: *is there any single
point in time at which losing power corrupts the store or leaks
erased PD?*  It runs a fixed GDPRBench-style reference workload
(stores, one group-commit batch, one RTBF erasure, a post-erasure
store) over :class:`~repro.storage.faults.FaultyBlockDevice`, cuts
power at **every** write index in turn, and after each cut performs a
true remount: a *fresh* :class:`~repro.storage.journal.Journal` and
:class:`~repro.storage.dbfs.DatabaseFS` are reconstructed from the
surviving device bytes and inode table alone —
no in-memory journal index, page cache, or DBFS cache crosses the
crash (``DatabaseFS.remount_from_device`` /
``ShardedDBFS.remount_from_devices`` drop all of it).

Five invariants are checked after every recovery:

1. **Committed data is durable** — every store whose call returned
   before the cut is present and byte-for-byte readable afterwards.
2. **Uncommitted groups vanish atomically** — a torn group-commit
   batch leaves either all of its stores or none of them; a torn solo
   store leaves either a fully readable record or nothing.
3. **Zero PD residue after erasure** — once an erasure has started,
   recovery rolls it *forward* (completing an erasure is GDPR-safe;
   resurrecting scrubbed PD never is), and the erased subject's
   needles appear nowhere: not on the medium outside live records and
   index pages, not in the journal extent, not in the page cache; and
   no index page names the erased uid.
4. **Durable indexes recovered consistent** — lookups agree with the
   surviving records and never surface erased or rolled-back uids,
   and the table bloom neither drops a live subject nor invents one.
5. **Every non-empty block has an owner** — no block on any shard's
   device holds bytes outside
   :meth:`~repro.storage.dbfs.DatabaseFS.owned_blocks` (the journal
   extent, inode extents, escrow staging).

With ``shard_count > 1`` all shards share one
:class:`~repro.storage.faults.FaultInjector` — a single power rail
and a global write index — so the cut lands mid-flight across the
fleet and each shard must recover independently
(degraded-shard isolation is a failure here: the reference workload
must recover every shard).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import errors
from ..core.active_data import AccessCredential
from ..core.crypto import Authority
from ..core.datatypes import FieldDef, PDType
from ..core.membrane import membrane_for_type
from .dbfs import DatabaseFS
from .faults import FaultInjector, FaultPlan, FaultyBlockDevice
from .journal import JournalConfig
from .query import (
    DataQuery,
    DeleteRequest,
    MembraneQuery,
    Predicate,
    StoreRequest,
    UpdateRequest,
)
from .shard import ShardedDBFS

DED = AccessCredential(holder="crashsim", is_ded=True)

#: Reference workload geometry — small blocks keep the write count
#: (and hence the sweep size) manageable while still forcing
#: multi-block payloads and journal records.
BLOCK_COUNT = 2048
BLOCK_SIZE = 256
JOURNAL_BLOCKS = 64
PAGE_CACHE_BLOCKS = 128

SUBJECTS = 5
ERASED_SUBJECT = 0
ALL_FIELDS = frozenset({"name", "ssn", "year"})


def reference_type() -> PDType:
    return PDType(
        name="crash_user",
        fields=(
            FieldDef("name", "string"),
            FieldDef("ssn", "string", sensitive=True),
            FieldDef("year", "int"),
        ),
    )


def name_needle(i: int) -> str:
    return f"Crash Victim {i}"


def ssn_needle(i: int) -> str:
    return f"SSN-CRASH-{i:04d}"


@dataclass
class CrashTrial:
    """Outcome of one cut-remount-check cycle."""

    cut_after: int
    crashed: bool
    completed_steps: List[str]
    failures: List[str]
    recovery_report: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class CrashSweepReport:
    """Aggregate of a full sweep: one trial per write index."""

    shard_count: int
    format_writes: int
    workload_writes: int
    trials: List[CrashTrial]

    @property
    def passed(self) -> bool:
        return all(t.ok for t in self.trials)

    def failing_trials(self) -> List[CrashTrial]:
        return [t for t in self.trials if not t.ok]

    def summary(self) -> Dict[str, object]:
        return {
            "shard_count": self.shard_count,
            "format_writes": self.format_writes,
            "workload_writes": self.workload_writes,
            "trials": len(self.trials),
            "failed": len(self.failing_trials()),
            "passed": self.passed,
        }


class CrashSim:
    """Build fleets over faulty devices, crash them, and audit recovery."""

    def __init__(
        self,
        shard_count: int = 1,
        seed: int = 0,
        journal_config: Optional[JournalConfig] = None,
        compaction: bool = False,
    ) -> None:
        if shard_count < 1:
            raise errors.DBFSError(f"invalid shard count {shard_count}")
        self.shard_count = shard_count
        self.seed = seed
        self.journal_config = journal_config
        #: With ``compaction=True`` the reference workload ends with a
        #: full :meth:`DatabaseFS.compact` pass (record rewrite, index
        #: repack, bloom rebuild, sweeps, journal checkpoint), so the
        #: sweep cuts power inside every compaction write too.
        self.compaction = compaction
        self._authority = Authority(bits=512, seed=seed + 7)
        self._operator_key = self._authority.issue_operator_key("crashsim-op")

    # -- fleet construction -------------------------------------------------

    def _build(
        self, plan: FaultPlan
    ) -> Tuple[FaultInjector, List[FaultyBlockDevice], object]:
        """Format a fresh fleet over faulty devices sharing one rail."""
        injector = FaultInjector(plan)
        devices = [
            FaultyBlockDevice(
                block_count=BLOCK_COUNT,
                block_size=BLOCK_SIZE,
                page_cache_blocks=PAGE_CACHE_BLOCKS,
                injector=injector,
            )
            for _ in range(self.shard_count)
        ]
        if self.shard_count == 1:
            fs: object = DatabaseFS(
                device=devices[0],
                operator_key=self._operator_key,
                journal_blocks=JOURNAL_BLOCKS,
                journal_config=self.journal_config,
            )
        else:
            fs = ShardedDBFS(
                devices=devices,
                operator_key=self._operator_key,
                journal_blocks=JOURNAL_BLOCKS,
                journal_config=self.journal_config,
            )
        return injector, devices, fs

    def _remount(self, fs: object, devices: Sequence[FaultyBlockDevice]) -> object:
        tables = [shard.inodes for shard in fs.shards]  # type: ignore[union-attr]
        if self.shard_count == 1:
            return DatabaseFS.remount_from_device(
                devices[0],
                tables[0],
                operator_key=self._operator_key,
                journal_config=self.journal_config,
            )
        return ShardedDBFS.remount_from_devices(
            list(devices),
            tables,
            operator_key=self._operator_key,
            journal_config=self.journal_config,
        )

    # -- reference workload -------------------------------------------------

    def _store(self, fs: object, i: int) -> str:
        membrane = membrane_for_type(
            reference_type(), f"crash-subject-{i}", created_at=0.0
        )
        ref = fs.store(  # type: ignore[union-attr]
            StoreRequest(
                pd_type="crash_user",
                record={
                    "name": name_needle(i),
                    "ssn": ssn_needle(i),
                    "year": 1900 + i,
                },
                membrane_json=membrane.to_json(),
            ),
            DED,
        )
        return ref.uid

    def run_workload(self, fs: object, progress: List[str], uids: Dict[int, str]) -> None:
        """The reference workload. ``progress`` / ``uids`` are appended
        step by step so a mid-workload crash leaves an exact account of
        what had already returned."""
        fs.create_type(reference_type(), DED)  # type: ignore[union-attr]
        progress.append("create_type")
        # Durable field indexes declared up front: every subsequent
        # store/update/erase rewrites index pages on the device, so the
        # sweep cuts power inside every index-page write too.
        fs.create_index("crash_user", "name", DED)  # type: ignore[union-attr]
        progress.append("index:name")
        fs.create_index("crash_user", "year", DED)  # type: ignore[union-attr]
        progress.append("index:year")
        uids[0] = self._store(fs, 0)
        progress.append("store:0")
        uids[1] = self._store(fs, 1)
        progress.append("store:1")
        with fs.batch():  # type: ignore[union-attr]
            uids[2] = self._store(fs, 2)
            uids[3] = self._store(fs, 3)
        progress.append("batch:2,3")
        fs.update(  # type: ignore[union-attr]
            UpdateRequest(uid=uids[1], changes={"year": 2001}), DED
        )
        progress.append("update:1")
        fs.delete(DeleteRequest(uids[0], mode="erase"), DED)  # type: ignore[union-attr]
        progress.append("erase:0")
        uids[4] = self._store(fs, 4)
        progress.append("store:4")
        if self.compaction:
            # The retention path's durable-plane reclaim, post-erasure:
            # every write it performs (shadow record rewrites, index
            # page repacks under their compact-index intents, bloom
            # sidecars, orphan scrubs, the checkpoint marker) becomes a
            # cut point of the sweep.
            fs.compact()  # type: ignore[union-attr]
            progress.append("compact")

    # -- invariants ---------------------------------------------------------

    def _readable(self, fs: object, uid: str, i: int) -> Optional[str]:
        """Fully read record ``uid``; returns a failure string or None."""
        try:
            records = fs.fetch_records(  # type: ignore[union-attr]
                DataQuery(uids=(uid,), fields={uid: ALL_FIELDS}), DED
            )
        except errors.RgpdOSError as exc:
            return f"record {uid} unreadable after recovery: {exc}"
        record = records.get(uid)
        if record is None:
            return f"record {uid} missing from fetch after recovery"
        if record.get("name") != name_needle(i) or record.get("ssn") != ssn_needle(i):
            return f"record {uid} corrupted after recovery: {record!r}"
        return None

    def check_invariants(
        self,
        recovered: object,
        devices: Sequence[FaultyBlockDevice],
        completed: Sequence[str],
        uids: Dict[int, str],
    ) -> List[str]:
        failures: List[str] = []
        if isinstance(recovered, ShardedDBFS) and recovered.degraded_shards:
            failures.append(
                f"shards degraded after recovery: {recovered.degraded_shards}"
            )
            return failures
        live = set(recovered.all_uids())  # type: ignore[union-attr]

        def durable(i: int, label: str) -> None:
            uid = uids.get(i)
            if uid is None or uid not in live:
                failures.append(f"committed {label} lost after recovery")
                return
            problem = self._readable(recovered, uid, i)
            if problem:
                failures.append(problem)

        # 1. committed data is durable
        for i in (1, 4):
            if f"store:{i}" in completed:
                durable(i, f"store:{i}")
        if "batch:2,3" in completed:
            durable(2, "batch store:2")
            durable(3, "batch store:3")
        else:
            # 2. a torn batch vanishes atomically
            present = [i for i in (2, 3) if uids.get(i) in live]
            if len(present) == 1:
                failures.append(
                    f"torn batch recovered non-atomically: only subject "
                    f"{present[0]} survived"
                )
            for i in present:
                problem = self._readable(recovered, uids[i], i)
                if problem:
                    failures.append(f"half-applied batch member: {problem}")
        # a torn solo store may survive only fully-formed
        for i in (0, 1, 4):
            if f"store:{i}" in completed:
                continue
            uid = uids.get(i)
            if uid is not None and uid in live:
                if i == ERASED_SUBJECT and "erase:0" in completed:
                    continue
                membrane_ok = True
                try:
                    erased = recovered.get_membrane(uid, DED).erased  # type: ignore[union-attr]
                except errors.RgpdOSError:
                    membrane_ok = False
                    erased = False
                if not membrane_ok:
                    failures.append(f"torn store {uid} has no membrane")
                elif not erased:
                    problem = self._readable(recovered, uid, i)
                    if problem:
                        failures.append(f"half-applied store: {problem}")

        # 3. zero PD residue once an erasure is (or must be) complete
        uid0 = uids.get(ERASED_SUBJECT)
        erase_completed = "erase:0" in completed
        erased_now = False
        if uid0 is not None and uid0 in live:
            try:
                erased_now = recovered.get_membrane(uid0, DED).erased  # type: ignore[union-attr]
            except errors.RgpdOSError as exc:
                failures.append(f"membrane of subject 0 unreadable: {exc}")
        if erase_completed and uid0 is not None:
            if uid0 not in live:
                failures.append("erased subject's membrane lost after recovery")
            elif not erased_now:
                failures.append(
                    "completed erasure rolled back: subject 0 no longer "
                    "marked erased after recovery"
                )
        if erased_now or erase_completed:
            needles = [
                name_needle(ERASED_SUBJECT).encode("utf-8"),
                ssn_needle(ERASED_SUBJECT).encode("utf-8"),
            ]
            residue = recovered.residue_counts(  # type: ignore[union-attr]
                needles, subject_id=f"crash-subject-{ERASED_SUBJECT}",
                uids=[uid0],
            )
            for plane, count in residue.items():
                if count:
                    failures.append(
                        f"PD residue after erasure: {count} {plane} still "
                        f"hold the erased subject's data"
                    )
            for device in devices:
                for needle in needles:
                    hits = device.scan_cache(needle)
                    if hits:
                        failures.append(
                            f"PD residue in page cache after erasure: "
                            f"blocks {hits}"
                        )
        elif uid0 is not None and uid0 in live and "store:0" in completed:
            # erasure never started (or was lawfully rolled back with
            # nothing scrubbed) — the record must then be intact.
            problem = self._readable(recovered, uid0, ERASED_SUBJECT)
            if problem:
                failures.append(f"subject 0 half-erased: {problem}")

        # 4. durable indexes recovered consistent: lookups agree with
        # the surviving records and never surface erased or rolled-back
        # uids (phantoms), and the table bloom never drops a live
        # subject or invents an unknown one.
        if "create_type" in completed:
            failures.extend(
                self._check_index_consistency(recovered, uids, live)
            )

        # 5. every non-empty block has an owner: recovery's orphan
        # sweep left no torn or half-scrubbed extent behind.
        for index, shard in enumerate(recovered.shards):  # type: ignore[union-attr]
            stray = shard.unowned_blocks(0, shard.device.block_count)
            if stray:
                failures.append(
                    f"unowned non-empty blocks after recovery on shard "
                    f"{index}: {stray}"
                )
        return failures

    def _check_index_consistency(
        self, recovered: object, uids: Dict[int, str], live: set
    ) -> List[str]:
        failures: List[str] = []
        for i in range(SUBJECTS):
            uid = uids.get(i)
            expect_live = uid is not None and uid in live
            erased = False
            if expect_live:
                try:
                    erased = recovered.get_membrane(uid, DED).erased  # type: ignore[union-attr]
                except errors.RgpdOSError:
                    erased = False
            try:
                matches = recovered.select_uids(  # type: ignore[union-attr]
                    "crash_user", Predicate("name", "eq", name_needle(i)), DED
                )
            except errors.RgpdOSError as exc:
                failures.append(f"index lookup failed after recovery: {exc}")
                continue
            if expect_live and not erased:
                if matches != [uid]:
                    failures.append(
                        f"index lookup for subject {i} returned "
                        f"{matches!r}, expected [{uid!r}]"
                    )
                # The record's *current* field values must be indexed
                # (an update torn either way lands on exactly one side).
                try:
                    record = recovered.fetch_records(  # type: ignore[union-attr]
                        DataQuery(uids=(uid,), fields={uid: ALL_FIELDS}), DED
                    )[uid]
                except (errors.RgpdOSError, KeyError):
                    continue  # unreadable records are reported by check 1/2
                year_matches = recovered.select_uids(  # type: ignore[union-attr]
                    "crash_user", Predicate("year", "eq", record["year"]), DED
                )
                if uid not in year_matches:
                    failures.append(
                        f"subject {i}'s live year {record['year']!r} is "
                        f"missing from the year index after recovery"
                    )
            elif uid is not None and uid in matches:
                kind = "erased" if erased else "rolled-back"
                failures.append(
                    f"phantom uid {uid} for {kind} subject {i} survives "
                    f"in the index after recovery"
                )
            # Bloom correctness: a live subject's membranes stay
            # findable (no false negative) ...
            if expect_live:
                found = recovered.query_membranes(  # type: ignore[union-attr]
                    MembraneQuery(
                        pd_type="crash_user",
                        subject_id=f"crash-subject-{i}",
                        include_erased=True,
                    ),
                    DED,
                )
                if not any(ref.uid == uid for ref, _ in found):
                    failures.append(
                        f"table bloom dropped live subject {i} after "
                        f"recovery (false negative)"
                    )
        # ... and a never-stored subject resolves to nothing.
        ghosts = recovered.query_membranes(  # type: ignore[union-attr]
            MembraneQuery(
                pd_type="crash_user", subject_id="crash-subject-unseen"
            ),
            DED,
        )
        if ghosts:
            failures.append(
                f"negative subject lookup returned {len(ghosts)} membranes"
            )
        return failures

    # -- trials -------------------------------------------------------------

    def measure(self) -> Tuple[int, int]:
        """Fault-free run: returns (format_writes, total_writes)."""
        injector, devices, fs = self._build(FaultPlan(seed=self.seed))
        format_writes = injector.write_index
        progress: List[str] = []
        uids: Dict[int, str] = {}
        self.run_workload(fs, progress, uids)
        return format_writes, injector.write_index

    def run_trial(self, cut_after: int) -> CrashTrial:
        """Cut power after ``cut_after`` writes, remount, audit."""
        plan = FaultPlan(seed=self.seed, power_cut_after_writes=cut_after)
        injector, devices, fs = self._build(plan)
        progress: List[str] = []
        uids: Dict[int, str] = {}
        crashed = False
        try:
            self.run_workload(fs, progress, uids)
        except errors.PowerLossError:
            crashed = True
        injector.power_on()
        trial = CrashTrial(
            cut_after=cut_after,
            crashed=crashed,
            completed_steps=list(progress),
            failures=[],
        )
        try:
            recovered = self._remount(fs, devices)
        except errors.RgpdOSError as exc:
            trial.failures.append(
                f"remount failed after cut at write {cut_after}: "
                f"{type(exc).__name__}: {exc}"
            )
            return trial
        trial.recovery_report = dict(recovered.recovery_report)  # type: ignore[union-attr]
        trial.failures = self.check_invariants(
            recovered, devices, progress, uids
        )
        return trial

    def sweep(self, stride: int = 1, limit: Optional[int] = None) -> CrashSweepReport:
        """One trial per write index of the workload.

        ``stride`` subsamples the cut points (CI smoke uses a stride;
        the exhaustive tier-1 test uses 1).  ``limit`` caps the number
        of trials from the front, mostly for debugging.
        """
        if stride < 1:
            raise errors.DBFSError(f"invalid sweep stride {stride}")
        format_writes, total_writes = self.measure()
        cuts = list(range(format_writes, total_writes, stride))
        if limit is not None:
            cuts = cuts[:limit]
        trials = [self.run_trial(cut) for cut in cuts]
        return CrashSweepReport(
            shard_count=self.shard_count,
            format_writes=format_writes,
            workload_writes=total_writes - format_writes,
            trials=trials,
        )
