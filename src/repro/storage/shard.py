"""Sharded DBFS — scatter-gather over N independent `DatabaseFS` shards.

The paper's § 3(1) layout gives every data subject their own inode
subtree; nothing in the design requires all those subtrees to live in
one filesystem.  :class:`ShardedDBFS` exploits that: it runs N
independent :class:`~repro.storage.dbfs.DatabaseFS` instances — each
with its own :class:`~repro.storage.block.BlockDevice` and metadata
journal — and places every subject on exactly one shard by a stable
hash of ``subject_id``.

**Placement is lineage-affine.**  Copies made by the ``copy`` built-in
keep the original's ``subject_id``, so a whole lineage group always
lands on one shard and RTBF / consent propagation / restriction never
cross a shard boundary.  That locality is what makes the expensive
subject-scoped operations flat in the population size:

* *routing* — store, fetch, update, delete, export, membrane get/put
  and the post-erasure residue scan touch only the owning shard (a
  delete's ``device.scan`` walks one shard's blocks, not all of them);
* *scatter-gather* — type-level queries (``select_uids``,
  ``query_membranes``, ``iter_membranes``, ``forensic_scan``) fan out
  to every shard and merge, preserving the single-DBFS result order;
* *batched rights* — multi-subject operations group their per-shard
  work under one :meth:`~repro.storage.journal.Journal.batch` group
  commit per shard (see :meth:`ShardedDBFS.batch` and
  ``SubjectRights.bulk_erase`` / ``bulk_right_of_access``).

The schema trees are replicated: every shard declares every type, so
any shard can answer a type-level query over its own subjects and the
format descriptors stay a per-shard, read-once affair.

``ShardedDBFS(shard_count=1)`` is behaviour-compatible with a plain
``DatabaseFS`` — the equivalence tests in
``tests/storage/test_sharding.py`` assert identical results op by op —
and ``RgpdOS(shards=1)`` (the default) keeps constructing the plain
class, so the seed layout is untouched.
"""

from __future__ import annotations

import json
import threading
import zlib
from contextlib import ExitStack, contextmanager
from uuid import uuid4
from dataclasses import replace as _dc_replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import errors
from ..core.active_data import AccessCredential, PDRef
from ..core.crypto import EscrowBlob, OperatorKey
from ..core.datatypes import PDType
from ..core.membrane import Membrane
from ..obs import NULL_TELEMETRY, Telemetry
from .block import BlockDevice
from .btree import DurableFieldIndex
from .cache import CacheConfig, DEFAULT_CACHE_CONFIG
from .dbfs import DatabaseFS, DBFSStats
from .inode import InodeTable
from .mvcc import FleetSnapshot, Snapshot
from .journal import JournalConfig, TXN_COMMIT, TXN_DELETE
from .query import (
    DataQuery,
    DeleteRequest,
    MembraneQuery,
    Predicate,
    StoreRequest,
    UpdateRequest,
)


def shard_index(subject_id: str, shard_count: int) -> int:
    """Stable placement: CRC-32 of the subject id, modulo shard count.

    Deliberately *not* Python's ``hash`` (randomised per process —
    placement must survive a reboot/remount unchanged).
    """
    return zlib.crc32(subject_id.encode("utf-8")) % shard_count


class ShardedDBFS:
    """N independent DBFS shards behind the single-DBFS interface.

    Drop-in for :class:`DatabaseFS` everywhere the kernel, DED,
    built-ins, rights engine, compliance auditor and benchmarks touch
    the store.  See the module docstring for the routing rules.
    """

    def __init__(
        self,
        shard_count: int = 1,
        devices: Optional[Sequence[BlockDevice]] = None,
        operator_key: Optional[OperatorKey] = None,
        journal_blocks: int = 256,
        cache_config: Optional[CacheConfig] = None,
        journal_config: Optional[JournalConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if devices is not None:
            shard_count = len(devices)
        if shard_count < 1:
            raise errors.DBFSError(
                f"a sharded DBFS needs at least 1 shard, got {shard_count}"
            )
        self._configure(cache_config, journal_config, telemetry)
        self._shards = [
            DatabaseFS(
                device=devices[i] if devices is not None else None,
                operator_key=operator_key,
                journal_blocks=journal_blocks,
                cache_config=self.cache_config,
                journal_config=journal_config,
                telemetry=self.telemetry,
            )
            for i in range(shard_count)
        ]

    def _configure(
        self, cache_config: Optional[CacheConfig],
        journal_config: Optional[JournalConfig], telemetry: Optional[Telemetry],
    ) -> None:
        """Object setup a fresh fleet and a remounted one share."""
        self.cache_config = (
            cache_config if cache_config is not None else DEFAULT_CACHE_CONFIG
        )
        self.journal_config = journal_config
        # One Telemetry shared by every shard: spans from different
        # shards land in the same tracer, which is what makes
        # scatter-gather skew visible in a single trace.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._shards: List[DatabaseFS] = []
        # uid -> owning shard index; maintained at store time and
        # rebuilt from the shards' subject trees on remount.  Writes
        # take _uid_lock; lookups are lock-free single dict reads.
        self._uid_shard: Dict[str, int] = {}
        self._uid_lock = threading.Lock()
        # Optional parallel scatter-gather runner (see set_fanout).
        self._fanout: Optional[Callable[..., List[object]]] = None
        # shard index -> failure reason; only ever populated by
        # remount_from_devices when a shard's crash recovery fails.
        self._degraded: Dict[int, str] = {}
        #: Fleet and per-shard crash-reconciliation report of the last
        #: remount (empty for a normally built fleet).
        self.recovery_report: Dict[str, object] = {}

    @classmethod
    def remount_from_devices(
        cls,
        devices: Sequence[BlockDevice],
        inode_tables: Sequence["InodeTable"],
        operator_key: Optional[OperatorKey] = None,
        cache_config: Optional[CacheConfig] = None,
        journal_config: Optional[JournalConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> "ShardedDBFS":
        """True-crash remount of a whole fleet, shard by shard.

        Each shard recovers independently through
        :meth:`DatabaseFS.remount_from_device` — its own device bytes,
        inode table and journal extent, nothing shared.  A shard whose
        recovery fails is **degraded**, not fatal: the healthy shards
        keep serving, scatter-gather skips the degraded one, and only
        operations that must touch it raise
        :class:`~repro.errors.ShardUnavailableError`.  The per-shard
        reconciliation reports (and the degraded map) land in
        :attr:`recovery_report`.

        The recovered shards start with no mutation observers: each
        subscriber of the crashed fleet re-attaches itself
        (``ExpiryDaemon.rebind``, the cluster's capture tap).
        """
        if not devices or len(devices) != len(inode_tables):
            raise errors.DBFSError(
                "remount_from_devices needs one inode table per device "
                f"(got {len(devices)} devices, {len(inode_tables)} tables)"
            )
        fleet = cls.__new__(cls)
        fleet._configure(cache_config, journal_config, telemetry)
        for index, (device, inodes) in enumerate(zip(devices, inode_tables)):
            try:
                shard = DatabaseFS.remount_from_device(
                    device,
                    inodes,
                    operator_key=operator_key,
                    cache_config=fleet.cache_config,
                    journal_config=journal_config,
                    telemetry=fleet.telemetry,
                )
            except (errors.RgpdOSError, ValueError, KeyError, TypeError) as exc:
                # Isolate the corruption: one bad shard must degrade,
                # not kill the fleet.
                fleet._shards.append(None)  # type: ignore[arg-type]
                fleet._degraded[index] = f"{type(exc).__name__}: {exc}"
                continue
            fleet._shards.append(shard)
        fleet._recover_fleet()
        return fleet

    def remount(self) -> Dict[str, object]:
        """In-place remount: every healthy shard runs
        :meth:`DatabaseFS.remount`, then the fleet step of
        :meth:`remount_from_devices`.  Returns the fleet report."""
        for _, shard in self._healthy():
            shard.remount()
        return self._recover_fleet()

    def _recover_fleet(self) -> Dict[str, object]:
        """Fleet step of both remounts: rebuild the uid→shard map, roll
        back torn fleet batches, and report — schema counts once (the
        schema trees are replicas), record-level counts summed."""
        self._uid_shard = {uid: index for index, shard in self._healthy()
                           for uid in shard.all_uids()}
        torn_batches = self._resolve_torn_fleet_batches()
        reports = [shard.recovery_report for _, shard in self._healthy()]
        self.recovery_report = {
            "shards": len(self._shards),
            "degraded": dict(self._degraded),
            "torn_fleet_batches": torn_batches,
            "per_shard": [
                shard.recovery_report if shard is not None else None
                for shard in self._shards
            ],
            "types": reports[0]["types"] if reports else 0,
            "field_indexes": reports[0]["field_indexes"] if reports else 0,
            "records": len(self._uid_shard),
            "lineage_groups": sum(r["lineage_groups"] for r in reports),
            "escrow_blobs": sum(r["escrow_blobs"] for r in reports),
        }
        return self.recovery_report

    def _resolve_torn_fleet_batches(self) -> Dict[str, int]:
        """Presumed-abort resolution of cross-shard group commits.

        A ``fleet-batch`` marker visible in an *uncommitted*
        transaction on any participant proves the commit fan-out was
        interrupted before every shard's COMMIT landed — so the group
        as a whole never committed, and the shards where it *did*
        commit must roll their half back (per-shard recovery already
        discarded the uncommitted halves).  A marker with no
        uncommitted sibling anywhere is left alone: the group either
        committed everywhere or never wrote a single store.  The
        rollback is idempotent — a second crash and remount finds the
        stores already gone.
        """
        present: Dict[str, Dict[int, Tuple[bool, List[str]]]] = {}
        for index, shard in self._healthy():
            committed_txns = set()
            by_txn: Dict[int, List[object]] = {}
            for record in shard.journal.records():
                by_txn.setdefault(record.txn_id, []).append(record)
                if record.record_type == TXN_COMMIT:
                    committed_txns.add(record.txn_id)
            for txn_id, records in by_txn.items():
                marker = next(
                    (
                        r
                        for r in records
                        if r.record_type == TXN_DELETE
                        and r.target.startswith("fleet-batch:")
                    ),
                    None,
                )
                if marker is None:
                    continue
                batch_id = marker.target.split(":", 2)[1]
                uids = [
                    r.target[len("store:"):]
                    for r in records
                    if r.record_type == TXN_DELETE
                    and r.target.startswith("store:")
                ]
                present.setdefault(batch_id, {})[index] = (
                    txn_id in committed_txns,
                    uids,
                )
        torn = 0
        rolled_back = 0
        for batch_id, by_shard in present.items():
            if all(committed for committed, _ in by_shard.values()):
                continue
            torn += 1
            for index, (committed, uids) in by_shard.items():
                if not committed or not uids:
                    continue
                rolled_back += self._shards[index].rollback_stores(uids)
                for uid in uids:
                    self._uid_shard.pop(uid, None)
        return {"torn_batches": torn, "rolled_back_stores": rolled_back}

    def _shard_at(self, index: int) -> DatabaseFS:
        """The shard at ``index``, or ShardUnavailableError if degraded."""
        reason = self._degraded.get(index)
        if reason is not None:
            raise errors.ShardUnavailableError(
                f"shard {index} is degraded after crash recovery ({reason})"
            )
        return self._shards[index]

    def _healthy(self) -> List[Tuple[int, DatabaseFS]]:
        return [
            (index, shard)
            for index, shard in enumerate(self._shards)
            if index not in self._degraded
        ]

    @property
    def degraded_shards(self) -> Dict[int, str]:
        """Degraded shard indexes -> failure reason (empty if healthy)."""
        return dict(self._degraded)

    # ------------------------------------------------------------------
    # Concurrency: parallel fan-out + fleet snapshots
    # ------------------------------------------------------------------

    def set_fanout(
        self, run: Optional[Callable[..., List[object]]]
    ) -> None:
        """Install a parallel scatter-gather runner (or None for serial).

        ``run`` takes a list of zero-argument callables and returns
        their results in order; the request engine installs its worker
        pool here so type-level queries and bulk rights hit all shards
        concurrently.  Each sub-task touches exactly one shard, and
        reads take no shard-wide locks, so the tasks are independent.
        """
        self._fanout = run

    def _fan(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        """Run scatter-gather sub-tasks, in parallel when a runner is set."""
        if self._fanout is None or len(tasks) <= 1:
            return [task() for task in tasks]
        return list(self._fanout(tasks))

    def begin_snapshot(self) -> FleetSnapshot:
        """One consistent read point across the fleet.

        Takes every healthy shard's MVCC snapshot back to back; a
        degraded shard's slot stays ``None`` (reads never reach it).
        The vector is not globally serialized across shards — each
        shard's component is consistent, which is exactly the
        guarantee subject-affine placement needs: a subject's whole
        lineage lives on one shard, so per-subject state is never
        split across two snapshot components.
        """
        return FleetSnapshot([
            shard.begin_snapshot() if index not in self._degraded else None
            for index, shard in enumerate(self._shards)
        ])

    def mvcc_stats(self) -> Dict[str, object]:
        """Per-shard MVCC counters plus fleet totals."""
        per_shard = [
            shard.mvcc_stats() if index not in self._degraded else None
            for index, shard in enumerate(self._shards)
        ]
        healthy = [s for s in per_shard if s is not None]
        return {
            "snapshots_taken": sum(s["snapshots_taken"] for s in healthy),
            "active_snapshots": sum(s["active_snapshots"] for s in healthy),
            "chain_entries_recorded": sum(
                s["chain_entries_recorded"] for s in healthy
            ),
            "per_shard": per_shard,
        }

    @staticmethod
    def _sub(snapshot: Optional[FleetSnapshot], index: int) -> Optional[Snapshot]:
        """The per-shard component of a fleet snapshot (None passthrough)."""
        return None if snapshot is None else snapshot.for_shard(index)

    def write_lock(self, uid: str) -> "threading.RLock":
        """The owning shard's single-writer lock (read-modify-write).

        Lineage groups are shard-affine, so one shard's lock covers a
        whole ``apply_membrane_change`` propagation.
        """
        return self._owning_shard(uid)._write_lock

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> List[DatabaseFS]:
        return [shard for _, shard in self._healthy()]

    def shard_index_for_subject(self, subject_id: str) -> int:
        return shard_index(subject_id, len(self._shards))

    def shard_for_subject(self, subject_id: str) -> DatabaseFS:
        return self._shard_at(self.shard_index_for_subject(subject_id))

    def shard_for_uid(self, uid: str) -> DatabaseFS:
        return self._owning_shard(uid)

    def subjects_by_shard(
        self, subject_ids: Sequence[str]
    ) -> Dict[int, List[str]]:
        """Group subject ids by owning shard (insertion order kept)."""
        groups: Dict[int, List[str]] = {}
        for subject_id in subject_ids:
            groups.setdefault(
                self.shard_index_for_subject(subject_id), []
            ).append(subject_id)
        return groups

    def _owning_shard(self, uid: str) -> DatabaseFS:
        """Shard holding ``uid``; unknown uids fall through to shard 0
        so the error type (and its DED-check ordering) matches the
        single-DBFS behaviour exactly.  With degraded shards in the
        fleet an unknown uid is ambiguous — it may live on a shard we
        cannot read — so absence must not masquerade as
        UnknownRecordError."""
        index = self._uid_shard.get(uid)
        if index is None and self._degraded:
            raise errors.ShardUnavailableError(
                f"uid {uid!r} is not on any healthy shard and shards "
                f"{sorted(self._degraded)} are degraded; cannot prove absence"
            )
        return self._shard_at(0 if index is None else index)

    def _primary(self) -> DatabaseFS:
        """First healthy shard — schema reads work on a degraded fleet
        because the schema trees are replicas."""
        healthy = self._healthy()
        if not healthy:
            raise errors.ShardUnavailableError(
                "every shard is degraded; no replica of the schema survives"
            )
        return healthy[0][1]

    # ------------------------------------------------------------------
    # Schema management (replicated to every shard)
    # ------------------------------------------------------------------

    def create_type(self, pd_type: PDType, credential: AccessCredential) -> None:
        for _, shard in self._healthy():
            shard.create_type(pd_type, credential)

    def evolve_type(
        self, new_type: PDType, credential: AccessCredential
    ) -> PDType:
        result = new_type
        for _, shard in self._healthy():
            result = shard.evolve_type(new_type, credential)
        return result

    def schema_version(self, type_name: str) -> int:
        return self._primary().schema_version(type_name)

    def get_type(self, name: str) -> PDType:
        return self._primary().get_type(name)

    def list_types(self) -> List[str]:
        return self._primary().list_types()

    # ------------------------------------------------------------------
    # Secondary field indexes (one per shard, queried scatter-gather)
    # ------------------------------------------------------------------

    def create_index(
        self, type_name: str, field_name: str, credential: AccessCredential
    ) -> List[DurableFieldIndex]:
        return [
            shard.create_index(type_name, field_name, credential)
            for _, shard in self._healthy()
        ]

    def flush_accelerators(self) -> int:
        """Persist every shard's index pages and bloom sidecars."""
        return sum(
            shard.flush_accelerators() for _, shard in self._healthy()
        )

    def compact(
        self,
        rewrite_records: bool = True,
        max_records: Optional[int] = None,
    ) -> Dict[str, int]:
        """Compact every healthy shard; reports are summed.

        ``max_records`` is a per-call budget for the whole fleet: it is
        split evenly across the healthy shards (each gets at least 1),
        and the fleet-level ``cycle_complete`` is the AND of the shard
        reports — the incremental wave only closes when every shard's
        wave has.
        """
        total: Dict[str, int] = {}
        healthy = list(self._healthy())
        per_shard = (
            None
            if max_records is None
            else max(1, max_records // max(1, len(healthy)))
        )
        complete = 1
        for _, shard in healthy:
            report = shard.compact(
                rewrite_records=rewrite_records, max_records=per_shard
            )
            complete &= report.get("cycle_complete", 1)
            for key, value in report.items():
                total[key] = total.get(key, 0) + value
        total["cycle_complete"] = complete
        return total

    def has_index(self, type_name: str, field_name: str) -> bool:
        return self._primary().has_index(type_name, field_name)

    def select_uids(
        self,
        type_name: str,
        predicate: Predicate,
        credential: AccessCredential,
        snapshot: Optional[FleetSnapshot] = None,
    ) -> List[str]:
        def one(index: int, shard: DatabaseFS) -> List[str]:
            with self.telemetry.span(
                "shard.fanout", shard=index, op="select_uids"
            ):
                return shard.select_uids(
                    type_name, predicate, credential,
                    snapshot=self._sub(snapshot, index),
                )

        matches: List[str] = []
        for per_shard in self._fan([
            (lambda i=index, s=shard: one(i, s))
            for index, shard in self._healthy()
        ]):
            matches.extend(per_shard)
        return sorted(matches)

    def select_uids_where(
        self,
        type_name: str,
        predicates: Sequence[Predicate],
        credential: AccessCredential,
        snapshot: Optional[FleetSnapshot] = None,
    ) -> List[str]:
        """Scatter-gather the planned multi-predicate query.

        Each shard plans *its own* execution — index cardinalities are
        per-shard statistics, so two shards may legitimately pick
        different driving indexes for the same predicates — and the
        merged result preserves the single-DBFS order.
        """
        def one(index: int, shard: DatabaseFS) -> List[str]:
            with self.telemetry.span(
                "shard.fanout", shard=index, op="select_uids_where"
            ):
                return shard.select_uids_where(
                    type_name, predicates, credential,
                    snapshot=self._sub(snapshot, index),
                )

        matches: List[str] = []
        for per_shard in self._fan([
            (lambda i=index, s=shard: one(i, s))
            for index, shard in self._healthy()
        ]):
            matches.extend(per_shard)
        return sorted(matches)

    def explain(
        self,
        type_name: str,
        predicates: Sequence[Predicate],
        credential: AccessCredential,
    ):
        """Per-shard plans for the query (shard index -> QueryPlan)."""
        return {
            index: shard.explain(type_name, predicates, credential)
            for index, shard in self._healthy()
        }

    # ------------------------------------------------------------------
    # Store (routed by the membrane's subject id)
    # ------------------------------------------------------------------

    def _store_shard_index(self, request: StoreRequest) -> int:
        """Placement for a store: hash the membrane's subject id.

        Anything malformed (no membrane, unparseable JSON, missing
        subject) routes to shard 0, whose own validation raises the
        same error a single DBFS would.
        """
        if not request.membrane_json:
            return 0
        try:
            subject_id = json.loads(request.membrane_json).get("subject_id")
        except (ValueError, AttributeError):
            return 0
        if not isinstance(subject_id, str) or not subject_id:
            return 0
        return self.shard_index_for_subject(subject_id)

    def store(self, request: StoreRequest, credential: AccessCredential) -> PDRef:
        index = self._store_shard_index(request)
        ref = self._shard_at(index).store(request, credential)
        with self._uid_lock:
            self._uid_shard[ref.uid] = index
        return ref

    def store_many(
        self, requests: Sequence[StoreRequest], credential: AccessCredential
    ) -> List[PDRef]:
        """Bulk store: one journal group commit per involved shard.

        Refs come back in request order, exactly as the single-DBFS
        ``store_many`` returns them.
        """
        self._primary()._require_ded(credential, "store_many")
        placements = [self._store_shard_index(r) for r in requests]
        refs: List[PDRef] = []
        with self._fleet_group(sorted(set(placements))):
            for request, index in zip(requests, placements):
                ref = self._shards[index].store(request, credential)
                with self._uid_lock:
                    self._uid_shard[ref.uid] = index
                refs.append(ref)
        for index in sorted(set(placements)):
            self._shards[index].stats.bulk_stores += 1
        return refs

    @contextmanager
    def _fleet_group(self, indexes: Sequence[int]) -> Iterator[None]:
        """One group commit spanning ``indexes``, atomically.

        Every participating shard gets its own journal batch, plus —
        when the group truly spans shards — a shared
        ``fleet-batch:<id>:<participants>`` marker record inside the
        batch transaction.  Commit ordering makes the marker usable
        for recovery: checkpoints are held until *every* shard's
        COMMIT record has landed, so a crash anywhere in the commit
        fan-out leaves at least one participant's marker visibly
        uncommitted, and ``remount_from_devices`` then rolls the
        committed halves back (two-phase presumed-abort).  A fully
        committed group may later have its markers checkpointed away
        on any subset of shards — by then no uncommitted marker
        exists anywhere, so recovery leaves it alone.
        """
        shards = [(index, self._shard_at(index)) for index in sorted(indexes)]
        with ExitStack() as stack:
            # Writer locks first, in ascending shard order: every
            # fleet group acquires the same way, so two concurrent
            # groups can contend but never deadlock, and single-shard
            # mutators (which take their shard's lock end to end)
            # cannot interleave into the group commit.
            for _, shard in shards:
                stack.enter_context(shard._write_lock)
            # Holds enter next so they release after the batches: the
            # unwind commits every shard's batch, *then* lets
            # checkpoints run.
            for _, shard in shards:
                stack.enter_context(shard.journal.hold_checkpoints())
            for _, shard in shards:
                stack.enter_context(shard.journal.batch())
            if len(shards) > 1:
                batch_id = uuid4().hex[:12]
                participants = ",".join(str(index) for index, _ in shards)
                for _, shard in shards:
                    shard.journal.log_delete(
                        f"fleet-batch:{batch_id}:{participants}"
                    )
            yield

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Group-commit context spanning every shard's journal."""
        with self._fleet_group([index for index, _ in self._healthy()]):
            yield

    # ------------------------------------------------------------------
    # Membrane phase
    # ------------------------------------------------------------------

    def query_membranes(
        self,
        query: MembraneQuery,
        credential: AccessCredential,
        snapshot: Optional[FleetSnapshot] = None,
    ) -> List[Tuple[PDRef, Membrane]]:
        if query.subject_id:
            # Subject-scoped: only the owning shard can hold matches,
            # but the type must still fail loudly if undeclared.
            self.get_type(query.pd_type)
            index = self.shard_index_for_subject(query.subject_id)
            return self._shard_at(index).query_membranes(
                query, credential, snapshot=self._sub(snapshot, index)
            )
        if query.uids is not None:
            def one_group(index: int, uids: List[str]):
                sub_query = _dc_replace(query, uids=tuple(uids))
                with self.telemetry.span(
                    "shard.fanout", shard=index, op="query_membranes"
                ):
                    return self._shard_at(index).query_membranes(
                        sub_query, credential,
                        snapshot=self._sub(snapshot, index),
                    )

            results: List[Tuple[PDRef, Membrane]] = []
            for per_shard in self._fan([
                (lambda i=index, u=uids: one_group(i, u))
                for index, uids in self._uids_by_shard(query.uids).items()
            ]):
                results.extend(per_shard)
            results.sort(key=lambda pair: pair[0].uid)
            return results

        def one(index: int, shard: DatabaseFS):
            with self.telemetry.span(
                "shard.fanout", shard=index, op="query_membranes"
            ):
                return shard.query_membranes(
                    query, credential, snapshot=self._sub(snapshot, index)
                )

        results = []
        for per_shard in self._fan([
            (lambda i=index, s=shard: one(i, s))
            for index, shard in self._healthy()
        ]):
            results.extend(per_shard)
        results.sort(key=lambda pair: pair[0].uid)
        return results

    def get_membrane(
        self,
        uid: str,
        credential: AccessCredential,
        snapshot: Optional[FleetSnapshot] = None,
    ) -> Membrane:
        index = self._uid_shard.get(uid)
        shard = self._owning_shard(uid)
        sub = self._sub(snapshot, index if index is not None else 0)
        return shard.get_membrane(uid, credential, snapshot=sub)

    def put_membrane(
        self, uid: str, membrane: Membrane, credential: AccessCredential
    ) -> None:
        self._owning_shard(uid).put_membrane(uid, membrane, credential)

    def change_membrane(
        self, uid: str, mutate: Callable[[Membrane], None],
        credential: AccessCredential,
    ) -> None:
        self._owning_shard(uid).change_membrane(uid, mutate, credential)

    def lineage_members(self, lineage: str) -> List[str]:
        # A lineage id is the uid of the group's first copy source, so
        # the whole group lives on that uid's shard (lineage affinity).
        index = self._uid_shard.get(lineage)
        if index is not None:
            return self._shard_at(index).lineage_members(lineage)
        members: List[str] = []
        for _, shard in self._healthy():
            members.extend(shard.lineage_members(lineage))
        return sorted(members)

    # ------------------------------------------------------------------
    # Data phase
    # ------------------------------------------------------------------

    def fetch_records(
        self,
        query: DataQuery,
        credential: AccessCredential,
        snapshot: Optional[FleetSnapshot] = None,
    ) -> Dict[str, Dict[str, object]]:
        self._primary()._require_ded(credential, "fetch_records")

        def one_group(index: int, uids: List[str]):
            sub_query = _dc_replace(query, uids=tuple(uids))
            with self.telemetry.span(
                "shard.fanout", shard=index, op="fetch_records"
            ):
                return self._shard_at(index).fetch_records(
                    sub_query, credential,
                    snapshot=self._sub(snapshot, index),
                )

        results: Dict[str, Dict[str, object]] = {}
        for per_shard in self._fan([
            (lambda i=index, u=uids: one_group(i, u))
            for index, uids in self._uids_by_shard(query.uids).items()
        ]):
            results.update(per_shard)
        return results

    def _load_record_raw(self, uid: str) -> Dict[str, object]:
        return self._owning_shard(uid)._load_record_raw(uid)

    def _uids_by_shard(self, uids: Sequence[str]) -> Dict[int, List[str]]:
        """Group uids by owning shard; unknown uids go to shard 0 so
        lookups fail with the single-DBFS error."""
        groups: Dict[int, List[str]] = {}
        for uid in uids:
            groups.setdefault(self._uid_shard.get(uid, 0), []).append(uid)
        return groups

    # ------------------------------------------------------------------
    # Update / delete
    # ------------------------------------------------------------------

    def update(self, request: UpdateRequest, credential: AccessCredential) -> None:
        self._owning_shard(request.uid).update(request, credential)

    def delete(
        self, request: DeleteRequest, credential: AccessCredential
    ) -> Membrane:
        return self._owning_shard(request.uid).delete(request, credential)

    def escrow_blob(self, uid: str) -> EscrowBlob:
        return self._owning_shard(uid).escrow_blob(uid)

    # ------------------------------------------------------------------
    # Subject-level operations (single-shard by construction)
    # ------------------------------------------------------------------

    def list_subjects(self) -> List[str]:
        subjects: List[str] = []
        for _, shard in self._healthy():
            subjects.extend(shard.list_subjects())
        return sorted(subjects)

    def uids_of_subject(self, subject_id: str) -> List[str]:
        return self.shard_for_subject(subject_id).uids_of_subject(subject_id)

    def export_subject(
        self,
        subject_id: str,
        credential: AccessCredential,
        snapshot: Optional[FleetSnapshot] = None,
    ) -> Dict[str, object]:
        index = self.shard_index_for_subject(subject_id)
        return self._shard_at(index).export_subject(
            subject_id, credential, snapshot=self._sub(snapshot, index)
        )

    # ------------------------------------------------------------------
    # Maintenance & forensics (scatter-gather)
    # ------------------------------------------------------------------

    def all_uids(self) -> List[str]:
        uids: List[str] = []
        for _, shard in self._healthy():
            uids.extend(shard.all_uids())
        return sorted(uids)

    def iter_membranes(
        self,
        credential: AccessCredential,
        snapshot: Optional[FleetSnapshot] = None,
    ) -> List[Tuple[str, Membrane]]:
        pairs: List[Tuple[str, Membrane]] = []
        for per_shard in self._fan([
            (lambda i=index, s=shard: s.iter_membranes(
                credential, snapshot=self._sub(snapshot, i)
            ))
            for index, shard in self._healthy()
        ]):
            pairs.extend(per_shard)
        pairs.sort(key=lambda pair: pair[0])
        return pairs

    def forensic_scan(self, needle: bytes) -> Dict[str, int]:
        def one(index: int, shard: DatabaseFS) -> Dict[str, int]:
            with self.telemetry.span(
                "shard.fanout", shard=index, op="forensic_scan"
            ):
                return shard.forensic_scan(needle)

        totals = {"device_blocks": 0, "journal_records": 0}
        for counts in self._fan([
            (lambda i=index, s=shard: one(i, s))
            for index, shard in self._healthy()
        ]):
            totals["device_blocks"] += counts["device_blocks"]
            totals["journal_records"] += counts["journal_records"]
        return totals

    def record_inode(self, uid: str):
        return self._owning_shard(uid).record_inode(uid)

    def record_size(self, uid: str) -> int:
        return self._owning_shard(uid).record_size(uid)

    def residue_counts(
        self,
        needles: Sequence[bytes],
        subject_id: Optional[str] = None,
        uids: Sequence[str] = (),
    ) -> Dict[str, int]:
        """Residue scan, scoped to the owning shard when the erased
        subject is known — the subject's plaintext never touched any
        other shard's device or journal, so scanning them would only
        cost time.  Without a subject the scan covers every shard.
        """
        if subject_id is not None:
            return self.shard_for_subject(subject_id).residue_counts(
                needles, subject_id=subject_id, uids=uids
            )
        totals = {"device_blocks": 0, "journal_records": 0}
        for _, shard in self._healthy():
            counts = shard.residue_counts(needles, uids=uids)
            totals["device_blocks"] += counts["device_blocks"]
            totals["journal_records"] += counts["journal_records"]
        return totals

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def stats(self) -> DBFSStats:
        """Aggregated operation counters (sum over shards)."""
        total = DBFSStats()
        for _, shard in self._healthy():
            for name in vars(total):
                setattr(
                    total, name, getattr(total, name) + getattr(shard.stats, name)
                )
        return total

    def cache_stats(self) -> Dict[str, object]:
        """Per-shard cache/journal report, plus the shard count."""
        return {
            "shards": len(self._shards),
            "degraded": sorted(self._degraded),
            "per_shard": [
                shard.cache_stats() if shard is not None else None
                for shard in self._shards
            ],
        }

    def shard_stats(self) -> List[Dict[str, object]]:
        """One occupancy/journal summary per shard."""
        stats: List[Dict[str, object]] = []
        for index, shard in enumerate(self._shards):
            if index in self._degraded:
                stats.append({
                    "shard": index,
                    "degraded": True,
                    "reason": self._degraded[index],
                })
                continue
            entry = shard.shard_stats()[0]
            entry["shard"] = index
            stats.append(entry)
        return stats
