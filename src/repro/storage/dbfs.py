"""DBFS — the database-oriented filesystem (paper Idea 3, § 3(1)).

DBFS stores PD as typed records in inode trees, not as opaque files.
Its layout follows § 3(1) of the paper word for word:

* **Subject tree** — "the first tree gathers every PD from all
  subjects, with a separate set of inodes for each of them, grouping
  not only their personal data but also the membrane."  Layout::

      subjects_root/
        <subject_id>/            (KIND_SUBJECT)
          <uid>                  (KIND_RECORD, payload = public fields)
            .sensitive inode     (linked via attrs, separate storage)
            .membrane inode      (KIND_MEMBRANE, payload = membrane JSON)

* **Schema tree** — "the second major tree provides the database
  structure, with a core inode ... for each table describing the
  structure of the contained data, the different fields of the table,
  and a list of subject's inodes."  Layout::

      schema_root/
        <type_name>              (KIND_TABLE, payload = schema JSON,
                                  children = uid -> record inode)

* **Format descriptors** — "a dedicated set of inodes describes the
  general structure of the data encoded in the inode subtree of each
  subject: meant to be accessed only once by the filesystem during a
  given live session."  Read lazily once and cached per live session::

      formats_root/
        <type_name>              (KIND_FORMAT, payload = encoding spec)

Enforcement at this boundary (paper § 2, rules 3 and 4):

* every ``store`` must carry a membrane (:class:`MissingMembraneError`
  otherwise) — invariant 3;
* every entry point requires a DED credential
  (:class:`PDLeakError` otherwise) — invariant 4.  The kernel-level
  LSM policy enforces the same rule one layer down; DBFS checks again
  because defense in depth is the point of an end-to-end design.

GDPR-specific storage behaviour:

* **sensitive-field separation** — fields marked ``sensitive`` are
  stored in a physically separate inode (the paper: "sensitive data
  (e.g., a social security number) be stored separately from less
  sensitive data (e.g. a name)");
* **privacy-preserving journaling** — DBFS journals operation
  *metadata only* (uids, never payloads), so its own crash-recovery
  log cannot violate the right to be forgotten the way the baseline's
  data journal does;
* **erasure that actually erases** — ``delete`` scrubs data blocks;
  in ``escrow`` mode the record is first re-encrypted under the
  authority's public key (§ 4) and the ciphertext takes its place.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .. import errors
from ..core.active_data import AccessCredential, PDRef
from ..core.crypto import EscrowBlob, OperatorKey
from ..core.datatypes import PDType
from ..core.membrane import Membrane
from ..obs import NULL_TELEMETRY, Telemetry
from .block import BlockDevice, store_bytes
from .btree import BloomFilter, DurableFieldIndex, bloom_key
from .cache import MISSING, CacheConfig, DEFAULT_CACHE_CONFIG, LRUCache
from .codec import ENCODING_V2, RecordCodec, codec_for_format, encode_record_v1
from .planner import STRATEGY_INDEX, QueryPlan, compile_residual, plan_query
from .inode import (
    KIND_DIRECTORY,
    KIND_FORMAT,
    KIND_INDEX,
    KIND_MEMBRANE,
    KIND_RECORD,
    KIND_SUBJECT,
    KIND_TABLE,
    Inode,
    InodeTable,
)
from .journal import TXN_COMMIT, TXN_DELETE, Journal, JournalConfig
from .mvcc import MVCCState, Snapshot
from .query import (
    DataQuery,
    DeleteRequest,
    MembraneQuery,
    Predicate,
    StoreRequest,
    UpdateRequest,
)

_uid_counter = itertools.count(1)

#: Rows per chunk on the batched read path (MVCC visibility is checked
#: once per chunk).
SCAN_BATCH_ROWS = 256


def _locked_writer(method):
    """Serialize a mutating DBFS method under the per-store write lock.

    One writer at a time per shard is the concurrency contract the
    journal's group commit depends on (BEGIN/op/COMMIT sequences from
    two threads must never interleave in the log).  The lock is an
    RLock so composed paths — ``store_many`` → ``store``, ``delete`` →
    ``put_membrane`` — re-enter freely.  Readers do NOT take this
    lock: they run against MVCC snapshots plus the short index lock,
    so a scan never waits out a journal flush.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._write_lock:
            return method(self, *args, **kwargs)

    return wrapper


@dataclass
class DBFSStats:
    """Operation counters DBFS maintains for the benchmarks."""

    stores: int = 0
    bulk_stores: int = 0
    membrane_queries: int = 0
    data_queries: int = 0
    updates: int = 0
    deletes: int = 0
    denied_accesses: int = 0
    format_reads: int = 0
    listing_cache_hits: int = 0
    listing_cache_misses: int = 0
    membrane_cache_hits: int = 0
    membrane_cache_misses: int = 0
    plans: int = 0
    full_decodes: int = 0
    partial_decodes: int = 0
    fields_decoded: int = 0
    index_page_reads: int = 0
    index_bloom_hits: int = 0
    index_bloom_skips: int = 0
    compactions: int = 0
    compacted_indexes: int = 0
    compaction_blocks_reclaimed: int = 0


class _StatCounter:
    """Counter handed to durable indexes: bumps a DBFSStats field and
    (when telemetry is enabled) the equally-named registry counter, so
    both benchmarks and ``repro stats`` see the same numbers."""

    __slots__ = ("_stats", "_attr", "_telemetry_counter")

    def __init__(self, stats: DBFSStats, attr: str, telemetry_counter=None):
        self._stats = stats
        self._attr = attr
        self._telemetry_counter = telemetry_counter

    def inc(self, amount: int = 1) -> None:
        setattr(self._stats, self._attr,
                getattr(self._stats, self._attr) + amount)
        if self._telemetry_counter is not None:
            self._telemetry_counter.inc(amount)


class DatabaseFS:
    """The PD filesystem.  See module docstring for the layout."""

    def __init__(
        self,
        device: Optional[BlockDevice] = None,
        operator_key: Optional[OperatorKey] = None,
        journal_blocks: int = 256,
        cache_config: Optional[CacheConfig] = None,
        journal_config: Optional[JournalConfig] = None,
        telemetry: Optional[Telemetry] = None,
        bloom_filters: bool = True,
    ) -> None:
        self._configure(device, operator_key, cache_config, telemetry,
                        bloom_filters)
        # Inode capacity tracks the device: a bigger device (the
        # sharding benchmarks size devices per population slice) gets
        # a proportionally bigger table; the default 65536-block
        # device keeps the historical 65536-inode cap.
        self.inodes = InodeTable(
            self.device, max_inodes=max(65536, self.device.block_count)
        )
        # Metadata-only journal (no PD payloads ever).
        self.journal = Journal(
            self.device, reserved_blocks=journal_blocks, config=journal_config,
            telemetry=self.telemetry,
        )

        self._subjects_root = self.inodes.allocate(KIND_DIRECTORY)
        self._schema_root = self.inodes.allocate(KIND_DIRECTORY)
        self._formats_root = self.inodes.allocate(KIND_DIRECTORY)
        # Fourth root: durable field-index pages and persisted bloom
        # filters hang here, outside the subject/schema trees, so the
        # reachability sweep and remount can treat them uniformly.
        self._indexes_root = self.inodes.allocate(KIND_DIRECTORY)
        # Role markers + journal extent let remount_from_device find
        # the trees and the journal from surviving state alone.
        self._subjects_root.attrs["role"] = "subjects-root"
        self._schema_root.attrs["role"] = "schema-root"
        self._formats_root.attrs["role"] = "formats-root"
        self._indexes_root.attrs["role"] = "indexes-root"
        self._subjects_root.attrs["journal_extent"] = self.journal.extent
        self._init_session()

    def _configure(
        self, device: Optional[BlockDevice],
        operator_key: Optional[OperatorKey],
        cache_config: Optional[CacheConfig], telemetry: Optional[Telemetry],
        bloom_filters: bool,
    ) -> None:
        """Settings a fresh store and a remounted one take alike."""
        self.cache_config = cache_config if cache_config is not None else DEFAULT_CACHE_CONFIG
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Per-table subject/uid bloom filters gating negative lookups.
        self.bloom_filters = bloom_filters
        self.device = device or BlockDevice(
            page_cache_blocks=self.cache_config.page_cache_blocks,
            telemetry=self.telemetry,
        )
        self._operator_key = operator_key

    def _init_session(self) -> None:
        """Locks, derived structures and counters of a new object,
        once its inode table, roots and journal are in place."""
        self._init_concurrency()
        self._init_volatile()
        self.stats = DBFSStats()
        self._init_accel_counters()
        #: Crash-reconciliation report of the last remount (rolled-back
        #: stores, redone erasures, orphan sweeps).
        self.recovery_report: Dict[str, int] = {}

    def _init_accel_counters(self) -> None:
        """Counters/histograms shared by the accelerator structures.

        Created once per DBFS object (they wrap ``self.stats``, which
        also lives object-long); the telemetry legs are null objects
        when telemetry is disabled, so the hot paths never branch.
        """
        self._ctr_page_reads = _StatCounter(
            self.stats, "index_page_reads",
            self.telemetry.counter("index.page_reads"),
        )
        self._ctr_bloom_hits = _StatCounter(
            self.stats, "index_bloom_hits",
            self.telemetry.counter("index.bloom_hits"),
        )
        self._ctr_bloom_skips = _StatCounter(
            self.stats, "index_bloom_skips",
            self.telemetry.counter("index.bloom_skips"),
        )
        self._hist_remount = self.telemetry.histogram("dbfs.remount")
        self._hist_index_attach = self.telemetry.histogram(
            "dbfs.remount.index_attach"
        )

    def _init_concurrency(self) -> None:
        """Create the two locks the request engine's contract rests on.

        ``_write_lock`` — per-shard single writer; every mutating
        entry point holds it end to end (see :func:`_locked_writer`).
        ``_index_lock`` — guards the volatile lookup structures
        (record/membrane indexes, field indexes, listing cache,
        lineage index) for *short* critical sections only, so snapshot
        readers synchronize with writers on index mutation without
        ever waiting for journal or device IO.
        """
        self._write_lock = threading.RLock()
        self._index_lock = threading.RLock()
        # Mutation observers: the one post-commit hook.  Each fires
        # *after* a mutation's journal transaction commits, with
        # (op, payload) sufficient to replay the op on another node.
        # The registrations belong to subscribers, not to the derived
        # state _init_volatile rebuilds, so they survive an in-place
        # remount; remount_from_device starts with an empty list, and
        # each subscriber re-attaches itself (ExpiryDaemon.rebind, the
        # cluster's capture tap).
        self.mutation_observers: List[
            Callable[[str, Dict[str, object]], None]
        ] = []
        # _finish_erase persists the erased membrane through
        # change_membrane; replaying that nested membrane_update
        # *before* the delete op would leave an "erased" membrane over
        # a live plaintext record on followers.  _finish_erase raises
        # this flag so only its own delete op record ships.
        self._suppress_mutation_notify = False

    def _init_volatile(self) -> None:
        """(Re)create every derived, in-memory-only structure.

        Everything assigned here is rebuilt from the durable planes on
        remount; nothing in it survives a crash.
        """
        #: MVCC commit counter + snapshot bookkeeping (session-local:
        #: snapshots do not survive a remount, and must not — the
        #: chains reference pre-crash membrane states).
        self.mvcc = MVCCState()
        self._types: Dict[str, PDType] = {}
        self._record_index: Dict[str, int] = {}      # uid -> record inode no
        self._membrane_index: Dict[str, int] = {}    # uid -> membrane inode no
        self._escrow_blobs: Dict[str, EscrowBlob] = {}
        self._format_cache: Dict[str, Dict[str, object]] = {}  # per live session
        # Compiled v2 row codecs, one per live format descriptor.
        # Lives and dies with _format_cache.
        self._codec_cache: Dict[str, RecordCodec] = {}
        # Secondary field indexes: (type, field) -> on-device B-tree.
        self._field_indexes: Dict[Tuple[str, str], DurableFieldIndex] = {}
        # Per-table subject/uid bloom filters ("S:<subject>" and
        # "U:<uid>" keys): definite-absent answers for negative lookups
        # without touching membranes.  Rebuilt from the trees on
        # remount; persisted bits (flush_accelerators) are OR-unioned
        # in, so the filter over-approximates and never false-negatives.
        self._table_blooms: Dict[str, BloomFilter] = {}
        # Incremental-compaction resume point: the last uid the
        # record-rewrite plane finished (None = wave not in progress).
        # Volatile on purpose — a remount restarts the wave.
        self._compact_cursor: Optional[str] = None
        # Lineage index: copy-group id -> member uids.  Keeps the
        # built-in copy/consent-propagation path O(group) instead of a
        # full membrane scan; rebuilt from membranes on remount.
        self._lineage_index: Dict[str, set] = {}
        # Membrane JSON cache: avoids re-reading the membrane inode's
        # blocks on every decision.  Invariant: the cache always holds
        # exactly what the inode holds (put_membrane writes both).
        # LRU-bounded: eviction is safe because _load_membrane re-reads
        # the inode on a miss.
        self._membrane_json_cache = LRUCache(
            self.cache_config.membrane_cache_entries,
            name="membrane-json-cache",
        )
        # Decoded-record cache (uid -> merged public+sensitive dict).
        # Values are copied on both insert and return: callers mutate
        # the dict they get back (update() does), and a cache handing
        # out its own storage would let one caller corrupt another's
        # view.  Invalidated on delete, refreshed on update, cleared on
        # evolve_type/remount.
        self._record_cache = LRUCache(
            self.cache_config.record_cache_records, name="record-cache"
        )
        # Sorted per-table uid listing (type -> sorted uids), so
        # table scans and _candidate_uids stop re-sorting table.children
        # on every query.  Invalidated on store/delete of that type.
        self._listing_cache: Dict[str, List[str]] = {}
        # Decoded Membrane objects (uid -> Membrane), sharing one
        # object per uid instead of re-running Membrane.from_json per
        # decision.  Readers only: writers change a private copy
        # (change_membrane), which _persist_membrane caches once the
        # write commits and no caller holds it.  Shares the
        # membrane_cache_entries bound with the JSON cache above.
        self._membrane_cache = LRUCache(
            self.cache_config.membrane_cache_entries,
            name="membrane-object-cache",
        )

    # ------------------------------------------------------------------
    # Access control
    # ------------------------------------------------------------------

    def _require_ded(self, credential: AccessCredential, operation: str) -> None:
        """Invariant 4: only the DED touches DBFS."""
        if not credential.is_ded:
            self.stats.denied_accesses += 1
            raise errors.PDLeakError(
                f"direct DBFS access ({operation}) by {credential.holder!r} "
                "blocked: only the Data Execution Domain may access DBFS"
            )

    # ------------------------------------------------------------------
    # Schema management (types must exist before use)
    # ------------------------------------------------------------------

    @_locked_writer
    def create_type(self, pd_type: PDType, credential: AccessCredential) -> None:
        """Declare a PD type (a table) — prerequisite to storing data."""
        self._require_ded(credential, "create_type")
        if pd_type.name in self._types:
            raise errors.DBFSError(f"type {pd_type.name!r} already declared")
        table = self.inodes.allocate(KIND_TABLE)
        self.inodes.write_payload(
            table.number, json.dumps(pd_type.describe(), sort_keys=True).encode()
        )
        self.inodes.link_child(self._schema_root.number, pd_type.name, table.number)
        # Format descriptor: how records of this type are encoded in the
        # subject subtrees — read once per live session (see _format_of).
        # It carries the append-only field_order list every binary-v2
        # row's offset table is indexed against.
        format_inode = self.inodes.allocate(KIND_FORMAT)
        format_spec = {
            "type": pd_type.name,
            "encoding": ENCODING_V2,
            "public_fields": sorted(pd_type.field_names - pd_type.sensitive_fields),
            "sensitive_fields": sorted(pd_type.sensitive_fields),
            "membrane_encoding": "json",
            "field_order": sorted(pd_type.field_names),
        }
        self.inodes.write_payload(
            format_inode.number, json.dumps(format_spec, sort_keys=True).encode()
        )
        self.inodes.link_child(
            self._formats_root.number, pd_type.name, format_inode.number
        )
        self._types[pd_type.name] = pd_type
        if self.bloom_filters:
            self._table_blooms[pd_type.name] = BloomFilter.sized(4096)
        self._journal_op("create_type", pd_type.name)
        self._notify_mutation("create_type", {"pd_type": pd_type})

    @_locked_writer
    def evolve_type(
        self, new_type: PDType, credential: AccessCredential
    ) -> PDType:
        """Schema evolution: replace a type's declaration compatibly.

        Applications outlive their first schema.  Evolution is allowed
        when every already-stored record remains valid and no field's
        storage placement changes:

        * existing fields are immutable (name, type, required,
          sensitive) — changing them would reinterpret or relocate
          stored data;
        * new fields must be optional (old records lack them);
        * views, default consents, collection interfaces, TTL,
          sensitivity and origin may change freely (they only affect
          *future* membranes and projections).

        The schema inode and format descriptor are rewritten; the
        table's schema version is bumped.
        """
        self._require_ded(credential, "evolve_type")
        current = self.get_type(new_type.name)

        current_fields = {f.name: f for f in current.fields}
        new_fields = {f.name: f for f in new_type.fields}
        removed = set(current_fields) - set(new_fields)
        if removed:
            raise errors.SchemaViolationError(
                f"evolution of {new_type.name!r} removes fields "
                f"{sorted(removed)}; fields are append-only"
            )
        for name, old_field in current_fields.items():
            if new_fields[name] != old_field:
                raise errors.SchemaViolationError(
                    f"evolution of {new_type.name!r} modifies existing "
                    f"field {name!r}; existing fields are immutable"
                )
        for name in set(new_fields) - set(current_fields):
            if new_fields[name].required:
                raise errors.SchemaViolationError(
                    f"evolution of {new_type.name!r} adds required field "
                    f"{name!r}; new fields must be optional"
                )

        table = self.inodes.lookup(self._schema_root.number, new_type.name)
        self.inodes.rewrite_scrubbed(
            table.number,
            json.dumps(new_type.describe(), sort_keys=True).encode(),
        )
        table.attrs["schema_version"] = table.attrs.get("schema_version", 1) + 1

        format_inode = self.inodes.lookup(
            self._formats_root.number, new_type.name
        )
        # The field order is extended append-only: existing ordinals
        # never move, so rows written before the evolution keep
        # decoding against the longer order.
        old_order = list(self._format_of(new_type.name)["field_order"])
        known = set(old_order)
        field_order = old_order + sorted(
            name for name in new_type.field_names if name not in known
        )
        format_spec = {
            "type": new_type.name,
            "encoding": ENCODING_V2,
            "public_fields": sorted(
                new_type.field_names - new_type.sensitive_fields
            ),
            "sensitive_fields": sorted(new_type.sensitive_fields),
            "membrane_encoding": "json",
            "field_order": field_order,
        }
        self.inodes.rewrite_scrubbed(
            format_inode.number,
            json.dumps(format_spec, sort_keys=True).encode(),
        )
        self._format_cache.pop(new_type.name, None)
        self._codec_cache.pop(new_type.name, None)
        # Cached decoded records embed the old schema's field split;
        # drop them all (evolutions are rare, the cache refills fast).
        self._record_cache.clear()
        self._types[new_type.name] = new_type
        self._journal_op("evolve_type", new_type.name)
        self._notify_mutation("evolve_type", {"pd_type": new_type})
        return new_type

    def schema_version(self, type_name: str) -> int:
        table = self.inodes.lookup(self._schema_root.number, type_name)
        return table.attrs.get("schema_version", 1)

    def get_type(self, name: str) -> PDType:
        pd_type = self._types.get(name)
        if pd_type is None:
            raise errors.UnknownTypeError(
                f"PD type {name!r} not declared in DBFS "
                "(types must be created prior to use)"
            )
        return pd_type

    def list_types(self) -> List[str]:
        return sorted(self._types)

    def _format_of(self, type_name: str) -> Dict[str, object]:
        """Format descriptor, loaded once per live session then cached."""
        cached = self._format_cache.get(type_name)
        if cached is not None:
            return cached
        inode = self.inodes.lookup(self._formats_root.number, type_name)
        spec = json.loads(self.inodes.read_payload(inode.number).decode())
        self._format_cache[type_name] = spec
        self.stats.format_reads += 1
        return spec

    def _codec_of(self, type_name: str) -> RecordCodec:
        """Compiled v2 codec for the type.

        Compiled once per live format descriptor; invalidated together
        with ``_format_cache`` (evolve_type, remount).
        """
        codec = self._codec_cache.get(type_name)
        if codec is None:
            codec = codec_for_format(self._format_of(type_name))
            self._codec_cache[type_name] = codec
        return codec

    def _encode_payload(
        self, type_name: str, record: Mapping[str, object]
    ) -> bytes:
        """Encode a row (or row half) with the type's codec."""
        return self._codec_of(type_name).encode(dict(record))

    # ------------------------------------------------------------------
    # Secondary field indexes
    # ------------------------------------------------------------------

    #: Field types whose values order totally (indexable).
    _INDEXABLE_TYPES = frozenset({"int", "float", "string", "date"})

    @_locked_writer
    def create_index(
        self, type_name: str, field_name: str, credential: AccessCredential
    ) -> DurableFieldIndex:
        """Build a durable B-tree index over one field of one type.

        Sensitive fields are not indexable: their values must never
        leave the separate sensitive inode, and an index would scatter
        them through its page structure.  Existing records are
        backfilled into on-device index pages under the indexes root;
        the declaration lands in the table attrs only once the backfill
        completed, so a crash mid-build leaves an undeclared (and
        therefore swept) root rather than a half-populated index.
        """
        self._require_ded(credential, "create_index")
        pd_type = self.get_type(type_name)
        field_def = pd_type.field(field_name)
        if field_def.sensitive:
            raise errors.DBFSError(
                f"field {field_name!r} is sensitive and cannot be indexed"
            )
        if field_def.field_type not in self._INDEXABLE_TYPES:
            raise errors.DBFSError(
                f"field type {field_def.field_type!r} is not indexable"
            )
        key = (type_name, field_name)
        if key in self._field_indexes:
            raise errors.DBFSError(
                f"index on {type_name}.{field_name} already exists"
            )
        table = self.inodes.lookup(self._schema_root.number, type_name)
        index = self._backfill_index(type_name, field_name)
        declared = table.attrs.setdefault("indexes", [])
        if field_name not in declared:
            declared.append(field_name)
        self._journal_op("create_index", f"{type_name}.{field_name}")
        self._notify_mutation(
            "create_index", {"type_name": type_name, "field_name": field_name}
        )
        return index

    def _index_kwargs(self) -> Dict[str, object]:
        """Counters shared by every durable index of this store."""
        return {
            "page_reads": self._ctr_page_reads,
            "bloom_hits": self._ctr_bloom_hits,
            "bloom_skips": self._ctr_bloom_skips,
        }

    def _backfill_index(
        self, type_name: str, field_name: str
    ) -> DurableFieldIndex:
        """(Re)build one durable index from the live records.

        Any existing root for the pair is dropped first (a crash may
        have left an incomplete one).  The ``complete`` attr lands only
        after the last page write — it is the atomic metadata marker
        attach trusts.
        """
        self._drop_index_root(type_name, field_name)
        index = DurableFieldIndex.create(
            self.inodes, self._indexes_root.number, type_name, field_name,
            **self._index_kwargs(),
        )
        pairs = []
        for uid in self._table_listing(type_name):
            if self.inodes.get(self._record_index[uid]).attrs["erased"]:
                continue
            try:
                record = self._load_record_raw(uid)
            except errors.ExpiredPDError:
                continue
            if field_name in record:
                pairs.append((record[field_name], uid))
        index.bulk_build(pairs)
        self.inodes.get(index.root_no).attrs["complete"] = True
        with self._index_lock:
            self._field_indexes[(type_name, field_name)] = index
        return index

    def _drop_index_root(self, type_name: str, field_name: str) -> None:
        """Unlink and scrub one durable index tree (pages hold PD values).

        Unlink-before-free ordering: once the root leaves the indexes
        root's children the whole tree is unreachable, so a crash
        mid-scrub leaves debris the recovery sweeps finish off.
        """
        name = f"{type_name}.{field_name}"
        root_no = self._indexes_root.children.get(name)
        if root_no is None:
            return
        root = self.inodes.get(root_no)
        self.inodes.unlink_child(self._indexes_root.number, name)
        for child_name in list(root.children):
            child_no = root.children[child_name]
            self.inodes.unlink_child(root_no, child_name)
            if self.inodes.exists(child_no):
                self.inodes.free(child_no, scrub=True)
        self.inodes.free(root_no, scrub=True)

    def has_index(self, type_name: str, field_name: str) -> bool:
        return (type_name, field_name) in self._field_indexes

    def indexed_fields(self) -> List[Tuple[str, str]]:
        """Sorted (type, field) pairs with a live index (schema sync)."""
        with self._index_lock:
            return sorted(self._field_indexes)

    # ------------------------------------------------------------------
    # Selection: one planner, one batched scan
    # ------------------------------------------------------------------

    def select_uids(
        self,
        type_name: str,
        predicate: Predicate,
        credential: AccessCredential,
        snapshot: Optional[Snapshot] = None,
    ) -> List[str]:
        """uids of live records matching one predicate: the
        one-predicate case of :meth:`select_uids_where`, so an indexed
        field is one index lookup and any other field a batched scan.
        This is the pushdown entry the ABL-I benchmark compares.
        """
        return self.select_uids_where(
            type_name, (predicate,), credential, snapshot
        )

    def _iter_live_batches(
        self,
        type_name: str,
        uids: Sequence[str],
        fields: Sequence[str],
        snapshot: Optional[Snapshot] = None,
    ) -> Iterator[List[Tuple[str, Dict[str, object]]]]:
        """Yield ``(uid, projected_record)`` rows in visibility-filtered
        chunks of :data:`SCAN_BATCH_ROWS`.

        This is DBFS's one read path for selection, a scan's and an
        index plan's residual alike: per chunk, MVCC visibility is
        answered in one lock acquisition
        (:meth:`MVCCState.visible_many`), then each live row is read as
        a :class:`memoryview` straight off its block
        (``read_payload_view``) and partially decoded to just
        ``fields`` through the v2 offset table.  Erasure is decided
        from the record inode's ``erased`` attr — no membrane loads on
        the scan path.  With no ``fields`` no payload is read at all,
        and the sensitive sibling inode is only touched when a wanted
        field is sensitive.
        """
        wanted = frozenset(fields)
        codec = self._codec_of(type_name)
        sensitive_wanted = wanted.intersection(
            self._format_of(type_name)["sensitive_fields"]
        )
        record_cache = self._record_cache
        record_index = self._record_index
        inodes = self.inodes
        for start in range(0, len(uids), SCAN_BATCH_ROWS):
            chunk = uids[start:start + SCAN_BATCH_ROWS]
            if snapshot is not None:
                chunk = self.mvcc.visible_many(chunk, snapshot.version)
            rows: List[Tuple[str, Dict[str, object]]] = []
            for uid in chunk:
                inode_no = record_index.get(uid)
                if inode_no is None:
                    continue
                inode = inodes.get(inode_no)
                if inode.attrs["erased"]:
                    continue
                if not wanted:
                    rows.append((uid, {}))
                    continue
                cached = record_cache.get(uid)
                if cached is not MISSING:
                    rows.append((
                        uid,
                        {k: v for k, v in cached.items() if k in wanted},  # type: ignore[union-attr]
                    ))
                    continue
                raw = inodes.read_payload_view(inode_no)
                if not len(raw):
                    continue  # erase's scrub half ran; mark in flight
                record = codec.decode_fields(raw, wanted)
                if sensitive_wanted:
                    sensitive_no = inode.attrs.get("sensitive_inode")
                    if sensitive_no is not None:
                        record.update(codec.decode_fields(
                            inodes.read_payload_view(sensitive_no),
                            sensitive_wanted,
                        ))
                self.stats.partial_decodes += 1
                self.stats.fields_decoded += len(record)
                rows.append((uid, record))
            yield rows

    def explain(
        self,
        type_name: str,
        predicates: Sequence[Predicate],
        credential: AccessCredential,
    ) -> QueryPlan:
        """The plan :meth:`select_uids_where` would run, without running it."""
        self._require_ded(credential, "explain")
        self.get_type(type_name)
        return self._plan(type_name, tuple(predicates))

    def select_uids_where(
        self,
        type_name: str,
        predicates: Sequence[Predicate],
        credential: AccessCredential,
        snapshot: Optional[Snapshot] = None,
    ) -> List[str]:
        """uids of live records satisfying *all* predicates (conjunction).

        Every indexed field's predicates are answered by one index
        lookup; the cheapest lookup (per-index cardinality stats)
        drives and the others' uid sets are intersected with it.  Only
        predicates no index answers are evaluated on the candidates,
        via partial decode of just the fields they touch.  With no
        indexable predicate the whole table is scanned, but still with
        partial decode, so a v2 row never pays a full
        ``json.loads``-style materialisation just to be rejected.  An
        empty predicate list selects every live record of the type.
        """
        self._require_ded(credential, "select_uids_where")
        self.get_type(type_name)
        predicates = tuple(predicates)
        with self.telemetry.op(
            "dbfs.select_where", pd_type=type_name,
            predicates=len(predicates),
        ) as span:
            plan = self._plan(type_name, predicates)
            uids = self._execute_plan(plan, snapshot)
            span.set_attrs(
                strategy=plan.strategy,
                index_field=plan.index_field,
                estimated=plan.estimated_rows,
                matched=len(uids),
            )
            return uids

    def _plan(
        self, type_name: str, predicates: Tuple[Predicate, ...]
    ) -> QueryPlan:
        with self.telemetry.op(
            "dbfs.plan", pd_type=type_name, predicates=len(predicates)
        ) as span:
            with self._index_lock:
                indexes = {
                    field_name: index
                    for (indexed_type, field_name), index
                    in self._field_indexes.items()
                    if indexed_type == type_name
                }
            plan = plan_query(
                type_name, predicates, indexes,
                table_rows=len(self._table_listing(type_name)),
            )
            self.stats.plans += 1
            span.set_attrs(
                strategy=plan.strategy,
                index_field=plan.index_field,
                lookups=len(plan.lookups),
                estimated_rows=plan.estimated_rows,
                residual=len(plan.residual),
            )
            return plan

    def _execute_plan(
        self, plan: QueryPlan, snapshot: Optional[Snapshot] = None
    ) -> List[str]:
        fields_needed = plan.fields_needed
        partial_before = self.stats.partial_decodes
        full_before = self.stats.full_decodes
        if plan.strategy == STRATEGY_INDEX:
            # Drive from the cheapest lookup and intersect the others'
            # uid sets: no indexed predicate costs a row decode.  The
            # whole traversal runs under one hold of the index lock: a
            # writer splitting a node mid-range-walk would corrupt the
            # result, and every lookup sees the same index state.
            # Writers hold the lock only for their (short) add/remove,
            # so this never waits out journal or device IO.
            with self._index_lock:
                indexes = self._field_indexes
                first, *rest = plan.lookups
                candidates = first.uids(
                    indexes[(plan.type_name, first.field_name)]
                )
                for lookup in rest:
                    if not candidates:
                        break
                    keep = set(lookup.uids(
                        indexes[(plan.type_name, lookup.field_name)]
                    ))
                    candidates = [uid for uid in candidates if uid in keep]
            candidates.sort()
            if not plan.residual:
                if snapshot is not None:
                    candidates = self.mvcc.visible_many(
                        candidates, snapshot.version
                    )
                return candidates  # index holds live records only
        else:
            candidates = self._table_listing(plan.type_name)
        # Residual filtering: decode just the fields of the predicates
        # no index answers, a batch at a time on the zero-copy read
        # path; the compiled residual rejects rows batch by batch.  A
        # scan with no residual reads no payloads.
        evaluate = compile_residual(plan.residual)
        matches = []
        with self.telemetry.span(
            "dbfs.decode", rows=len(candidates), fields=list(fields_needed),
        ) as span:
            for rows in self._iter_live_batches(
                plan.type_name, candidates, fields_needed, snapshot
            ):
                matches.extend(uid for uid, record in rows if evaluate(record))
            span.set_attrs(
                partial_decodes=self.stats.partial_decodes - partial_before,
                full_decodes=self.stats.full_decodes - full_before,
            )
        return matches

    def _table_listing(self, type_name: str) -> List[str]:
        """Sorted uids of one table, cached until a store/delete.

        Callers iterate the returned list and must not mutate it.
        """
        with self._index_lock:
            if not self.cache_config.listing_cache:
                table = self.inodes.lookup(self._schema_root.number, type_name)
                return sorted(table.children)
            cached = self._listing_cache.get(type_name)
            if cached is not None:
                self.stats.listing_cache_hits += 1
                return cached
            table = self.inodes.lookup(self._schema_root.number, type_name)
            listing = sorted(table.children)
            self._listing_cache[type_name] = listing
            self.stats.listing_cache_misses += 1
            return listing

    def _index_record(
        self, type_name: str, uid: str, record: Mapping[str, object]
    ) -> None:
        with self._index_lock:
            for (indexed_type, field_name), index in self._field_indexes.items():
                if indexed_type == type_name and field_name in record:
                    index.add(record[field_name], uid)

    def _unindex_record(
        self, type_name: str, uid: str, record: Mapping[str, object]
    ) -> None:
        with self._index_lock:
            for (indexed_type, field_name), index in self._field_indexes.items():
                if indexed_type == type_name and field_name in record:
                    index.remove(record[field_name], uid)

    def _unindex_uid(self, uid: str) -> int:
        """Drop every index entry for ``uid`` without knowing its values.

        Crash-repair path: a rolled-back store or an interrupted
        update/erase may have left entries whose values recovery cannot
        (or must not) decode, so each of the type's indexes sweeps its
        own pages for the uid — which also recomputes the entry
        checksums exactly, healing any crash drift.
        """
        parts = uid.split(":")
        type_name = parts[1] if len(parts) >= 3 else None
        dropped = 0
        with self._index_lock:
            for (indexed_type, _), index in self._field_indexes.items():
                if type_name is not None and indexed_type != type_name:
                    continue
                dropped += index.remove_uid(uid)
        return dropped

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------

    def store(self, request: StoreRequest, credential: AccessCredential) -> PDRef:
        """Persist one PD record with its membrane; returns the ref."""
        with self.telemetry.op("dbfs.store", pd_type=request.pd_type) as span:
            ref = self._store_impl(request, credential)
            span.set_attrs(uid=ref.uid, subject_id=ref.subject_id)
            return ref

    @_locked_writer
    def _store_impl(
        self, request: StoreRequest, credential: AccessCredential
    ) -> PDRef:
        self._require_ded(credential, "store")
        pd_type = self.get_type(request.pd_type)
        if not request.membrane_json:
            raise errors.MissingMembraneError(
                f"store of {request.pd_type!r} record without a membrane "
                "(every PD in DBFS must be wrapped)"
            )
        membrane = Membrane.from_json(request.membrane_json)
        if membrane.pd_type != pd_type.name:
            raise errors.MembraneError(
                f"membrane is for type {membrane.pd_type!r}, "
                f"record is {pd_type.name!r}"
            )
        pd_type.validate(request.record)

        # Replication replay passes the leader-minted uid so the same
        # PD carries the same name on every node; local stores mint one.
        uid = request.uid or f"pd:{pd_type.name}:{next(_uid_counter):08d}"
        if uid in self._record_index:
            raise errors.DBFSError(f"uid {uid!r} already exists")
        fmt = self._format_of(pd_type.name)
        public = {
            k: v for k, v in request.record.items() if k in fmt["public_fields"]
        }
        sensitive = {
            k: v for k, v in request.record.items() if k in fmt["sensitive_fields"]
        }

        # WAL, intent-before-apply: the "store:<uid>" intent lands in
        # the journal *before* any tree write, and the COMMIT (or the
        # surrounding batch's group commit) seals it only after the
        # trees hold the full record.  A crash mid-apply therefore
        # leaves an uncommitted intent, which either remount uses to
        # roll the half-born record back.
        self.journal.begin()
        self.journal.log_delete(f"store:{uid}")
        try:
            subject_inode = self._subject_inode(membrane.subject_id, create=True)
            record_inode = self.inodes.allocate(KIND_RECORD)
            self.inodes.write_payload(
                record_inode.number, self._encode_payload(pd_type.name, public)
            )
            record_inode.attrs["uid"] = uid
            record_inode.attrs["pd_type"] = pd_type.name
            # Lineage + erasure markers ride the metadata plane so
            # remount and the batched scan path never load a membrane
            # just to answer "is this row live / in which copy group".
            record_inode.attrs["lineage"] = membrane.lineage
            record_inode.attrs["erased"] = False

            if sensitive:
                sensitive_inode = self.inodes.allocate(KIND_RECORD)
                self.inodes.write_payload(
                    sensitive_inode.number,
                    self._encode_payload(pd_type.name, sensitive),
                )
                sensitive_inode.attrs["sensitive"] = True
                record_inode.attrs["sensitive_inode"] = sensitive_inode.number

            membrane_inode = self.inodes.allocate(KIND_MEMBRANE)
            self.inodes.write_payload(
                membrane_inode.number, membrane.to_json().encode()
            )
            record_inode.attrs["membrane_inode"] = membrane_inode.number

            # Link into both major trees and publish the volatile
            # lookup structures in one short index-lock section, so a
            # concurrent scan sees either none or all of them.  The MVCC
            # begin version is stamped first, inside the same section:
            # every reader finds the uid through a structure published
            # here, so none can see it before its begin version exists
            # (an unstamped uid is visible to every snapshot).  Lock
            # order is index -> MVCC; MVCCState never takes the index
            # lock.
            with self._index_lock:
                self.mvcc.stamp_store(uid)
                self.inodes.link_child(
                    subject_inode.number, uid, record_inode.number
                )
                table_inode = self.inodes.lookup(
                    self._schema_root.number, pd_type.name
                )
                self.inodes.link_child(table_inode.number, uid, record_inode.number)

                self._record_index[uid] = record_inode.number
                self._membrane_index[uid] = membrane_inode.number
                self._membrane_json_cache.put(uid, membrane.to_json())
                if self.cache_config.membrane_object_cache:
                    self._membrane_cache.put(uid, membrane)
                self._record_cache.put(uid, dict(request.record))
                self._listing_cache.pop(pd_type.name, None)
                self._index_record(pd_type.name, uid, request.record)
                bloom = self._table_blooms.get(pd_type.name)
                if bloom is not None:
                    bloom.add(bloom_key("S:" + membrane.subject_id))
                    bloom.add(bloom_key("U:" + uid))
                if membrane.lineage:
                    self._lineage_index.setdefault(membrane.lineage, set()).add(uid)
        except BaseException:
            # Inside a batch the enclosing Journal.batch() aborts the
            # whole group; a solo store drops its own transaction.
            if not self.journal.in_batch:
                self.journal.abort()
            raise
        self.stats.stores += 1
        self.journal.commit()
        self._notify_mutation(
            "store",
            {
                "uid": uid,
                "pd_type": pd_type.name,
                "subject_id": membrane.subject_id,
                "record": dict(request.record),
                "membrane_json": request.membrane_json,
            },
        )
        return PDRef(uid=uid, pd_type=pd_type.name, subject_id=membrane.subject_id)

    @_locked_writer
    def store_many(
        self, requests: Sequence[StoreRequest], credential: AccessCredential
    ) -> List[PDRef]:
        """Bulk store under one journal group commit.

        Semantically identical to N :meth:`store` calls; the only
        difference is the journal cost — N op records share a single
        BEGIN/COMMIT pair and one flush (see
        :meth:`repro.storage.journal.Journal.batch`).  The GDPRBench
        load phase uses this path.
        """
        self._require_ded(credential, "store_many")
        refs: List[PDRef] = []
        with self.telemetry.op("dbfs.store_many", count=len(requests)):
            with self.journal.batch():
                for request in requests:
                    refs.append(self.store(request, credential))
        self.stats.bulk_stores += 1
        return refs

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Group-commit context over this store's journal(s).

        On a single DBFS this is :meth:`Journal.batch` verbatim; the
        sharded store opens one batch per shard journal.  Callers that
        want journal coalescing should use this rather than reaching
        for ``dbfs.journal`` directly, so the same code works against
        both layouts.

        The write lock is held for the whole batch: a group commit is
        one writer's transaction, and another thread's ops must not
        interleave into its BEGIN/COMMIT window.
        """
        with self._write_lock:
            with self.journal.batch():
                yield

    # ------------------------------------------------------------------
    # Membrane phase (ded_load_membrane)
    # ------------------------------------------------------------------

    def query_membranes(
        self,
        query: MembraneQuery,
        credential: AccessCredential,
        snapshot: Optional[Snapshot] = None,
    ) -> List[Tuple[PDRef, Membrane]]:
        """Fetch membranes matching the query — never any record data.

        With a ``snapshot``, records stored after the snapshot began
        are invisible, and each membrane reflects the consent state as
        of the snapshot's begin version (so a concurrent revocation
        does not flip a decision mid-request; the *next* snapshot sees
        it).
        """
        self._require_ded(credential, "query_membranes")
        self.get_type(query.pd_type)  # unknown types fail loudly
        with self.telemetry.op(
            "dbfs.query_membranes", pd_type=query.pd_type,
            subject_id=query.subject_id,
        ) as span:
            hits_before = self.stats.membrane_cache_hits
            self.stats.membrane_queries += 1
            if query.subject_id and query.uids is None:
                # Per-table bloom gate: a definite-absent subject skips
                # the whole listing walk (and every membrane load with
                # it).  The filter only over-approximates — stores add
                # keys before committing and remount rebuilds it from
                # the trees — so a "no" is always correct, including
                # under any snapshot: a subject invisible to the bloom
                # never had records at any version.
                bloom = self._table_blooms.get(query.pd_type)
                if bloom is not None:
                    if not bloom.might_contain(
                        bloom_key("S:" + query.subject_id)
                    ):
                        self._ctr_bloom_skips.inc()
                        span.set_attrs(matched=0, cache_hits=0)
                        return []
                    self._ctr_bloom_hits.inc()
            results: List[Tuple[PDRef, Membrane]] = []
            for uid in self._candidate_uids(query):
                if snapshot is not None and not self.mvcc.visible(
                    uid, snapshot.version
                ):
                    continue
                membrane = self._load_membrane(uid, snapshot)
                if membrane.pd_type != query.pd_type:
                    continue
                if query.subject_id and membrane.subject_id != query.subject_id:
                    continue
                if membrane.erased and not query.include_erased:
                    continue
                ref = PDRef(
                    uid=uid, pd_type=membrane.pd_type, subject_id=membrane.subject_id
                )
                results.append((ref, membrane))
            results.sort(key=lambda pair: pair[0].uid)
            span.set_attrs(
                matched=len(results),
                cache_hits=self.stats.membrane_cache_hits - hits_before,
            )
            return results

    def get_membrane(
        self,
        uid: str,
        credential: AccessCredential,
        snapshot: Optional[Snapshot] = None,
    ) -> Membrane:
        self._require_ded(credential, "get_membrane")
        return self._load_membrane(uid, snapshot)

    def _candidate_uids(self, query: MembraneQuery) -> List[str]:
        if query.uids is not None:
            return [uid for uid in query.uids if uid in self._record_index]
        return self._table_listing(query.pd_type)

    def _load_membrane(
        self, uid: str, snapshot: Optional[Snapshot] = None
    ) -> Membrane:
        if snapshot is not None:
            # A chained membrane changed after the snapshot began —
            # decode the as-of JSON fresh (never the shared cached
            # object, which tracks the live state).  No chain means
            # the live state *is* the as-of state.
            as_of = self.mvcc.membrane_json_as_of(uid, snapshot.version)
            if as_of is not None:
                return Membrane.from_json(as_of)
        if self.cache_config.membrane_object_cache:
            decoded = self._membrane_cache.get(uid)
            if decoded is not MISSING:
                self.stats.membrane_cache_hits += 1
                return decoded  # type: ignore[return-value]
        cached = self._membrane_json_cache.get(uid)
        if cached is not MISSING:
            membrane = Membrane.from_json(cached)  # type: ignore[arg-type]
        else:
            inode_no = self._membrane_index.get(uid)
            if inode_no is None:
                raise errors.UnknownRecordError(f"no PD with uid {uid!r}")
            raw = self.inodes.read_payload(inode_no).decode()
            self._membrane_json_cache.put(uid, raw)
            membrane = Membrane.from_json(raw)
        if self.cache_config.membrane_object_cache:
            self.stats.membrane_cache_misses += 1
            self._membrane_cache.put(uid, membrane)
        return membrane

    @_locked_writer
    def put_membrane(
        self, uid: str, membrane: Membrane, credential: AccessCredential
    ) -> None:
        """Persist a whole membrane state as given (replication replay,
        anti-entropy); local changes use :meth:`change_membrane`.
        ``membrane`` stays the caller's: DBFS keeps its own decoding."""
        self._require_ded(credential, "put_membrane")
        self._persist_membrane(
            uid, self._stored_membrane_json(uid),
            Membrane.from_json(membrane.to_json()),
        )

    @_locked_writer
    def change_membrane(
        self, uid: str, mutate: Callable[[Membrane], None],
        credential: AccessCredential,
    ) -> None:
        """Consent, restriction, lineage or erasure change of one
        membrane.  ``mutate`` edits a private copy decoded from the
        stored JSON, never the object the cache serves to readers, so
        no reader sees the change before it commits."""
        self._require_ded(credential, "change_membrane")
        old_json = self._stored_membrane_json(uid)
        membrane = Membrane.from_json(old_json)
        mutate(membrane)
        self._persist_membrane(uid, old_json, membrane)

    def _stored_membrane_json(self, uid: str) -> str:
        """The membrane JSON the inode holds.  The JSON cache is
        write-through with the inode, so a cache hit is authoritative."""
        cached = self._membrane_json_cache.peek(uid)
        if cached is not MISSING:
            return cached  # type: ignore[return-value]
        inode_no = self._membrane_index.get(uid)
        if inode_no is None:
            raise errors.UnknownRecordError(f"no PD with uid {uid!r}")
        return self.inodes.read_payload(inode_no).decode()

    def _persist_membrane(
        self, uid: str, old_json: str, membrane: Membrane
    ) -> None:
        """The single membrane-persist path.  ``old_json`` is the state
        it replaces; ``membrane`` is an object no caller holds, which
        the object cache takes once the write commits."""
        encoded = membrane.to_json()
        # Pre-register the publish: from here until stamp_membrane
        # commits, the new JSON is (or is about to be) live in the
        # inode and caches, and any snapshot — already active or
        # beginning inside this window — must keep resolving the old
        # consent state through the chain, not the live structures.
        self.mvcc.prepare_membrane(uid, old_json)
        try:
            self.inodes.rewrite_scrubbed(
                self._membrane_index[uid], encoded.encode()
            )
            # Keep the record inode's metadata markers in step.
            record_no = self._record_index.get(uid)
            if record_no is not None:
                record_attrs = self.inodes.get(record_no).attrs
                record_attrs["lineage"] = membrane.lineage
                record_attrs["erased"] = membrane.erased
            if membrane.lineage:
                with self._index_lock:
                    self._lineage_index.setdefault(membrane.lineage, set()).add(uid)
            self._journal_op("membrane_update", uid)
        except BaseException:
            # The inode holds whichever state the failure left: drop
            # both cached states so the next read takes it from there.
            self._membrane_json_cache.invalidate(uid)
            self._membrane_cache.invalidate(uid)
            raise
        # Write-through, after the commit.
        self._membrane_json_cache.put(uid, encoded)
        if self.cache_config.membrane_object_cache:
            self._membrane_cache.put(uid, membrane)
        else:
            self._membrane_cache.invalidate(uid)
        # Chain entry lands after the journal commit: revocation and
        # RTBF become visible to every snapshot begun from here on.
        self.mvcc.stamp_membrane(uid, old_json, encoded)
        self._notify_mutation(
            "membrane_update",
            {
                "uid": uid,
                "subject_id": membrane.subject_id,
                "membrane_json": encoded,
            },
        )

    def add_mutation_observer(
        self, observer: Callable[[str, Dict[str, object]], None]
    ) -> None:
        """Subscribe to committed mutations: DBFS's one post-commit hook.

        ``observer(op, payload)`` fires after each mutating operation's
        journal transaction commits — ops: ``store``, ``update``,
        ``delete``, ``membrane_update``, ``create_type``,
        ``evolve_type``, ``create_index`` — with a payload sufficient
        to replay the operation verbatim on a follower node.  Two
        subscribers read it:

        * ``repro.cluster``'s capture tap ships every op to the
          followers.  Payloads for ``store`` carry the plaintext record
          only in flight; the cluster's shipping log redacts them the
          moment an erasure for the same uid is captured.
        * :class:`~repro.obs.monitors.ExpiryDaemon` keeps its timer
          wheel in step: ``store`` and ``membrane_update`` reschedule
          the uid from the payload's ``membrane_json``, ``delete``
          cancels it.

        A delete's own erased-membrane write is not reported; the
        ``delete`` op that follows it stands for both.  An erasure that
        :meth:`remount` completes is reported the same way.
        """
        self.mutation_observers.append(observer)

    def remove_mutation_observer(
        self, observer: Callable[[str, Dict[str, object]], None]
    ) -> None:
        """Unsubscribe (failover demotes a leader by dropping its tap)."""
        try:
            self.mutation_observers.remove(observer)
        except ValueError:
            pass

    def _notify_mutation(self, op: str, payload: Dict[str, object]) -> None:
        if self._suppress_mutation_notify:
            return
        for observer in self.mutation_observers:
            observer(op, payload)

    def lineage_members(self, lineage: str) -> List[str]:
        """Member uids of one copy-lineage group (indexed lookup)."""
        with self._index_lock:
            return sorted(self._lineage_index.get(lineage, set()))

    # ------------------------------------------------------------------
    # Data phase (ded_load_data)
    # ------------------------------------------------------------------

    def fetch_records(
        self,
        query: DataQuery,
        credential: AccessCredential,
        snapshot: Optional[Snapshot] = None,
    ) -> Dict[str, Dict[str, object]]:
        """Fetch records for filtered refs, projected to allowed fields.

        When a per-uid allowed-field set is present, v2-encoded rows
        are *partially* decoded: only the allowed ordinals are read via
        the row's offset table, and the separate sensitive inode is not
        even loaded unless a sensitive field is allowed.  Predicates
        evaluate against the projected record (so a predicate on a
        field consent does not allow never matches — unchanged
        semantics, cheaper decode).
        """
        self._require_ded(credential, "fetch_records")
        with self.telemetry.op(
            "dbfs.fetch_records", count=len(query.uids)
        ) as span:
            self.stats.data_queries += 1
            partial_before = self.stats.partial_decodes
            full_before = self.stats.full_decodes
            results: Dict[str, Dict[str, object]] = {}
            with self.telemetry.span("dbfs.decode", rows=len(query.uids)) as decode_span:
                for uid in query.uids:
                    if snapshot is not None and not self.mvcc.visible(
                        uid, snapshot.version
                    ):
                        continue
                    membrane = self._load_membrane(uid)
                    if membrane.erased:
                        if snapshot is not None:
                            # Erased after the snapshot's uids were
                            # computed: the payload is physically gone
                            # (erasure is stricter than MVCC) — skip
                            # rather than fail the whole read.
                            continue
                        raise errors.ExpiredPDError(
                            f"PD {uid!r} has been erased; its data is not retrievable"
                        )
                    allowed = query.allowed_fields_for(uid)
                    try:
                        if allowed is not None:
                            record = self._load_record_fields(uid, allowed)
                        else:
                            record = self._load_record_raw(uid)
                    except errors.ExpiredPDError:
                        if snapshot is not None:
                            continue  # erased by a concurrent writer
                        raise
                    if not query.matches(record):
                        continue
                    results[uid] = record
                decode_span.set_attrs(
                    partial_decodes=self.stats.partial_decodes - partial_before,
                    full_decodes=self.stats.full_decodes - full_before,
                )
            span.set_attr("matched", len(results))
            return results

    def _load_record_raw(self, uid: str) -> Dict[str, object]:
        """The full merged record (public + sensitive), cache-backed."""
        cached = self._record_cache.get(uid)
        if cached is not MISSING:
            return dict(cached)  # type: ignore[call-overload]
        inode_no = self._record_index.get(uid)
        if inode_no is None:
            raise errors.UnknownRecordError(f"no PD with uid {uid!r}")
        inode = self.inodes.get(inode_no)
        codec = self._codec_of(inode.attrs["pd_type"])
        raw = self.inodes.read_payload_view(inode_no)
        if not len(raw):
            # A live record always has a non-empty payload; an empty
            # one means an erase's scrub half has run (its membrane
            # mark may still be in flight on another thread).
            raise errors.ExpiredPDError(
                f"PD {uid!r} has been erased; its data is not retrievable"
            )
        record = codec.decode(raw)
        sensitive_no = inode.attrs.get("sensitive_inode")
        if sensitive_no is not None:
            record.update(
                codec.decode(self.inodes.read_payload_view(sensitive_no))
            )
        self.stats.full_decodes += 1
        self._record_cache.put(uid, dict(record))
        return record

    def _load_record_fields(
        self, uid: str, fields: Iterable[str]
    ) -> Dict[str, object]:
        """Project a record to ``fields``, decoding only those.

        The record cache is consulted first (a cached record is already
        decoded, projection is free); a miss decodes just the wanted
        ordinals through the row's offset table and skips the
        sensitive inode entirely when no sensitive field is wanted.
        Partial results are never inserted into the record cache — it
        holds full merged records only.
        """
        wanted = set(fields)
        cached = self._record_cache.get(uid)
        if cached is not MISSING:
            return {
                k: v for k, v in cached.items() if k in wanted  # type: ignore[union-attr]
            }
        inode_no = self._record_index.get(uid)
        if inode_no is None:
            raise errors.UnknownRecordError(f"no PD with uid {uid!r}")
        inode = self.inodes.get(inode_no)
        type_name = inode.attrs["pd_type"]
        codec = self._codec_of(type_name)
        raw = self.inodes.read_payload_view(inode_no)
        if not len(raw):
            raise errors.ExpiredPDError(
                f"PD {uid!r} has been erased; its data is not retrievable"
            )
        record = codec.decode_fields(raw, wanted)
        sensitive_no = inode.attrs.get("sensitive_inode")
        if sensitive_no is not None:
            fmt = self._format_of(type_name)
            if wanted.intersection(fmt["sensitive_fields"]):
                record.update(
                    codec.decode_fields(
                        self.inodes.read_payload_view(sensitive_no), wanted
                    )
                )
        self.stats.partial_decodes += 1
        self.stats.fields_decoded += len(record)
        return record

    # ------------------------------------------------------------------
    # Update / delete (built-in F_pd^w requests)
    # ------------------------------------------------------------------

    def update(self, request: UpdateRequest, credential: AccessCredential) -> None:
        """Rewrite changed fields; old values are scrubbed, not leaked."""
        with self.telemetry.op("dbfs.update", uid=request.uid):
            self._update_impl(request, credential)

    @_locked_writer
    def _update_impl(
        self, request: UpdateRequest, credential: AccessCredential
    ) -> None:
        self._require_ded(credential, "update")
        membrane = self._load_membrane(request.uid)
        if membrane.erased:
            raise errors.ErasureError(f"cannot update erased PD {request.uid!r}")
        pd_type = self.get_type(membrane.pd_type)
        old_record = self._load_record_raw(request.uid)
        record = dict(old_record)
        record.update(request.changes)
        # Validate before any mutation: a rejected update must leave
        # indexes and row extents exactly as they were.
        pd_type.validate(record)

        # WAL, intent-before-apply: index page writes and the row
        # rewrites below all mutate durable state, so the
        # "update:<uid>" intent lands first.  A crash mid-apply leaves
        # the intent uncommitted and recovery re-derives the uid's
        # index entries from whichever row state survived the cut.
        self.journal.begin()
        self.journal.log_op("update", request.uid)
        try:
            self._unindex_record(pd_type.name, request.uid, old_record)
            self._index_record(pd_type.name, request.uid, record)

            fmt = self._format_of(pd_type.name)
            inode_no = self._record_index[request.uid]
            inode = self.inodes.get(inode_no)
            public = {
                k: v for k, v in record.items() if k in fmt["public_fields"]
            }
            sensitive = {
                k: v for k, v in record.items() if k in fmt["sensitive_fields"]
            }
            self.inodes.rewrite_scrubbed(
                inode_no, self._encode_payload(pd_type.name, public)
            )
            sensitive_no = inode.attrs.get("sensitive_inode")
            if sensitive_no is not None:
                self.inodes.rewrite_scrubbed(
                    sensitive_no, self._encode_payload(pd_type.name, sensitive)
                )
            elif sensitive:
                sensitive_inode = self.inodes.allocate(KIND_RECORD)
                self.inodes.write_payload(
                    sensitive_inode.number,
                    self._encode_payload(pd_type.name, sensitive),
                )
                sensitive_inode.attrs["sensitive"] = True
                inode.attrs["sensitive_inode"] = sensitive_inode.number
            # Write-through: the cache holds the post-update record,
            # never the pre-update one.
            self._record_cache.put(request.uid, dict(record))
        except BaseException:
            if not self.journal.in_batch:
                self.journal.abort()
            raise
        self.stats.updates += 1
        self.journal.commit()
        self.mvcc.commit()
        self._notify_mutation(
            "update",
            {
                "uid": request.uid,
                "subject_id": membrane.subject_id,
                "changes": dict(request.changes),
            },
        )

    def delete(self, request: DeleteRequest, credential: AccessCredential) -> Membrane:
        """Erase one PD record (right to be forgotten).

        ``erase`` mode scrubs and removes everything.  ``escrow`` mode
        (the § 4 construction) encrypts the full record under the
        authority public key, stores the ciphertext in place of the
        data, scrubs the plaintext blocks, and marks the membrane
        erased.  Either way the operator can no longer read the PD.
        Returns the final membrane state.
        """
        with self.telemetry.op(
            "dbfs.delete", uid=request.uid, mode=request.mode
        ):
            return self._delete_impl(request, credential)

    @_locked_writer
    def _delete_impl(
        self, request: DeleteRequest, credential: AccessCredential
    ) -> Membrane:
        self._require_ded(credential, "delete")
        membrane = self._load_membrane(request.uid)
        if membrane.erased:
            raise errors.ErasureError(f"PD {request.uid!r} is already erased")
        record = self._load_record_raw(request.uid)
        inode = self.inodes.get(self._record_index[request.uid])

        op = "delete"
        if request.mode == "escrow":
            if self._operator_key is None:
                raise errors.ErasureError(
                    "escrow deletion requires an authority-issued operator key"
                )
            blob = self._operator_key.escrow_encrypt(encode_record_v1(record))
            # Stage the ciphertext on *fresh* blocks before the intent
            # commits.  Staging destroys nothing: a crash here leaves
            # the plaintext record fully intact and the uncommitted
            # intent simply discards the staging at remount.  The
            # envelope (wrapped key, nonce, MAC) rides along so the
            # blob survives the crash too.
            inode.attrs["escrow_staging"] = {
                "blocks": store_bytes(self.device, blob.ciphertext),
                "size": len(blob.ciphertext),
                "envelope": {
                    "wrapped_key": blob.wrapped_key,
                    "nonce": blob.nonce.hex(),
                    "tag": blob.tag.hex(),
                    "key_fingerprint": blob.key_fingerprint,
                },
            }
            op = "delete-escrow"

        # WAL, commit-before-apply: re-running a committed erase is
        # safe (the apply below is idempotent), whereas rolling back a
        # half-scrubbed one is impossible.  Checkpoints are held across
        # commit+scrub so the auto-checkpoint policy cannot truncate
        # the intent away while the destructive half is in flight; the
        # closing membrane_update record lands *after* the hold, so a
        # policy-triggered checkpoint never erases the last trace of
        # the erasure from the log.  (Recovery does not depend on the
        # intent surviving either way: a scrubbed-but-unmarked record
        # is detectable from tree state alone — see _crash_recover.)
        with self.journal.hold_checkpoints():
            self._journal_op(op, request.uid)
            # Index entries are PD values too; dropping them rewrites
            # durable pages (scrubbing the old extents).  This runs
            # *after* the intent so a crash mid-unindex rolls forward:
            # recovery redoes the whole erase, index sweep included —
            # entries are destroyed, never resurrected.
            self._unindex_record(membrane.pd_type, request.uid, record)
            self._scrub_record(request.uid, request.mode)
        membrane = self._finish_erase(request.uid, request.mode, credential)
        self.stats.deletes += 1
        return membrane

    def _scrub_record(self, uid: str, mode: str) -> None:
        """Destructive half of an erase intent — idempotent by design.

        Runs after the intent commits (live path) and again from crash
        recovery (redo) when a committed or already-started erase did
        not finish.  Every sub-step checks before it mutates, so
        re-application converges on the same final state: ciphertext
        (or empty extent) in place, plaintext scrubbed, sensitive
        inode gone.
        """
        inode_no = self._record_index[uid]
        inode = self.inodes.get(inode_no)

        if mode == "escrow":
            staging = inode.attrs.pop("escrow_staging", None)
            if staging is not None:
                # Swap the staged ciphertext in, then scrub the
                # plaintext extent (shadow-write ordering: a crash
                # mid-swap leaves either plaintext or ciphertext
                # referenced, never a torn extent; unreferenced
                # leftovers are caught by the orphan-block sweep).
                old_blocks = inode.blocks
                inode.blocks = list(staging["blocks"])
                inode.size = staging["size"]
                inode.attrs["escrowed"] = True
                inode.attrs["escrow_envelope"] = staging["envelope"]
                for block_no in old_blocks:
                    self.device.scrub(block_no)
                    self.device.free(block_no)
            if uid not in self._escrow_blobs:
                self._load_escrow_blob(uid, inode_no)
        elif inode.size:
            # A live record always has a non-empty payload (at minimum
            # "{}"), so size == 0 means the swap already happened.
            self.inodes.rewrite_scrubbed(inode_no, b"")

        sensitive_no = inode.attrs.pop("sensitive_inode", None)
        if sensitive_no is not None and self.inodes.exists(sensitive_no):
            self.inodes.free(sensitive_no, scrub=True)

        # Erasure must reach the caches too: a cached copy of the
        # record is exactly the § 1 lower-layer leak, one level up.
        self._record_cache.invalidate(uid)

    def _finish_erase(
        self, uid: str, mode: str, credential: AccessCredential
    ) -> Membrane:
        """Mark the membrane erased, persist it, and report the erasure
        to mutation observers as one ``delete`` op (idempotent)."""
        membrane = self._load_membrane(uid)
        with self._index_lock:
            self._listing_cache.pop(membrane.pd_type, None)
        if membrane.erased:
            return membrane
        self._suppress_mutation_notify = True
        try:
            self.change_membrane(
                uid, lambda m: m.mark_erased(at=m.created_at), credential
            )
        finally:
            self._suppress_mutation_notify = False
        self._notify_mutation(
            "delete",
            {"uid": uid, "subject_id": membrane.subject_id, "mode": mode},
        )
        return self._load_membrane(uid)

    def _apply_erase(
        self, uid: str, mode: str, credential: AccessCredential
    ) -> Membrane:
        """Redo a whole erase (index sweep + scrub + membrane mark)
        during recovery.  The uid sweep replaces the live path's exact
        unindex — the record's values may already be scrubbed, so each
        durable index drops the uid from its own pages instead."""
        self._unindex_uid(uid)
        self._scrub_record(uid, mode)
        return self._finish_erase(uid, mode, credential)

    def _load_escrow_blob(self, uid: str, record_no: int) -> None:
        """Index the escrow blob an escrowed record inode carries."""
        envelope = self.inodes.get(record_no).attrs.get("escrow_envelope")
        if envelope is not None:
            self._escrow_blobs[uid] = EscrowBlob(
                wrapped_key=envelope["wrapped_key"],
                nonce=bytes.fromhex(envelope["nonce"]),
                ciphertext=self.inodes.read_payload(record_no),
                tag=bytes.fromhex(envelope["tag"]),
                key_fingerprint=envelope["key_fingerprint"],
            )

    def escrow_blob(self, uid: str) -> EscrowBlob:
        """The escrow ciphertext for an erased record (for authorities)."""
        blob = self._escrow_blobs.get(uid)
        if blob is None:
            raise errors.UnknownRecordError(
                f"no escrow blob for uid {uid!r} (not escrow-deleted?)"
            )
        return blob

    # ------------------------------------------------------------------
    # Subject-level operations (right of access / portability)
    # ------------------------------------------------------------------

    def list_subjects(self) -> List[str]:
        with self._index_lock:
            return sorted(self._subjects_root.children)

    def uids_of_subject(self, subject_id: str) -> List[str]:
        with self._index_lock:
            subject = self._subject_inode(subject_id, create=False)
            if subject is None:
                return []
            return sorted(subject.children)

    def export_subject(
        self,
        subject_id: str,
        credential: AccessCredential,
        snapshot: Optional[Snapshot] = None,
    ) -> Dict[str, object]:
        """Structured, machine-readable dump of one subject's PD.

        This is the § 4 right-of-access export: field names are the
        *meaningful* schema keys ("the keys make sense"), each record
        travels with its membrane, and the schema itself is included.
        With a ``snapshot`` the export is a consistent point-in-time
        view: records stored after the snapshot began are absent and
        membranes carry their as-of consent state (erasure excepted —
        data scrubbed mid-export stays gone).
        """
        with self.telemetry.op(
            "dbfs.export_subject", subject_id=subject_id
        ) as span:
            export = self._export_subject_impl(subject_id, credential, snapshot)
            span.set_attr("records", len(export["records"]))
            return export

    def _export_subject_impl(
        self,
        subject_id: str,
        credential: AccessCredential,
        snapshot: Optional[Snapshot] = None,
    ) -> Dict[str, object]:
        self._require_ded(credential, "export_subject")
        records = []
        for uid in self.uids_of_subject(subject_id):
            if snapshot is not None and not self.mvcc.visible(
                uid, snapshot.version
            ):
                continue
            membrane = self._load_membrane(uid, snapshot)
            live_erased = (
                membrane.erased if snapshot is None
                else self._load_membrane(uid).erased
            )
            entry: Dict[str, object] = {
                "uid": uid,
                "pd_type": membrane.pd_type,
                "membrane": membrane.to_dict(),
            }
            if live_erased:
                entry["data"] = None
                entry["erased"] = True
            else:
                try:
                    entry["data"] = self._load_record_raw(uid)
                except errors.ExpiredPDError:
                    if snapshot is None:
                        raise
                    entry["data"] = None
                    entry["erased"] = True
            records.append(entry)
        used_types = sorted({r["pd_type"] for r in records})
        return {
            "subject_id": subject_id,
            "schemas": {
                name: self.get_type(name).describe() for name in used_types
            },
            "records": records,
        }

    def _subject_inode(self, subject_id: str, create: bool) -> Optional[Inode]:
        child_no = self._subjects_root.children.get(subject_id)
        if child_no is not None:
            return self.inodes.get(child_no)
        if not create:
            return None
        subject = self.inodes.allocate(KIND_SUBJECT)
        subject.attrs["subject_id"] = subject_id
        self.inodes.link_child(
            self._subjects_root.number, subject_id, subject.number
        )
        return subject

    # ------------------------------------------------------------------
    # Maintenance & forensics
    # ------------------------------------------------------------------

    def all_uids(self) -> List[str]:
        with self._index_lock:
            return sorted(self._record_index)

    def iter_membranes(
        self,
        credential: AccessCredential,
        snapshot: Optional[Snapshot] = None,
    ) -> List[Tuple[str, Membrane]]:
        """Every (uid, membrane) pair — used by the TTL sweeper."""
        self._require_ded(credential, "iter_membranes")
        return [
            (uid, self._load_membrane(uid, snapshot))
            for uid in self.all_uids()
            if snapshot is None or self.mvcc.visible(uid, snapshot.version)
        ]

    def forensic_scan(self, needle: bytes) -> Dict[str, int]:
        """Residues of ``needle`` in the DBFS storage stack.

        Mirrors :meth:`repro.storage.extfs.FileBasedFS.forensic_scan`
        so the RTBF experiment compares like for like.
        """
        return {
            "device_blocks": len(self.device.scan(needle)),
            "journal_records": len(
                [r for r in self.journal.records() if needle in r.payload]
            ),
        }

    def record_inode(self, uid: str) -> Inode:
        """The record's primary inode (compliance/auditor accessor)."""
        inode_no = self._record_index.get(uid)
        if inode_no is None:
            raise errors.UnknownRecordError(f"no PD with uid {uid!r}")
        return self.inodes.get(inode_no)

    def record_size(self, uid: str) -> int:
        """On-disk payload size of the record's primary inode."""
        return self.record_inode(uid).size

    def live_record_blocks(self) -> set:
        """Block extents of every live (non-erased) record and its
        sensitive sibling — the legitimate homes for PD bytes, which a
        residue scan must not count as leaks."""
        blocks: set = set()
        for uid in self.all_uids():
            if self._load_membrane(uid).erased:
                continue
            inode = self.inodes.get(self._record_index[uid])
            blocks.update(inode.blocks)
            sensitive_no = inode.attrs.get("sensitive_inode")
            if sensitive_no is not None:
                blocks.update(self.inodes.get(sensitive_no).blocks)
        return blocks

    def residue_counts(
        self,
        needles: Sequence[bytes],
        subject_id: Optional[str] = None,
        uids: Sequence[str] = (),
    ) -> Dict[str, int]:
        """Post-erasure residue of ``needles`` outside live records.

        Returns ``{"device_blocks": n, "journal_records": m}``.  Blocks
        belonging to live records are excluded — other subjects may
        legitimately store the same value (a shared city name, say).
        So are durable-index pages, which list live subjects' values;
        they are searched for the erased ``uids`` instead, quoted as
        the page JSON stores them.  ``subject_id`` is the erased
        subject; a single DBFS ignores it, but the sharded store uses
        it to scan only the owning shard's device and journal (the
        subject's plaintext never existed anywhere else — that
        locality is the point of lineage-affine placement).
        """
        legit_blocks = self.live_record_blocks()
        with self._index_lock:
            indexes = list(self._field_indexes.values())
        index_blocks = {
            block_no
            for index in indexes
            for inode in self.inodes.walk(index.root_no)
            for block_no in inode.blocks
        }
        legit_blocks |= index_blocks
        device_blocks = 0
        journal_records = 0
        for needle in needles:
            device_blocks += sum(
                1
                for block_no in self.device.scan(needle)
                if block_no not in legit_blocks
            )
            journal_records += len(
                [r for r in self.journal.records() if needle in r.payload]
            )
        for uid in uids if index_blocks else ():
            device_blocks += sum(
                1
                for block_no in self.device.scan(json.dumps(uid).encode())
                if block_no in index_blocks
            )
        return {
            "device_blocks": device_blocks,
            "journal_records": journal_records,
        }

    def owned_blocks(self) -> set:
        """Every block an owner references: the journal extent, each
        inode's extent, and escrow staging extents.

        DBFS's one continuous residue rule: a non-empty block outside
        this set is residue, whatever it holds.  The orphan sweep, the
        scrubber (:meth:`unowned_blocks`) and CrashSim all use it.  It
        cannot see a stale value inside an owned block; the erase-time
        :meth:`residue_counts` covers that case.
        """
        owned = set(self.journal.extent)
        for number in self.inodes.numbers():
            try:
                inode = self.inodes.get(number)
            except errors.InodeError:
                continue  # freed since the listing: it owns nothing
            owned.update(inode.blocks)
            staging = inode.attrs.get("escrow_staging")
            if staging:
                owned.update(staging["blocks"])
        return owned

    def unowned_blocks(self, start: int, stop: int) -> List[int]:
        """Non-empty blocks in ``[start, stop)`` no owner references.

        The window the residue scrubber sweeps.  A store writes its
        extent before its inode points at it, so a candidate counts
        only if it is still non-empty and unowned when re-checked
        under the write lock: a store in flight is never reported.
        """
        candidates = self.device.nonempty_blocks(start, stop)
        if candidates:
            owned = self.owned_blocks()
            candidates = [b for b in candidates if b not in owned]
        if not candidates:
            return []
        with self._write_lock:
            owned = self.owned_blocks()
            nonempty = set(self.device.nonempty_blocks(start, stop))
            return [
                b for b in candidates if b in nonempty and b not in owned
            ]

    # ------------------------------------------------------------------
    # Shard topology (trivial on a single DBFS)
    # ------------------------------------------------------------------
    #
    # A plain DatabaseFS presents itself as a one-shard store so code
    # written against ShardedDBFS (rights batching, benchmarks, CLI
    # reporting) runs unchanged against the seed layout.

    def begin_snapshot(self) -> Snapshot:
        """Open a consistent read point (MVCC snapshot).

        Readers pass the returned handle to ``query_membranes`` /
        ``select_uids*`` / ``fetch_records`` / ``export_subject``:
        they then see exactly the records and consent states committed
        when the snapshot began, without ever blocking writers.  Use
        as a context manager (or call :meth:`Snapshot.release`) so the
        MVCC bookkeeping can prune.
        """
        return Snapshot(self.mvcc, self.mvcc.begin_snapshot())

    def mvcc_stats(self) -> Dict[str, object]:
        """Observable MVCC state (commit version, snapshots, chains)."""
        return self.mvcc.as_dict()

    def write_lock(self, uid: str) -> "threading.RLock":
        """The single-writer lock covering ``uid``.

        Callers doing a read-modify-write (get a membrane, mutate it,
        put it back) hold this across the whole sequence so two
        concurrent mutators cannot interleave and lose an update.
        Reentrant: the mutators called under it take it again.
        """
        return self._write_lock

    @property
    def shard_count(self) -> int:
        return 1

    @property
    def shards(self) -> List["DatabaseFS"]:
        return [self]

    def shard_index_for_subject(self, subject_id: str) -> int:
        return 0

    def shard_for_subject(self, subject_id: str) -> "DatabaseFS":
        return self

    def shard_for_uid(self, uid: str) -> "DatabaseFS":
        return self

    def subjects_by_shard(
        self, subject_ids: Sequence[str]
    ) -> Dict[int, List[str]]:
        return {0: list(subject_ids)}

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard occupancy/journal summary (one entry here)."""
        journal = self.journal.stats
        return [
            {
                "shard": 0,
                "subjects": len(self._subjects_root.children),
                "records": len(self._record_index),
                "device_blocks_used": self.device.used_blocks,
                "journal_blocks_in_use": self.journal.blocks_in_use,
                "journal_records": len(self.journal),
                "journal_checkpoints": journal.checkpoints,
            }
        ]

    def _journal_op(self, op: str, target: str) -> None:
        """Metadata-only journaling: operation + uid, never payloads."""
        self.journal.begin()
        self.journal.log_delete(f"{op}:{target}")
        self.journal.commit()

    # ------------------------------------------------------------------
    # Cache observability
    # ------------------------------------------------------------------

    def cache_stats(self) -> Dict[str, Dict[str, object]]:
        """Size/hit-rate report for every fast-path cache in the stack.

        Documented in ``docs/API.md`` ("Performance & caching"); the
        FASTPATH benchmark records this alongside its timings.
        """
        listing_lookups = (
            self.stats.listing_cache_hits + self.stats.listing_cache_misses
        )
        membrane_lookups = (
            self.stats.membrane_cache_hits + self.stats.membrane_cache_misses
        )
        journal = self.journal.stats
        return {
            "page_cache": self.device.cache_stats(),
            "record_cache": self._record_cache.as_dict(),
            "listing_cache": {
                "name": "listing-cache",
                "enabled": self.cache_config.listing_cache,
                "size": len(self._listing_cache),
                "hits": self.stats.listing_cache_hits,
                "misses": self.stats.listing_cache_misses,
                "hit_rate": round(
                    self.stats.listing_cache_hits / listing_lookups, 4
                ) if listing_lookups else 0.0,
            },
            "membrane_cache": {
                "name": "membrane-cache",
                "enabled": self.cache_config.membrane_object_cache,
                "size": len(self._membrane_cache),
                "hits": self.stats.membrane_cache_hits,
                "misses": self.stats.membrane_cache_misses,
                "hit_rate": round(
                    self.stats.membrane_cache_hits / membrane_lookups, 4
                ) if membrane_lookups else 0.0,
                "capacity": self.cache_config.membrane_cache_entries,
                "json_entries": len(self._membrane_json_cache),
                "evictions": (
                    self._membrane_cache.stats.evictions
                    + self._membrane_json_cache.stats.evictions
                ),
            },
            "journal": {
                "name": "journal-group-commit",
                "appends": journal.appends,
                "commits": journal.commits,
                "flushes": journal.flushes,
                "group_commits": journal.group_commits,
                "batched_ops": journal.batched_ops,
            },
        }

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    @_locked_writer
    def remount(self) -> Dict[str, int]:
        """Reboot in place: drop the page cache, re-read the journal
        from its extent and run :meth:`_crash_recover` — the recovery
        :meth:`remount_from_device` runs — on the live object.

        On a store whose last operation completed it repairs nothing,
        and a live session observes no behavioural change.  Mutation
        observers stay subscribed; an erasure the recovery completes
        reaches them as a ``delete``.  Returns :attr:`recovery_report`.
        """
        self.device.drop_page_cache()
        self.journal.recover()
        self.recovery_report = self._crash_recover()
        return self.recovery_report

    @classmethod
    def remount_from_device(
        cls,
        device: BlockDevice,
        inodes: InodeTable,
        operator_key: Optional[OperatorKey] = None,
        cache_config: Optional[CacheConfig] = None,
        journal_config: Optional[JournalConfig] = None,
        telemetry: Optional[Telemetry] = None,
        bloom_filters: bool = True,
    ) -> "DatabaseFS":
        """True-crash remount: a fresh DBFS over surviving state only.

        Nothing from the pre-crash ``DatabaseFS`` object is consulted.
        The durable planes are the device bytes and the inode table
        (DBFS's metadata plane, modelled as synchronously durable —
        the analogue of uFS running its inode layer in the trusted
        server process).  In order:

        1. drop the page cache (a post-crash cache could serve bytes
           whose last write the power cut discarded);
        2. locate the four root trees by their ``role`` attrs (a
           volume missing any of them is not a DBFS volume) and
           rebuild the journal from its reserved extent alone
           (:meth:`Journal.remount` — a fresh object, device bytes
           only);
        3. run :meth:`_crash_recover`, the recovery :meth:`remount`
           runs in place.

        The reconciliation report lands in :attr:`recovery_report`.
        """
        fs = cls.__new__(cls)
        fs._configure(device, operator_key, cache_config, telemetry,
                      bloom_filters)
        device.drop_page_cache()
        fs.inodes = inodes

        roots: Dict[str, Inode] = {}
        for number in inodes.numbers():
            role = inodes.get(number).attrs.get("role")
            if isinstance(role, str):
                roots[role] = inodes.get(number)
        missing = {
            "subjects-root", "schema-root", "formats-root", "indexes-root",
        } - set(roots)
        if missing:
            raise errors.DBFSError(
                f"remount: no {sorted(missing)[0]} inode found — "
                "not a DBFS volume"
            )
        fs._subjects_root = roots["subjects-root"]
        fs._schema_root = roots["schema-root"]
        fs._formats_root = roots["formats-root"]
        fs._indexes_root = roots["indexes-root"]

        extent = fs._subjects_root.attrs.get("journal_extent")
        if not extent:
            raise errors.DBFSError(
                "remount: volume records no journal extent"
            )
        fs.journal = Journal.remount(
            device, list(extent), config=journal_config, telemetry=fs.telemetry
        )

        fs._init_session()
        fs.recovery_report = fs._crash_recover()
        return fs

    def _crash_recover(self, rollback: Sequence[str] = ()) -> Dict[str, int]:
        """Rebuild every derived structure from the durable trees and
        reconcile half-applied operations against the journal.

        The one recovery routine: :meth:`remount` runs it in place,
        :meth:`remount_from_device` on a fresh object, both after the
        journal itself has recovered (torn tail truncated, counters
        restored) and before the store serves any request.  Uncommitted
        store intents roll *back* (the half-born record is unlinked),
        committed or already-started erase intents roll *forward*
        (erasing more, never resurrecting PD — the RTBF-safe
        direction), untouched uncommitted erases keep their record
        intact; then every unreachable inode and orphaned block is
        scrubbed so no PD residue survives in debris the trees no
        longer reference.  ``rollback`` names committed stores to
        unwind as well (:meth:`rollback_stores`).  Returns the report.
        """
        start_ns = time.perf_counter_ns()
        self._init_volatile()
        # Intent records:
        # ("store" | "update" | "erase" | "escrow", uid, committed).
        all_records = list(self.journal.records())
        committed_txns = {
            r.txn_id for r in all_records if r.record_type == TXN_COMMIT
        }
        intents: List[Tuple[str, str, bool]] = []
        compact_repairs: List[Tuple[str, str]] = []
        for record in all_records:
            if record.record_type != TXN_DELETE:
                continue
            committed = record.txn_id in committed_txns
            target = record.target
            if target.startswith("store:"):
                intents.append(("store", target[len("store:"):], committed))
            elif target.startswith("update:"):
                intents.append(("update", target[len("update:"):], committed))
            elif target.startswith("delete-escrow:"):
                intents.append(
                    ("escrow", target[len("delete-escrow:"):], committed)
                )
            elif target.startswith("delete:"):
                intents.append(("erase", target[len("delete:"):], committed))
            elif target.startswith("compact-index:") and not committed:
                # A power cut mid-repack: the root still carries its
                # ``complete`` marker, but the pages underneath may be
                # half-rewritten.  The only safe answer is a rebuild.
                name = target[len("compact-index:"):]
                type_name, _, field_name = name.partition(".")
                if field_name:
                    compact_repairs.append((type_name, field_name))

        # 1. Roll back half-born records before touching the trees:
        # an uncommitted store may have linked a record that lacks its
        # membrane, which the rebuild below would (rightly) reject.
        undone = [
            uid for op, uid, committed in intents
            if op == "store" and not committed
        ] + list(rollback)
        rolled_back = sum(self._rollback_store(uid) for uid in undone)

        # 1b. Bind the durable field indexes before the O(records)
        # tree rebuild — attach is pure inode metadata (O(#indexes),
        # no page reads, no dependence on tree state), which is what
        # keeps remount cost flat in table size; the erase redo below
        # needs them live so its uid sweep reaches the pages.
        # Backfills for missing/incomplete roots are deferred until
        # erasure reconciliation marked every erased membrane.
        attach_start = time.perf_counter_ns()
        attached, pending_backfills = self._attach_field_indexes()
        self._hist_index_attach.observe(
            time.perf_counter_ns() - attach_start
        )
        # An uncommitted compact-index intent demotes its (possibly
        # torn) attached root to a pending rebuild; an index the attach
        # already queued, or whose declaration is gone, needs nothing.
        for key in compact_repairs:
            if key in pending_backfills:
                continue
            with self._index_lock:
                present = self._field_indexes.pop(key, None)
            if present is not None:
                attached -= 1
                pending_backfills.append(key)

        counts = self._rebuild_trees()

        # 2. Erase reconciliation.  Two sources of truth compose:
        # *tree state* — a scrubbed-but-unmarked record is detectable
        # on its own (needed because a policy checkpoint may lawfully
        # truncate an erase intent once its scrub is done) — and the
        # *journal intents* — a committed erase whose destruction
        # never started looks fully live, and only the intent reveals
        # the promise.  Started erasures always roll forward, even
        # uncommitted ones (possible for group-committed bulk
        # erasures): completing an erasure is GDPR-safe, resurrecting
        # scrubbed PD never is.  Untouched uncommitted escrow intents
        # just discard their staged ciphertext.
        committed_erases: Dict[str, str] = {}
        for op, uid, committed in intents:
            if op in ("erase", "escrow") and committed:
                committed_erases[uid] = "escrow" if op == "escrow" else "erase"
        ded = AccessCredential(holder="crash-recovery", is_ded=True)
        redone = 0
        for uid in list(self._record_index):
            inode = self.inodes.get(self._record_index[uid])
            has_envelope = "escrow_envelope" in inode.attrs
            has_staging = "escrow_staging" in inode.attrs
            membrane = self._load_membrane(uid)
            if membrane.erased:
                # Fully erased already — just complete any lingering
                # half-scrubbed state (staging, sensitive inode).
                if has_staging or "sensitive_inode" in inode.attrs:
                    self._scrub_record(
                        uid,
                        "escrow" if (has_envelope or has_staging) else "erase",
                    )
                    redone += 1
                continue
            if has_envelope:
                self._apply_erase(uid, "escrow", ded)
                redone += 1
            elif inode.size == 0:
                self._apply_erase(uid, "erase", ded)
                redone += 1
            elif uid in committed_erases:
                self._apply_erase(uid, committed_erases[uid], ded)
                redone += 1
            elif has_staging:
                inode.attrs.pop("escrow_staging", None)

        # 3. Index reconciliation.  Uncommitted intents may have torn
        # durable page writes mid-flight: a rolled-back store leaves
        # its entries behind, an interrupted update or (group-batched)
        # erase leaves a live record partially unindexed.  Every such
        # uid gets a page sweep; live records are then re-indexed from
        # their surviving row state, so the durable index converges on
        # exactly the live trees.
        repaired = 0
        repair_uids = sorted({
            uid for op, uid, committed in intents if not committed
        } | set(rollback))
        for uid in repair_uids:
            self._unindex_uid(uid)
            record_no = self._record_index.get(uid)
            if record_no is None:
                continue  # rolled back (or later erased): entries stay gone
            inode = self.inodes.get(record_no)
            if inode.attrs["erased"] or inode.size == 0:
                continue
            try:
                record = self._load_record_raw(uid)
            except errors.ExpiredPDError:
                continue
            type_name = inode.attrs.get("pd_type")
            if isinstance(type_name, str):
                self._index_record(type_name, uid, record)
                repaired += 1

        # 4. Deferred backfills only now: erased membranes are all
        # marked, so a rebuild never decodes an escrow ciphertext.
        for type_name, field_name in pending_backfills:
            self._backfill_index(type_name, field_name)

        # 5. Residue sweeps: rollbacks and interrupted shadow-writes
        # leave unreachable inodes / unreferenced blocks whose bytes
        # may be PD (index pages included).  Scrub them all.
        orphan_inodes = self._free_unreachable_inodes()
        orphan_blocks = self._scrub_orphan_blocks()

        self._journal_op("remount", f"records={counts['records']}")
        self._hist_remount.observe(time.perf_counter_ns() - start_ns)
        return {
            **counts,
            "field_indexes": attached + len(pending_backfills),
            "lineage_groups": len(self._lineage_index),
            "escrow_blobs": len(self._escrow_blobs),
            "rolled_back_stores": rolled_back,
            "redone_erasures": redone,
            "index_repairs": repaired,
            "orphan_inodes": orphan_inodes,
            "orphan_blocks": orphan_blocks,
            "torn_records": self.journal.stats.torn_records,
        }

    def _rebuild_trees(self) -> Dict[str, int]:
        """Schema + subject trees → type registry and uid indexes."""
        # 1. Schema tree → type registry.
        for type_name, table_no in sorted(self._schema_root.children.items()):
            description = json.loads(
                self.inodes.read_payload(table_no).decode()
            )
            self._types[type_name] = PDType.from_description(description)

        # 2. Subject tree → record/membrane/lineage indexes + escrow +
        # per-table blooms.  One metadata pass: lineage and erasure
        # ride the record inode's attrs (maintained by store and
        # put_membrane), so no membrane payload is read here — that is
        # what keeps this walk cheap at 50k records.
        recovered_records = 0
        bloom_keys: Dict[str, List[str]] = {}
        for subject_id, subject_no in sorted(
            self._subjects_root.children.items()
        ):
            subject = self.inodes.get(subject_no)
            for uid, record_no in sorted(subject.children.items()):
                record_inode = self.inodes.get(record_no)
                membrane_no = record_inode.attrs.get("membrane_inode")
                if membrane_no is None:
                    raise errors.MissingMembraneError(
                        f"remount found record {uid!r} without a membrane"
                    )
                self._record_index[uid] = record_no
                self._membrane_index[uid] = membrane_no
                lineage = record_inode.attrs["lineage"]
                if lineage:
                    self._lineage_index.setdefault(lineage, set()).add(uid)
                self._load_escrow_blob(uid, record_no)
                if self.bloom_filters:
                    type_name = record_inode.attrs.get("pd_type")
                    if isinstance(type_name, str):
                        bloom_keys.setdefault(type_name, []).extend(
                            ("S:" + subject_id, "U:" + uid)
                        )
                recovered_records += 1

        if self.bloom_filters:
            self._rebuild_table_blooms(bloom_keys)

        return {"types": len(self._types), "records": recovered_records}

    def _attach_field_indexes(self) -> Tuple[int, List[Tuple[str, str]]]:
        """Attach every declared, complete durable index root.

        Returns ``(attached, pending)`` where ``pending`` lists declared
        indexes needing a backfill (root missing or its ``complete``
        marker never landed).  Undeclared roots — a crash after the
        root linked but before the declaration committed — are swept:
        the declaration is the source of truth, so an undeclared root
        must not serve lookups and its pages are scrub-freed.
        """
        attached = 0
        pending: List[Tuple[str, str]] = []
        declared_keys = set()
        for type_name, table_no in sorted(self._schema_root.children.items()):
            table = self.inodes.get(table_no)
            for field_name in table.attrs.get("indexes", []):
                key = (type_name, field_name)
                declared_keys.add(key)
                root_no = self._indexes_root.children.get(
                    f"{type_name}.{field_name}"
                )
                if root_no is not None and self.inodes.get(root_no).attrs.get(
                    "complete"
                ):
                    index = DurableFieldIndex.attach(
                        self.inodes, root_no, **self._index_kwargs()
                    )
                    with self._index_lock:
                        self._field_indexes[key] = index
                    attached += 1
                else:
                    pending.append(key)
        for child_name in sorted(self._indexes_root.children):
            child = self.inodes.get(self._indexes_root.children[child_name])
            if child.attrs.get("role") != "field-index":
                continue
            key = (child.attrs.get("type"), child.attrs.get("field"))
            if key not in declared_keys:
                self._drop_index_root(*key)
        return attached, pending

    def _rebuild_table_blooms(
        self, keys_by_type: Dict[str, List[str]]
    ) -> None:
        """Seed per-table blooms from the live tree walk, then union
        any persisted ``<type>.__bloom__`` snapshot whose geometry
        matches.  The tree walk is authoritative (a bloom rebuilt from
        live records alone can never produce a false negative); the
        persisted bits only *widen* the filter, so a stale or torn
        snapshot degrades precision, never correctness.  Snapshots for
        dropped types are scrub-freed.
        """
        for type_name in self._types:
            keys = keys_by_type.get(type_name, [])
            bloom = BloomFilter.sized(max(256, len(keys)))
            for key in keys:
                bloom.add(bloom_key(key))
            self._table_blooms[type_name] = bloom
        for child_name in sorted(self._indexes_root.children):
            child_no = self._indexes_root.children[child_name]
            child = self.inodes.get(child_no)
            if child.attrs.get("role") != "table-bloom":
                continue
            type_name = child.attrs.get("type")
            if type_name not in self._types:
                self.inodes.unlink_child(
                    self._indexes_root.number, child_name
                )
                self.inodes.free(child_no, scrub=True)
                continue
            try:
                persisted = BloomFilter.from_bytes(
                    int(child.attrs["m"]),
                    int(child.attrs["k"]),
                    self.inodes.read_payload(child_no),
                    stale=bool(child.attrs.get("stale", False)),
                )
            except (errors.StorageError, KeyError, ValueError, TypeError):
                continue
            live = self._table_blooms[type_name]
            if persisted.m_bits == live.m_bits and persisted.k == live.k:
                live.union(persisted)

    @_locked_writer
    def flush_accelerators(self) -> int:
        """Persist index pages and table-bloom snapshots to the device.

        Returns how many accelerators were flushed.  Durable index
        pages are already written at mutation time; ``flush`` here
        re-stamps bloom sidecars so a following ``remount_from_device``
        attaches without rebuilding them.
        """
        flushed = 0
        with self._index_lock:
            indexes = list(self._field_indexes.values())
        for index in indexes:
            index.flush()
            flushed += 1
        for type_name, bloom in sorted(self._table_blooms.items()):
            self._persist_table_bloom(type_name, bloom)
            flushed += 1
        return flushed

    def _persist_table_bloom(
        self, type_name: str, bloom: BloomFilter
    ) -> None:
        """Write one table bloom to its ``<type>.__bloom__`` sidecar.

        Bits land before the geometry attrs (attrs-over-approximate: a
        crash between the two leaves attrs describing the *old* bits,
        which ``from_bytes`` either reads consistently or rejects at
        the union geometry check — never a false negative).
        """
        child_name = f"{type_name}.__bloom__"
        child_no = self._indexes_root.children.get(child_name)
        if child_no is None:
            child = self.inodes.allocate(KIND_INDEX)
            child.attrs["role"] = "table-bloom"
            child.attrs["type"] = type_name
            self.inodes.link_child(
                self._indexes_root.number, child_name, child.number
            )
            child_no = child.number
        self.inodes.rewrite_scrubbed(child_no, bloom.to_bytes())
        child = self.inodes.get(child_no)
        child.attrs["m"] = bloom.m_bits
        child.attrs["k"] = bloom.k
        child.attrs["stale"] = bloom.stale

    def _is_live_record(self, uid: str) -> bool:
        record_no = self._record_index.get(uid)
        if record_no is None:
            return False
        return not self.inodes.get(record_no).attrs["erased"]

    @_locked_writer
    def compact(
        self,
        rewrite_records: bool = True,
        max_records: Optional[int] = None,
    ) -> Dict[str, int]:
        """Reclaim every durable plane after a wave of erasures.

        Erasure scrubs the erased record's own bytes immediately, but
        four planes keep *growing* until something compacts them: live
        record payloads sit in blocks first written long ago (earlier
        in-place versions may linger in shadow-write debris), durable
        B-tree index pages keep their bulk-build layout plus tombstone
        slack, per-table bloom filters only ever *add* bits (``stale``
        marks them over-approximate but never clears), and the journal
        accumulates op history.  One compaction pass:

        1. **records** — every live record (and its sensitive sibling)
           is shadow-rewritten with scrub, so the only device blocks
           holding its bytes are the current ones (skippable via
           ``rewrite_records=False`` when only the accelerator planes
           need reclaiming);
        2. **indexes** — each durable field index repacks its pages to
           the bulk fill factor and rebuilds its value bloom fresh.
           The repack is intent-logged (``compact-index:<type>.<field>``
           committed only after the rewrite finishes), so a power cut
           mid-repack leaves an uncommitted intent that
           :meth:`_crash_recover` answers with a full rebuild;
        3. **blooms** — per-table blooms are rebuilt from the live
           trees alone (erased tombstones drop out, ``stale`` clears)
           and persisted;
        4. **sweeps** — unreachable inodes and orphaned blocks are
           scrub-freed, then the **journal** checkpoints, truncating
           the op history down to its marker.

        Returns a report of what each plane reclaimed.  Runs under the
        write lock: compaction is a writer like any other, so readers
        on MVCC snapshots never see a half-repacked index.

        **Incremental mode** (``max_records=N``): the record-rewrite
        plane processes at most N live records per call and remembers
        where it stopped in a resume cursor, so the retention daemon
        can run compaction as bounded background waves instead of one
        stop-the-world pass.  The accelerator planes (index repack,
        bloom rebuild, sweeps, journal checkpoint) only run on the call
        that *finishes* a cycle — a sequence of bounded calls adds up
        to exactly one full pass.  The report carries
        ``records_remaining`` (live records still ahead of the cursor)
        and ``cycle_complete`` (1 when this call closed the cycle).
        The cursor is volatile: a remount restarts the wave, which is
        safe because every wave is idempotent.
        """
        if max_records is not None and max_records < 1:
            raise errors.DBFSError(
                f"max_records must be >= 1, got {max_records}"
            )
        blocks_before = self.device.used_blocks
        journal_blocks_before = self.journal.blocks_in_use
        report: Dict[str, int] = {
            "records_rewritten": 0,
            "indexes_compacted": 0,
            "blooms_rebuilt": 0,
            "orphan_inodes": 0,
            "orphan_blocks": 0,
            "journal_records_discarded": 0,
            "records_remaining": 0,
            "cycle_complete": 1,
        }

        # 1. Live-record rewrite: new blocks, old ones scrubbed.  The
        # uid order is sorted so the resume cursor ("last uid done")
        # defines an unambiguous remainder; a full pass ignores and
        # resets the cursor.
        if rewrite_records:
            uids = sorted(self.all_uids())
            if max_records is not None and self._compact_cursor is not None:
                uids = [u for u in uids if u > self._compact_cursor]
            for position, uid in enumerate(uids):
                if (
                    max_records is not None
                    and report["records_rewritten"] >= max_records
                ):
                    self._compact_cursor = uids[position - 1]
                    report["records_remaining"] = sum(
                        1
                        for u in uids[position:]
                        if self._is_live_record(u)
                    )
                    report["cycle_complete"] = 0
                    break
                record_no = self._record_index.get(uid)
                if record_no is None:
                    continue
                inode = self.inodes.get(record_no)
                if inode.attrs["erased"]:
                    continue
                numbers = [record_no]
                sensitive_no = inode.attrs.get("sensitive_inode")
                if sensitive_no is not None:
                    numbers.append(sensitive_no)
                for number in numbers:
                    payload = self.inodes.read_payload(number)
                    if payload:
                        self.inodes.rewrite_scrubbed(number, payload)
                report["records_rewritten"] += 1
            if report["cycle_complete"]:
                self._compact_cursor = None

        if not report["cycle_complete"]:
            # Mid-wave: the accelerator planes wait for cycle close.
            self.stats.compactions += 1
            self._journal_op(
                "compact", f"wave={report['records_rewritten']}"
            )
            return report

        # 2. Durable index repack, intent-logged per index.
        with self._index_lock:
            indexes = sorted(self._field_indexes.items())
        for (type_name, field_name), index in indexes:
            self.journal.begin()
            self.journal.log_delete(f"compact-index:{type_name}.{field_name}")
            index.compact()
            self.journal.commit()
            report["indexes_compacted"] += 1
            self.stats.compacted_indexes += 1

        # 3. Authoritative table-bloom rebuild: live records only, so
        # erased keys drop out and the stale flag clears for good —
        # this is the only path that ever *shrinks* a bloom.
        if self.bloom_filters:
            bloom_keys: Dict[str, List[str]] = {}
            for subject_id, subject_no in sorted(
                self._subjects_root.children.items()
            ):
                subject = self.inodes.get(subject_no)
                for uid, record_no in sorted(subject.children.items()):
                    inode = self.inodes.get(record_no)
                    if inode.attrs["erased"]:
                        continue
                    type_name = inode.attrs.get("pd_type")
                    if isinstance(type_name, str):
                        bloom_keys.setdefault(type_name, []).extend(
                            ("S:" + subject_id, "U:" + uid)
                        )
            for type_name in sorted(self._types):
                keys = bloom_keys.get(type_name, [])
                bloom = BloomFilter.sized(max(256, len(keys)))
                for key in keys:
                    bloom.add(bloom_key(key))
                self._table_blooms[type_name] = bloom
                self._persist_table_bloom(type_name, bloom)
                report["blooms_rebuilt"] += 1

        # 4. Debris sweeps, then journal history truncation.
        report["orphan_inodes"] = self._free_unreachable_inodes()
        report["orphan_blocks"] = self._scrub_orphan_blocks()
        report["journal_records_discarded"] = self.journal.checkpoint()

        reclaimed = max(0, blocks_before - self.device.used_blocks) + max(
            0, journal_blocks_before - self.journal.blocks_in_use
        )
        report["blocks_reclaimed"] = reclaimed
        self.stats.compactions += 1
        self.stats.compaction_blocks_reclaimed += reclaimed
        self._journal_op("compact", f"reclaimed={reclaimed}")
        return report

    @_locked_writer
    def rollback_stores(self, uids: Sequence[str]) -> int:
        """Roll back committed-but-torn cross-shard stores after recovery.

        Used by the fleet remount when a fleet batch committed on this
        shard but not on every participant: the group as a whole never
        happened, so this shard's half is unwound by another
        :meth:`_crash_recover` pass that treats ``uids`` as uncommitted
        stores.  :attr:`recovery_report` keeps the first pass's report.
        Idempotent: uids already absent roll back to nothing.  Returns
        how many stores were unwound.
        """
        if not any(uid in self._record_index for uid in uids):
            return 0
        return self._crash_recover(rollback=uids)["rolled_back_stores"]

    def _rollback_store(self, uid: str) -> int:
        """Undo a half-applied, uncommitted store intent.

        Unlinks the record from the subject and schema trees (and
        removes a subject inode this very store created); the record /
        sensitive / membrane inodes left behind become unreachable and
        are scrubbed by the reachability sweep.  Returns 1 if anything
        was actually unlinked (a crash right after the intent landed
        leaves nothing to undo).
        """
        removed = 0
        for subject_id in list(self._subjects_root.children):
            subject_no = self._subjects_root.children[subject_id]
            subject = self.inodes.get(subject_no)
            if uid in subject.children:
                self.inodes.unlink_child(subject_no, uid)
                removed = 1
                if not subject.children:
                    self.inodes.unlink_child(
                        self._subjects_root.number, subject_id
                    )
                    self.inodes.free(subject_no)
                break
        parts = uid.split(":")
        type_name = parts[1] if len(parts) >= 3 else None
        table_no = (
            self._schema_root.children.get(type_name) if type_name else None
        )
        if table_no is not None:
            table = self.inodes.get(table_no)
            if uid in table.children:
                self.inodes.unlink_child(table_no, uid)
                removed = 1
        return removed

    def _free_unreachable_inodes(self) -> int:
        """Scrub-free every inode not reachable from the three roots.

        Rollbacks (and interrupted stores that never linked) leave
        record/sensitive/membrane inodes holding PD with no tree
        reference; freeing them *with scrub* is what keeps the RTBF
        residue at zero after a crash.
        """
        reachable = set()
        for root in (self._subjects_root, self._schema_root,
                     self._formats_root, self._indexes_root):
            for inode in self.inodes.walk(root.number):
                reachable.add(inode.number)
                for attr in ("sensitive_inode", "membrane_inode"):
                    linked = inode.attrs.get(attr)
                    if linked is not None:
                        reachable.add(linked)
        freed = 0
        for number in self.inodes.numbers():
            if number not in reachable:
                self.inodes.free(number, scrub=True)
                freed += 1
        return freed

    def _scrub_orphan_blocks(self) -> int:
        """Scrub-free allocated blocks outside :meth:`owned_blocks`.

        Interrupted shadow-writes allocate a new extent before the old
        one is released; whichever side lost the race is unreferenced
        after the crash and may carry plaintext PD.
        """
        owned = self.owned_blocks()
        freed = 0
        for block_no in list(self.device.iter_allocated()):
            if block_no not in owned:
                self.device.scrub(block_no)
                self.device.free(block_no)
                freed += 1
        return freed
