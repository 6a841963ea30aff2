"""B-tree secondary indexes for DBFS.

The paper's Idea 3 replaces "files as bytes" with typed records so the
OS can reason about PD at field granularity; once fields exist, a
database-oriented filesystem naturally wants field indexes ("DB
engines have seen significant improvement over the last years", § 2,
citing DBOS).  This module provides the index structure: a classic
B-tree (CLRS-style, minimum degree ``t``) over composite
``(field_value, uid)`` keys, so duplicate field values coexist and
every entry resolves to a record.

Operations: insert, delete, exact lookup, and half-open range scans —
everything the query layer's comparison predicates need.  The DBFS
wrapper (:class:`repro.storage.dbfs.DatabaseFS`) keeps indexes
consistent across store/update/delete; the ABL-I benchmark measures
what they buy over a full scan.
"""

from __future__ import annotations

import json
import zlib
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .. import errors
from .codec import _json_default, _json_object_hook
from .inode import KIND_INDEX, KIND_INDEX_PAGE, InodeTable

Key = Tuple[object, str]  # (field value, uid)


class _Node:
    __slots__ = ("keys", "children", "leaf")

    def __init__(self, leaf: bool) -> None:
        self.keys: List[Key] = []
        self.children: List["_Node"] = []
        self.leaf = leaf


class BTree:
    """A B-tree of minimum degree ``t`` (each node holds t-1..2t-1 keys)."""

    def __init__(self, t: int = 16) -> None:
        if t < 2:
            raise errors.StorageError(f"B-tree minimum degree must be >= 2, got {t}")
        self.t = t
        self.root = _Node(leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------

    def insert(self, key: Key) -> None:
        root = self.root
        if len(root.keys) == 2 * self.t - 1:
            new_root = _Node(leaf=False)
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self.root = new_root
        self._insert_nonfull(self.root, key)
        self._size += 1

    def _split_child(self, parent: _Node, index: int) -> None:
        t = self.t
        child = parent.children[index]
        sibling = _Node(leaf=child.leaf)
        parent.keys.insert(index, child.keys[t - 1])
        parent.children.insert(index + 1, sibling)
        sibling.keys = child.keys[t:]
        child.keys = child.keys[: t - 1]
        if not child.leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]

    def _insert_nonfull(self, node: _Node, key: Key) -> None:
        while not node.leaf:
            index = self._bisect(node.keys, key)
            child = node.children[index]
            if len(child.keys) == 2 * self.t - 1:
                self._split_child(node, index)
                if key > node.keys[index]:
                    index += 1
                child = node.children[index]
            node = child
        index = self._bisect(node.keys, key)
        node.keys.insert(index, key)

    @staticmethod
    def _bisect(keys: List[Key], key: Key) -> int:
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def contains(self, key: Key) -> bool:
        node = self.root
        while True:
            index = self._bisect(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                return True
            if node.leaf:
                return False
            node = node.children[index]

    def scan(
        self, low: Optional[Key] = None, high: Optional[Key] = None
    ) -> Iterator[Key]:
        """Yield keys in ``[low, high)`` in sorted order."""
        yield from self._scan_node(self.root, low, high)

    def _scan_node(
        self, node: _Node, low: Optional[Key], high: Optional[Key]
    ) -> Iterator[Key]:
        start = 0 if low is None else self._bisect(node.keys, low)
        for index in range(start, len(node.keys) + 1):
            if not node.leaf:
                # Prune subtrees entirely above `high`.
                if index == 0 or high is None or node.keys[index - 1] < high:
                    yield from self._scan_node(node.children[index], low, high)
            if index < len(node.keys):
                key = node.keys[index]
                if high is not None and key >= high:
                    return
                if low is None or key >= low:
                    yield key

    # ------------------------------------------------------------------
    # Delete (rebalancing deletion, CLRS scheme)
    # ------------------------------------------------------------------

    def delete(self, key: Key) -> bool:
        """Remove ``key``; returns False if absent."""
        if not self.contains(key):
            return False
        self._delete(self.root, key)
        if not self.root.leaf and not self.root.keys:
            self.root = self.root.children[0]
        self._size -= 1
        return True

    def _delete(self, node: _Node, key: Key) -> None:
        t = self.t
        index = self._bisect(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            if node.leaf:
                node.keys.pop(index)
                return
            left, right = node.children[index], node.children[index + 1]
            if len(left.keys) >= t:
                predecessor = self._max_key(left)
                node.keys[index] = predecessor
                self._delete(left, predecessor)
            elif len(right.keys) >= t:
                successor = self._min_key(right)
                node.keys[index] = successor
                self._delete(right, successor)
            else:
                self._merge(node, index)
                self._delete(left, key)
            return
        if node.leaf:
            return  # not present (contains() should prevent this)
        child = node.children[index]
        if len(child.keys) == t - 1:
            index = self._fill(node, index)
            child = node.children[index]
        self._delete(child, key)

    def _max_key(self, node: _Node) -> Key:
        while not node.leaf:
            node = node.children[-1]
        return node.keys[-1]

    def _min_key(self, node: _Node) -> Key:
        while not node.leaf:
            node = node.children[0]
        return node.keys[0]

    def _merge(self, parent: _Node, index: int) -> None:
        """Merge children index and index+1 around parent key index."""
        left = parent.children[index]
        right = parent.children.pop(index + 1)
        left.keys.append(parent.keys.pop(index))
        left.keys.extend(right.keys)
        left.children.extend(right.children)

    def _fill(self, parent: _Node, index: int) -> int:
        """Ensure child ``index`` has >= t keys; returns (possibly
        shifted) child index to descend into."""
        t = self.t
        child = parent.children[index]
        if index > 0 and len(parent.children[index - 1].keys) >= t:
            donor = parent.children[index - 1]
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = donor.keys.pop()
            if not donor.leaf:
                child.children.insert(0, donor.children.pop())
            return index
        if (
            index < len(parent.keys)
            and len(parent.children[index + 1].keys) >= t
        ):
            donor = parent.children[index + 1]
            child.keys.append(parent.keys[index])
            parent.keys[index] = donor.keys.pop(0)
            if not donor.leaf:
                child.children.append(donor.children.pop(0))
            return index
        if index < len(parent.keys):
            self._merge(parent, index)
            return index
        self._merge(parent, index - 1)
        return index - 1

    # ------------------------------------------------------------------
    # Invariants (used by the property tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise if any B-tree structural invariant is violated."""
        keys = list(self.scan())
        if keys != sorted(keys):
            raise errors.StorageError("B-tree keys out of order")
        if len(keys) != self._size:
            raise errors.StorageError(
                f"size mismatch: counted {len(keys)}, recorded {self._size}"
            )
        self._check_node(self.root, is_root=True)

    def _check_node(self, node: _Node, is_root: bool = False) -> int:
        t = self.t
        if not is_root and len(node.keys) < t - 1:
            raise errors.StorageError("underfull B-tree node")
        if len(node.keys) > 2 * t - 1:
            raise errors.StorageError("overfull B-tree node")
        if node.leaf:
            return 1
        if len(node.children) != len(node.keys) + 1:
            raise errors.StorageError("child/key count mismatch")
        depths = {self._check_node(child) for child in node.children}
        if len(depths) != 1:
            raise errors.StorageError("unbalanced B-tree")
        return depths.pop() + 1


def estimate_range(index, low: Optional[object],
                   high: Optional[object]) -> int:
    """Estimated entries of ``index`` (a :class:`FieldIndex` or
    :class:`DurableFieldIndex`) with values between ``low`` and
    ``high``; None leaves that end open.

    Interpolates under a uniform distribution over the index's tracked
    min/max when every value involved is numeric, and falls back to
    half the entries otherwise.  The one-bound range estimates of both
    index classes and the planner's two-bound ones all come from here.
    """
    entries = len(index)
    if entries == 0:
        return 0
    lo, hi = index.min_value(), index.max_value()
    numeric = all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in (lo, hi, low, high) if v is not None
    )
    if not numeric:
        return max(1, entries // 2)

    def below(value: object) -> int:
        if hi == lo:
            return entries if value > lo else 0  # type: ignore[operator]
        fraction = (value - lo) / (hi - lo)  # type: ignore[operator]
        return int(entries * min(1.0, max(0.0, fraction)))

    top = entries if high is None else below(high)
    bottom = 0 if low is None else below(low)
    return min(entries, max(0, top - bottom))


@dataclass
class FieldIndex:
    """One secondary index: B-tree over (field value, uid).

    Besides lookups, the index maintains cardinality statistics — a
    per-value entry count plus the tracked min/max — cheap enough to
    keep exact on every add/remove.  The query planner consumes them
    through :meth:`estimate` to pick the most selective index for a
    multi-predicate query.
    """

    type_name: str
    field_name: str
    tree: BTree = field(default_factory=BTree)
    value_counts: Dict[object, int] = field(default_factory=dict)

    def add(self, value: object, uid: str) -> None:
        self.tree.insert((value, uid))
        self.value_counts[value] = self.value_counts.get(value, 0) + 1

    def remove(self, value: object, uid: str) -> bool:
        removed = self.tree.delete((value, uid))
        if removed:
            remaining = self.value_counts.get(value, 0) - 1
            if remaining > 0:
                self.value_counts[value] = remaining
            else:
                self.value_counts.pop(value, None)
        return removed

    def remove_uid(self, uid: str) -> int:
        """Drop every entry belonging to ``uid``.

        Crash-repair hook shared with :class:`DurableFieldIndex`: the
        rollback paths call it without knowing which values a half-born
        record carried.  Returns the number of entries dropped.
        """
        victims = [
            (value, entry_uid) for value, entry_uid in self.tree.scan()
            if entry_uid == uid
        ]
        for value, entry_uid in victims:
            self.remove(value, entry_uid)
        return len(victims)

    def exact(self, value: object) -> List[str]:
        """uids whose field equals ``value``."""
        return [
            uid for _, uid in self.tree.scan((value, ""), (value, "￿"))
        ]

    def range(
        self, low: Optional[object] = None, high: Optional[object] = None
    ) -> List[str]:
        """uids whose field is in ``[low, high)``."""
        low_key = None if low is None else (low, "")
        high_key = None if high is None else (high, "")
        return [uid for _, uid in self.tree.scan(low_key, high_key)]

    def __len__(self) -> int:
        return len(self.tree)

    # -- cardinality statistics (consumed by the query planner) ----------

    @property
    def distinct_values(self) -> int:
        return len(self.value_counts)

    def min_value(self) -> Optional[object]:
        if not len(self.tree):
            return None
        return self.tree._min_key(self.tree.root)[0]

    def max_value(self) -> Optional[object]:
        if not len(self.tree):
            return None
        return self.tree._max_key(self.tree.root)[0]

    def stats(self) -> Dict[str, object]:
        return {
            "entries": len(self.tree),
            "distinct": self.distinct_values,
            "min": self.min_value(),
            "max": self.max_value(),
        }

    def estimate(self, op: str, value: object) -> int:
        """Estimated number of matching entries for ``field <op> value``.

        Equality and inequality are exact (the per-value counts are
        maintained precisely); range operators interpolate under a
        uniform-distribution assumption when the tracked min/max and
        the probe value are all numeric, and fall back to half the
        entries otherwise.  Estimates never exceed the entry count and
        records *missing* the field are not represented at all, which
        matches the SQL-NULL evaluation rule.
        """
        entries = len(self.tree)
        if entries == 0:
            return 0
        try:
            if op == "eq":
                return self.value_counts.get(value, 0)
            if op == "ne":
                return entries - self.value_counts.get(value, 0)
        except TypeError:  # unhashable probe value
            return entries
        if op in ("lt", "le"):
            return estimate_range(self, None, value)
        if op in ("gt", "ge"):
            return estimate_range(self, value, None)
        return entries


# --------------------------------------------------------------------------
# Bloom filters: the negative-lookup accelerator for durable indexes and
# per-table subject/uid membership (paper § 3(1) metadata fast path).
# --------------------------------------------------------------------------

_BLOOM_SEED = 0x9E3779B9
_SUM_MOD = 1 << 61


def bloom_key(value: object) -> bytes:
    """Canonical byte key for ``value`` under Python ``==`` semantics.

    Values that compare equal MUST map to the same key or the filter
    would return false negatives: ``True == 1 == 1.0`` in Python, so
    bools and integral floats collapse onto the int form.  Everything
    else gets a type-tag prefix so ``1`` and ``"1"`` stay distinct.
    """
    if value is None:
        return b"n:"
    if isinstance(value, bool):
        return b"i:%d" % int(value)
    if isinstance(value, int):
        return b"i:%d" % value
    if isinstance(value, float):
        if value.is_integer():
            return b"i:%d" % int(value)
        return b"f:" + repr(value).encode("ascii")
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8")
    if isinstance(value, bytes):
        return b"b:" + value
    return b"j:" + json.dumps(
        value, sort_keys=True, default=_json_default
    ).encode("utf-8")


def entry_hash(value: object, uid: str) -> int:
    """Order-independent hash of one index entry (checksum building block)."""
    return zlib.crc32(bloom_key(value) + b"|" + uid.encode("utf-8"))


class BloomFilter:
    """Double-hashed bloom filter over canonical byte keys.

    The contract that matters for GDPR enforcement is the one-sided
    error: :meth:`might_contain` may say yes for an absent key, never
    no for a present one.  Removals therefore do not clear bits — they
    set :attr:`stale`, marking the filter an over-approximation of the
    live key set until the next rebuild (compaction).  A stale filter
    is still safe to consult; it just skips fewer lookups.
    """

    __slots__ = ("m_bits", "k", "bits", "stale")

    def __init__(self, m_bits: int = 65536, k: int = 4,
                 bits: Optional[bytearray] = None, stale: bool = False):
        if m_bits <= 0 or k <= 0:
            raise errors.StorageError(
                f"invalid bloom geometry: {m_bits} bits, {k} hashes"
            )
        self.m_bits = m_bits
        self.k = k
        self.bits = bits if bits is not None else bytearray((m_bits + 7) // 8)
        self.stale = stale

    @classmethod
    def sized(cls, expected_entries: int, bits_per_entry: int = 16,
              k: int = 4) -> "BloomFilter":
        """A filter sized for ``expected_entries`` (~0.2% false positives)."""
        m_bits = max(8192, expected_entries * bits_per_entry)
        m_bits = (m_bits + 7) // 8 * 8
        return cls(m_bits=m_bits, k=k)

    def _positions(self, key: bytes) -> Iterator[int]:
        h1 = zlib.crc32(key)
        h2 = zlib.crc32(key, _BLOOM_SEED) | 1  # odd => full-period stride
        m = self.m_bits
        for i in range(self.k):
            yield (h1 + i * h2) % m

    def add(self, key: bytes) -> None:
        bits = self.bits
        for pos in self._positions(key):
            bits[pos >> 3] |= 1 << (pos & 7)

    def might_contain(self, key: bytes) -> bool:
        bits = self.bits
        for pos in self._positions(key):
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def union(self, other: "BloomFilter") -> None:
        """Fold ``other``'s bits in (both sides' keys then might_contain)."""
        if other.m_bits != self.m_bits or other.k != self.k:
            raise errors.StorageError(
                "bloom union requires identical filter geometry"
            )
        bits = self.bits
        for i, byte in enumerate(other.bits):
            bits[i] |= byte
        self.stale = self.stale or other.stale

    def to_bytes(self) -> bytes:
        return bytes(self.bits)

    @classmethod
    def from_bytes(cls, m_bits: int, k: int, data: bytes,
                   stale: bool = False) -> "BloomFilter":
        bits = bytearray(data)
        if len(bits) != (m_bits + 7) // 8:
            raise errors.StorageError(
                f"bloom payload is {len(bits)} bytes, geometry "
                f"{m_bits} bits needs {(m_bits + 7) // 8}"
            )
        return cls(m_bits=m_bits, k=k, bits=bits, stale=stale)

    def fill_ratio(self) -> float:
        set_bits = sum(bin(byte).count("1") for byte in self.bits)
        return set_bits / self.m_bits


# --------------------------------------------------------------------------
# Durable paged field index
# --------------------------------------------------------------------------

DEFAULT_PAGE_CAPACITY = 128
_MAX_STR = "￿"


@dataclass
class _PageRef:
    """In-memory summary of one on-device index page (from inode attrs)."""

    name: str
    inode_no: int
    min_key: Key
    max_key: Key
    count: int


class DurableFieldIndex:
    """A :class:`FieldIndex`-compatible secondary index persisted as
    fixed-capacity sorted pages on the block device.

    Layout: one ``KIND_INDEX`` root inode (child of the DBFS indexes
    root, named ``<type>.<field>``) whose children are
    ``KIND_INDEX_PAGE`` inodes.  Each page holds one sorted run of
    ``(value, uid)`` entries as a JSON payload; its inode attrs carry
    a summary (``min_key``/``max_key``/``count``) so lookups bisect
    summaries in memory and load only overlapping pages.  The root
    attrs carry the entry count plus two order-independent checksums
    (xor and sum of per-entry hashes) that validate the persisted
    value bloom at attach time; the root *payload* is the bloom bits,
    written by :meth:`flush`.

    Attach cost is O(pages-metadata), not O(entries): nothing decodes
    a record and no page payload is read until the first lookup — the
    property that makes remount cost flat in table size.

    Crash model (power cuts happen only at device writes; the inode
    metadata plane is synchronously durable): page rewrites are
    shadow-writes, so a torn write leaves the old payload intact and
    pages are never torn.  Summary/root attrs follow an
    **over-approximation rule** — expanding updates (count up, range
    widening, checksum fold-in) land *before* the page's device write,
    shrinking updates after.  A crash can therefore make a summary
    claim more than its page holds, never less: lookups never miss
    entries, and a checksum that drifted simply invalidates the
    persisted bloom (no skips until rebuilt) instead of enabling a
    false negative.  A crash mid-split leaves two pages with
    overlapping ranges; :meth:`_ensure_summaries` detects that from
    the summaries alone and repairs by merge + re-split.  Entry
    values are PD, so page rewrites scrub the old extent and dropped
    pages are scrubbed before their blocks are freed.
    """

    def __init__(self, inodes: InodeTable, root_no: int, type_name: str,
                 field_name: str,
                 page_capacity: int = DEFAULT_PAGE_CAPACITY,
                 page_reads=None, bloom_hits=None, bloom_skips=None):
        if page_capacity < 4:
            raise errors.StorageError(
                f"index page capacity must be >= 4, got {page_capacity}"
            )
        self.inodes = inodes
        self.root_no = root_no
        self.type_name = type_name
        self.field_name = field_name
        self.page_capacity = page_capacity
        #: value-membership bloom; None means "not trustworthy, consult
        #: pages" (never wrong, just slower) until the next rebuild.
        self.bloom: Optional[BloomFilter] = None
        #: attach defers the persisted-bloom payload read (O(entries)
        #: bits) until the filter is first consulted or mutated, so
        #: the attach phase itself stays O(1) in table size.
        self._bloom_pending = False
        self._summaries: Optional[List[_PageRef]] = None
        #: write-through entry cache keyed by page inode number: pages
        #: written or loaded this session are answered from memory, so
        #: live-session lookups cost zero device reads (the in-memory
        #: FieldIndex contract).  Attach starts cold — pages fault in
        #: lazily, which is what keeps remount flat in table size.
        self._page_cache: Dict[int, List[Key]] = {}
        self._page_reads = page_reads
        self._bloom_hits = bloom_hits
        self._bloom_skips = bloom_skips

    # -- creation / attach ------------------------------------------------

    @classmethod
    def create(cls, inodes: InodeTable, parent_no: int, type_name: str,
               field_name: str, **kwargs) -> "DurableFieldIndex":
        """Allocate and link a fresh (empty) durable index."""
        root = inodes.allocate(KIND_INDEX)
        root.attrs.update({
            "role": "field-index",
            "type": type_name,
            "field": field_name,
            "entries": 0,
            "entry_xor": 0,
            "entry_sum": 0,
            "next_page": 0,
        })
        inodes.link_child(parent_no, f"{type_name}.{field_name}", root.number)
        index = cls(inodes, root.number, type_name, field_name, **kwargs)
        index._summaries = []
        index.bloom = BloomFilter.sized(1024)
        return index

    @classmethod
    def attach(cls, inodes: InodeTable, root_no: int,
               **kwargs) -> "DurableFieldIndex":
        """Bind to an existing on-device index without reading any page."""
        root = inodes.get(root_no)
        index = cls(inodes, root_no, str(root.attrs["type"]),
                    str(root.attrs["field"]), **kwargs)
        index._bloom_pending = True
        return index

    def _bloom_filter(self) -> Optional[BloomFilter]:
        """The value bloom, resolving a deferred attach-time load.

        Mutators call this *before* touching the entry checksums:
        the persisted bits are only trusted while the stamped
        checksums still match the live attrs, so the load must happen
        ahead of the mutation or the filter would be discarded.
        """
        if self._bloom_pending:
            self._bloom_pending = False
            self._load_persisted_bloom()
        return self.bloom

    def _load_persisted_bloom(self) -> None:
        root = self.inodes.get(self.root_no)
        meta = root.attrs.get("bloom")
        if not isinstance(meta, dict):
            return
        # The persisted bits are only trusted when the entry checksums
        # they were stamped with still match the live ones — any
        # mutation (or crash mid-mutation) since the flush leaves a
        # mismatch, and a mismatched filter could false-negative.
        if (meta.get("entry_xor") != root.attrs.get("entry_xor", 0)
                or meta.get("entry_sum") != root.attrs.get("entry_sum", 0)):
            return
        try:
            payload = self.inodes.read_payload(self.root_no)
            self.bloom = BloomFilter.from_bytes(
                int(meta["m"]), int(meta["k"]), payload,
                stale=bool(meta.get("stale", False)),
            )
        except (errors.StorageError, KeyError, ValueError, TypeError):
            self.bloom = None

    # -- summaries / page IO ----------------------------------------------

    def _root_attrs(self) -> Dict[str, object]:
        return self.inodes.get(self.root_no).attrs

    def _ensure_summaries(self) -> List[_PageRef]:
        if self._summaries is None:
            root = self.inodes.get(self.root_no)
            refs: List[_PageRef] = []
            for name, child_no in root.children.items():
                page = self.inodes.get(child_no)
                refs.append(_PageRef(
                    name=name,
                    inode_no=child_no,
                    min_key=tuple(page.attrs["min_key"]),
                    max_key=tuple(page.attrs["max_key"]),
                    count=int(page.attrs["count"]),
                ))
            refs.sort(key=lambda ref: (ref.min_key, ref.name))
            self._summaries = refs
            self._repair_overlaps()
        return self._summaries

    def _repair_overlaps(self) -> None:
        """Merge away page-range overlaps left by a crash mid-split.

        Detection uses only the (over-approximating) summaries; repair
        loads just the overlapping pages, dedupes the union, and
        re-splits to capacity.
        """
        refs = self._summaries
        assert refs is not None
        i = 0
        while i + 1 < len(refs):
            left, right = refs[i], refs[i + 1]
            if left.max_key < right.min_key:
                i += 1
                continue
            merged = sorted(
                set(self._load_page(left)) | set(self._load_page(right))
            )
            # Drop the right page first (its content is now owned by
            # the rewritten left page), then rewrite left.
            self.inodes.unlink_child(self.root_no, right.name)
            refs.pop(i + 1)
            self._page_cache.pop(right.inode_no, None)
            self.inodes.free(right.inode_no, scrub=True)
            if merged:
                self._write_page(left, merged)
                left.count = len(merged)
                left.min_key, left.max_key = merged[0], merged[-1]
                self._sync_page_attrs(left)
                if len(merged) > self.page_capacity:
                    self._split(i, merged)
            else:
                self.inodes.unlink_child(self.root_no, left.name)
                refs.pop(i)
                self._page_cache.pop(left.inode_no, None)
                self.inodes.free(left.inode_no, scrub=True)

    def _load_page(self, ref: _PageRef) -> List[Key]:
        cached = self._page_cache.get(ref.inode_no)
        if cached is not None:
            return list(cached)
        if self._page_reads is not None:
            self._page_reads.inc()
        raw = self.inodes.read_payload_view(ref.inode_no)
        if not len(raw):
            return []
        rows = json.loads(str(raw, "utf-8"), object_hook=_json_object_hook)
        entries = [(row[0], row[1]) for row in rows]
        self._page_cache[ref.inode_no] = entries
        return list(entries)

    def _write_page(self, ref: _PageRef, entries: List[Key]) -> None:
        payload = json.dumps(
            [[value, uid] for value, uid in entries], default=_json_default
        ).encode("utf-8")
        # Entry values are PD: the replaced extent is scrubbed, not
        # merely freed, so dropped index bytes leave no residue.
        self.inodes.rewrite_scrubbed(ref.inode_no, payload)
        self._page_cache[ref.inode_no] = list(entries)

    def _sync_page_attrs(self, ref: _PageRef) -> None:
        attrs = self.inodes.get(ref.inode_no).attrs
        attrs["min_key"] = ref.min_key
        attrs["max_key"] = ref.max_key
        attrs["count"] = ref.count

    def _new_page(self, entries: List[Key]) -> _PageRef:
        root = self.inodes.get(self.root_no)
        seq = int(root.attrs.get("next_page", 0))
        root.attrs["next_page"] = seq + 1
        name = f"page:{seq}"
        page = self.inodes.allocate(KIND_INDEX_PAGE)
        ref = _PageRef(name=name, inode_no=page.number,
                       min_key=entries[0], max_key=entries[-1],
                       count=len(entries))
        # Summary before payload (expanding, from nonexistence): a cut
        # during the write leaves an empty page whose summary merely
        # over-claims.
        self._sync_page_attrs(ref)
        self.inodes.link_child(self.root_no, name, page.number)
        self._write_page(ref, entries)
        return ref

    # -- mutation ----------------------------------------------------------

    def add(self, value: object, uid: str) -> None:
        bloom = self._bloom_filter()
        refs = self._ensure_summaries()
        key: Key = (value, uid)
        digest = entry_hash(value, uid)
        attrs = self._root_attrs()
        # Expanding metadata first (crash rule in the class docstring).
        attrs["entries"] = int(attrs.get("entries", 0)) + 1
        attrs["entry_xor"] = int(attrs.get("entry_xor", 0)) ^ digest
        attrs["entry_sum"] = (int(attrs.get("entry_sum", 0)) + digest) % _SUM_MOD
        if bloom is not None:
            bloom.add(bloom_key(value))
        if not refs:
            refs.append(self._new_page([key]))
            return
        index = self._target_page(refs, key)
        ref = refs[index]
        entries = self._load_page(ref)
        insort(entries, key)
        ref.count = len(entries)
        if key < ref.min_key:
            ref.min_key = key
        if key > ref.max_key:
            ref.max_key = key
        self._sync_page_attrs(ref)
        if len(entries) > self.page_capacity:
            self._split(index, entries)
        else:
            self._write_page(ref, entries)

    @staticmethod
    def _target_page(refs: List[_PageRef], key: Key) -> int:
        lo, hi = 0, len(refs)
        while lo < hi:
            mid = (lo + hi) // 2
            if refs[mid].min_key <= key:
                lo = mid + 1
            else:
                hi = mid
        return max(0, lo - 1)

    def _split(self, index: int, entries: List[Key]) -> None:
        refs = self._summaries
        assert refs is not None
        ref = refs[index]
        mid = len(entries) // 2
        left, right = entries[:mid], entries[mid:]
        # Right half first into a fresh page: a cut between the two
        # writes leaves the old left page (still holding everything)
        # overlapping the new right page — repaired at next attach by
        # _repair_overlaps, with no entry ever unreachable.
        right_ref = self._new_page(right)
        refs.insert(index + 1, right_ref)
        self._write_page(ref, left)
        # Shrinking summary after the write.
        ref.count = len(left)
        ref.max_key = left[-1]
        self._sync_page_attrs(ref)

    def remove(self, value: object, uid: str) -> bool:
        self._bloom_filter()
        refs = self._ensure_summaries()
        key: Key = (value, uid)
        for index in self._overlapping(refs, key, key, inclusive_high=True):
            ref = refs[index]
            entries = self._load_page(ref)
            pos = bisect_left(entries, key)
            if pos < len(entries) and entries[pos] == key:
                entries.pop(pos)
                self._shrink_page(index, entries)
                digest = entry_hash(value, uid)
                attrs = self._root_attrs()
                attrs["entries"] = int(attrs.get("entries", 0)) - 1
                attrs["entry_xor"] = int(attrs.get("entry_xor", 0)) ^ digest
                attrs["entry_sum"] = (
                    int(attrs.get("entry_sum", 0)) - digest
                ) % _SUM_MOD
                if self.bloom is not None:
                    # Bits are never cleared (another entry may share
                    # them); the filter becomes an over-approximation.
                    self.bloom.stale = True
                return True
        return False

    def _shrink_page(self, index: int, entries: List[Key]) -> None:
        refs = self._summaries
        assert refs is not None
        ref = refs[index]
        if not entries:
            # Unlink first (metadata, atomic): if power dies mid-scrub
            # the page is merely orphaned and the recovery sweeps
            # finish scrubbing and freeing it.
            self.inodes.unlink_child(self.root_no, ref.name)
            refs.pop(index)
            self._page_cache.pop(ref.inode_no, None)
            self.inodes.free(ref.inode_no, scrub=True)
            return
        self._write_page(ref, entries)
        ref.count = len(entries)
        ref.min_key, ref.max_key = entries[0], entries[-1]
        self._sync_page_attrs(ref)

    def remove_uid(self, uid: str) -> int:
        """Crash repair: drop every entry for ``uid``, wherever it is.

        Used when a journal rollback or erasure reconciliation cannot
        know which field values a rolled-back record had indexed.  It
        loads every page anyway, so it also recomputes the entry count
        and checksums exactly, healing any over-approximation drift a
        crash left behind.
        """
        self._bloom_filter()
        refs = self._ensure_summaries()
        removed = 0
        total = 0
        xor = 0
        checksum = 0
        for index in reversed(range(len(refs))):
            ref = refs[index]
            entries = self._load_page(ref)
            kept = [(v, u) for v, u in entries if u != uid]
            if len(kept) != len(entries):
                removed += len(entries) - len(kept)
                self._shrink_page(index, kept)
            elif (ref.count != len(entries)
                    or (entries and (ref.min_key != entries[0]
                                     or ref.max_key != entries[-1]))):
                if entries:
                    ref.count = len(entries)
                    ref.min_key, ref.max_key = entries[0], entries[-1]
                    self._sync_page_attrs(ref)
                else:
                    self._shrink_page(index, entries)
            for value, entry_uid in kept:
                digest = entry_hash(value, entry_uid)
                xor ^= digest
                checksum = (checksum + digest) % _SUM_MOD
                total += 1
        attrs = self._root_attrs()
        attrs["entries"] = total
        attrs["entry_xor"] = xor
        attrs["entry_sum"] = checksum
        if removed and self.bloom is not None:
            self.bloom.stale = True
        return removed

    def bulk_build(self, pairs: Iterable[Key]) -> None:
        """Sorted one-pass build for an empty index (create-time backfill).

        Writes each page exactly once at 3/4 fill (headroom for later
        inserts) instead of rewriting a page per entry, and sizes the
        value bloom to the real entry count.
        """
        refs = self._ensure_summaries()
        if refs or len(self):
            raise errors.StorageError(
                "bulk_build requires an empty durable index"
            )
        entries = sorted(pairs)
        if not entries:
            return
        self.bloom = BloomFilter.sized(len(entries))
        self._bloom_pending = False
        fill = max(1, (self.page_capacity * 3) // 4)
        attrs = self._root_attrs()
        for start in range(0, len(entries), fill):
            chunk = entries[start:start + fill]
            for value, uid in chunk:
                digest = entry_hash(value, uid)
                attrs["entries"] = int(attrs.get("entries", 0)) + 1
                attrs["entry_xor"] = int(attrs.get("entry_xor", 0)) ^ digest
                attrs["entry_sum"] = (
                    int(attrs.get("entry_sum", 0)) + digest
                ) % _SUM_MOD
                self.bloom.add(bloom_key(value))
            refs.append(self._new_page(chunk))

    # -- lookups -----------------------------------------------------------

    def _overlapping(self, refs: List[_PageRef], low_key: Optional[Key],
                     high_key: Optional[Key],
                     inclusive_high: bool = False) -> List[int]:
        out = []
        for index, ref in enumerate(refs):
            if low_key is not None and ref.max_key < low_key:
                continue
            if high_key is not None:
                if inclusive_high:
                    if ref.min_key > high_key:
                        break
                elif ref.min_key >= high_key:
                    break
            out.append(index)
        return out

    def exact(self, value: object) -> List[str]:
        """uids whose field equals ``value`` (bloom-gated page loads)."""
        bloom = self._bloom_filter()
        if bloom is not None:
            if not bloom.might_contain(bloom_key(value)):
                if self._bloom_skips is not None:
                    self._bloom_skips.inc()
                return []
            if self._bloom_hits is not None:
                self._bloom_hits.inc()
        refs = self._ensure_summaries()
        low, high = (value, ""), (value, _MAX_STR)
        out: List[str] = []
        for index in self._overlapping(refs, low, high):
            entries = self._load_page(refs[index])
            lo = bisect_left(entries, low)
            hi = bisect_left(entries, high)
            out.extend(uid for _, uid in entries[lo:hi])
        return out

    def range(self, low: Optional[object] = None,
              high: Optional[object] = None, *,
              low_inclusive: bool = True,
              high_inclusive: bool = False) -> List[str]:
        """uids whose field is in ``[low, high)``, in index order.

        The flags close or open either end (None leaves it unbounded):
        every uid sorts between ``""`` and ``_MAX_STR``, so a bound
        becomes the key just before or just after all of its value's
        entries and one walk answers ``gt``/``le`` as well.
        """
        refs = self._ensure_summaries()
        low_key = (None if low is None
                   else (low, "" if low_inclusive else _MAX_STR))
        high_key = (None if high is None
                    else (high, _MAX_STR if high_inclusive else ""))
        out: List[str] = []
        for index in self._overlapping(refs, low_key, high_key):
            entries = self._load_page(refs[index])
            lo = 0 if low_key is None else bisect_left(entries, low_key)
            hi = (len(entries) if high_key is None
                  else bisect_left(entries, high_key))
            out.extend(uid for _, uid in entries[lo:hi])
        return out

    def __len__(self) -> int:
        return int(self._root_attrs().get("entries", 0))

    # -- planner statistics ------------------------------------------------

    def min_value(self) -> Optional[object]:
        refs = self._ensure_summaries()
        return refs[0].min_key[0] if refs else None

    def max_value(self) -> Optional[object]:
        refs = self._ensure_summaries()
        return refs[-1].max_key[0] if refs else None

    def _count_exact(self, value: object) -> int:
        """Exact match count for eq/ne estimates (loads only the
        value's overlapping pages; negative probes cost zero loads via
        the bloom).  Raises TypeError on incomparable probes, which
        the caller maps to the same fallback FieldIndex uses."""
        bloom = self._bloom_filter()
        if bloom is not None:
            if not bloom.might_contain(bloom_key(value)):
                if self._bloom_skips is not None:
                    self._bloom_skips.inc()
                return 0
            if self._bloom_hits is not None:
                self._bloom_hits.inc()
        refs = self._ensure_summaries()
        low, high = (value, ""), (value, _MAX_STR)
        count = 0
        for index in self._overlapping(refs, low, high):
            entries = self._load_page(refs[index])
            count += bisect_left(entries, high) - bisect_left(entries, low)
        return count

    def estimate(self, op: str, value: object) -> int:
        """Estimated matches for ``field <op> value``.

        Same contract as :meth:`FieldIndex.estimate`: eq/ne exact,
        ranges interpolated from the summary min/max under a uniform
        assumption (no page loads), estimates never exceed the entry
        count.
        """
        entries = len(self)
        if entries == 0:
            return 0
        if op in ("eq", "ne"):
            try:
                matches = self._count_exact(value)
            except TypeError:  # incomparable probe value
                return entries
            return matches if op == "eq" else entries - matches
        if op in ("lt", "le"):
            return estimate_range(self, None, value)
        if op in ("gt", "ge"):
            return estimate_range(self, value, None)
        return entries

    def stats(self) -> Dict[str, object]:
        refs = self._ensure_summaries()
        bloom = self._bloom_filter()
        return {
            "entries": len(self),
            "pages": len(refs),
            "min": self.min_value(),
            "max": self.max_value(),
            "bloom": None if bloom is None else {
                "m_bits": bloom.m_bits,
                "k": bloom.k,
                "stale": bloom.stale,
                "fill_ratio": round(bloom.fill_ratio(), 4),
            },
        }

    # -- maintenance -------------------------------------------------------

    def items(self) -> Iterator[Key]:
        """Every entry in sorted order (equivalence tests, compaction)."""
        for ref in self._ensure_summaries():
            yield from self._load_page(ref)

    def rebuild_bloom(self) -> None:
        """Rebuild the value bloom from the pages (fresh, not stale)."""
        bloom = BloomFilter.sized(max(1024, len(self)))
        for value, _ in self.items():
            bloom.add(bloom_key(value))
        self.bloom = bloom
        self._bloom_pending = False

    def flush(self) -> None:
        """Persist the value bloom into the root inode (clean unmount).

        Bits land before the attrs stamp: a cut during the payload
        write leaves the old bits with the old stamp, which simply
        fails validation at attach.  The stamp records the entry
        checksums the bits were built against, so a filter that
        predates unflushed mutations is never trusted.
        """
        if self._bloom_filter() is None:
            self.rebuild_bloom()
        attrs = self._root_attrs()
        self.inodes.rewrite_scrubbed(self.root_no, self.bloom.to_bytes())
        attrs["bloom"] = {
            "m": self.bloom.m_bits,
            "k": self.bloom.k,
            "stale": self.bloom.stale,
            "entry_xor": attrs.get("entry_xor", 0),
            "entry_sum": attrs.get("entry_sum", 0),
        }

    def compact(self) -> None:
        """Repack pages to the bulk fill factor and rebuild the bloom."""
        refs = self._ensure_summaries()
        entries = sorted(set(self.items()))
        for ref in refs:
            self.inodes.unlink_child(self.root_no, ref.name)
            self._page_cache.pop(ref.inode_no, None)
            self.inodes.free(ref.inode_no, scrub=True)
        refs.clear()
        attrs = self._root_attrs()
        attrs["entries"] = 0
        attrs["entry_xor"] = 0
        attrs["entry_sum"] = 0
        self.bloom = BloomFilter.sized(max(1024, len(entries)))
        self._bloom_pending = False
        fill = max(1, (self.page_capacity * 3) // 4)
        for start in range(0, len(entries), fill):
            chunk = entries[start:start + fill]
            for value, uid in chunk:
                digest = entry_hash(value, uid)
                attrs["entries"] = int(attrs["entries"]) + 1
                attrs["entry_xor"] = int(attrs["entry_xor"]) ^ digest
                attrs["entry_sum"] = (
                    int(attrs["entry_sum"]) + digest
                ) % _SUM_MOD
                self.bloom.add(bloom_key(value))
            refs.append(self._new_page(chunk))
        self.flush()

    def check_invariants(self) -> None:
        """Raise if pages are unsorted, overlapping, or miscounted."""
        refs = self._ensure_summaries()
        previous_max: Optional[Key] = None
        total = 0
        xor = 0
        checksum = 0
        for ref in refs:
            entries = self._load_page(ref)
            if entries != sorted(entries):
                raise errors.StorageError(f"index page {ref.name} unsorted")
            if entries:
                if (entries[0] < ref.min_key or entries[-1] > ref.max_key):
                    raise errors.StorageError(
                        f"index page {ref.name} outside its summary range"
                    )
                if previous_max is not None and entries[0] <= previous_max:
                    raise errors.StorageError("index pages overlap")
                previous_max = entries[-1]
            if len(entries) > ref.count:
                raise errors.StorageError(
                    f"index page {ref.name} holds more than its summary"
                )
            for value, uid in entries:
                digest = entry_hash(value, uid)
                xor ^= digest
                checksum = (checksum + digest) % _SUM_MOD
                total += 1
        attrs = self._root_attrs()
        if total > int(attrs.get("entries", 0)):
            raise errors.StorageError(
                "index holds more entries than the root summary claims"
            )
        if total == int(attrs.get("entries", 0)):
            if (xor != int(attrs.get("entry_xor", 0))
                    or checksum != int(attrs.get("entry_sum", 0))):
                raise errors.StorageError("index entry checksums drifted")
