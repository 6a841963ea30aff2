"""Durable paged field indexes, bloom filters, and the batched read path.

Three layers of coverage:

* unit tests of :class:`~repro.storage.btree.DurableFieldIndex` against
  a bare inode table (paging, attach, bloom persistence, crash repair);
* Hypothesis equivalence properties — the durable index answers every
  planner operator exactly like the in-memory
  :class:`~repro.storage.btree.FieldIndex`, and the bloom filter never
  produces a false negative (including after RTBF erasure and a true
  remount);
* DBFS-level integration — erasure leaves no phantom uids in durable
  pages, remount attaches instead of rebuilding, negative subject
  lookups are answered by the table bloom without touching the device,
  and the batched scan equals a row-at-a-time brute-force filter
  across chunk boundaries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.core.active_data import AccessCredential
from repro.core.crypto import Authority
from repro.storage.block import BlockDevice
from repro.storage.btree import (
    BloomFilter,
    DurableFieldIndex,
    FieldIndex,
    bloom_key,
)
import repro.storage.dbfs as dbfs_module
from repro.storage.dbfs import DatabaseFS
from repro.storage.inode import KIND_DIRECTORY, InodeTable
from repro.storage.query import DeleteRequest, MembraneQuery, Predicate

from properties.test_select_properties import brute_force, decoded
from test_dbfs import make_user_type, store_user

DED = AccessCredential(holder="durable-index-ded", is_ded=True)


class Counter:
    """Minimal counter-like for the index's instrumentation hooks."""

    def __init__(self):
        self.n = 0

    def inc(self, amount=1):
        self.n += amount


def make_plane():
    """A bare device + inode table + parent directory for index roots."""
    device = BlockDevice(block_count=4096, block_size=512)
    inodes = InodeTable(device)
    parent = inodes.allocate(KIND_DIRECTORY)
    return device, inodes, parent


def select(index, op, value):
    """The executor's operator → index-call mapping, for equivalence."""
    if op == "eq":
        return sorted(index.exact(value))
    if op == "ne":
        return sorted(set(index.range()) - set(index.exact(value)))
    if op == "lt":
        return sorted(index.range(high=value))
    if op == "ge":
        return sorted(index.range(low=value))
    if op == "le":
        return sorted(set(index.range(high=value)) | set(index.exact(value)))
    return sorted(set(index.range(low=value)) - set(index.exact(value)))


class TestDurableFieldIndexUnit:
    def test_pages_split_and_invariants_hold(self):
        _, inodes, parent = make_plane()
        index = DurableFieldIndex.create(
            inodes, parent.number, "user", "year", page_capacity=4
        )
        for i in range(50):
            index.add(i % 7, f"pd:user:{i:05d}")
        index.check_invariants()
        root = inodes.get(index.root_no)
        assert len(root.children) > 1, "capacity-4 pages must have split"
        assert len(index) == 50

    def test_lookups_match_in_memory_index(self):
        _, inodes, parent = make_plane()
        durable = DurableFieldIndex.create(
            inodes, parent.number, "user", "year", page_capacity=8
        )
        memory = FieldIndex("user", "year")
        for i in range(40):
            durable.add(i % 11, f"pd:user:{i:05d}")
            memory.add(i % 11, f"pd:user:{i:05d}")
        for op in ("eq", "ne", "lt", "le", "gt", "ge"):
            for probe in (-1, 0, 5, 10, 11):
                assert select(durable, op, probe) == select(memory, op, probe)
                assert durable.estimate(op, probe) == memory.estimate(op, probe)

    def test_attach_is_lazy_until_first_lookup(self):
        _, inodes, parent = make_plane()
        index = DurableFieldIndex.create(
            inodes, parent.number, "user", "year", page_capacity=4
        )
        index.bulk_build([(i, f"pd:user:{i:05d}") for i in range(30)])
        reads = Counter()
        attached = DurableFieldIndex.attach(
            inodes, index.root_no, page_reads=reads
        )
        assert len(attached) == 30  # entry count comes from root attrs
        assert reads.n == 0, "attach must not read any page payload"
        assert attached.exact(7) == ["pd:user:00007"]
        assert reads.n > 0, "the first lookup faults the page in"

    def test_remove_and_remove_uid(self):
        _, inodes, parent = make_plane()
        index = DurableFieldIndex.create(
            inodes, parent.number, "user", "year", page_capacity=4
        )
        for i in range(10):
            index.add(1990, f"pd:user:{i:05d}")
        assert index.remove(1990, "pd:user:00003")
        assert not index.remove(1990, "pd:user:00003")
        assert index.remove_uid("pd:user:00004") == 1
        assert len(index) == 8
        assert "pd:user:00003" not in index.exact(1990)
        assert "pd:user:00004" not in index.exact(1990)
        index.check_invariants()

    def test_bloom_skips_absent_values_and_never_false_negatives(self):
        _, inodes, parent = make_plane()
        skips, hits = Counter(), Counter()
        index = DurableFieldIndex.create(
            inodes, parent.number, "user", "year",
            page_capacity=8, bloom_skips=skips, bloom_hits=hits,
        )
        for i in range(20):
            index.add(i, f"pd:user:{i:05d}")
        for i in range(20):
            assert index.exact(i) == [f"pd:user:{i:05d}"]
        assert skips.n == 0
        before = skips.n
        assert index.exact(999) == []
        assert skips.n == before + 1, "absent value must be bloom-skipped"

    def test_flush_persists_bloom_across_attach(self):
        _, inodes, parent = make_plane()
        index = DurableFieldIndex.create(
            inodes, parent.number, "user", "year", page_capacity=8
        )
        index.bulk_build([(i, f"pd:user:{i:05d}") for i in range(25)])
        index.flush()
        reads = Counter()
        attached = DurableFieldIndex.attach(
            inodes, index.root_no, page_reads=reads
        )
        assert attached.bloom is None, "attach must defer the bloom load"
        assert attached._bloom_filter() is not None, \
            "flushed bloom must be trusted once consulted"
        assert attached.exact(999) == []
        assert reads.n == 0, "bloom-negative lookup must read no pages"

    def test_stale_persisted_bloom_is_distrusted(self):
        _, inodes, parent = make_plane()
        index = DurableFieldIndex.create(
            inodes, parent.number, "user", "year", page_capacity=8
        )
        index.bulk_build([(i, f"pd:user:{i:05d}") for i in range(10)])
        index.flush()
        index.add(99, "pd:user:00099")  # mutation after the flush stamp
        attached = DurableFieldIndex.attach(inodes, index.root_no)
        assert attached._bloom_filter() is None, \
            "checksum drift must void the bloom"
        assert attached.exact(99) == ["pd:user:00099"]

    def test_compact_repacks_and_rebuilds_bloom(self):
        _, inodes, parent = make_plane()
        index = DurableFieldIndex.create(
            inodes, parent.number, "user", "year", page_capacity=4
        )
        for i in range(40):
            index.add(i, f"pd:user:{i:05d}")
        for i in range(0, 40, 2):
            index.remove(i, f"pd:user:{i:05d}")
        assert index.bloom is None or index.bloom.stale
        index.compact()
        index.check_invariants()
        assert len(index) == 20
        assert index.bloom is not None and not index.bloom.stale
        assert index.exact(1) == ["pd:user:00001"]


class TestBloomFilterProperties:
    @given(
        keys=st.lists(st.text(max_size=12), max_size=60),
        probes=st.lists(st.text(max_size=12), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_false_negative(self, keys, probes):
        bloom = BloomFilter.sized(max(16, len(keys)))
        for key in keys:
            bloom.add(bloom_key(key))
        for key in keys:
            assert bloom.might_contain(bloom_key(key))
        # Probes may false-positive, never raise; round-tripping the
        # bits preserves every answer.
        clone = BloomFilter.from_bytes(bloom.m_bits, bloom.k, bloom.to_bytes())
        for key in keys + probes:
            assert clone.might_contain(bloom_key(key)) == bloom.might_contain(
                bloom_key(key)
            )

    def test_bloom_key_canonicalizes_numeric_equality(self):
        assert bloom_key(1) == bloom_key(True) == bloom_key(1.0)
        assert bloom_key("1") != bloom_key(1)


class TestDurableEquivalenceProperties:
    @given(
        entries=st.lists(
            st.tuples(st.integers(-50, 50), st.integers(0, 199)),
            max_size=80,
        ),
        removals=st.lists(st.integers(0, 199), max_size=20),
        probe=st.integers(-60, 60),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_six_ops_match_in_memory_index(
        self, entries, removals, probe
    ):
        _, inodes, parent = make_plane()
        durable = DurableFieldIndex.create(
            inodes, parent.number, "user", "year", page_capacity=4
        )
        memory = FieldIndex("user", "year")
        seen = set()
        for value, n in entries:
            uid = f"pd:user:{n:05d}"
            if uid in seen:
                continue
            seen.add(uid)
            durable.add(value, uid)
            memory.add(value, uid)
        for n in removals:
            uid = f"pd:user:{n:05d}"
            assert durable.remove_uid(uid) == memory.remove_uid(uid)
        durable.check_invariants()
        assert len(durable) == len(memory)
        assert durable.min_value() == memory.min_value()
        assert durable.max_value() == memory.max_value()
        for op in ("eq", "ne", "lt", "le", "gt", "ge"):
            assert select(durable, op, probe) == select(memory, op, probe)
            assert durable.estimate(op, probe) == memory.estimate(op, probe)

    @given(
        entries=st.lists(
            st.tuples(st.integers(-20, 20), st.integers(0, 99)),
            min_size=1,
            max_size=40,
        ),
        probe=st.integers(-25, 25),
    )
    @settings(max_examples=40, deadline=None)
    def test_reattached_index_matches_builder(self, entries, probe):
        _, inodes, parent = make_plane()
        built = DurableFieldIndex.create(
            inodes, parent.number, "user", "year", page_capacity=4
        )
        pairs = {}
        for value, n in entries:
            pairs.setdefault(f"pd:user:{n:05d}", value)
        built.bulk_build(sorted((v, u) for u, v in pairs.items()))
        built.flush()
        attached = DurableFieldIndex.attach(inodes, built.root_no)
        attached.check_invariants()
        for op in ("eq", "ne", "lt", "le", "gt", "ge"):
            assert select(attached, op, probe) == select(built, op, probe)


@pytest.fixture
def authority():
    return Authority(bits=512, seed=73)


@pytest.fixture
def dbfs(authority):
    fs = DatabaseFS(operator_key=authority.issue_operator_key("durable-op"))
    fs.create_type(make_user_type(), DED)
    return fs


class TestDBFSDurableIntegration:
    def test_erasure_leaves_no_phantom_uids(self, dbfs):
        refs = {
            s: store_user(dbfs, s, name=f"User {s}", year=1980 + i)
            for i, s in enumerate("abcde")
        }
        dbfs.create_index("user", "year", DED)
        dbfs.delete(DeleteRequest(refs["c"].uid, mode="erase"), DED)
        for op in ("eq", "ne", "lt", "le", "gt", "ge"):
            uids = dbfs.select_uids("user", Predicate("year", op, 1982), DED)
            assert refs["c"].uid not in uids, f"phantom erased uid via {op}"
        assert dbfs.select_uids(
            "user", Predicate("year", "eq", 1982), DED
        ) == []

    def test_erasure_survives_remount_without_phantoms(self, dbfs, authority):
        refs = {
            s: store_user(dbfs, s, name=f"User {s}", year=1980 + i)
            for i, s in enumerate("abcde")
        }
        dbfs.create_index("user", "year", DED)
        dbfs.delete(DeleteRequest(refs["b"].uid, mode="erase"), DED)
        dbfs.flush_accelerators()
        recovered = DatabaseFS.remount_from_device(
            dbfs.device, dbfs.inodes,
            operator_key=authority.issue_operator_key("durable-op"),
        )
        assert recovered.recovery_report["field_indexes"] == 1
        uids = recovered.select_uids(
            "user", Predicate("year", "ge", 1900), DED
        )
        assert refs["b"].uid not in uids
        assert sorted(uids) == sorted(
            refs[s].uid for s in "acde"
        )
        # The erased subject's membrane is still findable (bloom has no
        # false negative after the remount rebuild)...
        found = recovered.query_membranes(
            MembraneQuery(pd_type="user", subject_id="b",
                          include_erased=True),
            DED,
        )
        assert [ref.uid for ref, _ in found] == [refs["b"].uid]
        # ...and an unknown subject is skipped via the table bloom.
        skips_before = recovered.stats.index_bloom_skips
        assert recovered.query_membranes(
            MembraneQuery(pd_type="user", subject_id="nobody-here"), DED
        ) == []
        assert recovered.stats.index_bloom_skips == skips_before + 1

    def test_remount_attaches_without_decoding_records(self, dbfs, authority):
        for i, s in enumerate("abcdefgh"):
            store_user(dbfs, s, year=1980 + i)
        dbfs.create_index("user", "year", DED)
        dbfs.flush_accelerators()
        recovered = DatabaseFS.remount_from_device(
            dbfs.device, dbfs.inodes,
            operator_key=authority.issue_operator_key("durable-op"),
        )
        assert recovered.stats.partial_decodes == 0
        assert recovered.stats.full_decodes == 0
        assert recovered.stats.index_page_reads == 0
        assert recovered.has_index("user", "year")
        assert len(recovered.select_uids(
            "user", Predicate("year", "ge", 1980), DED
        )) == 8
        assert recovered.stats.index_page_reads > 0

    def test_batched_scan_matches_row_at_a_time(self, dbfs, monkeypatch):
        """The batched scan, in chunks of 3 rows so every answer
        crosses chunk boundaries, equals the row-at-a-time brute-force
        filter, with an erased row and a sensitive field in the way and
        every row decoded off its blocks."""
        monkeypatch.setattr(dbfs_module, "SCAN_BATCH_ROWS", 3)
        refs = [
            store_user(dbfs, s, name=f"User {s}", ssn=str(i % 3),
                       year=1980 + (i % 4))
            for i, s in enumerate("abcdefghij")
        ]
        dbfs.delete(DeleteRequest(refs[4].uid, mode="erase"), DED)
        records = decoded(dbfs)
        assert len(records) == 9
        dbfs._record_cache.clear()
        for op, value in (("eq", 1981), ("ne", 1981), ("lt", 1982),
                          ("le", 1982), ("gt", 1982), ("ge", 1982)):
            predicate = Predicate("year", op, value)
            assert dbfs.select_uids("user", predicate, DED) == \
                brute_force(records, (predicate,)), (
                    f"batched scan diverges from brute force on {op}"
                )
        for predicate in (Predicate("ssn", "eq", "1"),
                          Predicate("name", "contains", "User")):
            assert dbfs.select_uids("user", predicate, DED) == \
                brute_force(records, (predicate,))
