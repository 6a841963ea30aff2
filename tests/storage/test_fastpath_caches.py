"""Tests for the DBFS fast-path caches and their invalidation rules.

The tentpole invariants (see ``repro.storage.cache``):

* an erased uid must never resurface through the record cache, the
  listing cache, or a field index;
* disabling every cache (``CacheConfig.disabled()``) changes
  performance only, never results.
"""

import pytest

from repro import errors
from repro.core.active_data import AccessCredential
from repro.core.crypto import Authority
from repro.core.membrane import Membrane
from repro.storage.cache import CacheConfig, LRUCache, MISSING
from repro.storage.dbfs import DatabaseFS
from repro.storage.query import (
    DataQuery,
    DeleteRequest,
    Predicate,
    StoreRequest,
    UpdateRequest,
)

from test_dbfs import make_user_type, store_user

DED = AccessCredential(holder="cache-ded", is_ded=True)


def make_dbfs(cache_config=None, seed=91):
    authority = Authority(bits=512, seed=seed)
    fs = DatabaseFS(
        operator_key=authority.issue_operator_key("cache-op"),
        cache_config=cache_config,
    )
    fs.create_type(make_user_type(), DED)
    return fs


@pytest.fixture
def dbfs():
    return make_dbfs()


@pytest.fixture
def populated(dbfs):
    refs = {}
    for subject, year in (("a", 1980), ("b", 1985), ("c", 1990),
                          ("d", 1990), ("e", 1995)):
        refs[subject] = store_user(dbfs, subject, year=year)
    return dbfs, refs


class TestLRUCachePrimitive:
    def test_get_put_and_stats(self):
        cache = LRUCache(capacity=2, name="t")
        assert cache.get("a") is MISSING
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_none_is_a_cacheable_value(self):
        cache = LRUCache(capacity=2)
        cache.put("denied", None)
        assert cache.get("denied") is None  # not MISSING

    def test_lru_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is MISSING
        assert cache.get("a") == 1
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(capacity=0)
        assert not cache.enabled
        cache.put("a", 1)
        assert cache.get("a") is MISSING
        assert len(cache) == 0

    def test_clear_counts_invalidations(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert cache.stats.invalidations == 2


class TestRecordCache:
    def test_repeat_load_hits_cache(self, populated):
        dbfs, refs = populated
        uid = refs["a"].uid
        dbfs._record_cache.stats.hits = 0
        first = dbfs._load_record_raw(uid)
        second = dbfs._load_record_raw(uid)
        assert first == second
        assert dbfs._record_cache.stats.hits >= 1

    def test_caller_mutation_does_not_corrupt_cache(self, populated):
        dbfs, refs = populated
        uid = refs["a"].uid
        record = dbfs._load_record_raw(uid)
        record["name"] = "MUTATED"
        assert dbfs._load_record_raw(uid)["name"] == "Ada"

    def test_update_refreshes_cached_record(self, populated):
        dbfs, refs = populated
        uid = refs["a"].uid
        dbfs._load_record_raw(uid)  # warm the cache
        dbfs.update(UpdateRequest(uid, {"year": 2000}), DED)
        assert dbfs._load_record_raw(uid)["year"] == 2000

    def test_erased_uid_never_served_from_record_cache(self, populated):
        """RTBF: the cached plaintext must die with the record."""
        dbfs, refs = populated
        uid = refs["a"].uid
        dbfs._load_record_raw(uid)  # plaintext now cached
        dbfs.delete(DeleteRequest(uid, mode="erase"), DED)
        assert uid not in dbfs._record_cache
        with pytest.raises(errors.ExpiredPDError):
            dbfs.fetch_records(DataQuery(uids=(uid,)), DED)

    def test_select_scan_never_returns_erased_uid(self, populated):
        dbfs, refs = populated
        predicate = Predicate("year", "eq", 1990)
        dbfs._select_scan("user", predicate)  # warm every cache
        dbfs.delete(DeleteRequest(refs["c"].uid, mode="erase"), DED)
        assert dbfs._select_scan("user", predicate) == [refs["d"].uid]


class TestMembraneCache:
    def test_put_membrane_keeps_no_reference_to_the_callers_object(
        self, populated
    ):
        dbfs, refs = populated
        uid = refs["a"].uid
        shipped = Membrane.from_json(dbfs.get_membrane(uid, DED).to_json())
        shipped.grant("marketing", "all", at=1.0, by="a")
        dbfs.put_membrane(uid, shipped, DED)
        shipped.revoke("marketing", at=2.0, by="a")
        assert dbfs.get_membrane(uid, DED).permits("marketing") == "all"


class TestListingCache:
    def test_repeat_scan_reuses_listing(self, populated):
        dbfs, refs = populated
        predicate = Predicate("year", "ge", 1980)
        dbfs._select_scan("user", predicate)
        before = dbfs.stats.listing_cache_hits
        dbfs._select_scan("user", predicate)
        assert dbfs.stats.listing_cache_hits > before

    def test_store_invalidates_listing(self, populated):
        dbfs, refs = populated
        predicate = Predicate("year", "ge", 1980)
        assert len(dbfs._select_scan("user", predicate)) == 5
        new_ref = store_user(dbfs, "f", year=1999)
        uids = dbfs._select_scan("user", predicate)
        assert new_ref.uid in uids
        assert len(uids) == 6

    def test_disabled_listing_cache_stays_empty(self):
        dbfs = make_dbfs(CacheConfig.disabled())
        store_user(dbfs, "a", year=1980)
        dbfs._select_scan("user", Predicate("year", "ge", 0))
        assert dbfs._listing_cache == {}
        assert dbfs.stats.listing_cache_hits == 0


class TestIndexedOpNe:
    @pytest.fixture
    def indexed(self, populated):
        dbfs, refs = populated
        dbfs.create_index("user", "year", DED)
        return dbfs, refs

    def test_ne_uses_index_and_matches_scan(self, indexed):
        dbfs, refs = indexed
        predicate = Predicate("year", "ne", 1990)
        reads_before = dbfs.device.stats.reads
        result = dbfs.select_uids("user", predicate, DED)
        # The indexed path touches no record payloads.
        assert dbfs.device.stats.reads == reads_before
        assert result == dbfs._select_scan("user", predicate)
        assert result == sorted(
            refs[s].uid for s in ("a", "b", "e")
        )

    def test_ne_excludes_erased_uids(self, indexed):
        """Index maintenance under RTBF: a stale entry must never
        return an erased uid, including through the NE full-range path."""
        dbfs, refs = indexed
        dbfs.delete(DeleteRequest(refs["a"].uid, mode="erase"), DED)
        result = dbfs.select_uids("user", Predicate("year", "ne", 1990), DED)
        assert refs["a"].uid not in result
        assert result == sorted(refs[s].uid for s in ("b", "e"))

    def test_update_then_ne_reflects_new_value(self, indexed):
        dbfs, refs = indexed
        dbfs.update(UpdateRequest(refs["a"].uid, {"year": 1990}), DED)
        result = dbfs.select_uids("user", Predicate("year", "ne", 1990), DED)
        assert refs["a"].uid not in result
        assert result == sorted(refs[s].uid for s in ("b", "e"))


class TestIndexMaintenanceUnderCaches:
    """Satellite: _index_record/_unindex_record under update/delete."""

    @pytest.fixture
    def indexed(self, populated):
        dbfs, refs = populated
        dbfs.create_index("user", "year", DED)
        return dbfs, refs

    def test_erased_uid_never_returned_by_any_op(self, indexed):
        dbfs, refs = indexed
        # Warm record + listing caches first so a stale copy would be
        # available if invalidation were broken.
        for predicate in (Predicate("year", "eq", 1990),
                          Predicate("year", "le", 3000)):
            dbfs._select_scan("user", predicate)
        erased = refs["c"].uid
        dbfs.delete(DeleteRequest(erased, mode="erase"), DED)
        for op, value in (("eq", 1990), ("ne", 0), ("le", 3000),
                          ("ge", 0), ("lt", 3000), ("gt", 0)):
            assert erased not in dbfs.select_uids(
                "user", Predicate("year", op, value), DED
            ), f"erased uid returned by indexed {op}"
        assert erased not in dbfs._select_scan(
            "user", Predicate("year", "le", 3000)
        )

    def test_update_after_update_keeps_single_entry(self, indexed):
        dbfs, refs = indexed
        uid = refs["a"].uid
        dbfs.update(UpdateRequest(uid, {"year": 2000}), DED)
        dbfs.update(UpdateRequest(uid, {"year": 2010}), DED)
        assert dbfs.select_uids("user", Predicate("year", "eq", 1980), DED) == []
        assert dbfs.select_uids("user", Predicate("year", "eq", 2000), DED) == []
        assert dbfs.select_uids("user", Predicate("year", "eq", 2010), DED) == [uid]


class TestStoreMany:
    def _requests(self, count):
        from repro.core.membrane import membrane_for_type

        requests = []
        for index in range(count):
            membrane = membrane_for_type(
                make_user_type(), f"s{index}", created_at=0.0
            )
            requests.append(
                StoreRequest(
                    pd_type="user",
                    record={"name": f"u{index}", "ssn": "1", "year": 1990},
                    membrane_json=membrane.to_json(),
                )
            )
        return requests

    def test_bulk_store_equals_n_stores(self, dbfs):
        refs = dbfs.store_many(self._requests(4), DED)
        assert len(refs) == 4
        assert len(dbfs.all_uids()) == 4
        assert dbfs.stats.stores == 4
        assert dbfs.stats.bulk_stores == 1
        for ref in refs:
            assert dbfs._load_record_raw(ref.uid)["year"] == 1990

    def test_bulk_store_single_flush(self, dbfs):
        flushes_before = dbfs.journal.stats.flushes
        dbfs.store_many(self._requests(8), DED)
        assert dbfs.journal.stats.flushes == flushes_before + 1
        assert dbfs.journal.stats.group_commits == 1
        assert dbfs.journal.stats.batched_ops == 8

    def test_requires_ded(self, dbfs):
        with pytest.raises(errors.PDLeakError):
            dbfs.store_many(self._requests(1), AccessCredential("app"))


class TestCacheObservability:
    def test_cache_stats_shape(self, populated):
        dbfs, refs = populated
        dbfs._load_record_raw(refs["a"].uid)
        report = dbfs.cache_stats()
        assert set(report) == {
            "page_cache", "record_cache", "listing_cache",
            "membrane_cache", "journal",
        }
        assert report["record_cache"]["name"] == "record-cache"
        assert report["page_cache"]["capacity"] == 1024
        assert report["journal"]["commits"] > 0

    def test_remount_clears_every_cache(self, populated):
        dbfs, refs = populated
        dbfs._load_record_raw(refs["a"].uid)
        dbfs._select_scan("user", Predicate("year", "ge", 0))
        assert len(dbfs._record_cache) > 0
        assert dbfs._listing_cache
        assert dbfs._membrane_cache
        dbfs.remount()
        assert len(dbfs._record_cache) == 0
        assert dbfs._listing_cache == {}


class TestDisabledConfigEquivalence:
    """CacheConfig.disabled() restores seed behaviour exactly."""

    def _drive(self, dbfs):
        refs = [store_user(dbfs, s, year=1980 + i)
                for i, s in enumerate("abcd")]
        dbfs.create_index("user", "year", DED)
        dbfs.update(UpdateRequest(refs[0].uid, {"year": 1999}), DED)
        dbfs.delete(DeleteRequest(refs[1].uid, mode="erase"), DED)
        observations = []
        for op, value in (("ne", 1999), ("eq", 1999), ("lt", 2000)):
            observations.append(
                dbfs.select_uids("user", Predicate("year", op, value), DED)
            )
        observations.append(dbfs._select_scan("user", Predicate("year", "ge", 0)))
        observations.append(
            {uid: dbfs._load_record_raw(uid)
             for uid in dbfs.all_uids() if uid != refs[1].uid}
        )
        return observations

    def test_same_results_with_and_without_caches(self):
        # Same seed so uids line up between the two runs.
        import repro.storage.dbfs as dbfs_module
        import itertools

        counter = dbfs_module._uid_counter
        dbfs_module._uid_counter = itertools.count(10_000)
        try:
            cached = self._drive(make_dbfs())
        finally:
            dbfs_module._uid_counter = itertools.count(10_000)
        try:
            uncached = self._drive(make_dbfs(CacheConfig.disabled()))
        finally:
            dbfs_module._uid_counter = counter
        assert cached == uncached
