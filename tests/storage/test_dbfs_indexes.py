"""Tests for DBFS secondary field indexes and indexed selection."""

import pytest

from repro import errors
from repro.core.active_data import AccessCredential
from repro.core.crypto import Authority
from repro.storage.dbfs import DatabaseFS
from repro.storage.query import DeleteRequest, Predicate, UpdateRequest

from properties.test_select_properties import brute_force, decoded
from test_dbfs import make_user_type, store_user

DED = AccessCredential(holder="index-ded", is_ded=True)


@pytest.fixture
def dbfs():
    authority = Authority(bits=512, seed=66)
    fs = DatabaseFS(operator_key=authority.issue_operator_key("index-op"))
    fs.create_type(make_user_type(), DED)
    return fs


@pytest.fixture
def populated(dbfs):
    refs = {}
    for subject, year in (("a", 1980), ("b", 1985), ("c", 1990),
                          ("d", 1990), ("e", 1995)):
        refs[subject] = store_user(dbfs, subject, year=year)
    return dbfs, refs


class TestIndexCreation:
    def test_create_and_backfill(self, populated):
        dbfs, refs = populated
        index = dbfs.create_index("user", "year", DED)
        assert len(index) == 5
        assert dbfs.has_index("user", "year")

    def test_sensitive_field_not_indexable(self, dbfs):
        with pytest.raises(errors.DBFSError):
            dbfs.create_index("user", "ssn", DED)

    def test_unknown_field_rejected(self, dbfs):
        with pytest.raises(errors.SchemaViolationError):
            dbfs.create_index("user", "ghost", DED)

    def test_duplicate_index_rejected(self, dbfs):
        dbfs.create_index("user", "year", DED)
        with pytest.raises(errors.DBFSError):
            dbfs.create_index("user", "year", DED)

    def test_requires_ded(self, dbfs):
        with pytest.raises(errors.PDLeakError):
            dbfs.create_index("user", "year", AccessCredential("app"))


class TestIndexedSelection:
    @pytest.fixture
    def indexed(self, populated):
        dbfs, refs = populated
        dbfs.create_index("user", "year", DED)
        return dbfs, refs

    def test_eq(self, indexed):
        dbfs, refs = indexed
        uids = dbfs.select_uids("user", Predicate("year", "eq", 1990), DED)
        assert uids == sorted([refs["c"].uid, refs["d"].uid])

    @pytest.mark.parametrize(
        "op,value,expected_subjects",
        [
            ("lt", 1990, ["a", "b"]),
            ("le", 1990, ["a", "b", "c", "d"]),
            ("gt", 1990, ["e"]),
            ("ge", 1990, ["c", "d", "e"]),
        ],
    )
    def test_comparisons(self, indexed, op, value, expected_subjects):
        dbfs, refs = indexed
        uids = dbfs.select_uids("user", Predicate("year", op, value), DED)
        assert uids == sorted(refs[s].uid for s in expected_subjects)

    def test_indexed_and_scan_agree(self, indexed):
        dbfs, refs = indexed
        records = decoded(dbfs)
        for op, value in (("lt", 1990), ("ge", 1985), ("eq", 1995)):
            predicate = Predicate("year", op, value)
            indexed_result = dbfs.select_uids("user", predicate, DED)
            assert indexed_result == brute_force(records, (predicate,))

    def test_unindexed_field_falls_back_to_scan(self, indexed):
        dbfs, refs = indexed
        uids = dbfs.select_uids("user", Predicate("name", "eq", "Ada"), DED)
        assert len(uids) == 5  # all fixtures share the default name

    def test_contains_op_falls_back_to_scan(self, indexed):
        dbfs, refs = indexed
        uids = dbfs.select_uids(
            "user", Predicate("name", "contains", "Ad"), DED
        )
        assert len(uids) == 5


class TestIndexMaintenance:
    @pytest.fixture
    def indexed(self, populated):
        dbfs, refs = populated
        dbfs.create_index("user", "year", DED)
        return dbfs, refs

    def test_update_moves_index_entry(self, indexed):
        dbfs, refs = indexed
        dbfs.update(UpdateRequest(refs["a"].uid, {"year": 2000}), DED)
        assert dbfs.select_uids(
            "user", Predicate("year", "eq", 1980), DED
        ) == []
        assert dbfs.select_uids(
            "user", Predicate("year", "eq", 2000), DED
        ) == [refs["a"].uid]

    def test_delete_removes_index_entry(self, indexed):
        dbfs, refs = indexed
        dbfs.delete(DeleteRequest(refs["c"].uid, mode="erase"), DED)
        uids = dbfs.select_uids("user", Predicate("year", "eq", 1990), DED)
        assert uids == [refs["d"].uid]

    def test_new_store_is_indexed(self, indexed):
        dbfs, refs = indexed
        new_ref = store_user(dbfs, "f", year=2001)
        assert dbfs.select_uids(
            "user", Predicate("year", "eq", 2001), DED
        ) == [new_ref.uid]

    def test_remount_rebuilds_declared_indexes(self, indexed):
        dbfs, refs = indexed
        counts = dbfs.remount()
        assert counts["field_indexes"] == 1
        assert dbfs.has_index("user", "year")
        assert dbfs.select_uids(
            "user", Predicate("year", "eq", 1990), DED
        ) == sorted([refs["c"].uid, refs["d"].uid])
