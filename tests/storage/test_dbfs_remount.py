"""Crash-recovery tests: DBFS remount rebuilds everything from inodes.

The inode trees are the durable state; every index, cache, the type
registry and the escrow blobs must be derivable from them.  These
tests crash the filesystem (wipe the in-memory structures via
``remount`` itself, or corrupt them first) and verify the recovered
instance is behaviourally identical.
"""

import json

import pytest

from repro import errors
from repro.core.active_data import AccessCredential
from repro.core.crypto import Authority
from repro.core.membrane import membrane_for_type
from repro.storage.dbfs import DatabaseFS
from repro.storage.query import (
    DataQuery,
    DeleteRequest,
    MembraneQuery,
    StoreRequest,
)
from repro.storage.shard import ShardedDBFS

from test_dbfs import make_user_type, store_user

DED = AccessCredential(holder="remount-ded", is_ded=True)


@pytest.fixture
def authority():
    return Authority(bits=512, seed=55)


@pytest.fixture
def dbfs(authority):
    fs = DatabaseFS(operator_key=authority.issue_operator_key("remount-op"))
    fs.create_type(make_user_type(), DED)
    return fs


def build_store(authority, shards):
    key = authority.issue_operator_key("remount-op")
    if shards == 1:
        fs = DatabaseFS(operator_key=key)
    else:
        fs = ShardedDBFS(shard_count=shards, operator_key=key)
    fs.create_type(make_user_type(), DED)
    return fs


def fail_first_scrub(device):
    """Make the next ``device.scrub`` raise, once."""
    scrub = device.scrub

    def failing(block_no):
        device.scrub = scrub
        raise errors.StorageError(f"scrub of block {block_no} failed")

    device.scrub = failing


def crash(dbfs):
    """Corrupt every volatile structure, then remount."""
    dbfs._types.clear()
    dbfs._record_index.clear()
    dbfs._membrane_index.clear()
    dbfs._lineage_index.clear()
    dbfs._membrane_json_cache.clear()
    dbfs._escrow_blobs.clear()
    return dbfs.remount()


class TestRemountRecovers:
    def test_types_recovered(self, dbfs):
        counts = crash(dbfs)
        assert counts["types"] == 1
        recovered = dbfs.get_type("user")
        original = make_user_type()
        assert recovered.field_names == original.field_names
        assert recovered.sensitive_fields == original.sensitive_fields
        assert dict(recovered.default_consent) == dict(
            original.default_consent
        )
        assert recovered.ttl_seconds == original.ttl_seconds

    def test_records_and_membranes_recovered(self, dbfs):
        ref_a = store_user(dbfs, "alice", name="Ada A")
        ref_b = store_user(dbfs, "bob", name="Bob B")
        counts = crash(dbfs)
        assert counts["records"] == 2
        pairs = dbfs.query_membranes(MembraneQuery("user"), DED)
        assert [p[0].uid for p in pairs] == sorted([ref_a.uid, ref_b.uid])
        records = dbfs.fetch_records(
            DataQuery(
                uids=(ref_a.uid,),
                fields={ref_a.uid: frozenset({"name", "ssn", "year"})},
            ),
            DED,
        )
        assert records[ref_a.uid]["name"] == "Ada A"
        assert records[ref_a.uid]["ssn"]  # sensitive inode re-linked

    def test_consent_state_survives(self, dbfs):
        ref = store_user(dbfs, "alice")
        membrane = dbfs.get_membrane(ref.uid, DED)
        membrane.grant("new_purpose", "all", at=5.0, by="alice")
        dbfs.put_membrane(ref.uid, membrane, DED)
        crash(dbfs)
        recovered = dbfs.get_membrane(ref.uid, DED)
        assert recovered.permits("new_purpose") == "all"
        assert [e.action for e in recovered.history][-1] == "grant"

    def test_lineage_index_rebuilt(self, dbfs):
        ref = store_user(dbfs, "alice")
        membrane = dbfs.get_membrane(ref.uid, DED)
        membrane.lineage = ref.uid
        dbfs.put_membrane(ref.uid, membrane, DED)
        copy_membrane = membrane.clone_for_copy(at=1.0)
        copy_ref = dbfs.store(
            StoreRequest(
                "user",
                {"name": "Ada", "ssn": "1", "year": 1815},
                copy_membrane.to_json(),
            ),
            DED,
        )
        counts = crash(dbfs)
        assert counts["lineage_groups"] == 1
        assert dbfs.lineage_members(ref.uid) == sorted(
            [ref.uid, copy_ref.uid]
        )

    def test_escrow_blob_survives_crash(self, dbfs, authority):
        ref = store_user(dbfs, "alice", name="Crash-Victim")
        dbfs.delete(DeleteRequest(ref.uid, mode="escrow"), DED)
        counts = crash(dbfs)
        assert counts["escrow_blobs"] == 1
        blob = dbfs.escrow_blob(ref.uid)
        recovered = json.loads(authority.recover(blob))
        assert recovered["name"] == "Crash-Victim"

    def test_erased_stay_erased_after_remount(self, dbfs):
        ref = store_user(dbfs, "alice")
        dbfs.delete(DeleteRequest(ref.uid, mode="erase"), DED)
        crash(dbfs)
        assert dbfs.get_membrane(ref.uid, DED).erased
        with pytest.raises(errors.ExpiredPDError):
            dbfs.fetch_records(DataQuery(uids=(ref.uid,)), DED)

    def test_remount_is_idempotent(self, dbfs):
        store_user(dbfs, "alice")
        first = dbfs.remount()
        second = dbfs.remount()
        assert first == second

    def test_export_identical_across_remount(self, dbfs):
        store_user(dbfs, "alice", name="Ada", year=1815)
        before = dbfs.export_subject("alice", DED)
        crash(dbfs)
        after = dbfs.export_subject("alice", DED)
        assert before == after

    def test_store_still_works_after_remount(self, dbfs):
        store_user(dbfs, "alice")
        crash(dbfs)
        ref = store_user(dbfs, "carol", name="Post-Crash")
        assert ref.uid in dbfs.all_uids()

    def test_format_descriptors_reread_once_per_session(self, dbfs):
        store_user(dbfs, "alice")
        crash(dbfs)
        reads_before = dbfs.stats.format_reads
        store_user(dbfs, "bob")
        store_user(dbfs, "carol")
        # One re-read for the new live session, then cached again.
        assert dbfs.stats.format_reads == reads_before + 1


class TestRemountRunsCrashRecovery:
    """The in-place remount reconciles against the journal exactly as
    the true-crash remount does: an erase whose intent committed is
    finished, and stores the journal never committed are undone."""

    @pytest.mark.parametrize("mode", ["erase", "escrow"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_erase_whose_first_scrub_raised_is_finished(
        self, authority, shards, mode
    ):
        fs = build_store(authority, shards)
        store_user(fs, "bystander", name="Kept Bystander", ssn="SSN-KEEP")
        ref = store_user(fs, "victim", name="Scrub Victim", ssn="SSN-SCRUB")
        fail_first_scrub(fs.shard_for_uid(ref.uid).device)
        with pytest.raises(errors.StorageError):
            fs.delete(DeleteRequest(ref.uid, mode=mode), DED)

        fs.remount()

        assert fs.get_membrane(ref.uid, DED).erased
        residue = fs.residue_counts(
            [b"Scrub Victim", b"SSN-SCRUB"], subject_id="victim",
            uids=[ref.uid],
        )
        assert residue == {"device_blocks": 0, "journal_records": 0}
        for shard in fs.shards:
            assert shard.unowned_blocks(0, shard.device.block_count) == []

    def test_finished_erase_reaches_observers_as_one_delete(self, dbfs):
        ref = store_user(dbfs, "victim")
        fail_first_scrub(dbfs.device)
        with pytest.raises(errors.StorageError):
            dbfs.delete(DeleteRequest(ref.uid, mode="erase"), DED)
        observed = []
        dbfs.add_mutation_observer(
            lambda op, payload: observed.append((op, payload["uid"]))
        )

        dbfs.remount()

        assert observed == [("delete", ref.uid)]

    @pytest.mark.parametrize("shards", [1, 4])
    def test_aborted_batch_is_rolled_back(self, authority, shards):
        fs = build_store(authority, shards)
        kept = store_user(fs, "kept")
        with pytest.raises(RuntimeError):
            with fs.batch():
                store_user(fs, "doomed-a")
                store_user(fs, "doomed-b")
                raise RuntimeError("abort the group")

        fs.remount()

        assert fs.list_subjects() == ["kept"]
        assert fs.all_uids() == [kept.uid]


class TestTypeDescriptionRoundtrip:
    def test_from_description_is_inverse_of_describe(self):
        from repro.core.datatypes import PDType

        original = make_user_type()
        rebuilt = PDType.from_description(original.describe())
        assert rebuilt.describe() == original.describe()

    def test_malformed_description_rejected(self):
        from repro.core.datatypes import PDType

        with pytest.raises(errors.SchemaViolationError):
            PDType.from_description({"type": "x"})
