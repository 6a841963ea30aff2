"""Journal auto-checkpoint, group-commit atomicity, and RTBF residue.

Three satellite guarantees of the sharded-DBFS work:

* an auto-checkpoint policy (:class:`JournalConfig`) keeps the live
  log bounded over arbitrarily long runs — which is what bounds the
  journal-recovery phase of remount;
* a partially-written group commit (crash mid-``batch``) is
  all-or-nothing: neither ``replay`` nor the from-device ``recover``
  ever surfaces an op from an uncommitted group, and remount counts
  are stable;
* after RTBF + checkpoint, a forensic scan over every shard's device
  *and* journal finds zero plaintext residue.  The only residue
  window is pseudonymous: delete markers keep the erased record's
  *uid* (never field values) in the journal until the next
  checkpoint scrubs the log extent.
"""

import pytest

from repro import errors
from repro.core.active_data import AccessCredential
from repro.core.crypto import Authority
from repro.core.system import RgpdOS
from repro.storage.block import BlockDevice
from repro.storage.dbfs import DatabaseFS
from repro.storage.journal import Journal, JournalConfig
from repro.storage.query import DeleteRequest
from repro.storage.shard import ShardedDBFS

from test_dbfs import make_user_type
from test_sharding import populate, store_subject

DED = AccessCredential(holder="ckpt-ded", is_ded=True)

REPAIRS = (
    "rolled_back_stores", "redone_erasures", "index_repairs",
    "orphan_inodes", "orphan_blocks",
)


def repairs(report):
    """Non-zero repair counts of a fleet remount, summed over shards."""
    totals = {
        key: sum(shard[key] for shard in report["per_shard"])
        for key in REPAIRS
    }
    totals["rolled_back_stores"] += (
        report["torn_fleet_batches"]["rolled_back_stores"]
    )
    return {key: count for key, count in totals.items() if count}


@pytest.fixture
def authority():
    return Authority(bits=512, seed=88)


def raw_journal(config=None):
    # Extent large enough that nothing is reclaimed for space — only
    # the checkpoint policy under test may truncate the log.
    return Journal(
        BlockDevice(block_count=4096, block_size=256),
        reserved_blocks=2048,
        config=config,
    )


class TestJournalConfig:
    def test_disabled_by_default(self):
        config = JournalConfig()
        assert not config.enabled
        journal = raw_journal()
        for index in range(50):
            journal.begin()
            journal.log_delete(f"op:{index}")
            journal.commit()
        assert len(journal) == 150  # 3 records per op, never truncated
        assert journal.stats.checkpoints == 0

    def test_record_threshold_bounds_the_log(self):
        journal = raw_journal(JournalConfig(checkpoint_after_records=9))
        for index in range(200):
            journal.begin()
            journal.log_delete(f"op:{index}")
            journal.commit()
            # + 1: the CHECKPOINT marker the truncation leaves behind.
            assert len(journal) <= 9 + 1
        assert journal.stats.checkpoints > 0
        assert journal.stats.checkpointed_records > 0

    def test_block_threshold_bounds_the_extent(self):
        journal = raw_journal(JournalConfig(checkpoint_after_blocks=12))
        for index in range(200):
            journal.begin()
            journal.log_delete(f"op:{index}")
            journal.commit()
            assert journal.blocks_in_use <= 12 + 1
        assert journal.stats.checkpoints > 0

    def test_no_checkpoint_inside_an_open_batch(self):
        journal = raw_journal(JournalConfig(checkpoint_after_records=4))
        with journal.batch():
            for index in range(20):
                journal.begin()
                journal.log_delete(f"op:{index}")
                journal.commit()
            # The group is still open: nothing may be truncated yet.
            assert len(journal) > 4
            assert journal.stats.checkpoints == 0
        # The deferred group COMMIT triggers the policy check.
        assert journal.stats.checkpoints == 1
        assert len(journal) <= 4 + 1

    def test_long_dbfs_run_stays_under_cap(self, authority):
        """Regression: a long store/delete run never outgrows the cap."""
        cap = 32
        dbfs = DatabaseFS(
            operator_key=authority.issue_operator_key("ckpt-op"),
            journal_config=JournalConfig(checkpoint_after_records=cap),
        )
        dbfs.create_type(make_user_type(), DED)
        for round_no in range(40):
            ref = store_subject(dbfs, f"s-{round_no}")
            if round_no % 2:
                dbfs.delete(DeleteRequest(uid=ref.uid), DED)
            assert len(dbfs.journal) <= cap + 1
        assert dbfs.journal.stats.checkpoints > 0
        # The bound is what keeps recovery flat: the from-device replay
        # parses at most cap+1 records no matter how long the run was.
        assert len(dbfs.journal.recover()) <= cap


class TestBatchAtomicity:
    def test_aborted_batch_leaves_no_committed_records(self):
        journal = raw_journal()
        with pytest.raises(RuntimeError):
            with journal.batch():
                journal.begin()
                journal.log_delete("doomed:1")
                journal.commit()
                journal.begin()
                journal.log_delete("doomed:2")
                journal.commit()
                raise RuntimeError("crash mid-batch")
        assert journal.stats.aborted_batches == 1
        assert journal.replay() == []
        assert journal.recover() == []  # from-device parse agrees

    def test_committed_history_survives_an_aborted_batch(self):
        journal = raw_journal()
        journal.begin()
        journal.log_delete("survivor:1")
        journal.commit()
        with pytest.raises(RuntimeError):
            with journal.batch():
                journal.begin()
                journal.log_delete("doomed:1")
                journal.commit()
                raise RuntimeError("crash mid-batch")
        targets = [record.target for record in journal.recover()]
        assert targets == ["survivor:1"]

    def test_sharded_crash_mid_batch_is_all_or_nothing(self, authority):
        """Crash inside ShardedDBFS.batch(): no shard's journal commits
        the group, the first remount rolls its stores back, and a
        second remount finds nothing left to repair."""
        sharded = ShardedDBFS(
            shard_count=4,
            operator_key=authority.issue_operator_key("crash-op"),
        )
        sharded.create_type(make_user_type(), DED)
        populate(sharded, count=8)
        committed = {
            index: [r.target for r in shard.journal.recover()]
            for index, shard in enumerate(sharded.shards)
        }
        with pytest.raises(RuntimeError):
            with sharded.batch():
                store_subject(sharded, "doomed-a")
                store_subject(sharded, "doomed-b")
                raise RuntimeError("crash mid-batch")
        for index, shard in enumerate(sharded.shards):
            # All-or-nothing: the aborted group contributed nothing to
            # any shard's committed log.
            assert [
                r.target for r in shard.journal.recover()
            ] == committed[index]
        first = sharded.remount()
        subjects = sharded.list_subjects()
        second = sharded.remount()
        assert repairs(first)["rolled_back_stores"] == 2
        assert repairs(second) == {}
        assert sharded.list_subjects() == subjects
        assert "doomed-a" not in subjects and "doomed-b" not in subjects
        assert first["records"] == second["records"] == sum(
            len(shard.all_uids()) for shard in sharded.shards
        )

    def test_store_many_failure_aborts_every_involved_journal(self, authority):
        sharded = ShardedDBFS(
            shard_count=2,
            operator_key=authority.issue_operator_key("abort-op"),
        )
        sharded.create_type(make_user_type(), DED)
        from repro.storage.query import StoreRequest

        bad = StoreRequest(
            pd_type="user",
            record={"name": "x", "ssn": "y", "year": "not-an-int"},
            membrane_json="",  # no membrane: DBFS rejects the store
        )
        before = [len(shard.journal.replay()) for shard in sharded.shards]
        with pytest.raises(errors.RgpdOSError):
            sharded.store_many([bad], DED)
        assert sharded.all_uids() == []
        for shard, committed in zip(sharded.shards, before):
            # The aborted group committed nothing anywhere.
            assert len(shard.journal.replay()) == committed


class TestRtbfResidueAfterCheckpoint:
    """ISSUE acceptance: zero plaintext residue across every shard +
    journal after erasure; the uid-only journal window closes at the
    next checkpoint."""

    NEEDLES = (b"Plainfield Victim", b"SSN-777-99-0001")

    @pytest.fixture
    def system(self, authority):
        system = RgpdOS(
            operator_name="residue-test", authority=authority,
            with_machine=False, shards=4,
        )
        system.install_type(make_user_type())
        for i in range(6):
            system.collect(
                "user",
                {"name": f"Bystander {i}", "ssn": f"B-{i}", "year": 1900 + i},
                subject_id=f"bystander-{i}", method="web_form",
            )
        system.collect(
            "user",
            {"name": "Plainfield Victim", "ssn": "SSN-777-99-0001",
             "year": 1984},
            subject_id="victim", method="web_form",
        )
        return system

    def test_zero_plaintext_residue_after_checkpoint(self, system):
        dbfs = system.dbfs
        for needle in self.NEEDLES:  # the plaintext is really on disk
            assert dbfs.forensic_scan(needle)["device_blocks"] > 0

        outcome = system.rights.erase("victim")
        assert outcome.fully_forgotten
        for shard in dbfs.shards:
            shard.journal.checkpoint()

        for needle in self.NEEDLES:
            for shard in dbfs.shards:  # every shard's device + journal
                counts = shard.forensic_scan(needle)
                assert counts == {"device_blocks": 0, "journal_records": 0}

    def test_journal_residue_window_is_uid_only(self, system):
        dbfs = system.dbfs
        (uid,) = dbfs.uids_of_subject("victim")
        owner = dbfs.shard_for_subject("victim")
        system.rights.erase("victim")

        # Window open: the delete marker names the erased uid (a
        # pseudonymous identifier — metadata, not PD) until the next
        # checkpoint truncates and scrubs the log extent.
        assert any(uid in r.target for r in owner.journal.records())
        # But no journal record ever carried field plaintext.
        for needle in self.NEEDLES:
            for shard in dbfs.shards:
                assert shard.forensic_scan(needle)["journal_records"] == 0

        owner.journal.checkpoint()
        assert not any(uid in r.target for r in owner.journal.records())

    def test_auto_checkpoint_closes_the_window_unattended(self, authority):
        """With a policy installed, RTBF needs no manual checkpoint —
        ordinary traffic truncates the log (the paper's point that real
        filesystems checkpoint on their own schedule, never when a
        subject asks)."""
        system = RgpdOS(
            operator_name="auto-residue", authority=authority,
            with_machine=False, shards=2,
            journal_config=JournalConfig(checkpoint_after_records=8),
        )
        system.install_type(make_user_type())
        ref = system.collect(
            "user",
            {"name": "Plainfield Victim", "ssn": "SSN-777-99-0001",
             "year": 1984},
            subject_id="victim", method="web_form",
        )
        owner = system.dbfs.shard_for_subject("victim")
        system.rights.erase("victim")
        assert any(ref.uid in r.target for r in owner.journal.records())
        for i in range(12):  # unrelated traffic crosses the threshold
            system.collect(
                "user", {"name": f"Other {i}", "ssn": f"O-{i}", "year": 1990},
                subject_id=f"other-{i}", method="web_form",
            )
        assert owner.journal.stats.checkpoints > 0
        assert not any(
            ref.uid in r.target for r in owner.journal.records()
        )
