"""Journal-shipping replication: propagation, batching, faults, RTBF.

The shipped unit is the leader journal's committed transaction —
payloads captured at the post-commit mutation hook, streamed in order
per shard, applied on followers inside one group commit per batch.
"""

import pytest

from cluster_testkit import (cluster_system, collect_users,  # noqa: F401
                             sharded_cluster_system)
from repro import errors
from repro.cluster import LinkConfig, ReplicatedCluster
from repro.core.active_data import AccessCredential
from repro.storage.faults import FaultPlan
from repro.storage.query import Predicate

DED = AccessCredential(holder="repl-test-ded", is_ded=True)


@pytest.fixture
def cluster(cluster_system):
    c = ReplicatedCluster(cluster_system, regions=("eu", "eu", "eu"))
    yield c
    c.close()


class TestPropagation:
    def test_stores_propagate_with_leader_uids(self, cluster, cluster_system):
        refs = collect_users(cluster_system, 5)
        cluster.sync()
        for follower in cluster.followers:
            assert follower.store.all_uids() == sorted(r.uid for r in refs)

    def test_updates_propagate(self, cluster, cluster_system):
        refs = collect_users(cluster_system, 3)
        cluster.sync()
        cluster_system.rights.rectify(
            "subj-1", refs[1], {"name": "Rectified Name"}
        )
        cluster.sync()
        for follower in cluster.followers:
            record = follower.store._load_record_raw(refs[1].uid)
            assert record["name"] == "Rectified Name"

    def test_membrane_changes_propagate(self, cluster, cluster_system):
        refs = collect_users(cluster_system, 2)
        cluster.sync()
        cluster_system.rights.object_to("subj-0", "purpose1")
        cluster.sync()
        leader_membrane = cluster_system.dbfs.get_membrane(refs[0].uid, DED)
        assert not leader_membrane.permits("purpose1")
        for follower in cluster.followers:
            membrane = follower.store.get_membrane(refs[0].uid, DED)
            assert membrane.to_json() == leader_membrane.to_json()
            assert not membrane.permits("purpose1")

    def test_erasure_propagates(self, cluster, cluster_system):
        refs = collect_users(cluster_system, 4)
        cluster.sync()
        outcome = cluster_system.rights.erase("subj-2")
        assert outcome.fully_forgotten
        cluster.sync()
        for uid in outcome.erased_uids:
            assert cluster.erasure_propagated(uid)
            for follower in cluster.followers:
                assert follower.store.get_membrane(uid, DED).erased

    def test_erasure_finished_by_leader_remount_propagates(
        self, cluster, cluster_system
    ):
        # The erase intent commits, then its first scrub raises; the
        # leader's in-place remount finishes the erasure and ships it
        # as the delete it stands for.
        refs = collect_users(cluster_system, 3)
        cluster.sync()
        device = cluster_system.dbfs.shard_for_uid(refs[1].uid).device
        scrub = device.scrub

        def failing_scrub(block_no):
            device.scrub = scrub
            raise errors.StorageError("scrub failed")

        device.scrub = failing_scrub
        with pytest.raises(errors.StorageError):
            cluster_system.rights.erase("subj-1", mode="erase")
        cluster_system.dbfs.remount()
        cluster.sync()
        assert cluster.erasure_propagated(refs[1].uid)
        report = cluster.residue_report(
            [b"Cluster User 1", b"cluster-pw-1"], subject_id="subj-1"
        )
        for follower in cluster.followers:
            assert report[follower.node_id] == {
                "device_blocks": 0, "journal_records": 0, "stream_records": 0,
            }

    def test_schema_ops_propagate_once(self, cluster, cluster_system):
        # The fleet's schema trees are replicas: capture must take one
        # copy, not one per shard, or follower create_type re-raises.
        cluster.sync()
        for follower in cluster.followers:
            assert "user" in follower.store.list_types()
            assert "age_pd" in follower.store.list_types()

    def test_replica_queries_match_leader(self, cluster, cluster_system):
        collect_users(cluster_system, 6)
        cluster.sync()
        predicate = Predicate("year_of_birthdate", "lt", 1973)
        leader_uids = cluster_system.dbfs.select_uids(
            "user", predicate, DED
        )
        assert cluster.query_uids("user", predicate) == leader_uids

    def test_right_of_access_from_replica(self, cluster, cluster_system):
        collect_users(cluster_system, 3)
        cluster.sync()
        export = cluster.right_of_access("subj-1")
        assert export["subject_id"] == "subj-1"
        (record,) = [
            r for r in export["records"] if r["pd_type"] == "user"
        ]
        assert record["data"]["name"] == "Cluster User 1"


class TestBatching:
    def test_group_commit_batches(self, cluster_system):
        cluster = ReplicatedCluster(
            cluster_system, regions=("eu", "eu"), batch_records=8
        )
        try:
            collect_users(cluster_system, 20, prefix="batch")
            shipped = cluster.pump()
            follower = cluster.followers[0]
            # 20 store ops at 8/batch => 3 data messages (plus link
            # stats agree), not 20.
            data_messages = follower.link.stats.messages - (
                shipped["records"] - 20
            )
            assert follower.link.stats.records == shipped["records"]
            assert shipped["batches"] < shipped["records"]
            assert follower.store.all_uids() == sorted(
                cluster_system.dbfs.all_uids()
            )
        finally:
            cluster.close()

    def test_batch_size_one_ships_per_record(self, cluster_system):
        cluster = ReplicatedCluster(
            cluster_system, regions=("eu", "eu"), batch_records=1
        )
        try:
            collect_users(cluster_system, 5, prefix="single")
            shipped = cluster.pump()
            assert shipped["batches"] >= 5
        finally:
            cluster.close()


class TestLinkFaults:
    def test_partition_stalls_then_heals(self, cluster_system):
        cluster = ReplicatedCluster(cluster_system, regions=("eu", "eu", "eu"))
        try:
            victim = cluster.followers[0]
            healthy = cluster.followers[1]
            victim.link.partition()
            refs = collect_users(cluster_system, 4, prefix="part")
            cluster.sync()  # converges on the healthy follower only
            assert healthy.store.all_uids() == sorted(r.uid for r in refs)
            assert victim.store.all_uids() == []
            assert cluster.lag()[victim.node_id] > 0
            victim.link.heal()
            cluster.sync()
            assert victim.store.all_uids() == sorted(r.uid for r in refs)
            assert cluster.lag()[victim.node_id] == 0
        finally:
            cluster.close()

    def test_transient_faults_are_retried(self, cluster_system):
        plan = FaultPlan(seed=7, transient_write_every=3)
        cluster = ReplicatedCluster(
            cluster_system,
            regions=("eu", "eu"),
            link_config=LinkConfig(plan=plan),
            batch_records=2,
        )
        try:
            refs = collect_users(cluster_system, 8, prefix="flaky")
            cluster.sync()
            follower = cluster.followers[0]
            assert follower.store.all_uids() == sorted(r.uid for r in refs)
            assert follower.link.stats.transient_failures > 0
        finally:
            cluster.close()

    def test_link_accounts_simulated_time(self, cluster_system):
        cluster = ReplicatedCluster(
            cluster_system,
            regions=("eu", "eu"),
            link_config=LinkConfig(
                latency_seconds=0.01, bandwidth_bytes_per_second=1e6
            ),
        )
        try:
            collect_users(cluster_system, 3, prefix="timed")
            cluster.sync()
            stats = cluster.followers[0].link.stats
            assert stats.simulated_seconds >= 0.01 * stats.messages
        finally:
            cluster.close()


class TestRTBFInShippingPlane:
    def test_erase_before_ship_redacts_payload(self, cluster_system):
        """A record erased before the follower ever saw it must never
        materialize there — the stream ships a redacted slot."""
        cluster = ReplicatedCluster(cluster_system, regions=("eu", "eu"))
        try:
            follower = cluster.followers[0]
            follower.link.partition()
            refs = collect_users(cluster_system, 2, prefix="preship")
            outcome = cluster_system.rights.erase("preship-0")
            follower.link.heal()
            cluster.sync()
            erased_uid = outcome.erased_uids[0]
            live_uid = refs[1].uid
            assert live_uid in follower.store.all_uids()
            assert erased_uid not in follower.store.all_uids()
            assert cluster.erasure_propagated(erased_uid)
            assert not follower.skipped  # tombstone consumed the entry
        finally:
            cluster.close()

    def test_retained_streams_hold_no_erased_plaintext(self, cluster_system):
        cluster = ReplicatedCluster(
            cluster_system, regions=("eu", "eu"), history_records=10_000
        )
        try:
            collect_users(cluster_system, 3, prefix="resid")
            cluster.sync()
            cluster_system.rights.erase("resid-1")
            cluster.sync()
            needles = [b"Cluster User 1", b"cluster-pw-1"]
            report = cluster.residue_report(needles, subject_id="resid-1")
            for node_id, counts in report.items():
                assert counts["stream_records"] == 0, (node_id, counts)
                assert counts["device_blocks"] == 0, (node_id, counts)
                assert counts["journal_records"] == 0, (node_id, counts)
        finally:
            cluster.close()

    def test_watermark_advances_with_sync(self, cluster_system):
        cluster = ReplicatedCluster(cluster_system, regions=("eu", "eu"))
        try:
            collect_users(cluster_system, 5, prefix="wm")
            leader_heads = [
                s.head for s in cluster.leader.streams
            ]
            cluster.sync()
            assert cluster.watermark() == leader_heads
        finally:
            cluster.close()


class TestShardedCluster:
    def test_sharded_fleet_replicates(self, sharded_cluster_system):
        cluster = ReplicatedCluster(
            sharded_cluster_system, regions=("eu", "eu")
        )
        try:
            refs = collect_users(sharded_cluster_system, 9, prefix="shardy")
            cluster.sync()
            follower = cluster.followers[0]
            assert follower.store.all_uids() == sorted(
                r.uid for r in refs
            )
            # Records land on the same shard index as on the leader.
            for ref in refs:
                leader_idx = sharded_cluster_system.dbfs._uid_shard[ref.uid]
                assert follower.store._uid_shard[ref.uid] == leader_idx
        finally:
            cluster.close()

    def test_sharded_erasure_reaches_every_replica(
        self, sharded_cluster_system
    ):
        cluster = ReplicatedCluster(
            sharded_cluster_system, regions=("eu", "eu", "eu")
        )
        try:
            collect_users(sharded_cluster_system, 9, prefix="shardy")
            cluster.sync()
            outcome = sharded_cluster_system.rights.erase("shardy-4")
            cluster.sync()
            for uid in outcome.erased_uids:
                assert cluster.erasure_propagated(uid)
        finally:
            cluster.close()


class TestReconcile:
    def test_reconciled_membrane_is_not_shared_with_the_leader(
        self, cluster_system
    ):
        # Anti-entropy hands the leader's membrane to a follower; a
        # later revocation on the leader must not reach the follower
        # while its link is down and nothing ships.
        cluster = ReplicatedCluster(cluster_system, regions=("eu", "eu"))
        try:
            refs = collect_users(cluster_system, 2)
            cluster.sync()
            follower = cluster.followers[0]
            follower.link.partition()
            cluster_system.rights.grant_consent(
                "subj-0", refs[0], "purpose2", "v_name"
            )
            cluster._reconcile(follower)
            replica = follower.store.get_membrane(refs[0].uid, DED)
            assert replica.permits("purpose2") == "v_name"

            cluster_system.rights.object_to("subj-0", "purpose2")

            leader = cluster_system.dbfs.get_membrane(refs[0].uid, DED)
            assert leader.permits("purpose2") is None
            replica = follower.store.get_membrane(refs[0].uid, DED)
            assert replica.permits("purpose2") == "v_name"
        finally:
            cluster.close()


class TestAddReplicaLate:
    def test_late_replica_reconciles_existing_state(self, cluster_system):
        cluster = ReplicatedCluster(cluster_system, regions=("eu",))
        try:
            refs = collect_users(cluster_system, 4, prefix="late")
            cluster_system.rights.erase("late-0")
            node = cluster.add_replica("eu")
            # Already-erased PD never materializes on a fresh replica.
            live = sorted(r.uid for r in refs[1:])
            assert node.store.all_uids() == live
            assert refs[0].uid not in node.store.all_uids()
            # And it follows the stream from here on.
            more = collect_users(cluster_system, 2, prefix="later")
            cluster.sync()
            assert set(node.store.all_uids()) == set(
                live + [r.uid for r in more]
            )
        finally:
            cluster.close()
