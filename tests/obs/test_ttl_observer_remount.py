"""Regression: the expiry daemon must keep hearing the store after a
true-crash ``remount_from_devices`` on the sharded path, exactly once.

``remount_from_devices`` builds brand-new shard objects with empty
mutation-observer lists: a daemon subscribed before the crash would
silently stop hearing stores and erasures, so new PD would never be
scheduled for expiry (an Art. 5(1)(e) hole).  ``ExpiryDaemon.rebind``
is the one re-attach path: it re-points the daemon at the recovered
fleet, subscribes to each shard's mutation stream, and re-seeds a
fresh wheel from the recovered membranes.  Every crash cycle must end
with one registration per shard: a re-attach path that stacks another
one on each cycle is invisible to the wheel's state (reschedule
replaces), so the registration test counts schedule calls instead.
"""

import pytest

from conftest import LISTING1_DECLARATIONS
from repro import RgpdOS
from repro.core.active_data import AccessCredential
from repro.obs.monitors import ExpiryDaemon
from repro.storage.shard import ShardedDBFS

YEAR = 365 * 86400.0


@pytest.fixture
def sharded_system(shared_authority):
    os_ = RgpdOS(
        operator_name="ttl-remount",
        authority=shared_authority,
        with_machine=False,
        pd_device_blocks=512,
        shards=3,
    )
    os_.install(LISTING1_DECLARATIONS)
    for index in range(6):
        os_.collect(
            "user",
            {"name": f"Subject {index}", "pwd": f"pwd-{index}",
             "year_of_birthdate": 1980 + index},
            subject_id=f"s{index:02d}", method="web_form",
        )
    return os_


def make_daemon(system):
    return ExpiryDaemon(
        dbfs=system.dbfs,
        clock=system.clock,
        builtins=system.ps.builtins,
        trail=system.evidence,
        telemetry=system.telemetry,
    )


def crash_remount(system):
    """True-crash recovery of the fleet from device bytes alone."""
    old = system.dbfs
    return ShardedDBFS.remount_from_devices(
        [shard.device for shard in old.shards],
        [shard.inodes for shard in old.shards],
        operator_key=system.operator_key,
        cache_config=system.cache_config,
        telemetry=system.telemetry,
    )


class TestSingleRegistration:
    def test_one_schedule_per_store_after_crash_cycles(
        self, sharded_system, monkeypatch
    ):
        daemon = make_daemon(sharded_system)
        for _ in range(3):
            recovered = crash_remount(sharded_system)
            daemon.rebind(recovered, builtins=sharded_system.ps.builtins)
            sharded_system.dbfs = recovered
            sharded_system.ps.builtins.dbfs = recovered
            sharded_system.rights.dbfs = recovered
        scheduled = []
        schedule = daemon.wheel.schedule

        def counting_schedule(uid, deadline):
            scheduled.append(uid)
            return schedule(uid, deadline)

        monkeypatch.setattr(daemon.wheel, "schedule", counting_schedule)
        sharded_system.collect(
            "user",
            {"name": "After Three Crashes", "pwd": "a3-pwd",
             "year_of_birthdate": 1990},
            subject_id="after-three", method="web_form",
        )
        assert len(scheduled) == 1


class TestRebind:
    def test_rebind_reseeds_wheel_from_recovered_membranes(
        self, sharded_system
    ):
        daemon = make_daemon(sharded_system)
        assert daemon.pending == 6
        recovered = crash_remount(sharded_system)
        seeded = daemon.rebind(recovered)
        assert seeded == 6
        assert daemon.pending == 6
        assert daemon.dbfs is recovered

    def test_daemon_hears_stores_after_crash_remount(self, sharded_system):
        """The regression proper: collect after recovery must feed the
        wheel without a rescan."""
        daemon = make_daemon(sharded_system)
        recovered = crash_remount(sharded_system)
        daemon.rebind(recovered)
        sharded_system.dbfs = recovered
        sharded_system.ps.builtins.dbfs = recovered
        sharded_system.rights.dbfs = recovered
        sharded_system.collect(
            "user",
            {"name": "Post Crash", "pwd": "pc-pwd",
             "year_of_birthdate": 1999},
            subject_id="post-crash", method="web_form",
        )
        assert daemon.pending == 7

    def test_expiry_fires_after_crash_remount(self, sharded_system):
        daemon = make_daemon(sharded_system)
        recovered = crash_remount(sharded_system)
        # Re-point the whole stack, as a real recovery would: the
        # daemon's erasure waves go through builtins.delete.
        sharded_system.ps.builtins.dbfs = recovered
        daemon.rebind(recovered, builtins=sharded_system.ps.builtins)
        sharded_system.advance_time(YEAR)
        daemon.run_until_drained()
        assert daemon.erased_total == 6
        ded = AccessCredential(holder="ttl-remount-ded", is_ded=True)
        for shard in recovered.shards:
            for uid in shard.all_uids():
                assert shard.get_membrane(uid, ded).erased

    def test_rebind_clears_stale_backlog(self, sharded_system):
        daemon = make_daemon(sharded_system)
        daemon._backlog.append(("stale-uid", 0.0))
        recovered = crash_remount(sharded_system)
        daemon.rebind(recovered)
        assert not daemon._backlog
