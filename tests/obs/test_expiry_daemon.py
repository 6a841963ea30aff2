"""ExpiryDaemon: proactive timer-wheel retention enforcement.

The daemon's contract, each part tested here:

* **Feeding** — construction seeds the wheel from the live store; the
  DBFS mutation stream keeps it fed on store (schedule) and erase
  (cancel) without rescanning.
* **Waves** — due deadlines drain into erasure waves bounded at
  ``wave_size``, one journal group commit per shard per wave, each
  sealed as a ``retention-wave`` evidence entry.
* **Safety** — the wheel is an index, not the authority: every due
  uid is re-verified against ``Membrane.is_expired`` before erasure,
  so a stale entry can never erase unexpired PD.
* **Audit** — the Art. 5(1)(e) control goes green because the daemon
  provably ran (sealed waves cited as ``trail:`` evidence), not
  because traffic touched expired records.
"""

import pytest

from conftest import LISTING1_DECLARATIONS
from repro import RgpdOS
from repro.core.active_data import AccessCredential
from repro.obs.monitors import RETENTION_LANE, ExpiryDaemon

YEAR = 365 * 86400.0
DED = AccessCredential(holder="test-ded", is_ded=True)


@pytest.fixture
def small_system(shared_authority):
    os_ = RgpdOS(
        operator_name="expiry-test",
        authority=shared_authority,
        with_machine=False,
        pd_device_blocks=512,
    )
    os_.install(LISTING1_DECLARATIONS)
    os_.collect(
        "user",
        {"name": "Alice Martin", "pwd": "alice-secret-pwd",
         "year_of_birthdate": 1990},
        subject_id="alice", method="web_form",
    )
    os_.collect(
        "user",
        {"name": "Bob Durand", "pwd": "bob-secret-pwd",
         "year_of_birthdate": 1985},
        subject_id="bob", method="web_form",
    )
    return os_


def make_daemon(system, **kwargs):
    return ExpiryDaemon(
        dbfs=system.dbfs,
        clock=system.clock,
        builtins=system.ps.builtins,
        trail=system.evidence,
        telemetry=system.telemetry,
        **kwargs,
    )


class TestFeeding:
    def test_seed_indexes_live_ttls(self, small_system):
        daemon = make_daemon(small_system)
        assert daemon.pending == 2  # alice + bob user (1Y TTL each)

    def test_store_feeds_wheel_via_observer(self, small_system):
        daemon = make_daemon(small_system)
        small_system.collect(
            "user",
            {"name": "Carol Petit", "pwd": "carol-secret-pwd",
             "year_of_birthdate": 2001},
            subject_id="carol", method="web_form",
        )
        assert daemon.pending == 3  # no rescan needed

    def test_erase_cancels_timer(self, small_system):
        daemon = make_daemon(small_system)
        small_system.rights.erase("alice")
        assert daemon.pending == 1

    def test_membrane_update_reschedules_timer(self, small_system):
        daemon = make_daemon(small_system)
        uid, membrane = next(iter(small_system.dbfs.iter_membranes(DED)))
        membrane.ttl_seconds = 10.0
        small_system.dbfs.put_membrane(uid, membrane, DED)
        small_system.advance_time(10.0)
        daemon.tick(small_system.clock.now())
        assert daemon.erased_total == 1
        assert daemon.pending == 1

    def test_observer_survives_in_place_remount(self, small_system):
        """An in-place ``remount()`` (journal replay on the same
        instance) must not drop observer registrations: the daemon
        keeps hearing stores afterwards."""
        daemon = make_daemon(small_system)
        small_system.dbfs.remount()
        small_system.collect(
            "user",
            {"name": "Carol Petit", "pwd": "carol-secret-pwd",
             "year_of_birthdate": 2001},
            subject_id="carol", method="web_form",
        )
        assert daemon.pending == 3

    def test_rebind_to_same_store_subscribes_once(self, small_system):
        daemon = make_daemon(small_system)
        small_system.dbfs.remount()
        daemon.rebind(small_system.dbfs)
        observers = small_system.dbfs.mutation_observers
        assert observers.count(daemon._on_mutation) == 1


class TestWaves:
    def test_idle_before_deadline(self, small_system):
        daemon = make_daemon(small_system)
        small_system.advance_time(YEAR - 1.0)
        assert daemon.tick(small_system.clock.now()) is None
        assert daemon.erased_total == 0

    def test_erases_at_exact_deadline(self, small_system):
        daemon = make_daemon(small_system)
        small_system.advance_time(YEAR)
        block = daemon.tick(small_system.clock.now())
        assert block["due"] == 2
        assert block["waves_submitted"] == 1
        assert daemon.erased_total == 2
        assert daemon.pending == 0
        for _, membrane in small_system.dbfs.iter_membranes(DED):
            assert membrane.erased

    def test_waves_bounded_by_wave_size(self, small_system):
        daemon = make_daemon(small_system, wave_size=1)
        small_system.advance_time(YEAR)
        block = daemon.tick(small_system.clock.now())
        assert block["waves_submitted"] == 2  # 2 records, 1 per wave
        assert daemon.waves == 2
        assert daemon.erased_total == 2

    def test_stale_wheel_entry_cannot_erase_unexpired_pd(self, small_system):
        """Index-not-authority: force a bogus near deadline into the
        wheel; the authoritative membrane check reschedules instead of
        erasing."""
        daemon = make_daemon(small_system)
        now = small_system.clock.now()
        uids = [uid for uid, _ in small_system.dbfs.iter_membranes(DED)]
        daemon.wheel.schedule(uids[0], now + 1.0)  # lie to the index
        small_system.advance_time(10.0)
        daemon.tick(small_system.clock.now())
        assert daemon.erased_total == 0
        assert daemon.pending == 2  # rescheduled at the true deadline

    def test_run_until_drained(self, small_system):
        daemon = make_daemon(small_system, wave_size=1)
        small_system.advance_time(2 * YEAR)
        assert daemon.run_until_drained() == 2
        assert daemon.pending == 0
        assert daemon.backlog == 0

    def test_as_dict_shape(self, small_system):
        daemon = make_daemon(small_system)
        small_system.advance_time(YEAR)
        daemon.run_until_drained()
        stats = daemon.as_dict()
        assert stats["waves"] == 1
        assert stats["erased_total"] == 2
        assert stats["wheel"]["fired"] == 2


class TestEvidence:
    def test_wave_sealed_into_trail(self, small_system):
        daemon = make_daemon(small_system)
        small_system.advance_time(YEAR)
        daemon.run_until_drained()
        waves = small_system.evidence.find(
            lambda entry: entry["kind"] == "retention-wave"
        )
        assert len(waves) == 1
        payload = waves[0]["payload"]
        assert payload["erased"] == 2
        assert payload["wave_records"] == 2
        assert small_system.evidence.verify_chain() >= 1  # chain intact

    def test_retention_control_cites_sealed_waves(self, small_system):
        daemon = make_daemon(small_system)
        small_system.advance_time(YEAR)
        daemon.run_until_drained()
        report = small_system.audit()
        (control,) = [
            c for c in report.controls if c.control_id == "art5e-retention"
        ]
        assert control.status == "pass"
        assert "proactively enforced" in control.detail
        trail_refs = [
            e for e in control.evidence if e.ref.startswith("trail:")
        ]
        assert trail_refs
        # every cited ref resolves against the sealed trail
        from repro.obs.audit import resolve_evidence

        for evidence in trail_refs:
            entry = resolve_evidence(small_system, evidence.ref)
            assert entry["kind"] == "retention-wave"

    def test_retention_control_fails_without_daemon(self, small_system):
        """Overdue PD and no daemon: the control must go red — traffic
        not touching expired records is not compliance."""
        small_system.advance_time(YEAR)
        report = small_system.audit()
        (control,) = [
            c for c in report.controls if c.control_id == "art5e-retention"
        ]
        assert control.status == "fail"


class TestEngineLane:
    def test_waves_run_on_retention_lane(self, small_system):
        small_system.start_engine(workers=2)
        try:
            engine = small_system.engine
            submitted_lanes = []
            real_try_submit = engine.try_submit

            def spying_try_submit(fn, *args, **kwargs):
                submitted_lanes.append(kwargs.get("purpose"))
                return real_try_submit(fn, *args, **kwargs)

            engine.try_submit = spying_try_submit
            daemon = make_daemon(small_system, engine=engine)
            small_system.advance_time(YEAR)
            daemon.run_until_drained()
            assert daemon.erased_total == 2
            assert submitted_lanes == [RETENTION_LANE]
            assert engine.stats.completed >= 1
        finally:
            small_system.stop_engine()

    def test_shed_waves_return_to_backlog(self, small_system):
        """A full retention lane sheds the wave; nothing is lost — the
        uids come back through the backlog on a later tick."""

        class FullLaneEngine:
            running = True

            def try_submit(self, fn, *args, **kwargs):
                return None  # admission always refuses

        daemon = make_daemon(small_system, engine=FullLaneEngine())
        small_system.advance_time(YEAR)
        block = daemon.tick(small_system.clock.now())
        assert block["shed_waves"] == 1
        assert daemon.backlog == 2
        assert daemon.erased_total == 0
        daemon.engine = None  # lane recovered: next tick runs inline
        daemon.run_until_drained()
        assert daemon.erased_total == 2


class TestShardedFleet:
    def test_cross_shard_erasure_waves(self, shared_authority):
        os_ = RgpdOS(
            operator_name="expiry-sharded",
            authority=shared_authority,
            with_machine=False,
            pd_device_blocks=512,
            shards=3,
        )
        os_.install(LISTING1_DECLARATIONS)
        for index in range(9):
            os_.collect(
                "user",
                {"name": f"Subject {index}", "pwd": f"pwd-{index}",
                 "year_of_birthdate": 1980 + index},
                subject_id=f"s{index:02d}", method="web_form",
            )
        daemon = make_daemon(os_)
        assert daemon.pending == 9
        os_.advance_time(YEAR)
        daemon.run_until_drained()
        assert daemon.erased_total == 9
        (wave,) = os_.evidence.find(
            lambda entry: entry["kind"] == "retention-wave"
        )
        assert len(wave["payload"]["shards"]) > 1  # genuinely cross-shard


class TestSystemWiring:
    def test_start_monitors_spawns_daemon(self, small_system):
        small_system.start_monitors(expiry_daemon=True)
        try:
            assert small_system.expiry_daemon is not None
            assert small_system.expiry_daemon.pending == 2
            names = [m.name for m in small_system.monitors.monitors]
            assert "expiry-daemon" in names
        finally:
            small_system.stop_monitors()
        assert small_system.expiry_daemon is None

    def test_default_monitors_unchanged(self, small_system):
        small_system.start_monitors()
        try:
            assert small_system.expiry_daemon is None
            names = [m.name for m in small_system.monitors.monitors]
            assert "expiry-daemon" not in names
        finally:
            small_system.stop_monitors()

    def test_daemon_pass_turns_audit_green(self, small_system):
        """End to end through the system wiring: overdue PD, monitor
        round runs the daemon, audit goes green on its sealed waves."""
        small_system.start_monitors(expiry_daemon=True)
        try:
            small_system.advance_time(YEAR)
            small_system.monitors.tick_all()
            small_system.expiry_daemon.drain()
            report = small_system.audit()
            (control,) = [
                c for c in report.controls
                if c.control_id == "art5e-retention"
            ]
            assert control.status == "pass"
        finally:
            small_system.stop_monitors()
