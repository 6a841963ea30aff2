"""Always-on monitors: residue scrubber, TTL/breach/journal watchers,
and the daemon that drives them (inline, threaded, and on the engine).
"""

import hashlib
import json
import threading
import time
from collections import Counter

import pytest

from conftest import make_monitor_system
from repro import RgpdOS
from repro.core.active_data import AccessCredential
from repro.errors import PDLeakError
from repro.obs.monitors import MonitorDaemon, ResidueScrubberMonitor
from repro.storage.inode import KIND_RECORD
from repro.storage.query import DataQuery
from repro.workloads.generator import STANDARD_DECLARATIONS, PopulationGenerator

DED = AccessCredential(holder="monitor-test", is_ded=True)


@pytest.fixture
def small_system(shared_authority):
    """Machine-less system on a small device so a full scrubber sweep
    is a handful of ticks, not a thousand."""
    return make_monitor_system(shared_authority)


def plant(device, block, data):
    """Write ``data`` straight to the medium: bytes no inode owns."""
    device.write(block, data + b"\x00" * (device.block_size - len(data)))


def one_sweep(system):
    daemon = system.start_monitors()
    scrubber = daemon.monitors[0]
    assert isinstance(scrubber, ResidueScrubberMonitor)
    daemon.run_for_ticks(scrubber.ticks_per_sweep())
    assert scrubber.sweeps_completed == 1
    return system.telemetry.registry.gauge_value(
        "rgpdos.residue.device_blocks")


class TestErasureEvidence:
    def test_erasure_seals_no_needle_digests(self, small_system, tmp_path):
        """The trail names the erased subject and the residue counts,
        never the erased values or an unkeyed digest of them."""
        small_system.rights.erase("alice")
        erasures = small_system.evidence.find(
            lambda e: e["kind"] == "erasure")
        assert len(erasures) == 1
        payload = erasures[0]["payload"]
        assert "needle_digests" not in payload
        assert payload["subject_id"] == "alice"
        assert payload["residue_device_blocks"] == 0
        path = tmp_path / "trail.jsonl"
        small_system.evidence.export_jsonl(str(path))
        exported = path.read_text()
        for entry in map(json.loads, exported.splitlines()):
            assert "needle_digests" not in entry["payload"]
        for value in (b"Alice Martin", b"alice-secret-pwd"):
            assert value.decode() not in exported
            assert hashlib.sha256(value).hexdigest()[:16] not in exported


class TestResidueScrubber:
    def test_planted_residue_found_within_one_sweep(self, small_system):
        system = small_system
        system.rights.erase("alice")
        daemon = system.start_monitors()
        scrubber = daemon.monitors[0]
        assert isinstance(scrubber, ResidueScrubberMonitor)
        device = system.pd_device
        plant(device, device.block_count - 1, b"Alice Martin")
        daemon.run_for_ticks(scrubber.ticks_per_sweep())
        registry = system.telemetry.registry
        assert scrubber.sweeps_completed >= 1
        assert registry.gauge_value("rgpdos.residue.device_blocks") >= 1
        hits = system.evidence.find(
            lambda e: e["source"] == "residue-scrubber"
            and e["payload"].get("matches", 0) > 0)
        assert hits, "the crossing tick should seal a trail entry"
        assert system.evidence.verify_chain() == len(system.evidence)

    def test_planted_residue_found_without_any_erasure(self, small_system):
        """Ownership needs no needles: leftover bytes of a value no
        erasure ever named are found all the same."""
        device = small_system.pd_device
        plant(device, device.block_count - 2, b"never-erased-value")
        assert one_sweep(small_system) == 1
        hits = small_system.evidence.find(
            lambda e: e["source"] == "residue-scrubber"
            and e["payload"].get("matches", 0) > 0)
        assert hits and hits[0]["payload"]["blocks"] == [
            [0, device.block_count - 2]]

    def test_clean_sweep_reports_zero(self, small_system):
        system = small_system
        system.rights.erase("alice")
        daemon = system.start_monitors()
        scrubber = daemon.monitors[0]
        daemon.run_for_ticks(scrubber.ticks_per_sweep())
        registry = system.telemetry.registry
        assert scrubber.sweeps_completed == 1
        assert registry.gauge_value("rgpdos.residue.device_blocks") == 0
        assert registry.counter(
            "rgpdos.residue.scanned_blocks").value >= scrubber.device_span

    def test_sweep_sum_matches_one_shot_scan(self, small_system):
        """The windows of one sweep add up to the one-shot unowned set
        — the incremental scan is the one-shot scan, split up."""
        system = small_system
        system.rights.erase("alice")
        dbfs = system.dbfs
        device = system.pd_device
        plant(device, device.block_count - 1, b"Alice Martin")
        plant(device, device.block_count - 3, b"Alice Martin")
        one_shot = dbfs.unowned_blocks(0, device.block_count)
        windows = []
        for start in range(0, device.block_count,
                           ResidueScrubberMonitor.SAMPLE_BLOCKS):
            windows += dbfs.unowned_blocks(
                start, start + ResidueScrubberMonitor.SAMPLE_BLOCKS)
        assert windows == one_shot == [
            device.block_count - 3, device.block_count - 1]

    def test_store_in_flight_is_not_residue(self, small_system):
        """A writer's extent is non-empty before its inode owns it; the
        re-check under the write lock waits for the writer to finish."""
        dbfs = small_system.dbfs
        device = small_system.pd_device
        written = threading.Event()

        def writer():
            with dbfs.write_lock("any"):
                block = device.allocate()
                device.write(block, b"record in flight")
                written.set()
                time.sleep(0.2)  # the scan reaches the lock meanwhile
                dbfs.inodes.allocate(KIND_RECORD).blocks = [block]

        thread = threading.Thread(target=writer)
        thread.start()
        assert written.wait(timeout=5)
        assert dbfs.unowned_blocks(0, device.block_count) == []
        thread.join(timeout=5)
        assert not thread.is_alive()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_indexed_store_sweep_reports_zero(self, shared_authority, shards):
        """A city index page lists *other* live subjects with the erased
        subject's city; it is owned, so it is not residue."""
        system = RgpdOS(
            operator_name="monitor-test", authority=shared_authority,
            with_machine=False, pd_device_blocks=1024, shards=shards,
        )
        system.install(STANDARD_DECLARATIONS)
        system.dbfs.create_index("user", "city", DED)
        subjects = PopulationGenerator(seed=17).subjects(40)
        for subject in subjects:
            system.collect("user", subject.user_record(),
                           subject_id=subject.subject_id, method="web_form")
        city, _ = Counter(s.city for s in subjects).most_common(1)[0]
        victim = next(s for s in subjects if s.city == city)
        system.rights.erase(victim.subject_id)
        assert one_sweep(system) == 0


class TestWatchers:
    def test_ttl_watcher_counts_overdue(self, small_system):
        system = small_system
        daemon = system.start_monitors()
        ttl_watcher = daemon.monitors[1]
        assert ttl_watcher.tick(system.clock.now())["overdue"] == 0
        system.advance_time(400 * 86400)
        payload = ttl_watcher.tick(system.clock.now())
        assert payload["overdue"] == 2
        registry = system.telemetry.registry
        assert registry.gauge_value("rgpdos.audit.ttl_overdue") == 2
        # unchanged count is not significant — no duplicate sealing
        assert ttl_watcher.tick(system.clock.now()) is None

    def test_breach_watcher_countdown(self, small_system):
        system = small_system
        daemon = system.start_monitors()
        breach_watcher = daemon.monitors[2]
        breach_watcher.tick(system.clock.now())
        outsider = AccessCredential(holder="attacker", is_ded=False)
        for _ in range(6):
            with pytest.raises(PDLeakError):
                system.dbfs.fetch_records(
                    DataQuery(uids=tuple(system.dbfs.all_uids()[:1])),
                    outsider,
                )
        payload = breach_watcher.tick(system.clock.now())
        assert payload["notifiable"] == 1
        assert payload["pending"] == 1
        assert payload["new_indicators"]
        registry = system.telemetry.registry
        assert 0 < registry.gauge_value(
            "rgpdos.audit.breach_countdown_seconds") <= 72 * 3600
        system.advance_time(73 * 3600)
        payload = breach_watcher.tick(system.clock.now())
        assert payload["overdue"] == 1
        assert registry.gauge_value("rgpdos.audit.breach_overdue") == 1

    def test_journal_watcher_publishes_utilization(self, small_system):
        system = small_system
        daemon = system.start_monitors()
        journal_watcher = daemon.monitors[3]
        payload = journal_watcher.tick(system.clock.now())
        assert payload["over_threshold"] is False
        assert payload["live_records"] == len(system.dbfs.shards[0].journal)
        registry = system.telemetry.registry
        assert registry.gauge_value(
            "rgpdos.audit.journal_utilization_pct") >= 0
        assert journal_watcher.tick(system.clock.now()) is None


class TestDaemon:
    def test_tick_all_seals_significant_payloads(self, small_system):
        system = small_system
        daemon = system.start_monitors()
        before = len(system.evidence)
        daemon.tick_all()  # first tick: watchers report initial state
        assert len(system.evidence) > before
        assert system.evidence.verify_chain() == len(system.evidence)
        registry = system.telemetry.registry
        assert registry.counter("rgpdos.audit.monitor_ticks").value == 1
        assert registry.gauge_value("rgpdos.audit.evidence_entries") == \
            len(system.evidence)

    def test_quiet_ticks_seal_nothing(self, small_system):
        daemon = small_system.start_monitors()
        daemon.tick_all()
        sealed = daemon.run_for_ticks(5)
        assert sealed == 0

    def test_start_monitors_idempotent_and_stats_block(self, small_system):
        daemon = small_system.start_monitors()
        assert small_system.start_monitors() is daemon
        daemon.run_for_ticks(2)
        block = small_system.stats()["monitors"]
        assert block["ticks"] == 2
        assert block["monitors"] == [
            "residue-scrubber", "ttl-watcher", "breach-watcher",
            "journal-watcher",
        ]
        small_system.stop_monitors()
        assert small_system.monitors is None

    def test_background_thread_ticks(self, small_system):
        daemon = small_system.start_monitors(
            interval_seconds=0.001, background=True)
        assert daemon.running
        import time
        deadline = time.monotonic() + 5.0
        while daemon.ticks < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
        small_system.stop_monitors()
        assert daemon.ticks >= 3
        assert not daemon.running
        assert small_system.evidence.verify_chain() == \
            len(small_system.evidence)

    def test_ticks_ride_the_engine_monitor_lane(self, small_system):
        system = small_system
        system.start_engine(workers=2)
        try:
            daemon = system.start_monitors()
            assert daemon.as_dict()["on_engine"] is True
            before = system.engine.stats.completed
            daemon.run_for_ticks(3)
            # Monitor ticks ran as engine requests (shed ones fall back
            # inline, but a 2-worker idle engine accepts them all).
            assert system.engine.stats.completed >= before + 1
            assert daemon.ticks == 3
        finally:
            system.stop_monitors()
            system.stop_engine()

    def test_inline_fallback_without_engine(self, small_system):
        trail = small_system.evidence
        daemon = MonitorDaemon(
            monitors=small_system.start_monitors().monitors,
            clock=small_system.clock,
            trail=trail,
            telemetry=small_system.telemetry,
            engine=None,
        )
        daemon.tick_all()
        assert daemon.ticks == 1
