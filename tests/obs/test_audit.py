"""The article-indexed audit engine: verdicts, evidence, rendering."""

import json

import pytest

from repro import RgpdOS, errors
from repro.core.active_data import AccessCredential
from repro.core.purposes import attach_purpose
from repro.errors import PDLeakError
from repro.obs.audit import (
    CONTROLS,
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_WARN,
    AuditEngine,
    resolve_evidence,
)
from repro.storage.query import DataQuery
from conftest import LISTING1_DECLARATIONS, make_monitor_system


def exercise(system):
    """Register and run the Listing-3 processing so the log has
    completed entries under a view-scoped consent purpose."""

    def compute_age(user):
        from repro.core.ded import produce

        if user.year_of_birthdate:
            return produce("age_pd", {"age": 2026 - user.year_of_birthdate})
        return None

    attach_purpose(compute_age, "purpose3")
    system.register(compute_age, sysadmin_approved=True)
    return system.invoke("compute_age", target="user")


def trigger_notifiable_breach(system):
    outsider = AccessCredential(holder="attacker", is_ded=False)
    for _ in range(6):
        with pytest.raises(PDLeakError):
            system.dbfs.fetch_records(
                DataQuery(uids=tuple(system.dbfs.all_uids()[:1])), outsider
            )
    report = system.breach_monitor.scan()
    assert report.notifiable
    return report


class TestReportShape:
    def test_compliant_system_passes(self, populated):
        system, _, _ = populated
        exercise(system)
        report = system.audit()
        assert report.ok
        assert "COMPLIANT" in report.summary()
        # One row per control of the 11-row table, in table order.
        assert [c.control_id for c in report.controls] == \
            [row[0] for row in CONTROLS]
        assert len(CONTROLS) == 11
        assert len({row[0] for row in CONTROLS}) == 11
        assert all(c.status != STATUS_FAIL for c in report.controls)
        # Only Art. 5(1)(c) may warn (purpose2 uses the whole type).
        assert {c.control_id for c in report.controls
                if c.status != STATUS_PASS} <= {"art5c-minimisation"}

    def test_every_control_carries_evidence(self, populated):
        system, _, _ = populated
        exercise(system)
        report = system.audit()
        for control in report.controls:
            assert control.evidence, f"{control.control_id} has no evidence"

    def test_every_evidence_ref_resolves(self, populated):
        """The acceptance criterion: each verdict's references resolve
        against the live system (processing log, registry, membranes)."""
        system, _, _ = populated
        exercise(system)
        report = system.audit()
        for control in report.controls:
            for item in control.evidence:
                resolved = resolve_evidence(system, item.ref)
                assert resolved is not None, (control.control_id, item.ref)

    def test_metric_evidence_data_matches_resolved_value(self, populated):
        """A ``metric:`` item's data is the value its ref resolves to
        right after the run — no stale counts, no booleans standing in
        for a count."""
        system, _, _ = populated
        report = system.audit()
        items = [(c.control_id, item) for c in report.controls
                 for item in c.evidence if item.ref.startswith("metric:")]
        assert items
        for control_id, item in items:
            assert item.data == resolve_evidence(system, item.ref), (
                control_id, item.ref)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_one_membrane_read_per_run(
        self, shared_authority, monkeypatch, shards
    ):
        system = RgpdOS(operator_name="scan-count",
                        authority=shared_authority, with_machine=False,
                        shards=shards)
        system.install(LISTING1_DECLARATIONS)
        for index in range(6):
            system.collect("user", {"name": f"User {index}", "pwd": "pw",
                                    "year_of_birthdate": 1980 + index},
                           subject_id=f"s{index}", method="web_form")
        system.rights.erase("s0")
        reads = []
        real = system.dbfs.iter_membranes

        def counting(*args, **kwargs):
            reads.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(system.dbfs, "iter_membranes", counting)
        assert system.audit().ok
        assert len(reads) == 1

    def test_unknown_refs_raise(self, populated):
        system, _, _ = populated
        for ref in ("metric:rgpdos.no.such.gauge", "log:entry:999999",
                    "membrane:nope", "purpose:nope", "breach:42",
                    "bogus:thing"):
            with pytest.raises(errors.GDPRError):
                resolve_evidence(system, ref)

    def test_run_seals_trail_entry_and_head(self, populated):
        system, _, _ = populated
        before = len(system.evidence)
        report = system.audit()
        assert len(system.evidence) == before + 1
        assert report.evidence_head == system.evidence.head
        sealed = system.evidence.entries()[-1]
        assert sealed["kind"] == "audit"
        assert sealed["payload"]["compliant"] is True
        assert system.evidence.verify_chain() == before + 1

    def test_verdict_gauges_published(self, populated):
        system, _, _ = populated
        report = system.audit()
        counts = report.counts()
        registry = system.telemetry.registry
        assert registry.gauge_value("rgpdos.audit.controls_pass") == \
            counts[STATUS_PASS]
        assert registry.gauge_value("rgpdos.audit.controls_fail") == \
            counts[STATUS_FAIL]
        assert registry.gauge_value("rgpdos.audit.log_entries") == \
            len(system.log)

    def test_json_rendering(self, populated):
        system, _, _ = populated
        exercise(system)
        report = system.audit()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["compliant"] is True
        assert payload["counts"]["fail"] == 0
        assert len(payload["controls"]) == len(report.controls)
        assert all(c["evidence"] for c in payload["controls"])

    def test_markdown_rendering_groups_by_article(self, populated):
        system, _, _ = populated
        exercise(system)
        text = system.audit().to_markdown()
        assert text.startswith("# GDPR compliance audit")
        for heading in ("## Art. 6", "## Art. 30", "## Art. 32",
                        "## Art. 33", "## Art. 5(1)(c)", "## Art. 5(1)(e)"):
            assert heading in text
        assert "Evidence:" in text

    def test_last_report_cached(self, populated):
        system, _, _ = populated
        assert system.audit_engine.last_report is None
        report = system.audit()
        assert system.audit_engine.last_report is report
        assert system.stats()["audit"]["last_report"] == report.summary()


class TestFailures:
    def test_ttl_overdue_fails_retention(self, populated):
        system, _, _ = populated
        system.advance_time(400 * 86400)  # 1Y TTL long gone
        report = system.audit()
        assert not report.ok
        by_id = {c.control_id: c for c in report.controls}
        retention = by_id["art5e-retention"]
        assert retention.status == STATUS_FAIL
        assert any(e.ref.startswith("membrane:") for e in retention.evidence)
        assert int(resolve_evidence(
            system, "metric:rgpdos.audit.ttl_overdue")) == 2
        assert "NON-COMPLIANT" in report.summary()

    def test_overdue_breach_fails_art33(self, populated):
        system, _, _ = populated
        trigger_notifiable_breach(system)
        system.advance_time(73 * 3600)
        report = system.audit()
        by_id = {c.control_id: c for c in report.controls}
        assert by_id["art33-breach"].status == STATUS_FAIL
        assert any(e.ref.startswith("breach:")
                   for e in by_id["art33-breach"].evidence)
        assert not report.ok

    def test_pending_breach_warns_with_countdown(self, populated):
        system, _, _ = populated
        trigger_notifiable_breach(system)
        system.advance_time(3600)
        report = system.audit()
        by_id = {c.control_id: c for c in report.controls}
        assert by_id["art33-breach"].status == STATUS_WARN
        countdown = resolve_evidence(
            system, "metric:rgpdos.audit.breach_countdown_seconds")
        assert 0 < countdown <= 71 * 3600

    def test_notified_breach_passes_again(self, populated):
        system, _, _ = populated
        report = trigger_notifiable_breach(system)
        system.breach_monitor.mark_notified(report)
        system.advance_time(100 * 3600)  # deadline long past — but notified
        audit = system.audit()
        by_id = {c.control_id: c for c in audit.controls}
        assert by_id["art33-breach"].status == STATUS_PASS

    @pytest.mark.parametrize("planted", [True, False])
    def test_residue_sweep_drives_art17(self, shared_authority, planted):
        """The Art. 17 control cites the last completed scrubber sweep
        and fails when it found an unowned non-empty block."""
        system = make_monitor_system(shared_authority)
        system.rights.erase("alice")
        device = system.pd_device
        if planted:
            device.write(device.block_count - 1, b"Alice Martin")
        daemon = system.start_monitors()
        daemon.run_for_ticks(daemon.monitors[0].ticks_per_sweep())
        report = system.audit()
        by_id = {c.control_id: c for c in report.controls}
        art17 = by_id["art17-erased-unreadable"]
        cited = {e.ref: e.data for e in art17.evidence}
        assert cited["metric:rgpdos.residue.device_blocks"] == (
            1 if planted else 0)
        assert art17.status == (STATUS_FAIL if planted else STATUS_PASS)
        assert report.ok is not planted
        assert "metric:rgpdos.residue.device_blocks" not in {
            e.ref for e in by_id["art5e-retention"].evidence}

    def test_standalone_engine_matches_system_engine(self, populated):
        system, _, _ = populated
        report = AuditEngine(system).run()
        assert {c.control_id for c in report.controls} == \
            {c.control_id for c in system.audit().controls}


class TestLawfulBasisAndRecords:
    def test_withdrawn_consent_after_processing_warns(self, populated):
        system, alice, bob = populated
        exercise(system)  # purpose3 completes under consent
        system.rights.object_to("alice", "purpose3")
        system.rights.object_to("bob", "purpose3")
        report = system.audit()
        by_id = {c.control_id: c for c in report.controls}
        assert by_id["art6-lawful-basis"].status == STATUS_WARN
        assert "purpose3" in by_id["art6-lawful-basis"].detail

    def test_rogue_log_entry_fails_art30(self, populated):
        system, _, _ = populated
        system.log.record(
            at=system.clock.now(), purpose="smuggled",
            processing="direct-call", outcome="completed", via_ps=False,
        )
        report = system.audit()
        by_id = {c.control_id: c for c in report.controls}
        assert by_id["art30-records"].status == STATUS_FAIL
        assert "bypassed the PS" in by_id["art30-records"].detail

    def test_log_evidence_cites_real_entries(self, populated):
        system, _, _ = populated
        exercise(system)
        report = system.audit()
        by_id = {c.control_id: c for c in report.controls}
        refs = [e.ref for c in ("art6-lawful-basis", "art30-records")
                for e in by_id[c].evidence if e.ref.startswith("log:entry:")]
        assert refs
        for ref in refs:
            entry = resolve_evidence(system, ref)
            assert entry["entry_id"] == int(ref.rsplit(":", 1)[1])
