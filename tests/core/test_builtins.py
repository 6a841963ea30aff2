"""Unit tests for the built-in F_pd^w functions."""

import pytest

from repro import RgpdOS, errors
from repro.core.views import SCOPE_ALL
from repro.workloads.generator import STANDARD_DECLARATIONS, PopulationGenerator


class TestAcquisition:
    def test_collect_builds_membrane(self, system):
        ref = system.collect(
            "user",
            {"name": "Ada", "pwd": "p", "year_of_birthdate": 1815},
            subject_id="ada",
            method="web_form",
        )
        membrane = system.dbfs.get_membrane(
            ref.uid, system.ps.builtins.credential
        )
        assert membrane.subject_id == "ada"
        assert membrane.origin == "subject"
        assert membrane.collection == {"web_form": "user_form.html"}
        assert membrane.permits("purpose1") == "all"   # type default
        assert membrane.permits("purpose3") == "v_ano"

    def test_undeclared_collection_method_rejected(self, system):
        with pytest.raises(errors.GDPRError):
            system.collect(
                "user",
                {"name": "A", "pwd": "p", "year_of_birthdate": 1},
                subject_id="a",
                method="carrier_pigeon",
            )

    def test_extra_consents_recorded_with_subject_as_granter(self, system):
        ref = system.collect(
            "user",
            {"name": "A", "pwd": "p", "year_of_birthdate": 1},
            subject_id="a",
            method="web_form",
            consents={"purpose2": "v_name"},
        )
        membrane = system.dbfs.get_membrane(
            ref.uid, system.ps.builtins.credential
        )
        assert membrane.permits("purpose2") == "v_name"
        assert membrane.consents["purpose2"].granted_by == "a"

    def test_acquisition_logged(self, system):
        system.collect(
            "user",
            {"name": "A", "pwd": "p", "year_of_birthdate": 1},
            subject_id="a",
            method="web_form",
        )
        entry = system.log.entries()[-1]
        assert entry.purpose == "acquisition"
        assert "web_form" in entry.detail

    def test_invalid_record_rejected(self, system):
        with pytest.raises(errors.SchemaViolationError):
            system.collect(
                "user",
                {"name": "A", "pwd": "p"},  # missing year
                subject_id="a",
                method="web_form",
            )


class TestUpdate:
    def test_subject_can_update_own(self, populated):
        system, alice, _ = populated
        system.invoke(
            "update", target=alice,
            changes={"year_of_birthdate": 1991}, actor="alice",
        )
        result = system.dbfs.fetch_records.__self__  # noqa: B018 - just touch
        membrane_cred = system.ps.builtins.credential
        from repro.storage.query import DataQuery
        records = system.dbfs.fetch_records(
            DataQuery(uids=(alice.uid,),
                      fields={alice.uid: frozenset({"year_of_birthdate"})}),
            membrane_cred,
        )
        assert records[alice.uid]["year_of_birthdate"] == 1991

    def test_sysadmin_can_update(self, populated):
        system, alice, _ = populated
        system.invoke(
            "update", target=alice,
            changes={"name": "Alice M."}, actor="sysadmin",
        )

    def test_stranger_cannot_update(self, populated):
        system, alice, _ = populated
        with pytest.raises(errors.ConsentDenied):
            system.invoke(
                "update", target=alice,
                changes={"name": "Mallory"}, actor="mallory",
            )

    def test_other_subject_cannot_update(self, populated):
        system, alice, _ = populated
        with pytest.raises(errors.ConsentDenied):
            system.invoke(
                "update", target=alice,
                changes={"name": "x"}, actor="bob",
            )


class TestCopy:
    def test_copy_duplicates_data_and_membrane(self, populated):
        system, alice, _ = populated
        copy_ref = system.invoke("copy", target=alice, actor="alice")
        assert copy_ref.uid != alice.uid
        assert copy_ref.subject_id == "alice"
        builtins = system.ps.builtins
        original = system.dbfs.get_membrane(alice.uid, builtins.credential)
        clone = system.dbfs.get_membrane(copy_ref.uid, builtins.credential)
        assert original.lineage == clone.lineage == alice.uid
        assert {p: d.scope for p, d in original.consents.items()} == {
            p: d.scope for p, d in clone.consents.items()
        }

    def test_lineage_of_lists_all_copies(self, populated):
        system, alice, _ = populated
        builtins = system.ps.builtins
        c1 = builtins.copy(alice, actor="alice")
        c2 = builtins.copy(alice, actor="alice")
        assert set(builtins.lineage_of(alice.uid)) == {
            alice.uid, c1.uid, c2.uid
        }

    def test_consent_change_propagates_to_copies(self, populated):
        system, alice, _ = populated
        builtins = system.ps.builtins
        copy_ref = builtins.copy(alice, actor="alice")
        updated = builtins.apply_membrane_change(
            alice.uid, lambda m: m.grant("purpose2", SCOPE_ALL, at=1.0)
        )
        assert set(updated) == {alice.uid, copy_ref.uid}
        clone = system.dbfs.get_membrane(copy_ref.uid, builtins.credential)
        assert clone.permits("purpose2") == SCOPE_ALL

    def test_copy_of_erased_rejected(self, populated):
        system, alice, _ = populated
        system.ps.builtins.delete(alice, actor="alice")
        with pytest.raises(errors.ErasureError):
            system.ps.builtins.copy(alice, actor="alice")

    def test_stranger_cannot_copy(self, populated):
        system, alice, _ = populated
        with pytest.raises(errors.ConsentDenied):
            system.ps.builtins.copy(alice, actor="eve")


class TestDelete:
    def test_delete_erases_whole_lineage(self, populated):
        system, alice, _ = populated
        builtins = system.ps.builtins
        copy_ref = builtins.copy(alice, actor="alice")
        report = builtins.delete(alice, actor="alice")
        assert set(report.erased_lineage) == {alice.uid, copy_ref.uid}
        assert report.fully_forgotten

    def test_delete_leaves_no_plaintext_residue(self, populated):
        system, alice, _ = populated
        report = system.ps.builtins.delete(alice, actor="alice")
        assert report.residue_device_blocks == 0
        assert report.residue_journal_records == 0
        scan = system.dbfs.forensic_scan(b"Alice Martin")
        assert scan["device_blocks"] == 0

    def test_escrow_recoverable_by_authority_only(self, populated):
        import json

        system, alice, _ = populated
        system.ps.builtins.delete(alice, mode="escrow", actor="alice")
        blob = system.dbfs.escrow_blob(alice.uid)
        assert system.operator_key.can_decrypt(blob) is False
        recovered = json.loads(system.authority.recover(blob))
        assert recovered["name"] == "Alice Martin"

    def test_erase_mode_keeps_no_blob(self, populated):
        system, alice, _ = populated
        system.ps.builtins.delete(alice, mode="erase", actor="alice")
        with pytest.raises(errors.UnknownRecordError):
            system.dbfs.escrow_blob(alice.uid)

    def test_stranger_cannot_delete(self, populated):
        system, alice, _ = populated
        with pytest.raises(errors.ConsentDenied):
            system.ps.builtins.delete(alice, actor="eve")

    def test_delete_without_copies_option(self, populated):
        system, alice, _ = populated
        builtins = system.ps.builtins
        copy_ref = builtins.copy(alice, actor="alice")
        report = builtins.delete(alice, actor="alice", include_copies=False)
        assert report.erased_lineage == [alice.uid]
        clone = system.dbfs.get_membrane(copy_ref.uid, builtins.credential)
        assert not clone.erased


class TestIndexedErasure:
    """A durable ``city`` index page lists other live subjects with the
    erased subject's city.  Values there are legitimate; only the
    erased uid must leave the page."""

    @pytest.fixture(params=[1, 4])
    def indexed(self, request, shared_authority):
        system = RgpdOS(
            operator_name="indexed-erase", authority=shared_authority,
            with_machine=False, pd_device_blocks=4096, shards=request.param,
        )
        system.install(STANDARD_DECLARATIONS)
        system.dbfs.create_index(
            "user", "city", system.ps.builtins.credential)
        subjects = PopulationGenerator(seed=29).subjects(200)
        for subject in subjects:
            system.collect("user", subject.user_record(),
                           subject_id=subject.subject_id, method="web_form")
        return system, subjects

    def test_erase_reports_zero_residue(self, indexed):
        system, subjects = indexed
        for subject in subjects[:10]:
            outcome = system.rights.erase(subject.subject_id)
            for report in outcome.reports:
                assert report.residue_device_blocks == 0, subject.city
                assert report.fully_forgotten

    def test_erased_uid_left_in_index_page_is_residue(self, indexed):
        system, subjects = indexed
        victim = subjects[0]
        outcome = system.rights.erase(victim.subject_id)
        uid = outcome.reports[0].uid
        shard = system.dbfs.shard_for_subject(victim.subject_id)
        residue = system.dbfs.residue_counts(
            [victim.city.encode()], subject_id=victim.subject_id, uids=[uid])
        assert residue["device_blocks"] == 0
        # A stale entry that still names the erased uid is residue.
        shard._field_indexes[("user", "city")].add(victim.city, uid)
        residue = system.dbfs.residue_counts(
            [victim.city.encode()], subject_id=victim.subject_id, uids=[uid])
        assert residue["device_blocks"] >= 1
