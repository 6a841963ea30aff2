"""Unit tests for the Data Execution Domain pipeline."""

import pytest

import helpers
from repro import errors
from repro.baseline.gdprbench import PURPOSE_ANALYTICS, RgpdOSAdapter
from repro.core.ded import STAGES
from repro.core.processing_log import OUTCOME_COMPLETED, OUTCOME_DENIED
from repro.kernel.seccomp import FilterRule, pd_function_profile
from repro.workloads.generator import PopulationGenerator


@pytest.fixture
def ready(populated):
    """Populated system with the Listing-2 processing registered."""
    system, alice, bob = populated
    system.register(helpers.compute_age)
    system.register(helpers.birth_decade)
    system.register(helpers.full_profile)
    system.register(helpers.marketing_blast)
    return system, alice, bob


class TestPipelineHappyPath:
    def test_type_target_processes_all_consented(self, ready):
        system, _, _ = ready
        result = system.invoke("birth_decade", target="user")
        assert result.processed == 2
        assert sorted(result.values.values()) == [1980, 1990]

    def test_ref_target_processes_one(self, ready):
        system, alice, _ = ready
        result = system.invoke("birth_decade", target=alice)
        assert result.processed == 1
        assert result.values[alice.uid] == 1990

    def test_ref_list_target(self, ready):
        system, alice, bob = ready
        result = system.invoke("birth_decade", target=[alice, bob])
        assert result.processed == 2

    def test_subject_filter(self, ready):
        system, _, _ = ready
        result = system.invoke("birth_decade", target="user", subject_id="bob")
        assert result.processed == 1
        assert list(result.values.values()) == [1980]

    def test_produced_pd_returned_as_refs_only(self, ready):
        system, _, _ = ready
        result = system.invoke("compute_age", target="user")
        assert len(result.produced) == 2
        for ref in result.produced:
            assert ref.pd_type == "age_pd"
            assert ref.uid.startswith("pd:age_pd:")
        # And the ages are actually in DBFS, queryable via purpose1.
        assert len(system.dbfs.all_uids()) == 4

    def test_every_stage_charged(self, ready):
        system, _, _ = ready
        result = system.invoke("birth_decade", target="user")
        for stage in STAGES:
            assert stage in result.trace.simulated_seconds
        assert result.trace.simulated_seconds["ded_load_membrane"] > 0
        assert result.trace.counts["membranes_loaded"] == 2

    def test_clock_advances_with_pipeline(self, ready):
        system, _, _ = ready
        before = system.clock.now()
        system.invoke("birth_decade", target="user")
        assert system.clock.now() > before


class TestConsentFiltering:
    def test_unconsented_purpose_denied(self, ready):
        system, _, _ = ready
        result = system.invoke("marketing_blast", target="user")
        assert result.processed == 0
        assert result.denied == 2
        assert result.values == {}

    def test_view_restriction_enforced(self, ready):
        """purpose3 is consented via v_ano: the function must not see
        name/pwd even though they exist in the record."""
        system, alice, _ = ready
        result = system.invoke("full_profile", target=alice)
        # full_profile runs under purpose1 (all) — it sees everything.
        assert result.values[alice.uid]["name"] == "Alice Martin"
        # birth_decade under purpose3 sees only the view.
        log_before = len(system.log)
        result = system.invoke("birth_decade", target=alice)
        entry = system.log.entries()[log_before]
        read_access = [a for a in entry.accesses if a.mode == "read"][0]
        assert read_access.fields == ("year_of_birthdate",)

    def test_revoked_consent_denies(self, ready):
        system, alice, _ = ready
        system.rights.object_to("alice", "purpose3")
        result = system.invoke("birth_decade", target=alice)
        assert result.processed == 0
        assert result.denied == 1

    def test_denied_invocation_logged(self, ready):
        system, _, _ = ready
        system.invoke("marketing_blast", target="user")
        denials = [
            e for e in system.log.entries() if e.outcome == OUTCOME_DENIED
        ]
        assert len(denials) == 1
        assert denials[0].purpose == "purpose2"

    def test_expired_pd_skipped(self, ready):
        system, _, _ = ready
        system.advance_time(2 * 365 * 86400.0)  # past the 1Y TTL
        result = system.invoke("birth_decade", target="user")
        assert result.processed == 0
        assert result.expired == 2


class TestTargetValidation:
    def test_purpose_must_declare_type(self, ready):
        system, _, _ = ready
        with pytest.raises(errors.InvocationError):
            system.invoke("birth_decade", target="age_pd")

    def test_empty_ref_list_rejected(self, ready):
        system, _, _ = ready
        with pytest.raises(errors.InvocationError):
            system.invoke("birth_decade", target=[])

    def test_mixed_type_refs_rejected(self, ready):
        system, alice, _ = ready
        ages = system.invoke("compute_age", target="user").produced
        with pytest.raises(errors.InvocationError):
            system.invoke("birth_decade", target=[alice, ages[0]])

    def test_unknown_type_rejected(self, ready):
        system, _, _ = ready
        with pytest.raises(errors.UnknownTypeError):
            system.invoke("birth_decade", target="ghost_type")


class TestExecutionContainment:
    def test_per_record_errors_contained(self, populated):
        system, alice, bob = populated
        system.register(helpers.crashes_sometimes)
        result = system.invoke("crashes_sometimes", target="user")
        # Bob's record (1985) crashes; Alice's still processes.
        assert result.values[alice.uid] == 1990
        assert bob.uid in result.errors
        assert "synthetic failure" in result.errors[bob.uid]

    def test_raw_view_return_blocked(self, populated):
        system, alice, _ = populated
        system.register(helpers.returns_raw_view)
        with pytest.raises(errors.PDLeakError):
            system.invoke("returns_raw_view", target=alice)

    def test_leak_attempt_logged_as_error(self, populated):
        system, alice, _ = populated
        system.register(helpers.returns_raw_view)
        with pytest.raises(errors.PDLeakError):
            system.invoke("returns_raw_view", target=alice)
        assert any(e.outcome == "error" for e in system.log.entries())


class TestAggregateProcessing:
    def test_aggregate_called_once_with_all_views(self, populated):
        system, _, _ = populated
        system.register(helpers.average_birth_year, aggregate=True)
        result = system.invoke("average_birth_year", target="user")
        assert result.values["__aggregate__"] == (1990 + 1985) / 2
        assert result.processed == 2


class TestProduceMarkerValidation:
    def test_undeclared_production_rejected(self, populated):
        system, alice, _ = populated

        from repro.core.purposes import attach_purpose

        def rogue_producer(user):
            from repro import produce
            return produce("user", {"name": "fake", "pwd": "x",
                                    "year_of_birthdate": 1})

        attach_purpose(rogue_producer, "purpose3")
        system.register(rogue_producer, sysadmin_approved=True)
        with pytest.raises(errors.InvocationError):
            system.invoke("rogue_producer", target=alice)


class TestNoPerInvocationFilter:
    def test_invocations_build_no_seccomp_rules(self, monkeypatch):
        """A DED installs no seccomp filter, so it must not build one."""
        adapter = RgpdOSAdapter(with_machine=False)
        subjects = PopulationGenerator(seed=5).subjects(10)
        keys = adapter.insert_many([
            (subject, {PURPOSE_ANALYTICS: "v_ano"} if index % 3 else {})
            for index, subject in enumerate(subjects)
        ])
        built = []
        validate = FilterRule.__post_init__

        def counting_post_init(rule):
            built.append(rule.syscall)
            validate(rule)

        monkeypatch.setattr(FilterRule, "__post_init__", counting_post_init)
        for index in range(100):
            adapter.read(keys[index % len(keys)], PURPOSE_ANALYTICS)
        assert built == []
        pd_function_profile()
        assert built  # the counter does see a profile build
