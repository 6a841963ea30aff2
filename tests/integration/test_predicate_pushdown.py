"""Integration: predicate pushdown through ps_invoke (where=...)."""

import pytest

import helpers
from repro import errors
from repro.storage.query import Predicate


@pytest.fixture
def ready(populated):
    system, alice, bob = populated
    system.register(helpers.birth_decade)
    return system, alice, bob


class TestWhereClause:
    def test_predicate_narrows_candidates(self, ready):
        system, alice, bob = ready
        result = system.invoke(
            "birth_decade", target="user",
            where=Predicate("year_of_birthdate", "lt", 1988),
        )
        # Only bob (1985) matches; alice (1990) is not even a candidate.
        assert set(result.values) == {bob.uid}
        assert result.trace.counts["membranes_loaded"] == 1

    def test_predicate_before_membrane_load(self, ready):
        """The pushdown happens at ded_type2req: non-matching PD costs
        no membrane load at all."""
        system, _, _ = ready
        result = system.invoke(
            "birth_decade", target="user",
            where=Predicate("year_of_birthdate", "gt", 2020),
        )
        assert result.trace.counts["membranes_loaded"] == 0
        assert result.processed == 0

    def test_consent_still_filters_after_pushdown(self, ready):
        system, alice, bob = ready
        system.rights.object_to("bob", "purpose3")
        result = system.invoke(
            "birth_decade", target="user",
            where=Predicate("year_of_birthdate", "lt", 1988),
        )
        # bob matches the predicate but revoked consent: denied.
        assert result.processed == 0
        assert result.denied == 1

    def test_unknown_field_rejected(self, ready):
        system, _, _ = ready
        with pytest.raises(errors.InvocationError):
            system.invoke(
                "birth_decade", target="user",
                where=Predicate("shoe_size", "eq", 42),
            )

    def test_where_with_ref_list_intersects(self, ready):
        system, alice, bob = ready
        result = system.invoke(
            "birth_decade", target=[alice, bob],
            where=Predicate("year_of_birthdate", "ge", 1988),
        )
        assert set(result.values) == {alice.uid}

    def test_indexed_pushdown_same_answer(self, ready):
        system, alice, bob = ready
        wheres = [Predicate("year_of_birthdate", "lt", 1988)] + [
            # A str value on an int field: no record matches (every
            # record carrying the field matches ``ne``), indexed or not.
            [Predicate("year_of_birthdate", op, "1990")]
            for op in ("eq", "ne", "lt", "le", "gt", "ge")
        ] + [[
            Predicate("year_of_birthdate", "ge", "1990"),
            Predicate("year_of_birthdate", "lt", 2000),
        ]]

        def answers():
            out = []
            for where in wheres:
                logged = len(system.log)
                result = system.invoke("birth_decade", target="user",
                                       where=where)
                assert len(system.log) == logged + 1
                out.append((result.processed, result.values))
            return out

        unindexed = answers()
        assert unindexed[1] == (0, {})
        assert unindexed[2][0] == 2
        system.dbfs.create_index(
            "user", "year_of_birthdate", system.ps.builtins.credential
        )
        assert answers() == unindexed
