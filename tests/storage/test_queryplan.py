"""Tests for index cardinality stats, the query planner, and planned selection."""

import pytest

from repro import errors
from repro.core.active_data import AccessCredential
from repro.core.crypto import Authority
from repro.core.datatypes import FieldDef, PDType
from repro.core.membrane import membrane_for_type
from repro.core.views import View
from repro.storage.btree import FieldIndex
from repro.storage.dbfs import DatabaseFS
from repro.storage.planner import (
    STRATEGY_INDEX,
    STRATEGY_SCAN,
    plan_query,
)
from repro.storage.query import (
    DeleteRequest,
    Predicate,
    StoreRequest,
    UpdateRequest,
    parse_predicate,
)
from repro.storage.shard import ShardedDBFS

DED = AccessCredential(holder="plan-ded", is_ded=True)


# ---------------------------------------------------------------------------
# FieldIndex cardinality stats
# ---------------------------------------------------------------------------


class TestIndexEstimates:
    @pytest.fixture
    def index(self):
        index = FieldIndex(type_name="user", field_name="year")
        for i, year in enumerate([1980, 1985, 1985, 1990, 1990, 1990, 2000]):
            index.add(year, f"uid-{i}")
        return index

    def test_eq_is_exact(self, index):
        assert index.estimate("eq", 1990) == 3
        assert index.estimate("eq", 1985) == 2
        assert index.estimate("eq", 1234) == 0

    def test_ne_is_exact(self, index):
        assert index.estimate("ne", 1990) == 4
        assert index.estimate("ne", 1234) == 7

    def test_range_interpolation_is_bounded(self, index):
        for op in ("lt", "le", "gt", "ge"):
            for value in (1970, 1985, 1990, 2010):
                estimate = index.estimate(op, value)
                assert 0 <= estimate <= len(index)

    def test_range_interpolation_tracks_direction(self, index):
        # [1980, 2000]: lt below min ~ 0, gt above max ~ 0.
        assert index.estimate("lt", 1980) == 0
        assert index.estimate("gt", 2000) == 0
        assert index.estimate("ge", 1980) == len(index)

    def test_non_numeric_range_uses_half_heuristic(self):
        index = FieldIndex(type_name="user", field_name="city")
        for i, city in enumerate(["Lyon", "Paris", "Lyon", "Nice"]):
            index.add(city, f"uid-{i}")
        assert index.estimate("lt", "Paris") == 2
        assert index.estimate("eq", "Lyon") == 2

    def test_unhashable_value_falls_back_to_entries(self, index):
        assert index.estimate("eq", [1990]) == len(index)

    def test_stats_shape(self, index):
        stats = index.stats()
        assert stats == {
            "entries": 7, "distinct": 4, "min": 1980, "max": 2000,
        }

    def test_counts_track_removal(self, index):
        index.remove(1990, "uid-3")
        assert index.estimate("eq", 1990) == 2
        index.remove(2000, "uid-6")
        assert index.estimate("eq", 2000) == 0
        assert index.stats()["distinct"] == 3

    def test_empty_index(self):
        index = FieldIndex(type_name="user", field_name="year")
        assert index.estimate("eq", 1) == 0
        assert index.estimate("lt", 1) == 0
        assert index.stats() == {
            "entries": 0, "distinct": 0, "min": None, "max": None,
        }


# ---------------------------------------------------------------------------
# plan_query in isolation
# ---------------------------------------------------------------------------


def build_index(field_name, values):
    index = FieldIndex(type_name="user", field_name=field_name)
    for i, value in enumerate(values):
        index.add(value, f"uid-{i}")
    return index


class TestPlanQuery:
    def test_picks_most_selective_index(self):
        year = build_index("year", [1990] * 50 + [1991] * 50)
        city = build_index("city", ["Lyon"] * 5 + ["Paris"] * 95)
        predicates = (
            Predicate("year", "eq", 1990),   # ~50 rows
            Predicate("city", "eq", "Lyon"),  # ~5 rows
        )
        plan = plan_query(
            "user", predicates, {"year": year, "city": city}, table_rows=100
        )
        assert plan.strategy == STRATEGY_INDEX
        assert plan.index_field == "city"
        # Both fields are indexed, so both are lookups, cheapest first;
        # nothing is left to decode.
        assert [(lookup.field_name, lookup.estimated_rows)
                for lookup in plan.lookups] == [("city", 5), ("year", 50)]
        assert plan.estimated_rows == 5
        assert plan.residual == ()

    @pytest.mark.parametrize("order", [1, -1], ids=["low-first", "high-first"])
    def test_two_bounds_merge_into_one_interval(self, order):
        year = build_index("year", range(1900, 2000))
        bounds = (Predicate("year", "ge", 1950), Predicate("year", "lt", 1960))
        plan = plan_query(
            "user", bounds[::order], {"year": year}, table_rows=100
        )
        (lookup,) = plan.lookups
        assert (lookup.low, lookup.high) == bounds
        assert lookup.describe() == "year in [1950, 1960)"
        # Estimated from both bounds, not from the looser one alone.
        assert lookup.estimated_rows == 10
        assert plan.residual == ()

    def test_tightest_bound_wins_and_gt_le_close_the_interval(self):
        year = build_index("year", range(1900, 2000))
        plan = plan_query("user", (
            Predicate("year", "ge", 1950), Predicate("year", "gt", 1950),
            Predicate("year", "le", 1970), Predicate("year", "lt", 1980),
            Predicate("year", "ne", 1960),
        ), {"year": year}, table_rows=100)
        (lookup,) = plan.lookups
        assert lookup.describe() == "year in (1950, 1970] and year ne 1960"

    @pytest.mark.parametrize("predicates", [
        (Predicate("year", "gt", 1960), Predicate("year", "le", 1960)),
        (Predicate("year", "eq", 1950), Predicate("year", "ge", 1951)),
        (Predicate("year", "ge", 1950), Predicate("year", "lt", "1960")),
    ], ids=["gt-le-same-value", "eq-below-bound", "incomparable-bounds"])
    def test_empty_interval_estimates_zero(self, predicates):
        year = build_index("year", range(1900, 2000))
        plan = plan_query("user", predicates, {"year": year}, table_rows=100)
        (lookup,) = plan.lookups
        assert lookup.empty
        assert plan.estimated_rows == 0

    def test_point_interval_is_an_exact_lookup(self):
        year = build_index("year", [1950] * 3 + [1951] * 7)
        plan = plan_query("user", (
            Predicate("year", "le", 1950), Predicate("year", "ge", 1950),
        ), {"year": year}, table_rows=10)
        (lookup,) = plan.lookups
        assert lookup.point
        assert lookup.describe() == "year eq 1950"
        assert lookup.estimated_rows == 3

    def test_falls_back_to_scan_without_usable_index(self):
        plan = plan_query(
            "user", (Predicate("year", "eq", 1990),), {}, table_rows=100
        )
        assert plan.strategy == STRATEGY_SCAN
        assert plan.index_field is None
        assert plan.estimated_rows == 100
        assert len(plan.residual) == 1

    def test_contains_op_is_not_indexable(self):
        city = build_index("city", ["Lyon", "Paris"])
        plan = plan_query(
            "user", (Predicate("city", "contains", "Ly"),),
            {"city": city}, table_rows=2,
        )
        assert plan.strategy == STRATEGY_SCAN

    def test_fields_needed_is_residual_union(self):
        year = build_index("year", [1990, 1991])
        predicates = (
            Predicate("year", "eq", 1990),
            Predicate("city", "eq", "Lyon"),
            Predicate("name", "contains", "A"),
        )
        plan = plan_query("user", predicates, {"year": year}, table_rows=2)
        assert plan.index_field == "year"
        assert set(plan.fields_needed) == {"city", "name"}

    def test_empty_predicates_scan_everything(self):
        plan = plan_query("user", (), {}, table_rows=10)
        assert plan.strategy == STRATEGY_SCAN
        assert plan.residual == ()
        assert plan.fields_needed == ()

    def test_describe_is_json_safe(self):
        import json

        year = build_index("year", [1990, 1991])
        plan = plan_query(
            "user",
            (Predicate("year", "lt", 1991), Predicate("city", "eq", "L")),
            {"year": year}, table_rows=2,
        )
        described = plan.describe()
        json.dumps(described)
        assert described["strategy"] == "index"
        assert described["index_field"] == "year"
        assert described["lookups"] == [
            {"lookup": "year lt 1991", "estimated_rows": 2},
        ]
        assert described["residual"] == ["city eq 'L'"]


# ---------------------------------------------------------------------------
# Planned selection through DBFS
# ---------------------------------------------------------------------------


def user_type():
    return PDType(
        name="user",
        fields=(
            FieldDef("name", "string"),
            FieldDef("ssn", "string", sensitive=True),
            FieldDef("year", "int"),
            FieldDef("city", "string", required=False),
        ),
        views={"v_ano": View("v_ano", frozenset({"year"}))},
        default_consent={"stats": "v_ano"},
        collection={"web_form": "form.html"},
        ttl_seconds=1000.0,
    )


CITIES = ["Lyon", "Paris", "Nice", "Rennes"]


def populate(fs, count=40):
    refs = []
    for i in range(count):
        membrane = membrane_for_type(user_type(), f"s{i}", created_at=0.0)
        record = {
            "name": f"user-{i}",
            "ssn": f"ssn-{i}",
            "year": 1980 + (i % 20),
            "city": CITIES[i % len(CITIES)],
        }
        refs.append(
            fs.store(StoreRequest("user", record, membrane.to_json()), DED)
        )
    return refs


def brute_force(fs, refs, predicates):
    matched = []
    for ref in refs:
        try:
            record = fs._load_record_raw(ref.uid)
        except errors.RgpdOSError:
            continue
        if all(p.evaluate(record) for p in predicates):
            matched.append(ref.uid)
    return sorted(matched)


@pytest.fixture
def dbfs():
    authority = Authority(bits=512, seed=91)
    fs = DatabaseFS(operator_key=authority.issue_operator_key("plan-op"))
    fs.create_type(user_type(), DED)
    return fs


@pytest.fixture
def populated(dbfs):
    refs = populate(dbfs)
    dbfs.create_index("user", "year", DED)
    dbfs.create_index("user", "city", DED)
    return dbfs, refs


MULTI_PREDICATE_CASES = [
    (Predicate("year", "ge", 1990), Predicate("city", "eq", "Lyon")),
    (Predicate("city", "eq", "Paris"), Predicate("year", "lt", 1985)),
    (Predicate("year", "eq", 1983), Predicate("name", "contains", "user")),
    (Predicate("year", "ne", 1980), Predicate("city", "ne", "Nice"),
     Predicate("year", "le", 1995)),
    (Predicate("name", "contains", "-7"),),
    (),
]


class TestSelectWhere:
    @pytest.mark.parametrize("predicates", MULTI_PREDICATE_CASES)
    def test_matches_brute_force(self, populated, predicates):
        dbfs, refs = populated
        planned = dbfs.select_uids_where("user", predicates, DED)
        assert planned == brute_force(dbfs, refs, predicates)

    def test_unindexed_store_agrees_with_indexed(self, dbfs):
        refs = populate(dbfs)
        predicates = (
            Predicate("year", "ge", 1990), Predicate("city", "eq", "Lyon"),
        )
        unindexed = dbfs.select_uids_where("user", predicates, DED)
        dbfs.create_index("user", "year", DED)
        dbfs.create_index("user", "city", DED)
        assert dbfs.select_uids_where("user", predicates, DED) == unindexed
        assert unindexed == brute_force(dbfs, refs, predicates)

    def test_erased_rows_never_match(self, populated):
        dbfs, refs = populated
        target = refs[0]
        predicate = Predicate("year", "eq", 1980)
        before = dbfs.select_uids_where("user", (predicate,), DED)
        assert target.uid in before
        dbfs.delete(DeleteRequest(target.uid, mode="erase"), DED)
        after = dbfs.select_uids_where("user", (predicate,), DED)
        assert target.uid not in after

    def test_updates_visible_through_planner(self, populated):
        dbfs, refs = populated
        dbfs.update(UpdateRequest(refs[0].uid, {"city": "Toulon"}), DED)
        matched = dbfs.select_uids_where(
            "user", (Predicate("city", "eq", "Toulon"),), DED
        )
        assert matched == [refs[0].uid]

    def test_requires_ded(self, populated):
        dbfs, _ = populated
        with pytest.raises(errors.PDLeakError):
            dbfs.select_uids_where(
                "user", (Predicate("year", "eq", 1980),),
                AccessCredential("app"),
            )

    def test_unknown_type_rejected(self, populated):
        dbfs, _ = populated
        with pytest.raises(errors.UnknownTypeError):
            dbfs.select_uids_where("ghost", (), DED)

    def test_partial_decode_used_for_residual(self, populated):
        dbfs, refs = populated
        # Flush the record cache so decodes actually hit the payloads.
        dbfs._record_cache.clear()
        before = dbfs.stats.partial_decodes
        dbfs.select_uids_where(
            "user",
            (Predicate("city", "eq", "Lyon"),
             Predicate("name", "contains", "user")),
            DED,
        )
        assert dbfs.stats.partial_decodes > before
        assert dbfs.stats.plans > 0

    def test_indexed_conjunction_decodes_no_row(self, populated):
        """A two-bound range plus ``city eq`` on two indexed fields is
        answered from the indexes alone."""
        dbfs, refs = populated
        predicates = (
            Predicate("year", "ge", 1985), Predicate("city", "eq", "Lyon"),
            Predicate("year", "lt", 1995),
        )
        dbfs._record_cache.clear()
        before = dbfs.stats.partial_decodes, dbfs.stats.full_decodes
        planned = dbfs.select_uids_where("user", predicates, DED)
        assert (dbfs.stats.partial_decodes, dbfs.stats.full_decodes) == before
        assert planned == brute_force(dbfs, refs, predicates)
        assert planned


class TestExplain:
    def test_explain_matches_execution(self, populated):
        dbfs, refs = populated
        predicates = (
            Predicate("city", "eq", "Lyon"), Predicate("year", "ge", 1990),
        )
        plan = dbfs.explain("user", predicates, DED)
        assert plan.strategy == STRATEGY_INDEX
        assert plan.index_field in ("city", "year")
        assert plan.table_rows == len(refs)
        matched = dbfs.select_uids_where("user", predicates, DED)
        assert len(matched) <= plan.table_rows

    def test_eq_estimate_is_exact_through_dbfs(self, populated):
        dbfs, _ = populated
        predicate = Predicate("city", "eq", "Lyon")
        plan = dbfs.explain("user", (predicate,), DED)
        matched = dbfs.select_uids_where("user", (predicate,), DED)
        assert plan.estimated_rows == len(matched)

    def test_explain_does_not_execute(self, populated):
        dbfs, _ = populated
        decodes = dbfs.stats.partial_decodes + dbfs.stats.full_decodes
        dbfs.explain(
            "user",
            (Predicate("city", "eq", "Lyon"),
             Predicate("name", "contains", "x")),
            DED,
        )
        assert dbfs.stats.partial_decodes + dbfs.stats.full_decodes == decodes


class TestShardedSelectWhere:
    @pytest.fixture
    def sharded(self):
        authority = Authority(bits=512, seed=92)
        fs = ShardedDBFS(
            shard_count=3,
            operator_key=authority.issue_operator_key("plan-shard-op"),
        )
        fs.create_type(user_type(), DED)
        refs = populate(fs)
        fs.create_index("user", "year", DED)
        fs.create_index("user", "city", DED)
        return fs, refs

    def test_scatter_gather_matches_single_store(self, sharded, populated):
        sharded_fs, _ = sharded
        single_fs, _ = populated
        predicates = (
            Predicate("year", "ge", 1990), Predicate("city", "eq", "Lyon"),
        )
        sharded_uids = sharded_fs.select_uids_where("user", predicates, DED)
        single_uids = single_fs.select_uids_where("user", predicates, DED)
        # Same records were stored; uids differ per store but the
        # matched subjects must coincide.
        subject = lambda uid: uid.rsplit(":", 1)[0]
        assert sorted(sharded_uids) == sharded_uids
        assert len(sharded_uids) == len(single_uids)

    def test_explain_returns_plan_per_shard(self, sharded):
        fs, _ = sharded
        plans = fs.explain(
            "user", (Predicate("city", "eq", "Lyon"),), DED
        )
        assert set(plans) == {0, 1, 2}
        for plan in plans.values():
            assert plan.strategy == STRATEGY_INDEX
            assert plan.index_field == "city"

    def test_estimates_sum_to_population(self, sharded):
        fs, refs = sharded
        plans = fs.explain(
            "user", (Predicate("city", "eq", "Lyon"),), DED
        )
        total_estimate = sum(p.estimated_rows for p in plans.values())
        matched = fs.select_uids_where(
            "user", (Predicate("city", "eq", "Lyon"),), DED
        )
        assert total_estimate == len(matched)  # eq estimates are exact


# ---------------------------------------------------------------------------
# Predicate surface syntax (the CLI's parser)
# ---------------------------------------------------------------------------


class TestParsePredicate:
    @pytest.mark.parametrize(
        "text,field,op,value",
        [
            ("year >= 1990", "year", "ge", 1990),
            ("year<=1990", "year", "le", 1990),
            ("city == Lyon", "city", "eq", "Lyon"),
            ("city = 'Saint Denis'", "city", "eq", "Saint Denis"),
            ('name != "Ada"', "name", "ne", "Ada"),
            ("name ~ Ad", "name", "contains", "Ad"),
            ("score > 1.5", "score", "gt", 1.5),
            ("active == true", "active", "eq", True),
            ("active<false", "active", "lt", False),
        ],
    )
    def test_parses(self, text, field, op, value):
        predicate = parse_predicate(text)
        assert predicate.field_name == field
        assert predicate.op == op
        assert predicate.value == value

    @pytest.mark.parametrize("text", ["nonsense", ">= 1990", "year", ""])
    def test_rejects_unparseable(self, text):
        with pytest.raises(errors.DBFSError):
            parse_predicate(text)
