"""Property tests: every selection equals a brute-force filter.

``select_uids`` is the one-predicate case of the planner
(``select_uids_where``): a predicate on an indexed field is one index
lookup, any other a batched scan.  For every comparison operator both
must return exactly what :func:`brute_force` returns (every live
record fully decoded and checked with ``Predicate.evaluate``), over
randomized populations that include records *missing* the field
entirely (which, per SQL NULL semantics, match no predicate).  The
planner properties check multi-predicate conjunctions against the same
filter: every op plus ``contains``, two indexed fields, an unindexed
one and a sensitive one, two bounds on one field, values of the wrong
type, at 1 and 4 shards and under an MVCC snapshot.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.active_data import AccessCredential
from repro.core.datatypes import FieldDef, PDType
from repro.core.membrane import membrane_for_type
from repro.storage.dbfs import DatabaseFS
from repro.storage.query import (
    DeleteRequest,
    Predicate,
    StoreRequest,
    UpdateRequest,
)
from repro.storage.shard import ShardedDBFS

DED = AccessCredential(holder="prop-ded", is_ded=True)

SIX_OPS = ["eq", "ne", "lt", "le", "gt", "ge"]

#: None means "store the record without the year field".
YEARS = st.lists(
    st.one_of(st.none(), st.integers(min_value=1900, max_value=1930)),
    min_size=0, max_size=20,
)


def prop_type():
    return PDType(
        name="user",
        fields=(
            FieldDef("name", "string"),
            FieldDef("year", "int", required=False),
            FieldDef("city", "string", required=False),
            FieldDef("ssn", "string", required=False, sensitive=True),
        ),
        collection={"web_form": "form.html"},
        ttl_seconds=1000.0,
    )


def build_store(years, cities=None):
    fs = DatabaseFS()
    pd_type = prop_type()
    fs.create_type(pd_type, DED)
    for i, year in enumerate(years):
        record = {"name": f"u{i}"}
        if year is not None:
            record["year"] = year
        if cities is not None:
            record["city"] = cities[i % len(cities)]
        membrane = membrane_for_type(pd_type, f"s{i}", created_at=0.0)
        fs.store(StoreRequest("user", record, membrane.to_json()), DED)
    return fs


def decoded(fs):
    """Every live record of one store, fully decoded (the input of
    :func:`brute_force`)."""
    return {
        uid: fs._load_record_raw(uid) for uid in fs.all_uids()
        if not fs.inodes.get(fs._record_index[uid]).attrs["erased"]
    }


def brute_force(records, predicates):
    """uids of the records meeting every predicate, one record at a
    time through ``Predicate.evaluate``."""
    return sorted(
        uid for uid, record in records.items()
        if all(p.evaluate(record) for p in predicates)
    )


class TestIndexedEqualsScan:
    @given(
        years=YEARS,
        op=st.sampled_from(SIX_OPS),
        # A str probe on the int field compares as a scan does: no
        # match, except ``ne``, which every record carrying it meets.
        value=st.one_of(
            st.integers(min_value=1895, max_value=1935),
            st.text(max_size=4),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_six_ops_agree(self, years, op, value):
        """The scan plan before the index exists and the index lookup
        after it both equal the brute-force filter."""
        fs = build_store(years)
        predicate = Predicate("year", op, value)
        scanned = fs.select_uids("user", predicate, DED)
        fs.create_index("user", "year", DED)
        assert fs.explain("user", (predicate,), DED).strategy == "index"
        assert fs.select_uids("user", predicate, DED) == scanned == \
            brute_force(decoded(fs), (predicate,))

    @given(op=st.sampled_from(SIX_OPS))
    @settings(max_examples=6, deadline=None)
    def test_records_missing_field_never_match(self, op):
        fs = build_store([None, None, 1910])
        fs.create_index("user", "year", DED)
        predicate = Predicate("year", op, 1910)
        for uid in fs.select_uids("user", predicate, DED):
            assert "year" in fs._load_record_raw(uid)


#: Populations for the mixed conjunctions: few distinct values, so a
#: bound often equals a stored value and gt/ge, lt/le answers differ.
NARROW_YEARS = st.lists(
    st.sampled_from([None] + list(range(1900, 1907))),
    min_size=4, max_size=20,
)
CITIES = st.lists(
    st.sampled_from([None, "Lyon", "Nice", "Paris"]), min_size=1, max_size=6,
)
FIELD_VALUES = {
    "year": st.integers(min_value=1899, max_value=1907),
    "city": st.sampled_from(["A", "Lyon", "Nice", "Paris", "Z"]),
    "name": st.sampled_from(["u1", "u", "1", "x"]),
    "ssn": st.sampled_from(["0", "1", "2", "9"]),
}
#: Values of the wrong type: a cross-type comparison must be answered
#: as a scan answers it.
WRONG_VALUES = {
    "year": st.sampled_from(["1903", ""]),
    "city": st.integers(min_value=0, max_value=3),
    "name": st.integers(min_value=0, max_value=3),
    "ssn": st.integers(min_value=0, max_value=3),
}
ALL_OPS = SIX_OPS + ["contains"]


@st.composite
def field_values(draw, name):
    """A value for field ``name``; one draw in eight has the wrong type."""
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        return draw(WRONG_VALUES[name])
    return draw(FIELD_VALUES[name])


@st.composite
def conjunctions(draw):
    """Predicates over two indexed fields (year, city), an unindexed
    one (name) and a sensitive one (ssn) with all seven ops, plus a
    lower and an upper bound on one indexed field in either order; one
    pair in four is crossed, so equal or crossed bounds give empty
    intervals."""
    predicates = [
        Predicate(name, draw(st.sampled_from(ALL_OPS)),
                  draw(field_values(name)))
        for name in draw(st.lists(
            st.sampled_from(sorted(FIELD_VALUES)), max_size=2
        ))
    ]
    bounded = draw(st.sampled_from(["year", "city"]))
    low, high = sorted(draw(FIELD_VALUES[bounded]) for _ in range(2))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        low, high = high, low
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        high = draw(WRONG_VALUES[bounded])
    predicates += [
        Predicate(bounded, draw(st.sampled_from(["gt", "ge"])), low),
        Predicate(bounded, draw(st.sampled_from(["lt", "le"])), high),
    ]
    return tuple(draw(st.permutations(predicates)))


def new_store(shards):
    fs = DatabaseFS() if shards == 1 else ShardedDBFS(shard_count=shards)
    fs.create_type(prop_type(), DED)
    return fs


def store_population(fs, years, cities):
    """Store one record per year (None: field missing; every third
    record lacks the sensitive ssn); returns {uid: record}, the oracle
    the planned answers are checked against."""
    pd_type = prop_type()
    records = {}
    for i, year in enumerate(years):
        record = {"name": f"u{i}"}
        if year is not None:
            record["year"] = year
        city = cities[i % len(cities)]
        if city is not None:
            record["city"] = city
        if i % 3:
            record["ssn"] = str(i % 4)
        membrane = membrane_for_type(pd_type, f"s{i}", created_at=0.0)
        ref = fs.store(StoreRequest("user", record, membrane.to_json()), DED)
        records[ref.uid] = record
    return records


class TestPlannerEqualsBruteForce:
    @given(
        years=YEARS,
        ops=st.lists(st.sampled_from(SIX_OPS), min_size=1, max_size=3),
        values=st.lists(
            st.integers(min_value=1895, max_value=1935),
            min_size=3, max_size=3,
        ),
        index_year=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_conjunction_agrees(self, years, ops, values, index_year):
        cities = ["Lyon", "Paris", "Nice"]
        fs = build_store(years, cities=cities)
        if index_year:
            fs.create_index("user", "year", DED)
        fs.create_index("user", "city", DED)
        predicates = tuple(
            Predicate("year", op, values[i]) for i, op in enumerate(ops)
        ) + (Predicate("city", "eq", "Lyon"),)

        planned = fs.select_uids_where("user", predicates, DED)

        expected = sorted(
            uid for uid in fs.all_uids()
            if all(p.evaluate(fs._load_record_raw(uid)) for p in predicates)
        )
        assert planned == expected

    @given(
        years=NARROW_YEARS, cities=CITIES, predicates=conjunctions(),
        shards=st.sampled_from([1, 4]), blooms=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    @example(  # a wrong-type ne that reaches the pages excludes nothing
        years=[1900, 1901], cities=["Lyon"], shards=1, blooms=False,
        predicates=(Predicate("year", "ne", "1903"),
                    Predicate("city", "ge", "A"),
                    Predicate("city", "le", "Z")),
    )
    @example(  # bounds high-first, a looser second bound, ne, residual
        years=[1900, 1901, 1902, 1903, 1904], cities=["Lyon", "Nice"],
        shards=1, blooms=True,
        predicates=(Predicate("year", "le", 1903),
                    Predicate("year", "gt", 1900),
                    Predicate("year", "lt", 1906),
                    Predicate("year", "ne", 1902),
                    Predicate("city", "ne", "Paris"),
                    Predicate("name", "contains", "u")),
    )
    def test_mixed_conjunction_agrees(self, years, cities, predicates,
                                      shards, blooms):
        fs = new_store(shards)
        records = store_population(fs, years, cities)
        fs.create_index("user", "year", DED)
        fs.create_index("user", "city", DED)
        if not blooms:
            # An untrusted value bloom (as after a crash): eq/ne probes
            # of the wrong type reach the index pages instead of being
            # turned away by the filter.
            for shard in fs.shards:
                for index in shard._field_indexes.values():
                    index.bloom = None

        assert fs.select_uids_where("user", predicates, DED) == \
            brute_force(records, predicates)

    @given(years=NARROW_YEARS, cities=CITIES, predicates=conjunctions(),
           shards=st.sampled_from([1, 4]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_under_snapshot(self, years, cities, predicates, shards,
                                   data):
        """A snapshot sees records stored before it with their current
        values (payload reads are read-committed) and never an erased
        one; a record stored after it stays invisible."""
        fs = new_store(shards)
        records = store_population(fs, years + [1901, 1905], cities)
        fs.create_index("user", "year", DED)
        fs.create_index("user", "city", DED)
        snapshot = fs.begin_snapshot()
        try:
            updated, erased = data.draw(st.lists(
                st.sampled_from(sorted(records)),
                min_size=2, max_size=2, unique=True,
            ))
            changes = {"year": data.draw(FIELD_VALUES["year"]),
                       "city": "Nice"}
            fs.update(UpdateRequest(updated, changes), DED)
            records[updated] = {**records[updated], **changes}
            fs.delete(DeleteRequest(erased, mode="erase"), DED)
            del records[erased]
            store_population(fs, [1903], ["Lyon"])

            assert fs.select_uids_where(
                "user", predicates, DED, snapshot=snapshot
            ) == brute_force(records, predicates)
        finally:
            snapshot.release()


class TestSelectUidsIsTheOnePredicatePlan:
    @given(
        years=NARROW_YEARS, cities=CITIES,
        field_name=st.sampled_from(sorted(FIELD_VALUES)),
        op=st.sampled_from(ALL_OPS), indexed=st.booleans(),
        shards=st.sampled_from([1, 4]), pinned=st.booleans(),
        cold=st.booleans(), data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_select_uids_equals_planner_and_brute_force(
        self, years, cities, field_name, op, indexed, shards, pinned,
        cold, data,
    ):
        """``select_uids(t, p) == select_uids_where(t, (p,))``, and
        both equal the brute-force filter: all seven ops, wrong-typed
        values, a sensitive field, indexed and unindexed, live and
        under a snapshot taken before an update, an erasure and a
        later store, with rows served from the record cache or
        decoded off their blocks."""
        fs = new_store(shards)
        records = store_population(fs, years + [1901, 1905], cities)
        if indexed:
            fs.create_index("user", "year", DED)
            fs.create_index("user", "city", DED)
        snapshot = fs.begin_snapshot() if pinned else None
        try:
            updated, erased = data.draw(st.lists(
                st.sampled_from(sorted(records)),
                min_size=2, max_size=2, unique=True,
            ))
            changes = {"year": data.draw(FIELD_VALUES["year"]),
                       "city": "Nice"}
            fs.update(UpdateRequest(updated, changes), DED)
            records[updated] = {**records[updated], **changes}
            fs.delete(DeleteRequest(erased, mode="erase"), DED)
            del records[erased]
            later = store_population(fs, [1903], ["Lyon"])
            if snapshot is None:
                records.update(later)
            predicate = Predicate(
                field_name, op, data.draw(field_values(field_name))
            )
            if cold:
                for shard in fs.shards:
                    shard._record_cache.clear()

            expected = brute_force(records, (predicate,))
            assert fs.select_uids(
                "user", predicate, DED, snapshot=snapshot
            ) == expected
            assert fs.select_uids_where(
                "user", (predicate,), DED, snapshot=snapshot
            ) == expected
        finally:
            if snapshot is not None:
                snapshot.release()
