"""Selectivity-driven query planning over DBFS field indexes.

The paper pushes query capability into the filesystem (§ 3(1): the
format descriptor means DBFS "knows the general structure of the
data"), so a conjunctive query should be answered from the indexes
DBFS keeps wherever one exists.  Given the predicates of a query and
the :class:`~repro.storage.btree.FieldIndex` objects that exist for
the type, the planner groups the conjunction by field:

* **Per-field lookups.**  All indexable predicates on one indexed
  field become one :class:`IndexLookup`: an ``eq``, a ``ne``, or one
  interval merged from the field's tightest lower and upper bounds
  (``year >= 1980 AND year < 1985`` is a single walk over
  ``[1980, 1985)``).  Each lookup is costed from both of its bounds.
* **Intersection.**  The cheapest lookup drives; the executor
  intersects its uids with every other lookup's uid set, so indexed
  predicates never cost a row decode.
* **Residual.**  Only predicates no index answers — unindexed fields
  and ``contains`` — are left for partial decode of the candidates.
  With no lookup at all the plan is a full table scan.

The planner is deliberately storage-agnostic: it sees index statistics
and predicates, never records, so :class:`~repro.storage.dbfs.DatabaseFS`
plans locally and :class:`~repro.storage.shard.ShardedDBFS` simply
scatter-gathers the same planning to every shard.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .btree import DurableFieldIndex, FieldIndex, estimate_range
from .query import (
    OP_EQ,
    OP_GE,
    OP_GT,
    OP_LE,
    OP_LT,
    OP_NE,
    Predicate,
    _OPS,
)

STRATEGY_INDEX = "index"
STRATEGY_SCAN = "scan"

# Operators a B-tree field index can answer.
INDEXABLE_OPS = frozenset({OP_EQ, OP_NE, OP_LT, OP_LE, OP_GT, OP_GE})
_LOWER_OPS = frozenset({OP_EQ, OP_GE, OP_GT})
_UPPER_OPS = frozenset({OP_EQ, OP_LE, OP_LT})


def _lower_key(bound: Predicate) -> Tuple[object, bool]:
    """Sort key of a lower bound: larger is tighter (``gt`` beats ``ge``)."""
    return (bound.value, bound.op == OP_GT)


def _upper_key(bound: Predicate) -> Tuple[object, bool]:
    """Sort key of an upper bound: smaller is tighter (``lt`` beats ``le``)."""
    return (bound.value, bound.op != OP_LT)


@dataclass(frozen=True)
class IndexLookup:
    """Every indexable predicate on one indexed field, as one index walk.

    ``low``/``high`` are the tightest lower (``eq``/``ge``/``gt``) and
    upper (``eq``/``le``/``lt``) bounds, either None when open; the
    ``ne`` values in ``excluded`` are subtracted from the interval's
    uids.  ``empty`` marks bounds no value can meet — a lower bound
    above the upper one, or two bounds that do not compare with each
    other (no value of a field compares with both, so, as in a scan,
    no record matches).
    """

    field_name: str
    predicates: Tuple[Predicate, ...]
    low: Optional[Predicate] = None
    high: Optional[Predicate] = None
    excluded: Tuple[object, ...] = ()
    empty: bool = False
    estimated_rows: int = 0

    @classmethod
    def merge(cls, field_name: str,
              predicates: Sequence[Predicate]) -> "IndexLookup":
        """Merge one field's indexable predicates into one lookup."""
        low: Optional[Predicate] = None
        high: Optional[Predicate] = None
        excluded: List[object] = []
        try:
            for predicate in predicates:
                if predicate.op == OP_NE:
                    excluded.append(predicate.value)
                    continue
                if predicate.op in _LOWER_OPS and (
                    low is None or _lower_key(predicate) > _lower_key(low)
                ):
                    low = predicate
                if predicate.op in _UPPER_OPS and (
                    high is None or _upper_key(predicate) < _upper_key(high)
                ):
                    high = predicate
            empty = (low is not None and high is not None
                     and not _lower_key(low) < _upper_key(high))
        except TypeError:
            empty = True
        return cls(field_name, tuple(predicates), low, high,
                   tuple(excluded), empty)

    @property
    def point(self) -> bool:
        """True when the interval holds one value (an exact lookup)."""
        return (not self.empty and self.low is not None
                and self.high is not None
                and self.low.value == self.high.value)

    def estimate(self, index: FieldIndex) -> int:
        """Estimated uids: exact counts for a point or ``ne``, else
        interpolated from both bounds; never above the entry count."""
        if self.empty:
            return 0
        low, high = self.low, self.high
        if self.point:
            estimate = index.estimate(OP_EQ, low.value)  # type: ignore[union-attr]
        elif low is None and high is None:
            estimate = len(index)
        else:
            estimate = estimate_range(
                index,
                None if low is None else low.value,
                None if high is None else high.value,
            )
        for value in self.excluded:
            estimate = min(estimate, index.estimate(OP_NE, value))
        return estimate

    def uids(self, index: DurableFieldIndex) -> List[str]:
        """uids meeting every predicate, in index order.

        This equals a scan's answer without touching records: the
        index holds exactly the live records carrying the field, and a
        record lacking it never matches (SQL NULL rules).  A value the
        indexed values do not compare with makes the walk raise
        TypeError; as in a scan's failed comparison it then matches no
        record, and an incomparable ``ne`` value excludes none.  The
        caller holds the store's index lock.
        """
        if self.empty:
            return []
        low, high = self.low, self.high
        try:
            if self.point:
                uids = index.exact(low.value)  # type: ignore[union-attr]
            else:
                uids = index.range(
                    None if low is None else low.value,
                    None if high is None else high.value,
                    low_inclusive=low is None or low.op != OP_GT,
                    high_inclusive=high is not None and high.op != OP_LT,
                )
        except TypeError:
            return []
        for value in self.excluded:
            try:
                drop = set(index.exact(value))
            except TypeError:
                continue
            uids = [uid for uid in uids if uid not in drop]
        return uids

    def describe(self) -> str:
        name, low, high = self.field_name, self.low, self.high
        if self.empty:
            joined = " and ".join(p.describe() for p in self.predicates)
            return f"{joined} (empty)"
        parts = []
        if self.point:
            parts.append(f"{name} eq {low.value!r}")  # type: ignore[union-attr]
        elif low is not None and high is not None:
            parts.append(
                f"{name} in {'(' if low.op == OP_GT else '['}"
                f"{low.value!r}, {high.value!r}"
                f"{')' if high.op == OP_LT else ']'}"
            )
        elif low is not None or high is not None:
            bound = low if low is not None else high
            parts.append(bound.describe())  # type: ignore[union-attr]
        parts.extend(f"{name} ne {value!r}" for value in self.excluded)
        return " and ".join(parts)


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one conjunctive predicate set.

    ``lookups`` are ordered cheapest first; the first one drives.
    ``fields_needed`` is the union of the residual predicates' fields —
    exactly what the executor must decode per candidate row, through
    the v2 codec's partial decode.
    """

    type_name: str
    strategy: str                      # STRATEGY_INDEX or STRATEGY_SCAN
    predicates: Tuple[Predicate, ...]
    lookups: Tuple[IndexLookup, ...] = ()
    residual: Tuple[Predicate, ...] = ()
    estimated_rows: int = 0
    table_rows: int = 0

    @property
    def index_field(self) -> Optional[str]:
        """The driving lookup's field (None for a scan)."""
        return self.lookups[0].field_name if self.lookups else None

    @property
    def fields_needed(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for predicate in self.residual:
            seen.setdefault(predicate.field_name, None)
        return tuple(seen)

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary (used by ``repro explain`` and trace spans)."""
        return {
            "type": self.type_name,
            "strategy": self.strategy,
            "index_field": self.index_field,
            "lookups": [
                {"lookup": lookup.describe(),
                 "estimated_rows": lookup.estimated_rows}
                for lookup in self.lookups
            ],
            "residual": [p.describe() for p in self.residual],
            "estimated_rows": self.estimated_rows,
            "table_rows": self.table_rows,
            "fields_decoded": list(self.fields_needed),
        }


def compile_residual(
    predicates: Sequence[Predicate],
) -> Callable[[Mapping[str, object]], bool]:
    """Compile residual predicates into one batch-friendly callable.

    The executor evaluates residuals over whole batches of partially
    decoded rows, so the per-row cost matters: the compiled form hoists
    the ``_OPS`` dispatch and attribute lookups out of the loop, leaving
    a tuple walk of ``(field, op, value)`` triples per row.  Semantics
    match :meth:`Predicate.evaluate` exactly — a missing field or a
    ``TypeError`` from a cross-type comparison collapses to False.
    """
    compiled = tuple(
        (p.field_name, _OPS[p.op], p.value) for p in predicates
    )
    if not compiled:
        return lambda record: True

    def evaluate(record: Mapping[str, object]) -> bool:
        for field_name, op, value in compiled:
            if field_name not in record:
                return False
            try:
                if not op(record[field_name], value):
                    return False
            except TypeError:
                return False
        return True

    return evaluate


def plan_query(
    type_name: str,
    predicates: Sequence[Predicate],
    indexes: Mapping[str, FieldIndex],
    table_rows: int,
) -> QueryPlan:
    """Answer every indexed predicate from its index; scan otherwise.

    The indexable predicates of each indexed field merge into one
    :class:`IndexLookup` (an ``eq``, a ``ne``, or one interval from the
    field's lower and upper bounds), costed with the index statistics.
    Lookups are ordered cheapest first: the first drives and the rest
    are intersected with it.  The residual holds only the predicates
    no index answers — unindexed fields and ``contains`` — so it is
    what the executor decodes rows for.  Estimates only order the
    lookups; correctness never depends on them.
    """
    predicates = tuple(predicates)
    by_field: Dict[str, List[Predicate]] = {}
    residual = []
    for predicate in predicates:
        if predicate.op in INDEXABLE_OPS and predicate.field_name in indexes:
            by_field.setdefault(predicate.field_name, []).append(predicate)
        else:
            residual.append(predicate)
    lookups = []
    for field_name, group in by_field.items():
        lookup = IndexLookup.merge(field_name, group)
        lookups.append(replace(
            lookup, estimated_rows=lookup.estimate(indexes[field_name])
        ))
    if not lookups:
        return QueryPlan(
            type_name=type_name,
            strategy=STRATEGY_SCAN,
            predicates=predicates,
            residual=predicates,
            estimated_rows=table_rows,
            table_rows=table_rows,
        )
    lookups.sort(key=lambda lookup: lookup.estimated_rows)
    return QueryPlan(
        type_name=type_name,
        strategy=STRATEGY_INDEX,
        predicates=predicates,
        lookups=tuple(lookups),
        residual=tuple(residual),
        estimated_rows=lookups[0].estimated_rows,
        table_rows=table_rows,
    )
