"""Seeded inputs, op streams, engine drivers and the correctness oracle.

Everything the program receives is generated here from the workload
seed, before any set-up clock starts: the population, its analytics
consents, the replacement subjects that customer erasures re-insert,
and the op stream.  The stream is independent of the program's
answers, so the same seed replays the identical op sequence against
rgpdOS and against the two baseline engines.
"""

from __future__ import annotations

import json
import operator
import time
from random import Random
from typing import Dict, Iterator, List, Mapping, Sequence, Set, Tuple

from repro.baseline.gdprbench import (
    PURPOSE_ACCOUNT,
    PURPOSE_ANALYTICS,
    RgpdOSAdapter,
    StorageAdapter,
)
from repro.storage.query import Predicate
from repro.workloads.generator import PopulationGenerator, Subject

WORKLOADS = ("customer", "processor", "analytics")

#: Population sizes.  Customer subjects fit the record (4,096),
#: membrane and decision (8,192) caches; the 15,000-subject population
#: of the other two workloads does not.
POPULATION = {"customer": 2000, "processor": 15000, "analytics": 15000}
#: Fresh subjects a customer erasure re-inserts (at most one per erase).
REPLACEMENT_POOL = 2000
ANALYTICS_CONSENT_RATE = 0.7
INDEXED_FIELDS = ("city", "year_of_birthdate")

# The GDPRBench customer mix as one exact block of twenty ops, shuffled
# per block: every run issues the same op shares whatever the seed, so
# the erase share (the dominant cost) does not vary from run to run.
CUSTOMER_BLOCK = (
    ("read",) * 10 + ("update",) * 5 + ("consent",) * 3 + ("erase",) * 2
)
#: Width, in birth years, of the range-only and combined sweeps.  Birth
#: years span 69 values and cities 12, so a city selects ~8.3% of the
#: subjects, a 5-year range ~7.2% and city AND a 40-year range ~4.8%.
RANGE_YEARS = 5
COMBINED_RANGE_YEARS = 40
#: Range starts lie on a 5-year grid: few enough values that a run
#: draws each several times, so runs differ in order, not in mix.
RANGE_STEP = 5

#: The benchmark's own predicate semantics for the brute-force check,
#: independent of the program's ``Predicate.evaluate``.
_COMPARE = {"eq": operator.eq, "ge": operator.ge, "lt": operator.lt}

#: One op: (kind, subject id, argument).  The argument is the new city
#: (update), the consent decision (consent), the replacement subject
#: (erase) or the predicate tuple (sweep).
Op = Tuple[str, str, object]


class Population:
    """The seeded subjects, their load-time consents and replacements."""

    def __init__(self, workload: str, seed: int) -> None:
        size = POPULATION[workload]
        pool = REPLACEMENT_POOL if workload == "customer" else 0
        # One generator for both, so replacement subject ids and emails
        # never collide with the population's.
        subjects = PopulationGenerator(seed=seed).subjects(size + pool)
        self.subjects: List[Subject] = subjects[:size]
        self.replacements: List[Subject] = subjects[size:]
        rng = Random(seed * 7919 + 17)
        self.consented: Dict[str, bool] = {
            s.subject_id: rng.random() < ANALYTICS_CONSENT_RATE
            for s in self.subjects
        }
        #: The load batch handed to ``insert_many``.
        self.batch: List[Tuple[Subject, Dict[str, str]]] = [
            (s, {PURPOSE_ANALYTICS: "v_ano"} if self.consented[s.subject_id] else {})
            for s in self.subjects
        ]


class OpStream:
    """The seeded op sequence of one workload (unbounded)."""

    def __init__(self, workload: str, population: Population, seed: int) -> None:
        self.workload = workload
        self._rng = Random(seed * 104729 + 3)
        self._live = [s.subject_id for s in population.subjects]
        self._replacements: Iterator[Subject] = iter(population.replacements)
        self._cities = sorted({s.city for s in population.subjects})
        years = [s.year_of_birth for s in population.subjects]
        self._years = (min(years), max(years))
        self._block: List[str] = []
        self._sweeps = 0
        self._decks: Dict[object, List[object]] = {}

    def __iter__(self) -> "OpStream":
        return self

    def __next__(self) -> Op:
        if self.workload == "customer":
            return self._customer_op()
        if self.workload == "processor":
            return ("purpose_read", self._pick()[1], None)
        return self._sweep()

    def _pick(self) -> Tuple[int, str]:
        index = self._rng.randrange(len(self._live))
        return index, self._live[index]

    def _customer_op(self) -> Op:
        if not self._block:
            self._block = list(CUSTOMER_BLOCK)
            self._rng.shuffle(self._block)
        kind = self._block.pop()
        index, sid = self._pick()
        if kind == "update":
            return (kind, sid, self._rng.choice(self._cities))
        if kind == "consent":
            return (kind, sid, self._rng.random() < 0.5)
        if kind == "erase":
            replacement = next(self._replacements, None)
            if replacement is None:
                raise RuntimeError(
                    f"customer stream exhausted its {REPLACEMENT_POOL} "
                    "replacement subjects; shorten the run"
                )
            self._live[index] = replacement.subject_id
            return (kind, sid, replacement)
        return (kind, sid, None)

    def _deal(self, deck: object, values: Sequence[object]) -> object:
        """Next value of a reshuffled deck: every value is drawn once per
        pass, so each run covers the same predicate distribution."""
        cards = self._decks.setdefault(deck, [])
        if not cards:
            cards.extend(values)
            self._rng.shuffle(cards)
        return cards.pop()

    def _sweep(self) -> Op:
        # Rotate city / range / city AND range, so the planner's driving
        # index alternates between the two indexes in a fixed pattern.
        # A range's cost depends on where it starts (the planner drives
        # from one bound), hence the decks rather than independent draws.
        shape = self._sweeps % 3
        self._sweeps += 1
        low, high = self._years
        city = Predicate("city", "eq", self._deal("city", self._cities))
        if shape == 0:
            return ("sweep", "", (city,))
        width = RANGE_YEARS if shape == 1 else COMBINED_RANGE_YEARS
        starts = range(low, high - width + 2, RANGE_STEP)
        start = int(self._deal(width, starts))  # type: ignore[arg-type]
        years = (
            Predicate("year_of_birthdate", "ge", start),
            Predicate("year_of_birthdate", "lt", start + width),
        )
        return ("sweep", "", years if shape == 1 else (city,) + years)


class Driver:
    """Runs ops against one engine through its persona adapter."""

    def __init__(self, adapter: StorageAdapter) -> None:
        self.adapter = adapter
        self.keys: Dict[str, str] = {}

    @classmethod
    def rgpdos(cls) -> "Driver":
        # The shipped configuration: one shard, no request engine, no
        # realised IO sleeps, default caches, default 65,536-block PD
        # device and telemetry on.
        return cls(RgpdOSAdapter(shards=1, workers=0, io_delay_scale=0.0))

    @property
    def system(self):
        return self.adapter.system  # type: ignore[attr-defined]

    def load(self, population: Population, indexes: bool) -> None:
        """The timed set-up: bulk load, then the durable indexes."""
        batch = population.batch
        keys = self.adapter.insert_many(batch)
        self.keys = {s.subject_id: key for (s, _), key in zip(batch, keys)}
        if indexes:
            credential = self.system.ps.builtins.credential
            for field_name in INDEXED_FIELDS:
                self.system.dbfs.create_index("user", field_name, credential)

    def execute(self, op: Op) -> object:
        kind, sid, arg = op
        adapter = self.adapter
        if kind == "read":
            return adapter.read(self.keys[sid], PURPOSE_ACCOUNT)
        if kind == "purpose_read":
            return adapter.read(self.keys[sid], PURPOSE_ANALYTICS)
        if kind == "update":
            return adapter.update(self.keys[sid], {"city": arg})
        if kind == "consent":
            return adapter.toggle_consent(self.keys[sid], PURPOSE_ANALYTICS, arg)
        if kind == "erase":
            adapter.delete(self.keys.pop(sid))
            self.keys[arg.subject_id] = adapter.insert(  # type: ignore[union-attr]
                arg, {PURPOSE_ANALYTICS: "v_ano"}
            )
            return None
        return self.system.invoke("bench_analytics", target="user", where=list(arg))


class Oracle:
    """What a correct rgpdOS must answer, replayed in plain dicts.

    It tracks each live subject's record and analytics consent through
    the seeded load, updates, consent toggles and erase-plus-re-insert
    ops, and predicts every point read and sweep.
    """

    def __init__(self, population: Population) -> None:
        self.records: Dict[str, Dict[str, object]] = {
            s.subject_id: s.user_record() for s in population.subjects
        }
        self.consented: Dict[str, bool] = dict(population.consented)
        #: Erased subjects with their residue needles (email, national id).
        self.erased: List[Tuple[str, Tuple[bytes, ...]]] = []
        #: Live subjects whose analytics consent changed after the load
        #: (toggled, or re-inserted with consent by an erase op).
        self.toggled: Set[str] = set()
        self.predicted_denials = 0
        self.observed_denials = 0
        self.mismatches: List[str] = []
        #: Predicate tuple -> (processed, denied, returned) per sweep.
        self._sweeps: Dict[Tuple[Predicate, ...], List[Tuple[int, int, int]]] = {}

    def check(self, op: Op, outcome: object) -> None:
        """Compare one op's outcome with the prediction, then apply it."""
        kind, sid, arg = op
        if kind == "read":
            record = self.records[sid]
            expected = {k: record[k] for k in ("name", "email", "city", "year_of_birthdate")}
            self._expect(outcome == expected, op, outcome)
        elif kind == "purpose_read":
            self._check_purpose_read(op, outcome)
        elif kind == "update":
            self.records[sid]["city"] = arg
        elif kind == "consent":
            self.consented[sid] = bool(arg)
            self.toggled.add(sid)
        elif kind == "erase":
            self.forget(sid)
            self.records[arg.subject_id] = arg.user_record()  # type: ignore[union-attr]
            self.consented[arg.subject_id] = True
            self.toggled.add(arg.subject_id)  # type: ignore[union-attr]
        else:
            self._sweeps.setdefault(arg, []).append(  # type: ignore[arg-type]
                (outcome.processed, outcome.denied, len(outcome.values))  # type: ignore[union-attr]
            )

    def forget(self, sid: str) -> None:
        """An erased subject: drop it and keep its residue needles."""
        record = self.records.pop(sid)
        del self.consented[sid]
        self.toggled.discard(sid)
        needles = (str(record["email"]).encode(), str(record["national_id"]).encode())
        self.erased.append((sid, needles))

    def _check_purpose_read(self, op: Op, outcome: object) -> None:
        sid = op[1]
        if self.consented[sid]:
            year = int(self.records[sid]["year_of_birthdate"])  # type: ignore[arg-type]
            self._expect(outcome == {"decade": year // 10 * 10}, op, outcome)
        else:
            self.predicted_denials += 1
            self._expect(outcome is None, op, outcome)
        if outcome is None:
            self.observed_denials += 1

    def _expect(self, ok: bool, op: Op, outcome: object) -> None:
        if not ok and len(self.mismatches) < 20:
            self.mismatches.append(f"{op[0]} {op[1]}: got {outcome!r}")

    def check_sweeps(self) -> int:
        """Brute-force every distinct sweep predicate over the oracle's
        population; returns the number of sweeps checked."""
        checked = 0
        for predicates, outcomes in self._sweeps.items():
            matching = [
                sid for sid, record in self.records.items()
                if all(_COMPARE[p.op](record[p.field_name], p.value) for p in predicates)
            ]
            consented = sum(1 for sid in matching if self.consented[sid])
            expected = (consented, len(matching) - consented, consented)
            for observed in outcomes:
                checked += 1
                if observed != expected and len(self.mismatches) < 20:
                    self.mismatches.append(
                        f"sweep {[p.describe() for p in predicates]}: "
                        f"(processed, denied, values) "
                        f"{observed} != brute force {expected}"
                    )
        return checked


def encoded_user_bytes(records: Mapping[str, Mapping[str, object]]) -> int:
    """Bytes of the live user records in a program-independent encoding
    (compact JSON), the denominator of ``bytes_per_user_byte``."""
    return sum(
        len(json.dumps(record, separators=(",", ":"), sort_keys=True).encode())
        for record in records.values()
    )


def replay_on(driver: Driver, population: Population, ops: Sequence[Op],
              timed_from: int) -> Tuple[float, int]:
    """Load ``population`` into a baseline engine and replay ``ops``.

    Returns the wall seconds of ops ``[timed_from:]`` (the rgpdOS timed
    phase) and the number of purpose reads among all of ``ops`` that
    the engine denied.
    """
    driver.load(population, indexes=False)
    wall = 0.0
    denials = 0
    for index, op in enumerate(ops):
        start = time.perf_counter()
        outcome = driver.execute(op)
        if index >= timed_from:
            wall += time.perf_counter() - start
        if op[0] == "purpose_read" and outcome is None:
            denials += 1
    return wall, denials
