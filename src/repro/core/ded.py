"""The Data Execution Domain (DED).

Paper § 2: *"Any F_pd function is always executed as an instance of
the DED, an environment that ensures GDPR compliance on manipulated
PD."*  The DED is instantiated per invocation by the Processing Store
and runs the paper's eight-stage pipeline, reproduced stage for stage:

====================  =====================================================
``ded_type2req``      translate the input (PD ref or PD type) into DBFS
                      requests
``ded_load_membrane`` first DBFS request: fetch membranes only
``ded_filter``        keep only PD whose membrane approves the purpose
                      (and drop TTL-expired PD)
``ded_load_data``     second DBFS request: fetch data for survivors,
                      projected to the consented fields
``ded_execute``       run the processing on guarded views; the F_pd
                      seccomp profile applies to simulated processes
                      (``SyscallTable.attach_seccomp``), while
                      ``PurposeMatcher``'s static check at registration
                      holds F_pd code inside the DED
``ded_build_membrane`` wrap any produced PD in a fresh membrane
``ded_store``         persist produced PD in DBFS
``ded_return``        return non-PD values and references — never raw PD
====================  =====================================================

Each stage is charged both simulated time (a deterministic cost model,
so the DED-S stage-breakdown benchmark is stable) and real wall time.
Everything the invocation did is written to the processing log.

Idea 2 (data-centric execution) is realised here: the function does
not pull PD into the application's address space; the DED brings the
function to each PD's view, one consented projection at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .. import errors
from ..kernel.pim import DEDPlacer, PlacementDecision
from ..obs import NULL_TELEMETRY, Telemetry
from ..storage.cache import MISSING, LRUCache
from ..storage.dbfs import DatabaseFS
from ..storage.query import DataQuery, MembraneQuery, Predicate, StoreRequest
from .active_data import AccessCredential, PDRef, PDView, contains_raw_pd
from .clock import Clock
from .datatypes import ORIGIN_DERIVED, PDType
from .membrane import Membrane, membrane_for_type
from .processing_log import (
    ACCESS_DENIED,
    ACCESS_PRODUCED,
    ACCESS_READ,
    OUTCOME_COMPLETED,
    OUTCOME_DENIED,
    OUTCOME_ERROR,
    PDAccess,
    ProcessingLog,
)
from .purposes import Purpose

STAGES = (
    "ded_type2req",
    "ded_load_membrane",
    "ded_filter",
    "ded_load_data",
    "ded_execute",
    "ded_build_membrane",
    "ded_store",
    "ded_return",
)

# Pre-built telemetry op names, one per stage (avoids a per-call
# f-string on the invoke hot path).
_STAGE_OPS = {stage: f"ded.{stage}" for stage in STAGES}


@dataclass
class DEDCostModel:
    """Simulated per-item stage costs (seconds).

    Relative magnitudes follow the structure of the pipeline: membrane
    loads and data loads are IO-bound (dominated by the device), the
    filter is a pure in-memory check, execution cost belongs to the
    user function and is charged per record.
    """

    type2req: float = 0.5e-6
    membrane_load_per_pd: float = 4e-6
    filter_per_pd: float = 0.8e-6
    data_load_per_pd: float = 8e-6
    execute_per_pd: float = 2e-6
    build_membrane_per_pd: float = 3e-6
    store_per_pd: float = 10e-6
    return_fixed: float = 0.5e-6


@dataclass
class StageTrace:
    """Per-stage accounting for one invocation."""

    simulated_seconds: Dict[str, float] = field(
        default_factory=lambda: {stage: 0.0 for stage in STAGES}
    )
    wall_seconds: Dict[str, float] = field(
        default_factory=lambda: {stage: 0.0 for stage in STAGES}
    )
    counts: Dict[str, int] = field(default_factory=dict)
    #: Advisory § 3(3) placement decision for ded_execute (host / PIM /
    #: storage), filled when the DED has a placer configured.
    placement: Optional[PlacementDecision] = None

    def charge(self, stage: str, simulated: float, wall: float) -> None:
        self.simulated_seconds[stage] += simulated
        self.wall_seconds[stage] += wall

    def total_simulated(self) -> float:
        return sum(self.simulated_seconds.values())


@dataclass
class InvocationResult:
    """What ``ps_invoke`` hands back to the application.

    ``values`` maps input PD uid → the processing's non-PD output for
    that record; ``produced`` lists references to PD the processing
    generated (never the PD itself); ``denied`` counts PD filtered out
    by consent; ``expired`` counts PD dropped because their TTL had
    elapsed; ``errors`` maps uid → error message for records whose
    execution failed.
    """

    purpose: str
    processing: str
    values: Dict[str, object] = field(default_factory=dict)
    produced: List[PDRef] = field(default_factory=list)
    denied: int = 0
    expired: int = 0
    executed: int = 0
    errors: Dict[str, str] = field(default_factory=dict)
    trace: StageTrace = field(default_factory=StageTrace)

    @property
    def processed(self) -> int:
        """Records the function actually ran on (after the filter)."""
        return self.executed


ProcessingFn = Callable[..., object]


def _where_tuple(
    where: Union[Predicate, Sequence[Predicate], None],
) -> Tuple[Predicate, ...]:
    """Normalise a ``where`` argument to a tuple of predicates."""
    if where is None:
        return ()
    if isinstance(where, Predicate):
        return (where,)
    return tuple(where)


class MembraneDecisionCache:
    """Consent decisions memoised across invocations.

    The Processing Store owns one of these and hands it to every DED
    it creates, so repeated invocations for the same purpose skip
    re-evaluating each membrane's consent scope.

    Keys are ``(uid, purpose name, membrane version, schema version)``.
    The membrane's version is bumped monotonically on *every*
    consent/scope mutation (grant, revoke, restrict, unrestrict,
    erasure — see :class:`repro.core.membrane.Membrane`), so a cached
    decision can never outlive a withdrawal: the next invocation sees
    a new version, misses, and re-evaluates.  The schema version covers
    purpose-view/field changes via ``evolve_type``.  Purposes are
    immutable once declared, so the name suffices.

    Values are the *effective* field set the decision grants — a
    non-empty frozenset — or ``None`` for a denial (denials are worth
    caching too: a subject who never consented is re-asked on every
    analytics sweep).  TTL expiry is deliberately **not** cached — it
    depends on the clock, and a decision that was valid a second ago
    may be expired now; :meth:`DataExecutionDomain._filter` checks it
    before consulting this cache.
    """

    def __init__(self, capacity: int = 8192) -> None:
        self._lru = LRUCache(capacity, name="decision-cache")

    @property
    def enabled(self) -> bool:
        return self._lru.enabled

    def lookup(
        self, uid: str, purpose_name: str, membrane_version: int, schema_version: int
    ) -> object:
        """The cached decision, or :data:`MISSING` on a miss."""
        return self._lru.get((uid, purpose_name, membrane_version, schema_version))

    def store(
        self,
        uid: str,
        purpose_name: str,
        membrane_version: int,
        schema_version: int,
        decision: Optional[frozenset],
    ) -> None:
        self._lru.put(
            (uid, purpose_name, membrane_version, schema_version), decision
        )

    def clear(self) -> int:
        return self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def as_dict(self) -> Dict[str, object]:
        return self._lru.as_dict()


class DataExecutionDomain:
    """One DED instance — created per ``ps_invoke``, then discarded."""

    def __init__(
        self,
        dbfs: DatabaseFS,
        clock: Clock,
        log: ProcessingLog,
        cost_model: Optional[DEDCostModel] = None,
        instance: int = 0,
        placer: Optional[DEDPlacer] = None,
        decision_cache: Optional[MembraneDecisionCache] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.dbfs = dbfs
        self.clock = clock
        self.log = log
        self.cost = cost_model or DEDCostModel()
        self.placer = placer
        self.decisions = decision_cache
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.credential = AccessCredential(
            holder=f"ded-{instance}", is_ded=True
        )

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------

    def run(
        self,
        purpose: Purpose,
        processing_name: str,
        fn: ProcessingFn,
        target: Union[PDRef, str, Sequence[PDRef]],
        aggregate: bool = False,
        subject_id: Optional[str] = None,
        enclave: Optional[object] = None,
        where: Union["Predicate", Sequence["Predicate"], None] = None,
    ) -> InvocationResult:
        """Execute the eight-stage pipeline for one invocation.

        ``target`` is what the paper says an F_pd function takes as
        input: "the identifier of a PD or a PD type".  A sequence of
        refs is accepted as a convenience for batch invocations.
        ``where`` accepts one :class:`Predicate` or a sequence of them
        (a conjunction), pushed down to the storage layer before any
        membrane is evaluated.
        With ``aggregate=True`` the function is called once with the
        list of all consented views instead of once per view.  When an
        ``enclave`` is supplied (a :class:`repro.kernel.tee.Enclave`
        provisioned and attested by the PS), ``ded_execute`` runs the
        function through it, so a compromised host only ever sees
        enclave ciphertext.
        """
        with self.telemetry.op(
            "ded.run", purpose=purpose.name, processing=processing_name,
            subject_id=subject_id,
        ) as span:
            result = self._run_impl(
                purpose, processing_name, fn, target, aggregate,
                subject_id, enclave, where,
            )
            span.set_attrs(
                consented=result.trace.counts.get("consented", 0),
                processed=result.processed,
            )
            return result

    def _run_impl(
        self,
        purpose: Purpose,
        processing_name: str,
        fn: ProcessingFn,
        target: Union[PDRef, str, Sequence[PDRef]],
        aggregate: bool,
        subject_id: Optional[str],
        enclave: Optional[object],
        where: Union["Predicate", Sequence["Predicate"], None],
    ) -> InvocationResult:
        result = InvocationResult(purpose=purpose.name, processing=processing_name)
        trace = result.trace
        accesses: List[PDAccess] = []

        try:
            # -- ded_type2req ------------------------------------------------
            query, pd_type = self._timed(
                trace, "ded_type2req", self.cost.type2req,
                lambda: self._type2req(purpose, target, subject_id, where),
            )
            trace.counts["requests"] = 1

            # -- ded_load_membrane -------------------------------------------
            pairs = self._timed(
                trace,
                "ded_load_membrane",
                None,
                lambda: self.dbfs.query_membranes(query, self.credential),
            )
            trace.charge(
                "ded_load_membrane",
                self.cost.membrane_load_per_pd * len(pairs),
                0.0,
            )
            trace.counts["membranes_loaded"] = len(pairs)

            # -- ded_filter -----------------------------------------------------
            survivors = self._timed(
                trace,
                "ded_filter",
                self.cost.filter_per_pd * len(pairs),
                lambda: self._filter(purpose, pd_type, pairs, result, accesses),
            )
            trace.counts["consented"] = len(survivors)
            if self.placer is not None and survivors:
                trace.placement = self._place(survivors)

            if not survivors:
                self._log(result, accesses, OUTCOME_DENIED,
                          detail="no PD consented to this purpose")
                return result

            # -- ded_load_data -----------------------------------------------------
            data_query = DataQuery(
                uids=tuple(ref.uid for ref, _, _ in survivors),
                fields={
                    ref.uid: allowed for ref, _, allowed in survivors
                },
                predicates=_where_tuple(where),
            )
            records = self._timed(
                trace,
                "ded_load_data",
                self.cost.data_load_per_pd * len(survivors),
                lambda: self.dbfs.fetch_records(data_query, self.credential),
            )
            trace.counts["records_loaded"] = len(records)

            # -- ded_execute -----------------------------------------------------
            views: List[PDView] = []
            for ref, _, allowed in survivors:
                record = records.get(ref.uid)
                if record is None:
                    continue
                views.append(
                    PDView(
                        pd_ref=ref,
                        purpose=purpose.name,
                        allowed_fields=allowed,
                        values=record,
                    )
                )
                accesses.append(
                    PDAccess(
                        uid=ref.uid,
                        subject_id=ref.subject_id,
                        mode=ACCESS_READ,
                        fields=tuple(sorted(record)),
                    )
                )
            outputs = self._timed(
                trace,
                "ded_execute",
                self.cost.execute_per_pd * len(views),
                lambda: self._execute(fn, views, aggregate, result, enclave),
            )
            trace.counts["executed"] = len(views)

            # -- ded_build_membrane / ded_store ------------------------------------
            produced_payloads = self._collect_produced(purpose, outputs)
            if produced_payloads:
                stored = self._timed(
                    trace,
                    "ded_store",
                    self.cost.store_per_pd * len(produced_payloads),
                    lambda: self._build_and_store(
                        purpose, produced_payloads, trace
                    ),
                )
                result.produced.extend(stored)
                for ref in stored:
                    accesses.append(
                        PDAccess(
                            uid=ref.uid,
                            subject_id=ref.subject_id,
                            mode=ACCESS_PRODUCED,
                        )
                    )

            # -- ded_return -----------------------------------------------------
            self._timed(
                trace,
                "ded_return",
                self.cost.return_fixed,
                lambda: self._sanitize_return(outputs, result),
            )
            self._log(result, accesses, OUTCOME_COMPLETED)
            return result
        except errors.RgpdOSError as exc:
            self._log(result, accesses, OUTCOME_ERROR, detail=str(exc))
            raise

    # ------------------------------------------------------------------
    # Stage implementations
    # ------------------------------------------------------------------

    def _place(self, survivors) -> PlacementDecision:
        """Consult the § 3(3) placer with the workload shape the DED
        now knows exactly: how many records, how wide."""
        sample = survivors[:5]
        sizes = [
            self.dbfs.record_size(ref.uid) for ref, _, _ in sample
        ]
        bytes_per_record = max(1, sum(sizes) // max(1, len(sizes)))
        return self.placer.place(
            records=len(survivors), bytes_per_record=bytes_per_record
        )

    def _type2req(
        self,
        purpose: Purpose,
        target: Union[PDRef, str, Sequence[PDRef]],
        subject_id: Optional[str],
        where: Union[Predicate, Sequence[Predicate], None] = None,
    ) -> Tuple[MembraneQuery, PDType]:
        """Translate the invocation target into a membrane query.

        ``where`` — one predicate or a conjunctive sequence — narrows
        the candidate uids before any membrane is touched: a single
        predicate goes through :meth:`DatabaseFS.select_uids` (indexed
        when possible), several go through the planned
        :meth:`DatabaseFS.select_uids_where` pushdown.
        """
        if isinstance(target, PDRef):
            type_name: str = target.pd_type
            uids: Optional[Tuple[str, ...]] = (target.uid,)
        elif isinstance(target, str):
            type_name = target
            uids = None
        else:
            refs = list(target)
            if not refs:
                raise errors.InvocationError("empty PD reference list")
            type_names = {ref.pd_type for ref in refs}
            if len(type_names) != 1:
                raise errors.InvocationError(
                    f"mixed PD types in one invocation: {sorted(type_names)}"
                )
            type_name = refs[0].pd_type
            uids = tuple(ref.uid for ref in refs)

        pd_type = self.dbfs.get_type(type_name)
        if not purpose.uses_type(type_name):
            raise errors.InvocationError(
                f"purpose {purpose.name!r} does not declare use of type "
                f"{type_name!r}"
            )
        predicates = _where_tuple(where)
        if predicates:
            for predicate in predicates:
                if predicate.field_name not in pd_type.field_names:
                    raise errors.InvocationError(
                        f"predicate names unknown field "
                        f"{predicate.field_name!r} of type {type_name!r}"
                    )
            if len(predicates) == 1:
                matching = self.dbfs.select_uids(
                    type_name, predicates[0], self.credential
                )
            else:
                matching = self.dbfs.select_uids_where(
                    type_name, predicates, self.credential
                )
            if uids is None:
                uids = tuple(matching)
            else:
                targeted = set(uids)
                uids = tuple(uid for uid in matching if uid in targeted)
        return (
            MembraneQuery(pd_type=type_name, subject_id=subject_id, uids=uids),
            pd_type,
        )

    def _filter(
        self,
        purpose: Purpose,
        pd_type: PDType,
        pairs: Sequence[Tuple[PDRef, Membrane]],
        result: InvocationResult,
        accesses: List[PDAccess],
    ) -> List[Tuple[PDRef, Membrane, frozenset]]:
        """Consent + TTL filter: the membrane speaks, the DED obeys.

        The effective field set is the *intersection* of what the
        membrane grants and what the purpose declared it needs — data
        minimisation from both directions.
        """
        now = self.clock.now()
        survivors: List[Tuple[PDRef, Membrane, frozenset]] = []
        declared_view = purpose.view_for_type(pd_type.name)
        declared_fields = (
            pd_type.view(declared_view).fields
            if declared_view is not None
            else pd_type.field_names
        )
        cache = self.decisions if (
            self.decisions is not None and self.decisions.enabled
        ) else None
        schema_version = (
            self.dbfs.schema_version(pd_type.name) if cache is not None else 0
        )
        for ref, membrane in pairs:
            # TTL expiry is clock-dependent and checked on every pass —
            # never answered from the decision cache.
            if membrane.is_expired(now):
                result.expired += 1
                continue
            if cache is not None:
                effective = cache.lookup(
                    ref.uid, purpose.name, membrane.version, schema_version
                )
                if effective is MISSING:
                    effective = self._decide(
                        purpose, pd_type, membrane, declared_fields
                    )
                    cache.store(
                        ref.uid, purpose.name, membrane.version,
                        schema_version, effective,
                    )
            else:
                effective = self._decide(
                    purpose, pd_type, membrane, declared_fields
                )
            if effective is None:
                result.denied += 1
                accesses.append(
                    PDAccess(
                        uid=ref.uid, subject_id=ref.subject_id, mode=ACCESS_DENIED
                    )
                )
                continue
            survivors.append((ref, membrane, effective))
        return survivors

    @staticmethod
    def _decide(
        purpose: Purpose,
        pd_type: PDType,
        membrane: Membrane,
        declared_fields: frozenset,
    ) -> Optional[frozenset]:
        """One consent decision: the effective field set, or None.

        The effective set is the intersection of what the membrane
        grants and what the purpose declared; an empty intersection is
        a denial (nothing may be read), collapsed to ``None`` so the
        decision cache stores a single denial shape.
        """
        allowed = membrane.allowed_fields(purpose.name, pd_type)
        if allowed is None:
            return None
        effective = frozenset(allowed & declared_fields)
        return effective or None

    def _execute(
        self,
        fn: ProcessingFn,
        views: List[PDView],
        aggregate: bool,
        result: InvocationResult,
        enclave: Optional[object] = None,
    ) -> Dict[str, object]:
        """Run the function on each view (or once on all of them).

        No seccomp filter is installed here: the F_pd profile
        (``pd_function_profile``) applies to simulated processes through
        ``SyscallTable.attach_seccomp``, and ``PurposeMatcher``'s static
        check at registration holds F_pd code inside the DED.

        Per-record errors are contained: one record's failure must not
        deny the other subjects' processing.  With an enclave, every
        call goes through :meth:`Enclave.call`, which re-checks the
        code measurement on entry.
        """
        invoke = (lambda *a: enclave.call(fn, *a)) if enclave is not None else fn
        outputs: Dict[str, object] = {}
        if aggregate:
            try:
                outputs["__aggregate__"] = invoke(views)
                result.executed = len(views)
            except errors.RgpdOSError:
                raise
            except Exception as exc:  # noqa: BLE001 - user code boundary
                result.errors["__aggregate__"] = f"{type(exc).__name__}: {exc}"
            return outputs
        for view in views:
            try:
                outputs[view.ref.uid] = invoke(view)
                result.executed += 1
            except errors.RgpdOSError:
                raise
            except Exception as exc:  # noqa: BLE001 - user code boundary
                result.errors[view.ref.uid] = f"{type(exc).__name__}: {exc}"
        return outputs

    def _collect_produced(
        self, purpose: Purpose, outputs: Dict[str, object]
    ) -> List[Tuple[str, str, Dict[str, object]]]:
        """Extract produced-PD payloads from the function outputs.

        A processing signals PD production by returning a dict shaped
        ``{"__produce__": {"type": ..., "record": {...}}}`` (or a list
        of those).  The produced type must be declared by the purpose.
        """
        produced: List[Tuple[str, str, Dict[str, object]]] = []
        for uid, output in outputs.items():
            for item in _iter_produce_markers(output):
                type_name = item.get("type")
                record = item.get("record")
                if not isinstance(type_name, str) or not isinstance(record, dict):
                    raise errors.InvocationError(
                        "malformed __produce__ marker: needs 'type' and 'record'"
                    )
                if type_name not in purpose.produces:
                    raise errors.InvocationError(
                        f"purpose {purpose.name!r} does not declare "
                        f"production of type {type_name!r}"
                    )
                subject = item.get("subject_id") or self._subject_of_uid(uid)
                produced.append((type_name, subject, record))
        return produced

    def _subject_of_uid(self, uid: str) -> str:
        if uid == "__aggregate__":
            raise errors.InvocationError(
                "aggregate processings must name subject_id in __produce__"
            )
        return self.dbfs.get_membrane(uid, self.credential).subject_id

    def _build_and_store(
        self,
        purpose: Purpose,
        payloads: List[Tuple[str, str, Dict[str, object]]],
        trace: StageTrace,
    ) -> List[PDRef]:
        """Stages ded_build_membrane + ded_store for produced PD."""
        refs: List[PDRef] = []
        for type_name, subject_id, record in payloads:
            pd_type = self.dbfs.get_type(type_name)
            start = time.perf_counter()
            membrane = membrane_for_type(
                pd_type,
                subject_id=subject_id,
                created_at=self.clock.now(),
                origin=ORIGIN_DERIVED,
                granted_by=f"ded:{purpose.name}",
            )
            trace.charge(
                "ded_build_membrane",
                self.cost.build_membrane_per_pd,
                time.perf_counter() - start,
            )
            refs.append(
                self.dbfs.store(
                    StoreRequest(
                        pd_type=type_name,
                        record=record,
                        membrane_json=membrane.to_json(),
                    ),
                    self.credential,
                )
            )
        trace.counts["produced"] = len(refs)
        return refs

    def _sanitize_return(
        self, outputs: Dict[str, object], result: InvocationResult
    ) -> None:
        """ded_return: strip produce markers, refuse raw PD."""
        for uid, output in outputs.items():
            value = _strip_produce_markers(output)
            if contains_raw_pd(value):
                raise errors.PDLeakError(
                    f"processing attempted to return raw PD for {uid}; "
                    "only references may cross the DED boundary"
                )
            if value is not None:
                result.values[uid] = value

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _timed(
        self,
        trace: StageTrace,
        stage: str,
        simulated: Optional[float],
        thunk: Callable[[], object],
    ) -> object:
        with self.telemetry.op(_STAGE_OPS[stage]):
            start = time.perf_counter()
            value = thunk()
            wall = time.perf_counter() - start
        trace.charge(stage, simulated if simulated is not None else 0.0, wall)
        self.clock.advance(simulated if simulated is not None else 0.0)
        return value

    def _log(
        self,
        result: InvocationResult,
        accesses: List[PDAccess],
        outcome: str,
        detail: str = "",
    ) -> None:
        self.log.record(
            at=self.clock.now(),
            purpose=result.purpose,
            processing=result.processing,
            outcome=outcome,
            accesses=tuple(accesses),
            stage_seconds=result.trace.simulated_seconds,
            detail=detail,
        )


def _iter_produce_markers(output: object) -> List[Dict[str, object]]:
    """Find ``__produce__`` markers in a processing's output."""
    markers: List[Dict[str, object]] = []
    if isinstance(output, dict) and "__produce__" in output:
        marker = output["__produce__"]
        if isinstance(marker, list):
            markers.extend(m for m in marker if isinstance(m, dict))
        elif isinstance(marker, dict):
            markers.append(marker)
    return markers


def _strip_produce_markers(output: object) -> object:
    if isinstance(output, dict) and "__produce__" in output:
        remaining = {k: v for k, v in output.items() if k != "__produce__"}
        return remaining or None
    return output


def produce(type_name: str, record: Dict[str, object], subject_id: str = "") -> Dict[str, object]:
    """Helper for processings that generate PD.

    >>> def compute_age(user):
    ...     return produce("age_pd", {"age": 2026 - user.year_of_birthdate})
    """
    marker: Dict[str, object] = {"type": type_name, "record": record}
    if subject_id:
        marker["subject_id"] = subject_id
    return {"__produce__": marker}
