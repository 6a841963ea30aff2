"""Subject rights — the GDPR-facing API of rgpdOS.

Section 4 of the paper demonstrates two rights end to end; this module
implements those two plus the neighbouring rights the membrane design
makes straightforward:

* **right of access** (Art. 15, § 4 of the paper) — a structured,
  machine-readable export of the subject's PD *as stored in DBFS*
  (meaningful keys, schema included) together with the DED's
  processing log for that subject;
* **right to be forgotten** (Art. 17, § 4) — crypto-erasure under the
  authority-escrow model: the operator loses access, the authority
  keeps it for legal investigations;
* **portability** (Art. 20) — the access export as a JSON document;
* **rectification** (Art. 16) — through the built-in ``update``;
* **restriction** (Art. 18) — freeze processing without erasure;
* **objection / consent withdrawal** (Art. 21 / Art. 7(3)) — revoke a
  purpose across every copy of the subject's PD;
* **storage limitation** (Art. 5(1)(e)) — the TTL sweeper that purges
  PD whose membrane-declared time-to-live has elapsed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from typing import Callable

from .. import errors
from ..obs import NULL_TELEMETRY, Telemetry
from ..storage.dbfs import DatabaseFS
from .active_data import AccessCredential, PDRef
from .builtins import BuiltinFunctions, EraseReport
from .clock import Clock
from .membrane import BASIS_CONSENT, Membrane, overdue_membranes
from .processing_log import ProcessingLog


@dataclass
class AccessReport:
    """The Art. 15 package handed to a subject."""

    subject_id: str
    generated_at: float
    export: Dict[str, object]
    processings: List[Dict[str, object]] = field(default_factory=list)

    def to_json(self) -> str:
        """The "structured and machine-readable format" the GDPR asks for."""
        return json.dumps(
            {
                "subject_id": self.subject_id,
                "generated_at": self.generated_at,
                "personal_data": self.export,
                "processings": self.processings,
            },
            sort_keys=True,
            indent=2,
            default=_json_default,
        )


def _json_default(value: object) -> object:
    if isinstance(value, bytes):
        return value.hex()
    raise TypeError(f"unencodable value of type {type(value).__name__}")


@dataclass
class ErasureOutcome:
    """Result of a subject-level right-to-be-forgotten request."""

    subject_id: str
    reports: List[EraseReport] = field(default_factory=list)

    @property
    def erased_uids(self) -> List[str]:
        uids: List[str] = []
        for report in self.reports:
            uids.extend(report.erased_lineage)
        return sorted(set(uids))

    @property
    def fully_forgotten(self) -> bool:
        return all(report.fully_forgotten for report in self.reports)


class SubjectRights:
    """GDPR rights bound to one rgpdOS instance."""

    def __init__(
        self,
        dbfs: DatabaseFS,
        builtins: BuiltinFunctions,
        log: ProcessingLog,
        clock: Clock,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.dbfs = dbfs
        self.builtins = builtins
        self.log = log
        self.clock = clock
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._credential = AccessCredential(holder="subject-rights", is_ded=True)
        # Optional parallel runner for bulk rights (installed by the
        # request engine; None keeps the seed's serial loops).
        self._fanout: Optional[Callable[..., List[object]]] = None

    def set_fanout(self, run: Optional[Callable[..., List[object]]]) -> None:
        """Install a parallel per-shard runner for the bulk rights."""
        self._fanout = run

    def _fan(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        if self._fanout is None or len(tasks) <= 1:
            return [task() for task in tasks]
        return list(self._fanout(tasks))

    # ------------------------------------------------------------------
    # Art. 15 — right of access
    # ------------------------------------------------------------------

    def right_of_access(
        self, subject_id: str, snapshot: Optional[object] = None
    ) -> AccessReport:
        """Everything rgpdOS knows about a subject, structured.

        The data part comes straight from DBFS (schema keys intact —
        the § 4 point about keys that "make sense"); the processing
        part is the DED log filtered to this subject.  The export runs
        under an MVCC snapshot (the caller's, or one taken here), so a
        concurrent store or consent change cannot tear the report —
        and the read never blocks writers.
        """
        with self.telemetry.op(
            "rights.access", subject_id=subject_id
        ) as span:
            stats = getattr(self.dbfs, "stats", None)
            full_before = stats.full_decodes if stats is not None else 0
            partial_before = stats.partial_decodes if stats is not None else 0
            owned = None
            if snapshot is None:
                owned = snapshot = self.dbfs.begin_snapshot()
            try:
                export = self.dbfs.export_subject(
                    subject_id, self._credential, snapshot=snapshot
                )
            finally:
                if owned is not None:
                    owned.release()
            processings = [
                entry.to_dict() for entry in self.log.for_subject(subject_id)
            ]
            span.set_attr("records", len(export["records"]))
            if stats is not None:
                span.set_attrs(
                    full_decodes=stats.full_decodes - full_before,
                    partial_decodes=stats.partial_decodes - partial_before,
                )
            return AccessReport(
                subject_id=subject_id,
                generated_at=self.clock.now(),
                export=export,
                processings=processings,
            )

    # ------------------------------------------------------------------
    # Art. 20 — portability
    # ------------------------------------------------------------------

    def portability_export(self, subject_id: str) -> str:
        """The access report as a portable JSON document."""
        return self.right_of_access(subject_id).to_json()

    # ------------------------------------------------------------------
    # Art. 16 — rectification
    # ------------------------------------------------------------------

    def rectify(
        self, subject_id: str, ref: PDRef, changes: Mapping[str, object]
    ) -> None:
        """Correct fields of the subject's own PD."""
        self._require_ownership(subject_id, ref.uid)
        self.builtins.update(ref, changes, actor=subject_id)

    # ------------------------------------------------------------------
    # Art. 17 — right to be forgotten
    # ------------------------------------------------------------------

    def erase(
        self,
        subject_id: str,
        ref: Optional[PDRef] = None,
        mode: str = "escrow",
    ) -> ErasureOutcome:
        """Erase one PD record — or, with no ref, everything the
        subject has — including all copies."""
        with self.telemetry.op(
            "rights.erase", subject_id=subject_id, mode=mode
        ) as span:
            outcome = ErasureOutcome(subject_id=subject_id)
            if ref is not None:
                self._require_ownership(subject_id, ref.uid)
                outcome.reports.append(
                    self.builtins.delete(ref, mode=mode, actor=subject_id)
                )
                span.set_attr("erased", len(outcome.erased_uids))
                return outcome
            for uid in self.dbfs.uids_of_subject(subject_id):
                membrane = self.dbfs.get_membrane(uid, self._credential)
                if membrane.erased:
                    continue
                target = PDRef(
                    uid=uid, pd_type=membrane.pd_type, subject_id=subject_id
                )
                outcome.reports.append(
                    self.builtins.delete(target, mode=mode, actor=subject_id)
                )
            span.set_attr("erased", len(outcome.erased_uids))
            return outcome

    # ------------------------------------------------------------------
    # Batched multi-subject rights (scatter-gather over shards)
    # ------------------------------------------------------------------

    def bulk_right_of_access(
        self, subject_ids: Sequence[str]
    ) -> Dict[str, AccessReport]:
        """Art. 15 exports for many subjects, grouped by owning shard.

        Each subject's export touches only its shard, so a regulator
        sweep over thousands of subjects walks the shards one at a
        time, shard-local caches staying hot, instead of ping-ponging
        across all of them.  With the request engine's runner
        installed the per-shard groups run concurrently, every export
        reading its shard's component of one fleet-wide MVCC snapshot.
        """
        reports: Dict[str, AccessReport] = {}
        with self.telemetry.op(
            "rights.bulk_access", subjects=len(subject_ids)
        ):
            groups = sorted(self.dbfs.subjects_by_shard(subject_ids).items())
            snapshot = self.dbfs.begin_snapshot()
            try:
                def one_shard(index: int, group: List[str]):
                    shard_reports = {}
                    with self.telemetry.span(
                        "rights.shard", shard=index, op="access",
                        subjects=len(group),
                    ):
                        for subject_id in group:
                            shard_reports[subject_id] = self.right_of_access(
                                subject_id, snapshot=snapshot
                            )
                    return shard_reports

                for shard_reports in self._fan([
                    (lambda i=index, g=group: one_shard(i, g))
                    for index, group in groups
                ]):
                    reports.update(shard_reports)
            finally:
                snapshot.release()
        return reports

    def bulk_erase(
        self, subject_ids: Sequence[str], mode: str = "escrow"
    ) -> Dict[str, ErasureOutcome]:
        """Art. 17 for many subjects: one journal group commit per shard.

        Subjects are grouped by owning shard; every shard's erasures
        (membrane rewrites + delete markers) share a single
        :meth:`~repro.storage.journal.Journal.batch` group commit, so
        the journal cost of an N-subject purge is one flush per shard
        rather than several per subject.  With the request engine's
        runner installed the shards purge concurrently — each group
        holds only its own shard's writer lock, so the shards never
        contend with one another.
        """
        outcomes: Dict[str, ErasureOutcome] = {}
        with self.telemetry.op(
            "rights.bulk_erase", subjects=len(subject_ids), mode=mode
        ):
            groups = sorted(self.dbfs.subjects_by_shard(subject_ids).items())
            shards = self.dbfs.shards

            def one_shard(index: int, group: List[str]):
                shard_outcomes = {}
                with self.telemetry.span(
                    "rights.shard", shard=index, op="erase",
                    subjects=len(group),
                ):
                    # shard.batch() holds the shard's writer lock for
                    # the whole group commit, keeping concurrent
                    # same-shard mutators out of the batch.
                    with shards[index].batch():
                        for subject_id in group:
                            shard_outcomes[subject_id] = self.erase(
                                subject_id, mode=mode
                            )
                return shard_outcomes

            for shard_outcomes in self._fan([
                (lambda i=index, g=group: one_shard(i, g))
                for index, group in groups
            ]):
                outcomes.update(shard_outcomes)
        return outcomes

    # ------------------------------------------------------------------
    # Art. 18 — restriction of processing
    # ------------------------------------------------------------------

    def restrict(self, subject_id: str, ref: PDRef) -> List[str]:
        """Freeze processing of one PD (and its copies)."""
        self._require_ownership(subject_id, ref.uid)
        return self.builtins.apply_membrane_change(
            ref.uid, lambda membrane: membrane.restrict()
        )

    def lift_restriction(self, subject_id: str, ref: PDRef) -> List[str]:
        self._require_ownership(subject_id, ref.uid)
        return self.builtins.apply_membrane_change(
            ref.uid, lambda membrane: membrane.unrestrict()
        )

    # ------------------------------------------------------------------
    # Art. 7 / Art. 21 — consent lifecycle
    # ------------------------------------------------------------------

    def grant_consent(
        self,
        subject_id: str,
        ref: PDRef,
        purpose: str,
        scope: str,
    ) -> List[str]:
        """Grant (or re-scope) a consent; propagates to all copies."""
        self._require_ownership(subject_id, ref.uid)
        now = self.clock.now()
        return self.builtins.apply_membrane_change(
            ref.uid,
            lambda membrane: membrane.grant(
                purpose, scope, basis=BASIS_CONSENT, at=now, by=subject_id
            ),
        )

    def object_to(self, subject_id: str, purpose: str) -> List[str]:
        """Art. 21 objection: revoke a purpose on ALL the subject's PD."""
        now = self.clock.now()
        updated: List[str] = []
        for uid in self.dbfs.uids_of_subject(subject_id):
            membrane = self.dbfs.get_membrane(uid, self._credential)
            if membrane.erased:
                continue
            updated.extend(
                self.builtins.apply_membrane_change(
                    uid,
                    lambda m: m.revoke(purpose, at=now, by=subject_id),
                )
            )
        return sorted(set(updated))

    def consent_receipt(self, subject_id: str) -> Dict[str, object]:
        """Art. 7(1): "the controller shall be able to demonstrate that
        the data subject has consented".

        Returns a structured receipt: for every piece of the subject's
        PD, the current consent state and the full grant/revoke
        history (who, when, which scope, which lawful basis), straight
        from the membranes — the demonstration is the data structure
        itself, not a reconstructed claim.
        """
        entries = []
        for uid in self.dbfs.uids_of_subject(subject_id):
            membrane = self.dbfs.get_membrane(uid, self._credential)
            entries.append(
                {
                    "uid": uid,
                    "pd_type": membrane.pd_type,
                    "erased": membrane.erased,
                    "current_consents": {
                        purpose: {
                            "scope": decision.scope,
                            "basis": decision.basis,
                            "granted_at": decision.granted_at,
                            "granted_by": decision.granted_by,
                        }
                        for purpose, decision in sorted(
                            membrane.consents.items()
                        )
                    },
                    "history": [
                        {
                            "action": event.action,
                            "purpose": event.purpose,
                            "scope": event.scope,
                            "basis": event.basis,
                            "at": event.at,
                            "by": event.by,
                        }
                        for event in membrane.history
                    ],
                }
            )
        return {
            "subject_id": subject_id,
            "generated_at": self.clock.now(),
            "article": "GDPR Art. 7(1)",
            "records": entries,
        }

    # ------------------------------------------------------------------
    # Art. 5(1)(e) — storage limitation (TTL sweep)
    # ------------------------------------------------------------------

    def expire_overdue(self, mode: str = "escrow") -> List[str]:
        """Erase every PD whose TTL has elapsed; returns erased uids.

        rgpdOS runs this periodically; benchmarks call it directly.
        """
        with self.telemetry.op("rights.ttl_sweep") as span:
            now = self.clock.now()
            purged: List[str] = []
            for uid, membrane in overdue_membranes(
                self.dbfs.iter_membranes(self._credential), now
            ):
                ref = PDRef(
                    uid=uid,
                    pd_type=membrane.pd_type,
                    subject_id=membrane.subject_id,
                )
                report = self.builtins.delete(
                    ref, mode=mode, actor="sysadmin", include_copies=False
                )
                purged.extend(report.erased_lineage)
            span.set_attr("purged", len(set(purged)))
            return sorted(set(purged))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require_ownership(self, subject_id: str, uid: str) -> None:
        membrane = self.dbfs.get_membrane(uid, self._credential)
        if membrane.subject_id != subject_id:
            raise errors.ConsentDenied(
                purpose="subject-right",
                subject=membrane.subject_id,
                detail=f"{subject_id!r} is not the subject of {uid!r}",
            )
