"""rgpdOS built-in functions (the F_pd^w category).

Paper § 2: *"F_pd^w functions are natively provided by rgpdOS (they
are built-in) ... Built-in functions ensure that every PD is correctly
wrapped, that is it always includes a membrane.  Among built-in
functions, we can list update, delete, copy and acquisition."*

The paper motivates each one, and each motivation is enforced here:

* ``copy`` — "rgpdOS must ensure membrane consistency across all
  copies of the same PD": copies share a *lineage* id, and every
  membrane mutation (consent grant/revoke, restriction) fans out to
  the whole lineage group via :meth:`BuiltinFunctions.apply_membrane_change`.
* ``acquisition`` — "rgpdOS must ensure privacy and traceability from
  the moment PD enters the system": collection requires a collection
  method declared by the type, records the origin, and builds the
  membrane before the record touches DBFS.
* ``delete`` — "rgpdOS must ensure the GDPR's right to be forgotten":
  deletion crypto-erases (escrow mode by default, § 4 construction)
  and reports the residue scan so compliance is checkable, not
  assumed.
* ``update`` — rewrites fields in place with scrubbing of old values.

Authorisation: built-ins mutate DBFS on behalf of an *actor* — the
data subject themselves or the sysadmin.  Anyone else is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from .. import errors
from ..storage.dbfs import DatabaseFS
from ..storage.query import (
    DataQuery,
    DeleteRequest,
    StoreRequest,
    UpdateRequest,
)
from .active_data import AccessCredential, PDRef
from .clock import Clock
from .datatypes import PDType
from .membrane import Membrane, membrane_for_type
from .processing_log import (
    ACCESS_COPIED,
    ACCESS_DELETED,
    ACCESS_PRODUCED,
    ACCESS_UPDATED,
    OUTCOME_COMPLETED,
    PDAccess,
    ProcessingLog,
)

SYSADMIN = "sysadmin"

BUILTIN_UPDATE = "update"
BUILTIN_DELETE = "delete"
BUILTIN_COPY = "copy"
BUILTIN_ACQUISITION = "acquisition"
BUILTIN_NAMES = (BUILTIN_UPDATE, BUILTIN_DELETE, BUILTIN_COPY, BUILTIN_ACQUISITION)


@dataclass
class EraseReport:
    """Outcome of a ``delete`` — evidence, not just a success flag."""

    uid: str
    mode: str
    erased_lineage: List[str] = field(default_factory=list)
    residue_device_blocks: int = 0
    residue_journal_records: int = 0

    @property
    def fully_forgotten(self) -> bool:
        return self.residue_device_blocks == 0 and self.residue_journal_records == 0


class BuiltinFunctions:
    """The four built-ins, bound to one DBFS instance."""

    def __init__(self, dbfs: DatabaseFS, clock: Clock, log: ProcessingLog) -> None:
        self.dbfs = dbfs
        self.clock = clock
        self.log = log
        self.credential = AccessCredential(holder="rgpdos-builtins", is_ded=True)
        #: Observers called after every erasure with
        #: ``(subject_id, erased_uids, residue)`` — the system seals
        #: each erasure's residue counts into its evidence trail.
        self.erase_observers: List[Callable[..., None]] = []

    # ------------------------------------------------------------------
    # Authorisation
    # ------------------------------------------------------------------

    def _authorize(self, membrane: Membrane, actor: str, operation: str) -> None:
        """Only the subject or the sysadmin may mutate PD state."""
        if actor == SYSADMIN or actor == membrane.subject_id:
            return
        raise errors.ConsentDenied(
            purpose=operation,
            subject=membrane.subject_id,
            detail=f"actor {actor!r} may not {operation} this PD",
        )

    # ------------------------------------------------------------------
    # acquisition (data collection)
    # ------------------------------------------------------------------

    def acquisition(
        self,
        type_name: str,
        record: Mapping[str, object],
        subject_id: str,
        method: str,
        consents: Optional[Mapping[str, str]] = None,
        actor: str = SYSADMIN,
    ) -> PDRef:
        """Collect one PD record through a declared collection interface.

        ``method`` must be one of the type's declared collection
        interfaces (e.g. ``web_form``); ``consents`` are additional
        subject-granted consents collected alongside the data
        (purpose → scope).  The membrane is filled *before* storage —
        the "needed metadata to fill the membrane with at data
        collection time".
        """
        pd_type = self.dbfs.get_type(type_name)
        if method not in pd_type.collection:
            raise errors.GDPRError(
                f"type {type_name!r} declares no collection method {method!r} "
                f"(declared: {sorted(pd_type.collection)})"
            )
        now = self.clock.now()
        membrane = membrane_for_type(
            pd_type, subject_id=subject_id, created_at=now
        )
        membrane.collection = {method: pd_type.collection[method]}
        for purpose, scope in sorted((consents or {}).items()):
            membrane.grant(purpose, scope, at=now, by=subject_id)
        ref = self.dbfs.store(
            StoreRequest(
                pd_type=type_name,
                record=dict(record),
                membrane_json=membrane.to_json(),
            ),
            self.credential,
        )
        self.log.record(
            at=now,
            purpose=BUILTIN_ACQUISITION,
            processing=f"builtin:{BUILTIN_ACQUISITION}",
            outcome=OUTCOME_COMPLETED,
            accesses=(
                PDAccess(uid=ref.uid, subject_id=subject_id, mode=ACCESS_PRODUCED),
            ),
            detail=f"collected via {method}:{pd_type.collection[method]}",
        )
        return ref

    # ------------------------------------------------------------------
    # update
    # ------------------------------------------------------------------

    def update(
        self,
        target: PDRef,
        changes: Mapping[str, object],
        actor: str = SYSADMIN,
    ) -> None:
        """Rewrite fields of one PD record in place."""
        membrane = self.dbfs.get_membrane(target.uid, self.credential)
        self._authorize(membrane, actor, BUILTIN_UPDATE)
        self.dbfs.update(
            UpdateRequest(uid=target.uid, changes=dict(changes)), self.credential
        )
        self.log.record(
            at=self.clock.now(),
            purpose=BUILTIN_UPDATE,
            processing=f"builtin:{BUILTIN_UPDATE}",
            outcome=OUTCOME_COMPLETED,
            accesses=(
                PDAccess(
                    uid=target.uid,
                    subject_id=membrane.subject_id,
                    mode=ACCESS_UPDATED,
                    fields=tuple(sorted(changes)),
                ),
            ),
        )

    # ------------------------------------------------------------------
    # copy (with membrane consistency)
    # ------------------------------------------------------------------

    def copy(self, target: PDRef, actor: str = SYSADMIN) -> PDRef:
        """Duplicate one PD record; copies stay membrane-consistent.

        The original and the copy join the same lineage group; all
        future consent changes apply to the whole group (see
        :meth:`apply_membrane_change`).
        """
        membrane = self.dbfs.get_membrane(target.uid, self.credential)
        self._authorize(membrane, actor, BUILTIN_COPY)
        if membrane.erased:
            raise errors.ErasureError(f"cannot copy erased PD {target.uid!r}")

        # Establish the lineage group on first copy.
        if not membrane.lineage:
            self.dbfs.change_membrane(
                target.uid,
                lambda m: setattr(m, "lineage", target.uid),
                self.credential,
            )
            membrane = self.dbfs.get_membrane(target.uid, self.credential)

        record = _full_record(
            self.dbfs, target.uid, membrane.pd_type, self.credential
        )
        clone = membrane.clone_for_copy(at=self.clock.now())
        ref = self.dbfs.store(
            StoreRequest(
                pd_type=membrane.pd_type,
                record=record,
                membrane_json=clone.to_json(),
            ),
            self.credential,
        )
        self.log.record(
            at=self.clock.now(),
            purpose=BUILTIN_COPY,
            processing=f"builtin:{BUILTIN_COPY}",
            outcome=OUTCOME_COMPLETED,
            accesses=(
                PDAccess(
                    uid=target.uid, subject_id=membrane.subject_id, mode=ACCESS_COPIED
                ),
                PDAccess(
                    uid=ref.uid, subject_id=membrane.subject_id, mode=ACCESS_PRODUCED
                ),
            ),
        )
        return ref

    def lineage_of(self, uid: str) -> List[str]:
        """Every uid in the same lineage group (including ``uid``).

        Uses DBFS's lineage index — O(group size), not a full scan.
        """
        membrane = self.dbfs.get_membrane(uid, self.credential)
        if not membrane.lineage:
            return [uid]
        return self.dbfs.lineage_members(membrane.lineage)

    def lineage_of_scan(self, uid: str) -> List[str]:
        """Index-free O(N) lineage resolution, kept for the ablation
        benchmark (what every membrane change would cost without the
        lineage index) and as the remount-time rebuild reference."""
        membrane = self.dbfs.get_membrane(uid, self.credential)
        if not membrane.lineage:
            return [uid]
        return [
            other_uid
            for other_uid, other in self.dbfs.iter_membranes(self.credential)
            if other.lineage == membrane.lineage
        ]

    def apply_membrane_change(
        self, uid: str, mutate: Callable[[Membrane], None]
    ) -> List[str]:
        """Apply a membrane mutation to the full lineage group.

        This is the mechanism behind "membrane consistency across all
        copies": consent grants, revocations and restrictions call
        through here.  Returns the uids updated.

        The whole read-modify-write sequence (for the full lineage
        group, which is shard-affine) runs under the owning shard's
        writer lock, so two concurrent consent changes to the same
        lineage serialize instead of losing one side's update.
        """
        updated = []
        with self.dbfs.write_lock(uid):
            for member_uid in self.lineage_of(uid):
                membrane = self.dbfs.get_membrane(member_uid, self.credential)
                if membrane.erased:
                    continue
                self.dbfs.change_membrane(member_uid, mutate, self.credential)
                updated.append(member_uid)
        return updated

    # ------------------------------------------------------------------
    # delete (right to be forgotten)
    # ------------------------------------------------------------------

    def delete(
        self,
        target: PDRef,
        mode: str = "escrow",
        actor: str = SYSADMIN,
        include_copies: bool = True,
    ) -> EraseReport:
        """Erase one PD record — and, by default, every copy of it.

        Returns an :class:`EraseReport` carrying the forensic residue
        scan, so callers (and the audit engine) can verify the
        forgetting actually happened.
        """
        membrane = self.dbfs.get_membrane(target.uid, self.credential)
        self._authorize(membrane, actor, BUILTIN_DELETE)

        victims = (
            self.lineage_of(target.uid) if include_copies else [target.uid]
        )
        # Capture distinctive plaintext values before erasure so the
        # residue scan has concrete needles to look for.  They live
        # only for this call: no observer or report keeps them.
        needles = _needles_for(self.dbfs, victims, self.credential)

        erased: List[str] = []
        accesses: List[PDAccess] = []
        for uid in victims:
            m = self.dbfs.get_membrane(uid, self.credential)
            if m.erased:
                continue
            self.dbfs.delete(DeleteRequest(uid=uid, mode=mode), self.credential)
            erased.append(uid)
            accesses.append(
                PDAccess(uid=uid, subject_id=m.subject_id, mode=ACCESS_DELETED)
            )

        # Residue = needle matches OUTSIDE live-record and index blocks
        # (other subjects may legitimately store the same value, a
        # shared city name, say), plus erased uids INSIDE index pages.
        # DBFS scopes the scan: on a sharded store only the owning
        # shard's device and journal are searched, which is what keeps
        # per-delete cost flat as the population grows.
        residue = self.dbfs.residue_counts(
            needles, subject_id=membrane.subject_id, uids=erased
        )

        self.log.record(
            at=self.clock.now(),
            purpose=BUILTIN_DELETE,
            processing=f"builtin:{BUILTIN_DELETE}",
            outcome=OUTCOME_COMPLETED,
            accesses=tuple(accesses),
            detail=f"mode={mode}, erased={len(erased)} (lineage group)",
        )
        for observer in self.erase_observers:
            observer(membrane.subject_id, erased, residue)
        return EraseReport(
            uid=target.uid,
            mode=mode,
            erased_lineage=erased,
            residue_device_blocks=residue["device_blocks"],
            residue_journal_records=residue["journal_records"],
        )


def _full_record(
    dbfs: DatabaseFS, uid: str, type_name: str, credential: AccessCredential
) -> Dict[str, object]:
    """Every field of one record (built-in privilege)."""
    pd_type: PDType = dbfs.get_type(type_name)
    query = DataQuery(uids=(uid,), fields={uid: pd_type.field_names})
    return dbfs.fetch_records(query, credential)[uid]


def _needles_for(
    dbfs: DatabaseFS, uids: List[str], credential: AccessCredential
) -> List[bytes]:
    """Distinctive byte strings from the records about to be erased."""
    needles: List[bytes] = []
    for uid in uids:
        membrane = dbfs.get_membrane(uid, credential)
        if membrane.erased:
            continue
        record = _full_record(dbfs, uid, membrane.pd_type, credential)
        for value in record.values():
            if isinstance(value, str) and len(value) >= 4:
                needles.append(value.encode())
            elif isinstance(value, bytes) and len(value) >= 4:
                needles.append(value)
    return needles
