"""Always-on compliance monitors: residue, TTL, breach, journal.

ROADMAP item 2 asks for the one-shot forensic residue scan to become
an *always-on invariant*.  These monitors run continuously in the
background (on the request engine's thread infrastructure when one is
running, so monitor work queues in its own purpose-fair lane and can
never starve foreground rights requests) and publish what they see as
``rgpdos.residue.*`` / ``rgpdos.audit.*`` gauges — the same registry
Prometheus scrapes and the audit engine cites as evidence.

* :class:`ResidueScrubberMonitor` — sweeps every shard device one
  window per tick for non-empty blocks no owner references (the
  block-ownership rule of
  :meth:`~repro.storage.dbfs.DatabaseFS.owned_blocks`), publishing
  the ``rgpdos.residue.device_blocks`` gauge.  It needs no PD to look
  for, so it catches leftover bytes of any value.  A planted block is
  found within one full sweep by construction: the cursor covers
  every block of every shard before wrapping.
* :class:`TTLWatcherMonitor` — counts live membranes past retention
  (Art. 5(1)(e)).
* :class:`BreachDeadlineWatcherMonitor` — runs the Art. 33 breach scan
  and exposes the 72-hour notification countdown as a gauge.
* :class:`JournalBoundWatcherMonitor` — watches journal extent
  utilisation so retention enforcement never silently stalls on a
  full journal.

Every significant observation is sealed into the system's
hash-chained :class:`~repro.obs.evidence.EvidenceTrail`; payloads
carry counts, uids and block numbers, never PD — the trail must not
itself become a leak.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import (
    Deque, Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING,
)

from .. import errors
from ..core.active_data import AccessCredential, PDRef
from ..core.membrane import Membrane, overdue_membranes
from ..kernel.timerwheel import TimerWheel
from .evidence import EvidenceTrail

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import Telemetry

#: Fairness lane monitor ticks run under when an engine is installed.
MONITOR_LANE = "monitors"

#: Fairness lane the expiry daemon's erasure waves run under — separate
#: from ``monitors`` so a deep retention backlog queues behind its own
#: lane and can never crowd monitor ticks or foreground rights work.
RETENTION_LANE = "retention"


class Monitor:
    """One background invariant check.

    ``tick(now)`` publishes the monitor's gauges and returns a payload
    dict when the observation is *significant* (worth sealing into the
    evidence trail), else ``None``.
    """

    name = "monitor"

    def tick(self, now: float) -> Optional[Mapping[str, object]]:
        raise NotImplementedError


class ResidueScrubberMonitor(Monitor):
    """Incremental device-residue scrubber over block ownership.

    Each tick checks the window ``[cursor, cursor + SAMPLE_BLOCKS)`` of
    every shard device through
    :meth:`~repro.storage.dbfs.DatabaseFS.unowned_blocks`, advancing
    the cursor until the largest device is covered — one *sweep*.  The
    ``rgpdos.residue.device_blocks`` gauge holds the last completed
    sweep's residue count; ``rgpdos.residue.sweep_matches`` the running
    count of the sweep in progress, so a planted block shows up at the
    tick that crosses it, not only at sweep end.
    """

    name = "residue-scrubber"
    #: Blocks each tick checks on every shard device.
    SAMPLE_BLOCKS = 64

    def __init__(self, dbfs, telemetry: "Telemetry") -> None:
        self.dbfs = dbfs
        self.telemetry = telemetry
        self._cursor = 0
        self._sweep_matches = 0
        self._sweeps_completed = 0
        self._last_sweep_matches = 0

    @property
    def device_span(self) -> int:
        """Blocks one sweep must cover (largest shard device)."""
        return max(shard.device.block_count for shard in self.dbfs.shards)

    def ticks_per_sweep(self) -> int:
        span = self.device_span
        return (span + self.SAMPLE_BLOCKS - 1) // self.SAMPLE_BLOCKS

    @property
    def sweeps_completed(self) -> int:
        return self._sweeps_completed

    def tick(self, now: float) -> Optional[Mapping[str, object]]:
        registry = self.telemetry.registry
        start = self._cursor
        stop = start + self.SAMPLE_BLOCKS
        scanned = 0
        residue: List[List[int]] = []
        for index, shard in enumerate(self.dbfs.shards):
            scanned += max(0, min(stop, shard.device.block_count) - start)
            residue += [
                [index, block_no]
                for block_no in shard.unowned_blocks(start, stop)
            ]
        self._cursor = stop
        self._sweep_matches += len(residue)
        registry.counter("rgpdos.residue.scanned_blocks").inc(scanned)
        registry.gauge("rgpdos.residue.sweep_matches").set(
            self._sweep_matches)
        span = self.device_span
        finished = self._cursor >= span
        progress = 100.0 if finished else 100.0 * self._cursor / span
        registry.gauge("rgpdos.residue.sweep_progress_pct").set(
            round(progress, 1))
        significant = bool(residue)
        payload: Dict[str, object] = {
            "matches": len(residue),
            "scanned_blocks": scanned,
            "cursor": min(self._cursor, span),
        }
        if residue:
            payload["blocks"] = residue[:16]
        if finished:
            self._last_sweep_matches = self._sweep_matches
            self._sweeps_completed += 1
            registry.gauge("rgpdos.residue.device_blocks").set(
                self._last_sweep_matches)
            registry.counter("rgpdos.residue.sweeps").inc()
            payload["sweep_completed"] = self._sweeps_completed
            payload["sweep_residue_blocks"] = self._last_sweep_matches
            self._cursor = 0
            self._sweep_matches = 0
            significant = True
        return payload if significant else None


def breach_status(breach_monitor, now: float, registry) -> Dict[str, float]:
    """Art. 33 deadline status, published as ``rgpdos.audit.breach_*``.

    The one computation behind both the breach-deadline watcher and
    the audit's Art. 33 control: notifiable reports, those still
    pending notification, those past the 72-hour window, and the
    seconds left on the tightest open deadline (0 when none is open).
    """
    pending = breach_monitor.pending_notifications()
    status = {
        "notifiable": len(breach_monitor.notifiable_reports()),
        "pending": len(pending),
        "overdue": len(breach_monitor.overdue_notifications(now)),
        "countdown_seconds": min(
            (r.notification_deadline - now for r in pending
             if r.notification_deadline >= now),
            default=0.0,
        ),
    }
    registry.gauge("rgpdos.audit.breach_notifiable").set(
        status["notifiable"])
    registry.gauge("rgpdos.audit.breach_overdue").set(status["overdue"])
    registry.gauge("rgpdos.audit.breach_countdown_seconds").set(
        status["countdown_seconds"])
    return status


class TTLWatcherMonitor(Monitor):
    """Counts live membranes past their retention TTL (Art. 5(1)(e))."""

    name = "ttl-watcher"

    def __init__(self, dbfs, clock, telemetry: "Telemetry") -> None:
        self.dbfs = dbfs
        self.clock = clock
        self.telemetry = telemetry
        self._ded = AccessCredential(holder="ttl-watcher", is_ded=True)
        self._last_overdue = -1

    def tick(self, now: float) -> Optional[Mapping[str, object]]:
        overdue = [
            uid for uid, _ in
            overdue_membranes(self.dbfs.iter_membranes(self._ded), now)
        ]
        self.telemetry.registry.gauge("rgpdos.audit.ttl_overdue").set(
            len(overdue))
        changed = len(overdue) != self._last_overdue
        self._last_overdue = len(overdue)
        if not changed:
            return None
        return {"overdue": len(overdue), "uids": sorted(overdue)[:8]}


class BreachDeadlineWatcherMonitor(Monitor):
    """Runs the Art. 33 scan and exposes the 72-hour countdown."""

    name = "breach-watcher"

    def __init__(self, breach_monitor, clock, telemetry: "Telemetry") -> None:
        self.breach_monitor = breach_monitor
        self.clock = clock
        self.telemetry = telemetry
        self._last: Tuple[int, int, int] = (-1, -1, -1)

    def tick(self, now: float) -> Optional[Mapping[str, object]]:
        scan = self.breach_monitor.scan()
        status = breach_status(
            self.breach_monitor, now, self.telemetry.registry
        )
        state = (status["notifiable"], status["pending"], status["overdue"])
        changed = state != self._last or bool(scan.indicators)
        self._last = state
        if not changed:
            return None
        return {
            **status,
            "new_indicators": [
                {"source": i.source, "count": i.count,
                 "severity": i.severity}
                for i in scan.indicators
            ],
        }


class JournalBoundWatcherMonitor(Monitor):
    """Watches journal extent utilisation across the shard fleet."""

    name = "journal-watcher"

    #: Worst-shard journal utilisation that raises the warning.
    warn_utilization = 0.8

    def __init__(self, dbfs, telemetry: "Telemetry") -> None:
        self.dbfs = dbfs
        self.telemetry = telemetry
        self._last_warned: Optional[bool] = None

    def tick(self, now: float) -> Optional[Mapping[str, object]]:
        utilizations = []
        live_records = 0
        for shard in self.dbfs.shards:
            journal = shard.journal
            capacity = max(1, journal.reserved_blocks - 2)
            utilizations.append(journal.blocks_in_use / capacity)
            live_records += len(journal)
        worst = max(utilizations) if utilizations else 0.0
        registry = self.telemetry.registry
        registry.gauge("rgpdos.audit.journal_utilization_pct").set(
            round(100.0 * worst, 1))
        registry.gauge("rgpdos.audit.journal_live_records").set(live_records)
        warned = worst >= self.warn_utilization
        changed = warned != self._last_warned
        self._last_warned = warned
        if not changed:
            return None
        return {
            "utilization_pct": round(100.0 * worst, 1),
            "live_records": live_records,
            "over_threshold": warned,
            "threshold_pct": round(100.0 * self.warn_utilization, 1),
        }


class ExpiryDaemon(Monitor):
    """Proactive Art. 5(1)(e) enforcement: timer-wheel TTL expiry.

    Every membrane with a TTL is indexed in a hierarchical
    :class:`~repro.kernel.timerwheel.TimerWheel` by its absolute
    expiry deadline (fed from each shard's mutation stream, and seeded
    from the membranes by :meth:`rebind`).  Each tick advances the
    wheel to the shared clock's ``now`` and drains the due deadlines
    into ``escrow``-mode **erasure waves**:

    * bounded at ``wave_size`` records each, so foreground traffic
      never stalls behind a mass expiry;
    * one journal group commit per shard per wave
      (``shard.batch()``), so an N-record wave costs one flush per
      shard, not N;
    * submitted on the request engine's ``retention`` fairness lane
      when an engine is running (shed waves return to the backlog),
      inline otherwise — tests and the CLI's ``--continuous`` stay
      deterministic;
    * sealed into the hash-chained evidence trail as a
      ``retention-wave`` entry.  The Art. 5(1)(e) audit control cites
      these entries: the control goes green because the daemon
      provably ran, not because traffic happened to touch expired
      records.

    The wheel is an index, never the authority: every due uid is
    re-checked against its membrane's canonical
    :meth:`~repro.core.membrane.Membrane.is_expired` before erasure,
    so a stale wheel entry can waste a lookup but cannot erase
    unexpired PD.
    """

    name = "expiry-daemon"
    mode = "escrow"

    def __init__(
        self,
        dbfs,
        clock,
        builtins,
        trail: EvidenceTrail,
        telemetry: "Telemetry",
        engine=None,
        wave_size: int = 64,
    ) -> None:
        self.dbfs = dbfs
        self.clock = clock
        self.builtins = builtins
        self.trail = trail
        self.telemetry = telemetry
        self.engine = engine
        self.wave_size = max(1, wave_size)
        self._ded = AccessCredential(holder="expiry-daemon", is_ded=True)
        self._lock = threading.Lock()
        self._backlog: Deque[str] = deque()
        self._inflight: List[object] = []
        self.waves = 0
        self.erased_total = 0
        self.shed_waves = 0
        self.wave_seqs: Deque[int] = deque(maxlen=16)
        self.rebind(dbfs)

    # -- wheel feeding ---------------------------------------------------

    def _on_mutation(self, op: str, payload: Mapping[str, object]) -> None:
        """Mutation-stream subscriber: store and membrane updates
        reschedule (or cancel, once erased or TTL-free), delete
        cancels, every other op is ignored.  Runs on whatever thread
        mutated the store."""
        if op == "delete":
            deadline = None
        elif op in ("store", "membrane_update"):
            membrane = Membrane.from_json(payload["membrane_json"])
            deadline = None if membrane.erased else membrane.expiry_deadline()
        else:
            return
        uid = payload["uid"]
        with self._lock:
            if deadline is None:
                self.wheel.cancel(uid)
            else:
                self.wheel.schedule(uid, deadline)

    def seed(self) -> int:
        """(Re)index every live TTL'd membrane (see :meth:`rebind`).
        Returns the number indexed."""
        count = 0
        with self._lock:
            for uid, membrane in self.dbfs.iter_membranes(self._ded):
                if membrane.erased:
                    continue
                deadline = membrane.expiry_deadline()
                if deadline is not None:
                    self.wheel.schedule(uid, deadline)
                    count += 1
        return count

    def rebind(self, dbfs, builtins=None) -> int:
        """Attach to ``dbfs``: construction, and the one re-attach path
        after a true-crash remount.

        An in-place ``remount()`` keeps the store object, so the
        daemon's subscription and wheel survive on their own.
        ``remount_from_device`` / ``remount_from_devices`` build
        *fresh* store objects with no subscribers — without this call
        the daemon would keep feeding a dead store's wheel and never
        hear another store or erasure.  Unsubscribes from the previous
        store's shards (so a rebind never stacks a second
        registration), subscribes to the mutation stream of each of
        ``dbfs.shards``, swaps in a fresh wheel (stale pre-crash
        entries drop), re-seeds it from the recovered membranes, and
        clears the backlog of uids that may no longer exist.  Returns
        the number of deadlines indexed.
        """
        for shard in self.dbfs.shards:
            shard.remove_mutation_observer(self._on_mutation)
        with self._lock:
            self.dbfs = dbfs
            if builtins is not None:
                self.builtins = builtins
            self.wheel = TimerWheel(start=self.clock.now())
            self._backlog.clear()
        for shard in dbfs.shards:
            shard.add_mutation_observer(self._on_mutation)
        return self.seed()

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self.wheel)

    @property
    def backlog(self) -> int:
        with self._lock:
            return len(self._backlog)

    # -- ticking ---------------------------------------------------------

    def tick(self, now: float) -> Optional[Mapping[str, object]]:
        self._harvest()
        with self._lock:
            due = self.wheel.advance(now)
            due.extend(self._backlog)
            self._backlog.clear()
        candidates = self._verify(due, now)
        submitted = 0
        shed = 0
        engine = self.engine
        while candidates:
            wave, candidates = (
                candidates[: self.wave_size],
                candidates[self.wave_size:],
            )
            if engine is not None and engine.running:
                future = engine.try_submit(
                    self._erase_wave, wave, now, purpose=RETENTION_LANE
                )
                if future is None:
                    # Lane full: foreground traffic wins; the wave
                    # returns to the backlog for the next tick.
                    shed += 1
                    with self._lock:
                        self._backlog.extend(uid for uid, _, _ in wave)
                        self._backlog.extend(
                            uid for uid, _, _ in candidates)
                    candidates = []
                    break
                self._inflight.append(future)
            else:
                self._erase_wave(wave, now)
            submitted += 1
        registry = self.telemetry.registry
        with self._lock:
            pending = len(self.wheel)
            backlog = len(self._backlog)
        if shed:
            self.shed_waves += shed
            registry.counter("rgpdos.retention.shed_waves").inc(shed)
        registry.gauge("rgpdos.retention.pending").set(pending)
        registry.gauge("rgpdos.retention.backlog").set(backlog)
        if not due and not submitted:
            return None
        return {
            "due": len(due),
            "waves_submitted": submitted,
            "shed_waves": shed,
            "backlog": backlog,
            "pending": pending,
        }

    def _verify(
        self, uids: Sequence[str], now: float
    ) -> List[Tuple[str, str, str]]:
        """Authoritative membrane check for every due uid.

        Erased/unknown uids drop out; uids whose TTL moved (membrane
        evolution) go back on the wheel; only canonically-expired PD
        becomes an erasure candidate."""
        candidates: List[Tuple[str, str, str]] = []
        seen = set()
        for uid in uids:
            if uid in seen:
                continue
            seen.add(uid)
            try:
                membrane = self.dbfs.get_membrane(uid, self._ded)
            except errors.RgpdOSError:
                continue
            if membrane.erased:
                continue
            if not membrane.is_expired(now):
                deadline = membrane.expiry_deadline()
                if deadline is not None:
                    with self._lock:
                        self.wheel.schedule(uid, deadline)
                continue
            candidates.append(
                (uid, membrane.pd_type, membrane.subject_id)
            )
        return candidates

    # -- erasure waves ---------------------------------------------------

    def _erase_wave(
        self, wave: Sequence[Tuple[str, str, str]], now: float
    ) -> int:
        """Erase one bounded wave: one journal group commit per shard,
        sealed as a ``retention-wave`` evidence entry."""
        by_shard: Dict[int, List[Tuple[str, str, str]]] = {}
        shard_of = {
            subject_id: index
            for index, group in self.dbfs.subjects_by_shard(
                sorted({subject for _, _, subject in wave})
            ).items()
            for subject_id in group
        }
        for entry in wave:
            by_shard.setdefault(shard_of[entry[2]], []).append(entry)
        erased: List[str] = []
        residue_blocks = 0
        shards = self.dbfs.shards
        for index in sorted(by_shard):
            with shards[index].batch():
                for uid, pd_type, subject_id in by_shard[index]:
                    try:
                        membrane = self.dbfs.get_membrane(uid, self._ded)
                        if membrane.erased:
                            continue
                        report = self.builtins.delete(
                            PDRef(
                                uid=uid, pd_type=pd_type,
                                subject_id=subject_id,
                            ),
                            mode=self.mode,
                            actor="sysadmin",
                            include_copies=False,
                        )
                        erased.extend(report.erased_lineage)
                        residue_blocks += report.residue_device_blocks
                    except errors.RgpdOSError:
                        continue
        entry = self.trail.append(
            kind="retention-wave",
            source=self.name,
            payload={
                "wave_records": len(wave),
                "erased": len(set(erased)),
                "uids": sorted(set(erased))[:16],
                "residue_device_blocks": residue_blocks,
                "shards": sorted(by_shard),
                "mode": self.mode,
            },
            at=now,
        )
        registry = self.telemetry.registry
        registry.counter("rgpdos.retention.waves").inc()
        registry.counter("rgpdos.retention.erased").inc(len(set(erased)))
        registry.gauge("rgpdos.retention.last_wave_size").set(len(wave))
        with self._lock:
            self.waves += 1
            self.erased_total += len(set(erased))
            self.wave_seqs.append(int(entry["seq"]))
        return len(set(erased))

    def _harvest(self) -> None:
        """Reap finished engine-submitted waves (results already
        accounted inside ``_erase_wave``)."""
        still = []
        for future in self._inflight:
            if not future.done():
                still.append(future)
        self._inflight = still

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until every submitted wave has completed (tests, CLI,
        benchmarks — never called from an engine worker)."""
        for future in list(self._inflight):
            try:
                future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 - wave errors are sealed
                pass
        self._harvest()
        return not self._inflight

    def run_until_drained(self, max_ticks: int = 64) -> int:
        """Tick (inline) until wheel past-due work and backlog are
        empty; returns erased-so-far.  Drives the daemon to a fixpoint
        at a frozen clock instant."""
        for _ in range(max_ticks):
            self.tick(self.clock.now())
            self.drain()
            with self._lock:
                idle = not self._backlog and not self._inflight
            if idle:
                break
        return self.erased_total

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "pending": len(self.wheel),
                "backlog": len(self._backlog),
                "waves": self.waves,
                "erased_total": self.erased_total,
                "shed_waves": self.shed_waves,
                "wave_size": self.wave_size,
                "mode": self.mode,
                "wheel": self.wheel.as_dict(),
            }


class MonitorDaemon:
    """Drives the monitors, inline or on the request engine.

    ``tick_all()`` runs one synchronous round (tests and the CLI's
    ``--continuous`` drive this directly for determinism);
    :meth:`start` spins a daemon thread ticking every
    ``interval_seconds`` of *wall* time.  When a running
    :class:`~repro.engine.engine.RequestEngine` is installed, each
    monitor's tick is submitted to the engine under the ``monitors``
    fairness lane, so background compliance work shares worker threads
    with (but cannot starve) foreground requests.
    """

    def __init__(
        self,
        monitors: Sequence[Monitor],
        clock,
        trail: EvidenceTrail,
        telemetry: "Telemetry",
        interval_seconds: float = 0.05,
        engine=None,
    ) -> None:
        self.monitors = list(monitors)
        self.clock = clock
        self.trail = trail
        self.telemetry = telemetry
        self.interval_seconds = interval_seconds
        self.engine = engine
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.ticks = 0
        self.evidence_appended = 0

    # -- driving ---------------------------------------------------------

    def tick_all(self) -> int:
        """One round over every monitor; returns evidence entries sealed."""
        now = self.clock.now()
        engine = self.engine
        if engine is not None and engine.running:
            futures = [
                (monitor, engine.try_submit(
                    monitor.tick, now, purpose=MONITOR_LANE))
                for monitor in self.monitors
            ]
            outcomes = [
                (monitor, future.result() if future is not None
                 else monitor.tick(now))
                for monitor, future in futures
            ]
        else:
            outcomes = [
                (monitor, monitor.tick(now)) for monitor in self.monitors
            ]
        sealed = 0
        for monitor, payload in outcomes:
            if payload is not None:
                self.trail.append(
                    kind="monitor", source=monitor.name,
                    payload=dict(payload), at=now,
                )
                sealed += 1
        self.ticks += 1
        self.evidence_appended += sealed
        registry = self.telemetry.registry
        registry.counter("rgpdos.audit.monitor_ticks").inc()
        registry.gauge("rgpdos.audit.evidence_entries").set(len(self.trail))
        return sealed

    def run_for_ticks(self, ticks: int) -> int:
        """Drive ``ticks`` synchronous rounds; returns evidence sealed."""
        return sum(self.tick_all() for _ in range(ticks))

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "MonitorDaemon":
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="rgpdos-monitors", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.tick_all()
            self._stop.wait(self.interval_seconds)

    # -- reporting -------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "running": self.running,
            "interval_seconds": self.interval_seconds,
            "monitors": [monitor.name for monitor in self.monitors],
            "ticks": self.ticks,
            "evidence_appended": self.evidence_appended,
            "on_engine": bool(self.engine is not None
                              and self.engine.running),
        }
