"""In-place and true-crash recovery give one answer.

For every power-cut point of the CrashSim reference workload the same
seeded trial runs twice.  One crashed store is recovered the
true-crash way — a fresh object over the surviving device bytes and
inode tables (``remount_from_device(s)``); the other, once power is
back, by its own in-place ``remount()``.  Both run the one recovery
routine, so both must leave the same store: subjects, live and erased
uids, record values, index answers, non-empty and owned blocks per
shard, committed journal records and the recovery report.
"""

import itertools

import pytest

from repro import errors
from repro.storage import dbfs as dbfs_module
from repro.storage.crashsim import (
    ALL_FIELDS,
    DED,
    SUBJECTS,
    CrashSim,
    name_needle,
)
from repro.storage.faults import FaultPlan
from repro.storage.journal import TXN_COMMIT
from repro.storage.query import DataQuery, Predicate


def crashed_run(sim, cut_after, monkeypatch):
    """One seeded trial cut after ``cut_after`` writes, power back on.

    The uid counter restarts for every run, so both runs of a cut name
    the same records the same way.
    """
    monkeypatch.setattr(dbfs_module, "_uid_counter", itertools.count(1))
    injector, devices, fs = sim._build(
        FaultPlan(seed=sim.seed, power_cut_after_writes=cut_after)
    )
    try:
        sim.run_workload(fs, [], {})
    except errors.PowerLossError:
        pass
    injector.power_on()
    return devices, fs


def journal_entry(record):
    """A committed record; a fleet batch's random id is left out."""
    target = record.target
    if target.startswith("fleet-batch:"):
        target = "fleet-batch:" + target.split(":", 2)[2]
    return record.sequence, record.txn_id, record.record_type, target


def answer(store, predicate):
    """A lookup's uids, or the error a half-declared type raises."""
    try:
        return store.select_uids("crash_user", predicate, DED)
    except errors.RgpdOSError as exc:
        return type(exc).__name__


def outcome(store):
    """Everything the two recoveries must agree on."""
    uids = store.all_uids()
    erased = [uid for uid in uids if store.get_membrane(uid, DED).erased]
    live = [uid for uid in uids if uid not in erased]
    state = {
        "subjects": store.list_subjects(),
        "live": live,
        "erased": erased,
        "records": store.fetch_records(
            DataQuery(
                uids=tuple(live), fields={uid: ALL_FIELDS for uid in live}
            ),
            DED,
        ),
        "report": store.recovery_report,
    }
    if "crash_user" in store.list_types():
        predicates = [
            Predicate("name", "eq", name_needle(i)) for i in range(SUBJECTS)
        ] + [
            Predicate("year", "eq", year)
            for year in [1900 + i for i in range(SUBJECTS)] + [2001]
        ]
        state["index_answers"] = [
            answer(store, predicate) for predicate in predicates
        ]
    for index, shard in enumerate(store.shards):
        committed = {
            record.txn_id
            for record in shard.journal.records()
            if record.record_type == TXN_COMMIT
        }
        state[f"shard{index}"] = {
            "nonempty": shard.device.nonempty_blocks(
                0, shard.device.block_count
            ),
            "owned": sorted(shard.owned_blocks()),
            "journal": [
                journal_entry(record)
                for record in shard.journal.records()
                if record.txn_id in committed
            ],
        }
    return state


@pytest.mark.parametrize("shards", [1, 4])
def test_in_place_remount_matches_true_crash_remount(shards, monkeypatch):
    sim = CrashSim(shard_count=shards)
    format_writes, total_writes = sim.measure()
    assert total_writes - format_writes > 0
    differing = {}
    for cut in range(format_writes, total_writes):
        devices, crashed = crashed_run(sim, cut, monkeypatch)
        true_crash = outcome(sim._remount(crashed, devices))
        _, in_place = crashed_run(sim, cut, monkeypatch)
        in_place.remount()
        keys = [
            key for key, value in outcome(in_place).items()
            if true_crash.get(key) != value
        ]
        if keys:
            differing[cut] = keys
    assert differing == {}
