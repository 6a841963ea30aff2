"""SHARD — subject-scoped GDPR ops stay flat as shard count grows.

Two measurements, emitted to ``BENCH_shard.json`` in the shared
``bench_util`` schema:

* **subject-scoped persona mix** — the GDPRBench ``customer`` +
  ``regulator`` mixes (reads, rectifications, consent toggles,
  erasures, right-of-access exports, audits) against the rgpdOS
  adapter at 1 shard vs N shards, same population, same op sequence.
  Erasure's forensic residue scan walks only the owning shard's
  device and journal, so the mix speeds up roughly with the shard
  count; the acceptance target is >=3x at 8 shards / 20k subjects.
* **remount journal recovery** — the same store/update history with
  and without an auto-checkpoint policy, then the journal-recovery
  phase of remount (re-read + parse the live log from the device) is
  timed.  The checkpointed log is bounded (<= the threshold), the
  unchecked one fills its whole reserved extent; target >=5x.

Scale knobs (for the CI smoke job): ``SHARD_BENCH_SUBJECTS``,
``SHARD_BENCH_SHARDS``, ``SHARD_BENCH_OPS``.  The 3x assertion only
applies at full scale (>=20k subjects, >=8 shards); smaller runs
record their numbers without asserting a ratio the scale can't show.
"""

import os
import time

from bench_util import latency_block, merge_metric
from conftest import print_series

from repro import RgpdOS
from repro.baseline.gdprbench import GDPRBenchRunner, RgpdOSAdapter
from repro.storage.journal import JournalConfig
from repro.workloads.generator import STANDARD_DECLARATIONS, PopulationGenerator

SUBJECTS = int(os.environ.get("SHARD_BENCH_SUBJECTS", "20000"))
SHARDS = int(os.environ.get("SHARD_BENCH_SHARDS", "8"))
OPS_PER_PERSONA = int(os.environ.get("SHARD_BENCH_OPS", "40"))
PERSONAS = ("customer", "regulator")
TARGET_MIX_SPEEDUP = 3.0
TARGET_RECOVERY_SPEEDUP = 5.0
FULL_SCALE = SUBJECTS >= 20_000 and SHARDS >= 8


def build_runner(shards):
    """An rgpdOS adapter + runner sized for SUBJECTS over ``shards``.

    Each shard's device holds its slice of the population (~8 blocks
    per subject) plus slack — the per-shard device being smaller is
    the deployment reality sharding buys, and exactly what bounds the
    erasure residue scan.
    """
    per_shard = -(-SUBJECTS // shards)  # ceil division
    adapter = RgpdOSAdapter(
        shards=shards,
        pd_device_blocks=per_shard * 8 + 16384,
        with_machine=False,
    )
    runner = GDPRBenchRunner(adapter, seed=7)
    return runner


def test_shard_subject_scoped_mix():
    """customer+regulator mix: 1 shard vs SHARDS shards, same ops."""
    timings = {}
    loads = {}
    latencies = {}
    for shards in (1, SHARDS):
        runner = build_runner(shards)
        start = time.perf_counter()
        runner.load(SUBJECTS)
        loads[shards] = time.perf_counter() - start
        total = 0.0
        for persona in PERSONAS:
            total += runner.run(persona, OPS_PER_PERSONA).wall_seconds
        timings[shards] = total
        latencies[shards] = latency_block(
            runner.adapter.system.telemetry.registry,
            ["ps.invoke", "rights.access", "rights.erase",
             "dbfs.select_where", "dbfs.export_subject", "journal.commit"],
        )
    speedup = timings[1] / timings[SHARDS]

    rows = [
        ("config", "load_s", "mix_s"),
        ("1_shard", round(loads[1], 2), round(timings[1], 3)),
        (f"{SHARDS}_shards", round(loads[SHARDS], 2),
         round(timings[SHARDS], 3)),
        ("speedup", "", round(speedup, 2)),
    ]
    print_series(
        f"SHARD persona mix ({SUBJECTS} subjects, "
        f"{OPS_PER_PERSONA} ops x {len(PERSONAS)} personas)", rows,
    )
    merge_metric(
        "shard", "subject_scoped_mix",
        config={
            "subjects": SUBJECTS,
            "shards": SHARDS,
            "ops_per_persona": OPS_PER_PERSONA,
            "personas": list(PERSONAS),
        },
        samples={
            "one_shard_seconds": timings[1],
            "sharded_seconds": timings[SHARDS],
            "one_shard_load_seconds": loads[1],
            "sharded_load_seconds": loads[SHARDS],
        },
        speedup=speedup, baseline="one_shard_seconds",
        latency=latencies[SHARDS],
        extra={"one_shard_latency": latencies[1]},
    )
    if FULL_SCALE:
        assert speedup >= TARGET_MIX_SPEEDUP, (
            f"persona-mix speedup {speedup:.2f}x at {SHARDS} shards is "
            f"below the {TARGET_MIX_SPEEDUP}x target"
        )
    else:
        assert speedup > 0  # smoke scale: record, don't gate on ratio


def _system_with_history(journal_config, journal_blocks=2048, subjects=700):
    """A 1-shard system whose journal has seen a long op history."""
    system = RgpdOS(
        operator_name="shard-remount-bench",
        with_machine=False,
        journal_blocks=journal_blocks,
        journal_config=journal_config,
    )
    system.install(STANDARD_DECLARATIONS)
    generator = PopulationGenerator(seed=909)
    refs = []
    for subject in generator.subjects(subjects):
        refs.append(system.collect(
            "user", subject.user_record(),
            subject_id=subject.subject_id,
            method="web_form", consents={"analytics": "v_ano"},
        ))
    for ref in refs:  # a second journaled op per record
        system.ps.builtins.update(ref, {"city": "Rennes"}, actor="sysadmin")
    return system


def test_shard_remount_recovery_bounded():
    """Auto-checkpoint bounds the remount journal-recovery phase."""
    policy = JournalConfig(checkpoint_after_records=64)
    unchecked = _system_with_history(None)
    checkpointed = _system_with_history(policy)
    assert checkpointed.dbfs.journal.stats.checkpoints > 0
    assert len(checkpointed.dbfs.journal) <= 64 + 1  # + CHECKPOINT marker

    def recovery_seconds(system, rounds=5):
        system.dbfs.journal.recover()  # warm the page cache fairly
        start = time.perf_counter()
        for _ in range(rounds):
            system.dbfs.journal.recover()
        return time.perf_counter() - start

    unchecked_seconds = recovery_seconds(unchecked)
    checkpointed_seconds = recovery_seconds(checkpointed)
    speedup = unchecked_seconds / checkpointed_seconds

    remount_unchecked = time.perf_counter()
    unchecked.dbfs.remount()
    remount_unchecked = time.perf_counter() - remount_unchecked
    remount_checkpointed = time.perf_counter()
    checkpointed.dbfs.remount()
    remount_checkpointed = time.perf_counter() - remount_checkpointed

    rows = [
        ("config", "live_log", "recover_s"),
        ("no_checkpoint", len(unchecked.dbfs.journal),
         round(unchecked_seconds, 4)),
        ("checkpointed", len(checkpointed.dbfs.journal),
         round(checkpointed_seconds, 4)),
        ("speedup", "", round(speedup, 1)),
    ]
    print_series("SHARD remount recovery (2048-block journal)", rows)
    merge_metric(
        "shard", "remount_recovery",
        config={
            "journal_blocks": 2048,
            "checkpoint_after_records": 64,
            "history_subjects": 700,
        },
        samples={
            "no_checkpoint_seconds": unchecked_seconds,
            "checkpointed_seconds": checkpointed_seconds,
            "no_checkpoint_remount_seconds": remount_unchecked,
            "checkpointed_remount_seconds": remount_checkpointed,
        },
        speedup=speedup, baseline="no_checkpoint_seconds",
        latency=latency_block(
            checkpointed.telemetry.registry,
            ["journal.recover", "journal.checkpoint", "journal.commit"],
        ),
        extra={
            "journal_stats": {
                "checkpoints": checkpointed.dbfs.journal.stats.checkpoints,
                "checkpointed_records":
                    checkpointed.dbfs.journal.stats.checkpointed_records,
            },
        },
    )
    assert speedup >= TARGET_RECOVERY_SPEEDUP, (
        f"journal-recovery speedup {speedup:.1f}x below the "
        f"{TARGET_RECOVERY_SPEEDUP}x target"
    )
