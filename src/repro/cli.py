"""Command-line interface: ``python -m repro <command>``.

Small operational surface over the library — enough to demo the
system, validate declaration files, and rerun the headline experiments
without writing Python:

==============  =========================================================
``demo``        the Listings 1–3 walkthrough (collect → invoke → rights)
``parse``       validate a declaration file; print what it declares
``fig1``        print the Figure 1 penalty series
``gdprbench``   the GB-1 persona × engine grid
``placement``   a DED placement decision (host / PIM / storage)
``explain``     plan a multi-predicate query over a seeded store
``audit``       build the demo system, run the compliance audit
``stats``       exercise the demo system, dump the telemetry snapshot
``version``     library version
==============  =========================================================

``demo`` and ``gdprbench`` accept ``--trace-out FILE`` to dump the
run's trace spans as JSONL; ``stats`` accepts ``--format prometheus``
for a scrapeable metrics dump.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import __version__, errors

_DEMO_DECLARATIONS = """
type user {
  fields { name: string, pwd: string [sensitive], year_of_birthdate: int };
  view v_name { name };
  view v_ano { year_of_birthdate };
  consent { purpose1: all, purpose2: none, purpose3: v_ano };
  collection { web_form: user_form.html };
  origin: subject;  age: 1Y;  sensitivity: hight;
}
type age_pd {
  fields { age: int };
  collection { web_form: derived };
  origin: sysadmin;  age: 90D;
}
purpose purpose3 {
  description: "Compute the age of the input user";
  uses: user via v_ano;  produces: age_pd;  basis: consent;
}
purpose purpose1 { description: "Account operation"; uses: user; basis: contract; }
purpose purpose2 { description: "Marketing"; uses: user; basis: consent; }
"""


def _demo_system(shards: int = 1, telemetry=None):
    from .core.purposes import attach_purpose
    from .core.system import RgpdOS

    system = RgpdOS(
        operator_name="cli-demo", shards=shards, telemetry=telemetry
    )
    system.install(_DEMO_DECLARATIONS)

    def compute_age(user):
        from .core.ded import produce

        if user.year_of_birthdate:
            return produce("age_pd", {"age": 2026 - user.year_of_birthdate})
        return None

    attach_purpose(compute_age, "purpose3")
    system.register(compute_age, sysadmin_approved=True)
    system.collect(
        "user",
        {"name": "Alice Martin", "pwd": "hunter2",
         "year_of_birthdate": 1990},
        subject_id="alice", method="web_form",
    )
    system.collect(
        "user",
        {"name": "Bob Durand", "pwd": "swordfish",
         "year_of_birthdate": 1985},
        subject_id="bob", method="web_form",
    )
    return system


def cmd_demo(args: argparse.Namespace) -> int:
    system = _demo_system()
    if args.workers > 0:
        system.start_engine(workers=args.workers)
        future = system.invoke_async("compute_age", target="user")
        result = future.result()
        print(f"[engine: {args.workers} workers] "
              f"processed={result.processed} "
              f"produced={len(result.produced)} denied={result.denied}")
    else:
        result = system.invoke("compute_age", target="user")
        print(f"processed={result.processed} "
              f"produced={len(result.produced)} denied={result.denied}")
    system.rights.object_to("bob", "purpose3")
    result = system.invoke("compute_age", target="user")
    print(f"after bob's objection: processed={result.processed} "
          f"denied={result.denied}")
    outcome = system.rights.erase("alice")
    print(f"alice erased: {len(outcome.erased_uids)} records, "
          f"fully_forgotten={outcome.fully_forgotten}")
    print(system.audit().summary())
    if args.workers > 0 and system.engine is not None:
        engine = system.engine.as_dict()
        print(f"engine: completed={engine['stats']['completed']} "
              f"failed={engine['stats']['failed']} "
              f"peak_in_flight={engine['stats']['peak_in_flight']}")
        system.stop_engine()
    if args.trace_out:
        count = system.telemetry.export_trace_jsonl(args.trace_out)
        print(f"wrote {count} trace span(s) to {args.trace_out}")
    return 0


def cmd_parse(args: argparse.Namespace) -> int:
    from .dsl.loader import load_source

    try:
        with open(args.file) as handle:
            source = handle.read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        types, purposes = load_source(source)
    except errors.DSLError as exc:
        print(f"declaration error: {exc}", file=sys.stderr)
        return 1
    for name, pd_type in sorted(types.items()):
        ttl = pd_type.ttl_seconds
        print(f"type {name}: fields={sorted(pd_type.field_names)} "
              f"views={sorted(pd_type.views)} ttl={ttl} "
              f"sensitivity={pd_type.sensitivity}")
    for name, purpose in sorted(purposes.items()):
        print(f"purpose {name}: uses={list(purpose.uses)} "
              f"basis={purpose.basis}")
    print(f"OK: {len(types)} type(s), {len(purposes)} purpose(s)")
    return 0


def cmd_fig1(args: argparse.Namespace) -> int:
    from .workloads.penalties import (
        penalty_records,
        top_sectors,
        totals_by_year,
    )

    records = penalty_records()
    print("total penalties per year:")
    for year, total in totals_by_year(records).items():
        print(f"  {year}  {total / 1e6:10.2f} M EUR")
    print(f"top {args.sectors} sanctioned sectors:")
    for sector, total in top_sectors(records, n=args.sectors):
        print(f"  {sector:36s} {total / 1e6:10.2f} M EUR")
    return 0


def cmd_gdprbench(args: argparse.Namespace) -> int:
    from .baseline.gdprbench import run_comparison
    from .obs import Telemetry

    telemetry = Telemetry() if args.trace_out else None
    if args.workers > 0:
        return _gdprbench_concurrent(args, telemetry)
    results = run_comparison(
        record_count=args.records,
        operations=args.ops,
        personas=args.personas,
        seed=args.seed,
        shards=args.shards,
        telemetry=telemetry,
    )
    print(f"{'engine':22s} {'persona':12s} {'ops/s':>10s} {'denied':>7s}")
    for result in results:
        print(
            f"{result.adapter:22s} {result.persona:12s} "
            f"{result.ops_per_second:10.0f} {result.denied:7d}"
        )
    if telemetry is not None:
        count = telemetry.export_trace_jsonl(args.trace_out)
        print(f"wrote {count} trace span(s) to {args.trace_out}")
    return 0


def _gdprbench_concurrent(args: argparse.Namespace, telemetry) -> int:
    """The rgpdOS engine only, with the request engine in the path.

    Closed-loop by default (submit everything, wait, report ops/s);
    with ``--arrival-rate`` the mix is replayed open-loop at that
    Poisson rate and the tail latencies are what matter.
    """
    import time as _time

    from .baseline.gdprbench import (
        GDPRBenchRunner,
        RgpdOSAdapter,
        build_persona_tasks,
    )
    from .workloads.openloop import OpenLoopDriver

    adapter = RgpdOSAdapter(
        shards=args.shards, telemetry=telemetry, workers=args.workers,
    )
    runner = GDPRBenchRunner(adapter, seed=args.seed)
    runner.load(args.records)
    engine = adapter.system.engine
    if args.arrival_rate:
        print(f"{'persona':12s} {'offered/s':>10s} {'done/s':>8s} "
              f"{'p50_ms':>8s} {'p95_ms':>8s} {'p99_ms':>8s}")
    else:
        print(f"{'engine':22s} {'persona':12s} {'ops/s':>10s}")
    for persona in args.personas:
        tasks, names = build_persona_tasks(
            runner, persona, args.ops, seed=args.seed
        )
        if args.arrival_rate:
            driver = OpenLoopDriver(
                submit=lambda task: engine.submit(task, purpose="gdprbench")
            )
            result = driver.run(
                tasks, args.arrival_rate, seed=args.seed, op_names=names
            )
            print(f"{persona:12s} {args.arrival_rate:10.1f} "
                  f"{result.throughput:8.1f} "
                  f"{result.percentile_ms(50):8.2f} "
                  f"{result.percentile_ms(95):8.2f} "
                  f"{result.percentile_ms(99):8.2f}")
        else:
            start = _time.perf_counter()
            futures = [
                engine.submit(task, purpose=name)
                for task, name in zip(tasks, names)
            ]
            for future in futures:
                future.result()
            wall = _time.perf_counter() - start
            print(f"{adapter.name:22s} {persona:12s} {args.ops / wall:10.0f}")
    snapshot = engine.as_dict()
    print(f"engine: workers={snapshot['workers']} "
          f"completed={snapshot['stats']['completed']} "
          f"failed={snapshot['stats']['failed']} "
          f"shed={snapshot['stats']['shed']} "
          f"peak_in_flight={snapshot['stats']['peak_in_flight']}")
    if telemetry is not None:
        count = telemetry.export_trace_jsonl(args.trace_out)
        print(f"wrote {count} trace span(s) to {args.trace_out}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Seed a store, plan the query, run it, print plan vs. actual.

    Predicates use the ``field OP value`` surface syntax, e.g.::

        repro explain user "year_of_birthdate >= 1990" "city == Lyon"
    """
    from .core.system import RgpdOS
    from .storage.query import parse_predicate
    from .workloads.generator import STANDARD_DECLARATIONS, PopulationGenerator

    try:
        predicates = [parse_predicate(text) for text in args.predicates]
    except errors.DBFSError as exc:
        print(f"bad predicate: {exc}", file=sys.stderr)
        return 2

    system = RgpdOS(operator_name="cli-explain")
    system.install(STANDARD_DECLARATIONS)
    generator = PopulationGenerator(seed=args.seed)
    with system.dbfs.batch():
        for subject in generator.subjects(args.records):
            system.collect(
                "user", subject.user_record(),
                subject_id=subject.subject_id, method="web_form",
            )
    credential = system.ps.builtins.credential

    indexed_fields = args.index
    if indexed_fields is None:
        indexed_fields = (
            ["year_of_birthdate", "city"] if args.type == "user" else []
        )
    for field_name in indexed_fields:
        try:
            system.dbfs.create_index(args.type, field_name, credential)
        except errors.DBFSError as exc:
            print(f"cannot index {args.type}.{field_name}: {exc}",
                  file=sys.stderr)
            return 2

    try:
        plan = system.dbfs.explain(args.type, predicates, credential)
        stats = system.dbfs.stats
        partial_before = stats.partial_decodes
        full_before = stats.full_decodes
        matched = system.dbfs.select_uids_where(
            args.type, predicates, credential
        )
    except errors.RgpdOSError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 1

    described = plan.describe()
    print(f"query: {args.type} WHERE "
          + (" AND ".join(p.describe() for p in predicates) or "<all rows>"))
    print(f"strategy: {described['strategy']} (records={args.records})")
    if plan.lookups:
        print(f"index used: {args.type}.{plan.index_field} "
              f"driving {plan.lookups[0].describe()}")
        print("index lookups (cheapest drives, the rest intersect):")
        for lookup in plan.lookups:
            print(f"  {lookup.describe():40s} ~{lookup.estimated_rows} row(s)")
    else:
        print("index used: none (full table scan)")
    print(f"estimated rows: {plan.estimated_rows} of {plan.table_rows}")
    print(f"actual rows: {len(matched)}")
    residual = described["residual"]
    print("residual predicates: "
          + (", ".join(residual) if residual else "none"))
    fields = described["fields_decoded"]
    print("fields decoded: "
          + (", ".join(fields) if fields else "none (index-only)"))
    print(f"decodes: partial={stats.partial_decodes - partial_before} "
          f"full={stats.full_decodes - full_before}")
    return 0


def cmd_placement(args: argparse.Namespace) -> int:
    from .kernel.pim import DEDPlacer

    placer = DEDPlacer()
    decision = placer.place(args.records, args.bytes, args.intensity)
    for site, latency in sorted(decision.estimates.items()):
        marker = " <- chosen" if site == decision.site else ""
        print(f"  {site:10s} {latency * 1e3:12.4f} ms{marker}")
    print(f"placement: {decision.site} "
          f"(speedup over host: {decision.speedup_over_host():.2f}x)")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Article-indexed compliance audit of an exercised demo system.

    Runs the demo workload plus one erasure (so the Art. 17 control
    has erased PD to probe), optionally ticks the always-on monitors,
    then renders the :class:`~repro.obs.audit.AuditReport`.
    """
    system = _demo_system(shards=args.shards)
    system.invoke("compute_age", target="user")
    system.rights.erase("bob")
    if args.continuous > 0:
        daemon = system.start_monitors(expiry_daemon=args.expiry_daemon)
        daemon.run_for_ticks(args.continuous)
    report = system.audit()
    if args.evidence_out:
        count = system.evidence.export_jsonl(args.evidence_out)
        print(f"wrote {count} evidence entries to {args.evidence_out}",
              file=sys.stderr)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "markdown":
        print(report.to_markdown())
    elif args.format == "prometheus":
        # The audit run published its verdict/observable gauges, so
        # the scrape carries repro_rgpdos_audit_* / _residue_* samples.
        print(system.telemetry.to_prometheus(), end="")
    else:
        for control in report.controls:
            print(f"[{control.status.upper():4s}] "
                  f"{control.control_id:32s} {control.article}")
        print(report.summary())
        print(f"evidence trail: {len(system.evidence)} entries, "
              f"head {report.evidence_head[:16]}..., "
              f"chain {'OK' if system.evidence.verify_chain() else 'BROKEN'}")
    return 0 if report.ok else 1


def cmd_retain(args: argparse.Namespace) -> int:
    """Proactive retention walkthrough: expire, erase in waves, compact.

    Builds the demo system with the expiry daemon on, advances the
    simulated clock past the demo TTLs, lets the timer wheel drain into
    sealed erasure waves, optionally compacts every durable plane, and
    re-runs the Art. 5(1)(e) audit control to show it passing *because
    the daemon ran*.
    """
    from .core.clock import parse_duration

    # In json mode the document is the whole output; the walkthrough
    # narration only prints for the default text format.
    say = (lambda *a: None) if args.format == "json" else print

    system = _demo_system(shards=args.shards)
    system.invoke("compute_age", target="user")
    system.start_monitors(expiry_daemon=True, expiry_wave_size=args.wave_size)
    daemon = system.expiry_daemon
    say(f"timer wheel: {daemon.pending} TTL deadline(s) indexed")

    advance = parse_duration(args.advance)
    system.advance_time(advance)
    say(f"clock advanced {args.advance} "
        f"(now={system.clock.now():.0f}s)")

    daemon.run_until_drained()
    wheel = daemon.wheel.as_dict()
    say(f"expiry daemon: {daemon.waves} wave(s), "
        f"{daemon.erased_total} PD erased, "
        f"{wheel['slot_drains']} slot drain(s), "
        f"{wheel['cascades']} cascade(s), "
        f"{daemon.pending} still pending")

    if args.compact:
        report = system.dbfs.compact()
        say("compaction: "
            f"{report['records_rewritten']} record(s) rewritten, "
            f"{report['indexes_compacted']} index(es) repacked, "
            f"{report['blooms_rebuilt']} bloom(s) rebuilt, "
            f"{report['orphan_blocks']} orphan block(s) scrubbed, "
            f"{report['journal_records_discarded']} journal record(s) "
            f"checkpointed, {report['blocks_reclaimed']} block(s) "
            "reclaimed")

    audit = system.audit()
    retention = next(
        c for c in audit.controls if c.control_id == "art5e-retention"
    )
    say(f"[{retention.status.upper():4s}] {retention.control_id}: "
        f"{retention.detail}")
    if args.format == "json":
        print(json.dumps(
            {
                "daemon": daemon.as_dict(),
                "retention_control": {
                    "status": retention.status,
                    "detail": retention.detail,
                    "evidence": [e.ref for e in retention.evidence],
                },
            },
            indent=2, sort_keys=True,
        ))
    return 0 if retention.status == "pass" else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """Build the demo system, run one round of work, dump telemetry."""
    system = _demo_system(shards=args.shards)
    if args.workers > 0:
        # Engine path: the same work submitted concurrently, so the
        # dump includes the engine block and its queue-depth /
        # in-flight gauges.
        system.start_engine(workers=args.workers)
        system.invoke_async("compute_age", target="user").result()
    else:
        system.invoke("compute_age", target="user")
    system.rights.right_of_access("alice")
    if args.format == "prometheus":
        print(system.telemetry.to_prometheus(), end="")
        return 0
    report = {
        "stats": system.stats(),
        "cache_stats": system.cache_stats(),
        "shard_stats": list(system.shard_stats()),
    }
    print(json.dumps(report, indent=2, sort_keys=True, default=str))
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """Replicated-cluster walkthrough: ship, read from replicas,
    erase to the watermark, optionally fail over.

    ``--regions`` places the nodes (leader first; ``region:scc``
    invokes an Art. 46 safeguard for that node); ``--replicas`` pads
    the list with copies of the leader region when shorter.
    """
    from .cluster import LinkConfig, ReplicatedCluster

    regions = [r for r in args.regions.split(",") if r]
    if not regions:
        regions = ["eu"]
    while len(regions) < args.replicas + 1:
        regions.append(regions[0].partition(":")[0])
    system = _demo_system(shards=args.shards)
    cluster = ReplicatedCluster(
        system,
        regions=regions,
        link_config=LinkConfig(latency_seconds=args.link_latency),
        batch_records=args.batch_records,
    )
    try:
        system.invoke("compute_age", target="user")
        cluster.sync()
        export = cluster.right_of_access("alice")
        outcome = system.rights.erase("bob")
        cluster.sync()
        propagated = all(
            cluster.erasure_propagated(uid) for uid in outcome.erased_uids
        )
        failover = None
        if args.failover:
            cluster.fail_leader()
            promoted = cluster.promote()
            demoted = cluster.demote()
            cluster.sync()
            failover = {
                "promoted": promoted.node_id,
                "promoted_region": promoted.region,
                "demoted_rejoined": demoted.node_id,
            }
        report = {
            "cluster": cluster.stats(),
            "replica_read_records": len(export["records"]),
            "erased_uids": list(outcome.erased_uids),
            "erasure_propagated": propagated,
            "failover": failover,
        }
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True, default=str))
        elif args.format == "prometheus":
            print(system.telemetry.to_prometheus(), end="")
        else:
            stats = report["cluster"]
            print(f"leader: {stats['leader']}")
            for node in stats["nodes"]:
                safeguard = (
                    f" ({node['safeguard']})" if node["safeguard"] else ""
                )
                print(f"  {node['node_id']:8s} {node['region']:3s}"
                      f"{safeguard:7s} {node['role']:9s} "
                      f"lag={stats['lag'].get(node['node_id'], 0)}")
            print(f"replica read: {report['replica_read_records']} "
                  f"record(s) for alice")
            print(f"erasure propagated to every replica: {propagated}")
            print(f"placement violations: "
                  f"{stats['placement']['violations']}")
            if failover is not None:
                print(f"failover: promoted {failover['promoted']} "
                      f"({failover['promoted_region']}), rejoined "
                      f"{failover['demoted_rejoined']} as follower")
        return 0 if propagated else 1
    finally:
        cluster.close()


def cmd_version(args: argparse.Namespace) -> int:
    print(f"repro (rgpdOS reproduction) {__version__}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="rgpdOS reproduction — GDPR enforcement by the OS",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run the Listings 1-3 walkthrough")
    demo.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the run's trace spans to FILE as JSONL",
    )
    demo.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run DED invocations through a request engine with N "
             "workers (default 0: serial, unchanged path)",
    )

    parse_cmd = subparsers.add_parser(
        "parse", help="validate a declaration file"
    )
    parse_cmd.add_argument("file", help="path to a .rgpd declaration file")

    fig1 = subparsers.add_parser("fig1", help="print the Fig. 1 series")
    fig1.add_argument("--sectors", type=int, default=5)

    bench = subparsers.add_parser("gdprbench", help="run the GB-1 grid")
    bench.add_argument("--records", type=int, default=30)
    bench.add_argument("--ops", type=int, default=60)
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument(
        "--shards", type=int, default=1,
        help="DBFS shard count for the rgpdOS engine (default 1)",
    )
    bench.add_argument(
        "--personas", nargs="+",
        default=["customer", "controller", "processor", "regulator"],
    )
    bench.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the rgpdOS engine's trace spans to FILE as JSONL",
    )
    bench.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run the rgpdOS engine concurrently with N request "
             "workers (default 0: the serial three-engine grid)",
    )
    bench.add_argument(
        "--arrival-rate", type=float, default=0.0, metavar="R",
        help="with --workers, replay each persona open-loop at R ops/s "
             "and report p50/p95/p99 (default 0: closed loop)",
    )

    explain = subparsers.add_parser(
        "explain", help="plan a multi-predicate query over a seeded store"
    )
    explain.add_argument("type", help="PD type to query (e.g. user)")
    explain.add_argument(
        "predicates", nargs="+", metavar="PREDICATE",
        help='predicates like "year_of_birthdate >= 1990" "city == Lyon"',
    )
    explain.add_argument("--records", type=int, default=200)
    explain.add_argument("--seed", type=int, default=7)
    explain.add_argument(
        "--index", action="append", default=None, metavar="FIELD",
        help="index FIELD before planning (repeatable; defaults to "
             "year_of_birthdate and city for the user type)",
    )

    placement = subparsers.add_parser(
        "placement", help="DED placement decision"
    )
    placement.add_argument("--records", type=int, default=10000)
    placement.add_argument("--bytes", type=int, default=4096)
    placement.add_argument("--intensity", type=float, default=1.0)

    audit = subparsers.add_parser(
        "audit",
        help="article-indexed compliance audit of the demo system",
    )
    audit.add_argument(
        "--format", choices=("text", "json", "markdown", "prometheus"),
        default="text", help="report rendering (default text)",
    )
    audit.add_argument(
        "--shards", type=int, default=1,
        help="DBFS shard count for the demo system (default 1)",
    )
    audit.add_argument(
        "--continuous", type=int, default=0, metavar="TICKS",
        help="tick the always-on monitors TICKS times before the "
             "audit (residue scrubber, TTL/breach/journal watchers; "
             "default 0: audit only)",
    )
    audit.add_argument(
        "--evidence-out", default=None, metavar="FILE",
        help="export the hash-chained evidence trail to FILE as JSONL",
    )
    audit.add_argument(
        "--expiry-daemon", action="store_true",
        help="run the proactive retention enforcer alongside the "
             "monitors during --continuous ticking",
    )

    retain = subparsers.add_parser(
        "retain",
        help="proactive retention walkthrough (timer wheel -> erasure "
             "waves -> compaction -> Art. 5(1)(e) audit)",
    )
    retain.add_argument(
        "--shards", type=int, default=1,
        help="DBFS shard count for the demo system (default 1)",
    )
    retain.add_argument(
        "--advance", default="2Y", metavar="DURATION",
        help="simulated time to advance before draining the wheel "
             "(DSL duration, default 2Y — past every demo TTL)",
    )
    retain.add_argument(
        "--wave-size", type=int, default=64,
        help="erasure wave bound (default 64)",
    )
    retain.add_argument(
        "--compact", action="store_true",
        help="compact every durable plane after the erasure waves",
    )
    retain.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )

    stats = subparsers.add_parser(
        "stats", help="telemetry snapshot of an exercised demo system"
    )
    stats.add_argument(
        "--shards", type=int, default=1,
        help="DBFS shard count for the demo system (default 1)",
    )
    stats.add_argument(
        "--format", choices=("json", "prometheus"), default="json",
        help="output format (default json)",
    )
    stats.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="exercise the system through a request engine with N "
             "workers; the dump then includes the engine block and "
             "its queue-depth/in-flight gauges (default 0: serial)",
    )

    cluster = subparsers.add_parser(
        "cluster",
        help="replicated-cluster walkthrough (journal shipping, "
             "replica reads, RTBF watermark, optional failover)",
    )
    cluster.add_argument(
        "--replicas", type=int, default=2, metavar="N",
        help="follower count when --regions lists fewer (default 2)",
    )
    cluster.add_argument(
        "--regions", default="eu,eu,us:scc", metavar="LIST",
        help="comma-separated node regions, leader first; append "
             ":scc/:bcr to invoke an Art. 46 safeguard "
             "(default eu,eu,us:scc)",
    )
    cluster.add_argument(
        "--shards", type=int, default=1,
        help="DBFS shard count per node (default 1)",
    )
    cluster.add_argument(
        "--batch-records", type=int, default=32, metavar="N",
        help="replication group-commit batch size (default 32)",
    )
    cluster.add_argument(
        "--link-latency", type=float, default=0.002, metavar="SECONDS",
        help="simulated per-message link latency (default 0.002)",
    )
    cluster.add_argument(
        "--failover", action="store_true",
        help="kill the leader, promote the most-caught-up adequate "
             "follower, rejoin the old leader as a follower",
    )
    cluster.add_argument(
        "--format", choices=("text", "json", "prometheus"),
        default="text", help="output format (default text)",
    )

    subparsers.add_parser("version", help="print the library version")
    return parser


_COMMANDS = {
    "demo": cmd_demo,
    "parse": cmd_parse,
    "fig1": cmd_fig1,
    "gdprbench": cmd_gdprbench,
    "explain": cmd_explain,
    "placement": cmd_placement,
    "audit": cmd_audit,
    "retain": cmd_retain,
    "stats": cmd_stats,
    "cluster": cmd_cluster,
    "version": cmd_version,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
