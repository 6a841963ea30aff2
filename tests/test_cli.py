"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.obs import parse_prometheus


class TestCommands:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert "rgpdOS" in capsys.readouterr().out

    def test_demo_runs_clean(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "processed=2" in out
        assert "fully_forgotten=True" in out
        assert "COMPLIANT" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "2021" in out
        assert "1200.00 M EUR" in out

    def test_fig1_sector_count(self, capsys):
        assert main(["fig1", "--sectors", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("M EUR") == 4 + 3  # 4 years + 3 sectors

    def test_placement(self, capsys):
        assert main(["placement", "--records", "10", "--bytes", "128"]) == 0
        out = capsys.readouterr().out
        assert "placement: host" in out

    def test_placement_large_scan(self, capsys):
        assert main(
            ["placement", "--records", "5000000", "--bytes", "4096",
             "--intensity", "0.2"]
        ) == 0
        out = capsys.readouterr().out
        assert "placement: host" not in out

    def test_audit(self, capsys):
        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        assert "COMPLIANT" in out
        assert "[PASS]" in out
        assert "art30-records" in out
        assert "art17-erased-unreadable" in out
        assert "chain OK" in out

    def test_audit_json(self, capsys):
        assert main(["audit", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["compliant"] is True
        assert report["counts"]["fail"] == 0
        assert report["evidence_head"]
        control_ids = {c["control_id"] for c in report["controls"]}
        assert {"art6-lawful-basis", "art33-breach"} <= control_ids
        assert all(c["evidence"] for c in report["controls"])

    def test_audit_markdown(self, capsys):
        assert main(["audit", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# GDPR compliance audit")
        assert "## Art. 33" in out

    def test_audit_prometheus_round_trips(self, capsys):
        assert main(
            ["audit", "--format", "prometheus", "--continuous", "20"]
        ) == 0
        samples = parse_prometheus(capsys.readouterr().out)
        names = {name for name, _labels in samples}
        assert "repro_rgpdos_audit_controls_pass" in names
        assert "repro_rgpdos_audit_controls_fail" in names
        assert "repro_rgpdos_audit_breach_countdown_seconds" in names
        assert "repro_rgpdos_residue_sweep_matches" in names
        assert "repro_rgpdos_residue_scanned_blocks" in names

    def test_audit_continuous_sharded_with_evidence_export(
        self, capsys, tmp_path
    ):
        out_file = tmp_path / "trail.jsonl"
        assert main(
            ["audit", "--shards", "2", "--continuous", "10",
             "--evidence-out", str(out_file)]
        ) == 0
        from repro.obs import EvidenceTrail

        assert EvidenceTrail.verify_file(str(out_file)) >= 2

    def test_retain_walkthrough(self, capsys):
        assert main(["retain"]) == 0
        out = capsys.readouterr().out
        assert "timer wheel:" in out
        assert "expiry daemon:" in out
        assert "PD erased" in out
        assert "[PASS] art5e-retention" in out
        assert "proactively enforced" in out

    def test_retain_with_compaction_sharded(self, capsys):
        assert main(["retain", "--shards", "2", "--compact",
                     "--wave-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "compaction:" in out
        assert "block(s) reclaimed" in out

    def test_retain_json(self, capsys):
        assert main(["retain", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["daemon"]["erased_total"] > 0
        assert report["daemon"]["pending"] == 0
        assert report["retention_control"]["status"] == "pass"
        assert any(
            ref.startswith("trail:")
            for ref in report["retention_control"]["evidence"]
        )

    def test_retain_without_expiry_leaves_nothing_to_do(self, capsys):
        assert main(["retain", "--advance", "1D"]) == 0
        report_out = capsys.readouterr().out
        assert "0 PD erased" in report_out

    def test_audit_expiry_daemon_flag(self, capsys):
        assert main(["audit", "--expiry-daemon", "--continuous", "3"]) == 0
        out = capsys.readouterr().out
        assert "COMPLIANT" in out

    def test_gdprbench_small(self, capsys):
        assert main(
            ["gdprbench", "--records", "5", "--ops", "10",
             "--personas", "processor"]
        ) == 0
        out = capsys.readouterr().out
        assert "rgpdos" in out
        assert "plain-db" in out

    def test_gdprbench_v1_codec(self, capsys):
        assert main(
            ["gdprbench", "--records", "4", "--ops", "6",
             "--personas", "customer"]
        ) == 0
        assert "rgpdos" in capsys.readouterr().out

    def test_gdprbench_with_workers(self, capsys):
        assert main(
            ["gdprbench", "--records", "8", "--ops", "12", "--workers",
             "2", "--shards", "2", "--personas", "customer", "processor"]
        ) == 0
        out = capsys.readouterr().out
        assert "rgpdos-2shard-2w" in out
        assert "completed=24" in out
        assert "failed=0" in out

    def test_gdprbench_open_loop(self, capsys):
        assert main(
            ["gdprbench", "--records", "8", "--ops", "10", "--workers",
             "2", "--arrival-rate", "200", "--personas", "regulator"]
        ) == 0
        out = capsys.readouterr().out
        assert "p99_ms" in out
        assert "regulator" in out

    def test_demo_with_workers(self, capsys):
        assert main(["demo", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "[engine: 2 workers]" in out
        assert "COMPLIANT" in out
        assert "failed=0" in out

    def test_stats_with_workers_reports_engine(self, capsys):
        import json

        assert main(["stats", "--workers", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        engine = report["stats"]["engine"]
        assert engine["workers"] == 2
        assert engine["queue_depth"] == 0
        assert engine["in_flight"] == 0
        assert engine["stats"]["completed"] >= 1
        assert "mvcc" in engine

    def test_stats_prometheus_has_engine_gauges(self, capsys):
        assert main(
            ["stats", "--workers", "2", "--format", "prometheus"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro_engine_queue_depth" in out
        assert "repro_engine_in_flight" in out


class TestExplainCommand:
    def test_indexed_plan(self, capsys):
        assert main(
            ["explain", "user", "year_of_birthdate >= 1990", "city == Lyon",
             "--records", "60"]
        ) == 0
        out = capsys.readouterr().out
        assert "strategy: index" in out
        assert "index used: user." in out
        assert "estimated rows:" in out
        assert "actual rows:" in out
        assert "fields decoded:" in out
        # Both predicates sit on indexed fields: each is an index
        # lookup and nothing is left to decode.
        assert "index lookups (cheapest drives, the rest intersect):" in out
        assert "residual predicates: none" in out
        assert "decodes: partial=0 full=0" in out

    def test_scan_plan_without_indexes(self, capsys):
        assert main(
            ["explain", "user", "name ~ a", "--records", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "strategy: scan" in out
        assert "index used: none (full table scan)" in out

    def test_explicit_index_flag(self, capsys):
        assert main(
            ["explain", "user", "city == Paris", "--records", "30",
             "--index", "city"]
        ) == 0
        out = capsys.readouterr().out
        assert "index used: user.city" in out
        # eq estimates come from exact value counts.
        estimated = int(out.split("estimated rows: ")[1].split(" ")[0])
        actual = int(out.split("actual rows: ")[1].split("\n")[0])
        assert estimated == actual

    def test_v1_codec_plan(self, capsys):
        assert main(
            ["explain", "user", "city == Lyon", "--records", "20"]
        ) == 0
        assert "strategy: index (records=20)" in capsys.readouterr().out

    def test_bad_predicate_rejected(self, capsys):
        assert main(["explain", "user", "not-a-predicate"]) == 2
        assert "bad predicate" in capsys.readouterr().err

    def test_unindexable_field_rejected(self, capsys):
        assert main(
            ["explain", "user", "city == Lyon", "--records", "5",
             "--index", "national_id"]
        ) == 2
        assert "cannot index" in capsys.readouterr().err


class TestParseCommand:
    def test_valid_file(self, tmp_path, capsys):
        declaration = tmp_path / "types.rgpd"
        declaration.write_text(
            """
            type user { fields { name: string }; age: 1Y; }
            purpose p { uses: user; }
            """
        )
        assert main(["parse", str(declaration)]) == 0
        out = capsys.readouterr().out
        assert "type user" in out
        assert "OK: 1 type(s), 1 purpose(s)" in out

    def test_invalid_file(self, tmp_path, capsys):
        declaration = tmp_path / "bad.rgpd"
        declaration.write_text("type t { fields { a: varchar }; }")
        assert main(["parse", str(declaration)]) == 1
        assert "declaration error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["parse", "/no/such/file.rgpd"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestStatsCommand:
    def test_json_report_sections(self, capsys):
        assert main(["stats"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"stats", "cache_stats", "shard_stats"}
        assert report["stats"]["journal"]["commits"] > 0
        assert report["stats"]["dbfs"]["records"] > 0
        assert "decision_cache" in report["cache_stats"]
        assert len(report["shard_stats"]) == 1

    def test_sharded_report(self, capsys):
        assert main(["stats", "--shards", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stats"]["dbfs"]["shards"] == 2
        assert len(report["shard_stats"]) == 2

    def test_prometheus_format_parses(self, capsys):
        assert main(["stats", "--format", "prometheus"]) == 0
        samples = parse_prometheus(capsys.readouterr().out)
        assert samples  # non-empty
        assert ("repro_rgpdos_journal_commits", None) in samples


class TestTraceOut:
    def test_demo_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "demo.jsonl"
        assert main(["demo", "--trace-out", str(trace)]) == 0
        assert "trace span(s)" in capsys.readouterr().out
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        assert spans
        names = {span["name"] for span in spans}
        assert "ps.invoke" in names
        assert "dbfs.store" in names

    def test_gdprbench_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "bench.jsonl"
        assert main(
            ["gdprbench", "--records", "4", "--ops", "4",
             "--personas", "customer", "--trace-out", str(trace)]
        ) == 0
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        assert spans
        assert any(span["name"] == "ps.invoke" for span in spans)


class TestClusterCommand:
    def test_cluster_text(self, capsys):
        assert main(["cluster", "--replicas", "1", "--regions", "eu,eu"]) == 0
        out = capsys.readouterr().out
        assert "erasure propagated to every replica: True" in out
        assert "placement violations: 0" in out

    def test_cluster_failover_json(self, capsys):
        assert main(
            ["cluster", "--regions", "eu,eu,us:scc", "--failover",
             "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["erasure_propagated"] is True
        assert report["cluster"]["placement"]["violations"] == 0
        assert report["failover"]["demoted_rejoined"] == "node-0"

    def test_cluster_prometheus_exports_lag(self, capsys):
        assert main(
            ["cluster", "--regions", "eu,eu", "--format", "prometheus"]
        ) == 0
        samples = parse_prometheus(capsys.readouterr().out)
        flat = {name for (name, _) in samples}
        assert any("replication_lag_records" in name for name in flat)
