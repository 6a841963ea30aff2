"""Trace spans: nesting, trace-id propagation, attributes — including
end-to-end traces across a full ``invoke()`` and a sharded
``bulk_erase()``."""

import gc
import threading

import pytest

from repro import RgpdOS, Telemetry
from repro.baseline.gdprbench import PURPOSE_ANALYTICS, RgpdOSAdapter
from repro.obs import Tracer
from repro.workloads.generator import PopulationGenerator

import helpers
from conftest import LISTING1_DECLARATIONS


class TestSpanNesting:
    def test_root_span_has_no_parent(self):
        tracer = Tracer()
        with tracer.span("root") as span:
            assert span.parent_id is None
        finished = tracer.finished_spans()
        assert [s.name for s in finished] == ["root"]
        assert finished[0].end_ns >= finished[0].start_ns

    def test_children_inherit_trace_id_and_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert child.trace_id == root.trace_id
        assert grandchild.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id

    def test_sibling_roots_get_distinct_trace_ids(self):
        tracer = Tracer()
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
        assert first.trace_id != second.trace_id

    def test_current_span_tracks_the_stack(self):
        tracer = Tracer()
        assert tracer.current_span is None
        with tracer.span("outer") as outer:
            assert tracer.current_span is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span is inner
            assert tracer.current_span is outer
        assert tracer.current_span is None

    def test_attributes_recorded(self):
        tracer = Tracer()
        with tracer.span("op", subject_id="alice") as span:
            span.set_attr("hit", True)
            span.set_attrs(shard=3, purpose="stats")
        finished = tracer.finished_spans()[0]
        assert finished.attrs == {
            "subject_id": "alice", "hit": True, "shard": 3,
            "purpose": "stats",
        }

    def test_traces_group_by_trace_id(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("a.1"):
                pass
        with tracer.span("b"):
            pass
        traces = tracer.traces()
        assert len(traces) == 2
        sizes = sorted(len(spans) for spans in traces.values())
        assert sizes == [1, 2]

    def test_ring_buffer_bounds_retention(self):
        tracer = Tracer(max_spans=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer) == 4
        assert [s.name for s in tracer.finished_spans()] == [
            "s6", "s7", "s8", "s9"
        ]


class TestSpanLifecycle:
    def test_span_closed_on_another_thread_leaves_the_opening_stack(self):
        tracer = Tracer()
        span = tracer.span("x")
        span.__enter__()
        closer = threading.Thread(target=span.__exit__,
                                  args=(None, None, None))
        closer.start()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert tracer.current_span is None
        with tracer.span("later") as later:
            pass
        assert later.parent_id is None
        assert [s.name for s in tracer.finished_spans()] == ["x", "later"]

    def test_op_and_tracer_spans_nest_in_both_orders(self):
        telemetry = Telemetry()
        with telemetry.op("op.outer") as op_outer:
            with telemetry.span("span.inner") as span_inner:
                pass
        with telemetry.span("span.outer") as span_outer:
            with telemetry.op("op.inner") as op_inner:
                pass
        assert span_inner.parent_id == op_outer.span_id
        assert span_inner.trace_id == op_outer.trace_id
        assert op_inner.parent_id == span_outer.span_id
        assert op_inner.trace_id == span_outer.trace_id
        assert op_outer.trace_id != span_outer.trace_id

    def test_exception_in_nested_ops_unwinds_and_records_both(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            with telemetry.op("op.outer"):
                with telemetry.op("op.inner"):
                    raise ValueError("boom")
        assert telemetry.tracer.current_span is None
        assert sorted(s.name for s in telemetry.tracer.finished_spans()) == [
            "op.inner", "op.outer"
        ]
        histograms = telemetry.registry.histograms
        assert histograms["op.outer"].count == 1
        assert histograms["op.inner"].count == 1

    def test_finished_span_holds_no_tracer_or_stack(self):
        telemetry = Telemetry()
        with telemetry.op("op.outer", subject_id="alice"):
            with telemetry.span("span.inner", shard=1):
                pass
        finished = telemetry.tracer.finished_spans()
        assert len(finished) == 2
        for span in finished:
            referents = gc.get_referents(span)
            assert not any(r is telemetry.tracer for r in referents)
            assert not any(isinstance(r, list) for r in referents)


class TestDisabledTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("root") as span:
            span.set_attr("ignored", 1)
            with tracer.span("child"):
                pass
        assert len(tracer) == 0
        assert tracer.traces() == {}

    def test_disabled_telemetry_end_to_end(self, shared_authority):
        system = RgpdOS(
            operator_name="quiet", authority=shared_authority,
            with_machine=False, telemetry=Telemetry.disabled(),
        )
        system.install(LISTING1_DECLARATIONS)
        system.register(helpers.birth_decade)
        system.collect(
            "user",
            {"name": "Alice", "pwd": "pw", "year_of_birthdate": 1990},
            subject_id="alice", method="web_form",
        )
        system.invoke("birth_decade", target="user")
        assert len(system.telemetry.tracer) == 0
        assert system.telemetry.registry.histograms == {}


@pytest.fixture
def traced_system(shared_authority):
    system = RgpdOS(
        operator_name="traced", authority=shared_authority,
        with_machine=False,
    )
    system.install(LISTING1_DECLARATIONS)
    system.register(helpers.birth_decade)
    for index, (name, year) in enumerate(
        [("Alice", 1990), ("Bob", 1985), ("Carol", 1971), ("Dave", 2002)]
    ):
        system.collect(
            "user",
            {"name": name, "pwd": f"pw{index}", "year_of_birthdate": year},
            subject_id=name.lower(), method="web_form",
        )
    return system


class TestSystemTraces:
    def test_single_invoke_is_one_nested_trace(self, traced_system):
        """One invoke() = one trace: PS -> DED -> stages -> DBFS."""
        traced_system.telemetry.tracer.clear()
        traced_system.invoke("birth_decade", target="user")
        traces = traced_system.telemetry.tracer.traces()
        assert len(traces) == 1
        (spans,) = traces.values()
        assert len(spans) >= 4
        names = {span.name for span in spans}
        assert "ps.invoke" in names
        assert "ded.run" in names
        assert "ded.ded_load_membrane" in names
        assert "dbfs.query_membranes" in names

        by_id = {span.span_id: span for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert [root.name for root in roots] == ["ps.invoke"]
        # every span chains up to the single root, and the chain is
        # at least PS -> DED -> stage deep somewhere
        def depth(span):
            steps = 0
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                steps += 1
            return steps
        assert all(by_id[s.parent_id] in spans
                   for s in spans if s.parent_id is not None)
        assert max(depth(span) for span in spans) >= 2

    def test_invoke_span_attributes(self, traced_system):
        traced_system.telemetry.tracer.clear()
        traced_system.invoke("birth_decade", target="user")
        spans = traced_system.telemetry.tracer.finished_spans()
        ps_span = next(s for s in spans if s.name == "ps.invoke")
        assert ps_span.attrs["processing"] == "birth_decade"
        ded_span = next(s for s in spans if s.name == "ded.run")
        assert ded_span.attrs["purpose"] == "purpose3"
        assert ded_span.attrs["processed"] == 4

    def test_bulk_erase_fans_out_across_shards(self, shared_authority):
        system = RgpdOS(
            operator_name="sharded-traced", authority=shared_authority,
            with_machine=False, shards=4,
        )
        system.install(LISTING1_DECLARATIONS)
        subject_ids = [f"subject-{index}" for index in range(12)]
        for index, subject_id in enumerate(subject_ids):
            system.collect(
                "user",
                {"name": subject_id, "pwd": "pw",
                 "year_of_birthdate": 1980 + index},
                subject_id=subject_id, method="web_form",
            )
        system.telemetry.tracer.clear()
        system.rights.bulk_erase(subject_ids)

        traces = system.telemetry.tracer.traces()
        assert len(traces) == 1
        (spans,) = traces.values()
        roots = [span for span in spans if span.parent_id is None]
        assert [root.name for root in roots] == ["rights.bulk_erase"]

        shard_spans = [s for s in spans if s.name == "rights.shard"]
        touched = {span.attrs["shard"] for span in shard_spans}
        assert len(shard_spans) >= 2  # 12 subjects spread over 4 shards
        assert touched <= {0, 1, 2, 3}
        assert all(span.attrs["op"] == "erase" for span in shard_spans)
        assert all(
            span.trace_id == roots[0].trace_id for span in spans
        )
        # the per-shard journal batches nest under the shard fan-out
        batch_spans = [s for s in spans if s.name == "journal.batch"]
        assert len(batch_spans) == len(shard_spans)


class TestPointReadTrace:
    """The span tree of one warm, consented ``bench_analytics`` point
    read: the shape perfbench's ``processor`` workload repeats."""

    EXPECTED_PAIRS = [
        ("dbfs.decode", "dbfs.fetch_records"),
        ("dbfs.fetch_records", "ded.ded_load_data"),
        ("dbfs.query_membranes", "ded.ded_load_membrane"),
        ("ded.ded_execute", "ded.run"),
        ("ded.ded_filter", "ded.run"),
        ("ded.ded_load_data", "ded.run"),
        ("ded.ded_load_membrane", "ded.run"),
        ("ded.ded_return", "ded.run"),
        ("ded.ded_type2req", "ded.run"),
        ("ded.run", "ps.invoke"),
        ("ps.invoke", None),
    ]

    def test_span_pairs_and_histogram_counts(self):
        adapter = RgpdOSAdapter(with_machine=False)
        (subject,) = PopulationGenerator(seed=3).subjects(1)
        key = adapter.insert(subject, {PURPOSE_ANALYTICS: "v_ano"})
        assert adapter.read(key, PURPOSE_ANALYTICS) is not None
        telemetry = adapter.system.telemetry
        telemetry.tracer.clear()
        telemetry.registry.reset()

        assert adapter.read(key, PURPOSE_ANALYTICS) is not None

        spans = telemetry.tracer.finished_spans()
        names = {span.span_id: span.name for span in spans}
        assert sorted(
            (span.name, names.get(span.parent_id)) for span in spans
        ) == self.EXPECTED_PAIRS
        counted = {
            name: histogram.count
            for name, histogram in telemetry.registry.histograms.items()
            if histogram.count
        }
        assert counted == {
            name: 1 for name, _ in self.EXPECTED_PAIRS if name != "dbfs.decode"
        }
