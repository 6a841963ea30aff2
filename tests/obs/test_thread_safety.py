"""Thread-safety of the telemetry layer: exact counts under parallel
writers.

The request engine hands one shared Telemetry to every worker, so the
obs primitives must be correct — not approximately correct — under
concurrent mutation: N threads times M increments is exactly N*M, a
histogram never loses an observation, and the tracer never interleaves
two threads' spans into one broken tree.
"""

import sys
import threading

from repro.obs import LatencyHistogram, MetricsRegistry, Telemetry

THREADS = 8
ROUNDS = 500


def run_parallel(worker):
    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)


class TestCounterExactness:
    def test_parallel_increments_sum_exactly(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")

        def worker(_):
            for _ in range(ROUNDS):
                counter.inc()

        run_parallel(worker)
        assert counter.value == THREADS * ROUNDS

    def test_parallel_registration_yields_one_instance(self):
        registry = MetricsRegistry()
        instances = [None] * THREADS

        def worker(i):
            instances[i] = registry.counter("shared")
            for _ in range(ROUNDS):
                instances[i].inc()

        run_parallel(worker)
        assert all(c is instances[0] for c in instances)
        assert registry.counter_value("shared") == THREADS * ROUNDS

    def test_parallel_gauge_inc_dec_nets_to_zero(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("in_flight")

        def worker(_):
            for _ in range(ROUNDS):
                gauge.inc()
                gauge.dec()

        run_parallel(worker)
        assert gauge.value == 0


class TestHistogramExactness:
    def test_parallel_observations_all_counted(self):
        histogram = LatencyHistogram("lat")

        def worker(i):
            for j in range(ROUNDS):
                histogram.observe(1000 * (i + 1) + j)

        run_parallel(worker)
        assert histogram.count == THREADS * ROUNDS
        assert histogram.min_ns == 1000
        assert histogram.max_ns == 1000 * THREADS + ROUNDS - 1

    def test_parallel_timers_via_registry(self):
        registry = MetricsRegistry()

        def worker(_):
            for _ in range(50):
                with registry.timer("op.duration"):
                    pass

        run_parallel(worker)
        assert registry.histogram("op.duration").count == THREADS * 50


class TestTracerThreadIsolation:
    def test_parallel_spans_build_separate_trees(self):
        telemetry = Telemetry()
        errors = []

        def worker(i):
            try:
                for j in range(100):
                    with telemetry.span("outer", worker=i) as outer:
                        with telemetry.span("inner", step=j) as inner:
                            inner.set_attr("ok", True)
                        # The inner span must have nested under THIS
                        # thread's outer span, not a sibling thread's.
                        assert outer.name == "outer"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(f"worker {i}: {exc!r}")

        run_parallel(worker)
        assert not errors, errors[0]
        spans = telemetry.tracer.finished_spans()
        outers = [s for s in spans if s.name == "outer"]
        inners = [s for s in spans if s.name == "inner"]
        assert len(outers) == THREADS * 100
        assert len(inners) == THREADS * 100
        # Every inner's parent is an outer from the same thread.
        by_id = {s.span_id: s for s in spans}
        for inner in inners:
            parent = by_id[inner.parent_id]
            assert parent.name == "outer"

    def test_parallel_ops_build_separate_trees_and_count_exactly(self):
        """A short switch interval makes threads interleave inside span
        enter and exit."""
        telemetry = Telemetry()
        workers, ops = 4, 300
        errors = []

        def worker(i):
            try:
                for _ in range(ops):
                    with telemetry.op("op.outer", worker=i):
                        with telemetry.op("op.inner", worker=i):
                            pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(f"worker {i}: {exc!r}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        spans = telemetry.tracer.finished_spans()
        by_id = {s.span_id: s for s in spans}
        inners = [s for s in spans if s.name == "op.inner"]
        assert len(inners) == workers * ops
        for inner in inners:
            parent = by_id[inner.parent_id]
            assert parent.name == "op.outer"
            assert parent.attrs["worker"] == inner.attrs["worker"]
            assert parent.trace_id == inner.trace_id
        histograms = telemetry.registry.histograms
        assert histograms["op.outer"].count == workers * ops
        assert histograms["op.inner"].count == workers * ops

    def test_disabled_telemetry_is_safe_in_parallel(self):
        telemetry = Telemetry.disabled()

        def worker(i):
            for _ in range(200):
                with telemetry.span("noop"):
                    telemetry.counter("x").inc()

        run_parallel(worker)
        assert telemetry.tracer.finished_spans() == []
