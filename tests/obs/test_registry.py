"""Metrics registry semantics: counters, gauges, histograms, timers,
collectors, and the disabled (null-object) mode."""

import pytest

from repro.obs import (
    DEFAULT_BUCKET_BOUNDS_NS,
    LatencyHistogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_TIMER,
    Telemetry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter_value("ops") == 5

    def test_same_name_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_missing_counter_value_defaults(self):
        registry = MetricsRegistry()
        assert registry.counter_value("nope") == 0
        assert registry.counter_value("nope", default=-1) == -1


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7
        assert registry.gauge_value("depth") == 7


class TestHistogram:
    def test_observe_counts_and_extremes(self):
        histogram = LatencyHistogram("h")
        for ns in (100, 1000, 10_000, 100_000):
            histogram.observe(ns)
        assert histogram.count == 4
        assert histogram.sum_ns == 111_100
        assert histogram.min_ns == 100
        assert histogram.max_ns == 100_000

    def test_percentiles_are_ordered_and_clamped(self):
        histogram = LatencyHistogram("h")
        for ns in range(1000, 101_000, 1000):  # 100 observations
            histogram.observe(ns)
        p50 = histogram.percentile(0.50)
        p95 = histogram.percentile(0.95)
        p99 = histogram.percentile(0.99)
        assert histogram.min_ns <= p50 <= p95 <= p99 <= histogram.max_ns

    def test_negative_durations_clamp_to_zero(self):
        histogram = LatencyHistogram("h")
        histogram.observe(-5)
        assert histogram.count == 1
        assert histogram.min_ns == 0

    def test_summary_shape(self):
        histogram = LatencyHistogram("h")
        histogram.observe(2_000)
        summary = histogram.summary()
        assert set(summary) == {
            "count", "p50_us", "p95_us", "p99_us", "max_us", "mean_us"
        }
        assert summary["count"] == 1
        assert summary["max_us"] == pytest.approx(2.0)

    def test_single_observation_percentiles_exact(self):
        histogram = LatencyHistogram("h")
        histogram.observe(5_000)
        assert histogram.percentile(0.5) == 5_000
        assert histogram.percentile(0.99) == 5_000

    def test_default_bounds_are_sorted_powers_of_two(self):
        assert list(DEFAULT_BUCKET_BOUNDS_NS) == sorted(DEFAULT_BUCKET_BOUNDS_NS)
        assert all(b & (b - 1) == 0 for b in DEFAULT_BUCKET_BOUNDS_NS)

    def test_reset(self):
        histogram = LatencyHistogram("h")
        histogram.observe(1_000)
        histogram.reset()
        assert histogram.count == 0
        assert histogram.sum_ns == 0


class TestTimer:
    def test_timer_observes_into_histogram(self):
        registry = MetricsRegistry()
        with registry.timer("op"):
            pass
        histogram = registry.histogram("op")
        assert histogram.count == 1
        assert histogram.sum_ns >= 0


class TestCollectors:
    def test_collect_runs_callbacks(self):
        registry = MetricsRegistry()
        registry.register_collector(
            lambda reg: reg.gauge("pulled").set(42)
        )
        registry.collect()
        assert registry.gauge_value("pulled") == 42

    def test_as_dict_refresh_pulls_collectors(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda reg: reg.gauge("g").set(7))
        snapshot = registry.as_dict()
        assert snapshot["gauges"]["g"] == 7


class TestDisabledRegistry:
    def test_disabled_returns_null_singletons(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL_COUNTER
        assert registry.gauge("b") is NULL_GAUGE
        assert registry.histogram("c") is NULL_HISTOGRAM
        assert registry.timer("d") is NULL_TIMER

    def test_disabled_adds_zero_entries(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc()
        registry.gauge("b").set(3)
        registry.histogram("c").observe(100)
        with registry.timer("d"):
            pass
        registry.register_collector(lambda reg: reg.gauge("x").set(1))
        registry.collect()
        assert registry.counters == {}
        assert registry.gauges == {}
        assert registry.histograms == {}
        snapshot = registry.as_dict()
        assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}


class TestOpHistograms:
    def test_tracing_off_records_samples_and_no_spans(self):
        telemetry = Telemetry(tracing=False)
        with telemetry.op("op.outer") as span:
            span.set_attr("ignored", 1)
            with telemetry.op("op.inner"):
                pass
        assert span.attrs == {}
        assert len(telemetry.tracer) == 0
        assert telemetry.tracer.current_span is None
        histograms = telemetry.registry.histograms
        assert histograms["op.outer"].count == 1
        assert histograms["op.inner"].count == 1

    def test_op_after_reset_counts_in_the_registered_histogram(self):
        telemetry = Telemetry()
        with telemetry.op("ps.invoke"):
            pass
        telemetry.registry.reset()
        with telemetry.op("ps.invoke"):
            pass
        assert telemetry.registry.histograms["ps.invoke"].count == 1
