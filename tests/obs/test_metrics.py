"""The metrics registry: counters, histogram quantiles, exposition."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)


def _load_prom_checker():
    """Import tools/check_prom_format.py (not a package) for reuse here."""
    path = Path(__file__).resolve().parents[2] / "tools" / "check_prom_format.py"
    spec = importlib.util.spec_from_file_location("check_prom_format", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_prom_format", module)
    spec.loader.exec_module(module)
    return module


class TestCounter:
    def test_unlabeled_counts(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labeled_series_are_independent(self):
        counter = Counter("c_total", label_names=("outcome",))
        counter.inc(outcome="hit")
        counter.inc(outcome="hit")
        counter.inc(outcome="miss")
        assert counter.value(outcome="hit") == 2
        assert counter.value(outcome="miss") == 1
        assert counter.value(outcome="never") == 0

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("c_total").inc(-1)

    def test_rejects_wrong_label_set(self):
        counter = Counter("c_total", label_names=("outcome",))
        with pytest.raises(ValueError):
            counter.inc()
        with pytest.raises(ValueError):
            counter.inc(outcome="hit", extra="x")


class TestHistogram:
    def test_count_and_sum(self):
        histogram = Histogram("h_seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count() == 4
        assert "h_seconds_sum 5.555" in histogram.render()

    def test_quantiles_interpolate_within_the_bucket(self):
        histogram = Histogram("h_seconds", buckets=(0.002, 0.004, 0.3))
        for value in (0.001, 0.003, 0.25, 0.25):
            histogram.observe(value)
        # rank 2 of 4 lands exactly at the top of the (0.002, 0.004] bucket
        assert histogram.quantile(0.5) == pytest.approx(0.004)
        assert histogram.quantile(0.0) == pytest.approx(0.0)

    def test_overflow_rank_reports_last_bound(self):
        histogram = Histogram("h_seconds", buckets=(0.01,))
        histogram.observe(5.0)
        assert histogram.quantile(0.99) == pytest.approx(0.01)

    def test_empty_quantile_is_none(self):
        assert Histogram("h_seconds").quantile(0.5) is None

    def test_snapshot_shape(self):
        histogram = Histogram("h_seconds", label_names=("handler",))
        histogram.observe(0.003, handler="sparql")
        snapshot = histogram.snapshot(handler="sparql")
        assert snapshot["count"] == 1
        assert set(snapshot) == {"count", "p50", "p95", "p99"}

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h_seconds", buckets=(0.1, 0.01))

    def test_default_buckets_cover_query_latencies(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0


class TestRegistry:
    def test_get_or_create_returns_the_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(TypeError):
            registry.histogram("a_total")

    def test_prometheus_rendering_passes_the_format_checker(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "requests").inc(3)
        registry.counter("repro_labelled_total", "l", labels=("dataset",)).inc(
            2, dataset='with "quotes" and \\slashes\\'
        )
        histogram = registry.histogram(
            "repro_latency_seconds", "latency", labels=("handler",)
        )
        for value in (0.002, 0.02, 0.2, 2.0):
            histogram.observe(value, handler="sparql")
        checker = _load_prom_checker()
        problems, types, samples = checker.check(registry.render_prometheus())
        assert problems == []
        assert types == {
            "repro_requests_total": "counter",
            "repro_labelled_total": "counter",
            "repro_latency_seconds": "histogram",
        }
        assert len(samples) == len(DEFAULT_LATENCY_BUCKETS) + 1 + 2 + 2

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", buckets=(0.01, 0.1))
        for value in (0.005, 0.05, 5.0):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert 'h_seconds_bucket{le="0.01"} 1' in text
        assert 'h_seconds_bucket{le="0.1"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 3' in text
        assert "h_seconds_count 3" in text
