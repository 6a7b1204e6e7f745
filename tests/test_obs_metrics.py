"""Tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    render_prometheus,
)


class TestPrimitives:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.get() == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_callback(self):
        gauge = Gauge()
        gauge.set(7)
        assert gauge.get() == 7
        box = {"value": 1}
        gauge.set_function(lambda: box["value"])
        box["value"] = 9
        assert gauge.get() == 9
        # A plain set() clears the callback again.
        gauge.set(2)
        assert gauge.get() == 2


class TestFamiliesAndRegistry:
    def test_label_less_family_proxies_to_single_series(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total").inc(3)
        registry.gauge("queue_depth").set(11)
        assert registry.values() == {"jobs_total": 3, "queue_depth": 11}

    def test_labeled_series_created_on_demand(self):
        registry = MetricsRegistry()
        family = registry.counter("completed", labels=("tenant",))
        family.labels(tenant="a").inc()
        family.labels(tenant="a").inc()
        family.labels(tenant="b").inc()
        assert registry.values() == {
            'completed{tenant="a"}': 2,
            'completed{tenant="b"}': 1,
        }

    def test_label_names_validated(self):
        registry = MetricsRegistry()
        family = registry.counter("c", labels=("tenant",))
        with pytest.raises(ValueError):
            family.labels(nope="x")

    def test_registration_idempotent_but_kind_pinned(self):
        registry = MetricsRegistry()
        first = registry.counter("n")
        assert registry.counter("n") is first
        with pytest.raises(ValueError):
            registry.gauge("n")
        with pytest.raises(ValueError):
            registry.counter("n", labels=("tenant",))

    def test_attach_adopts_live_objects(self):
        registry = MetricsRegistry()
        hist = LatencyHistogram()
        hist.record(0.002)
        family = registry.histogram("latency_seconds", labels=("kind",))
        family.attach(hist, kind="submit")
        # Live object: later observations show up without re-attaching.
        hist.record(0.004)
        assert registry.values() == {'latency_seconds_count{kind="submit"}': 2}

    def test_values_preserves_ints(self):
        registry = MetricsRegistry()
        registry.counter("exact").inc(1)
        registry.gauge("ratio").set(0.5)
        values = registry.values()
        assert values["exact"] == 1 and isinstance(values["exact"], int)
        assert values["ratio"] == 0.5

    def test_set_gauges_bulk(self):
        registry = MetricsRegistry()
        registry.set_gauges({"a": 1, "b": 2.5})
        assert registry.values() == {"a": 1, "b": 2.5}

    def test_as_dict_nested_shape(self):
        registry = MetricsRegistry()
        registry.counter("n", help="things").inc(2)
        hist = registry.histogram("h")
        hist.record(0.001)
        payload = registry.as_dict()
        assert payload["n"] == {"kind": "counter", "help": "things", "series": {"": 2}}
        assert payload["h"]["series"][""]["count"] == 1.0


class TestPrometheusRendering:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", help="settled jobs").inc(3)
        registry.gauge("depth", labels=("tenant",)).labels(tenant="a").set(2)
        text = render_prometheus(registry)
        assert "# HELP jobs_total settled jobs" in text
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 3" in text
        assert 'depth{tenant="a"} 2' in text
        assert text.endswith("\n")

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        hist.record(0.5e-6)   # bucket 0
        hist.record(3e-6)     # bucket 2 ((2µs, 4µs])
        text = render_prometheus(registry)
        lines = [l for l in text.splitlines() if l.startswith("lat_bucket")]
        assert lines[0] == 'lat_bucket{le="1e-06"} 1'
        assert lines[1] == 'lat_bucket{le="2e-06"} 1'
        assert lines[2] == 'lat_bucket{le="4e-06"} 2'
        assert lines[-1] == 'lat_bucket{le="+Inf"} 2'
        assert "lat_count 2" in text
        assert render_prometheus(registry) == text  # deterministic

    def test_render_text_matches_module_function(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert registry.render_text() == render_prometheus(registry)


class TestLatencyHistogramRelocation:
    def test_bucket_edges_match_counts_layout(self):
        hist = LatencyHistogram()
        edges = hist.bucket_edges()
        assert len(edges) == len(hist.counts) - 1  # overflow bucket has no edge
        assert edges[0] == 1e-6
        assert edges[1] == 2e-6

    def test_summary_statistics_survive_move(self):
        hist = LatencyHistogram()
        for value in (0.001, 0.002, 0.004):
            hist.record(value)
        summary = hist.as_dict()
        assert summary["count"] == 3.0
        assert summary["max_ms"] == pytest.approx(4.0)
        # percentile() returns the containing bucket's upper edge.
        assert hist.percentile(50.0) == pytest.approx(1e-6 * 2**11)
