"""Metric instruments: counters, gauges, histograms, the registry, Prometheus text."""

import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import MemorySink, MetricsRegistry, NullSink
from repro.obs.metrics import DEFAULT_NORMALIZED_BUCKETS


@pytest.fixture
def sink():
    return MemorySink()


@pytest.fixture
def registry(sink):
    return MetricsRegistry(sink)


class TestCounter:
    def test_inc_emits_running_total(self, registry, sink):
        c = registry.counter("q_total", "queries", ("group",))
        bound = c.labels(group="g1")
        bound.inc(1.0)
        bound.inc(2.0, 4.0)
        assert c.value(group="g1") == 5.0
        assert sink.metrics == []  # updates aggregate in place
        registry.flush(10.0)
        bound.inc(11.0)
        registry.flush(20.0)
        registry.flush(30.0)  # nothing changed since the last snapshot
        assert [(s.time, s.value) for s in sink.metric_samples("q_total")] == [
            (10.0, 5.0),
            (20.0, 6.0),
        ]

    def test_label_sets_are_independent(self, registry):
        c = registry.counter("q_total", "", ("group",))
        c.labels(group="a").inc(0.0)
        c.labels(group="b").inc(0.0)
        c.labels(group="b").inc(1.0)
        assert c.value(group="a") == 1.0
        assert c.value(group="b") == 2.0
        assert c.value(group="never") == 0.0

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("q_total")
        with pytest.raises(ObservabilityError):
            c.inc(0.0, -1.0)

    def test_label_mismatch_rejected(self, registry):
        c = registry.counter("q_total", "", ("group",))
        with pytest.raises(ObservabilityError):
            c.labels(tenant="t1")
        with pytest.raises(ObservabilityError):
            c.inc(0.0)  # missing the declared label

    def test_disabled_sink_skips_state_and_emission(self):
        registry = MetricsRegistry(NullSink())
        c = registry.counter("q_total", "", ("group",))
        c.labels(group="g").inc(0.0)
        assert c.value(group="g") == 0.0
        assert c.snapshot() == {}


class TestGauge:
    def test_set_is_last_write_wins(self, registry, sink):
        g = registry.gauge("ttp", "", ("group",))
        bound = g.labels(group="g1")
        bound.set(1.0, 0.999)
        bound.set(2.0, 0.95)
        assert g.value(group="g1") == 0.95
        assert [s.value for s in sink.metric_samples("ttp")] == [0.999, 0.95]

    def test_unset_is_none(self, registry):
        g = registry.gauge("ttp", "", ("group",))
        assert g.value(group="g1") is None

    def test_disabled_sink_skips(self):
        g = MetricsRegistry(NullSink()).gauge("ttp")
        g.set(0.0, 1.0)
        assert g.value() is None


class TestHistogram:
    def test_bucketing_boundaries_are_le(self, registry):
        h = registry.histogram("lat", "", (), buckets=(1.0, 5.0))
        for v in (0.5, 1.0, 1.5, 5.0, 9.0):
            h.observe(0.0, v)
        # le semantics: 1.0 lands in the first bucket, 5.0 in the second.
        assert h.counts() == {"1": 2, "5": 2, "+Inf": 1}

    def test_snapshot_row_carries_count_sum_and_buckets(self, registry, sink):
        h = registry.histogram("lat", "", ("group",), buckets=(1.0,))
        bound = h.labels(group="g")
        bound.observe(3.0, 0.25)
        bound.observe(4.0, 2.5)
        assert sink.metrics == []
        registry.flush(600.0)
        (sample,) = sink.metric_samples("lat")
        assert sample.kind == "histogram"
        assert sample.as_dict() == {
            "t": 600.0,
            "metric": "lat",
            "type": "histogram",
            "value": 2.0,
            "labels": {"group": "g"},
            "sum": 2.75,
            "buckets": [["1", 1], ["+Inf", 1]],
        }

    @pytest.mark.parametrize(
        "value",
        [-math.inf, -3.0, 0.0, 0.5, 1.0, 1.0 + 1e-12, 5.0, 5.5, 1e308, math.inf, math.nan],
    )
    def test_bucket_lookup_matches_the_linear_scan(self, registry, value):
        buckets = (0.5, 1.0, 5.0)
        # The scan bisect replaced: first bound with value <= bound, else +Inf.
        expected = next((i for i, b in enumerate(buckets) if value <= b), len(buckets))
        h = registry.histogram("lat", "", (), buckets=buckets)
        h.observe(0.0, value)
        counts = list(h.counts().values())
        assert counts == [int(i == expected) for i in range(len(buckets) + 1)]

    def test_nan_lands_in_the_inf_bucket(self, registry):
        h = registry.histogram("lat", "", (), buckets=(1.0, 5.0))
        h.observe(0.0, math.nan)
        assert h.counts() == {"1": 0, "5": 0, "+Inf": 1}

    def test_bad_buckets_rejected(self, registry):
        for buckets in ((), (2.0, 1.0), (1.0, 1.0)):
            with pytest.raises(ObservabilityError):
                registry.histogram(f"h{len(buckets)}x", buckets=buckets)

    def test_empty_counts_before_first_observation(self, registry):
        h = registry.histogram("lat", "", ("group",))
        assert h.counts(group="g") == {}


class TestFlush:
    def test_rows_ordered_by_family_then_label_key(self, registry, sink):
        b = registry.counter("b_total", "", ("group",))
        a = registry.histogram("a_lat", "", ("group",), buckets=(1.0,))
        b.labels(group="z").inc(1.0)
        b.labels(group="y").inc(2.0)
        a.labels(group="x").observe(3.0, 0.5)
        registry.flush(600.0)
        assert [(s.name, dict(s.labels)["group"]) for s in sink.metrics] == [
            ("a_lat", "x"),
            ("b_total", "y"),
            ("b_total", "z"),
        ]

    def test_only_changed_children_are_snapshotted(self, registry, sink):
        c = registry.counter("q_total", "", ("group",))
        c.labels(group="a").inc(0.0)
        c.labels(group="b").inc(0.0)
        registry.flush(600.0)
        c.labels(group="b").inc(700.0)
        registry.flush(1200.0)
        assert [(s.time, dict(s.labels)["group"], s.value) for s in sink.metrics] == [
            (600.0, "a", 1.0),
            (600.0, "b", 1.0),
            (1200.0, "b", 2.0),
        ]

    def test_gauges_emit_per_set_not_per_flush(self, registry, sink):
        g = registry.gauge("ttp")
        g.set(1.0, 0.99)
        registry.flush(600.0)
        assert [(s.time, s.value) for s in sink.metrics] == [(1.0, 0.99)]

    def test_disabled_sink_flush_is_a_no_op(self):
        registry = MetricsRegistry(NullSink())
        registry.counter("q_total").inc(0.0)
        registry.flush(600.0)
        assert registry.counter("q_total").snapshot() == {}


class TestRegistry:
    def test_same_name_same_family_memoized(self, registry):
        a = registry.counter("n", "", ("g",))
        b = registry.counter("n", "", ("g",))
        assert a is b

    def test_conflicting_redeclaration_rejected(self, registry):
        registry.counter("n", "", ("g",))
        with pytest.raises(ObservabilityError):
            registry.gauge("n", "", ("g",))
        with pytest.raises(ObservabilityError):
            registry.counter("n", "", ("other",))

    def test_iteration_is_name_ordered(self, registry):
        registry.counter("b")
        registry.gauge("a")
        assert [f.name for f in registry] == ["a", "b"]


class TestPrometheusText:
    def test_counter_and_gauge_lines(self, registry):
        registry.counter("thrifty_q_total", "queries", ("group",)).labels(group="g1").inc(0.0)
        registry.gauge("thrifty_ttp", "ttp", ("group",)).labels(group="g1").set(0.0, 0.999)
        text = registry.to_prometheus_text()
        assert "# HELP thrifty_q_total queries" in text
        assert "# TYPE thrifty_q_total counter" in text
        assert 'thrifty_q_total{group="g1"} 1' in text
        assert "# TYPE thrifty_ttp gauge" in text
        assert 'thrifty_ttp{group="g1"} 0.999' in text

    def test_histogram_buckets_are_cumulative_with_inf_sum_count(self, registry):
        h = registry.histogram("lat", "latency", ("g",), buckets=(1.0, 5.0))
        bound = h.labels(g="x")
        for v in (0.5, 2.0, 9.0):
            bound.observe(0.0, v)
        text = registry.to_prometheus_text()
        assert 'lat_bucket{g="x",le="1"} 1' in text
        assert 'lat_bucket{g="x",le="5"} 2' in text
        assert 'lat_bucket{g="x",le="+Inf"} 3' in text
        assert 'lat_sum{g="x"} 11.5' in text
        assert 'lat_count{g="x"} 3' in text

    def test_non_finite_values_render_as_prometheus_specials(self, registry):
        registry.gauge("g_nan").set(0.0, math.nan)
        registry.gauge("g_neg").set(0.0, -math.inf)
        registry.histogram("h", "", (), buckets=(1.0,)).observe(0.0, math.inf)
        text = registry.to_prometheus_text()
        assert "g_nan NaN" in text
        assert "g_neg -Inf" in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum +Inf" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry(MemorySink()).to_prometheus_text() == ""

    def test_normalized_buckets_include_the_sla_boundary(self):
        assert 1.0 in DEFAULT_NORMALIZED_BUCKETS
