"""The Observer façade: instrument contract, events, sink discovery."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import MemorySink, NULL_OBSERVER, NullSink, Observer


class TestNullObserver:
    def test_disabled_by_default(self):
        assert not NULL_OBSERVER.enabled
        assert not Observer().enabled

    def test_instruments_are_safe_no_ops(self):
        NULL_OBSERVER.queries_submitted.labels(group="g").inc(0.0)
        NULL_OBSERVER.rt_ttp.labels(group="g").set(0.0, 1.0)
        NULL_OBSERVER.event(0.0, "anything", detail=1)
        assert NULL_OBSERVER.queries_submitted.value(group="g") == 0.0


class TestInstrumentContract:
    def test_standard_metric_names(self):
        observer = Observer(MemorySink())
        expected = {
            "thrifty_queries_submitted_total",
            "thrifty_queries_completed_total",
            "thrifty_queries_overflow_total",
            "thrifty_sla_violations_total",
            "thrifty_routing_decisions_total",
            "thrifty_scaling_actions_total",
            "thrifty_rt_ttp",
            "thrifty_concurrent_active_tenants",
            "thrifty_query_latency_seconds",
            "thrifty_normalized_latency",
            "thrifty_engine_queries_total",
            "thrifty_engine_concurrency",
            "thrifty_node_failures_total",
            "thrifty_query_retries_total",
            "thrifty_failovers_total",
            "thrifty_queries_failed_total",
            "thrifty_instance_degraded_seconds",
            "thrifty_node_replacement_seconds",
        }
        assert {family.name for family in observer.metrics} == expected

    def test_instrument_updates_reach_the_sink(self):
        sink = MemorySink()
        observer = Observer(sink)
        observer.queries_submitted.labels(group="g1").inc(1.0)
        observer.routing_decisions.labels(group="g1", outcome="free").inc(1.0)
        observer.metrics.flush(600.0)
        names = {s.name for s in sink.metrics}
        assert names == {
            "thrifty_queries_submitted_total",
            "thrifty_routing_decisions_total",
        }

    def test_collectors_publish_before_each_scrape(self):
        sink = MemorySink()
        observer = Observer(sink)
        books = {"completed": 0}
        handle = observer.queries_completed.labels(group="g1")
        observer.metrics.add_collector(lambda: handle.set_total(0.0, books["completed"]))
        observer.metrics.flush(600.0)
        assert sink.metrics == []  # an unchanged total emits nothing
        books["completed"] = 3
        assert 'thrifty_queries_completed_total{group="g1"} 3' in (
            observer.metrics.to_prometheus_text()
        )
        observer.metrics.flush(1200.0)
        (sample,) = sink.metrics
        assert (sample.time, sample.value) == (1200.0, 3.0)
        books["completed"] = 2
        with pytest.raises(ObservabilityError):
            observer.metrics.flush(1800.0)

    def test_tracer_shares_the_sink(self):
        sink = MemorySink()
        observer = Observer(sink)
        observer.tracer.start_span("query", 0.0, kind="query").finish(1.0)
        assert len(sink.spans) == 1


class TestEvents:
    def test_event_emits_trace_record_shape(self):
        sink = MemorySink()
        Observer(sink).event(4.5, "reconsolidation", cycle=2)
        (event,) = sink.events
        assert event.time == 4.5
        assert event.kind == "reconsolidation"
        assert dict(event.attrs)["cycle"] == 2

    def test_event_skipped_when_disabled(self):
        observer = Observer(NullSink())
        observer.event(0.0, "never")  # must not raise nor allocate visibly


class TestMemorySinkDiscovery:
    def test_direct(self):
        sink = MemorySink()
        assert Observer(sink).memory_sink() is sink

    def test_absent(self):
        assert Observer(NullSink()).memory_sink() is None
        assert NULL_OBSERVER.memory_sink() is None
