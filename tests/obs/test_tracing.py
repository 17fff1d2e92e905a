"""Span lifecycle: one object from start_span to the sink."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import STATUS_INFLIGHT, MemorySink, NullSink, Tracer


@pytest.fixture
def sink():
    return MemorySink()


@pytest.fixture
def tracer(sink):
    return Tracer(sink)


class TestSpanLifecycle:
    def test_end_emits_the_record(self, tracer, sink):
        span = tracer.start_span("query", 1.0, kind="query", group="g1", tenant=7)
        span.add_event(1.0, "submit")
        span.add_event(2.0, "route", instance="tg0-mppdb0", outcome="free")
        span.set_attr("normalized", 0.8)
        span.finish(3.0, status="complete")
        (emitted,) = sink.spans
        assert emitted is span
        assert span.start == 1.0 and span.end == 3.0
        assert span.status == "complete"
        assert span.attrs == {"group": "g1", "tenant": 7, "normalized": 0.8}
        assert [e.name for e in span.events] == ["submit", "route"]
        assert span.events[1].attrs["outcome"] == "free"

    def test_open_span_has_no_end(self, tracer, sink):
        span = tracer.start_span("query", 1.0)
        assert span.end is None
        assert sink.spans == []

    def test_events_without_attributes_share_one_mapping(self, tracer):
        span = tracer.start_span("query", 0.0)
        span.add_event(0.0, "submit")
        span.add_event(1.0, "execute")
        first, second = span.events
        assert first.attrs == {}
        assert first.attrs is second.attrs

    def test_double_end_rejected(self, tracer):
        span = tracer.start_span("query", 0.0)
        span.finish(1.0)
        with pytest.raises(ObservabilityError):
            span.finish(2.0)

    def test_event_after_end_rejected(self, tracer):
        span = tracer.start_span("query", 0.0)
        span.finish(1.0)
        with pytest.raises(ObservabilityError):
            span.add_event(2.0, "late")

    def test_set_attr_after_end_rejected(self, tracer, sink):
        span = tracer.start_span("query", 0.0, tenant=7)
        span.finish(1.0)
        with pytest.raises(ObservabilityError):
            span.set_attr("normalized", 0.8)
        assert sink.spans[0].as_dict()["attrs"] == {"tenant": 7}

    def test_end_before_start_rejected(self, tracer):
        span = tracer.start_span("query", 5.0)
        with pytest.raises(ObservabilityError):
            span.finish(4.0)

    def test_zero_duration_span_allowed(self, tracer, sink):
        tracer.start_span("query", 5.0).finish(5.0)
        assert sink.spans[0].start == sink.spans[0].end == 5.0

    def test_parent_linkage(self, tracer, sink):
        parent = tracer.start_span("reconsolidation", 0.0)
        child = tracer.start_span("query", 1.0, parent=parent)
        child.finish(2.0)
        parent.finish(3.0)
        child_rec, parent_rec = sink.spans
        assert child_rec.parent_id == parent_rec.span_id


class TestTracer:
    def test_ids_are_deterministic(self):
        def run():
            tracer = Tracer(MemorySink())
            return [tracer.start_span("s", 0.0).span_id for _ in range(3)]

        assert run() == run() == [1, 2, 3]

    def test_disabled_sink_suppresses_emission_not_bookkeeping(self):
        tracer = Tracer(NullSink())
        span = tracer.start_span("query", 0.0)
        span.finish(1.0)
        assert span.end == 1.0
        assert not tracer.enabled

    def test_kind_defaults_to_name(self, tracer, sink):
        tracer.start_span("scaling", 0.0).finish(1.0)
        assert sink.spans[0].kind == "scaling"


class TestQuerySpan:
    """A query span is a record: attrs and events are read-only views built on read."""

    def _span(self, tracer):
        span = tracer.start_query_span(1.0, "g1", 7, "tpch.q1")
        span.dispatched(2.0, "g1/mppdb0", "free", 1, 0.12345678, 3)
        return span

    def test_settled_span_reads_its_whole_chain(self, tracer, sink):
        span = self._span(tracer)
        span.settle(4.0, "violate", 3.0, 1.23456789012)
        (emitted,) = sink.spans
        assert emitted is span
        assert (span.kind, span.name, span.parent_id) == ("query", "query", None)
        assert span.attrs == {
            "group": "g1", "tenant": 7, "template": "tpch.q1",
            "observed_latency_s": 3.0, "normalized": 1.23456789,
        }
        assert [(e.time, e.name, dict(e.attrs)) for e in span.events] == [
            (1.0, "submit", {}),
            (2.0, "route", {"instance": "g1/mppdb0", "outcome": "free", "attempt": 1}),
            (2.0, "admit", {"instance": "g1/mppdb0", "work_s": 0.123457, "concurrency": 3}),
            (2.0, "execute", {}),
            (4.0, "violate", {}),
        ]

    def test_explicit_events_keep_their_place_in_the_log(self, tracer):
        span = tracer.start_query_span(0.0, "g1", 7, "tpch.q1")
        span.add_event(0.0, "park")
        span.dispatched(5.0, "g1/mppdb1", "free", 1, 1.0, 1)
        span.add_event(6.0, "abort", instance="g1/mppdb1", attempt=1, remaining_s=0.5)
        span.add_event(6.0, STATUS_INFLIGHT)
        span.finish(6.0, status=STATUS_INFLIGHT)
        assert [e.name for e in span.events] == [
            "submit", "park", "route", "admit", "execute", "abort", STATUS_INFLIGHT
        ]
        assert "observed_latency_s" not in span.attrs

    def test_reads_are_equal_and_read_only(self, tracer):
        span = self._span(tracer)
        assert span.events == span.events
        assert span.attrs == span.attrs
        with pytest.raises(TypeError):
            span.attrs["tenant"] = 8
        with pytest.raises(AttributeError):
            span.events.append(None)
        with pytest.raises(TypeError):
            span.events[1].attrs["instance"] = "elsewhere"
        assert span.attrs["tenant"] == 7
        assert span.events[1].attrs["instance"] == "g1/mppdb0"

    def test_set_attr_is_kept_and_exported(self, tracer, sink):
        span = self._span(tracer)
        span.set_attr("note", "kept")
        span.settle(4.0, "complete", 3.0, 0.5)
        assert span.attrs["note"] == "kept"
        assert sink.spans[0].as_dict()["attrs"]["note"] == "kept"

    def test_writes_after_finish_rejected(self, tracer):
        span = self._span(tracer)
        span.settle(4.0, "complete", 3.0, 0.5)
        with pytest.raises(ObservabilityError):
            span.set_attr("note", "late")
        with pytest.raises(ObservabilityError):
            span.add_event(5.0, "late")
        with pytest.raises(ObservabilityError):
            span.dispatched(5.0, "g1/mppdb0", "free", 2, 1.0, 1)
        with pytest.raises(ObservabilityError):
            span.settle(5.0, "complete", 4.0, 0.5)
        assert "note" not in span.attrs

    def test_ids_shared_with_every_other_span(self, tracer):
        first = tracer.start_span("scaling", 0.0)
        query = tracer.start_query_span(0.0, "g1", 7, "tpch.q1")
        assert (first.span_id, query.span_id) == (1, 2)
