"""Sink behaviour: null short-circuit, memory collection, JSON export."""

import json

from repro.obs import (
    MemorySink,
    MetricSample,
    NULL_SINK,
    NullSink,
    ObsEvent,
    SpanEvent,
    Tracer,
)


def _sample(t=1.0, name="m", value=2.0, labels=()):
    return MetricSample(time=t, name=name, kind="counter", value=value, labels=labels)


def _span(kind="query", status="complete", events=(), **attrs):
    """A finished span, built away from any live sink."""
    span = Tracer().start_span("query", 0.0, kind=kind, **attrs)
    span.events.extend(events)
    span.finish(3.0, status=status)
    return span


class TestNullSink:
    def test_disabled_and_shared(self):
        assert NullSink.enabled is False
        assert NULL_SINK.enabled is False

    def test_drops_everything_silently(self):
        sink = NullSink()
        sink.on_metric(_sample())
        sink.on_span(_span())
        sink.on_event(ObsEvent(time=0.0, kind="x"))


class TestMemorySink:
    def test_collects_in_arrival_order(self):
        sink = MemorySink()
        sink.on_metric(_sample(t=1.0))
        sink.on_metric(_sample(t=2.0))
        sink.on_span(_span())
        sink.on_event(ObsEvent(time=3.0, kind="k"))
        assert [s.time for s in sink.metrics] == [1.0, 2.0]
        assert len(sink.spans) == 1
        assert len(sink.events) == 1

    def test_metric_samples_filters_by_name_and_labels(self):
        sink = MemorySink()
        sink.on_metric(_sample(name="a", labels=(("group", "g1"),)))
        sink.on_metric(_sample(name="a", labels=(("group", "g2"),)))
        sink.on_metric(_sample(name="b", labels=(("group", "g1"),)))
        assert len(sink.metric_samples("a")) == 2
        assert len(sink.metric_samples("a", group="g1")) == 1
        assert sink.metric_samples("a", group="zzz") == []

    def test_spans_of(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.start_span("query", 0.0, kind="query").finish(1.0)
        tracer.start_span("scaling", 0.0, kind="scaling").finish(1.0)
        assert [s.span_id for s in sink.spans_of("query")] == [1]

    def test_jsonl_export_round_trips(self, tmp_path):
        sink = MemorySink()
        sink.on_metric(_sample(labels=(("group", "g1"),)))
        sink.on_span(_span(events=(SpanEvent(time=1.0, name="submit"),), tenant=7, ids=(1, 2)))
        metrics_path = sink.write_metrics_jsonl(tmp_path / "metrics.jsonl")
        spans_path = sink.write_spans_jsonl(tmp_path / "spans.jsonl")
        metric_row = json.loads(metrics_path.read_text().splitlines()[0])
        assert metric_row == {
            "t": 1.0,
            "metric": "m",
            "type": "counter",
            "value": 2.0,
            "labels": {"group": "g1"},
        }
        span_row = json.loads(spans_path.read_text().splitlines()[0])
        assert span_row["status"] == "complete"
        assert span_row["attrs"] == {"tenant": 7, "ids": [1, 2]}
        assert span_row["events"][0]["name"] == "submit"


#: Every collection shape an attribute may take, and its exported JSON.
_ATTRS = {
    "n": 1, "s": "x", "lst": [3, 1], "tup": (3, 1), "st": {2, 1}, "fst": frozenset({"b", "a"})
}
_EXPORTED = {"n": 1, "s": "x", "lst": [3, 1], "tup": [3, 1], "st": [1, 2], "fst": ["a", "b"]}


class TestAttributeExport:
    def test_span_attrs(self):
        span = Tracer().start_span("query", 0.0, **_ATTRS)
        assert span.attrs == _ATTRS  # stored as passed
        span.finish(1.0)
        assert json.loads(json.dumps(span.as_dict()))["attrs"] == _EXPORTED

    def test_span_attrs_set_after_start(self):
        span = Tracer().start_span("query", 0.0)
        for key, value in _ATTRS.items():
            span.set_attr(key, value)
        span.finish(1.0)
        assert json.loads(json.dumps(span.as_dict()))["attrs"] == _EXPORTED

    def test_span_event_attrs(self):
        span = Tracer().start_span("query", 0.0)
        span.add_event(0.5, "route", **_ATTRS)
        span.finish(1.0)
        (event,) = json.loads(json.dumps(span.as_dict()))["events"]
        assert event == {"t": 0.5, "name": "route", "attrs": _EXPORTED}

    def test_obs_event_attrs(self):
        event = ObsEvent(time=2.0, kind="k", attrs=_ATTRS)
        exported = json.loads(json.dumps(event.as_dict()))
        assert exported == {"t": 2.0, "kind": "k", "attrs": _EXPORTED}
