"""Sink behaviour: null short-circuit and memory collection."""

import json

from repro.obs import (
    MemorySink,
    MetricSample,
    NULL_SINK,
    NullSink,
    ObsEvent,
    SpanEvent,
    SpanRecord,
)
from repro.obs.sink import attrs_tuple


def _sample(t=1.0, name="m", value=2.0, labels=()):
    return MetricSample(time=t, name=name, kind="counter", value=value, labels=labels)


def _span(span_id=1, kind="query", status="complete", attrs=(), events=()):
    return SpanRecord(
        span_id=span_id,
        parent_id=None,
        name="query",
        kind=kind,
        start=0.0,
        end=3.0,
        status=status,
        attrs=attrs,
        events=events,
    )


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
        sink.on_span(_span(span_id=1, kind="query"))
        sink.on_span(_span(span_id=2, kind="scaling"))
        assert [s.span_id for s in sink.spans_of("query")] == [1]

    def test_jsonl_export_round_trips(self, tmp_path):
        sink = MemorySink()
        sink.on_metric(_sample(labels=(("group", "g1"),)))
        sink.on_span(
            _span(
                attrs=(("tenant", 7), ("ids", (1, 2))),
                events=(SpanEvent(time=1.0, name="submit"),),
            )
        )
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


class TestAttrsTuple:
    def test_scalars_pass_through(self):
        assert attrs_tuple({"a": 1, "b": "x"}) == (("a", 1), ("b", "x"))

    def test_lists_become_tuples_and_sets_sort(self):
        out = dict(attrs_tuple({"lst": [3, 1], "st": {2, 1}}))
        assert out["lst"] == (3, 1)
        assert out["st"] == (1, 2)
