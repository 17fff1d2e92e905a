"""Run reports: summary digestion, disk round-trip, error paths."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    MemorySink,
    NULL_OBSERVER,
    Observer,
    build_summary,
    load_run_report,
    write_run_report,
)


@pytest.fixture
def observer():
    return Observer(MemorySink())


def _simulate_small_run(observer):
    """Hand-drive the instruments the way a replay would."""
    submitted = observer.queries_submitted
    completed = observer.queries_completed
    for t, group in ((1.0, "tg0"), (2.0, "tg0"), (3.0, "tg1")):
        submitted.labels(group=group).inc(t)
        span = observer.tracer.start_span("query", t, kind="query", group=group)
        span.add_event(t, "submit")
        span.finish(t + 0.5, status="complete")
        completed.labels(group=group).inc(t + 0.5)
    observer.sla_violations.labels(group="tg0").inc(2.5)
    observer.routing_decisions.labels(group="tg0", outcome="free").inc(1.0)
    observer.routing_decisions.labels(group="tg0", outcome="free").inc(2.0)
    observer.routing_decisions.labels(group="tg1", outcome="overflow").inc(3.0)
    observer.rt_ttp.labels(group="tg0").set(5.0, 0.999)
    observer.rt_ttp.labels(group="tg0").set(10.0, 0.95)
    gauge = observer.concurrent_active.labels(group="tg0")
    gauge.set(0.0, 0.0)
    gauge.set(4.0, 2.0)
    gauge.set(8.0, 0.0)
    scaling = observer.tracer.start_span("scaling", 6.0, kind="scaling", group="tg0")
    scaling.finish(7.0)
    # The horizon snapshot a replay's finalize_observation takes.
    observer.metrics.flush(10.0)


class TestBuildSummary:
    def test_structure(self, observer):
        _simulate_small_run(observer)
        summary = build_summary(
            observer.memory_sink(),
            horizon=10.0,
            simulator_events={"query-submit": 3},
            meta={"command": "test"},
        )
        assert summary["queries"] == {
            "submitted": 3.0,
            "completed": 3.0,
            "overflow": 0.0,
            "sla_violations": 1.0,
        }
        assert summary["spans"]["total"] == 4
        assert summary["spans"]["query_spans"] == 3
        assert summary["spans"]["by_status"] == {"complete": 3, "ok": 1}
        assert summary["routing_decisions"] == {"free": 2.0, "overflow": 1.0}
        assert summary["simulator_events"] == {"query-submit": 3}
        assert summary["meta"] == {"command": "test"}
        assert len(summary["scaling_actions"]) == 1

    def test_group_sections(self, observer):
        _simulate_small_run(observer)
        summary = build_summary(observer.memory_sink(), horizon=10.0)
        tg0 = summary["groups"]["tg0"]
        assert tg0["queries_submitted"] == 2.0
        assert tg0["sla_violations"] == 1.0
        assert tg0["rt_ttp_trajectory"] == [[5.0, 0.999], [10.0, 0.95]]
        assert tg0["rt_ttp_min"] == 0.95
        # Concurrency 0 over [0,4), 2 over [4,8), 0 over [8,10): 6s at 0, 4s at 2.
        assert tg0["concurrency_histogram"] == {"0": 6.0, "2": 4.0}
        assert summary["groups"]["tg1"]["rt_ttp_min"] == 1.0

    def test_empty_sink_is_a_valid_summary(self):
        summary = build_summary(MemorySink())
        assert summary["queries"]["submitted"] == 0
        assert summary["groups"] == {}


class TestWriteAndLoad:
    def test_round_trip(self, observer, tmp_path):
        _simulate_small_run(observer)
        paths = write_run_report(
            tmp_path / "out", observer, horizon=10.0, meta={"k": "v"}
        )
        assert paths.metrics.name == "metrics.jsonl"
        assert paths.spans.name == "spans.jsonl"
        assert paths.summary.name == "summary.json"
        for path in (paths.metrics, paths.spans, paths.summary):
            assert path.exists()

        report = load_run_report(paths.directory)
        assert report.summary["meta"] == {"k": "v"}
        assert len(report.spans) == 4
        assert report.top_groups(5) == [("tg0", 2.0), ("tg1", 1.0)]
        assert report.rt_ttp_trajectory("tg0") == [(5.0, 0.999), (10.0, 0.95)]
        assert report.rt_ttp_trajectory("absent") == []
        assert len(report.metric_samples("thrifty_rt_ttp")) == 2

    def test_summary_is_deterministic_json(self, observer, tmp_path):
        _simulate_small_run(observer)
        a = write_run_report(tmp_path / "a", observer, horizon=10.0).summary.read_text()
        b = write_run_report(tmp_path / "b", observer, horizon=10.0).summary.read_text()
        assert a == b
        json.loads(a)  # valid JSON

    def test_null_observer_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError):
            write_run_report(tmp_path, NULL_OBSERVER)

    def test_load_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError):
            load_run_report(tmp_path / "nope")

    def test_summary_sections_are_the_documented_set(self, observer, tmp_path):
        _simulate_small_run(observer)
        paths = write_run_report(tmp_path, observer)
        summary = json.loads(paths.summary.read_text())
        assert sorted(summary) == [
            "faults",
            "groups",
            "meta",
            "queries",
            "routing_decisions",
            "scaling_actions",
            "simulator_events",
            "spans",
        ]
