"""Observability end to end: a real replay leaves complete span chains.

The acceptance invariant of the obs subsystem: every query in a replay has
exactly one finished span whose event chain runs submit → terminal state,
and the metrics agree with the replay's own SLA accounting.
"""

import pytest

from repro.core.service import ThriftyService
from repro.obs import MemorySink, Observer, STATUS_INFLIGHT, write_run_report
from repro.units import HOUR
from repro.workload.composer import MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator
from tests.conftest import assert_spans_emitted_once, tiny_config

_HORIZON = 6 * HOUR


@pytest.fixture(scope="module")
def replayed():
    config = tiny_config(num_tenants=24, seed=13)
    library = SessionLogGenerator(config, sessions_per_size=2).generate()
    workload = MultiTenantLogComposer(config, library).compose()
    observer = Observer(MemorySink())
    service = ThriftyService(config, scaling="disabled", observer=observer)
    service.deploy(workload)
    report = service.replay(until=_HORIZON)
    return observer, service, report


class TestSpanChains:
    def test_every_query_has_one_complete_span_chain(self, replayed):
        observer, service, report = replayed
        sink = observer.memory_sink()
        spans = sink.spans_of("query")
        submitted = observer.queries_submitted
        total_submitted = sum(submitted.snapshot().values())
        assert total_submitted > 0
        assert len(spans) == total_submitted

        for span in spans:
            names = [e.name for e in span.events]
            assert names[0] == "submit"
            assert span.status in ("complete", "violate", STATUS_INFLIGHT)
            if span.status == STATUS_INFLIGHT:
                # Interrupted at the horizon: the chain is a prefix.
                assert names[:2] == ["submit", "route"]
                continue
            assert names == ["submit", "route", "admit", "execute", span.status]
            attrs = dict(span.attrs)
            assert "observed_latency_s" in attrs
            assert "normalized" in attrs
            assert span.start <= span.end <= _HORIZON

    def test_no_spans_left_open(self, replayed):
        observer, _, __ = replayed
        assert_spans_emitted_once(observer, _HORIZON)

    def test_span_times_are_ordered_within_each_span(self, replayed):
        observer, _, __ = replayed
        for span in observer.memory_sink().spans_of("query"):
            times = [e.time for e in span.events]
            assert times == sorted(times)
            assert times[0] == span.start


class TestMetricsAgreeWithReplay:
    def test_completed_count_matches_sla_records(self, replayed):
        observer, _, report = replayed
        completed = sum(observer.queries_completed.snapshot().values())
        assert completed == len(report.sla.records)

    def test_violations_match_sla_report(self, replayed):
        observer, _, report = replayed
        violations = sum(observer.sla_violations.snapshot().values())
        assert violations == len(report.sla.violations())
        violate_spans = [
            s for s in observer.memory_sink().spans_of("query") if s.status == "violate"
        ]
        assert len(violate_spans) == violations

    def test_routing_outcomes_cover_every_submission(self, replayed):
        observer, _, __ = replayed
        decisions = sum(observer.routing_decisions.snapshot().values())
        submitted = sum(observer.queries_submitted.snapshot().values())
        assert decisions == submitted

    def test_rt_ttp_gauge_sampled(self, replayed):
        observer, _, __ = replayed
        assert observer.memory_sink().metric_samples("thrifty_rt_ttp")

    def test_engine_metrics_emitted_per_instance(self, replayed):
        observer, _, __ = replayed
        totals = observer.engine_queries.snapshot()
        assert totals, "instrumented engines must report admissions"
        # Labels carry the instance name, and no engine admits more than
        # the replay submitted overall.
        for key in totals:
            assert dict(key).keys() == {"instance"}
        submitted = sum(observer.queries_submitted.snapshot().values())
        assert 0 < sum(totals.values()) <= submitted


class TestDeterminism:
    def test_two_identical_replays_export_identically(self, tmp_path):
        def run(out):
            config = tiny_config(num_tenants=12, seed=3)
            library = SessionLogGenerator(config, sessions_per_size=2).generate()
            workload = MultiTenantLogComposer(config, library).compose()
            observer = Observer(MemorySink())
            service = ThriftyService(config, scaling="disabled", observer=observer)
            service.deploy(workload)
            service.replay(until=2 * HOUR)
            return write_run_report(tmp_path / out, observer, horizon=2 * HOUR)

        a, b = run("a"), run("b")
        assert a.metrics.read_text() == b.metrics.read_text()
        assert a.spans.read_text() == b.spans.read_text()
        assert a.summary.read_text() == b.summary.read_text()

    def test_null_observer_replay_unaffected(self):
        def run(observer):
            config = tiny_config(num_tenants=12, seed=3)
            library = SessionLogGenerator(config, sessions_per_size=2).generate()
            workload = MultiTenantLogComposer(config, library).compose()
            service = ThriftyService(config, scaling="disabled", observer=observer)
            service.deploy(workload)
            report = service.replay(until=2 * HOUR)
            return (len(report.sla.records), report.sla.fraction_met)

        assert run(None) == run(Observer(MemorySink()))
