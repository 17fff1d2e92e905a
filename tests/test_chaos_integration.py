"""End-to-end fault-tolerance: chaos replay, failover, graceful degradation.

The deterministic scenarios pin the ISSUE acceptance criteria: with
replication factor >= 2 a node failure mid-replay degrades the instance,
in-flight queries fail over to a surviving replica, a replacement node is
provisioned, and the books balance; with a single replica the group
degrades gracefully into typed deadline failures instead of crashing.
"""

import pytest

from repro.cluster.failures import FailureInjector
from repro.core.fault import REASON_DEADLINE_EXCEEDED, RetryPolicy
from repro.core.service import ThriftyService
from repro.errors import DeploymentError
from repro.obs import MemorySink, Observer
from repro.rng import RngFactory
from repro.units import DAY, HOUR
from repro.workload.composer import MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator
from tests.conftest import (
    assert_counters_match_books,
    assert_spans_emitted_once,
    tiny_config,
)


def _build_service(config, **service_kwargs):
    library = SessionLogGenerator(config, sessions_per_size=3).generate()
    workload = MultiTenantLogComposer(config, library).compose()
    service = ThriftyService(config, **service_kwargs)
    service.deploy(workload)
    return workload, service


def _kill_first_busy_instance(service, injector, killed, probe_interval_s=60.0):
    """Schedule a probe that fails a node of the first busy instance seen.

    Random chaos rarely catches an in-flight query at test scale, so the
    abort -> retry -> failover path is exercised by timing the failure
    deterministically against a busy execution engine.
    """

    def _probe(time):
        for instance in service.provisioner.live_instances():
            if instance.is_ready and instance.engine.concurrency > 0 and instance.node_ids:
                killed["instance"] = instance.name
                killed["time"] = time
                injector.inject_now(instance.node_ids[0])
                return
        service.simulator.schedule(time + probe_interval_s, _probe, label="kill-probe")

    service.simulator.schedule(1 * HOUR, _probe, label="kill-probe")


def _books_balance(service, report):
    """submitted == completed + failed + still-parked + still-inflight.

    Blind to queries waiting out a retry backoff (neither parked nor in
    flight); ``test_books_balance_inside_a_retry_backoff`` covers those.
    """
    for name, group_report in report.group_reports.items():
        runtime = service._runtimes[name]
        assert group_report.queries_submitted == (
            group_report.queries_completed
            + group_report.queries_failed
            + len(runtime._parked)
            + len(runtime._inflight)
        ), f"group {name} books do not balance"


def _failover_replay(until, observer=None):
    """Replicated deployment with a node failure injected mid-query."""
    config = tiny_config(num_tenants=24, seed=13)
    assert config.replication_factor >= 2
    __, service = _build_service(config, observer=observer)
    injector = FailureInjector(
        service.pool, service.simulator, 1e12, RngFactory(5).stream("chaos", "kill")
    )
    service.health.watch(injector)
    killed = {}
    _kill_first_busy_instance(service, injector, killed)
    report = service.replay(until=until)
    return service, report, killed


@pytest.fixture(scope="module")
def failover_run():
    return _failover_replay(1 * DAY)


class TestFailover:
    def test_failure_hit_a_busy_instance(self, failover_run):
        service, __, killed = failover_run
        assert "instance" in killed
        assert service.health.node_failures_handled >= 1

    def test_aborted_queries_retry_and_fail_over(self, failover_run):
        __, report, __ = failover_run
        assert sum(r.queries_retried for r in report.group_reports.values()) >= 1
        # The degraded instance is skipped by the router, so the retry
        # lands on a surviving replica of the same tenant group.
        assert sum(r.failovers for r in report.group_reports.values()) >= 1

    def test_replacement_provisioned_and_recovered(self, failover_run):
        service, __, killed = failover_run
        assert service.health.replacements_started >= 1
        assert service.health.replacements_completed >= 1
        instance = service.provisioner.get(killed["instance"])
        assert instance.is_ready
        assert instance.impaired_node_count == 0

    def test_every_query_is_accounted_for(self, failover_run):
        service, report, __ = failover_run
        _books_balance(service, report)
        # Nothing exhausted its retries: replication hid the failure.
        assert all(not r.fault_records for r in report.group_reports.values())

    def test_fault_counters_equal_the_books(self, failover_run):
        observer = Observer(MemorySink())
        __, report, __ = _failover_replay(1 * DAY, observer=observer)
        assert report.summary() == failover_run[1].summary()
        assert sum(observer.failovers.snapshot().values()) >= 1
        assert_counters_match_books(observer, report)

    def test_sla_survives_the_failure(self, failover_run):
        __, report, __ = failover_run
        assert report.sla.fraction_met > 0.9

    def test_books_balance_inside_a_retry_backoff(self, failover_run):
        # Stop the same replay half a second after the kill: the aborted
        # queries are waiting out their 1 s retry backoff, so they are
        # neither running nor parked — yet still live.
        __, __, killed = failover_run
        service, report, again = _failover_replay(killed["time"] + 0.5)
        assert again == killed
        retrying = [
            entry
            for entry in service.simulator._queue._heap
            if not entry.cancelled and entry.event.label == "query-retry"
        ]
        assert retrying
        waiting = 0
        for name, group_report in report.group_reports.items():
            runtime = service._runtimes[name]
            assert group_report.queries_submitted == (
                group_report.queries_completed
                + group_report.queries_failed
                + len(runtime._live)
            ), f"group {name} books do not balance"
            waiting += len(runtime._live) - len(runtime._parked) - len(runtime._inflight)
        assert waiting == len(retrying)


@pytest.fixture(scope="module")
def degraded_run():
    """Single-replica deployment: failure parks queries until a deadline."""
    config = tiny_config(num_tenants=24, seed=13, replication_factor=1)
    __, service = _build_service(
        config, fault=RetryPolicy(queue_deadline_s=600.0), observer=Observer(MemorySink())
    )
    injector = FailureInjector(
        service.pool, service.simulator, 1e12, RngFactory(5).stream("chaos", "kill")
    )
    service.health.watch(injector)
    killed = {}
    _kill_first_busy_instance(service, injector, killed)
    report = service.replay(until=1 * DAY)
    return service, report, killed


class TestGracefulDegradation:
    def test_queries_fail_typed_not_crash(self, degraded_run):
        __, report, killed = degraded_run
        assert "instance" in killed
        records = [
            record
            for r in report.group_reports.values()
            for record in r.fault_records
        ]
        # Node replacement takes hours; the 600 s queue deadline expires
        # first, so parked queries surface as typed deadline failures.
        assert records
        assert all(r.reason == REASON_DEADLINE_EXCEEDED for r in records)

    def test_failed_counter_equals_the_books(self, degraded_run):
        service, report, __ = degraded_run
        assert sum(service.observer.queries_failed.snapshot().values()) >= 1
        assert_counters_match_books(service.observer, report)

    def test_books_balance_under_degradation(self, degraded_run):
        service, report, __ = degraded_run
        _books_balance(service, report)
        assert sum(r.queries_failed for r in report.group_reports.values()) == len(
            [rec for r in report.group_reports.values() for rec in r.fault_records]
        )


class TestChaosHarness:
    def _chaos_run(self, mtbf_s=6 * HOUR, observer=None):
        config = tiny_config(num_tenants=12, seed=13)
        __, service = _build_service(config, observer=observer)
        scheduled = service.arm_chaos(mtbf_s, horizon=1 * DAY)
        report = service.replay(until=1 * DAY)
        return service, scheduled, report

    def test_chaos_replay_is_deterministic(self):
        first_service, first_scheduled, first_report = self._chaos_run()
        second_service, second_scheduled, second_report = self._chaos_run()
        assert first_scheduled == second_scheduled
        assert [
            (f.node_id, f.time) for f in first_service.chaos.failures
        ] == [(f.node_id, f.time) for f in second_service.chaos.failures]
        assert first_report.summary() == second_report.summary()

    def test_chaos_replay_completes_and_balances(self):
        service, scheduled, report = self._chaos_run()
        assert scheduled >= 1
        assert service.health.node_failures_handled >= 1
        _books_balance(service, report)

    def test_instrumented_chaos_replay_emits_every_span_once(self):
        observer = Observer(MemorySink())
        service, __, report = self._chaos_run(observer=observer)
        assert service.health.node_failures_handled >= 1
        sink = observer.memory_sink()
        assert sink.spans_of("fault")
        assert len(sink.spans_of("query")) == sum(
            group.queries_submitted for group in report.group_reports.values()
        )
        assert_spans_emitted_once(observer, 1 * DAY)

    def test_arm_twice_rejected(self):
        config = tiny_config(num_tenants=12, seed=13)
        __, service = _build_service(config)
        service.arm_chaos(6 * HOUR, horizon=1 * DAY)
        with pytest.raises(DeploymentError):
            service.arm_chaos(6 * HOUR, horizon=1 * DAY)
