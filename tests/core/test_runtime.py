"""Group runtime replay tests: routing, SLA accounting, Guarantee 1."""

import pytest

from repro.core.deployment import GroupDeployment
from repro.core.master import DeployedGroup
from repro.core.runtime import GroupRuntime
from repro.core.scaling import LightweightScaling
from repro.core.tdd import design_for_group
from repro.errors import DeploymentError
from repro.mppdb.provisioning import Provisioner
from repro.obs import MemorySink, Observer
from repro.simulation.engine import Simulator
from repro.workload.logs import QueryRecord, TenantLog
from repro.workload.queries import template_by_name
from repro.workload.tenant import TenantSpec


def _deploy_group(provisioner, name, tenants, num_instances, tuning_parallelism=None):
    design, placement = design_for_group(
        name, tenants, num_instances=num_instances, tuning_parallelism=tuning_parallelism
    )
    instances = tuple(
        provisioner.provision(
            parallelism=design.instance_parallelism(i),
            tenants=[t.as_tenant_data() for t in tenants],
            name=instance_name,
            instant=True,
        )
        for i, instance_name in enumerate(design.instance_names())
    )
    return DeployedGroup(
        deployment=GroupDeployment(design=design, placement=placement, tenants=tenants),
        instances=instances,
    )


def _deploy(num_tenants=4, nodes=2, num_instances=3, tuning_parallelism=None, data_gb=None):
    sim = Simulator()
    provisioner = Provisioner(sim)
    tenants = tuple(
        TenantSpec(
            tenant_id=i,
            nodes_requested=nodes,
            data_gb=nodes * 100.0 if data_gb is None else data_gb,
        )
        for i in range(1, num_tenants + 1)
    )
    deployed = _deploy_group(provisioner, "tg0", tenants, num_instances, tuning_parallelism)
    return sim, provisioner, deployed, tenants


def _q1_latency(nodes):
    return template_by_name("tpch.q1").dedicated_latency_s(nodes * 100.0, nodes)


def _log(spec, submits):
    baseline = _q1_latency(spec.nodes_requested)
    records = [
        QueryRecord(submit_time_s=t, latency_s=baseline, template="tpch.q1")
        for t in submits
    ]
    return TenantLog(spec, records)


class TestReplayBasics:
    def test_isolated_tenant_meets_sla_exactly(self):
        sim, provisioner, deployed, tenants = _deploy()
        logs = {
            t.tenant_id: _log(t, [100.0 * t.tenant_id] if t.tenant_id == 1 else [])
            for t in tenants
        }
        runtime = GroupRuntime(deployed, logs, sim, provisioner, sla_fraction=0.999)
        report = runtime.run(until=10_000.0)
        assert report.queries_submitted == 1
        assert report.queries_completed == 1
        assert report.sla.fraction_met == 1.0
        assert report.sla.records[0].normalized == pytest.approx(1.0)

    def test_up_to_a_tenants_meet_sla(self):
        # Guarantee 1: with A = 3 instances, three concurrently active
        # tenants each get a dedicated MPPDB and meet their SLA.
        sim, provisioner, deployed, tenants = _deploy(num_tenants=3)
        logs = {t.tenant_id: _log(t, [100.0]) for t in tenants}
        runtime = GroupRuntime(deployed, logs, sim, provisioner, sla_fraction=0.999)
        report = runtime.run(until=10_000.0)
        assert report.queries_completed == 3
        assert report.sla.fraction_met == 1.0
        assert report.overflow_queries == 0

    def test_fourth_tenant_overflows_and_violates(self):
        # A fourth concurrent tenant lands on MPPDB_0 and both tenants
        # there slow down (the §7.5 50 %/80 % delay scenario).
        sim, provisioner, deployed, tenants = _deploy(num_tenants=4)
        logs = {t.tenant_id: _log(t, [100.0]) for t in tenants}
        runtime = GroupRuntime(deployed, logs, sim, provisioner, sla_fraction=0.999)
        report = runtime.run(until=100_000.0)
        assert report.queries_completed == 4
        assert report.overflow_queries == 1
        violations = report.sla.violations()
        assert len(violations) == 2  # the overflow query and its victim
        for violation in violations:
            assert violation.normalized == pytest.approx(2.0)

    def test_oversized_tuning_instance_absorbs_overflow(self):
        # Chapter 6: with U = 2 n, two concurrent linear queries on
        # MPPDB_0 still meet the SLA (point C of Figure 1.1b).
        sim, provisioner, deployed, tenants = _deploy(
            num_tenants=4, nodes=2, tuning_parallelism=4
        )
        logs = {t.tenant_id: _log(t, [100.0]) for t in tenants}
        runtime = GroupRuntime(deployed, logs, sim, provisioner, sla_fraction=0.999)
        report = runtime.run(until=100_000.0)
        assert report.overflow_queries == 1
        assert report.sla.fraction_met == 1.0

    def test_sequential_tenants_all_meet_sla(self):
        # The first consolidation opportunity: non-overlapping tenants
        # never interfere (xT-SEQ in Figure 1.1a).
        sim, provisioner, deployed, tenants = _deploy(num_tenants=4)
        logs = {
            t.tenant_id: _log(t, [t.tenant_id * 1000.0]) for t in tenants
        }
        runtime = GroupRuntime(deployed, logs, sim, provisioner, sla_fraction=0.999)
        report = runtime.run(until=100_000.0)
        assert report.sla.fraction_met == 1.0
        assert report.overflow_queries == 0

    def test_open_loop_does_not_defer(self):
        # A tenant's second query is submitted at its logged time even
        # though the first is still running.
        sim, provisioner, deployed, tenants = _deploy(num_tenants=4)
        q = _q1_latency(2)
        chain = [
            QueryRecord(submit_time_s=100.0, latency_s=q, template="tpch.q1"),
            QueryRecord(submit_time_s=100.0 + q / 2, latency_s=q, template="tpch.q1"),
        ]
        logs = {
            spec.tenant_id: TenantLog(spec, chain if spec.tenant_id == 1 else [])
            for spec in tenants
        }
        runtime = GroupRuntime(deployed, logs, sim, provisioner, sla_fraction=0.999)
        report = runtime.run(until=100_000.0)
        # Both run concurrently on the same instance (tenant affinity) and
        # interfere with each other.
        assert any(r.normalized > 1.0 for r in report.sla.records)


class TestMonitoringDuringReplay:
    def test_rt_ttp_sampled(self):
        sim, provisioner, deployed, tenants = _deploy()
        logs = {t.tenant_id: _log(t, [10.0]) for t in tenants}
        runtime = GroupRuntime(
            deployed, logs, sim, provisioner, sla_fraction=0.999, monitor_interval_s=100.0
        )
        report = runtime.run(until=1000.0)
        assert len(report.rt_ttp_samples) == 10
        assert all(0.0 <= v <= 1.0 for __, v in report.rt_ttp_samples)

    def test_monitor_tracks_activity(self):
        sim, provisioner, deployed, tenants = _deploy(num_tenants=2)
        logs = {t.tenant_id: _log(t, [0.0]) for t in tenants}
        runtime = GroupRuntime(deployed, logs, sim, provisioner, sla_fraction=0.999)
        runtime.run(until=10_000.0)
        assert max(value for _, value in runtime.monitor.concurrency.changes()) == 2


class TestElasticScalingDuringReplay:
    def test_over_active_tenant_isolated(self):
        sim, provisioner, deployed, tenants = _deploy(num_tenants=5)
        q1 = _q1_latency(2)
        # Tenant 1 hammers the system; tenants 2-4 are periodically active
        # together, producing sustained 4-concurrent overlap.
        logs = {}
        for t in tenants:
            if t.tenant_id == 5:
                submits = []
            elif t.tenant_id == 1:
                submits = [i * (q1 + 1.0) for i in range(800)]
            else:
                submits = [i * 40.0 for i in range(400)]
            logs[t.tenant_id] = _log(t, submits)
        scaling = LightweightScaling(window_s=3600.0, identification_epoch_s=5.0)
        runtime = GroupRuntime(
            deployed,
            logs,
            sim,
            provisioner,
            sla_fraction=0.999,
            scaling=scaling,
            monitor_interval_s=300.0,
        )
        report = runtime.run(until=40_000.0)
        assert len(report.scaling_actions) >= 1
        action = report.scaling_actions[0]
        assert action.kind == "lightweight"
        # The busiest tenant is the one isolated.
        assert 1 in action.over_active


class TestZeroWorkQuery:
    """A query with no work completes inside ``submit_query`` itself."""

    def _replay(self, submits):
        # No data means no work: the engine finishes the query on admission.
        sim, provisioner, deployed, tenants = _deploy(data_gb=0.0)
        logs = {t.tenant_id: _log(t, submits if t.tenant_id == 1 else []) for t in tenants}
        sink = MemorySink()
        runtime = GroupRuntime(
            deployed,
            logs,
            sim,
            provisioner,
            sla_fraction=0.999,
            observer=Observer(sink),
        )
        return runtime.run(until=1000.0), runtime, sink

    def test_settles_one_sla_record_and_a_complete_span(self):
        report, runtime, sink = self._replay([100.0])
        (record,) = report.sla.records
        assert record.observed_latency_s == 0.0
        assert record.submit_time_s == 100.0
        assert report.queries_submitted == report.queries_completed == 1
        assert not runtime._live and not runtime._inflight
        (span,) = sink.spans_of("query")
        assert span.status == "complete"
        assert [e.name for e in span.events][-1] == "complete"
        assert span.start == span.end == 100.0


class TestParkDrain:
    """A group drains its park queue only when one of its own instances recovers."""

    class _Health:
        """Stands in for the health manager: fires recoveries on demand."""

        def __init__(self):
            self.handlers = []

        def on_recover(self, handler):
            self.handlers.append(handler)

        def recover(self, instance, time):
            for handler in self.handlers:
                handler(instance, time)

    def test_other_groups_recovery_leaves_parked_queries_alone(self):
        sim = Simulator()
        provisioner = Provisioner(sim)
        health = self._Health()
        spec_a = TenantSpec(tenant_id=1, nodes_requested=2, data_gb=200.0)
        spec_b = TenantSpec(tenant_id=2, nodes_requested=2, data_gb=200.0)
        group_a = _deploy_group(provisioner, "ga", (spec_a,), num_instances=1)
        group_b = _deploy_group(provisioner, "gb", (spec_b,), num_instances=1)
        runtime_a = GroupRuntime(
            group_a, {1: _log(spec_a, [])}, sim, provisioner, sla_fraction=0.999, health=health
        )
        sink = MemorySink()
        runtime_b = GroupRuntime(
            group_b,
            {2: _log(spec_b, [100.0, 200.0])},
            sim,
            provisioner,
            sla_fraction=0.999,
            observer=Observer(sink),
            health=health,
        )
        # Group B's only replica is down, so both of its queries park.
        group_b.instances[0].mark_down()
        routed = []
        route = runtime_b.router.route

        def counting_route(tenant_id):
            routed.append(tenant_id)
            return route(tenant_id)

        runtime_b.router.route = counting_route
        sim.schedule(300.0, lambda t: health.recover(group_a.instances[0], t))
        runtime_a.schedule(until=400.0)
        runtime_b.run(until=400.0)
        # Group A's recovery re-routes none of B's parked queries: B's
        # router ran once per submission, and each span parked once.
        assert routed == [2, 2]
        assert len(runtime_b._parked) == 2
        spans = sink.spans_of("query")
        assert len(spans) == 2
        for span in spans:
            assert [e.name for e in span.events].count("park") == 1


class TestValidation:
    def test_missing_logs_rejected(self):
        sim, provisioner, deployed, tenants = _deploy()
        with pytest.raises(DeploymentError):
            GroupRuntime(deployed, {}, sim, provisioner, sla_fraction=0.999)

    def test_double_schedule_rejected(self):
        sim, provisioner, deployed, tenants = _deploy()
        logs = {t.tenant_id: _log(t, []) for t in tenants}
        runtime = GroupRuntime(deployed, logs, sim, provisioner, sla_fraction=0.999)
        runtime.schedule(until=100.0)
        with pytest.raises(DeploymentError):
            runtime.schedule(until=100.0)

    def test_bad_sla_fraction_rejected(self):
        sim, provisioner, deployed, tenants = _deploy()
        logs = {t.tenant_id: _log(t, []) for t in tenants}
        with pytest.raises(DeploymentError):
            GroupRuntime(deployed, logs, sim, provisioner, sla_fraction=0.0)
