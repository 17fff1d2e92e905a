"""The streaming submission cursor against the up-front schedule it replaced.

Each tenant of a replay has one pending ``query-submit`` event, and each
record is built when its predecessor is submitted.  The events still take
the sequence numbers an up-front schedule would have given them, so every
``(time, sequence)`` tie resolves as before: these tests put submits
exactly on monitor ticks, engine completions and other groups' submits
and compare everything the replay emits with ``schedule_oracle``'s.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cluster.failures import FailureInjector
from repro.core.runtime import GroupRuntime
from repro.core.service import ThriftyService
from repro.errors import DeploymentError
from repro.mppdb.provisioning import Provisioner
from repro.obs import MemorySink, Observer
from repro.rng import RngFactory
from repro.simulation.engine import Simulator
from repro.units import DAY
from repro.workload.composer import ComposedWorkload, MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator
from repro.workload.logs import QueryRecord, TenantLog
from repro.workload.tenant import TenantSpec
from tests.conftest import tiny_config
from tests.core.schedule_oracle import schedule_up_front
from tests.core.test_runtime import _deploy_group, _q1_latency
from tests.test_chaos_integration import _kill_first_busy_instance

INTERVAL_S = 600.0


class _RecordingSimulator(Simulator):
    """A simulator that logs every fired event's time and label."""

    def __init__(self) -> None:
        super().__init__()
        self.fired: list[tuple[float, str]] = []
        self.enable_event_accounting()

    def _fire(self, event):
        self.fired.append((event.time, event.label))
        super()._fire(event)


def _tenants(first_id):
    return tuple(
        TenantSpec(tenant_id=i, nodes_requested=2, data_gb=200.0)
        for i in range(first_id, first_id + 3)
    )


def _records(times, template="tpch.q1", user=0):
    return [
        QueryRecord(submit_time_s=t, latency_s=_q1_latency(2), template=template, user=user)
        for t in times
    ]


def _completion_instant():
    """When a lone Q1 submitted at 100 s finishes on a crafted group's instance."""
    sim = Simulator()
    provisioner = Provisioner(sim)
    tenants = _tenants(1)
    deployed = _deploy_group(provisioner, "tg0", tenants, 3)
    logs = {t.tenant_id: TenantLog(t, _records([100.0] if t.tenant_id == 1 else [])) for t in tenants}
    finished = []
    for instance in deployed.instances:
        instance.engine.on_complete(lambda q: finished.append(q.finish_time))
    GroupRuntime(deployed, logs, sim, provisioner, sla_fraction=0.999).run(until=DAY)
    (instant,) = finished
    return instant


def _crafted_replay(schedule, tmp: Path):
    """Two groups on one simulator whose submits tie with ticks, completions and each other."""
    done = _completion_instant()
    assert done != 100.0
    tick = INTERVAL_S
    sim = _RecordingSimulator()
    provisioner = Provisioner(sim)
    sink = MemorySink()
    observer = Observer(sink)
    plans = {
        # tenant 1's query completes at ``done``; tenant 2 submits then.
        # Tenant 3 submits three queries at one instant, where the user and
        # template decide their order, on the first tick of both groups.
        "tg0": {
            1: _records([100.0, tick]),
            2: _records([done, done, 2 * tick]),
            3: _records([tick], "tpch.q6", user=1)
            + _records([tick], "tpch.q1", user=1)
            + _records([tick], "tpch.q3", user=0),
        },
        # The other group submits at the same instants as the first;
        # tenant 6's one query falls on the horizon, so it never runs.
        "tg1": {
            4: _records([done, tick]),
            5: _records([tick, tick]),
            6: _records([3 * tick + 1.0]),
        },
    }
    reports = []
    runtimes = []
    for name, first in (("tg0", 1), ("tg1", 4)):
        tenants = _tenants(first)
        deployed = _deploy_group(provisioner, name, tenants, 3)
        logs = {t.tenant_id: TenantLog(t, plans[name][t.tenant_id]) for t in tenants}
        runtime = GroupRuntime(
            deployed,
            logs,
            sim,
            provisioner,
            sla_fraction=0.999,
            monitor_interval_s=INTERVAL_S,
            observer=observer,
        )
        schedule(runtime, 3 * tick + 1.0)
        runtimes.append(runtime)
    sim.run(until=4 * tick)
    for runtime in runtimes:
        runtime.finalize_observation(sim.now)
        reports.append(runtime.report())
    return _outputs(reports, sink, sim, tmp)


def _outputs(reports, sink, sim, tmp: Path):
    spans = sink.write_spans_jsonl(tmp / "spans.jsonl").read_bytes()
    return {
        "sla": [r.sla.records for r in reports],
        "rt_ttp": [r.rt_ttp_samples for r in reports],
        "submitted": [r.queries_submitted for r in reports],
        "spans": spans,
        "event_counts": sim.event_counts,
        "fired": getattr(sim, "fired", None),
    }


class TestCraftedTies:
    def test_matches_the_up_front_schedule(self, tmp_path):
        cursor = _crafted_replay(GroupRuntime.schedule, tmp_path / "cursor")
        oracle = _crafted_replay(schedule_up_front, tmp_path / "oracle")
        assert cursor == oracle
        fired = cursor["fired"]
        # The ties are really there: a submit on a tick, on a completion,
        # and on another group's submit.
        done = _completion_instant()
        at_done = [label for time, label in fired if time == done]
        assert "engine-completion" in at_done and at_done.count("query-submit") == 3
        at_tick = [label for time, label in fired if time == INTERVAL_S]
        assert at_tick.count("monitor-tick") == 2 and at_tick.count("query-submit") == 7
        assert cursor["submitted"] == [8, 4]

    def test_one_pending_submit_per_tenant(self):
        sim = Simulator()
        provisioner = Provisioner(sim)
        tenants = _tenants(1)
        deployed = _deploy_group(provisioner, "tg0", tenants, 3)
        logs = {t.tenant_id: TenantLog(t, _records([10.0 * k for k in range(1, 50)])) for t in tenants}
        runtime = GroupRuntime(deployed, logs, sim, provisioner, sla_fraction=0.999)
        assert runtime.schedule(until=DAY) == 3 * 49
        # Three cursors and the first monitor tick.
        assert sim.pending == 4


def _seeded_service(tmp: Path, oracle: bool, monkeypatch):
    """The golden failover replay, scheduled by the cursor or by the oracle."""
    if oracle:
        monkeypatch.setattr(ComposedWorkload, "lazy_log", ComposedWorkload.tenant_log)
        monkeypatch.setattr(GroupRuntime, "schedule", schedule_up_front)
    config = tiny_config(num_tenants=24, seed=13)
    library = SessionLogGenerator(config, sessions_per_size=3).generate()
    workload = MultiTenantLogComposer(config, library).compose()
    sink = MemorySink()
    service = ThriftyService(config, observer=Observer(sink))
    service.deploy(workload)
    injector = FailureInjector(
        service.pool, service.simulator, 1e12, RngFactory(5).stream("chaos", "kill")
    )
    service.health.watch(injector)
    _kill_first_busy_instance(service, injector, {})
    report = service.replay(until=1 * DAY)
    reports = [report.group_reports[name] for name in sorted(report.group_reports)]
    monkeypatch.undo()
    return _outputs(reports, sink, service.simulator, tmp)


def test_seeded_service_replay_matches_the_oracle(tmp_path, monkeypatch):
    cursor = _seeded_service(tmp_path / "cursor", False, monkeypatch)
    oracle = _seeded_service(tmp_path / "oracle", True, monkeypatch)
    assert sum(cursor["submitted"]) > 1000
    assert cursor == oracle


class TestBoundedState:
    def test_heap_holds_at_most_one_submit_per_tenant(self, monkeypatch):
        def refuse(self, tenant_id):
            raise AssertionError("the replay must not materialize a tenant log")

        monkeypatch.setattr(ComposedWorkload, "tenant_log", refuse)
        config = tiny_config(num_tenants=24, seed=13)
        library = SessionLogGenerator(config, sessions_per_size=3).generate()
        workload = MultiTenantLogComposer(config, library).compose()
        service = ThriftyService(config)
        advice = service.deploy(workload)
        tenants = sum(len(group.tenants) for group in advice.plan)
        samples = []
        periodic_check = GroupRuntime._periodic_check

        def sampled(runtime, time):
            cursors = [
                entry.event.callback.__self__
                for entry in service.simulator._queue._heap
                if not entry.cancelled and entry.event.label == "query-submit"
            ]
            assert len(set(map(id, cursors))) == len(cursors)
            samples.append(len(cursors))
            periodic_check(runtime, time)

        monkeypatch.setattr(GroupRuntime, "_periodic_check", sampled)
        report = service.replay(until=2 * DAY)
        assert len(report.sla) > 1000
        assert samples and max(samples) <= tenants
        assert max(samples) > 0

    def test_replay_retains_no_executions(self):
        config = tiny_config(num_tenants=12, seed=13)
        library = SessionLogGenerator(config, sessions_per_size=3).generate()
        workload = MultiTenantLogComposer(config, library).compose()
        service = ThriftyService(config)
        service.deploy(workload)
        report = service.replay(until=DAY)
        assert len(report.sla) > 0
        assert sum(len(i.engine.completed) for i in service.provisioner.instances) == 0


class TestRejectedReplay:
    @pytest.fixture
    def service(self):
        config = tiny_config(num_tenants=12, seed=13)
        library = SessionLogGenerator(config, sessions_per_size=3).generate()
        workload = MultiTenantLogComposer(config, library).compose()
        service = ThriftyService(config)
        service.deploy(workload)
        return service

    @pytest.mark.parametrize(
        "names, message",
        [
            (["tg0", "nope"], "not deployed"),
            (["tg0", "tg0"], "listed twice"),
        ],
    )
    def test_rejected_call_schedules_nothing(self, service, names, message):
        assert "tg0" in service.master.deployed_groups()
        pending = service.simulator.pending
        with pytest.raises(DeploymentError, match=message):
            service.replay(until=DAY, group_names=names)
        assert service.simulator.pending == pending
        report = service.replay(until=DAY, group_names=["tg0"])
        assert report.group_reports["tg0"].queries_submitted > 0

    def test_already_replayed_group_rejected_before_others_are_scheduled(self, service):
        service.replay(until=DAY, group_names=["tg0"])
        others = sorted(set(service.master.deployed_groups()) - {"tg0"})
        pending = service.simulator.pending
        with pytest.raises(DeploymentError, match="already replayed"):
            service.replay(until=2 * DAY, group_names=[*others, "tg0"])
        assert service.simulator.pending == pending
