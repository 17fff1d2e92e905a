"""Golden pins for the run-time replay layer.

Small seeded replays exercise every per-query path of
:class:`~repro.core.runtime.GroupRuntime`: abort -> retry -> failover on a
replicated deployment, park -> deadline failure on a single-replica one,
and a direct :meth:`~repro.core.runtime.GroupRuntime.run` of one planned
group that ends with queries still running, once under each scaling
policy that acts (lightweight, proactive, whole-group).  Each replay's observable outcome — SLA
records, fault records, RT-TTP samples, scaling actions, and the bytes of
a :class:`~repro.obs.MemorySink`'s ``spans.jsonl`` and ``summary.json`` —
is hashed and compared against a constant.  A refactor of the runtime
must leave every digest unchanged; if one moves, the behaviour moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.failures import FailureInjector
from repro.core.advisor import DeploymentAdvisor
from repro.core.fault import RetryPolicy
from repro.core.master import DeploymentMaster
from repro.core.runtime import GroupRuntime, RuntimeReport
from repro.core.scaling import LightweightScaling, ProactiveScaling, WholeGroupScaling
from repro.core.service import ThriftyService
from repro.mppdb.provisioning import Provisioner
from repro.obs import MemorySink, Observer, build_summary
from repro.rng import RngFactory
from repro.simulation.engine import Simulator
from repro.units import DAY
from repro.workload.composer import MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator
from tests.conftest import tiny_config
from tests.test_chaos_integration import _kill_first_busy_instance

#: sha256 prefixes of each replay's pinned outputs (see ``_digests``).
GOLDEN = {
    "failover": {
        "counts": "384e9c407b437192",
        "faults": "f865256c77f3fc9f",
        "rt_ttp": "a4242a29268d0afd",
        "scaling": "f865256c77f3fc9f",
        "sla": "e388065043cc6a24",
        "spans.jsonl": "e3e3575b4f103a6c",
        "summary.json": "67fd0c1c15765943",
    },
    "parked": {
        "counts": "71cc85079bfb55b4",
        "faults": "bc10c40867c1ad00",
        "rt_ttp": "68e64798565af2b5",
        "scaling": "bf6a55b6fbeccb23",
        "sla": "25caf6eb95094b17",
        "spans.jsonl": "87b79e163e4de350",
        "summary.json": "6708b70ca8890ad4",
    },
    "open_loop_run": {
        "counts": "35412a36e4993b54",
        "faults": "cf1cbb66a638b486",
        "rt_ttp": "5a52a9394403a44d",
        "scaling": "87148bbfc1c9db25",
        "sla": "85d2e3ef53a126fc",
        "spans.jsonl": "cd3fd28c13f0b4bd",
        "summary.json": "84774abbac618872",
    },
    "proactive": {
        "counts": "07bbba3d81820da3",
        "faults": "cf1cbb66a638b486",
        "rt_ttp": "e93c1276ae4869f8",
        "scaling": "f9afe5085598e162",
        "sla": "b1c1f77180c19922",
        "spans.jsonl": "a4da09ded12b1a7c",
        "summary.json": "e1c63e54ce8521d6",
    },
    "whole-group": {
        "counts": "35412a36e4993b54",
        "faults": "cf1cbb66a638b486",
        "rt_ttp": "5a52a9394403a44d",
        "scaling": "cbfef9b5ea5192c6",
        "sla": "85d2e3ef53a126fc",
        "spans.jsonl": "f247739f938b70ae",
        "summary.json": "77fba1b110d4aac6",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _digests(
    reports: list[RuntimeReport], sink: MemorySink, simulator: Simulator, horizon: float, tmp: Path
) -> dict[str, str]:
    """Hash what the replay produced, one digest per output kind."""
    spans = sink.write_spans_jsonl(tmp / "spans.jsonl").read_text(encoding="utf-8")
    summary = build_summary(
        sink, horizon=horizon, simulator_events=simulator.event_counts
    )
    return {
        "sla": _sha(repr([r.sla.records for r in reports])),
        "faults": _sha(repr([r.fault_records for r in reports])),
        "rt_ttp": _sha(repr([r.rt_ttp_samples for r in reports])),
        "scaling": _sha(repr([r.scaling_actions for r in reports])),
        "counts": _sha(
            repr(
                [
                    (
                        r.group_name,
                        r.queries_submitted,
                        r.queries_completed,
                        r.overflow_queries,
                        r.queries_retried,
                        r.queries_failed,
                        r.failovers,
                    )
                    for r in reports
                ]
            )
        ),
        "spans.jsonl": _sha(spans),
        "summary.json": _sha(json.dumps(summary, indent=2, sort_keys=True) + "\n"),
    }


def _service_replay(config, fault=None):
    """A node of the first busy instance dies mid-query one hour in."""
    library = SessionLogGenerator(config, sessions_per_size=3).generate()
    workload = MultiTenantLogComposer(config, library).compose()
    sink = MemorySink()
    service = ThriftyService(config, observer=Observer(sink), fault=fault)
    service.deploy(workload)
    injector = FailureInjector(
        service.pool, service.simulator, 1e12, RngFactory(5).stream("chaos", "kill")
    )
    service.health.watch(injector)
    killed: dict[str, object] = {}
    _kill_first_busy_instance(service, injector, killed)
    report = service.replay(until=1 * DAY)
    assert "instance" in killed
    reports = [report.group_reports[name] for name in sorted(report.group_reports)]
    return reports, sink, service.simulator


#: The scaling policy each open-loop case replays its group under.
_OPEN_LOOP_POLICIES = {
    "open_loop_run": LightweightScaling,
    "proactive": ProactiveScaling,
    "whole-group": WholeGroupScaling,
}


def _open_loop_run(name: str):
    """One planned group replayed by ``GroupRuntime.run`` itself.

    The horizon falls 1 s after the last logged query longer than 5 s
    that is submitted within two days, so the run ends with queries
    still in flight.
    """
    config = tiny_config(num_tenants=24, seed=13)
    library = SessionLogGenerator(config, sessions_per_size=3).generate()
    workload = MultiTenantLogComposer(config, library).compose()
    plan = DeploymentAdvisor(config).plan_from_workload(workload).plan
    group = max(plan.groups, key=lambda g: (len(g.tenants), g.group_name))
    sim = Simulator()
    provisioner = Provisioner(sim)
    deployed = DeploymentMaster(provisioner).deploy_group(group, instant=True)
    logs = {t: workload.tenant_log(t) for t in group.placement.tenant_ids}
    horizon = 1.0 + max(
        r.submit_time_s
        for log in logs.values()
        for r in log.records
        if r.latency_s > 5.0 and r.submit_time_s < 2 * DAY
    )
    sink = MemorySink()
    runtime = GroupRuntime(
        deployed,
        logs,
        sim,
        provisioner,
        sla_fraction=config.sla_fraction,
        scaling=_OPEN_LOOP_POLICIES[name](identification_epoch_s=10.0),
        observer=Observer(sink),
    )
    report = runtime.run(until=horizon)
    return ([report], sink, sim), horizon


def _run(name: str):
    if name == "failover":
        return _service_replay(tiny_config(num_tenants=24, seed=13)), 1 * DAY
    if name == "parked":
        config = tiny_config(num_tenants=24, seed=13, replication_factor=1)
        return _service_replay(config, fault=RetryPolicy(queue_deadline_s=600.0)), 1 * DAY
    return _open_loop_run(name)


def _reaches_its_path(name: str, reports: list[RuntimeReport], sink: MemorySink) -> bool:
    """Whether the replay really exercised the path it is there to pin."""
    if name == "failover":
        return sum(r.failovers for r in reports) >= 1
    if name == "parked":
        return any(r.fault_records for r in reports)
    statuses = {span.status for span in sink.spans_of("query")}
    scaled = any(r.scaling_actions for r in reports)
    return "complete" in statuses and "inflight" in statuses and scaled


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_runtime_outputs_are_pinned(name, tmp_path):
    (reports, sink, simulator), horizon = _run(name)
    assert _reaches_its_path(name, reports, sink)
    assert _digests(reports, sink, simulator, horizon, tmp_path) == GOLDEN[name]
