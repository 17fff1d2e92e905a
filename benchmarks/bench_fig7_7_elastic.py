"""Figure 7.7 — lightweight elastic scaling in a tenant group.

Reproduces the §7.5 experiment: take one tenant group from the default
deployment, replay its composed logs, and *manually take over one tenant*
at time Y, submitting queries continuously on its behalf.  Without elastic
scaling (panels a/b) the group's RT-TTP sinks below P and queries keep
missing their SLA; with lightweight scaling enabled (panels c/d) Thrifty
identifies the over-active tenant, bulk loads only its data onto a fresh
MPPDB (hours, not the ~14.5 h a whole-group copy would take), pins the
tenant there, and the group's RT-TTP recovers.
"""

from __future__ import annotations

from conftest import run_once

from repro.analysis.report import ascii_series, format_table
from repro.core.advisor import DeploymentAdvisor
from repro.core.master import DeploymentMaster
from repro.core.runtime import GroupRuntime
from repro.core.scaling import DisabledScaling, LightweightScaling
from repro.analysis.sweeps import build_workload
from repro.mppdb.provisioning import Provisioner
from repro.obs import MemorySink, Observer
from repro.simulation.engine import Simulator
from repro.units import DAY, HOUR, MINUTE, format_duration
from repro.workload.logs import QueryRecord, TenantLog
from repro.workload.queries import template_by_name

_TAKEOVER_START = 6 * HOUR          # time Y
_HORIZON = 3 * DAY
_TAKEOVER_END = _HORIZON            # the takeover keeps submitting throughout
_TEMPLATE = "tpcds.q72"             # a heavy query keeps the tenant busy


def _pick_group(plan):
    """A mid-sized group of small tenants makes the excerpt readable.

    The paper's excerpt uses 14 tenants on 4-node MPPDBs; small
    parallelism also keeps the scale-up's bulk load (100 GB/node) within
    the excerpt so the recovery is visible.
    """
    candidates = sorted(
        plan.groups, key=lambda g: (g.design.parallelism, abs(len(g.tenants) - 14))
    )
    return candidates[0]


def _over_active_log(workload, tenant_id):
    """The taken-over tenant's log: continuous submissions from Y on."""
    spec = workload.tenant(tenant_id)
    template = template_by_name(_TEMPLATE)
    latency = template.dedicated_latency_s(spec.data_gb, spec.nodes_requested)
    original = workload.tenant_log(tenant_id)
    records = [r for r in original.records if r.submit_time_s < _TAKEOVER_START]
    t = _TAKEOVER_START
    while t < _TAKEOVER_END:
        records.append(QueryRecord(submit_time_s=t, latency_s=latency, template=_TEMPLATE))
        t += latency * 1.05 + 0.5  # near back-to-back: ~95 % busy
    return TenantLog(spec, records)


def _replay(workload, group, scaling_enabled: bool, observer=None):
    sim = Simulator()
    provisioner = Provisioner(sim)
    master = DeploymentMaster(provisioner)
    deployed = master.deploy_group(group, instant=True)
    over_tenant = group.placement.tenant_ids[0]
    logs = {}
    for tenant_id in group.placement.tenant_ids:
        if tenant_id == over_tenant:
            logs[tenant_id] = _over_active_log(workload, tenant_id)
        else:
            logs[tenant_id] = workload.tenant_log(tenant_id)
    # The history the tenants are held against: their *composed* (pre-
    # takeover) activity, as the Tenant Activity Monitor would have it.
    d = workload.num_epochs(10.0)
    history = {
        tenant_id: len(workload.activity_epochs(tenant_id, 10.0)) / d
        for tenant_id in group.placement.tenant_ids
    }
    scaling = (
        LightweightScaling(identification_epoch_s=10.0, historical_fraction=history)
        if scaling_enabled
        else DisabledScaling()
    )
    runtime = GroupRuntime(
        deployed,
        logs,
        sim,
        provisioner,
        sla_fraction=0.999,
        scaling=scaling,
        monitor_interval_s=5 * MINUTE,
        observer=observer,
    )
    report = runtime.run(until=_HORIZON)
    return report, over_tenant


def test_fig7_7_lightweight_elastic_scaling(benchmark, scale):
    config = scale.config()
    workload = build_workload(config, scale.sessions_per_size)
    advice = DeploymentAdvisor(config).plan_from_workload(workload)
    group = _pick_group(advice.plan)

    sink = MemorySink()

    def experiment():
        disabled = _replay(workload, group, scaling_enabled=False)
        enabled = _replay(workload, group, scaling_enabled=True, observer=Observer(sink))
        return disabled, enabled

    (disabled_report, over_tenant), (enabled_report, __) = run_once(benchmark, experiment)

    print()
    print(
        f"group {group.group_name}: {len(group.tenants)} tenants x "
        f"{group.design.parallelism}-node MPPDBs, A = {group.design.num_instances}; "
        f"tenant {over_tenant} taken over at Y = {format_duration(_TAKEOVER_START)}"
    )
    for label, report in (("disabled", disabled_report), ("enabled", enabled_report)):
        ttp = [v for __, v in report.rt_ttp_samples]
        print(ascii_series(ttp, label=f"(RT-TTP, scaling {label:8s})"))
        normalized = [r.normalized for r in sorted(report.sla.records, key=lambda r: r.submit_time_s)]
        print(ascii_series(normalized, label=f"(norm.lat, scaling {label:8s})"))

    actions = enabled_report.scaling_actions
    rows = [
        [
            round(a.time / HOUR, 2),
            a.kind,
            list(a.over_active),
            a.instance_name,
            round(a.loaded_gb),
            format_duration(a.expected_ready_time - a.time),
        ]
        for a in actions
    ]
    print(
        format_table(
            ["t_hours", "kind", "over_active", "instance", "loaded_gb", "time_to_ready"],
            rows,
            title="Elastic scaling actions (enabled run)",
        )
    )

    # The §7.5 excerpt, straight from the enabled run's telemetry: every
    # scaling span started inside the takeover window, in time order.
    excerpt = [
        span
        for span in sink.spans_of("scaling")
        if _TAKEOVER_START <= span.start < _HORIZON
    ]
    print("Scaling spans (enabled run):")
    for span in excerpt:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        print(f"  [{span.start:12.2f} .. {span.end:12.2f}] {attrs}")
    assert len(excerpt) == len(actions)
    assert [dict(span.attrs)["policy"] for span in excerpt] == [a.kind for a in actions]

    # Panels a/b: without scaling the RT-TTP dives below P and stays low.
    assert disabled_report.scaling_actions == []
    assert disabled_report.rt_ttp_min() < 0.999
    # Panels c/d: scaling fires, identifies the taken-over tenant, loads a
    # fraction of the group's data.
    assert len(actions) >= 1
    first = actions[0]
    assert first.kind == "lightweight"
    assert over_tenant in first.over_active
    group_gb = sum(t.data_gb for t in group.tenants)
    assert first.loaded_gb < group_gb / 2
    # After the new MPPDB is ready, the group's queries violate their SLA
    # less often than in the disabled run over the same window.
    window = (first.expected_ready_time + HOUR, _HORIZON)
    assert window[0] < window[1], "scale-up must complete within the excerpt"
    enabled_window = enabled_report.sla.window(*window)
    disabled_window = disabled_report.sla.window(*window)
    print(
        f"post-ready SLA met: enabled={enabled_window.fraction_met:.4f} "
        f"({len(enabled_window.violations())} violations) "
        f"disabled={disabled_window.fraction_met:.4f} "
        f"({len(disabled_window.violations())} violations) "
        f"(window {format_duration(window[0])}..{format_duration(window[1])})"
    )
    assert len(enabled_window.violations()) < len(disabled_window.violations())
    assert enabled_window.fraction_met >= disabled_window.fraction_met
    # The RT-TTP (which excludes the removed tenant) recovers by the end,
    # clearly above the disabled run's final level.
    final_enabled = enabled_report.rt_ttp_samples[-1][1]
    final_disabled = disabled_report.rt_ttp_samples[-1][1]
    assert final_enabled >= 0.998
    assert final_enabled > final_disabled
