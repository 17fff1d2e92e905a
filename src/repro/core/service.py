"""The :class:`ThriftyService` facade — the library's front door.

Wires the whole architecture of Figure 3.1 together: the Tenant Activity
Monitor, the Deployment Advisor, the Deployment Master and the Query
Routers, on top of one simulator and one machine pool.  A typical session
(see ``examples/quickstart.py``)::

    service = ThriftyService(config)
    result = service.deploy(workload)              # grouping + TDD + start instances
    report = service.replay(until=2 * DAY)         # drive the logs, watch SLAs

The replay runs *every* deployed group on the shared simulator, so
cross-group interactions (none, by design — groups own disjoint nodes) and
global metrics come out of one clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from ..cluster.failures import FailureInjector
from ..cluster.health import HealthManager
from ..cluster.pool import MachinePool
from ..config import EvaluationConfig
from ..errors import DeploymentError
from ..mppdb.loading import LoadTimeModel
from ..mppdb.provisioning import Provisioner
from ..obs.observer import NULL_OBSERVER, Observer
from ..rng import RngFactory
from ..simulation.engine import Simulator
from ..units import MINUTE
from ..workload.composer import ComposedWorkload
from .advisor import AdvisorResult, DeploymentAdvisor
from .fault import RetryPolicy
from .master import DeploymentMaster
from .monitor import TenantActivityMonitor
from .pricing import PricingModel, TenantInvoice
from .runtime import GroupRuntime, RuntimeReport
from .scaling import (
    DisabledScaling,
    LightweightScaling,
    ProactiveScaling,
    ScalingAction,
    ScalingPolicy,
    WholeGroupScaling,
)
from .sla import SLAReport

__all__ = ["ThriftyService", "ServiceReport", "SCALING_POLICIES"]

#: Named scaling policies for the constructor.
SCALING_POLICIES = {
    "lightweight": LightweightScaling,
    "proactive": ProactiveScaling,
    "whole-group": WholeGroupScaling,
    "disabled": DisabledScaling,
}


@dataclass
class ServiceReport:
    """Aggregated outcome of a service replay."""

    group_reports: dict[str, RuntimeReport]
    nodes_used: int
    nodes_requested: int

    @property
    def sla(self) -> SLAReport:
        """All groups' SLA records combined, in group order (copies no row)."""
        return SLAReport.combine(report.sla for report in self.group_reports.values())

    @property
    def consolidation_effectiveness(self) -> float:
        """Fraction of requested nodes the deployment saves."""
        if self.nodes_requested == 0:
            raise DeploymentError("no requested nodes")
        return 1.0 - self.nodes_used / self.nodes_requested

    def scaling_actions(self) -> list[ScalingAction]:
        """Every scaling action across groups, in time order."""
        actions: list[ScalingAction] = []
        for report in self.group_reports.values():
            actions.extend(report.scaling_actions)
        return sorted(actions, key=lambda a: a.time)

    def summary(self) -> dict[str, float]:
        """Headline service metrics."""
        sla = self.sla
        reports = self.group_reports.values()
        return {
            "groups": float(len(self.group_reports)),
            "queries": float(len(sla)),
            "sla_fraction_met": sla.fraction_met,
            "nodes_used": float(self.nodes_used),
            "nodes_requested": float(self.nodes_requested),
            "effectiveness": self.consolidation_effectiveness,
            "scaling_actions": float(len(self.scaling_actions())),
            "queries_retried": float(sum(r.queries_retried for r in reports)),
            "queries_failed": float(sum(r.queries_failed for r in reports)),
            "failovers": float(sum(r.failovers for r in reports)),
        }


class ThriftyService:
    """End-to-end MPPDBaaS: consolidate, deploy, route, monitor, scale."""

    def __init__(
        self,
        config: EvaluationConfig,
        grouping: str = "two-step",
        scaling: str = "lightweight",
        load_model: Optional[LoadTimeModel] = None,
        pool: Optional[MachinePool] = None,
        monitor_interval_s: float = 10 * MINUTE,
        observer: Optional[Observer] = None,
        fault: Optional[RetryPolicy] = None,
    ) -> None:
        if scaling not in SCALING_POLICIES:
            raise DeploymentError(
                f"unknown scaling policy {scaling!r}; options: {sorted(SCALING_POLICIES)}"
            )
        self.config = config
        self.simulator = Simulator()
        self.pool = pool if pool is not None else MachinePool(elastic=True)
        self.provisioner = Provisioner(self.simulator, self.pool, load_model)
        self.health = HealthManager(
            self.pool, self.provisioner, self.simulator, observer=observer
        )
        self._fault = fault
        self._chaos: Optional[FailureInjector] = None
        self.advisor = DeploymentAdvisor(config, grouping=grouping)
        self.master = DeploymentMaster(self.provisioner)
        self.monitor = TenantActivityMonitor(config.replication_factor)
        self.observer = observer if observer is not None else NULL_OBSERVER
        if self.observer.enabled:
            self.simulator.enable_event_accounting()
        self._scaling_name = scaling
        self._monitor_interval = monitor_interval_s
        self._workload: Optional[ComposedWorkload] = None
        self._advice: Optional[AdvisorResult] = None
        self._history: Mapping[int, float] = MappingProxyType({})
        self._runtimes: dict[str, GroupRuntime] = {}
        self._reconsolidations = 0

    @property
    def advice(self) -> AdvisorResult:
        """The current deployment plan (after :meth:`deploy`)."""
        if self._advice is None:
            raise DeploymentError("deploy() has not been called")
        return self._advice

    @property
    def chaos(self) -> Optional[FailureInjector]:
        """The chaos injector, if :meth:`arm_chaos` has run."""
        return self._chaos

    def arm_chaos(
        self, mtbf_s: float, horizon: float, seed: Optional[int] = None
    ) -> int:
        """Arm random node failures over the replay horizon (chaos harness).

        Every in-use node draws exponential inter-failure times with mean
        ``mtbf_s`` from a dedicated seeded stream (``config.seed`` unless
        ``seed`` overrides it), so chaos replays are exactly reproducible.
        The health manager is subscribed before arming: each failure
        degrades its instance, aborts in-flight queries for retry, and
        starts a replacement node.  Returns the number of failure events
        scheduled up front; nodes allocated later are armed on allocation.
        """
        if self._chaos is not None:
            raise DeploymentError("chaos is already armed")
        rng = RngFactory(self.config.seed if seed is None else seed).stream(
            "chaos", "injector"
        )
        self._chaos = FailureInjector(self.pool, self.simulator, mtbf_s, rng)
        self.health.watch(self._chaos)
        return self._chaos.arm(horizon)

    def _set_advice(self, advice: AdvisorResult) -> None:
        """Adopt a plan and its per-tenant planned active fractions.

        The fractions are computed once per plan; every group's scaling
        policy shares the one read-only mapping.
        """
        self._advice = advice
        problem = advice.grouping.problem
        self._history = MappingProxyType({
            item.tenant_id: item.active_epoch_count / problem.num_epochs
            for item in problem.items
        })

    def _make_scaling(self) -> ScalingPolicy:
        policy_cls = SCALING_POLICIES[self._scaling_name]
        epoch = max(self.config.epoch_size_s, 10.0)
        if issubclass(policy_cls, LightweightScaling):
            # Covers ProactiveScaling too: both identify over-active
            # tenants against the planned (historical) activity.
            return policy_cls(
                identification_epoch_s=epoch,
                historical_fraction=self._history,
            )
        return policy_cls(identification_epoch_s=epoch)

    def deploy(
        self,
        workload: ComposedWorkload,
        epoch_size: Optional[float] = None,
        instant: bool = True,
    ) -> AdvisorResult:
        """Plan and deploy a workload; returns the advisor's result."""
        if self._advice is not None:
            raise DeploymentError("service already has a deployment; build a new service")
        advice = self.advisor.plan_from_workload(workload, epoch_size)
        self.master.deploy(advice.plan, instant=instant)
        self._workload = workload
        self._set_advice(advice)
        return advice

    def replay(
        self,
        until: float,
        group_names: Optional[list[str]] = None,
    ) -> ServiceReport:
        """Drive the composed logs through the deployed groups until ``until``.

        ``group_names`` restricts the replay to a subset of groups (useful
        for focused experiments like Figure 7.7, which watches a single
        group); by default all groups replay together.  Every name is
        checked before anything is scheduled, so a rejected call leaves the
        service as it was.  Each tenant's log is read lazily: a record is
        built when the replay reaches it.
        """
        if self._advice is None or self._workload is None:
            raise DeploymentError("deploy() must be called before replay()")
        deployed = self.master.deployed_groups()
        wanted = sorted(deployed) if group_names is None else list(group_names)
        seen: set[str] = set()
        for name in wanted:
            if name not in deployed:
                raise DeploymentError(f"group {name!r} is not deployed")
            if name in self._runtimes:
                raise DeploymentError(f"group {name!r} was already replayed")
            if name in seen:
                raise DeploymentError(f"group {name!r} is listed twice")
            seen.add(name)
        for name in wanted:
            group = deployed[name]
            logs = {
                tenant_id: self._workload.lazy_log(tenant_id)
                for tenant_id in group.deployment.placement.tenant_ids
            }
            runtime = GroupRuntime(
                deployed=group,
                logs=logs,
                simulator=self.simulator,
                provisioner=self.provisioner,
                sla_fraction=self.config.sla_fraction,
                monitor=self.monitor.group(name),
                scaling=self._make_scaling(),
                monitor_interval_s=self._monitor_interval,
                observer=self.observer,
                fault=self._fault,
                health=self.health,
                fault_rng=RngFactory(self.config.seed).stream("fault", name),
            )
            runtime.schedule(until)
            self._runtimes[name] = runtime
        self.simulator.run(until=until)
        self.health.finalize(self.simulator.now)
        for name in wanted:
            self._runtimes[name].finalize_observation(self.simulator.now)
        reports = {name: self._runtimes[name].report() for name in wanted}
        plan = self._advice.plan
        return ServiceReport(
            group_reports=reports,
            nodes_used=plan.total_nodes_used,
            nodes_requested=plan.total_nodes_requested,
        )

    def reconsolidate(
        self,
        departed: Optional[list[int]] = None,
        extra_groups: Optional[list[str]] = None,
        epoch_size: Optional[float] = None,
    ) -> AdvisorResult:
        """Run one (re)-consolidation cycle (Chapter 3 / 5.1).

        Groups that went through elastic scaling during replay, groups
        holding ``departed`` (de-registered) tenants, and any
        ``extra_groups`` the administrator names are torn down; their
        remaining tenants are re-grouped on the current activity and
        redeployed.  Untouched groups keep running.
        """
        if self._advice is None or self._workload is None:
            raise DeploymentError("deploy() must be called before reconsolidate()")
        deployed = self.master.deployed_groups()
        affected = set(extra_groups or [])
        # A runtime outlives its group: count only groups still deployed.
        affected.update(
            name for name, runtime in self._runtimes.items()
            if runtime.scaling_actions and name in deployed
        )
        departed = list(departed or [])
        if not affected and not departed:
            raise DeploymentError(
                "nothing to reconsolidate: no scaled groups, departures, or extra_groups"
            )
        from ..workload.activity import ActivityMatrix

        epoch = self.config.epoch_size_s if epoch_size is None else epoch_size
        matrix = ActivityMatrix.from_workload(self._workload, epoch)
        self._reconsolidations += 1
        span = None
        if self.observer.enabled:
            span = self.observer.tracer.start_span(
                "reconsolidation",
                self.simulator.now,
                kind="reconsolidation",
                cycle=self._reconsolidations,
                affected=tuple(sorted(affected)),
                departed=tuple(departed),
            )
        result, kept = self.advisor.reconsolidate(
            matrix,
            self._advice.plan,
            affected_groups=affected,
            departed=departed,
            name_prefix=f"rg{self._reconsolidations}-",
        )
        # Tear down the affected groups and the elastic-scaling instances
        # their policies started, in the order they were started.
        torn_down = {g.group_name for g in self._advice.plan} - {g.group_name for g in kept}
        for name in sorted(torn_down):
            self.master.decommission_group(name)
            runtime = self._runtimes.get(name)
            for action in runtime.scaling_actions if runtime is not None else ():
                self.provisioner.retire(self.provisioner.get(action.instance_name))
        for group in result.plan:
            if group.group_name not in self.master.deployed_groups():
                self.master.deploy_group(group, instant=True)
        if span is not None:
            span.set_attr("torn_down", tuple(sorted(torn_down)))
            span.set_attr("groups_after", len(result.plan))
            span.finish(self.simulator.now)
        advice = AdvisorResult(
            plan=result.plan, grouping=result.grouping, excluded=self._advice.excluded
        )
        self._set_advice(advice)
        return advice

    def invoices(self, pricing: Optional[PricingModel] = None) -> list[TenantInvoice]:
        """Bill every consolidated tenant for its composed activity."""
        if self._workload is None:
            raise DeploymentError("deploy() must be called first")
        model = pricing if pricing is not None else PricingModel()
        return [
            model.invoice(self._workload.lazy_log(tenant_id))
            for tenant_id in self._workload.tenant_ids
        ]
