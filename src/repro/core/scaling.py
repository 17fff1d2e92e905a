"""Elastic scaling (Chapter 5.1) and its ablation policies.

At run-time, tenant activity may deviate from history.  When a group's
RT-TTP over the past 24 hours drops below ``P``, Thrifty reacts.  Scaling
up an MPPDB is heavyweight — bulk loading dominates (Table 5.1: ~14.5 h for
a 10-node / 1 TB group) and the monthly SLA "grace period" at 99.9 % is
only ~43 minutes — so the paper's *lightweight* approach starts a new MPPDB
for **only the over-active tenants**: their data is a fraction of the
group's, so the load completes in a fraction of the time (~5000 s in the
Figure 7.7 excerpt).

Over-active identification follows the paper's phrasing — "identify the
tenant(s) that are more active than the history indicated" — by greedily
evicting the tenants deviating most from their planned activity until the
window's TTP recovers; the paper's alternative formulation (re-run the
tenant-grouping algorithm on the group's members) is kept as
``identify_by_regrouping`` for comparison.

Policies:

* :class:`LightweightScaling` — the paper's approach.
* :class:`WholeGroupScaling` — the pessimistic strawman: add a full
  ``A + 1``-th MPPDB hosting every tenant (slow and expensive).
* :class:`DisabledScaling` — no reaction (Figure 7.7a/b's baseline).
"""

from __future__ import annotations

import abc
import math
from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Mapping, Optional, Sequence

import numpy as np

from ..errors import ScalingError
from ..mppdb.instance import MPPDBInstance
from ..mppdb.provisioning import Provisioner
from ..packing.livbp import LIVBPwFCProblem
from ..packing.two_step import pack_initial_group
from ..units import DAY, num_epochs
from ..workload.activity import ActivityItem, concurrency_profile
from ..workload.tenant import TenantSpec
from .master import DeployedGroup
from .monitor import GroupActivityMonitor
from .routing import QueryRouter

__all__ = [
    "ScalingAction",
    "ScalingPolicy",
    "LightweightScaling",
    "WholeGroupScaling",
    "DisabledScaling",
    "ProactiveScaling",
]

#: A tenant is *over-active* when its window activity exceeds its
#: historical activity by this factor.  2.5 clears the natural variance
#: between a single workday window and the horizon-average history
#: (weekends alone make a workday ~1.4x the average) while still catching
#: runaway tenants (a taken-over tenant is typically 5-10x its history).
OVER_ACTIVITY_RATIO = 2.5


@dataclass(frozen=True)
class ScalingAction:
    """A scale-up decision taken for one tenant group."""

    time: float
    group_name: str
    kind: str
    over_active: tuple[int, ...]
    instance_name: str
    expected_ready_time: float
    loaded_gb: float


#: A scale-up a policy chose: the tenants the new MPPDB loads, its
#: parallelism and the tenants routed to it once it is ready.
ScaleUp = tuple[Sequence[TenantSpec], int, tuple[int, ...]]


class ScalingPolicy(abc.ABC):
    """Decides whether and how to scale one group when its RT-TTP drops.

    A policy serves one group, like its monitor and router: :meth:`attach`
    hands it the group and its context once, and each monitor tick then
    calls :meth:`maybe_scale` with the time alone.  Subclasses choose the
    scale-up (:meth:`_choose_scale_up`); :meth:`_scale` provisions it.
    """

    #: The :attr:`ScalingAction.kind` of this policy's actions.
    kind: ClassVar[str]

    def __init__(self, window_s: float = DAY, identification_epoch_s: float = 10.0) -> None:
        if window_s <= 0:
            raise ScalingError("window_s must be positive")
        if identification_epoch_s <= 0:
            raise ScalingError("identification_epoch_s must be positive")
        self.window_s = float(window_s)
        self.identification_epoch_s = float(identification_epoch_s)
        self._in_flight = False
        self._last_action = -math.inf
        self.actions: list[ScalingAction] = []

    def attach(
        self,
        group: DeployedGroup,
        monitor: GroupActivityMonitor,
        router: QueryRouter,
        provisioner: Provisioner,
        sla_fraction: float,
    ) -> None:
        """Bind the policy to the one group it serves and its context; a second call raises."""
        if hasattr(self, "_group"):
            raise ScalingError(f"policy already serves group {self._group.group_name!r}")
        self._group = group
        self._monitor = monitor
        self._router = router
        self._provisioner = provisioner
        self._sla_fraction = sla_fraction

    def maybe_scale(self, now: float, rt_ttp: float) -> Optional[ScalingAction]:
        """Check the trigger and, if firing, start a scale-up.

        ``rt_ttp`` is the group's RT-TTP at ``now`` over :attr:`window_s`.
        At most one scale-up is in flight — starting a second MPPDB while
        the first is still loading would double-pay the heavyweight
        operation for the same deviation.
        """
        if self._in_flight:
            return None
        if now - self._last_action < self.window_s:
            # The sliding window still contains pre-action history; give the
            # previous scale-up one full window to take effect.
            return None
        if not self._should_scale(now, rt_ttp):
            return None
        action = self._scale(now)
        if action is not None:
            self._in_flight = True
            # Cool down from the moment the new MPPDB is *ready*: until the
            # sliding window has fully rotated past the pre-exclusion
            # history, a low RT-TTP only restates the deviation already
            # being handled.
            self._last_action = action.expected_ready_time
            self.actions.append(action)
        return action

    def _should_scale(self, now: float, rt_ttp: float) -> bool:
        """The trigger: reactive policies fire once RT-TTP is below ``P``."""
        return rt_ttp < self._sla_fraction

    def _scale(self, now: float) -> Optional[ScalingAction]:
        """Provision the chosen scale-up (``None`` when the policy declines).

        Once loaded, the new MPPDB joins the router and takes the pinned tenants.
        """
        chosen = self._choose_scale_up(now)
        if chosen is None:
            return None
        specs, parallelism, pinned = chosen
        tenant_data = [spec.as_tenant_data() for spec in specs]
        group_name = self._group.group_name

        def _ready(instance: MPPDBInstance, time: float) -> None:
            self._router.add_instance(instance)
            for tenant_id in pinned:
                self._router.pin_tenant(tenant_id, instance)
                self._monitor.exclude_tenant(tenant_id, time)
            self._in_flight = False

        instance = self._provisioner.provision(
            parallelism=parallelism,
            tenants=tenant_data,
            name=f"{group_name}/scale{len(self.actions)}",
            on_ready=_ready,
        )
        return ScalingAction(
            time=now,
            group_name=group_name,
            kind=self.kind,
            over_active=pinned,
            instance_name=instance.name,
            expected_ready_time=now + self._provisioner.provision_time_s(parallelism, tenant_data),
            loaded_gb=sum(spec.data_gb for spec in specs),
        )

    @abc.abstractmethod
    def _choose_scale_up(self, now: float) -> Optional[ScaleUp]:
        """Policy-specific scale-up; returns ``None`` to decline."""


class DisabledScaling(ScalingPolicy):
    """Never scales (Figure 7.7a/b)."""

    kind = "disabled"

    def _choose_scale_up(self, now: float) -> Optional[ScaleUp]:
        return None


class LightweightScaling(ScalingPolicy):
    """The paper's policy: isolate only the over-active tenant(s).

    Parameters beyond the base policy's:

    historical_fraction:
        Optional per-tenant *historical* active fraction (from the
        activity matrix the Deployment Advisor planned on), kept as given
        and only read.  With it,
        identification follows the paper's phrasing — "identify the
        tenant(s) that are more active than the history indicated" — by
        evicting tenants in decreasing order of recent-to-historical
        activity ratio, stopping once the remaining tenants behave like
        their history (ratio <= :data:`OVER_ACTIVITY_RATIO`).  Without it,
        eviction falls back to most-recent-activity-first.
    """

    kind = "lightweight"

    def __init__(
        self,
        window_s: float = DAY,
        identification_epoch_s: float = 10.0,
        historical_fraction: Optional[Mapping[int, float]] = None,
    ) -> None:
        super().__init__(window_s=window_s, identification_epoch_s=identification_epoch_s)
        self.historical_fraction: Mapping[int, float] = (
            historical_fraction if historical_fraction is not None else {}
        )

    def _deviation_ratio(self, item: ActivityItem, window_epochs: int) -> float:
        recent = item.active_epoch_count / max(window_epochs, 1)
        historical = self.historical_fraction.get(item.tenant_id)
        if historical is None or historical <= 0:
            # Unknown history: treat the recent level itself as deviation.
            return float("inf") if recent > 0 else 0.0
        return recent / historical

    def identify_over_active(self, now: float) -> list[int]:
        """Tenants "more active than the history indicated" (Chapter 5.1).

        Greedy minimal removal: repeatedly evict the tenant deviating most
        from its history until the window's TTP is back at ``P`` or the
        remaining tenants all behave like their history.  This implements
        the paper's goal surgically; the literal re-grouping formulation
        (:meth:`identify_by_regrouping`) is kept for comparison but has a
        failure mode — a 24-hour weekday window has none of the weekend
        slack the original grouping relied on, so a literal re-pack also
        evicts well-behaved borderline tenants, and pinning those onto the
        single new MPPDB next to a runaway tenant manufactures exactly the
        concurrent execution TDD exists to avoid (see DESIGN.md §5).
        """
        start = max(0.0, now - self.window_s)
        items = self._monitor.activity_items(start, now, self.identification_epoch_s)
        if not items:
            return []
        d = num_epochs(max(now - start, self.identification_epoch_s), self.identification_epoch_s)
        r = self._monitor.replication_factor
        counts = concurrency_profile(items, d)
        remaining = {item.tenant_id: item for item in items}
        over_active: list[int] = []

        def ttp() -> float:
            return float(np.count_nonzero(counts <= r)) / d

        while ttp() + 1e-12 < self._sla_fraction and remaining:
            candidate = max(
                remaining.values(),
                key=lambda it: (
                    self._deviation_ratio(it, d),
                    it.active_epoch_count,
                    it.tenant_id,
                ),
            )
            if over_active and self._deviation_ratio(candidate, d) <= OVER_ACTIVITY_RATIO:
                # Everyone left matches their history; evicting more would
                # punish well-behaved tenants for the window being tighter
                # than the planning horizon.  Re-consolidation handles the
                # residual drift (Chapter 5.1).
                break
            counts[candidate.epochs] -= 1
            del remaining[candidate.tenant_id]
            over_active.append(candidate.tenant_id)
        if not over_active:
            # History window says the group fits, yet RT-TTP dropped — fall
            # back to isolating the most deviating tenant.
            busiest = max(
                items,
                key=lambda it: (self._deviation_ratio(it, d), it.active_epoch_count, it.tenant_id),
            )
            over_active = [busiest.tenant_id]
        return over_active

    def identify_by_regrouping(self, now: float) -> list[int]:
        """The literal Chapter 5.1 formulation, kept for comparison.

        Runs the tenant-grouping second step on the group's members over
        the monitoring window; everyone outside the first resulting
        tenant-group "cannot join the same tenant group anymore, and they
        are identified as over-active".
        """
        start = max(0.0, now - self.window_s)
        items = self._monitor.activity_items(start, now, self.identification_epoch_s)
        if not items:
            return []
        d = num_epochs(max(now - start, self.identification_epoch_s), self.identification_epoch_s)
        problem = LIVBPwFCProblem(
            items=tuple(items),
            num_epochs=d,
            replication_factor=self._monitor.replication_factor,
            sla_fraction=self._sla_fraction,
        )
        groups = pack_initial_group(
            items, problem.num_epochs, problem.replication_factor, problem.sla_fraction
        )
        keepers = set(groups[0]) if groups else set()
        return [item.tenant_id for item in items if item.tenant_id not in keepers]

    def _choose_scale_up(self, now: float) -> Optional[ScaleUp]:
        over_active = self.identify_over_active(now)
        if not over_active:
            return None
        specs = [self._group.deployment.tenant(t) for t in over_active]
        return specs, max(spec.nodes_requested for spec in specs), tuple(over_active)


class WholeGroupScaling(ScalingPolicy):
    """Pessimistic ablation: add an ``A + 1``-th MPPDB for the whole group."""

    kind = "whole-group"

    def _choose_scale_up(self, now: float) -> Optional[ScaleUp]:
        deployment = self._group.deployment
        return deployment.tenants, deployment.design.parallelism, ()


class ProactiveScaling(LightweightScaling):
    """The proactive alternative the paper weighs and rejects (Ch. 5.1).

    "A proactive approach is to predict at run-time whether the RT-TTP
    will soon drop below P and proactively trigger lightweight elastic
    scaling if so.  That approach, however, is subjected to prediction
    error and spikes (e.g., sharp drop of RT-TTP followed by sharp rise)
    in tenant activities."

    The predictor is a least-squares linear trend over the most recent
    RT-TTP observations, extrapolated ``lead_time_s`` ahead; a predicted
    sub-``P`` value fires the (otherwise lightweight) scale-up.  The
    ablation bench shows both sides of the trade-off: earlier reaction
    when a deviation ramps up, and false-positive scale-ups on one-off
    spikes the reactive policy would have ridden out.
    """

    def __init__(
        self,
        window_s: float = DAY,
        identification_epoch_s: float = 10.0,
        historical_fraction: Optional[Mapping[int, float]] = None,
        lead_time_s: float = 4 * 3600.0,
        min_samples: int = 4,
    ) -> None:
        super().__init__(
            window_s=window_s,
            identification_epoch_s=identification_epoch_s,
            historical_fraction=historical_fraction,
        )
        if lead_time_s <= 0:
            raise ScalingError("lead_time_s must be positive")
        if min_samples < 2:
            raise ScalingError("min_samples must be >= 2")
        self.lead_time_s = float(lead_time_s)
        self.min_samples = int(min_samples)
        # The fit reads only the most recent samples.
        self._samples: deque[tuple[float, float]] = deque(maxlen=4 * self.min_samples)

    def predict_rt_ttp(self, at_time: float) -> Optional[float]:
        """Linear-trend forecast of the group's RT-TTP, or None if too few samples."""
        samples = self._samples
        if len(samples) < self.min_samples:
            return None
        times = np.array([t for t, __ in samples])
        values = np.array([v for __, v in samples])
        t_mean = times.mean()
        v_mean = values.mean()
        denom = float(((times - t_mean) ** 2).sum())
        if denom == 0:
            return float(v_mean)
        slope = float(((times - t_mean) * (values - v_mean)).sum()) / denom
        return float(v_mean + slope * (at_time - t_mean))

    def _should_scale(self, now: float, rt_ttp: float) -> bool:
        self._samples.append((now, rt_ttp))
        if rt_ttp < self._sla_fraction:
            return True  # already violating: react like the base policy
        predicted = self.predict_rt_ttp(now + self.lead_time_s)
        return predicted is not None and predicted < self._sla_fraction
