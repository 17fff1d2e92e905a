"""Deployment plans.

A :class:`DeploymentPlan` is the Deployment Advisor's output (Chapter 3):
the cluster design plus tenant placement of every tenant group.  The
Deployment Master executes it; nodes not listed are hibernated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..errors import DeploymentError
from ..workload.tenant import TenantSpec
from .tdd import ClusterDesign, TenantPlacement

__all__ = ["GroupDeployment", "DeploymentPlan"]


@dataclass(frozen=True)
class GroupDeployment:
    """One tenant group's slice of the plan."""

    design: ClusterDesign
    placement: TenantPlacement
    tenants: tuple[TenantSpec, ...]
    _by_id: dict[int, TenantSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.design.group_name != self.placement.group_name:
            raise DeploymentError(
                f"design is for {self.design.group_name!r} but placement for "
                f"{self.placement.group_name!r}"
            )
        spec_ids = {t.tenant_id for t in self.tenants}
        if spec_ids != set(self.placement.tenant_ids):
            raise DeploymentError("tenant specs do not match the placement's tenant ids")
        object.__setattr__(self, "_by_id", {t.tenant_id: t for t in self.tenants})

    @property
    def group_name(self) -> str:
        """The tenant group's name."""
        return self.design.group_name

    @property
    def nodes_used(self) -> int:
        """Machine nodes this group's instances consume."""
        return self.design.total_nodes

    @property
    def nodes_requested(self) -> int:
        """Machine nodes the group's tenants requested before consolidation."""
        return sum(t.nodes_requested for t in self.tenants)

    def tenant(self, tenant_id: int) -> TenantSpec:
        """Look up one tenant's spec."""
        spec = self._by_id.get(tenant_id)
        if spec is not None:
            return spec
        raise DeploymentError(f"tenant {tenant_id!r} is not in group {self.group_name!r}")


class DeploymentPlan:
    """The full plan: every tenant group's design and placement."""

    def __init__(self, groups: Sequence[GroupDeployment]) -> None:
        if not groups:
            raise DeploymentError("a deployment plan needs at least one group")
        names = [g.group_name for g in groups]
        if len(set(names)) != len(names):
            raise DeploymentError("group names must be unique")
        seen: set[int] = set()
        for group in groups:
            overlap = seen.intersection(group.placement.tenant_ids)
            if overlap:
                raise DeploymentError(
                    f"tenants in multiple groups: {sorted(overlap)[:5]}"
                )
            seen.update(group.placement.tenant_ids)
        self.groups: tuple[GroupDeployment, ...] = tuple(groups)

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[GroupDeployment]:
        return iter(self.groups)

    @property
    def total_nodes_used(self) -> int:
        """Nodes the whole consolidated service uses."""
        return sum(g.nodes_used for g in self.groups)

    @property
    def total_nodes_requested(self) -> int:
        """Nodes all tenants requested before consolidation."""
        return sum(g.nodes_requested for g in self.groups)

    @property
    def consolidation_effectiveness(self) -> float:
        """Fraction of requested nodes saved by the plan."""
        requested = self.total_nodes_requested
        if requested == 0:
            raise DeploymentError("plan has zero requested nodes")
        return 1.0 - self.total_nodes_used / requested

    def group(self, name: str) -> GroupDeployment:
        """Look up a group by name."""
        for group in self.groups:
            if group.group_name == name:
                return group
        raise DeploymentError(f"unknown group {name!r}")

    def group_of_tenant(self, tenant_id: int) -> GroupDeployment:
        """The group hosting a tenant."""
        for group in self.groups:
            if tenant_id in group.placement.tenant_ids:
                return group
        raise DeploymentError(f"tenant {tenant_id!r} is not in the plan")

    def summary(self) -> dict[str, float]:
        """Headline plan metrics."""
        return {
            "groups": float(len(self.groups)),
            "tenants": float(sum(len(g.tenants) for g in self.groups)),
            "nodes_requested": float(self.total_nodes_requested),
            "nodes_used": float(self.total_nodes_used),
            "effectiveness": self.consolidation_effectiveness,
        }
