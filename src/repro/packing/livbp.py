"""The LIVBPwFC problem definition and solution containers.

Formal statement (Chapter 5): a tenant ``T_i`` is a tuple ``(A_i, n_i)``
where ``A_i`` is its 0/1 activity vector over ``d`` epochs and ``n_i`` its
node request.  A set ``S`` of tenants fits into a tenant-group iff::

    COUNT_{<=R}( sum_{T_i in S} A_i ) / d  >=  P%

i.e. at least ``P%`` of epochs have at most ``R`` concurrently active
tenants (the *fuzzy capacity*).  The cost of a group is ``R * max n_i``
(TDD builds ``A = R`` MPPDBs, each sized to the group's largest tenant);
the objective is to minimize total cost.

The classic vector bin packing problem is the special case with ``n_i``
ignored and ``P = 100%``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import PackingError
from ..workload.activity import ActivityItem, ActivityMatrix, concurrency_profile

__all__ = [
    "LIVBPwFCProblem",
    "TenantGroup",
    "GroupingSolution",
    "group_concurrency",
    "group_ttp",
]

#: Tolerance for TTP >= P comparisons (guards float noise on the boundary).
TTP_TOL = 1e-12


def group_concurrency(items: Iterable[ActivityItem], num_epochs: int) -> np.ndarray:
    """Per-epoch count of concurrently active tenants within a group."""
    return concurrency_profile(items, num_epochs)


def group_ttp(items: Iterable[ActivityItem], num_epochs: int, replication_factor: int) -> float:
    """Total Time Percentage: fraction of epochs with at most ``R`` active tenants."""
    if num_epochs < 1:
        raise PackingError("num_epochs must be >= 1")
    if replication_factor < 1:
        raise PackingError("replication_factor must be >= 1")
    counts = group_concurrency(items, num_epochs)
    return float(np.count_nonzero(counts <= replication_factor)) / num_epochs


@dataclass(frozen=True)
class LIVBPwFCProblem:
    """One grouping problem instance."""

    items: tuple[ActivityItem, ...]
    num_epochs: int
    replication_factor: int
    sla_fraction: float

    def __post_init__(self) -> None:
        if self.num_epochs < 1:
            raise PackingError("num_epochs must be >= 1")
        if self.replication_factor < 1:
            raise PackingError("replication_factor must be >= 1")
        if not (0 < self.sla_fraction <= 1):
            raise PackingError(f"sla_fraction must be in (0, 1], got {self.sla_fraction!r}")
        ids = [item.tenant_id for item in self.items]
        if len(set(ids)) != len(ids):
            raise PackingError("tenant ids must be unique")
        object.__setattr__(self, "items", tuple(self.items))

    @classmethod
    def from_activity_matrix(
        cls, matrix: ActivityMatrix, replication_factor: int, sla_percent: float
    ) -> "LIVBPwFCProblem":
        """Build a problem from a discretized workload."""
        return cls(
            items=matrix.items,
            num_epochs=matrix.num_epochs,
            replication_factor=replication_factor,
            sla_fraction=sla_percent / 100.0,
        )

    def __len__(self) -> int:
        return len(self.items)

    def item(self, tenant_id: int) -> ActivityItem:
        """Look up an item by tenant id."""
        for item in self.items:
            if item.tenant_id == tenant_id:
                return item
        raise PackingError(f"unknown tenant {tenant_id!r}")

    def total_nodes_requested(self) -> int:
        """``N`` — what the tenants would use without consolidation."""
        return sum(item.nodes_requested for item in self.items)

    def fits(self, items: Sequence[ActivityItem]) -> bool:
        """Whether a tenant set satisfies the fuzzy capacity constraint."""
        ttp = group_ttp(items, self.num_epochs, self.replication_factor)
        return ttp + TTP_TOL >= self.sla_fraction

    def group_cost(self, items: Sequence[ActivityItem]) -> int:
        """``R * max n_i`` — nodes used by a group under TDD with ``A = R``."""
        if not items:
            raise PackingError("a group must contain at least one tenant")
        return self.replication_factor * max(item.nodes_requested for item in items)


@dataclass(frozen=True)
class TenantGroup:
    """One bin of a solution, with its audited statistics."""

    tenant_ids: tuple[int, ...]
    largest_nodes: int
    nodes_used: int
    ttp: float
    max_concurrent_active: int

    def __post_init__(self) -> None:
        if not self.tenant_ids:
            raise PackingError("a tenant group must be non-empty")

    def __len__(self) -> int:
        return len(self.tenant_ids)


class GroupingSolution:
    """A complete grouping with derived consolidation metrics.

    Construction audits each group (TTP, concurrency, cost) against the
    problem definition; :meth:`validate` additionally checks the partition
    property and the fuzzy capacity constraint.
    """

    def __init__(
        self,
        problem: LIVBPwFCProblem,
        groups: Sequence[Sequence[int]],
        solver: str = "",
        solve_seconds: float = 0.0,
    ) -> None:
        self.problem = problem
        self.solver = solver
        self.solve_seconds = float(solve_seconds)
        by_id = {item.tenant_id: item for item in problem.items}
        audited: list[TenantGroup] = []
        for tenant_ids in groups:
            ids = tuple(tenant_ids)
            if not ids:
                raise PackingError("groups must be non-empty")
            try:
                items = [by_id[i] for i in ids]
            except KeyError as exc:
                raise PackingError(f"group references unknown tenant {exc.args[0]!r}") from None
            counts = group_concurrency(items, problem.num_epochs)
            ttp = float(np.count_nonzero(counts <= problem.replication_factor)) / problem.num_epochs
            audited.append(
                TenantGroup(
                    tenant_ids=ids,
                    largest_nodes=max(item.nodes_requested for item in items),
                    nodes_used=problem.group_cost(items),
                    ttp=ttp,
                    max_concurrent_active=int(counts.max(initial=0)),
                )
            )
        self.groups: tuple[TenantGroup, ...] = tuple(audited)

    def __len__(self) -> int:
        return len(self.groups)

    @property
    def total_nodes_used(self) -> int:
        """Nodes used by the consolidated deployment."""
        return sum(group.nodes_used for group in self.groups)

    @property
    def nodes_saved(self) -> int:
        """Requested nodes minus used nodes."""
        return self.problem.total_nodes_requested() - self.total_nodes_used

    @property
    def consolidation_effectiveness(self) -> float:
        """Fraction of requested nodes saved — the paper's headline metric.

        "A 80% consolidation effectiveness means that if the tenants all
        together request 10000 machine nodes, Thrifty can serve all of them
        using 2000 nodes only" (§7.3).
        """
        requested = self.problem.total_nodes_requested()
        if requested == 0:
            raise PackingError("cannot compute effectiveness with zero requested nodes")
        return self.nodes_saved / requested

    @property
    def average_group_size(self) -> float:
        """Mean number of tenants per group (Figures 7.1b–7.6b)."""
        if not self.groups:
            raise PackingError("solution has no groups")
        return sum(len(g) for g in self.groups) / len(self.groups)

    def group_of(self, tenant_id: int) -> TenantGroup:
        """The group containing a tenant."""
        for group in self.groups:
            if tenant_id in group.tenant_ids:
                return group
        raise PackingError(f"tenant {tenant_id!r} is not in any group")

    def validate(self) -> None:
        """Check the partition property and the fuzzy capacity constraint."""
        seen: set[int] = set()
        for group in self.groups:
            overlap = seen.intersection(group.tenant_ids)
            if overlap:
                raise PackingError(f"tenants assigned to multiple groups: {sorted(overlap)[:5]}")
            seen.update(group.tenant_ids)
        expected = {item.tenant_id for item in self.problem.items}
        if seen != expected:
            missing = sorted(expected - seen)[:5]
            extra = sorted(seen - expected)[:5]
            raise PackingError(f"grouping is not a partition (missing={missing}, extra={extra})")
        for group in self.groups:
            if group.ttp + TTP_TOL < self.problem.sla_fraction:
                raise PackingError(
                    f"group {group.tenant_ids[:5]}... violates fuzzy capacity: "
                    f"TTP={group.ttp:.6f} < P={self.problem.sla_fraction:.6f}"
                )

    def summary(self) -> dict[str, float]:
        """Headline metrics as a plain dict (for reports and benches)."""
        return {
            "tenants": float(len(self.problem.items)),
            "groups": float(len(self.groups)),
            "nodes_requested": float(self.problem.total_nodes_requested()),
            "nodes_used": float(self.total_nodes_used),
            "effectiveness": self.consolidation_effectiveness,
            "avg_group_size": self.average_group_size,
            "solve_seconds": self.solve_seconds,
        }
