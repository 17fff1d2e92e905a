"""Exact optimum for tiny LIVBPwFC instances, by branch-and-bound.

The paper's optimal reference (MINLP + DIRECT) "has taken about 12 days to
compute the optimal solution for only 20 tenants" (§7.3); here a direct
branch-and-bound over set partitions plays the same role for the
optimality-gap tests and benches.  Tenants are assigned in order; each goes
into an existing group (if the fuzzy capacity still holds) or opens a new
one (canonical first-empty position only, which removes group-relabelling
symmetry).  The bound is the cost already committed — every group's cost is
monotone in membership, so a partial assignment's cost never decreases.

Practical up to ~12 tenants; guarded by an explicit limit.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import PackingError
from .livbp import TTP_TOL, GroupingSolution, LIVBPwFCProblem

__all__ = ["exact_grouping", "MAX_EXACT_TENANTS"]

#: Refuse instances larger than this (Bell number growth).
MAX_EXACT_TENANTS = 14


def exact_grouping(problem: LIVBPwFCProblem, max_tenants: int = MAX_EXACT_TENANTS) -> GroupingSolution:
    """Find a cost-optimal grouping by exhaustive branch-and-bound."""
    items = list(problem.items)
    if len(items) > max_tenants:
        raise PackingError(
            f"exact solver is limited to {max_tenants} tenants; got {len(items)} "
            "(use the 2-step heuristic at scale)"
        )
    started = time.perf_counter()
    d = problem.num_epochs
    r = problem.replication_factor
    p = problem.sla_fraction

    # Sorting by decreasing node request tightens the bound early: big
    # tenants commit their group's cost as soon as they are placed.
    items.sort(key=lambda it: (-it.nodes_requested, it.tenant_id))

    best_cost = [float("inf")]
    best_groups: list[list[int]] = []

    group_members: list[list[int]] = []
    group_counts: list[np.ndarray] = []
    group_violations: list[int] = []
    group_max_nodes: list[int] = []

    def current_cost() -> int:
        return sum(r * m for m in group_max_nodes)

    def recurse(index: int) -> None:
        if current_cost() >= best_cost[0]:
            return
        if index == len(items):
            best_cost[0] = current_cost()
            best_groups.clear()
            best_groups.extend([list(g) for g in group_members])
            return
        item = items[index]
        for gi in range(len(group_members)):
            counts = group_counts[gi]
            added_violations = 0
            if item.epochs.size:
                added_violations = int(np.count_nonzero(counts[item.epochs] == r))
            new_violations = group_violations[gi] + added_violations
            if (d - new_violations) / d + TTP_TOL < p:
                continue
            # Apply.
            group_members[gi].append(item.tenant_id)
            counts[item.epochs] += 1
            group_violations[gi] = new_violations
            old_max = group_max_nodes[gi]
            group_max_nodes[gi] = max(old_max, item.nodes_requested)
            recurse(index + 1)
            # Undo.
            group_max_nodes[gi] = old_max
            group_violations[gi] = new_violations - added_violations
            counts[item.epochs] -= 1
            group_members[gi].pop()
        # Open a new group (single canonical position).
        group_members.append([item.tenant_id])
        counts = np.zeros(d, dtype=np.int32)
        counts[item.epochs] += 1
        group_counts.append(counts)
        group_violations.append(int(np.count_nonzero(counts > r)))
        group_max_nodes.append(item.nodes_requested)
        recurse(index + 1)
        group_members.pop()
        group_counts.pop()
        group_violations.pop()
        group_max_nodes.pop()

    if items:
        recurse(0)
    elapsed = time.perf_counter() - started
    if not best_groups and items:
        raise PackingError("exact solver found no feasible partition")
    return GroupingSolution(problem, best_groups, solver="exact-bb", solve_seconds=elapsed)
