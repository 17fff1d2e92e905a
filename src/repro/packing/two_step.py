"""The paper's 2-step tenant-grouping heuristic (Algorithm 2).

**Step 1** puts tenants requesting the same number of nodes into the same
*initial group* — the cluster-design cost of a group is dictated by its
largest tenant, so mixing sizes wastes nodes.

**Step 2** splits each initial group into tenant-groups: seed a new group
with the least-active remaining tenant, then repeatedly add the tenant
``T_best`` that minimizes the increase of the time-percentage histogram of
concurrent-active counts — compared lexicographically from the highest
concurrency level downward, exactly the cascade of tie-breaks walked
through in Figure 5.3.  Stop (close the group and open a new one) when
adding ``T_best`` would drop the group's TTP below ``P``.

Implementation notes (DESIGN.md §5):

* Adding tenant ``c`` moves each of its active epochs from concurrency
  level ``v`` to ``v + 1``, so the candidate's histogram *after* insertion
  is determined by ``bincount(counts[c.epochs])``; comparing those
  bincounts highest-level-first is exactly the paper's rule.
* Instead of recomputing that bincount per candidate per insertion, the
  solver keeps every candidate's histogram in one matrix
  ``hist[candidate, level]`` and updates it incrementally.  An inverted
  index (CSR over epochs, built once per initial group by counting sort)
  lists the candidates active at each epoch.  Inserting ``T_best`` moves
  each of its epochs ``e`` from level ``counts[e]`` to ``counts[e] + 1``
  for exactly the candidates listed at ``e``: one ``bincount`` over the
  gathered ``(candidate, level)`` pairs is the delta, applied as
  ``hist -= delta; hist[:, 1:] += delta[:, :-1]``.  The level columns
  start at a small capacity and double as a group grows.
* ``T_best`` is found by filtering the remaining candidates column by
  column, from the group's highest level down, keeping the rows at each
  column's minimum.  Candidates are indexed in ``(active_epoch_count,
  tenant_id)`` order, so the first survivor carries the residual
  tie-breaks (identical histograms, Figure 5.3d): fewer active epochs,
  then the lower tenant id — matching the figure, where the one-epoch
  ``T_6`` is chosen over the six-epoch ``T_1``.
* Memory: the index holds one entry per active tenant-epoch, so its
  offsets and owners take the narrowest integer types that fit (``int32``
  offsets, ``uint16`` owners at benchmark scale), and the prefix-sum
  array doubles as the scatter cursor rather than being copied.
* Feasibility of adding ``c`` needs only the epochs where the group count
  already equals ``R``: each contributes one new violating epoch.
* When ``T_best`` is infeasible the group is closed *without* scanning for
  another feasible tenant — the literal Goto of Algorithm 2 (line 11).
* The scalar per-candidate formulation is kept under ``tests/`` as the
  oracle the differential tests compare against.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..workload.activity import ActivityItem, concurrency_counts
from .livbp import TTP_TOL, GroupingSolution, LIVBPwFCProblem

__all__ = ["two_step_grouping", "initial_groups", "pack_initial_group"]


def initial_groups(items: Sequence[ActivityItem]) -> dict[int, list[ActivityItem]]:
    """Step 1: partition items by requested node count (homogeneous sizes)."""
    groups: dict[int, list[ActivityItem]] = {}
    for item in items:
        groups.setdefault(item.nodes_requested, []).append(item)
    return groups


#: Initial column capacity of the per-group histogram matrix; doubled
#: whenever a growing group's concurrency could reach the last column.
_INITIAL_LEVELS = 16


def _epoch_index(
    ordered: Sequence[ActivityItem], num_epochs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Epoch -> candidate inverted index, as CSR over sort positions.

    ``owners[offsets[e]:offsets[e + 1]]`` lists, ascending, the positions
    in ``ordered`` of the candidates active at epoch ``e``.  Built by a
    counting sort (per-epoch degrees, prefix sum, one cursor scatter per
    candidate) rather than an argsort over all epochs, which would hold a
    second full-size copy.  Both arrays take the narrowest integer type
    that holds their values (``int32`` offsets and ``uint16`` owners at
    benchmark scale).
    """
    degrees = concurrency_counts((item.epochs for item in ordered), num_epochs)
    total = int(degrees.sum(dtype=np.int64))
    offsets = np.zeros(num_epochs + 1, dtype=np.min_scalar_type(-total))
    # offsets[e + 1] starts at e's first slot and is e's scatter cursor, so
    # the scatter leaves it at e's end: the CSR offsets, with no cursor copy.
    np.cumsum(degrees[:-1], out=offsets[2:])
    del degrees
    owners = np.empty(total, dtype=np.min_scalar_type(len(ordered)))
    cursor = offsets[1:]
    for position, item in enumerate(ordered):
        owners[cursor[item.epochs]] = position
        cursor[item.epochs] += 1
    return offsets, owners


def pack_initial_group(
    items: Sequence[ActivityItem],
    num_epochs: int,
    replication_factor: int,
    sla_fraction: float,
) -> list[list[int]]:
    """Step 2 for one homogeneous initial group.

    Initial groups are independent of each other — Step 2 never moves a
    tenant across node-size classes — so :func:`two_step_grouping` packs
    them one at a time and concatenates the results in size order.
    """
    d = num_epochs
    r = replication_factor
    p = sla_fraction
    # Sort position is the (active_epoch_count, tenant_id) tie-break.
    ordered = sorted(items, key=lambda it: (it.active_epoch_count, it.tenant_id))
    n = len(ordered)
    sizes = np.array([item.active_epoch_count for item in ordered], dtype=np.int64)
    offsets, owners = _epoch_index(ordered, d)
    alive = np.ones(n, dtype=bool)
    # hist[c, v]: number of c's epochs at which the open group's count is v.
    hist = np.zeros((n, _INITIAL_LEVELS), dtype=np.int64)
    groups: list[list[int]] = []
    head = 0
    while head < n:
        counts = np.zeros(d, dtype=owners.dtype)
        hist[:] = 0
        hist[:, 0] = sizes
        members: list[int] = []
        violations = 0
        best = head
        while True:
            epochs = ordered[best].epochs
            new_violations = violations + int(np.count_nonzero(counts[epochs] == r))
            if members and (d - new_violations) / d + TTP_TOL < p:
                # Algorithm 2 line 11: close this group, start a new one,
                # without probing whether another candidate would still fit.
                break
            if hist.shape[1] <= len(members) + 1:
                hist = np.hstack([hist, np.zeros_like(hist)])
            _insert(hist, counts, epochs, offsets, owners)
            violations = new_violations
            members.append(best)
            alive[best] = False
            survivors = np.flatnonzero(alive)
            if not survivors.size:
                break
            # Compare the post-insertion histograms highest level first.
            for level in range(len(members), -1, -1):
                column = hist[survivors, level]
                survivors = survivors[column == column.min()]
                if survivors.size == 1:
                    break
            best = int(survivors[0])
        groups.append([ordered[c].tenant_id for c in members])
        while head < n and not alive[head]:
            head += 1
    return groups


def _insert(
    hist: np.ndarray,
    counts: np.ndarray,
    epochs: np.ndarray,
    offsets: np.ndarray,
    owners: np.ndarray,
) -> None:
    """Add a tenant active at ``epochs`` to the open group, updating ``hist``.

    Each epoch ``e`` moves from level ``counts[e]`` to ``counts[e] + 1`` for
    every candidate active at ``e``, so one bincount of ``(candidate,
    level)`` pairs gathered through the inverted index is the whole delta.
    """
    if not epochs.size:
        return
    starts = offsets[epochs]
    lengths = offsets[epochs + 1] - starts
    run_starts = np.cumsum(lengths, dtype=offsets.dtype) - lengths
    gathered = np.repeat(starts - run_starts, lengths)
    gathered += np.arange(gathered.size, dtype=gathered.dtype)
    rows, levels = hist.shape
    keys = owners[gathered].astype(np.int64)
    del gathered
    keys *= levels
    keys += np.repeat(counts[epochs], lengths)
    delta = np.bincount(keys, minlength=rows * levels).reshape(rows, levels)
    hist -= delta
    hist[:, 1:] += delta[:, :-1]
    counts[epochs] += 1


def two_step_grouping(problem: LIVBPwFCProblem) -> GroupingSolution:
    """Run Algorithm 2 on a LIVBPwFC instance."""
    by_size = initial_groups(problem.items)
    started = time.perf_counter()  # thrifty: noqa[THRA101] solve_time_s is report-only metadata
    all_groups: list[list[int]] = []
    for nodes in sorted(by_size):
        all_groups.extend(
            pack_initial_group(
                by_size[nodes],
                problem.num_epochs,
                problem.replication_factor,
                problem.sla_fraction,
            )
        )
    elapsed = time.perf_counter() - started
    return GroupingSolution(problem, all_groups, solver="2-step", solve_seconds=elapsed)
