"""First-Fit-Decreasing baseline for LIVBPwFC.

"Recent work [18] states that First-Fit-Decreasing (FFD) is a practical
heuristic to get approximate solutions [for vector bin packing].  FFD
suggests to sort all items according to a scalar value and inserts the
items into a bin according to that order.  An item is inserted into a new
bin if the current bin is full...  However, FFD was not especially designed
for the LIVBPwFC problem and it did not take into account the fuzzy
capacity constraint and the largest item." (Chapter 5)

The default baseline matches the paper's: items are sorted by the [18]
product-of-dimensions scalar collapsed over the *activity vector only* —
the node request (the *largest item*, which actually dictates a bin's
cost under TDD) plays no role in the ordering — and first-fit inserted
into the earliest bin whose fuzzy capacity still holds (bins must satisfy
the problem's constraint or the solution would be invalid).  That size
blindness is exactly why the 2-step heuristic saves 3.6–11.1 % more nodes
(§7.3).

Two knobs expose the neighbouring design points for the ablation benches:
``sort_key="volume"`` adds size awareness to the ordering (a strengthened
FFD), and ``fuzzy=False`` downgrades the bin-full test to the classic
hard vector-bin-packing capacity (no epoch may exceed ``R`` — far too
conservative for this problem, as the ablation shows).
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..errors import PackingError
from ..workload.activity import ActivityItem
from .livbp import TTP_TOL, GroupingSolution, LIVBPwFCProblem

__all__ = ["ffd_grouping", "FFD_SORT_KEYS"]


def _volume_key(item: ActivityItem) -> float:
    """Size-aware scalar: nodes x active epochs (strengthened variant)."""
    return float(item.nodes_requested) * max(item.active_epoch_count, 1)


def _nodes_key(item: ActivityItem) -> float:
    """Pure size scalar: nodes requested only."""
    return float(item.nodes_requested)


def _activity_key(item: ActivityItem) -> float:
    """Activity scalar — the paper-faithful default (largest item ignored)."""
    return float(item.active_epoch_count)


#: Available FFD sort scalars, by name.
FFD_SORT_KEYS: dict[str, Callable[[ActivityItem], float]] = {
    "volume": _volume_key,
    "nodes": _nodes_key,
    "activity": _activity_key,
}


class _Bin:
    """Mutable first-fit bin state."""

    __slots__ = ("tenant_ids", "counts", "violations")

    def __init__(self, num_epochs: int) -> None:
        self.tenant_ids: list[int] = []
        # int16 suffices (a bin never holds 32k concurrently active
        # tenants) and halves memory — FFD keeps every bin's counter
        # alive, which matters at sub-second epoch sizes.
        self.counts = np.zeros(num_epochs, dtype=np.int16)
        self.violations = 0

    def fits_hard(self, item: ActivityItem, replication_factor: int) -> bool:
        """Classic VBP full-check: no epoch may exceed R."""
        if not item.epochs.size:
            return True
        return not bool(np.any(self.counts[item.epochs] >= replication_factor))

    def fits_fuzzy(self, item: ActivityItem, replication_factor: int, min_ok_fraction: float) -> bool:
        """Fuzzy-capacity check: at least P% of epochs stay <= R."""
        new_violations = self.violations
        if item.epochs.size:
            new_violations += int(
                np.count_nonzero(self.counts[item.epochs] == replication_factor)
            )
        d = self.counts.size
        return (d - new_violations) / d + TTP_TOL >= min_ok_fraction

    def add(self, item: ActivityItem, replication_factor: int) -> None:
        if item.epochs.size:
            self.violations += int(
                np.count_nonzero(self.counts[item.epochs] == replication_factor)
            )
        self.counts[item.epochs] += 1
        self.tenant_ids.append(item.tenant_id)


def ffd_grouping(
    problem: LIVBPwFCProblem,
    sort_key: str = "activity",
    fuzzy: bool = True,
) -> GroupingSolution:
    """Run FFD on a LIVBPwFC instance.

    ``sort_key`` selects the decreasing-sort scalar (see
    :data:`FFD_SORT_KEYS`); ``fuzzy=False`` downgrades the bin-full test
    from the fuzzy ``P%`` constraint to the classic hard capacity.  The
    default (``"activity"``, fuzzy) is the paper's baseline.
    """
    try:
        key = FFD_SORT_KEYS[sort_key]
    except KeyError:
        raise PackingError(
            f"unknown FFD sort key {sort_key!r}; options: {sorted(FFD_SORT_KEYS)}"
        ) from None
    started = time.perf_counter()  # thrifty: noqa[THRA101] solve_time_s is report-only metadata
    ordered = sorted(
        problem.items, key=lambda item: (-key(item), item.tenant_id)
    )
    bins: list[_Bin] = []
    for item in ordered:
        placed = False
        for bin_ in bins:
            if fuzzy:
                ok = bin_.fits_fuzzy(item, problem.replication_factor, problem.sla_fraction)
            else:
                ok = bin_.fits_hard(item, problem.replication_factor)
            if ok:
                bin_.add(item, problem.replication_factor)
                placed = True
                break
        if not placed:
            bin_ = _Bin(problem.num_epochs)
            bin_.add(item, problem.replication_factor)
            bins.append(bin_)
    elapsed = time.perf_counter() - started
    solver = f"ffd:{sort_key}" if fuzzy else f"ffd-hard:{sort_key}"
    return GroupingSolution(
        problem,
        [bin_.tenant_ids for bin_ in bins],
        solver=solver,
        solve_seconds=elapsed,
    )
