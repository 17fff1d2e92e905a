"""Epoch discretization of tenant activity.

The tenant-grouping algorithms of Chapter 5 represent each tenant's
activity as a vector over ``d`` fixed-width time epochs: ``a_k = 1`` iff
the tenant has a query running during epoch ``k`` (the strong notion of
activity from §4.3).  Because activity is sparse (~10 % of epochs), this
module stores per-tenant *sorted active-epoch index arrays* instead of
dense 0/1 vectors; :class:`ActivityMatrix` bundles them with the epoch
count ``d`` and the tenants' node requests — exactly the input of the
LIVBPwFC problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..errors import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .composer import ComposedWorkload

__all__ = [
    "active_epoch_indices",
    "ActivityItem",
    "ActivityMatrix",
    "active_tenant_ratio",
    "concurrency_counts",
    "concurrency_profile",
    "mean_active_fraction",
    "sorted_union",
]


def sorted_union(chunks: Sequence[np.ndarray]) -> np.ndarray:
    """Sorted unique ``int64`` union of epoch-index chunks.

    Concatenates, sorts in place and drops each element equal to its
    predecessor.  The chunks are usually already-sorted runs (one per busy
    interval or session), which the stable sort merges in near-linear time;
    that is far cheaper than ``np.unique``'s hash-based path.
    """
    if not chunks:
        return np.empty(0, dtype=np.int64)
    merged = np.concatenate(chunks).astype(np.int64, copy=False)
    merged.sort(kind="stable")
    if merged.size < 2:
        return merged
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def concurrency_counts(epoch_sets: Iterable[np.ndarray], num_epochs: int) -> np.ndarray:
    """Per-epoch number of the given sorted unique epoch sets covering it (``int32``)."""
    counts = np.zeros(num_epochs, dtype=np.int32)
    for epochs in epoch_sets:
        counts[epochs] += 1
    return counts


def active_epoch_indices(
    intervals: Iterable[tuple[float, float]], epoch_size: float
) -> np.ndarray:
    """Sorted unique epoch indices touched by the given busy intervals.

    Epochs are half-open ``[k*E, (k+1)*E)``; an interval ending exactly on a
    boundary does not touch the next epoch, while a zero-length interval
    still marks the epoch containing its instant.
    """
    if epoch_size <= 0:
        raise WorkloadError(f"epoch size must be positive, got {epoch_size!r}")
    chunks: list[np.ndarray] = []
    for start, end in intervals:
        if end < start:
            raise WorkloadError(f"interval end {end!r} precedes start {start!r}")
        if start < 0:
            raise WorkloadError(f"intervals must be non-negative, got start {start!r}")
        first = int(start // epoch_size)
        last = int(np.ceil(end / epoch_size)) if end > start else first + 1
        chunks.append(np.arange(first, max(last, first + 1), dtype=np.int64))
    return sorted_union(chunks)


@dataclass(frozen=True)
class ActivityItem:
    """One LIVBPwFC item: a tenant's node request and active epochs."""

    tenant_id: int
    nodes_requested: int
    epochs: np.ndarray

    def __post_init__(self) -> None:
        if self.nodes_requested < 1:
            raise WorkloadError("nodes_requested must be >= 1")
        epochs = np.asarray(self.epochs, dtype=np.int64)
        if epochs.ndim != 1:
            raise WorkloadError("epochs must be a 1-d array")
        if epochs.size and (np.any(np.diff(epochs) <= 0) or epochs[0] < 0):
            raise WorkloadError("epochs must be sorted, unique and non-negative")
        object.__setattr__(self, "epochs", epochs)

    @property
    def active_epoch_count(self) -> int:
        """Number of epochs the tenant is active in."""
        return int(self.epochs.size)


class ActivityMatrix:
    """All tenants' activity at one epoch size (the grouping input)."""

    def __init__(self, items: Sequence[ActivityItem], num_epochs: int) -> None:
        if num_epochs < 1:
            raise WorkloadError("num_epochs must be >= 1")
        ids = [item.tenant_id for item in items]
        if len(set(ids)) != len(ids):
            raise WorkloadError("tenant ids must be unique")
        for item in items:
            if item.epochs.size and item.epochs[-1] >= num_epochs:
                raise WorkloadError(
                    f"tenant {item.tenant_id} has epochs beyond d={num_epochs}"
                )
        self.items: tuple[ActivityItem, ...] = tuple(items)
        self.num_epochs = int(num_epochs)
        self._by_id = {item.tenant_id: item for item in self.items}

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def item(self, tenant_id: int) -> ActivityItem:
        """Look up one tenant's item."""
        try:
            return self._by_id[tenant_id]
        except KeyError:
            raise WorkloadError(f"unknown tenant {tenant_id!r}") from None

    @classmethod
    def from_workload(
        cls, workload: "ComposedWorkload", epoch_size: float
    ) -> "ActivityMatrix":
        """Discretize a composed workload at the given epoch size."""
        d = workload.num_epochs(epoch_size)
        items = [
            ActivityItem(
                tenant_id=tenant.tenant_id,
                nodes_requested=tenant.nodes_requested,
                epochs=workload.activity_epochs(tenant.tenant_id, epoch_size),
            )
            for tenant in workload.tenants
        ]
        return cls(items, d)

    def total_nodes_requested(self) -> int:
        """``N`` — the sum of nodes requested by all tenants."""
        return sum(item.nodes_requested for item in self.items)

    def concurrency_profile(self) -> np.ndarray:
        """Per-epoch count of concurrently active tenants."""
        return concurrency_profile(self.items, self.num_epochs)

    def dense_vector(self, tenant_id: int) -> np.ndarray:
        """The 0/1 activity vector of one tenant (for tests / tiny inputs)."""
        vec = np.zeros(self.num_epochs, dtype=np.int8)
        vec[self.item(tenant_id).epochs] = 1
        return vec


def concurrency_profile(items: Iterable[ActivityItem], num_epochs: int) -> np.ndarray:
    """Per-epoch active-tenant count over an arbitrary item subset."""
    return concurrency_counts((item.epochs for item in items), num_epochs)


def active_tenant_ratio(matrix: ActivityMatrix, conditional: bool = True) -> float:
    """Average fraction of tenants concurrently active (see ComposedWorkload)."""
    return mean_active_fraction(matrix.concurrency_profile(), len(matrix), conditional)


def mean_active_fraction(counts: np.ndarray, num_tenants: int, conditional: bool = True) -> float:
    """Mean active count over ``num_tenants``; only busy epochs count when ``conditional``."""
    if conditional:
        counts = counts[counts > 0]
        if counts.size == 0:
            return 0.0
    return float(counts.mean()) / num_tenants
