"""The Tenant Activity Monitor (Chapter 3, component (a); Chapter 5.1).

"The Tenant Activity Monitor automatically collects the query logs of the
deployed MPPDBs, derives the tenant activities, and summarizes the query
characteristics of individual tenants."

Per tenant group it tracks the concurrent-active-tenant count as a
piecewise-constant signal (queries starting/finishing drive the
transitions, using the strong notion of activity) and exposes:

* **RT-TTP** — the run-time TTP over a sliding window (default 24 h): the
  fraction of window time with at most ``R`` concurrently active tenants.
  Elastic scaling triggers when it drops below ``P``.
* Per-tenant busy intervals within a window, discretized into
  :class:`~repro.workload.activity.ActivityItem` s — the input of the
  over-active-tenant identification algorithm.

Every reader looks back one window from the present, so the runtime
prunes the monitor to that window at each tick (:meth:`GroupActivityMonitor.prune`):
its memory follows live activity, not the replay's horizon.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import TYPE_CHECKING, Optional

from ..errors import DeploymentError
from ..simulation.metrics import StepSeries
from ..units import DAY
from ..workload.activity import ActivityItem, active_epoch_indices
from ..workload.logs import merge_intervals

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.metrics import BoundGauge
    from ..obs.observer import Observer

__all__ = ["GroupActivityMonitor", "TenantActivityMonitor"]


class GroupActivityMonitor:
    """Live activity tracking for one tenant group."""

    def __init__(self, group_name: str, replication_factor: int, start_time: float = 0.0) -> None:
        if replication_factor < 1:
            raise DeploymentError("replication_factor must be >= 1")
        self.group_name = group_name
        self.replication_factor = replication_factor
        self._concurrency = StepSeries(0.0, start_time)
        self._running: dict[int, int] = {}
        self._open_since: dict[int, float] = {}
        # Each tenant's closed busy intervals, in time order: starts, ends.
        self._closed: dict[int, tuple[array[float], array[float]]] = {}
        self._nodes_of: dict[int, int] = {}
        self._excluded: set[int] = set()
        self._start_time = start_time
        # Bound by observe_with when its observer is enabled.
        self._concurrent_active: Optional["BoundGauge"] = None

    @property
    def concurrency(self) -> StepSeries:
        """The concurrent-active-tenant signal."""
        return self._concurrency

    def observe_with(self, observer: "Observer") -> None:
        """Mirror every concurrency change onto the observer's gauge.

        The observer is asked once, here, whether it is enabled; a disabled
        one binds nothing, and no concurrency change reads it again.
        """
        if observer.enabled:
            self._concurrent_active = observer.concurrent_active.labels(group=self.group_name)

    def _sample_concurrency(self, time: float) -> None:
        gauge = self._concurrent_active
        if gauge is not None:
            gauge.set(time, self._concurrency.value_at_end())

    def register_tenant(self, tenant_id: int, nodes_requested: int) -> None:
        """Declare a tenant of this group (needed for activity items)."""
        self._nodes_of[tenant_id] = nodes_requested
        if tenant_id not in self._closed:
            self._closed[tenant_id] = (array("d"), array("d"))

    def exclude_tenant(self, tenant_id: int, time: float) -> None:
        """Stop counting a tenant toward the group's concurrency.

        After lightweight elastic scaling "the tenant-group excluded all
        the activities of the removed tenant" (§7.5), which is what lets
        its RT-TTP recover above ``P``.  If the tenant is active right
        now, its open interval closes at ``time``.
        """
        if tenant_id not in self._nodes_of:
            raise DeploymentError(f"tenant {tenant_id} is not registered with {self.group_name!r}")
        if tenant_id in self._excluded:
            return
        self._excluded.add(tenant_id)
        if tenant_id in self._running:
            del self._running[tenant_id]
            self._close(tenant_id, time)

    @property
    def excluded_tenants(self) -> set[int]:
        """Tenants no longer counted toward group concurrency (copy)."""
        return set(self._excluded)

    def on_query_start(self, tenant_id: int, time: float) -> None:
        """A query of the tenant started somewhere in the group."""
        if tenant_id not in self._nodes_of:
            raise DeploymentError(f"tenant {tenant_id} is not registered with {self.group_name!r}")
        if tenant_id in self._excluded:
            return
        count = self._running.get(tenant_id, 0)
        self._running[tenant_id] = count + 1
        if count == 0:
            self._open_since[tenant_id] = time
            self._concurrency.increment(time, 1.0)
            self._sample_concurrency(time)

    def on_query_finish(self, tenant_id: int, time: float) -> None:
        """A query of the tenant finished."""
        if tenant_id in self._excluded:
            return
        count = self._running.get(tenant_id, 0)
        if count <= 0:
            raise DeploymentError(f"tenant {tenant_id} has no running queries to finish")
        if count == 1:
            del self._running[tenant_id]
            self._close(tenant_id, time)
        else:
            self._running[tenant_id] = count - 1

    def _close(self, tenant_id: int, time: float) -> None:
        """End the tenant's open busy interval at ``time``."""
        starts, ends = self._closed[tenant_id]
        starts.append(self._open_since.pop(tenant_id))
        ends.append(time)
        self._concurrency.increment(time, -1.0)
        self._sample_concurrency(time)

    def active_tenants(self) -> set[int]:
        """Tenants with at least one query currently running."""
        return set(self._running)

    def rt_ttp(self, now: float, window_s: float = DAY) -> float:
        """Run-time TTP: fraction of the past window with <= R active tenants."""
        start = max(self._start_time, now - window_s)
        if now <= start:
            return 1.0
        return self._concurrency.fraction_time_at_most(self.replication_factor, start, now)

    def prune(self, before: float) -> None:
        """Forget the activity that ended at or before ``before``.

        Drops the concurrency change points superseded by ``before`` and
        the closed busy intervals ending by then.  RT-TTP, busy intervals
        and activity items over any window starting at or after
        ``before`` read exactly as without the prune.
        """
        self._concurrency.drop_before(before)
        for starts, ends in self._closed.values():
            gone = bisect_right(ends, before)
            if gone:
                del starts[:gone]
                del ends[:gone]

    def tenant_busy_intervals(self, tenant_id: int, start: float, end: float) -> list[tuple[float, float]]:
        """A tenant's merged busy intervals clipped to ``[start, end)``."""
        if tenant_id not in self._nodes_of:
            raise DeploymentError(f"tenant {tenant_id} is not registered with {self.group_name!r}")
        starts, ends = self._closed[tenant_id]
        clipped: list[tuple[float, float]] = []
        for i in range(bisect_right(ends, start), len(ends)):
            s = starts[i]
            if s >= end:
                break
            clipped.append((max(s, start), min(ends[i], end)))
        opened = self._open_since.get(tenant_id)
        if opened is not None and end > start and opened < end:
            clipped.append((max(opened, start), end))
        return merge_intervals(clipped)

    def activity_items(self, start: float, end: float, epoch_size: float) -> list[ActivityItem]:
        """Discretized recent activity of all registered tenants.

        Epoch indices are relative to ``start`` — the input format of the
        over-active-tenant identification algorithm (Chapter 5.1).
        """
        items = []
        for tenant_id, nodes in sorted(self._nodes_of.items()):
            if tenant_id in self._excluded:
                continue
            intervals = [
                (s - start, e - start)
                for s, e in self.tenant_busy_intervals(tenant_id, start, end)
            ]
            items.append(
                ActivityItem(
                    tenant_id=tenant_id,
                    nodes_requested=nodes,
                    epochs=active_epoch_indices(intervals, epoch_size),
                )
            )
        return items


class TenantActivityMonitor:
    """Service-wide monitor: one :class:`GroupActivityMonitor` per group."""

    def __init__(self, replication_factor: int, start_time: float = 0.0) -> None:
        self._replication_factor = replication_factor
        self._start_time = start_time
        self._groups: dict[str, GroupActivityMonitor] = {}

    def group(self, group_name: str) -> GroupActivityMonitor:
        """Get (or lazily create) a group's monitor."""
        monitor = self._groups.get(group_name)
        if monitor is None:
            monitor = GroupActivityMonitor(
                group_name, self._replication_factor, self._start_time
            )
            self._groups[group_name] = monitor
        return monitor

    def groups(self) -> dict[str, GroupActivityMonitor]:
        """All group monitors (copy)."""
        return dict(self._groups)
