"""Step 2 of the log-generation methodology: multi-tenant log composition.

For each tenant (§7.1): draw its node size from a Zipf(θ) distribution,
assign a time-zone offset ``O`` (imitating Seattle ... Sydney), and per
workday stitch three randomly picked 3-hour session logs from Step 1's
library — the morning session at ``O``, the afternoon session after lunch,
and an evening reporting session several hours later.  Weekends and two
shared public holidays (same days for tenants in the same time zone) are
inactive.

The §7.4 higher-active-ratio variants are produced by composing with the
modified :class:`~repro.config.LogGenerationConfig` factories
(``north_america_only`` / ``without_lunch`` / ``single_timezone``).

The composed workload stores only *which* library sessions each tenant
picked and their time shifts; per-tenant logs and activity-epoch sets are
materialized on demand, so composing thousands of tenants stays cheap.
The replay goes further: :meth:`ComposedWorkload.lazy_log` counts a
tenant's submissions before a horizon by binary search and builds each
record only when the replay asks for it.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from ..config import EvaluationConfig
from ..errors import WorkloadError
from ..rng import RngFactory
from ..units import DAY, HOUR
from .activity import (
    active_epoch_indices,
    concurrency_counts,
    mean_active_fraction,
    sorted_union,
)
from .distributions import sample_node_sizes
from .generator import SessionLibrary, SessionOrder
from .logs import QueryRecord, Submissions, TenantLog, log_order
from .tenant import TenantSpec

__all__ = ["SessionPick", "ComposedWorkload", "LazyTenantLog", "MultiTenantLogComposer"]

_EPOCH_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class SessionPick:
    """One library session placed on a tenant's timeline."""

    node_size: int
    session_index: int
    shift_s: float

    def __post_init__(self) -> None:
        if self.shift_s < 0:
            raise WorkloadError(f"session shift must be non-negative, got {self.shift_s!r}")


class _PickRun(NamedTuple):
    """The records one pick submits before a horizon, in log order."""

    first_s: float
    index: int
    last_s: float
    records: Iterator[QueryRecord]


def _shifted_prefix(order: SessionOrder, shift_s: float, count: int) -> Iterator[QueryRecord]:
    """The first ``count`` records of a session in log order, shifted into place.

    A shift can round two distinct submit times to one float; the user and
    template then decide their order, so such a prefix is sorted again.
    """
    head = order.records[:count]
    if order.min_gap <= 2.0 * math.ulp(order.times[count - 1] + shift_s):
        return iter(sorted((r.shifted(shift_s) for r in head), key=log_order))
    return (r.shifted(shift_s) for r in head)


def _in_log_order(runs: list[_PickRun]) -> Iterator[Iterator[QueryRecord]]:
    """Group pick runs whose time spans meet and merge each group stably.

    Runs of different groups never interleave, so the groups are chained
    in time order; within a group, ``heapq.merge`` over the runs in pick
    order breaks equal keys by pick order, as the tenant log's stable
    sort does.
    """
    runs.sort(key=lambda run: (run.first_s, run.index))
    start = 0
    while start < len(runs):
        stop, last_s = start + 1, runs[start].last_s
        while stop < len(runs) and runs[stop].first_s <= last_s:
            last_s = max(last_s, runs[stop].last_s)
            stop += 1
        if stop - start == 1:
            yield runs[start].records
        else:
            group = sorted(runs[start:stop], key=lambda run: run.index)
            yield heapq.merge(*(run.records for run in group), key=log_order)
        start = stop


class LazyTenantLog:
    """A composed tenant's log, read without materializing it.

    Equivalent to ``ComposedWorkload.tenant_log`` for the replay and for
    billing, but it counts the records before a horizon by binary search
    over each session's cached submit times and builds each record when
    the iterator reaches it.
    """

    def __init__(
        self, tenant: TenantSpec, picks: tuple[SessionPick, ...], library: SessionLibrary
    ) -> None:
        self.tenant = tenant
        self.tenant_id = tenant.tenant_id
        self._picks = picks
        self._library = library

    def total_busy_seconds(self) -> float:
        """Total time the tenant is active, exactly ``TenantLog.total_busy_seconds``.

        Builds no record: intervals shift with ``QueryRecord.shifted``'s float
        operations; the union's lengths sum in ``merge_intervals``' order.
        """
        orders = [(self._library.replay_order(p.node_size, p.session_index), p.shift_s)
                  for p in self._picks]
        start = np.concatenate([np.add(o.times, shift) for o, shift in orders] or [[]])
        if not start.size:
            return 0.0
        end = start + np.concatenate([[r.latency_s for r in o.records] for o, __ in orders])
        by_start = np.lexsort((end, start))
        start, end = start[by_start], np.maximum.accumulate(end[by_start])
        # A busy period opens where an interval starts after all earlier ones
        # end, and closes at the running maximum just before the next opens.
        first = np.flatnonzero(np.r_[True, start[1:] > end[:-1]])
        return sum((end[np.r_[first[1:] - 1, -1]] - start[first]).tolist())

    def submissions(self, until: float) -> Submissions:
        """The records the tenant submits before ``until``, in log order."""
        runs: list[_PickRun] = []
        count = 0
        for index, pick in enumerate(self._picks):
            shift = pick.shift_s
            if shift >= until:
                continue
            order = self._library.replay_order(pick.node_size, pick.session_index)
            times = order.times
            # ``shift + t`` is the float ``QueryRecord.shifted`` computes.
            n = bisect_left(times, until, key=shift.__add__)
            if n:
                count += n
                runs.append(
                    _PickRun(
                        times[0] + shift, index, times[n - 1] + shift,
                        _shifted_prefix(order, shift, n),
                    )
                )
        return Submissions(count, chain.from_iterable(_in_log_order(runs)))


class ComposedWorkload:
    """The composed multi-tenant activity log."""

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        picks: dict[int, tuple[SessionPick, ...]],
        library: SessionLibrary,
        horizon_s: float,
    ) -> None:
        if horizon_s <= 0:
            raise WorkloadError("horizon must be positive")
        self.tenants: tuple[TenantSpec, ...] = tuple(tenants)
        self._picks = picks
        self.library = library
        self.horizon_s = float(horizon_s)
        ids = [t.tenant_id for t in self.tenants]
        if len(set(ids)) != len(ids):
            raise WorkloadError("tenant ids must be unique")
        missing = [i for i in ids if i not in picks]
        if missing:
            raise WorkloadError(f"tenants without picks: {missing[:5]}")
        self._by_id = {t.tenant_id: t for t in self.tenants}

    def __len__(self) -> int:
        return len(self.tenants)

    @property
    def tenant_ids(self) -> list[int]:
        """All tenant ids, in composition order."""
        return [t.tenant_id for t in self.tenants]

    def tenant(self, tenant_id: int) -> TenantSpec:
        """Look up a tenant descriptor."""
        try:
            return self._by_id[tenant_id]
        except KeyError:
            raise WorkloadError(f"unknown tenant {tenant_id!r}") from None

    def picks_of(self, tenant_id: int) -> tuple[SessionPick, ...]:
        """The library sessions composing a tenant's log."""
        self.tenant(tenant_id)
        return self._picks[tenant_id]

    def total_nodes_requested(self) -> int:
        """Sum of node counts requested by all tenants (``N`` in Ch. 4.1)."""
        return sum(t.nodes_requested for t in self.tenants)

    def num_epochs(self, epoch_size: float) -> int:
        """Number of epochs covering the composition horizon."""
        if epoch_size <= 0:
            raise WorkloadError("epoch size must be positive")
        return int(np.ceil(self.horizon_s / epoch_size))

    def tenant_log(self, tenant_id: int) -> TenantLog:
        """Materialize a tenant's full query log (records shifted into place)."""
        spec = self.tenant(tenant_id)
        records: list[QueryRecord] = []
        for pick in self._picks[tenant_id]:
            session = self.library.session(pick.node_size, pick.session_index)
            records.extend(r.shifted(pick.shift_s) for r in session.records)
        return TenantLog(spec, records)

    def lazy_log(self, tenant_id: int) -> LazyTenantLog:
        """A tenant's log as a lazy :class:`~repro.workload.logs.SubmissionSource`."""
        return LazyTenantLog(self.tenant(tenant_id), self._picks[tenant_id], self.library)

    def activity_epochs(self, tenant_id: int, epoch_size: float) -> np.ndarray:
        """Sorted active-epoch indices of a tenant at the given epoch size.

        Uses the library's cached per-session epoch sets when the session
        shift is epoch-aligned (true for every Table 7.1 epoch size, since
        shifts are whole hours); falls back to exact interval-based
        discretization otherwise.
        """
        d = self.num_epochs(epoch_size)
        chunks: list[np.ndarray] = []
        for pick in self._picks[tenant_id]:
            ratio = pick.shift_s / epoch_size
            if abs(ratio - round(ratio)) < _EPOCH_ALIGN_TOL:
                base = self.library.epoch_indices(pick.node_size, pick.session_index, epoch_size)
                chunks.append(base + int(round(ratio)))
            else:
                session = self.library.session(pick.node_size, pick.session_index)
                shifted = [
                    (start + pick.shift_s, end + pick.shift_s)
                    for start, end in session.busy_intervals()
                ]
                chunks.append(active_epoch_indices(shifted, epoch_size))
        indices = sorted_union(chunks)
        return indices[: int(np.searchsorted(indices, d))]

    def concurrency_profile(self, epoch_size: float, tenant_ids: Optional[Iterable[int]] = None) -> np.ndarray:
        """Per-epoch count of concurrently active tenants (dense ``int32``)."""
        ids = self.tenant_ids if tenant_ids is None else list(tenant_ids)
        return concurrency_counts(
            (self.activity_epochs(tenant_id, epoch_size) for tenant_id in ids),
            self.num_epochs(epoch_size),
        )

    def active_tenant_ratio(self, epoch_size: float = 60.0, conditional: bool = True) -> float:
        """Average fraction of tenants concurrently active.

        With ``conditional=True`` (default) the average is taken over epochs
        where at least one tenant is active — the reading under which the
        §7.4 variants (squeezing activity into fewer wall-clock hours)
        *raise* the ratio while leaving each tenant's total activity
        unchanged; see DESIGN.md §5 and EXPERIMENTS.md.
        """
        return mean_active_fraction(
            self.concurrency_profile(epoch_size), len(self.tenants), conditional
        )

    def subset(self, tenant_ids: Iterable[int]) -> "ComposedWorkload":
        """A new workload restricted to the given tenants (same library)."""
        wanted = list(tenant_ids)
        tenants = [self.tenant(i) for i in wanted]
        picks = {i: self._picks[i] for i in wanted}
        return ComposedWorkload(tenants, picks, self.library, self.horizon_s)


class MultiTenantLogComposer:
    """Composes a :class:`ComposedWorkload` from a session library."""

    def __init__(self, config: EvaluationConfig, library: SessionLibrary) -> None:
        for node_size in config.node_sizes:
            if node_size not in library.node_sizes:
                raise WorkloadError(
                    f"library lacks sessions for node size {node_size} "
                    f"(has {library.node_sizes})"
                )
        self._config = config
        self._library = library
        self._rngs = RngFactory(config.seed).spawn("composition")

    def _holidays_for_zone(self, tz_offset: int, workdays: list[int]) -> set[int]:
        """Two shared public-holiday workdays for one time zone."""
        logs = self._config.logs
        count = min(logs.holiday_weekdays, len(workdays))
        if count == 0:
            return set()
        rng = self._rngs.stream("holidays", tz_offset)
        chosen = rng.choice(len(workdays), size=count, replace=False)
        return {workdays[int(i)] for i in chosen}

    def _session_starts(self, day: int, tz_offset: int) -> list[float]:
        """Start times (seconds) of the tenant's sessions on one workday."""
        logs = self._config.logs
        base = day * DAY + tz_offset * HOUR
        starts = [base]
        afternoon = base + logs.session_hours * HOUR
        if logs.include_lunch:
            afternoon += logs.lunch_hours * HOUR
        starts.append(afternoon)
        if logs.include_evening_session:
            starts.append(afternoon + logs.evening_gap_hours * HOUR)
        return starts

    def compose(self, num_tenants: Optional[int] = None) -> ComposedWorkload:
        """Compose logs for ``num_tenants`` tenants (default: config's T)."""
        config = self._config
        logs = config.logs
        count = config.num_tenants if num_tenants is None else int(num_tenants)
        if count < 1:
            raise WorkloadError(f"num_tenants must be >= 1, got {count!r}")

        size_rng = self._rngs.stream("sizes")
        node_sizes = sample_node_sizes(
            sorted(config.node_sizes), count, config.theta, size_rng
        )
        workdays = [
            day
            for day in range(logs.horizon_days)
            if day % 7 < logs.workdays_per_week
        ]
        holiday_cache: dict[int, set[int]] = {}

        tenants: list[TenantSpec] = []
        picks: dict[int, tuple[SessionPick, ...]] = {}
        for tenant_id in range(count):
            rng = self._rngs.stream("tenant", tenant_id)
            node_size = int(node_sizes[tenant_id])
            tz_offset = int(
                logs.tz_offsets_hours[int(rng.integers(0, len(logs.tz_offsets_hours)))]
            )
            if tz_offset not in holiday_cache:
                holiday_cache[tz_offset] = self._holidays_for_zone(tz_offset, workdays)
            holidays = holiday_cache[tz_offset]
            benchmark = "tpch" if rng.random() < 0.5 else "tpcds"
            sessions = self._library.sessions_for(node_size)
            tenant_picks: list[SessionPick] = []
            max_users = 1
            for day in workdays:
                if day in holidays:
                    continue
                for start in self._session_starts(day, tz_offset):
                    session_index = int(rng.integers(0, len(sessions)))
                    max_users = max(max_users, sessions[session_index].num_users)
                    tenant_picks.append(
                        SessionPick(
                            node_size=node_size,
                            session_index=session_index,
                            shift_s=start,
                        )
                    )
            tenants.append(
                TenantSpec(
                    tenant_id=tenant_id,
                    nodes_requested=node_size,
                    data_gb=config.data_gb_for_nodes(node_size),
                    benchmark=benchmark,
                    max_users=max_users,
                    tz_offset_hours=tz_offset,
                )
            )
            picks[tenant_id] = tuple(tenant_picks)
        return ComposedWorkload(
            tenants=tenants,
            picks=picks,
            library=self._library,
            horizon_s=logs.horizon_seconds,
        )
