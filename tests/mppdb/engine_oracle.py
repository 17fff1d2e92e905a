"""Reference processor-sharing engine, kept as the test oracle.

This is :class:`repro.mppdb.execution.ExecutionEngine` (and its
:class:`QueryExecution`) as it stood before the engine began keeping a
per-tenant running count and folding the settle, the next-completion
minimum and the due scan into one pass.  The code below the imports is
unchanged.  ``tests/mppdb/test_engine_differential.py`` drives it and the
library engine with the same operations and requires bit-identical
results.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.errors import MPPDBError
from repro.simulation.engine import Simulator
from repro.simulation.events import ScheduledEvent

__all__ = ["QueryExecution", "ExecutionEngine"]

_EPS = 1e-9


class QueryExecution:
    """Handle for one query running (or finished) on an engine."""

    def __init__(self, query_id: int, tenant_id: int, work_s: float, submit_time: float, label: str) -> None:
        self.query_id = query_id
        self.tenant_id = tenant_id
        self.work_s = work_s
        self.submit_time = submit_time
        self.label = label
        self.finish_time: Optional[float] = None
        self.abort_time: Optional[float] = None
        self._remaining = work_s

    @property
    def finished(self) -> bool:
        """Whether the query has completed."""
        return self.finish_time is not None

    @property
    def aborted(self) -> bool:
        """Whether the query was aborted (instance failure) before finishing."""
        return self.abort_time is not None

    @property
    def remaining_work_s(self) -> float:
        """Dedicated-service seconds still owed to this query."""
        return max(self._remaining, 0.0)

    @property
    def latency_s(self) -> float:
        """Observed wall-clock latency (only after completion)."""
        if self.finish_time is None:
            raise MPPDBError(f"query {self.query_id} has not finished")
        return self.finish_time - self.submit_time

    @property
    def slowdown(self) -> float:
        """Observed latency divided by dedicated latency (>= 1 up to rounding).

        This is the paper's *normalized performance* (Figure 7.7b/d): 1.0
        means the query ran as fast as in an isolated environment.
        """
        if self.work_s <= 0:
            return 1.0
        return self.latency_s / self.work_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"finished@{self.finish_time}" if self.finished else f"remaining={self._remaining:.3f}"
        return f"QueryExecution(id={self.query_id}, tenant={self.tenant_id}, {state})"


CompletionCallback = Callable[[QueryExecution], None]


class ExecutionEngine:
    """Egalitarian processor-sharing engine for one MPPDB instance."""

    def __init__(self, simulator: Simulator, retain_completed: bool = False) -> None:
        """``retain_completed`` keeps every finished query for :attr:`completed`.

        Off by default: a replay's engines would otherwise hold every
        query they ever ran.  The session-log generator turns it on.
        """
        self._sim = simulator
        self._retain = retain_completed
        self._running: dict[int, QueryExecution] = {}
        self._ids = itertools.count()
        self._last_settle = simulator.now
        self._completion_handle: Optional[ScheduledEvent] = None
        self._on_complete: list[CompletionCallback] = []
        self._on_abort: list[CompletionCallback] = []
        self._completed: list[QueryExecution] = []

    @property
    def concurrency(self) -> int:
        """Number of queries currently running."""
        return len(self._running)

    @property
    def busy(self) -> bool:
        """Whether any query is currently running (Algorithm 1's notion of free)."""
        return bool(self._running)

    @property
    def active_tenants(self) -> set[int]:
        """Tenants with at least one query currently running."""
        return {q.tenant_id for q in self._running.values()}

    @property
    def running(self) -> list[QueryExecution]:
        """Currently running queries (copy)."""
        return list(self._running.values())

    @property
    def completed(self) -> list[QueryExecution]:
        """All finished queries, in completion order (copy).

        Empty unless the engine was built with ``retain_completed=True``.
        """
        return list(self._completed)

    def on_complete(self, callback: CompletionCallback) -> None:
        """Register a callback fired for every query completion."""
        self._on_complete.append(callback)

    def on_abort(self, callback: CompletionCallback) -> None:
        """Register a callback fired for every aborted query."""
        self._on_abort.append(callback)

    def abort_all(self) -> list[QueryExecution]:
        """Abort every running query (instance failure).

        MPP queries straddle all of an instance's nodes, so losing a node
        kills whatever is in flight.  Progress is settled first (so
        ``remaining_work_s`` reflects the abort instant), the completion
        event is cancelled, and abort callbacks fire in query-id order —
        the run-time layer uses them to retry on a surviving replica.
        """
        if not self._running:
            return []
        self._settle()
        aborted = sorted(self._running.values(), key=lambda q: q.query_id)
        self._running.clear()
        self._reschedule()
        now = self._sim.now
        for execution in aborted:
            execution.abort_time = now
        for execution in aborted:
            for callback in self._on_abort:
                callback(execution)
        return aborted

    def submit(self, tenant_id: int, work_s: float, label: str = "") -> QueryExecution:
        """Start a query owing ``work_s`` seconds of dedicated service.

        ``work_s`` is the query's latency on this instance when executed in
        isolation (already accounting for the instance's parallelism via a
        scale-out curve); interference with concurrent queries is the
        engine's job.
        """
        if work_s < 0:
            raise MPPDBError(f"work must be non-negative, got {work_s!r}")
        self._settle()
        execution = QueryExecution(
            query_id=next(self._ids),
            tenant_id=tenant_id,
            work_s=work_s,
            submit_time=self._sim.now,
            label=label,
        )
        if work_s <= _EPS:
            # Degenerate instantaneous query: complete immediately without
            # perturbing the processor-sharing state.
            execution.finish_time = self._sim.now
            if self._retain:
                self._completed.append(execution)
            for callback in self._on_complete:
                callback(execution)
            return execution
        self._running[execution.query_id] = execution
        self._reschedule()
        return execution

    def _settle(self) -> None:
        """Account progress since the last settle at the current share rate."""
        now = self._sim.now
        elapsed = now - self._last_settle
        if elapsed > 0 and self._running:
            rate = 1.0 / len(self._running)
            for q in self._running.values():
                q._remaining -= elapsed * rate
        self._last_settle = now

    def _reschedule(self) -> None:
        """(Re)schedule the next completion event."""
        if self._completion_handle is not None:
            self._sim.cancel(self._completion_handle)
            self._completion_handle = None
        if not self._running:
            return
        k = len(self._running)
        next_remaining = min(q._remaining for q in self._running.values())
        delay = max(next_remaining, 0.0) * k
        self._completion_handle = self._sim.schedule_after(
            delay, self._complete_due, label="engine-completion"
        )

    def _complete_due(self, time: float) -> None:
        self._settle()
        due = [q for q in self._running.values() if q._remaining <= _EPS]
        if not due:
            raise MPPDBError("completion event fired with no query due")
        for q in sorted(due, key=lambda q: q.query_id):
            del self._running[q.query_id]
            q._remaining = 0.0
            q.finish_time = time
            if self._retain:
                self._completed.append(q)
        self._completion_handle = None
        self._reschedule()
        for q in sorted(due, key=lambda q: q.query_id):
            for callback in self._on_complete:
                callback(q)
