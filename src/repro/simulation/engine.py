"""The discrete-event simulation engine.

:class:`Simulator` owns the simulated time and the event queue, and
exposes the standard run loop: schedule callbacks at absolute times or
after delays, then :meth:`Simulator.run` until the queue drains (or until a
time bound is hit).  Callbacks may schedule further events; scheduling in
the past raises, and time never moves backwards.

The MPPDB execution model additionally needs to *reschedule* in-flight
events (a query's completion moves when the concurrency level changes), so
:meth:`Simulator.schedule` returns a cancellable handle.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import SimulationError
from .events import Event, EventCallback, EventQueue, ScheduledEvent

__all__ = ["Simulator"]


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self, start_time: float = 0.0) -> None:
        if start_time < 0:
            raise SimulationError(f"simulation cannot start at negative time {start_time!r}")
        self._now = float(start_time)
        self._queue = EventQueue()
        self._events_fired = 0
        self._running = False
        self._event_counts: Optional[dict[str, int]] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds; it only ever moves forward."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    def enable_event_accounting(self) -> None:
        """Start counting fired events by label (for run reports).

        Off by default so the hot loop stays a pop-advance-call sequence.
        The engine stays observability-agnostic: the counts are a plain
        dict that ``repro.obs`` report writers read out after a run.
        """
        if self._event_counts is None:
            self._event_counts = {}

    @property
    def event_counts(self) -> dict[str, int]:
        """Fired-event counts keyed by event label (empty unless enabled)."""
        return dict(self._event_counts or {})

    def reserve_sequences(self, count: int) -> int:
        """Reserve ``count`` tie-break sequence numbers; return the first.

        An event later scheduled with one of them (``schedule(...,
        sequence=n)``) fires in the place it would have had if it had been
        scheduled at the moment of the reservation.  See
        :meth:`EventQueue.reserve`.
        """
        return self._queue.reserve(count)

    def schedule(
        self,
        time: float,
        callback: EventCallback,
        label: str = "",
        sequence: Optional[int] = None,
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated ``time``.

        ``sequence`` is a number from :meth:`reserve_sequences`; by default
        the event is ordered after everything scheduled or reserved so far.
        Returns a handle that can be passed to :meth:`cancel`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, which is before the current time {self._now!r}"
            )
        return self._queue.push(Event(time, callback, label), sequence)

    def schedule_after(
        self, delay: float, callback: EventCallback, label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return self.schedule(self._now + delay, callback, label=label)

    def cancel(self, handle: ScheduledEvent) -> None:
        """Cancel a scheduled event (idempotent)."""
        self._queue.cancel(handle)

    def _fire(self, event: Event) -> None:
        if event.time < self._now:
            raise SimulationError(f"time cannot move backwards: {event.time!r} < {self._now!r}")
        self._now = float(event.time)
        self._events_fired += 1
        counts = self._event_counts
        if counts is not None:
            label = event.label or "(unlabeled)"
            counts[label] = counts.get(label, 0) + 1
        event.callback(event.time)

    def run(self, until: Optional[float] = None) -> int:
        """Run events until the queue drains or ``until`` is reached.
        Returns the number of events fired by this call.

        When ``until`` is given the clock is advanced to exactly ``until``
        after the last earlier event, so time-based metrics close cleanly.
        """
        if self._running:
            raise SimulationError("run() re-entered from inside an event callback")
        self._running = True
        fired = 0
        pop_due = self._queue.pop_due
        fire = self._fire
        limit = math.inf if until is None else until
        try:
            while True:
                event = pop_due(limit)
                if event is None:
                    break
                fire(event)
                fired += 1
        finally:
            self._running = False
        if until is not None and until >= self._now:
            self._now = float(until)
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now}, pending={self.pending})"
