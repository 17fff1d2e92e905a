"""Event primitives for the discrete-event engine.

Events carry a fire time, an insertion-order sequence number (ties are
broken FIFO so the simulation is deterministic), a callback, and a label.
:class:`EventQueue` is a thin heap wrapper that supports lazy cancellation,
which the MPPDB simulator uses to reschedule query-completion events when
the concurrency level on an instance changes.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, NamedTuple, Optional, cast

from ..errors import SimulationError

__all__ = ["Event", "ScheduledEvent", "EventQueue"]

#: Signature of an event callback: receives the firing time.
EventCallback = Callable[[float], None]


class Event(NamedTuple):
    """An immutable description of something to happen at a point in time.

    A named tuple: the replay builds one per scheduled event, and a tuple
    is built without a ``__setattr__`` call per field.
    """

    time: float
    callback: EventCallback
    label: str = ""


class ScheduledEvent(list[Any]):
    """A queue entry: an :class:`Event` plus ordering and cancellation state.

    Laid out as the list ``[time, sequence, event, cancelled]`` so that
    ``heapq`` orders entries with C list comparison.  Sequence numbers are
    unique, so two entries never tie on ``(time, sequence)`` and the
    comparison never reaches the :class:`Event`.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Fire time."""
        return cast(float, self[0])

    @property
    def sequence(self) -> int:
        """Insertion order, the tie-break among equal times."""
        return cast(int, self[1])

    @property
    def event(self) -> Event:
        """The scheduled event."""
        return cast(Event, self[2])

    @property
    def cancelled(self) -> bool:
        """Whether the entry was cancelled (it is skipped when popped)."""
        return cast(bool, self[3])

    def cancel(self) -> None:
        """Mark the entry dead; it will be skipped when popped."""
        self[3] = True


class EventQueue:
    """A deterministic priority queue of events.

    Ordering is by ``(time, insertion order)`` so simultaneous events fire
    in the order they were scheduled.  Cancellation is lazy: cancelled
    entries stay in the heap until popped, then get skipped.

    A caller that will push a known number of events later, one at a time,
    can :meth:`reserve` their sequence numbers now and pass each to
    :meth:`push`: the events then order against everything else exactly
    as if they had all been pushed at the moment of the reservation.
    """

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._next_sequence = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def reserve(self, count: int) -> int:
        """Set aside ``count`` consecutive sequence numbers; return the first.

        Events pushed afterwards without a ``sequence`` are numbered after
        the whole block.  Each reserved number may be used for one push.
        """
        if count < 0:
            raise SimulationError(f"cannot reserve {count!r} sequence numbers")
        first = self._next_sequence
        self._next_sequence += count
        return first

    def push(self, event: Event, sequence: Optional[int] = None) -> ScheduledEvent:
        """Schedule ``event`` and return a handle usable for cancellation.

        ``sequence`` places the event at a number taken earlier from
        :meth:`reserve`; by default it is numbered after everything pushed
        or reserved so far.
        """
        if event.time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {event.time!r}")
        if sequence is None:
            sequence = self._next_sequence
            self._next_sequence += 1
        elif not 0 <= sequence < self._next_sequence:
            raise SimulationError(f"sequence number {sequence!r} was not reserved")
        entry = ScheduledEvent((event.time, sequence, event, False))
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def cancel(self, entry: ScheduledEvent) -> None:
        """Cancel a previously pushed entry (idempotent)."""
        if not entry.cancelled:
            entry.cancel()
            self._live -= 1

    def pop_due(self, until: float) -> Optional[Event]:
        """Remove and return the next live event if it fires at or before
        ``until``; otherwise leave the queue as it is and return ``None``."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3]:
                heapq.heappop(heap)
            elif entry[0] > until:
                return None
            else:
                heapq.heappop(heap)
                self._live -= 1
                event: Event = entry[2]
                return event
        return None
