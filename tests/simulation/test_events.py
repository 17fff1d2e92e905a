"""Event queue tests: determinism, ordering, cancellation."""

import math

import pytest

from repro.errors import SimulationError
from repro.simulation.events import Event, EventQueue, ScheduledEvent


def _noop(_t: float) -> None:
    pass


def _drain(queue):
    """Pop every live event in firing order."""
    events = []
    while (event := queue.pop_due(math.inf)) is not None:
        events.append(event)
    return events


class TestEventQueue:
    def test_empty_queue(self):
        queue = EventQueue()
        assert len(queue) == 0
        assert not queue

    def test_pop_due_on_empty_returns_none(self):
        assert EventQueue().pop_due(math.inf) is None

    def test_pop_due_leaves_later_events_queued(self):
        queue = EventQueue()
        queue.push(Event(time=2.0, callback=_noop, label="later"))
        assert queue.pop_due(1.0) is None
        assert len(queue) == 1
        assert queue.pop_due(2.0).label == "later"

    def test_time_ordering(self):
        queue = EventQueue()
        for t in (5.0, 1.0, 3.0):
            queue.push(Event(time=t, callback=_noop, label=str(t)))
        assert [e.time for e in _drain(queue)] == [1.0, 3.0, 5.0]

    def test_fifo_tie_break(self):
        queue = EventQueue()
        for name in ("first", "second", "third"):
            queue.push(Event(time=1.0, callback=_noop, label=name))
        assert [e.label for e in _drain(queue)] == ["first", "second", "third"]

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(Event(time=-1.0, callback=_noop))

    def test_cancellation(self):
        queue = EventQueue()
        keep = queue.push(Event(time=1.0, callback=_noop, label="keep"))
        drop = queue.push(Event(time=0.5, callback=_noop, label="drop"))
        queue.cancel(drop)
        assert len(queue) == 1
        assert queue.pop_due(0.5) is None
        assert queue.pop_due(1.0).label == "keep"
        assert keep.event.label == "keep"

    def test_cancel_idempotent(self):
        queue = EventQueue()
        entry = queue.push(Event(time=1.0, callback=_noop))
        queue.cancel(entry)
        queue.cancel(entry)
        assert len(queue) == 0

    def test_len_tracks_live_events(self):
        queue = EventQueue()
        entries = [queue.push(Event(time=float(i), callback=_noop)) for i in range(5)]
        queue.cancel(entries[2])
        assert len(queue) == 4
        queue.pop_due(math.inf)
        assert len(queue) == 3


class TestReservedSequences:
    def test_reserved_events_order_as_if_pushed_at_reservation(self):
        queue = EventQueue()
        queue.push(Event(time=1.0, callback=_noop, label="before"))
        first = queue.reserve(2)
        queue.push(Event(time=1.0, callback=_noop, label="after"))
        queue.push(Event(time=1.0, callback=_noop, label="reserved-1"), sequence=first + 1)
        queue.push(Event(time=1.0, callback=_noop, label="reserved-0"), sequence=first)
        assert [e.label for e in _drain(queue)] == [
            "before", "reserved-0", "reserved-1", "after"
        ]

    def test_unreserved_sequence_rejected(self):
        queue = EventQueue()
        queue.reserve(1)
        with pytest.raises(SimulationError):
            queue.push(Event(time=1.0, callback=_noop), sequence=1)
        with pytest.raises(SimulationError):
            queue.push(Event(time=1.0, callback=_noop), sequence=-1)

    def test_negative_reservation_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().reserve(-1)

    def test_empty_reservation_takes_no_numbers(self):
        queue = EventQueue()
        assert queue.reserve(0) == 0
        assert queue.push(Event(time=1.0, callback=_noop)).sequence == 0


class TestListEntryLayout:
    """``ScheduledEvent`` is a ``[time, seq, event, cancelled]`` list that
    ``heapq`` compares in C; these pin the behaviour that layout must keep."""

    def test_fifo_tie_break_across_many_pushes(self):
        queue = EventQueue()
        times = [float(i % 7) for i in range(10_000)]
        for i, t in enumerate(times):
            queue.push(Event(time=t, callback=_noop, label=str(i)))
        popped = _drain(queue)
        expected = sorted(range(len(times)), key=lambda i: (times[i], i))
        assert [int(e.label) for e in popped] == expected

    def test_cancelled_entries_are_skipped_and_len_tracks_live(self):
        queue = EventQueue()
        entries = [queue.push(Event(time=float(i // 2), callback=_noop, label=str(i))) for i in range(20)]
        for entry in entries[::3]:
            queue.cancel(entry)
        live = [e for e in entries if not e.cancelled]
        assert len(queue) == len(live)
        labels = []
        while queue:
            labels.append(queue.pop_due(math.inf).label)
            assert len(queue) == len(live) - len(labels)
        assert labels == [e.event.label for e in live]
        assert queue.pop_due(math.inf) is None

    def test_entry_fields_are_readable_on_heap_items(self):
        queue = EventQueue()
        first = queue.push(Event(time=2.0, callback=_noop, label="a"))
        queue.push(Event(time=1.0, callback=_noop, label="b"))
        queue.cancel(first)
        by_label = {entry.event.label: entry for entry in queue._heap}
        assert set(by_label) == {"a", "b"}
        a, b = by_label["a"], by_label["b"]
        assert (a.time, a.sequence, a.cancelled) == (2.0, 0, True)
        assert (b.time, b.sequence, b.cancelled) == (1.0, 1, False)
        assert isinstance(a, ScheduledEvent) and list(a) == [2.0, 0, a.event, True]
        with pytest.raises(AttributeError):
            a.time = 3.0  # read-only view of the list slot

    def test_entries_never_compare_their_events(self):
        class Uncomparable:
            def __call__(self, _t: float) -> None:
                pass

            def __eq__(self, other):
                raise AssertionError("an Event callback was compared")

            __lt__ = __gt__ = __le__ = __ge__ = __eq__
            __hash__ = object.__hash__

        queue = EventQueue()
        for i in range(500):
            # Many equal times and labels, and callbacks that refuse to be
            # compared: only the unique sequence number may break a tie.
            queue.push(Event(time=1.0, callback=Uncomparable()))
            queue.push(Event(time=float(i % 3), callback=Uncomparable()))
        keys = [(entry.time, entry.sequence) for entry in queue._heap]
        assert len(set(keys)) == len(keys)
        expected = [entry.event for entry in sorted(queue._heap, key=lambda e: (e.time, e.sequence))]
        popped = _drain(queue)
        assert all(got is want for got, want in zip(popped, expected))
