"""Simulator engine tests: scheduling, run bounds, cancellation, clock."""

import pytest

from repro.errors import SimulationError
from repro.simulation.engine import Simulator
from repro.simulation.events import Event


class TestClock:
    """The simulator's clock: starts at ``start_time``, only moves forward."""

    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_advance(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_advance_to_same_time_ok(self):
        sim = Simulator(3.0)
        sim.schedule(3.0, lambda t: None)
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_no_time_travel(self):
        sim = Simulator(10.0)
        with pytest.raises(SimulationError):
            sim._fire(Event(time=9.0, callback=lambda t: None))
        assert sim.now == 10.0

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(-1.0)


class TestSimulator:
    def test_runs_events_in_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, lambda t: seen.append(("b", t)))
        sim.schedule(1.0, lambda t: seen.append(("a", t)))
        fired = sim.run()
        assert fired == 2
        assert seen == [("a", 1.0), ("b", 3.0)]
        assert sim.now == 3.0

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda t: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda t: None)

    def test_schedule_after(self):
        sim = Simulator()
        times = []
        sim.schedule(10.0, lambda t: sim.schedule_after(5.0, times.append))
        sim.run()
        assert times == [15.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1.0, lambda t: None)

    def test_run_until_bound(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, seen.append)
        sim.run(until=2.0)
        assert seen == [1.0, 2.0]
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_cancellation(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, seen.append)
        sim.schedule(2.0, seen.append)
        sim.cancel(handle)
        sim.run()
        assert seen == [2.0]

    def test_callbacks_can_schedule_more(self):
        sim = Simulator()
        seen = []

        def chain(t):
            seen.append(t)
            if t < 5.0:
                sim.schedule(t + 1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_reserved_sequence_fires_before_later_ties(self):
        # An event scheduled inside the loop with a sequence reserved up
        # front beats a same-time event scheduled after the reservation.
        sim = Simulator()
        seen = []
        reserved = sim.reserve_sequences(1)
        sim.schedule(2.0, lambda t: seen.append("late"))
        sim.schedule(
            1.0,
            lambda t: sim.schedule(2.0, lambda t: seen.append("reserved"), sequence=reserved),
        )
        sim.run()
        assert seen == ["reserved", "late"]

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def reenter(t):
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0):
            sim.schedule(t, lambda _t: None)
        sim.run()
        assert sim.events_fired == 2

    def test_event_accounting_off_by_default(self):
        sim = Simulator()
        sim.schedule(1.0, lambda _t: None, label="tick")
        sim.run()
        assert sim.event_counts == {}

    def test_event_accounting_counts_by_label(self):
        sim = Simulator()
        sim.enable_event_accounting()
        sim.enable_event_accounting()  # idempotent
        sim.schedule(1.0, lambda _t: None, label="tick")
        sim.schedule(2.0, lambda _t: None, label="tick")
        sim.schedule(3.0, lambda _t: None)
        sim.run()
        assert sim.event_counts == {"tick": 2, "(unlabeled)": 1}
        # event_counts returns a copy, not live state
        counts = sim.event_counts
        counts["tick"] = 99
        assert sim.event_counts["tick"] == 2
