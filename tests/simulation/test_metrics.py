"""StepSeries tests — RT-TTP math depends on these."""

import pytest

from repro.errors import SimulationError
from repro.simulation.metrics import StepSeries


class TestStepSeries:
    def test_value_at(self):
        series = StepSeries(0.0)
        series.set(10.0, 2.0)
        series.set(20.0, 1.0)
        assert series.value_at(5.0) == 0.0
        assert series.value_at(10.0) == 2.0
        assert series.value_at(15.0) == 2.0
        assert series.value_at(25.0) == 1.0

    def test_value_before_start_rejected(self):
        series = StepSeries(0.0, start_time=5.0)
        with pytest.raises(SimulationError):
            series.value_at(4.0)

    def test_increment(self):
        series = StepSeries(0.0)
        series.increment(1.0)
        series.increment(2.0)
        series.increment(3.0, -1.0)
        assert series.value_at_end() == 1.0

    def test_same_instant_update_overrides(self):
        series = StepSeries(0.0)
        series.set(1.0, 5.0)
        series.set(1.0, 7.0)
        assert series.value_at(1.0) == 7.0

    def test_order_enforced(self):
        series = StepSeries(0.0)
        series.set(5.0, 1.0)
        with pytest.raises(SimulationError):
            series.set(4.0, 1.0)

    def test_fraction_time_above(self):
        series = StepSeries(0.0)
        series.set(10.0, 4.0)
        series.set(15.0, 1.0)
        # above 3: only [10,15) of [0,20) -> 25%
        assert series.fraction_time_above(3.0, 0.0, 20.0) == pytest.approx(0.25)

    def test_fraction_time_at_most_is_complement(self):
        series = StepSeries(0.0)
        series.set(10.0, 4.0)
        above = series.fraction_time_above(3.0, 0.0, 20.0)
        at_most = series.fraction_time_at_most(3.0, 0.0, 20.0)
        assert above + at_most == pytest.approx(1.0)

    def test_rt_ttp_semantics(self):
        # Concurrency 0 -> 4 tenants during [100, 101) -> 0, R = 3:
        # one second of violation in a 1000-second window.
        series = StepSeries(0.0)
        series.set(100.0, 4.0)
        series.set(101.0, 0.0)
        ttp = series.fraction_time_at_most(3.0, 0.0, 1000.0)
        assert ttp == pytest.approx(0.999)

    def test_empty_window_rejected(self):
        series = StepSeries(0.0)
        with pytest.raises(SimulationError):
            series.fraction_time_above(0.0, 5.0, 5.0)

    def test_zero_width_windows_raise_everywhere(self):
        # Every time-weighted aggregate treats [t, t) as an error rather
        # than returning 0/0-flavoured garbage.
        series = StepSeries(1.0)
        series.set(5.0, 3.0)
        for call in (
            lambda: series.fraction_time_above(2.0, 5.0, 5.0),
            lambda: series.fraction_time_at_most(2.0, 5.0, 5.0),
            lambda: series.fraction_time_above(2.0, 6.0, 5.0),  # inverted, too
        ):
            with pytest.raises(SimulationError):
                call()

    def test_window_beyond_last_change_uses_final_value(self):
        series = StepSeries(0.0)
        series.set(10.0, 2.0)
        assert series.fraction_time_above(1.0, 20.0, 30.0) == 1.0
        assert series.fraction_time_at_most(2.0, 20.0, 30.0) == 1.0
