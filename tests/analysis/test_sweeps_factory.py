"""Sweep-driver row math."""

import pytest

from repro.analysis.sweeps import GroupingRow


class TestGroupingRow:
    def _row(self, two_step=0.8, ffd=0.7):
        return GroupingRow(
            parameter="p",
            value=1,
            active_ratio=0.1,
            two_step_effectiveness=two_step,
            two_step_group_size=10.0,
            two_step_seconds=1.0,
            ffd_effectiveness=ffd,
            ffd_group_size=9.0,
            ffd_seconds=0.5,
        )

    def test_advantage_points(self):
        assert self._row().advantage_points == pytest.approx(10.0)
        assert self._row(0.7, 0.8).advantage_points == pytest.approx(-10.0)

    def test_as_list_rounding(self):
        row = self._row(0.81234, 0.7)
        values = row.as_list()
        assert values[0] == 1
        assert values[2] == 0.8123
