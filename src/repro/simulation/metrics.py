"""Time-series metric collection.

:class:`StepSeries` is a piecewise-constant signal changed at known
times; it holds concurrency levels and RT-TTP curves, where
*time-weighted* aggregates (the fraction of time above a threshold) are
the meaningful statistics.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Iterable

from ..errors import SimulationError

__all__ = ["StepSeries"]


class StepSeries:
    """A piecewise-constant signal; value changes take effect at set times.

    The change points are two ``array('d')`` columns, 16 bytes a point.
    """

    def __init__(self, initial: float = 0.0, start_time: float = 0.0) -> None:
        self._times = array("d", [start_time])
        self._values = array("d", [initial])
        # threshold -> ascending indices of the change points whose value
        # exceeds it; built on the first query for a threshold, then kept
        # current by ``set``.
        self._above: dict[float, list[int]] = {}

    def set(self, time: float, value: float) -> None:
        """Change the signal value at ``time`` (non-decreasing times)."""
        times = self._times
        latest = times[-1]
        if time < latest:
            raise SimulationError(
                f"changes must be time-ordered: {time!r} < last {latest!r}"
            )
        value = float(value)
        last = len(times) - 1
        if time == latest:
            # Same-instant update overrides the previous change.
            self._values[-1] = value
            for threshold, above in self._above.items():
                if above and above[-1] == last:
                    if not value > threshold:
                        above.pop()
                elif value > threshold:
                    above.append(last)
            return
        times.append(time)
        self._values.append(value)
        for threshold, above in self._above.items():
            if value > threshold:
                above.append(last + 1)

    def increment(self, time: float, delta: float = 1.0) -> None:
        """Step the current value by ``delta`` at ``time``."""
        self.set(time, self.value_at_end() + delta)

    def value_at_end(self) -> float:
        """The most recent value."""
        return self._values[-1]

    def value_at(self, time: float) -> float:
        """Signal value at ``time`` (before the first change: the initial value)."""
        if time < self._times[0]:
            raise SimulationError(f"time {time!r} precedes the series start {self._times[0]!r}")
        idx = bisect.bisect_right(self._times, time) - 1
        return self._values[idx]

    def drop_before(self, time: float) -> None:
        """Forget the change points superseded at or before ``time``.

        Keeps the point in force at ``time``, so every value and every
        fraction over a window starting at or after ``time`` is unchanged;
        the above-threshold indices are re-based onto the kept points.
        """
        times = self._times
        drop = bisect.bisect_right(times, time) - 1
        if drop <= 0:
            return
        del times[:drop]
        del self._values[:drop]
        for threshold, above in self._above.items():
            first = bisect.bisect_left(above, drop)
            self._above[threshold] = [i - drop for i in above[first:]]

    def changes(self) -> Iterable[tuple[float, float]]:
        """Iterate the ``(time, value)`` change points."""
        return zip(self._times, self._values)

    def fraction_time_above(self, threshold: float, start: float, end: float) -> float:
        """Fraction of ``[start, end)`` the signal spends strictly above ``threshold``.

        Visits only the window's change points above ``threshold``, in
        ascending order, and clips the first segment to ``start`` and the
        last to ``end``.  A segment at or below the threshold would add an
        exact ``0.0``, so the sum is bit-identical to a fold over every
        segment of the window.
        """
        if end <= start:
            raise SimulationError(f"empty window [{start!r}, {end!r})")
        above = self._above.get(threshold)
        if above is None:
            above = [i for i, v in enumerate(self._values) if v > threshold]
            self._above[threshold] = above
        times = self._times
        last = len(times) - 1
        first = max(bisect.bisect_right(times, start) - 1, 0)
        total = 0.0
        for k in range(bisect.bisect_left(above, first), len(above)):
            i = above[k]
            seg_start = start if i == first else times[i]
            if seg_start >= end:
                break
            seg_end = times[i + 1] if i < last else end
            total += (seg_end if seg_end < end else end) - seg_start
        return total / (end - start)

    def fraction_time_at_most(self, threshold: float, start: float, end: float) -> float:
        """Fraction of ``[start, end)`` with the signal ``<= threshold``.

        This is exactly the run-time TTP of Chapter 5.1 when the signal is a
        tenant group's concurrent-active-tenant count and ``threshold = R``.
        """
        return 1.0 - self.fraction_time_above(threshold, start, end)
