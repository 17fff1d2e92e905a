"""Reference RT-TTP fold, kept as the test oracle.

This is the fold :meth:`repro.simulation.metrics.StepSeries.fraction_time_above`
replaced: walk every segment of the window in time order and add
``f(value) * length`` with ``f`` the 0/1 indicator of ``value > threshold``.
It touches every change point in the window on every call, so it is slow
on a long window, but it is obviously right; the differential tests hold
the indexed fast path to it bit for bit.
"""

from __future__ import annotations

import bisect

from repro.simulation.metrics import StepSeries


def fraction_time_above(series: StepSeries, threshold: float, start: float, end: float) -> float:
    """Fraction of ``[start, end)`` with the signal strictly above ``threshold``."""
    assert end > start
    times, values = (list(column) for column in zip(*series.changes()))
    total = 0.0
    idx = max(bisect.bisect_right(times, start) - 1, 0)
    t = start
    while t < end:
        seg_end = times[idx + 1] if idx + 1 < len(times) else end
        seg_end = min(seg_end, end)
        if seg_end > t:
            total += (1.0 if values[idx] > threshold else 0.0) * (seg_end - t)
        t = seg_end
        idx += 1
        if idx >= len(times):
            break
    if t < end:
        total += (1.0 if values[-1] > threshold else 0.0) * (end - t)
    return total / (end - start)


def fraction_time_at_most(series: StepSeries, threshold: float, start: float, end: float) -> float:
    """Fraction of ``[start, end)`` with the signal at or below ``threshold``."""
    return 1.0 - fraction_time_above(series, threshold, start, end)


def rt_ttp(
    series: StepSeries, replication_factor: int, now: float, window_s: float, start_time: float
) -> float:
    """The run-time TTP as :meth:`GroupActivityMonitor.rt_ttp` defines it."""
    start = max(start_time, now - window_s)
    if now <= start:
        return 1.0
    return fraction_time_at_most(series, replication_factor, start, now)


def record_unpruned(patch) -> dict[StepSeries, StepSeries]:
    """Mirror every :class:`StepSeries` change into an unpruned copy.

    Patches ``StepSeries.set`` on ``patch`` (a ``pytest.MonkeyPatch``);
    the returned dict maps each series changed from then on to its copy,
    which ``drop_before`` never touches, so it holds the whole history.
    """
    full: dict[StepSeries, StepSeries] = {}
    original = StepSeries.set

    def set_and_mirror(series: StepSeries, time: float, value: float) -> None:
        copy = full.get(series)
        if copy is None:
            start, initial = next(iter(series.changes()))
            copy = full[series] = StepSeries(initial, start)
        original(copy, time, value)
        original(series, time, value)

    patch.setattr(StepSeries, "set", set_and_mirror)
    return full
