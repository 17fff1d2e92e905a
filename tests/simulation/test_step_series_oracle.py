"""Differential tests: the indexed RT-TTP fold against the reference fold.

``StepSeries.fraction_time_above`` sums only the window's above-threshold
segments, from an index that ``set`` keeps current.  It must equal the
reference fold over every segment exactly — not approximately — because
the golden replay digests pin RT-TTP samples bit for bit.
"""

from __future__ import annotations

import random

import pytest

from repro.core.monitor import GroupActivityMonitor
from repro.core.service import ThriftyService
from repro.simulation.metrics import StepSeries
from repro.units import DAY
from repro.workload.composer import MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator
from tests.conftest import tiny_config
from tests.simulation import oracle

R = 3
THRESHOLDS = tuple(range(R + 3))


def _random_series(rng: random.Random, changes: int) -> StepSeries:
    """A concurrency-like signal with ties, overrides and float gaps."""
    start = rng.choice([0.0, 3.5, 100.0])
    series = StepSeries(float(rng.randint(0, R + 2)), start_time=start)
    t = start
    for _ in range(changes):
        roll = rng.random()
        if roll < 0.15:
            pass  # same-instant override of the last change
        elif roll < 0.3:
            t += rng.randint(1, 5)
        else:
            t += rng.uniform(1e-3, 40.0)
        if rng.random() < 0.7:
            series.increment(t, rng.choice([-1.0, 1.0]))
        else:
            series.set(t, float(rng.randint(0, R + 3)))
    return series


def _windows(rng: random.Random, series: StepSeries, count: int) -> list[tuple[float, float]]:
    """Windows that start before, at and between change points and end past the last."""
    times = [t for t, __ in series.changes()]
    first, last = times[0], times[-1]
    windows = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            start = first - rng.uniform(0.0, 50.0)
        elif kind == 1:
            start = rng.choice(times)
        else:
            start = rng.uniform(first, last)
        if kind == 3:
            end = last + rng.uniform(1e-3, 100.0)
        elif rng.random() < 0.3:
            later = [t for t in times if t > start]
            end = rng.choice(later) if later else start + 1.0
        else:
            end = start + rng.uniform(1e-3, 2.0 * (last - first) + 1.0)
        windows.append((start, end))
    return windows


@pytest.mark.parametrize("seed", range(12))
def test_fast_fold_equals_reference_exactly(seed):
    rng = random.Random(seed)
    series = _random_series(rng, changes=rng.choice([1, 5, 60, 400]))
    for start, end in _windows(rng, series, 60):
        for threshold in THRESHOLDS:
            assert series.fraction_time_at_most(threshold, start, end) == (
                oracle.fraction_time_at_most(series, threshold, start, end)
            )
            assert series.fraction_time_above(threshold, start, end) == (
                oracle.fraction_time_above(series, threshold, start, end)
            )


@pytest.mark.parametrize("seed", range(6))
def test_index_stays_exact_while_the_series_grows(seed):
    # Query between changes, so the per-threshold index is built early and
    # then maintained by ``set`` (appends and same-instant overrides).
    rng = random.Random(1000 + seed)
    series = StepSeries(0.0)
    t = 0.0
    for step in range(600):
        if rng.random() > 0.2:
            t += rng.uniform(0.01, 10.0)
        series.set(t, float(rng.randint(0, R + 3)))
        if step % 7 == 0:
            end = t + rng.choice([1e-3, 5.0])
            start = max(0.0, end - rng.uniform(1.0, 300.0))
            for threshold in THRESHOLDS:
                assert series.fraction_time_at_most(threshold, start, end) == (
                    oracle.fraction_time_at_most(series, threshold, start, end)
                )


@pytest.mark.parametrize("seed", range(6))
def test_pruned_series_reads_as_the_whole_history(seed):
    # Drop behind a trailing window, as the monitor does at each tick (the
    # cutoff never moves back).  Every window that starts at or after the
    # cutoff must read as the unpruned history, including through
    # same-instant overrides at the kept point.
    rng = random.Random(2000 + seed)
    patch = pytest.MonkeyPatch()
    full = oracle.record_unpruned(patch)
    try:
        series = StepSeries(float(rng.randint(0, R + 2)))
        t = cutoff = 0.0
        for step in range(800):
            if rng.random() > 0.2:
                t += rng.uniform(0.01, 10.0)
            series.set(t, float(rng.randint(0, R + 3)))
            if step % 5 == 0:
                cutoff = max(cutoff, t - rng.uniform(0.0, 200.0))
                series.drop_before(cutoff)
                end = t + rng.choice([1e-3, 5.0])
                for start in (cutoff, rng.uniform(cutoff, end)):
                    if end <= start:
                        continue
                    for threshold in THRESHOLDS:
                        assert series.fraction_time_above(threshold, start, end) == (
                            oracle.fraction_time_above(full[series], threshold, start, end)
                        )
                    assert series.value_at(start) == full[series].value_at(start)
    finally:
        patch.undo()
    assert len(list(series.changes())) < len(list(full[series].changes()))


def test_override_drops_and_restores_an_index_entry():
    series = StepSeries(0.0)
    assert series.fraction_time_above(R, 0.0, 10.0) == 0.0  # builds the index
    series.set(2.0, 5.0)
    series.set(2.0, 1.0)  # override below R: no longer a violation
    series.set(4.0, 4.0)
    series.set(4.0, 6.0)  # override above R: still one violation
    series.set(6.0, 0.0)
    assert series.fraction_time_above(R, 0.0, 10.0) == 0.2
    assert series.fraction_time_above(R, 0.0, 10.0) == oracle.fraction_time_above(
        series, R, 0.0, 10.0
    )


def test_initial_value_above_threshold_counts():
    series = StepSeries(5.0, start_time=10.0)
    series.set(20.0, 0.0)
    # A window opening before the series start carries the initial value.
    for start, end in ((0.0, 30.0), (10.0, 30.0), (15.0, 20.0), (25.0, 40.0)):
        assert series.fraction_time_above(R, start, end) == oracle.fraction_time_above(
            series, R, start, end
        )


@pytest.fixture(scope="module")
def replayed():
    """A small seeded two-day replay at R = 1, where RT-TTP drops below 1."""
    config = tiny_config(num_tenants=24, seed=13, replication_factor=1)
    library = SessionLogGenerator(config, sessions_per_size=3).generate()
    workload = MultiTenantLogComposer(config, library).compose()
    service = ThriftyService(config)
    service.deploy(workload)
    calls = []
    original = GroupActivityMonitor.rt_ttp

    def counted(self, now, window_s=DAY):
        calls.append(self.group_name)
        return original(self, now, window_s)

    patch = pytest.MonkeyPatch()
    patch.setattr(GroupActivityMonitor, "rt_ttp", counted)
    # The monitor keeps only the last window; the oracle folds the whole
    # history, recorded on the side.
    full = oracle.record_unpruned(patch)
    try:
        report = service.replay(until=2 * DAY)
    finally:
        patch.undo()
    return service, report, calls, full


def test_replay_samples_equal_the_oracle_at_each_tick(replayed):
    service, report, __, full = replayed
    checked = below_one = 0
    for name, group_report in sorted(report.group_reports.items()):
        monitor = service.monitor.group(name)
        for now, value in group_report.rt_ttp_samples:
            assert value == oracle.rt_ttp(
                full[monitor.concurrency], monitor.replication_factor, now, DAY,
                monitor._start_time,
            )
            checked += 1
            below_one += value < 1.0
    assert checked > 0
    assert below_one > 0, "the replay never left RT-TTP = 1; the check would be vacuous"


def test_rt_ttp_is_read_once_per_monitor_tick(replayed):
    __, report, calls, __ = replayed
    for name, group_report in report.group_reports.items():
        assert calls.count(name) == len(group_report.rt_ttp_samples)
