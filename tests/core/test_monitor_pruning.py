"""The activity monitor pruned to its window reads as the whole history.

A three-day replay at ``R = 1`` with the default one-day window runs
twice: as the runtime runs it, pruning the monitor at every tick, and with
pruning switched off.  The RT-TTP samples must equal the reference fold
over the whole concurrency history (recorded on the side), and the
samples, scaling actions and SLA rows must equal the unpruned replay's.
What the monitor keeps must stay within one window of the last tick.
"""

from __future__ import annotations

import pytest

from repro.core.monitor import GroupActivityMonitor
from repro.core.service import ThriftyService
from repro.units import DAY
from repro.workload.composer import MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator
from tests.conftest import tiny_config
from tests.simulation import oracle

HORIZON = 3 * DAY


def _replay(prune: bool):
    config = tiny_config(num_tenants=24, seed=13, replication_factor=1)
    library = SessionLogGenerator(config, sessions_per_size=3).generate()
    workload = MultiTenantLogComposer(config, library).compose()
    service = ThriftyService(config)
    service.deploy(workload)
    patch = pytest.MonkeyPatch()
    full = oracle.record_unpruned(patch)
    if not prune:
        patch.setattr(GroupActivityMonitor, "prune", lambda self, before: None)
    try:
        report = service.replay(until=HORIZON)
    finally:
        patch.undo()
    return service, report, full


@pytest.fixture(scope="module")
def pruned():
    return _replay(prune=True)


@pytest.fixture(scope="module")
def unpruned():
    return _replay(prune=False)


def test_samples_equal_the_oracle_over_the_whole_history(pruned):
    service, report, full = pruned
    below_one = 0
    for name, group in sorted(report.group_reports.items()):
        monitor = service.monitor.group(name)
        for now, value in group.rt_ttp_samples:
            assert value == oracle.rt_ttp(
                full[monitor.concurrency], monitor.replication_factor, now, DAY,
                monitor._start_time,
            )
            below_one += value < 1.0
    assert below_one > 0


def test_outcome_equals_the_unpruned_replay(pruned, unpruned):
    __, report, __ = pruned
    __, reference, __ = unpruned
    assert report.scaling_actions(), "no scale-up: the identification path went unchecked"
    assert report.scaling_actions() == reference.scaling_actions()
    for name, group in report.group_reports.items():
        other = reference.group_reports[name]
        assert group.rt_ttp_samples == other.rt_ttp_samples
        assert group.sla.records == other.sla.records


def test_busy_intervals_equal_the_unpruned_monitor(pruned, unpruned):
    service, report, __ = pruned
    reference, __, __ = unpruned
    for name, group in report.group_reports.items():
        now = group.rt_ttp_samples[-1][0]
        monitors = service.monitor.group(name), reference.monitor.group(name)
        for start in (now - DAY, now - DAY / 3):
            items = [
                [(it.tenant_id, it.epochs.tolist()) for it in m.activity_items(start, now, 10.0)]
                for m in monitors
            ]
            assert items[0] == items[1]
            for tenant_id, __ in items[0]:
                assert monitors[0].tenant_busy_intervals(tenant_id, start, now) == (
                    monitors[1].tenant_busy_intervals(tenant_id, start, now)
                )


def test_stored_history_stays_within_one_window(pruned):
    service, report, full = pruned
    for name, group in report.group_reports.items():
        cutoff = group.rt_ttp_samples[-1][0] - DAY
        monitor = service.monitor.group(name)
        times = [t for t, __ in monitor.concurrency.changes()]
        assert times[0] <= cutoff < min(times[1:], default=float("inf"))
        assert len(times) < len(list(full[monitor.concurrency].changes())) / 2
        assert all(end > cutoff for __, ends in monitor._closed.values() for end in ends)
