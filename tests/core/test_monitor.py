"""Tenant Activity Monitor tests: concurrency tracking and RT-TTP."""

import pytest

from repro.core.monitor import GroupActivityMonitor, TenantActivityMonitor
from repro.errors import DeploymentError
from repro.units import DAY, HOUR


@pytest.fixture
def monitor():
    m = GroupActivityMonitor("tg0", replication_factor=3)
    for tid in (1, 2, 3, 4, 5):
        m.register_tenant(tid, nodes_requested=4)
    return m


class TestConcurrencyTracking:
    def test_strong_activity_notion(self, monitor):
        # A tenant with two overlapping queries counts once.
        monitor.on_query_start(1, 0.0)
        monitor.on_query_start(1, 5.0)
        assert monitor.active_tenants() == {1}
        assert monitor.concurrency.value_at(6.0) == 1.0
        monitor.on_query_finish(1, 10.0)
        assert monitor.active_tenants() == {1}  # still one query running
        monitor.on_query_finish(1, 20.0)
        assert monitor.active_tenants() == set()
        assert monitor.concurrency.value_at(21.0) == 0.0

    def test_multiple_tenants(self, monitor):
        monitor.on_query_start(1, 0.0)
        monitor.on_query_start(2, 1.0)
        monitor.on_query_start(3, 2.0)
        assert monitor.concurrency.value_at(3.0) == 3.0

    def test_unregistered_tenant_rejected(self, monitor):
        with pytest.raises(DeploymentError):
            monitor.on_query_start(99, 0.0)

    def test_finish_without_start_rejected(self, monitor):
        with pytest.raises(DeploymentError):
            monitor.on_query_finish(1, 0.0)


class TestRTTTP:
    def test_perfect_window(self, monitor):
        monitor.on_query_start(1, 0.0)
        monitor.on_query_finish(1, 100.0)
        assert monitor.rt_ttp(DAY) == 1.0

    def test_violation_window(self, monitor):
        # Four tenants concurrently active for 1 % of a day.
        for tid in (1, 2, 3, 4):
            monitor.on_query_start(tid, 0.0)
        duration = 0.01 * DAY
        for tid in (1, 2, 3, 4):
            monitor.on_query_finish(tid, duration)
        assert monitor.rt_ttp(DAY) == pytest.approx(0.99)

    def test_window_clipped_to_start(self, monitor):
        # Early in the run the window is shorter than 24 h.
        monitor.on_query_start(1, 0.0)
        assert monitor.rt_ttp(HOUR) == 1.0

    def test_zero_length_window(self, monitor):
        assert monitor.rt_ttp(0.0) == 1.0


class TestIntervalsAndItems:
    def test_tenant_busy_intervals(self, monitor):
        monitor.on_query_start(1, 10.0)
        monitor.on_query_finish(1, 20.0)
        monitor.on_query_start(1, 30.0)
        monitor.on_query_finish(1, 40.0)
        assert monitor.tenant_busy_intervals(1, 0.0, 100.0) == [(10.0, 20.0), (30.0, 40.0)]

    def test_open_interval_clipped_to_now(self, monitor):
        monitor.on_query_start(1, 10.0)
        assert monitor.tenant_busy_intervals(1, 0.0, 50.0) == [(10.0, 50.0)]

    def test_window_clipping(self, monitor):
        monitor.on_query_start(1, 0.0)
        monitor.on_query_finish(1, 100.0)
        assert monitor.tenant_busy_intervals(1, 50.0, 80.0) == [(50.0, 80.0)]

    def test_activity_items_relative_epochs(self, monitor):
        monitor.on_query_start(2, 100.0)
        monitor.on_query_finish(2, 130.0)
        items = monitor.activity_items(start=100.0, end=200.0, epoch_size=10.0)
        by_id = {item.tenant_id: item for item in items}
        assert by_id[2].epochs.tolist() == [0, 1, 2]
        assert by_id[1].epochs.size == 0
        assert by_id[2].nodes_requested == 4

    def test_unregistered_intervals_rejected(self, monitor):
        with pytest.raises(DeploymentError):
            monitor.tenant_busy_intervals(99, 0.0, 1.0)


class TestExclusion:
    def test_excluded_tenant_not_counted(self, monitor):
        monitor.on_query_start(1, 0.0)
        monitor.on_query_start(2, 0.0)
        monitor.exclude_tenant(2, 10.0)
        assert monitor.concurrency.value_at(11.0) == 1.0
        assert monitor.excluded_tenants == {2}
        # Subsequent events of the excluded tenant are ignored.
        monitor.on_query_start(2, 20.0)
        monitor.on_query_finish(2, 30.0)
        assert monitor.concurrency.value_at(25.0) == 1.0

    def test_exclusion_closes_open_interval(self, monitor):
        monitor.on_query_start(2, 0.0)
        monitor.exclude_tenant(2, 10.0)
        assert monitor.tenant_busy_intervals(2, 0.0, 100.0) == [(0.0, 10.0)]

    def test_exclusion_idempotent(self, monitor):
        monitor.exclude_tenant(3, 0.0)
        monitor.exclude_tenant(3, 1.0)
        assert monitor.excluded_tenants == {3}

    def test_excluded_not_in_activity_items(self, monitor):
        monitor.exclude_tenant(1, 0.0)
        items = monitor.activity_items(0.0, 100.0, 10.0)
        assert 1 not in {item.tenant_id for item in items}

    def test_rt_ttp_recovers_after_exclusion(self, monitor):
        # Four tenants active -> one excluded -> concurrency back to 3.
        for tid in (1, 2, 3, 4):
            monitor.on_query_start(tid, 0.0)
        monitor.exclude_tenant(4, 100.0)
        for tid in (1, 2, 3):
            monitor.on_query_finish(tid, 200.0)
        # Violation only during [0, 100).
        assert monitor.rt_ttp(1000.0, window_s=1000.0) == pytest.approx(0.9)


class TestServiceWideMonitor:
    def test_lazy_group_creation(self):
        service = TenantActivityMonitor(replication_factor=3)
        a = service.group("tg0")
        assert service.group("tg0") is a
        assert set(service.groups()) == {"tg0"}
