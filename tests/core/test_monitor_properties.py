"""Property-based tests on the activity monitor's bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import GroupActivityMonitor

_NUM_TENANTS = 4

# Scripts of (tenant, busy duration, gap before start), played sequentially
# per tenant but interleaved across tenants by absolute times.
_SCRIPTS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=_NUM_TENANTS),
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    ),
    min_size=1,
    max_size=20,
)


def _play(script):
    """Drive the monitor with per-tenant sequential busy intervals."""
    monitor = GroupActivityMonitor("g", replication_factor=2)
    for tid in range(1, _NUM_TENANTS + 1):
        monitor.register_tenant(tid, nodes_requested=2)
    next_free = {tid: 0.0 for tid in range(1, _NUM_TENANTS + 1)}
    events = []  # (time, +1/-1, tenant)
    for tenant, duration, gap in script:
        start = next_free[tenant] + gap
        end = start + duration
        events.append((start, +1, tenant))
        events.append((end, -1, tenant))
        next_free[tenant] = end
    horizon = max(t for t, __, __ in events) + 1.0
    for time, kind, tenant in sorted(events):
        if kind > 0:
            monitor.on_query_start(tenant, time)
        else:
            monitor.on_query_finish(tenant, time)
    return monitor, horizon


class TestMonitorInvariants:
    @given(_SCRIPTS)
    @settings(max_examples=60, deadline=None)
    def test_everything_ends_inactive(self, script):
        monitor, __ = _play(script)
        assert monitor.active_tenants() == set()
        assert monitor.concurrency.value_at_end() == 0.0

    @given(_SCRIPTS)
    @settings(max_examples=60, deadline=None)
    def test_busy_intervals_cover_total_duration(self, script):
        monitor, horizon = _play(script)
        per_tenant_expected = {}
        for tenant, duration, __ in script:
            per_tenant_expected[tenant] = per_tenant_expected.get(tenant, 0.0) + duration
        for tenant, expected in per_tenant_expected.items():
            intervals = monitor.tenant_busy_intervals(tenant, 0.0, horizon)
            total = sum(e - s for s, e in intervals)
            assert total == pytest.approx(expected, rel=1e-9)

    @given(_SCRIPTS)
    @settings(max_examples=60, deadline=None)
    def test_rt_ttp_in_unit_interval(self, script):
        monitor, horizon = _play(script)
        ttp = monitor.rt_ttp(horizon, window_s=horizon)
        assert 0.0 <= ttp <= 1.0

    @given(_SCRIPTS)
    @settings(max_examples=60, deadline=None)
    def test_max_concurrent_bounded_by_tenants(self, script):
        monitor, horizon = _play(script)
        peak = max(value for _, value in monitor.concurrency.changes())
        assert 0 <= peak <= _NUM_TENANTS

    @given(_SCRIPTS)
    @settings(max_examples=60, deadline=None)
    def test_activity_items_match_intervals(self, script):
        monitor, horizon = _play(script)
        items = monitor.activity_items(0.0, horizon, epoch_size=1.0)
        for item in items:
            intervals = monitor.tenant_busy_intervals(item.tenant_id, 0.0, horizon)
            busy = sum(e - s for s, e in intervals)
            # Epoch count bounds busy time from above (epoch inflation)
            # and cannot be more than busy + 2 epochs per interval.
            assert item.active_epoch_count * 1.0 >= busy - 1e-9
            assert item.active_epoch_count <= busy + 2 * max(len(intervals), 1)
