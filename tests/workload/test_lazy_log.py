"""Differential tests of the replay's lazy submission source.

``ComposedWorkload.lazy_log(t).submissions(until)`` must count and yield
exactly ``[r for r in workload.tenant_log(t).records if r.submit_time_s <
until]``: the same records in the same order, ties included.  The tenant
log's stable sort on ``(submit_time_s, user, template)`` is the oracle.
Its ``total_busy_seconds()`` must equal the tenant log's exactly.
"""

from __future__ import annotations

import pytest

from repro.config import LogGenerationConfig
from repro.units import DAY, HOUR
from repro.workload.composer import ComposedWorkload, MultiTenantLogComposer, SessionPick
from repro.workload.generator import SessionLibrary, SessionLog, SessionLogGenerator
from repro.workload.logs import QueryRecord, TenantLog
from repro.workload.tenant import TenantSpec
from tests.conftest import tiny_config


def _drain(source, until):
    count, records = source.submissions(until)
    return count, [next(records) for _ in range(count)]


def _horizons(records, workload):
    """Horizons around and exactly on logged submit times, plus the extremes."""
    times = sorted({r.submit_time_s for r in records})
    picked = times[:: max(1, len(times) // 5)] + times[-1:]
    return [0.0, *picked, *(t + 1e-6 for t in picked), 1.5 * DAY, workload.horizon_s, 1e9]


def _assert_matches(workload, tenant_ids):
    for tenant_id in tenant_ids:
        log = workload.tenant_log(tenant_id)
        records = log.records
        source = workload.lazy_log(tenant_id)
        assert source.tenant_id == tenant_id
        assert source.total_busy_seconds() == log.total_busy_seconds(), tenant_id
        for until in _horizons(records, workload):
            want = [r for r in records if r.submit_time_s < until]
            count, got = _drain(source, until)
            assert count == len(want), (tenant_id, until)
            assert got == want, (tenant_id, until)


def _one_session_library(records, node_size=2):
    session = SessionLog(
        node_size=node_size,
        benchmark="tpch",
        num_users=3,
        records=tuple(sorted(records, key=lambda r: r.submit_time_s)),
        duration_s=3 * HOUR,
    )
    return SessionLibrary({node_size: [session]})


def _workload(library, shifts, horizon_s=10 * DAY, node_size=2):
    picks = tuple(SessionPick(node_size, 0, shift) for shift in shifts)
    tenant = TenantSpec(tenant_id=0, nodes_requested=node_size, data_gb=200.0)
    return ComposedWorkload([tenant], {0: picks}, library, horizon_s)


class TestSeededWorkloads:
    @pytest.mark.parametrize("seed", [7, 13])
    def test_tiny_workloads(self, seed):
        config = tiny_config(num_tenants=10, seed=seed)
        library = SessionLogGenerator(config, sessions_per_size=3).generate()
        workload = MultiTenantLogComposer(config, library).compose()
        _assert_matches(workload, workload.tenant_ids)

    def test_perfbench_like_workload(self):
        # The perfbench replay shape: 3-day logs, no holidays, 16 sessions
        # per size, every node size.
        config = tiny_config(
            num_tenants=12,
            seed=20130625,
            node_sizes=(2, 4, 8, 16, 32),
            logs=LogGenerationConfig(horizon_days=3, holiday_weekdays=0),
        )
        library = SessionLogGenerator(config, sessions_per_size=16).generate()
        workload = MultiTenantLogComposer(config, library).compose()
        _assert_matches(workload, workload.tenant_ids)


class TestEdgeWorkloads:
    def test_overlapping_picks_and_unaligned_shifts(self):
        # The composer's edge shape: the picks at 0 s and 20 s overlap, the
        # 7.5 s and 3600.25 s shifts are on no epoch grid, and one pick
        # repeats another's shift, so whole records tie across picks.
        records = [
            QueryRecord(submit_time_s=s, latency_s=w, template="q", user=u)
            for s, w, u in [(0.0, 10.0, 0), (25.0, 0.0, 1), (30.0, 5.0, 0), (55.0, 5.0, 2)]
        ]
        workload = _workload(
            _one_session_library(records), (20.0, 0.0, 7.5, 3600.25, 20.0)
        )
        _assert_matches(workload, [0])

    def test_same_instant_ties_follow_user_then_template(self):
        # A batch submits several queries at one instant; the session keeps
        # them in completion order, the tenant log orders them by user and
        # template, and exact duplicates keep their session order.
        records = [
            QueryRecord(submit_time_s=100.0, latency_s=5.0, template="tpch.q9", user=2),
            QueryRecord(submit_time_s=100.0, latency_s=4.0, template="tpch.q1", user=2),
            QueryRecord(submit_time_s=100.0, latency_s=3.0, template="tpch.q1", user=0),
            QueryRecord(submit_time_s=100.0, latency_s=6.0, template="tpch.q1", user=2, batch_id=4),
            QueryRecord(submit_time_s=40.0, latency_s=1.0, template="tpch.q3", user=1),
            QueryRecord(submit_time_s=100.0, latency_s=7.0, template="tpch.q3", user=1),
        ]
        # Two picks 60 s apart put 40 s of one on the 100 s of the other.
        workload = _workload(_one_session_library(records), (60.0, 0.0, 60.0))
        _assert_matches(workload, [0])
        count, got = _drain(workload.lazy_log(0), 1e9)
        keys = [(r.submit_time_s, r.user, r.template) for r in got]
        assert keys == sorted(keys) and count == 18

    def test_shift_that_rounds_distinct_times_together(self):
        # 2**20 s has an ulp of 2**-32 s, so a 2**-40 s gap disappears in
        # the shift; the two records then tie and the user decides.
        a = QueryRecord(submit_time_s=1.0, latency_s=1.0, template="q", user=5)
        b = QueryRecord(submit_time_s=1.0 + 2.0**-40, latency_s=1.0, template="q", user=1)
        workload = _workload(_one_session_library([a, b]), (2.0**20, 0.0))
        assert a.shifted(2.0**20).submit_time_s == b.shifted(2.0**20).submit_time_s
        _assert_matches(workload, [0])
        __, got = _drain(workload.lazy_log(0), 1e9)
        assert [r.user for r in got] == [5, 1, 1, 5]

    def test_nothing_before_the_first_shift(self):
        records = [QueryRecord(submit_time_s=0.0, latency_s=1.0, template="q")]
        workload = _workload(_one_session_library(records), (DAY,))
        assert _drain(workload.lazy_log(0), DAY) == (0, [])
        assert _drain(workload.lazy_log(0), DAY + 1.0)[0] == 1


class TestRecordsAreBuiltWhenDue:
    def test_records_are_built_one_at_a_time(self, monkeypatch, workload):
        tenant_id = workload.tenant_ids[0]
        count, records = workload.lazy_log(tenant_id).submissions(workload.horizon_s)
        built = []
        original = QueryRecord.shifted

        def shifted(self, offset_s):
            built.append(offset_s)
            return original(self, offset_s)

        monkeypatch.setattr(QueryRecord, "shifted", shifted)
        assert count > 2
        next(records)
        # One record per pick the merge looks ahead on, never the log.
        assert len(built) <= len(workload.picks_of(tenant_id))
        assert len(built) < count

    def test_session_order_is_cached(self, workload):
        library = workload.library
        node_size = library.node_sizes[0]
        assert library.replay_order(node_size, 0) is library.replay_order(node_size, 0)


class TestTenantLogSource:
    def test_bisected_prefix(self, workload):
        log = workload.tenant_log(workload.tenant_ids[1])
        for until in [0.0, log.records[3].submit_time_s, 2 * DAY, 1e9]:
            count, got = _drain(log, until)
            want = [r for r in log.records if r.submit_time_s < until]
            assert count == len(want) and got == want

    def test_empty_log(self):
        spec = TenantSpec(tenant_id=0, nodes_requested=2, data_gb=200.0)
        assert _drain(TenantLog(spec, []), 1e9) == (0, [])
