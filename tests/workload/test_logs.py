"""Query record / tenant log / interval algebra tests."""

import pytest

from repro.errors import WorkloadError
from repro.workload.logs import QueryRecord, TenantLog, merge_intervals
from repro.workload.tenant import TenantSpec


def _spec(tenant_id=1, nodes=2):
    return TenantSpec(tenant_id=tenant_id, nodes_requested=nodes, data_gb=200.0)


class TestQueryRecord:
    def test_finish_time(self):
        record = QueryRecord(submit_time_s=10.0, latency_s=5.0, template="tpch.q1")
        assert record.finish_time_s == 15.0

    def test_shifted(self):
        record = QueryRecord(submit_time_s=10.0, latency_s=5.0, template="tpch.q1")
        moved = record.shifted(100.0)
        assert moved.submit_time_s == 110.0
        assert moved.latency_s == 5.0
        assert record.submit_time_s == 10.0  # original untouched

    def test_shifted_keeps_every_other_field(self):
        record = QueryRecord(
            submit_time_s=10.0, latency_s=5.0, template="tpcds.q72", user=3, batch_id=9
        )
        assert record.shifted(2.5) == QueryRecord(
            submit_time_s=12.5, latency_s=5.0, template="tpcds.q72", user=3, batch_id=9
        )

    def test_shifted_rejects_a_negative_submit_time(self):
        record = QueryRecord(submit_time_s=10.0, latency_s=5.0, template="tpch.q1")
        assert record.shifted(-10.0).submit_time_s == 0.0
        with pytest.raises(WorkloadError):
            record.shifted(-10.5)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            QueryRecord(submit_time_s=-1.0, latency_s=1.0, template="x")
        with pytest.raises(WorkloadError):
            QueryRecord(submit_time_s=1.0, latency_s=-1.0, template="x")


class TestMergeIntervals:
    def test_disjoint_kept(self):
        assert merge_intervals([(0, 1), (2, 3)]) == [(0.0, 1.0), (2.0, 3.0)]

    def test_overlapping_merged(self):
        assert merge_intervals([(0, 5), (3, 8)]) == [(0.0, 8.0)]

    def test_touching_merged(self):
        assert merge_intervals([(0, 2), (2, 4)]) == [(0.0, 4.0)]

    def test_contained_absorbed(self):
        assert merge_intervals([(0, 10), (2, 3)]) == [(0.0, 10.0)]

    def test_unsorted_input(self):
        assert merge_intervals([(5, 6), (0, 1)]) == [(0.0, 1.0), (5.0, 6.0)]

    def test_empty(self):
        assert merge_intervals([]) == []

    def test_reversed_interval_rejected(self):
        with pytest.raises(WorkloadError):
            merge_intervals([(5, 3)])


class TestTenantLog:
    def _log(self):
        records = [
            QueryRecord(submit_time_s=0.0, latency_s=10.0, template="tpch.q1"),
            QueryRecord(submit_time_s=5.0, latency_s=10.0, template="tpch.q6"),
            QueryRecord(submit_time_s=100.0, latency_s=20.0, template="tpch.q19"),
        ]
        return TenantLog(_spec(), records)

    def test_records_sorted(self):
        records = [
            QueryRecord(submit_time_s=50.0, latency_s=1.0, template="b"),
            QueryRecord(submit_time_s=10.0, latency_s=1.0, template="a"),
        ]
        log = TenantLog(_spec(), records)
        assert [r.submit_time_s for r in log.records] == [10.0, 50.0]

    def test_busy_intervals_merge_overlaps(self):
        log = self._log()
        assert log.busy_intervals() == [(0.0, 15.0), (100.0, 120.0)]

    def test_total_busy_seconds(self):
        assert self._log().total_busy_seconds() == pytest.approx(35.0)

    def test_strong_notion_of_activity(self):
        # §4.3: inactive means no query running anywhere, even between
        # queries of the same interactive session.
        log = self._log()
        assert log.is_active_at(7.0)
        assert not log.is_active_at(15.0)  # half-open
        assert not log.is_active_at(50.0)
        assert log.is_active_at(100.0)
        assert not log.is_active_at(500.0)

    def test_is_active_before_first_record(self):
        log = self._log()
        assert not log.is_active_at(-0.0) or log.is_active_at(0.0)

    def test_window(self):
        log = self._log()
        windowed = log.window(0.0, 50.0)
        assert len(windowed) == 2
        assert windowed.tenant_id == 1

    def test_horizon(self):
        assert self._log().horizon_s() == 120.0
        assert TenantLog(_spec(), []).horizon_s() == 0.0
