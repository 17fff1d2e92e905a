"""map_in_order: in-process and pooled mapping, order, typed failures.

The pool tests spawn real worker processes; payloads are kept tiny so
each test stays in the low seconds even on a single-core machine.
"""

from __future__ import annotations

import pytest

from repro.errors import ParallelError
from repro.parallel import map_in_order

PAYLOADS = [(7, 2), (9, 4), (20, 6), (5, 5)]
EXPECTED = [divmod(a, b) for a, b in PAYLOADS]


class TestValidation:
    def test_rejects_negative_workers(self):
        with pytest.raises(ParallelError):
            map_in_order(divmod, PAYLOADS, -1)

    def test_empty_run_returns_empty(self):
        assert map_in_order(divmod, [], 0) == []
        assert map_in_order(divmod, [], 2) == []


class TestSerialFallback:
    def test_serial_equals_pool(self):
        """Both paths return the results in payload order."""
        assert map_in_order(divmod, PAYLOADS, 0) == EXPECTED
        assert map_in_order(divmod, PAYLOADS, 2) == EXPECTED


class TestFailures:
    def test_pool_failure_names_the_payload(self):
        with pytest.raises(ParallelError, match=r"payload 0 \(1, 0\)") as err:
            map_in_order(divmod, [(1, 0), (7, 2)], 2)
        assert isinstance(err.value.__cause__, ZeroDivisionError)

    def test_in_process_failure_propagates_unchanged(self):
        with pytest.raises(ZeroDivisionError):
            map_in_order(divmod, [(1, 0)], 0)


class TestWorkerCountEquivalence:
    """Satellite: sweep results are bit-identical at any worker count."""

    @pytest.fixture(scope="class")
    def sweep_runs(self):
        from repro.analysis.sweeps import BenchScale, sweep_parameter

        scale = BenchScale(
            num_tenants=40, horizon_days=7, holiday_weekdays=0, sessions_per_size=4, seed=7
        )
        values = [10.0, 60.0, 600.0]
        return {
            workers: sweep_parameter("epoch_size_s", values, scale=scale, workers=workers)
            for workers in (0, 2, 8)
        }

    def test_row_identities_match_across_worker_counts(self, sweep_runs):
        serial = [row.identity() for row in sweep_runs[0]]
        assert [row.identity() for row in sweep_runs[2]] == serial
        assert [row.identity() for row in sweep_runs[8]] == serial

    def test_rows_come_back_in_value_order(self, sweep_runs):
        for rows in sweep_runs.values():
            assert [row.value for row in rows] == [10.0, 60.0, 600.0]

    def test_rows_are_nontrivial(self, sweep_runs):
        for row in sweep_runs[0]:
            # Tiny scales can go negative (R=3 replication overhead beats
            # consolidation at 40 tenants); the point is the value is real.
            assert -1.0 <= row.two_step_effectiveness <= 1.0
            assert row.extras["num_epochs"] > 0
            assert row.two_step_group_size >= 1.0
