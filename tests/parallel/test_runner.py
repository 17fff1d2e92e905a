"""ProcessPoolRunner: serial fallback, worker-count equivalence, faults.

The pool tests spawn real worker processes; payloads are kept tiny so
each test stays in the low seconds even on a single-core machine.
"""

from __future__ import annotations

import time

import pytest

from repro.core.fault import RetryPolicy
from repro.errors import ParallelError, ShardFailedError
from repro.parallel import ProcessPoolRunner, ShardPlanner
from repro.parallel.tasks import _probe

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)
ONE_SHOT = RetryPolicy(max_attempts=1, base_delay_s=0.0, max_delay_s=0.0)


def probe_shards(n, sleep_s=0.0, fail_below_attempt=0, master_seed=13):
    planner = ShardPlanner(master_seed=master_seed)
    return planner.plan(
        _probe, [(sleep_s, fail_below_attempt, f"p{i}") for i in range(n)]
    )


class TestValidation:
    def test_rejects_negative_workers(self):
        with pytest.raises(ParallelError):
            ProcessPoolRunner(max_workers=-1)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ParallelError):
            ProcessPoolRunner(timeout_s=0.0)

    def test_rejects_duplicate_shard_ids(self):
        specs = probe_shards(2)
        with pytest.raises(ParallelError):
            ProcessPoolRunner().run([specs[0], specs[0]])

    def test_empty_run_returns_empty(self):
        assert ProcessPoolRunner().run([]) == []


class TestSerialFallback:
    def test_runs_in_order_with_derived_draws(self):
        results = ProcessPoolRunner(max_workers=0).run(probe_shards(4))
        assert [r.shard_id for r in results] == [0, 1, 2, 3]
        draws = [r.value["draw"] for r in results]
        assert len(set(draws)) == 4

    def test_serial_equals_pool(self):
        """The workers=0 fallback and a real pool agree value-for-value."""
        serial = ProcessPoolRunner(max_workers=0).run(probe_shards(4))
        pooled = ProcessPoolRunner(max_workers=2).run(probe_shards(4))
        assert [r.value for r in serial] == [r.value for r in pooled]


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


class TestRetry:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_fail_once_then_succeed(self, workers):
        specs = probe_shards(2, fail_below_attempt=1)
        runner = ProcessPoolRunner(max_workers=workers, retry_policy=FAST_RETRY)
        results = runner.run(specs)
        assert [r.attempt for r in results] == [1, 1]
        # The retried attempt reproduces the original stream bit-for-bit.
        clean = ProcessPoolRunner(max_workers=0, retry_policy=FAST_RETRY).run(
            probe_shards(2)
        )
        assert [r.value["draw"] for r in results] == [r.value["draw"] for r in clean]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_exhaustion_raises_typed_error_with_spec(self, workers):
        specs = probe_shards(1, fail_below_attempt=99)
        runner = ProcessPoolRunner(max_workers=workers, retry_policy=FAST_RETRY)
        with pytest.raises(ShardFailedError) as err:
            runner.run(specs)
        assert err.value.attempts == 2
        assert err.value.spec is not None
        assert err.value.spec.shard_id == 0
        assert err.value.spec.task == specs[0].task

    def test_shard_failed_error_is_a_parallel_error(self):
        assert issubclass(ShardFailedError, ParallelError)


class TestTimeout:
    def test_stuck_shard_times_out_and_raises(self):
        specs = probe_shards(1, sleep_s=30.0)
        runner = ProcessPoolRunner(
            max_workers=1, retry_policy=ONE_SHOT, timeout_s=0.25
        )
        started = time.perf_counter()
        with pytest.raises(ShardFailedError) as err:
            runner.run(specs)
        # The runner must not wait out the 30s sleep.
        assert time.perf_counter() - started < 15.0
        assert err.value.attempts == 1
        assert err.value.spec.shard_id == 0

    def test_timeout_spared_when_shards_are_fast(self):
        runner = ProcessPoolRunner(max_workers=2, retry_policy=ONE_SHOT, timeout_s=60.0)
        results = runner.run(probe_shards(2))
        assert len(results) == 2
