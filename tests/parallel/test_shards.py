"""Shard specs, task registry, planner, and in-process execution."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ParallelError
from repro.parallel import ShardPlanner, ShardSpec, execute_shard, resolve_task, task_ref
from repro.parallel.tasks import _probe
from repro.rng import derive_seed


def probe_spec(shard_id=0, num_shards=1, master_seed=7, payload=(), attempt=0):
    return ShardSpec(
        task=task_ref(_probe),
        shard_id=shard_id,
        num_shards=num_shards,
        master_seed=master_seed,
        payload=payload,
        attempt=attempt,
    )


class TestShardSpec:
    def test_seed_is_derived_from_master_and_shard_id(self):
        spec = probe_spec(shard_id=3, num_shards=5, master_seed=42)
        assert spec.seed == derive_seed(42, "shard", 3)

    def test_sibling_shards_get_distinct_seeds(self):
        seeds = {probe_spec(shard_id=i, num_shards=8).seed for i in range(8)}
        assert len(seeds) == 8

    def test_retry_increments_attempt_but_keeps_seed(self):
        spec = probe_spec(shard_id=2, num_shards=4)
        retried = spec.retry()
        assert retried.attempt == spec.attempt + 1
        assert retried.shard_id == spec.shard_id
        assert retried.seed == spec.seed

    def test_rejects_out_of_range_shard_id(self):
        with pytest.raises(ParallelError):
            probe_spec(shard_id=3, num_shards=3)
        with pytest.raises(ParallelError):
            probe_spec(shard_id=-1, num_shards=3)

    def test_spec_is_picklable(self):
        spec = probe_spec(shard_id=1, num_shards=2, payload=(1.5, "x"))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.seed == spec.seed


class TestTaskRegistry:
    def test_ref_round_trips_through_resolve(self):
        ref = task_ref(_probe)
        assert ":" in ref
        assert resolve_task(ref) is _probe

    def test_unknown_ref_raises(self):
        with pytest.raises(ParallelError):
            resolve_task("repro.parallel.tasks:no_such_task")

    def test_unimportable_module_raises(self):
        with pytest.raises(ParallelError):
            resolve_task("repro.no_such_module:probe")


class TestShardPlanner:
    def test_plan_orders_shards_by_payload(self):
        planner = ShardPlanner(master_seed=11)
        specs = planner.plan(_probe, [(0.0, 0, "a"), (0.0, 0, "b"), (0.0, 0, "c")])
        assert [s.shard_id for s in specs] == [0, 1, 2]
        assert all(s.num_shards == 3 for s in specs)
        assert [s.payload[2] for s in specs] == ["a", "b", "c"]
        assert all(s.master_seed == 11 for s in specs)

    def test_empty_plan_is_empty(self):
        assert ShardPlanner(master_seed=1).plan(_probe, []) == []

    def test_unregistered_function_raises(self):
        with pytest.raises(ParallelError):
            ShardPlanner(master_seed=1).plan(lambda ctx: None, [()])


class TestExecuteShard:
    def test_returns_result_with_payload(self):
        result = execute_shard(probe_spec(payload=(0.0, 0, "hello")))
        assert result.shard_id == 0
        assert result.value["payload"] == "hello"
        assert result.attempt == 0

    def test_rng_draw_depends_only_on_spec_seed(self):
        a = execute_shard(probe_spec(shard_id=1, num_shards=3))
        b = execute_shard(probe_spec(shard_id=1, num_shards=3))
        c = execute_shard(probe_spec(shard_id=2, num_shards=3))
        assert a.value["draw"] == b.value["draw"]
        assert a.value["draw"] != c.value["draw"]

    def test_retried_spec_reproduces_the_same_draw(self):
        spec = probe_spec(shard_id=1, num_shards=2)
        original = execute_shard(spec)
        retried = execute_shard(spec.retry())
        assert retried.attempt == 1
        assert retried.value["draw"] == original.value["draw"]
