"""Built-in shard tasks.

Each task is a module-level function registered with
:func:`~repro.parallel.shards.shard_task`, so a spawned worker resolves it
by importing this module:

* ``sweep_point`` / :func:`sweep_shards` / :func:`run_sweep` — one shard
  per §7.3 sweep point (the parameter sweeps in
  :mod:`repro.analysis.sweeps`).
* ``probe`` — a tiny self-test task (sleep / deterministic failure /
  payload echo) used to verify a fabric installation and by the
  fault-path tests.

All payloads are plain picklable values; workloads are *built inside the
shard* from the config (each worker warms its own process-local cache)
rather than shipped across the process boundary.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from ..analysis.sweeps import BenchScale, GroupingRow, build_workload, run_grouping_experiment
from ..errors import ParallelError
from .runner import ProcessPoolRunner
from .shards import ShardContext, ShardPlanner, ShardSpec, shard_task

__all__ = ["sweep_shards", "run_sweep"]


# -- §7.3 sweep points -----------------------------------------------------


@shard_task("sweep_point")
def _sweep_point(ctx: ShardContext, parameter: str, value: object, scale: BenchScale) -> GroupingRow:
    """One sweep point: build the workload, solve with both heuristics.

    Solver seconds are measured inside the worker by
    :func:`~repro.analysis.sweeps.run_grouping_experiment`, so the row's
    timing panels exclude pool scheduling.
    """
    config = scale.config(**{parameter: value})
    workload = build_workload(config, scale.sessions_per_size)
    return run_grouping_experiment(
        workload,
        epoch_size=config.epoch_size_s,
        replication_factor=config.replication_factor,
        sla_percent=config.sla_percent,
        parameter=parameter,
        value=value,
    )


def sweep_shards(
    parameter: str, values: Sequence[object], scale: BenchScale
) -> List[ShardSpec]:
    """One shard per sweep value, seeded from the scale's master seed."""
    planner = ShardPlanner(master_seed=scale.seed)
    return planner.plan(_sweep_point, [(parameter, value, scale) for value in values])


def run_sweep(
    parameter: str,
    values: Sequence[object],
    scale: BenchScale,
    runner: ProcessPoolRunner,
) -> List[GroupingRow]:
    """Run a sweep through the fabric; rows come back in value order."""
    return [result.value for result in runner.run(sweep_shards(parameter, values, scale))]


# -- fabric self-test ------------------------------------------------------


@shard_task("probe")
def _probe(
    ctx: ShardContext,
    sleep_s: float = 0.0,
    fail_below_attempt: int = 0,
    payload: object = None,
) -> Dict[str, object]:
    """Diagnostic shard: optionally sleep, fail deterministically, echo.

    ``fail_below_attempt=k`` makes attempts ``0..k-1`` raise — exercising
    the runner's retry path end-to-end (the retried spec reaches the task
    with a higher ``attempt`` but the *same* RNG stream).
    """
    if ctx.spec.attempt < fail_below_attempt:
        raise ParallelError(
            f"probe shard {ctx.spec.shard_id} failing on attempt {ctx.spec.attempt}"
        )
    if sleep_s > 0.0:
        time.sleep(sleep_s)
    return {
        "shard_id": ctx.spec.shard_id,
        "attempt": ctx.spec.attempt,
        "draw": float(ctx.rng.stream("probe").random()),
        "payload": payload,
    }
