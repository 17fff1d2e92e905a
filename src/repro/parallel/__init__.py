"""``repro.parallel`` — the deterministic multi-process execution fabric.

The paper's evaluation sweeps five parameters over simulations of
thousands of tenants; every one of those work units is embarrassingly
parallel, and this package is the one sanctioned way to spread them over
cores (lint rule THR009 forbids raw ``multiprocessing`` /
``concurrent.futures`` anywhere else in ``src/repro``).

The moving parts, in pipeline order:

* :class:`ShardPlanner` splits work into self-describing
  :class:`ShardSpec` units (task reference + picklable payload + master
  seed);
* :class:`ProcessPoolRunner` executes them on a spawn-safe process pool
  — ``max_workers=0`` is the in-process serial fallback with identical
  semantics — with per-shard timeout/retry from a
  :class:`~repro.core.fault.RetryPolicy` and a typed
  :class:`~repro.errors.ShardFailedError` carrying the spec on
  exhaustion, and returns one :class:`ShardResult` per spec, in spec
  order.

Because every shard derives its RNG streams as
``derive_seed(master_seed, "shard", shard_id)`` and results come back in
spec order, they are bit-identical at any worker count.  The one
production caller is ``thrifty sweep --workers N``
(:func:`~repro.analysis.sweeps.sweep_parameter` → :func:`run_sweep`).
See ``docs/PARALLELISM.md`` for the architecture;
:mod:`repro.parallel.tasks` holds the built-in tasks (sweep points and
the ``probe`` self-test).
"""

from __future__ import annotations

from .runner import DEFAULT_SHARD_RETRY_POLICY, ProcessPoolRunner
from .shards import (
    ShardContext,
    ShardPlanner,
    ShardResult,
    ShardSpec,
    execute_shard,
    resolve_task,
    shard_task,
    task_ref,
)
from .tasks import run_sweep, sweep_shards

__all__ = [
    "ShardSpec",
    "ShardContext",
    "ShardResult",
    "ShardPlanner",
    "shard_task",
    "task_ref",
    "resolve_task",
    "execute_shard",
    "ProcessPoolRunner",
    "DEFAULT_SHARD_RETRY_POLICY",
    "sweep_shards",
    "run_sweep",
]
