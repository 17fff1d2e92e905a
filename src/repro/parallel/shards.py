"""Shard specifications, the task registry, and the shard planner.

The execution fabric moves *self-describing* units of work between
processes: a :class:`ShardSpec` names a registered task (as a
``"module:name"`` reference the worker process can resolve by importing
the module), carries a picklable positional payload, and records the
master seed the shard's RNG streams derive from.  Because the spec is the
*complete* description of the work, a failed shard can be replayed in
isolation — :class:`~repro.errors.ShardFailedError` carries it verbatim.

Determinism contract
--------------------

Every shard derives its randomness as
``derive_seed(master_seed, "shard", shard_id)`` — a pure function of the
spec, never of the worker that happens to execute it.  Together with the
runner returning results in spec order, this makes a run bit-identical at
any worker count: same shards, same streams, same order (see
``docs/PARALLELISM.md``).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..errors import ParallelError
from ..rng import RngFactory, derive_seed

__all__ = [
    "ShardSpec",
    "ShardContext",
    "ShardResult",
    "ShardPlanner",
    "shard_task",
    "task_ref",
    "resolve_task",
]


@dataclass(frozen=True)
class ShardSpec:
    """One self-describing unit of parallel work.

    ``task`` is a ``"module.path:task_name"`` reference resolvable in any
    process via :func:`resolve_task`; ``payload`` is the task's positional
    arguments and must be picklable.  ``attempt`` counts retries (0-based)
    and deliberately does **not** feed the RNG derivation, so a retried
    shard reproduces the original shard bit-for-bit.
    """

    task: str
    shard_id: int
    num_shards: int
    master_seed: int
    payload: Tuple[Any, ...] = ()
    attempt: int = 0

    def __post_init__(self) -> None:
        if ":" not in self.task:
            raise ParallelError(
                f"task reference {self.task!r} is not of the form 'module:name'"
            )
        if self.shard_id < 0 or self.num_shards < 1 or self.shard_id >= self.num_shards:
            raise ParallelError(
                f"shard_id {self.shard_id!r} out of range for {self.num_shards!r} shard(s)"
            )
        if self.attempt < 0:
            raise ParallelError(f"attempt must be >= 0, got {self.attempt!r}")

    @property
    def seed(self) -> int:
        """The shard's derived seed: ``derive_seed(master, "shard", shard_id)``."""
        return derive_seed(self.master_seed, "shard", self.shard_id)

    def retry(self) -> "ShardSpec":
        """The same shard with ``attempt`` advanced by one."""
        return replace(self, attempt=self.attempt + 1)


@dataclass(frozen=True)
class ShardContext:
    """Everything a shard task receives besides its payload.

    ``rng`` is an independent :class:`~repro.rng.RngFactory` rooted at the
    shard's derived seed; its streams are identical no matter which worker
    (or how many workers) execute the shard.
    """

    spec: ShardSpec
    rng: RngFactory


@dataclass(frozen=True)
class ShardResult:
    """What a shard sends back: the task's value and the attempt that made it."""

    shard_id: int
    task: str
    value: Any
    attempt: int = 0


#: Registered shard tasks, keyed by their ``"module:name"`` reference.
_TASKS: Dict[str, Callable[..., Any]] = {}

#: Attribute set on a decorated function carrying its task reference.
_TASK_ATTR = "__shard_task_ref__"


def shard_task(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a function as a shard task under ``name``.

    The task's first parameter must be the :class:`ShardContext`; the
    remaining parameters come positionally from ``ShardSpec.payload``.
    Registration happens at import time of the defining module, which is
    what makes specs resolvable inside freshly spawned workers.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        ref = f"{fn.__module__}:{name}"
        if ref in _TASKS and _TASKS[ref] is not fn:
            raise ParallelError(f"duplicate shard task reference {ref!r}")
        _TASKS[ref] = fn
        setattr(fn, _TASK_ATTR, ref)
        return fn

    return decorate


def task_ref(task: "Callable[..., Any] | str") -> str:
    """The ``"module:name"`` reference of a registered task (or pass-through)."""
    if isinstance(task, str):
        return task
    ref = getattr(task, _TASK_ATTR, None)
    if ref is None:
        raise ParallelError(
            f"{task!r} is not a registered shard task; decorate it with @shard_task"
        )
    return str(ref)


def resolve_task(ref: str) -> Callable[..., Any]:
    """Resolve a task reference, importing its defining module if needed.

    This is the spawn-safety hinge: a worker process starts with an empty
    registry, imports ``module`` from the reference, and the import's
    ``@shard_task`` decorations repopulate it.
    """
    if ref not in _TASKS:
        module_name = ref.split(":", 1)[0]
        try:
            importlib.import_module(module_name)
        except ImportError as exc:
            raise ParallelError(f"cannot import task module {module_name!r}: {exc}") from exc
    try:
        return _TASKS[ref]
    except KeyError:
        raise ParallelError(f"unknown shard task {ref!r}") from None


def execute_shard(spec: ShardSpec) -> ShardResult:
    """Run one shard in the current process and package its result.

    Module-level (hence picklable) so :class:`~repro.parallel.runner.ProcessPoolRunner`
    can submit it directly to a ``concurrent.futures`` pool; the serial
    ``workers=0`` fallback calls it in-process for identical semantics.
    """
    fn = resolve_task(spec.task)
    value = fn(ShardContext(spec=spec, rng=RngFactory(spec.seed)), *spec.payload)
    return ShardResult(shard_id=spec.shard_id, task=spec.task, value=value, attempt=spec.attempt)


@dataclass(frozen=True)
class ShardPlanner:
    """Splits embarrassingly-parallel work into :class:`ShardSpec` lists.

    The planner is deliberately dumb: one payload, one shard.  Whoever
    builds the payload list controls granularity; the sweep helpers live
    in :mod:`repro.parallel.tasks`.
    """

    master_seed: int

    def plan(
        self, task: "Callable[..., Any] | str", payloads: Sequence[Tuple[Any, ...]]
    ) -> List[ShardSpec]:
        """One shard per payload, ids assigned in payload order."""
        if not payloads:
            return []
        ref = task_ref(task)
        total = len(payloads)
        return [
            ShardSpec(
                task=ref,
                shard_id=index,
                num_shards=total,
                master_seed=self.master_seed,
                payload=tuple(payload),
            )
            for index, payload in enumerate(payloads)
        ]
