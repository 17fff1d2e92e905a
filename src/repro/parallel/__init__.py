"""``repro.parallel`` — the one place the library starts worker processes.

The paper's §7.3 evaluation sweeps parameters over simulations of
thousands of tenants; the sweep points are independent, so they can run
on separate cores.  :func:`map_in_order` is the one sanctioned way to do
that (lint rule THR009 forbids raw ``multiprocessing`` /
``concurrent.futures`` anywhere else in ``src/repro``):

* workers start with ``spawn`` — a fresh interpreter that imports
  ``fn``'s module — so nothing depends on forked globals, open sinks or
  inherited RNG state.  ``fn`` must be a module-level function: it is
  pickled by reference;
* results come back in payload order, whatever order workers finish in;
* the first failure (a task exception or a dead worker) raises
  :class:`~repro.errors.ParallelError` naming the payload, and cancels
  the work that has not started.

``workers=0`` calls ``fn`` in-process, and its exceptions propagate
unchanged.  Determinism is the caller's half of the contract: a task's
result must depend on its payload alone (see ``docs/PARALLELISM.md``).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Sequence, Tuple, TypeVar

from ..errors import ParallelError

__all__ = ["map_in_order"]

_T = TypeVar("_T")


def map_in_order(
    fn: Callable[..., _T], payloads: Sequence[Tuple[Any, ...]], workers: int
) -> List[_T]:
    """``[fn(*payload) for payload in payloads]``, on ``workers`` processes.

    The pool has ``min(workers, len(payloads))`` spawned workers;
    ``workers=0`` runs in-process and an empty ``payloads`` starts no
    pool.
    """
    if workers < 0:
        raise ParallelError(f"workers must be >= 0, got {workers!r}")
    if workers == 0 or not payloads:
        return [fn(*payload) for payload in payloads]
    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(payloads)),
        mp_context=multiprocessing.get_context("spawn"),
    )
    try:
        futures = [pool.submit(fn, *payload) for payload in payloads]
        results: List[_T] = []
        for index, (payload, future) in enumerate(zip(payloads, futures)):
            try:
                results.append(future.result())
            except Exception as exc:
                raise ParallelError(
                    f"payload {index} {payload!r} failed: {exc!r}"
                ) from exc
        return results
    finally:
        pool.shutdown(cancel_futures=True)
