"""Span recording around the public entry points of each Thrifty layer.

The traced worker calls :func:`instrument_setup` before it builds
anything and :func:`instrument_replay` right before the measured call.
They replace a fixed set of functions and methods in ``repro`` with
wrappers that record one span per call (name, start, end, parent) or bump
a counter, and leave every argument and return value untouched, so a
traced run makes the same decisions as an untraced one.  The patches last
for the life of the worker process, which runs a single repetition.

Spans are kept in flat arrays while the run is live.  :meth:`SpanRecorder.
self_times` turns them into per-layer self time (a span's duration minus
the time its child spans cover) and :meth:`SpanRecorder.write` stores them
in one ``.npz`` file when the run ends.
"""

from __future__ import annotations

import time
import weakref
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

#: Span names, in the order their ids are assigned.  A name is
#: ``<layer>.<entry point>``; per-layer ``*_s`` metrics are its self time.
SPAN_NAMES = (
    "workload.generate",
    "workload.compose",
    "workload.tenant_log",
    "advisor.plan_from_workload",
    "activity.discretize",
    "packing.solve",
    "tdd.design",
    "service.deploy",
    "master.deploy",
    "service.replay",
    "runtime.schedule",
    "sim.loop",
    "engine.submit",
    "router.route",
    "monitor.rt_ttp",
    "scaling.maybe_scale",
    "obs.metrics",
    "obs.sink",
)


class SpanRecorder:
    """In-memory spans and counters for one traced repetition."""

    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self.counts: Counter[str] = Counter()

    def __len__(self) -> int:
        return len(self._name)

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that each call records one ``name`` span."""
        name_id = self._ids[name]
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack
        )
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def calls(self) -> Dict[str, int]:
        """Number of spans recorded per name."""
        counted = np.bincount(np.frombuffer(self._name, dtype=np.int32), minlength=len(SPAN_NAMES))
        return {name: int(counted[i]) for i, name in enumerate(SPAN_NAMES)}

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name, in seconds."""
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        covered = np.zeros(len(duration))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], duration[has_parent])
        own = np.bincount(names, weights=duration - covered, minlength=len(SPAN_NAMES))
        return {name: float(own[i]) for i, name in enumerate(SPAN_NAMES)}

    def write(self, path: Path) -> None:
        """Store every span (name id, parent index, start, end) in ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start),
            end=np.frombuffer(self._end),
        )


def _patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
    """Replace ``owner.attr`` (looked up in ``owner.__dict__``) by ``make(original)``."""
    original = owner.__dict__[attr]
    if isinstance(original, classmethod):
        setattr(owner, attr, classmethod(make(original.__func__)))
    else:
        setattr(owner, attr, make(original))


def _counted(recorder: SpanRecorder, key: str) -> Callable[[Any], Any]:
    """A wrapper factory that bumps ``recorder.counts[key]`` on each call."""

    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            recorder.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


def instrument_setup(recorder: SpanRecorder) -> None:
    """Wrap the workload, planning and deployment entry points.

    Call before building the workload.  Log generation runs its own small
    simulations, so the replay layers are wrapped later, by
    :func:`instrument_replay`.
    """
    from repro.core import advisor
    from repro.core.master import DeploymentMaster
    from repro.core.service import ThriftyService
    from repro.mppdb.provisioning import Provisioner
    from repro.packing import two_step
    from repro.workload.activity import ActivityMatrix
    from repro.workload.composer import ComposedWorkload, MultiTenantLogComposer
    from repro.workload.generator import SessionLogGenerator

    span = recorder.span
    counts = recorder.counts

    def traced(name: str) -> Callable[[Any], Any]:
        return lambda fn: span(name, fn)

    _patch(SessionLogGenerator, "generate", traced("workload.generate"))
    _patch(MultiTenantLogComposer, "compose", traced("workload.compose"))
    _patch(advisor.DeploymentAdvisor, "plan_from_workload", traced("advisor.plan_from_workload"))
    _patch(ThriftyService, "deploy", traced("service.deploy"))
    _patch(DeploymentMaster, "deploy", traced("master.deploy"))
    _patch(ThriftyService, "replay", traced("service.replay"))
    _patch(Provisioner, "provision", _counted(recorder, "provisioning.instances_started"))
    # The advisor looks these up in its own module namespace.
    advisor.GROUPING_ALGORITHMS["two-step"] = span(
        "packing.solve", advisor.GROUPING_ALGORITHMS["two-step"]
    )
    advisor.design_for_group = span("tdd.design", advisor.design_for_group)

    def tenant_log(fn: Callable[..., Any]) -> Callable[..., Any]:
        inner = span("workload.tenant_log", fn)

        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            log = inner(self, *args, **kwargs)
            counts["workload.tenant_log_records"] += len(log.records)
            return log

        return wrapper

    def from_workload(fn: Callable[..., Any]) -> Callable[..., Any]:
        inner = span("activity.discretize", fn)

        def wrapper(cls: Any, *args: Any, **kwargs: Any) -> Any:
            matrix = inner(cls, *args, **kwargs)
            counts["activity.tenant_epochs"] += sum(i.active_epoch_count for i in matrix.items)
            return matrix

        return wrapper

    def initial_groups(fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(items: Any) -> Any:
            groups = fn(items)
            counts["packing.initial_groups"] += len(groups)
            return groups

        return wrapper

    _patch(ComposedWorkload, "tenant_log", tenant_log)
    _patch(ActivityMatrix, "from_workload", from_workload)
    two_step.initial_groups = initial_groups(two_step.initial_groups)


def instrument_replay(recorder: SpanRecorder) -> None:
    """Wrap the simulator, engine, router, monitor, scaling and obs entry points.

    Call after set-up, right before the measured call, so these layers
    report the replay only.
    """
    from repro.core.monitor import GroupActivityMonitor
    from repro.core.routing import QueryRouter
    from repro.core.runtime import GroupRuntime
    from repro.core.scaling import ScalingPolicy
    from repro.mppdb.execution import ExecutionEngine
    from repro.obs import metrics
    from repro.obs.sink import MemorySink
    from repro.simulation.engine import Simulator

    span = recorder.span
    counts = recorder.counts

    def traced(name: str) -> Callable[[Any], Any]:
        return lambda fn: span(name, fn)

    _patch(GroupRuntime, "schedule", traced("runtime.schedule"))
    _patch(Simulator, "run", traced("sim.loop"))
    _patch(QueryRouter, "route", traced("router.route"))
    _patch(GroupActivityMonitor, "rt_ttp", traced("monitor.rt_ttp"))
    _patch(ScalingPolicy, "maybe_scale", traced("scaling.maybe_scale"))
    for method in ("on_metric", "on_span", "on_event"):
        _patch(MemorySink, method, traced("obs.sink"))
    for family, update in (
        (metrics.Counter, "inc_key"), (metrics.Gauge, "set_key"), (metrics.Histogram, "observe_key")
    ):
        _patch(family, "labels", traced("obs.metrics"))
        _patch(family, update, traced("obs.metrics"))
    _patch(Simulator, "schedule", _counted(recorder, "sim.events_scheduled"))

    def cancel(fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, handle: Any) -> None:
            if not handle.cancelled:
                counts["sim.events_cancelled"] += 1
            fn(self, handle)

        return wrapper

    engines: "weakref.WeakSet[Any]" = weakref.WeakSet()

    def on_completion(execution: Any) -> None:
        counts["engine.completions"] += 1

    def submit(fn: Callable[..., Any]) -> Callable[..., Any]:
        inner = span("engine.submit", fn)

        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            if self not in engines:
                engines.add(self)
                self.on_complete(on_completion)
            return inner(self, *args, **kwargs)

        return wrapper

    _patch(Simulator, "cancel", cancel)
    _patch(ExecutionEngine, "submit", submit)
