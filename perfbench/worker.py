"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload replay --seed 20130625 [--spans-out F]

Builds the workload's inputs from the seed, times set-up and the measured
call, checks the outcome, and prints one JSON object as its last line.
With ``--spans-out`` the repetition is traced: layer entry points record
spans (see ``tracer.py``), the JSON carries per-layer figures, and the
spans are written to that file.  Nothing is cached across repetitions:
each one is its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import resource
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from tracer import SpanRecorder, instrument_replay, instrument_setup

#: Per-node mean time between failures: two weeks gives 12-18 node
#: failures a day on the ~230 nodes these deployments use.
CHAOS_MTBF_S = 1209600.0
#: The replay's event loop runs in this many equal slices of simulated
#: time, with the host-speed probe run between them.
REPLAY_SLICES = 20
#: Wall time of ``_probe`` on an uncontended core of the 2.1 GHz Xeon
#: (KVM guest) the benchmark was tuned on.  It sets the unit of the
#: host-speed-corrected time and so only scales ``ops_per_s``.
PROBE_REF_S = 0.03


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; ``replay_queries == 0`` means plan only.

    A replay runs until ``replay_queries`` logged queries have been
    submitted (about one simulated day), so every seed replays the same
    amount of work.
    """

    tenants: int
    horizon_days: int
    holiday_weekdays: int
    sessions_per_size: int
    replay_queries: int = 0
    obs_chaos: bool = False


WORKLOADS = {
    "plan": Workload(800, 14, 1, 16),
    "replay": Workload(80, 3, 0, 16, replay_queries=60000),
    "replay-obs-chaos": Workload(80, 3, 0, 16, replay_queries=60000, obs_chaos=True),
}


def _config(spec: Workload, seed: int) -> Any:
    from repro.config import EvaluationConfig, LogGenerationConfig

    logs = LogGenerationConfig(
        horizon_days=spec.horizon_days, holiday_weekdays=spec.holiday_weekdays
    )
    # R = 3, P = 99.9 %, E = 1 s are the EvaluationConfig defaults.
    return EvaluationConfig(num_tenants=spec.tenants, seed=seed, logs=logs)


def _compose(config: Any, spec: Workload) -> Any:
    """``spec.tenants`` tenants whose node-size mix is the Zipf expectation.

    Seeds then change which tenants (activity, time zones, sessions) a
    workload holds but not how many of each size, which is what sets most
    of its cost.  The tenants are the first of each size in a composed pool
    four times larger.
    """
    from repro.workload.composer import MultiTenantLogComposer
    from repro.workload.distributions import zipf_pmf
    from repro.workload.generator import SessionLogGenerator

    library = SessionLogGenerator(config, sessions_per_size=spec.sessions_per_size).generate()
    pool = MultiTenantLogComposer(config, library).compose(4 * spec.tenants)
    sizes = sorted(config.node_sizes)
    share = zipf_pmf(len(sizes), config.theta) * spec.tenants
    quota = [int(x) for x in share]
    for i in sorted(range(len(sizes)), key=lambda i: quota[i] - share[i])[: spec.tenants - sum(quota)]:
        quota[i] += 1
    chosen: List[int] = []
    for size, wanted in zip(sizes, quota):
        ids = [t.tenant_id for t in pool.tenants if t.nodes_requested == size][:wanted]
        if len(ids) < wanted:
            raise RuntimeError(f"pool holds {len(ids)} tenants of size {size}, need {wanted}")
        chosen += ids
    return pool.subset(sorted(chosen))


def _horizon(workload: Any, tenant_ids: List[int], queries: int) -> float:
    """The simulated time by which ``queries`` queries of these tenants are submitted.

    Submit times are the library sessions' times plus each pick's shift,
    exactly as ``ComposedWorkload.tenant_log`` builds them.
    """
    session_times: Dict[Tuple[int, int], np.ndarray] = {}
    times = []
    for tenant_id in tenant_ids:
        for pick in workload.picks_of(tenant_id):
            key = (pick.node_size, pick.session_index)
            if key not in session_times:
                records = workload.library.session(*key).records
                session_times[key] = np.array([r.submit_time_s for r in records])
            times.append(session_times[key] + pick.shift_s)
    ordered = np.sort(np.concatenate(times))
    return float(ordered[queries - 1] + ordered[queries]) / 2.0


def _probe() -> float:
    """Wall time of a fixed pure-Python kernel: small dicts, a heap, a sort.

    Contention from other tenants of a shared host slows it about as much
    as it slows the replay, so it reads the host's speed at the moment.
    """
    started = time.perf_counter()
    heap: List[Tuple[int, int]] = []
    index: Dict[int, Dict[str, float]] = {}
    # Four rounds of 5,000 rows keep the probe's own memory out of
    # ``peak_rss_mb``.
    for _ in range(4):
        rows = []
        for i in range(5000):
            row = {"key": float(i), "value": i * 1.5}
            rows.append(row)
            heapq.heappush(heap, (i * 7919 % 10007, i))
            index[i % 4093] = row
            if len(heap) > 2000:
                heapq.heappop(heap)
        rows.sort(key=lambda r: -r["value"])
    return time.perf_counter() - started


class Stopwatch:
    """Times the measured call in segments, probing host speed between them.

    ``lap`` ends a segment.  With ``probed`` set, ``_probe`` runs before
    the first segment and after each one, outside the timed segments, and
    ``reference_s`` scales each segment by ``PROBE_REF_S`` over the mean
    of the two probes around it: the call's time on an uncontended host.
    """

    def __init__(self, probed: bool) -> None:
        self.probed = probed
        self.segments: List[float] = []
        self.probes: List[float] = []
        self._since = 0.0

    def start(self) -> None:
        if self.probed:
            self.probes.append(_probe())
        self._since = time.perf_counter()

    def lap(self) -> None:
        self.segments.append(time.perf_counter() - self._since)
        if self.probed:
            self.probes.append(_probe())
        self._since = time.perf_counter()

    @property
    def total_s(self) -> float:
        return sum(self.segments)

    @property
    def reference_s(self) -> float:
        if not self.probed:
            return self.total_s
        return sum(
            t * 2.0 * PROBE_REF_S / (before + after)
            for t, before, after in zip(self.segments, self.probes, self.probes[1:])
        )


def _time_slices(simulator: Any, watch: Stopwatch) -> None:
    """Make ``simulator.run(until=...)`` run in ``REPLAY_SLICES`` laps of ``watch``.

    The work before the loop is one more lap.  Running up to a later
    ``until`` resumes exactly where the previous slice stopped, so the
    replay makes the same decisions as one uninterrupted run.
    """
    run = simulator.run

    def sliced(until: float) -> int:
        watch.lap()
        start, fired = simulator.now, 0
        for k in range(1, REPLAY_SLICES + 1):
            fired += run(until=until if k == REPLAY_SLICES else start + (until - start) * k / REPLAY_SLICES)
            watch.lap()
        return fired

    simulator.run = sliced


def _digest(rows: List[Any]) -> str:
    return hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()[:16]


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def _check_partition(advice: Any, tenant_ids: List[int], errors: List[str]) -> None:
    """The grouping validates and places each consolidated tenant exactly once."""
    try:
        advice.grouping.validate()
    except Exception as exc:  # any validation failure fails the run
        errors.append(f"GroupingSolution.validate: {exc}")
    placed = Counter(t.tenant_id for group in advice.plan for t in group.tenants)
    twice = sorted(t for t, n in placed.items() if n > 1)
    if twice:
        errors.append(f"tenants in more than one group: {twice[:5]}")
    consolidated = set(tenant_ids) - {t.tenant_id for t in advice.excluded}
    if set(placed) != consolidated:
        errors.append("plan groups do not cover exactly the consolidated tenants")


def _replay_outcome(service: Any, report: Any, errors: List[str]) -> Dict[str, Any]:
    """Counts, SLA figures and books of a finished replay."""
    # A query aborted just before the horizon waits out its retry backoff
    # in the event queue, outside every per-group tally.
    retrying = sum(
        1 for entry in service.simulator._queue._heap
        if not entry.cancelled and entry.event.label == "query-retry"
    )
    totals: Counter[str] = Counter()
    for name, group in sorted(report.group_reports.items()):
        runtime = service._runtimes[name]
        parked, inflight = len(runtime._parked), len(runtime._inflight)
        totals.update(
            submitted=group.queries_submitted,
            completed=group.queries_completed,
            failed=group.queries_failed,
            retried=group.queries_retried,
            failovers=group.failovers,
            overflow=group.overflow_queries,
            parked=parked,
            inflight=inflight,
        )
        accounted = group.queries_completed + group.queries_failed + parked + inflight
        if group.queries_submitted != accounted and not retrying:
            errors.append(f"group {name}: books do not balance")
    if totals["submitted"] != (
        totals["completed"] + totals["failed"] + totals["parked"] + totals["inflight"] + retrying
    ):
        errors.append("books do not balance across groups")
    sla = report.sla
    if len(sla) != totals["completed"]:
        errors.append("SLA records and completions differ")
    slowdowns = sorted([r.normalized for r in sla.records] + [math.inf] * totals["failed"])
    records = [
        (r.tenant_id, r.group_name, r.instance_name, r.template,
         r.submit_time_s, r.baseline_latency_s, r.observed_latency_s)
        for r in sla.records
    ]
    return {
        "queries": dict(sorted(totals.items())),
        "node_failures": service.health.node_failures_handled,
        "scaling_actions": len(report.scaling_actions()),
        "sla_met_fraction": sla.fraction_met,
        "query_slowdown_p50": _percentile(slowdowns, 50.0),
        "query_slowdown_p999": _percentile(slowdowns, 99.9),
        "query_slowdown_samples": len(slowdowns),
        "failed_query_fraction": totals["failed"] / totals["submitted"],
        "sla_digest": _digest(records),
    }


def _layers(
    recorder: SpanRecorder, advice: Any, service: Optional[Any], outcome: Dict[str, Any]
) -> Dict[str, float]:
    """Per-layer figures of a traced repetition."""
    own = recorder.self_times()
    calls = recorder.calls()
    counts = recorder.counts
    queries = outcome.get("queries", {})
    fired = service.simulator.events_fired if service else 0
    sink = service.observer.sink if service and service.observer.enabled else None
    layers = {
        "workload.generate_s": own["workload.generate"],
        "workload.compose_s": own["workload.compose"],
        "workload.tenant_log_s": own["workload.tenant_log"],
        "workload.tenant_log_records": counts["workload.tenant_log_records"],
        "activity.discretize_s": own["activity.discretize"],
        "activity.tenant_epochs": counts["activity.tenant_epochs"],
        "packing.solve_s": own["packing.solve"],
        "packing.initial_groups": counts["packing.initial_groups"],
        "packing.tenant_groups": len(advice.grouping.groups),
        "tdd.design_s": own["tdd.design"],
        "tdd.design_calls": calls["tdd.design"],
        "master.deploy_s": own["master.deploy"],
        "provisioning.instances_started": counts["provisioning.instances_started"],
        "sim.events_fired": fired,
        "sim.events_scheduled": counts["sim.events_scheduled"],
        "sim.events_cancelled": counts["sim.events_cancelled"],
        "sim.useful_event_ratio": fired / max(1, counts["sim.events_scheduled"]),
        "sim.loop_self_s": own["sim.loop"],
        "engine.submit_calls": calls["engine.submit"],
        "engine.submit_s": own["engine.submit"],
        "engine.completions": counts["engine.completions"],
        "engine.retained_executions": sum(
            len(i.engine.completed) for i in service.provisioner.instances
        ) if service else 0,
        "router.route_calls": calls["router.route"],
        "router.route_s": own["router.route"],
        "router.overflow_fraction": queries.get("overflow", 0) / max(1, calls["router.route"]),
        "monitor.rt_ttp_calls": calls["monitor.rt_ttp"],
        "monitor.rt_ttp_s": own["monitor.rt_ttp"],
        "monitor.change_points": sum(
            len(list(m.concurrency.changes())) for m in service.monitor.groups().values()
        ) if service else 0,
        "scaling.maybe_scale_calls": calls["scaling.maybe_scale"],
        "scaling.maybe_scale_s": own["scaling.maybe_scale"],
        "scaling.actions": outcome.get("scaling_actions", 0),
        "runtime.schedule_s": own["runtime.schedule"],
        "runtime.queries_submitted": queries.get("submitted", 0),
        "runtime.queries_completed": queries.get("completed", 0),
        "health.node_failures": outcome.get("node_failures", 0),
        "runtime.queries_retried": queries.get("retried", 0),
        "runtime.failovers": queries.get("failovers", 0),
        "runtime.queries_failed": queries.get("failed", 0),
        "obs.metric_samples": len(sink.metrics) if sink else 0,
        "obs.spans": len(sink.spans) if sink else 0,
        "obs.events": len(sink.events) if sink else 0,
        "obs.metrics_s": own["obs.metrics"],
        "obs.sink_s": own["obs.sink"],
        "trace.spans": len(recorder),
    }
    return {name: float(value) for name, value in layers.items()}


def run(name: str, seed: int, spans_out: Optional[Path]) -> Dict[str, Any]:
    """Build, time and check one repetition of workload ``name``."""
    recorder = SpanRecorder() if spans_out else None
    if recorder is not None:
        instrument_setup(recorder)
    from repro.core.advisor import DeploymentAdvisor
    from repro.core.fault import RetryPolicy
    from repro.core.service import ThriftyService
    from repro.obs import MemorySink, Observer
    from repro.units import DAY

    spec = WORKLOADS[name]
    config = _config(spec, seed)
    errors: List[str] = []
    service = None

    started = time.perf_counter()
    workload = _compose(config, spec)
    if spec.replay_queries:
        observer = Observer(MemorySink()) if spec.obs_chaos else None
        # With chaos on, parked queries wait out the whole replay for a
        # recovered replica instead of failing at the default 4 h deadline.
        fault = RetryPolicy(queue_deadline_s=2 * DAY) if spec.obs_chaos else None
        service = ThriftyService(config, observer=observer, fault=fault)
        advice = service.deploy(workload)
        consolidated = [t.tenant_id for group in advice.plan for t in group.tenants]
        until = _horizon(workload, consolidated, spec.replay_queries)
        if spec.obs_chaos:
            service.arm_chaos(CHAOS_MTBF_S, horizon=until)
    setup_s = time.perf_counter() - started
    if recorder is not None:
        instrument_replay(recorder)
    # Probes between a few long plan phases would read the host too
    # seldom to follow it, so only the replay is probed.
    watch = Stopwatch(probed=service is not None)
    if service is not None:
        _time_slices(service.simulator, watch)
    watch.start()
    if service is not None:
        report = service.replay(until=until)
    else:
        advice = DeploymentAdvisor(config).plan_from_workload(workload)
    watch.lap()
    op_s = watch.total_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _check_partition(advice, workload.tenant_ids, errors)
    if service is not None:
        outcome = _replay_outcome(service, report, errors)
        outcome["horizon_s"] = until
        queries = outcome["queries"]
        ops = attempted = queries["submitted"]
        failed = queries["failed"]
    else:
        # Algorithm 2's cost follows the tenants' active epochs, so the rate
        # is tenant-epochs planned per second.  The plan is the one
        # operation attempted; it fails when its checks do.
        outcome = {}
        ops = sum(item.active_epoch_count for item in advice.grouping.problem.items)
        attempted, failed = 1, int(bool(errors))

    plan = advice.plan
    outcome.update(
        groups=len(plan),
        nodes_used=plan.total_nodes_used,
        nodes_requested=plan.total_nodes_requested,
        nodes_used_fraction=plan.total_nodes_used / plan.total_nodes_requested,
        partition=_digest(
            [g.tenant_ids for g in advice.grouping.groups]
            + [sorted(t.tenant_id for t in advice.excluded)]
        ),
    )
    outcome["fingerprint"] = _digest(sorted(outcome.items()))
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": recorder is not None,
        "setup_s": setup_s,
        "op_s": op_s,
        "op_reference_s": watch.reference_s,
        "probe_s": watch.probes,
        "wall_s": setup_s + op_s,
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "outcome": outcome,
        "errors": errors,
    }
    if recorder is not None:
        result["layers"] = _layers(recorder, advice, service, outcome)
        recorder.write(spans_out)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.spans_out)))


if __name__ == "__main__":
    main()
