"""Run-time replay: drive composed tenant logs through a deployed group.

This is the piece that turns the static deployment into the live system of
Figure 7.7: each logged query is submitted at its recorded time, the
Algorithm 1 router picks an instance, the instance's fair-share engine
produces the observed latency, the Tenant Activity Monitor tracks the
group's concurrent-active count and RT-TTP, and the scaling policy reacts
when the RT-TTP dips below ``P``.

Replay is open loop, as in the paper's §7 replays: every submission happens
at its logged time, even when earlier queries run slow, so a slowdown shows
up as latency and never shifts the submission timeline.

Submissions stream: each tenant has one cursor (:class:`_SubmitCursor`)
with one pending ``query-submit`` event, and its next record is taken from
the tenant's :class:`~repro.workload.logs.SubmissionSource` only when the
previous one is submitted.  :meth:`GroupRuntime.schedule` reserves the
sequence numbers all of them would have taken had they been scheduled up
front, so every tie resolves as in an up-front schedule.

SLA baselines: a logged query's before-consolidation latency *is* its SLA
(§1.1), so the baseline is the latency recorded during Step 1 log
collection on the tenant's dedicated, exactly-sized MPPDB.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Optional

import numpy as np

from ..errors import DeploymentError, NoHealthyInstanceError
from ..mppdb.execution import QueryExecution
from ..mppdb.instance import MPPDBInstance
from ..mppdb.provisioning import Provisioner
from ..obs.metrics import BoundCounter, BoundHistogram
from ..obs.observer import NULL_OBSERVER, Observer
from ..obs.tracing import STATUS_INFLIGHT, QuerySpan
from ..simulation.engine import Simulator
from ..simulation.events import ScheduledEvent
from ..units import MINUTE
from ..workload.logs import QueryRecord, SubmissionSource
from ..workload.queries import template_by_name
from .fault import (
    DEFAULT_RETRY_POLICY,
    FaultRecord,
    REASON_DEADLINE_EXCEEDED,
    REASON_RETRIES_EXHAUSTED,
    RetryPolicy,
)
from .master import DeployedGroup
from .monitor import GroupActivityMonitor
from .routing import ROUTING_OUTCOMES, QueryRouter, TDDRouter
from .scaling import DisabledScaling, ScalingAction, ScalingPolicy
from .sla import SLARecord, SLAReport

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a layer cycle)
    from ..cluster.health import HealthManager

__all__ = ["GroupRuntime", "RuntimeReport"]


@dataclass(slots=True, eq=False)
class _QueryState:
    """One logged query's run-time state, from first submission to terminal.

    Created when the query is first submitted and carried by every later
    step — routing, abort, retry backoff, park, recovery drain, deadline —
    until exactly one terminal (:meth:`GroupRuntime._settle` or
    :meth:`GroupRuntime._fail`) retires it.  Identity, not equality, is
    what matters: states are dict keys in the runtime's registries.
    """

    tenant: int
    record: QueryRecord
    first_submit: float
    attempts: int = 0
    failed_instance: Optional[str] = None
    deadline: Optional[ScheduledEvent] = None
    span: Optional[QuerySpan] = None


class _SubmitCursor:
    """One tenant's submission cursor: at most one pending submit event.

    Submits ``count`` records from ``records`` in order, the ``i``-th with
    sequence number ``first_sequence + i``.  Each record is pulled from the
    iterator when its predecessor is submitted.
    """

    __slots__ = ("_runtime", "_tenant", "_records", "_record", "_sequence", "_end")

    def __init__(
        self,
        runtime: "GroupRuntime",
        tenant_id: int,
        records: Iterator[QueryRecord],
        first_sequence: int,
        count: int,
    ) -> None:
        self._runtime = runtime
        self._tenant = tenant_id
        self._records = records
        self._sequence = first_sequence
        self._end = first_sequence + count
        self._arm()

    def _arm(self) -> None:
        record = next(self._records)
        self._record = record
        self._runtime._sim.schedule(
            record.submit_time_s, self._fire, label="query-submit", sequence=self._sequence
        )

    def _fire(self, time: float) -> None:
        record = self._record
        self._sequence += 1
        if self._sequence < self._end:
            self._arm()
        self._runtime._submit(self._tenant, record, time)


@dataclass
class RuntimeReport:
    """Everything observed while replaying one group."""

    group_name: str
    sla: SLAReport
    rt_ttp_samples: list[tuple[float, float]]
    scaling_actions: list[ScalingAction]
    queries_submitted: int
    queries_completed: int
    overflow_queries: int
    queries_retried: int = 0
    queries_failed: int = 0
    failovers: int = 0
    fault_records: list[FaultRecord] = field(default_factory=list)

    def rt_ttp_min(self) -> float:
        """Lowest RT-TTP sample observed."""
        if not self.rt_ttp_samples:
            return 1.0
        return min(v for _, v in self.rt_ttp_samples)


class GroupRuntime:
    """Replays tenant logs against one deployed tenant group.

    ``logs`` maps every tenant of the group to a
    :class:`~repro.workload.logs.SubmissionSource`: a
    :class:`~repro.workload.logs.TenantLog`, or a lazy
    :class:`~repro.workload.composer.LazyTenantLog` that builds each
    record when it is due.  Extra tenants are ignored.
    """

    def __init__(
        self,
        deployed: DeployedGroup,
        logs: Mapping[int, SubmissionSource],
        simulator: Simulator,
        provisioner: Provisioner,
        sla_fraction: float,
        monitor: Optional[GroupActivityMonitor] = None,
        router: Optional[QueryRouter] = None,
        scaling: Optional[ScalingPolicy] = None,
        monitor_interval_s: float = 10 * MINUTE,
        observer: Optional[Observer] = None,
        fault: Optional[RetryPolicy] = None,
        health: Optional["HealthManager"] = None,
        fault_rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not (0 < sla_fraction <= 1):
            raise DeploymentError("sla_fraction must be in (0, 1]")
        if monitor_interval_s <= 0:
            raise DeploymentError("monitor_interval_s must be positive")
        self._deployed = deployed
        self._logs = dict(logs)
        missing = set(deployed.deployment.placement.tenant_ids) - set(self._logs)
        if missing:
            raise DeploymentError(f"logs missing for tenants {sorted(missing)[:5]}")
        self._sim = simulator
        self._provisioner = provisioner
        self._sla_fraction = sla_fraction
        self._monitor = monitor if monitor is not None else GroupActivityMonitor(
            deployed.group_name,
            deployed.deployment.design.num_instances,
            start_time=simulator.now,
        )
        self._router = router if router is not None else TDDRouter(deployed.instances)
        self._scaling = scaling if scaling is not None else DisabledScaling()
        self._interval = monitor_interval_s
        self._sla_records: list[SLARecord] = []
        self._rt_ttp_samples: list[tuple[float, float]] = []
        self._submitted = 0
        self._overflow = 0
        # Every first-submitted query is in ``_live`` (in first-submission
        # order) until its one terminal removes it, so ``completed + failed
        # + len(_live)`` counts first submissions by construction.
        # ``_inflight`` and ``_parked`` index the live queries running on an
        # engine and those waiting for a healthy replica.
        self._live: dict[_QueryState, None] = {}
        self._inflight: dict[tuple[str, int], _QueryState] = {}
        self._parked: dict[_QueryState, None] = {}
        self._fault = fault if fault is not None else DEFAULT_RETRY_POLICY
        self._fault_rng = fault_rng
        self._retried = 0
        self._failovers = 0
        self._fault_records: list[FaultRecord] = []
        if health is not None:
            health.on_recover(self._on_instance_recovered)
        for spec in deployed.deployment.tenants:
            self._monitor.register_tenant(spec.tenant_id, spec.nodes_requested)
        # Instances this runtime has sent a query to (see _wire_instance),
        # and, when observing, their engine metric handles.
        self._wired: set[MPPDBInstance] = set()
        self._engine_metrics: dict[MPPDBInstance, tuple[BoundCounter, BoundHistogram]] = {}
        # (tenant, template, instance) -> the query's dedicated work there.
        self._work: dict[tuple[int, str, MPPDBInstance], float] = {}
        self._scheduled = False
        self._observer = observer if observer is not None else NULL_OBSERVER
        if self._observer.enabled:
            self._observe(self._observer)

    @property
    def monitor(self) -> GroupActivityMonitor:
        """The group's activity monitor."""
        return self._monitor

    @property
    def router(self) -> QueryRouter:
        """The group's query router."""
        return self._router

    @property
    def scaling_actions(self) -> tuple[ScalingAction, ...]:
        """Elastic-scaling actions the group's policy has taken so far."""
        return tuple(self._scaling.actions)

    def _observe(self, o: Observer) -> None:
        """Bind the group's metric handles once and register its collector.

        The RT-TTP gauge, routing-outcome counter and engine metrics are pushed
        as events happen; :meth:`_collect` publishes the rest at every scrape.
        """
        group = self._deployed.group_name
        self._books = tuple(family.labels(group=group) for family in (
            o.queries_submitted, o.queries_completed, o.queries_overflow, o.query_retries,
            o.failovers, o.queries_failed, o.sla_violations,
        ))
        self._latency = o.query_latency.labels(group=group)
        self._normalized = o.normalized_latency.labels(group=group)
        self._rt_ttp_gauge = o.rt_ttp.labels(group=group)
        routing = o.routing_decisions
        self._routed = {k: routing.labels(group=group, outcome=k) for k in ROUTING_OUTCOMES}
        self._unmet, self._seen = 0, (0,) * 7
        o.metrics.add_collector(self._collect)
        self._monitor.observe_with(o)

    def _collect(self) -> None:
        """Publish the group's books as counter totals (the scrape).

        Returns at once when the books are unchanged.  SLA records new since
        the last scrape fold into the histograms in completion order, so each
        sum adds the same floats in the same order as per-completion updates.
        """
        records, seen = self._sla_records, self._seen
        books = (len(records), len(self._fault_records), len(self._live), self._overflow,
                 self._retried, self._failovers, len(self._scaling.actions))
        if books == seen:
            return
        time = self._sim.now
        for record in records[seen[0]:]:
            self._latency.observe(time, record.observed_latency_s)
            self._normalized.observe(time, record.normalized)
            self._unmet += not record.met
        self._seen = books
        completed, failed, live, *tallies, __ = books  # tallies: overflow, retries, failovers
        totals = (completed + failed + live, completed, *tallies, failed, self._unmet + failed)
        for handle, total in zip(self._books, totals):
            handle.set_total(time, total)
        group = self._deployed.group_name
        kinds = Counter(a.kind for a in self._scaling.actions if a.group_name == group)
        for kind, count in kinds.items():
            self._observer.scaling_actions.labels(group=group, kind=kind).set_total(time, count)

    def _wire_instance(self, instance: MPPDBInstance) -> None:
        """Hook this runtime onto an instance it is about to use for the first time.

        Registers the completion and abort callbacks and, when observing,
        binds the engine's metric handles.  An instance that never receives
        a query from this runtime runs none of its queries, so it needs
        neither.
        """
        def _done(execution: QueryExecution) -> None:
            state = self._inflight.pop((instance.name, execution.query_id), None)
            if state is None:
                return
            finish = execution.finish_time if execution.finish_time is not None else 0.0
            self._settle(state, instance.name, finish)

        def _aborted(execution: QueryExecution) -> None:
            self._on_abort(execution, instance)

        instance.engine.on_complete(_done)
        instance.engine.on_abort(_aborted)
        if self._observer.enabled:
            o, name = self._observer, instance.name
            self._engine_metrics[instance] = (
                o.engine_queries.labels(instance=name), o.engine_concurrency.labels(instance=name)
            )
        self._wired.add(instance)

    def _submit(self, tenant_id: int, record: QueryRecord, time: float) -> None:
        """First submission of a logged query: open its state, then dispatch.

        The lifecycle span is created here exactly once, however many
        retries or park episodes follow.
        """
        state = _QueryState(tenant_id, record, time)
        self._live[state] = None
        observer = self._observer
        if observer.enabled:
            state.span = observer.tracer.start_query_span(
                time, self._deployed.group_name, tenant_id, record.template
            )
        self._dispatch(state, time)

    def _dispatch(self, state: _QueryState, time: float) -> None:
        """Route one attempt of a live query and start it on an engine."""
        tenant_id, record = state.tenant, state.record
        try:
            instance, outcome = self._router.route(tenant_id)
        except NoHealthyInstanceError:
            # Graceful degradation: every hosting replica is degraded, down
            # or loading — queue the query until an instance recovers.
            self._park(state, time)
            return
        if state.deadline is not None:
            self._sim.cancel(state.deadline)
            state.deadline = None
        state.attempts += 1
        failed_from, state.failed_instance = state.failed_instance, None
        if instance not in self._wired:
            self._wire_instance(instance)
        span = state.span
        if failed_from is not None and instance.name != failed_from:
            self._failovers += 1
            if span is not None:
                span.add_event(
                    time, "failover", failed=failed_from, survivor=instance.name
                )
        if span is not None:
            self._routed[outcome].inc(time)
            queries, concurrency = self._engine_metrics[instance]
            queries.inc(time)
            # Concurrency as seen on admission, counting this query.
            concurrency.observe(time, float(instance.engine.concurrency + 1))
        if outcome == "overflow" and instance is self._router.tuning_instance:
            self._overflow += 1
        key = (tenant_id, record.template, instance)
        work = self._work.get(key)
        if work is None:
            spec = self._deployed.deployment.tenant(tenant_id)
            template = template_by_name(record.template)
            work = self._work[key] = (
                template.dedicated_latency_s(spec.data_gb, instance.parallelism)
                / instance.speed_factor
            )
        self._monitor.on_query_start(tenant_id, time)
        execution = instance.submit_query(tenant_id, work, label=record.template)
        if span is not None:
            span.dispatched(
                time, instance.name, outcome, state.attempts, work, instance.engine.concurrency
            )
        if execution.finished:
            # Degenerate zero-work query: the engine completed it inside
            # submit_query, before it could be registered as in flight.
            self._settle(state, instance.name, time)
        else:
            self._inflight[(instance.name, execution.query_id)] = state

    def _on_abort(self, execution: QueryExecution, instance: MPPDBInstance) -> None:
        """An instance failure killed this in-flight query; retry or fail.

        The monitor sees a finish (the query is no longer running), then
        the query is either re-dispatched after a capped exponential
        backoff in sim-time or — after ``max_attempts`` submissions —
        surfaced as a typed :class:`~repro.core.fault.FaultRecord`.
        Retried submissions do NOT increment ``queries_submitted``; the
        completion that eventually lands settles against the first
        submission's clock.
        """
        state = self._inflight.pop((instance.name, execution.query_id), None)
        if state is None:
            return
        now = self._sim.now
        self._monitor.on_query_finish(state.tenant, now)
        state.failed_instance = instance.name
        attempt = state.attempts
        span = state.span
        if span is not None:
            span.add_event(
                now,
                "abort",
                instance=instance.name,
                attempt=attempt,
                remaining_s=round(execution.remaining_work_s, 6),
            )
        if attempt >= self._fault.max_attempts:
            self._fail(state, now, REASON_RETRIES_EXHAUSTED)
            return
        delay = self._fault.backoff_s(attempt, self._fault_rng)
        self._retried += 1
        if span is not None:
            span.add_event(now, "retry", delay_s=round(delay, 6), attempt=attempt + 1)
        self._sim.schedule_after(
            delay, lambda t, _s=state: self._dispatch(_s, t), label="query-retry"
        )

    def _park(self, state: _QueryState, time: float) -> None:
        """Queue a query for which no healthy replica exists right now.

        Parked queries are re-dispatched when the health manager reports an
        instance recovery; parking arms a deadline (a query re-parked by a
        drain keeps the one already pending) after which the query fails
        with ``deadline-exceeded`` (graceful degradation for ``R = 1``
        groups: no crash, a typed failure).
        """
        self._parked[state] = None
        if state.span is not None:
            state.span.add_event(time, "park")
        if state.deadline is None:
            state.deadline = self._sim.schedule(
                time + self._fault.queue_deadline_s,
                lambda t, _s=state: self._park_expired(_s, t),
                label="fault-deadline",
            )

    def _park_expired(self, state: _QueryState, time: float) -> None:
        """A parked query's deadline hit before any replica recovered."""
        state.deadline = None
        if state not in self._parked:
            return
        del self._parked[state]
        self._fail(state, time, REASON_DEADLINE_EXCEEDED)

    def _on_instance_recovered(self, instance: MPPDBInstance, time: float) -> None:
        """Health-manager recovery: drain the park queue through the router.

        Only a recovery of one of this group's own instances can make a
        parked query routable; another group's recovery leaves the queue
        (and the parked spans) untouched.
        """
        if not self._parked or instance not in self._router.instances:
            return
        pending = list(self._parked)
        self._parked.clear()
        for state in pending:
            self._dispatch(state, time)

    def _settle(self, state: _QueryState, instance_name: str, finish: float) -> None:
        """Terminal: the query completed on ``instance_name`` at ``finish``."""
        del self._live[state]
        self._monitor.on_query_finish(state.tenant, finish)
        record = state.record
        # A retried query's observed latency spans from its *first*
        # submission, so retry backoff honestly counts against the SLA.
        sla_record = SLARecord(
            tenant_id=state.tenant,
            group_name=self._deployed.group_name,
            instance_name=instance_name,
            template=record.template,
            submit_time_s=record.submit_time_s,
            baseline_latency_s=record.latency_s,
            observed_latency_s=finish - state.first_submit,
        )
        self._sla_records.append(sla_record)
        span = state.span
        if span is not None:
            span.settle(
                finish,
                "complete" if sla_record.met else "violate",
                sla_record.observed_latency_s,
                sla_record.normalized,
            )

    def _fail(self, state: _QueryState, time: float, reason: str) -> None:
        """Terminal: surface a query that fault handling could not save."""
        del self._live[state]
        attempts = state.attempts
        self._fault_records.append(
            FaultRecord(
                tenant_id=state.tenant,
                group_name=self._deployed.group_name,
                template=state.record.template,
                submit_time_s=state.record.submit_time_s,
                failed_time_s=time,
                reason=reason,
                attempts=attempts,
            )
        )
        span = state.span
        if span is not None:
            span.add_event(time, "failed", reason=reason, attempts=attempts)
            span.finish(time, status="failed")

    def finalize_observation(self, time: float) -> None:
        """Close the replay's telemetry at the horizon.

        Queries live when the horizon hits (running, parked or waiting out
        a retry backoff) never reach a terminal, so their spans are ended
        with status ``"inflight"``, in first-submission order — every
        exported span chain is complete either way.  Then counters and
        histograms are snapshotted, so the sink's last sample of each
        child is its final value.  Idempotent; called by :meth:`run` and
        by the service after a bounded ``Simulator.run`` (and after the
        health manager's horizon accounting).
        """
        for state in self._live:
            span = state.span
            if span is not None:
                span.add_event(time, STATUS_INFLIGHT)
                span.finish(time, status=STATUS_INFLIGHT)
                state.span = None
        self._observer.metrics.flush(time)

    def _periodic_check(self, time: float) -> None:
        rt_ttp = self._monitor.rt_ttp(time, self._scaling.window_s)
        self._rt_ttp_samples.append((time, rt_ttp))
        observer = self._observer
        if observer.enabled:
            self._rt_ttp_gauge.set(time, rt_ttp)
        action = self._scaling.maybe_scale(
            time,
            self._deployed,
            self._monitor,
            self._router,
            self._provisioner,
            self._sla_fraction,
            rt_ttp=rt_ttp,
        )
        if action is not None and observer.enabled:
            # The span runs from the trigger to the new MPPDB's expected readiness.
            observer.tracer.start_span(
                "scaling", time, kind="scaling", group=action.group_name, policy=action.kind,
                over_active=action.over_active, instance=action.instance_name,
                loaded_gb=action.loaded_gb, rt_ttp=round(rt_ttp, 5),
            ).finish(action.expected_ready_time)
        observer.metrics.flush(time)

    def schedule(self, until: float) -> int:
        """Schedule the log submissions and periodic checks up to ``until``.

        Every record submitted before ``until`` counts, in tenant-id order
        and then log order, and gets a sequence number reserved now; each
        tenant's cursor schedules one submit at a time with those numbers.
        The first monitor tick is scheduled after the block.  Returns the
        number of queries scheduled.  Call once, then run the simulator
        (directly or via :meth:`run`).
        """
        if self._scheduled:
            raise DeploymentError("schedule() called twice")
        self._scheduled = True
        tenant_ids = self._deployed.deployment.placement.tenant_ids
        streams = [
            (tenant_id, self._logs[tenant_id].submissions(until))
            for tenant_id in sorted(self._logs)
            if tenant_id in tenant_ids
        ]
        count = sum(submissions.count for _, submissions in streams)
        sequence = self._sim.reserve_sequences(count)
        for tenant_id, (tenant_count, records) in streams:
            if tenant_count:
                _SubmitCursor(self, tenant_id, records, sequence, tenant_count)
                sequence += tenant_count
        self._submitted = count
        self._schedule_ticks(until)
        return count

    def _schedule_ticks(self, until: float) -> None:
        """Schedule the first monitor tick; each tick schedules the next."""

        def _tick(time: float) -> None:
            self._periodic_check(time)
            next_time = time + self._interval
            if next_time <= until:
                self._sim.schedule(next_time, _tick, label="monitor-tick")

        first = self._sim.now + self._interval
        if first <= until:
            self._sim.schedule(first, _tick, label="monitor-tick")

    def run(self, until: float) -> RuntimeReport:
        """Schedule (if needed) and run the replay to ``until``."""
        if not self._scheduled:
            self.schedule(until)
        self._sim.run(until=until)
        self.finalize_observation(self._sim.now)
        return self.report()

    def report(self) -> RuntimeReport:
        """Snapshot of everything observed so far."""
        return RuntimeReport(
            group_name=self._deployed.group_name,
            sla=SLAReport(self._sla_records),
            rt_ttp_samples=list(self._rt_ttp_samples),
            scaling_actions=list(self._scaling.actions),
            queries_submitted=self._submitted,
            queries_completed=len(self._sla_records),
            overflow_queries=self._overflow,
            queries_retried=self._retried,
            queries_failed=len(self._fault_records),
            failovers=self._failovers,
            fault_records=list(self._fault_records),
        )
