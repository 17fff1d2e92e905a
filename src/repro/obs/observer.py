"""The :class:`Observer` façade: one handle for sink + metrics + tracer.

The instrumented layers (:mod:`repro.core.runtime`, which also records
the execution engines' metrics, the Tenant Activity Monitor and the
health manager) each hold one observer and guard every instrumentation
site with ``observer.enabled`` (or a query span's presence) — a single
attribute load and branch when observability is off.

The observer pre-declares the standard Thrifty instrument set (metric
names are part of the public contract; see ``docs/OBSERVABILITY.md``), so
all layers agree on names and labels without string-typo drift.  Each
layer binds the handles it uses itself; a group runtime's counters and
latency histograms are published by its collector at every scrape.
"""

from __future__ import annotations

from typing import Optional

from .metrics import (
    Counter,
    DEFAULT_CONCURRENCY_BUCKETS,
    DEFAULT_NORMALIZED_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .sink import AttrValue, MemorySink, NULL_SINK, ObsEvent, ObsSink
from .tracing import Tracer

__all__ = ["Observer", "NULL_OBSERVER"]


class Observer:
    """Bundles a sink, a metrics registry and a tracer."""

    def __init__(self, sink: Optional[ObsSink] = None) -> None:
        self.sink: ObsSink = sink if sink is not None else NULL_SINK
        self.metrics = MetricsRegistry(self.sink)
        self.tracer = Tracer(self.sink)

        m = self.metrics
        #: Queries scheduled into the replay, per tenant group.
        self.queries_submitted: Counter = m.counter(
            "thrifty_queries_submitted_total", "queries submitted to the group", ("group",)
        )
        #: Queries that reached a terminal state, per tenant group.
        self.queries_completed: Counter = m.counter(
            "thrifty_queries_completed_total", "queries completed by the group", ("group",)
        )
        #: Queries concurrently admitted onto a busy tuning MPPDB.
        self.queries_overflow: Counter = m.counter(
            "thrifty_queries_overflow_total",
            "queries overflowed onto a busy MPPDB_0",
            ("group",),
        )
        #: Completed queries that missed their before-consolidation latency.
        self.sla_violations: Counter = m.counter(
            "thrifty_sla_violations_total", "completed queries that missed the SLA", ("group",)
        )
        #: Algorithm 1 outcomes (pinned/tenant-affinity/tuning-free/free/overflow).
        self.routing_decisions: Counter = m.counter(
            "thrifty_routing_decisions_total",
            "Algorithm 1 routing decisions by outcome",
            ("group", "outcome"),
        )
        #: Elastic scaling actions by policy kind.
        self.scaling_actions: Counter = m.counter(
            "thrifty_scaling_actions_total",
            "elastic scaling actions taken",
            ("group", "kind"),
        )
        #: Run-time TTP sampled at every monitor tick.
        self.rt_ttp: Gauge = m.gauge(
            "thrifty_rt_ttp", "run-time time-percentage over the sliding window", ("group",)
        )
        #: The concurrent-active-tenant signal, sampled on every change.
        self.concurrent_active: Gauge = m.gauge(
            "thrifty_concurrent_active_tenants",
            "concurrently active tenants in the group",
            ("group",),
        )
        #: Observed wall latency of completed queries (simulated seconds).
        self.query_latency: Histogram = m.histogram(
            "thrifty_query_latency_seconds", "observed query latency", ("group",)
        )
        #: Observed / baseline latency of completed queries.
        self.normalized_latency: Histogram = m.histogram(
            "thrifty_normalized_latency",
            "observed over baseline latency",
            ("group",),
            buckets=DEFAULT_NORMALIZED_BUCKETS,
        )
        #: Queries accepted by each MPPDB's shared-process engine.
        self.engine_queries: Counter = m.counter(
            "thrifty_engine_queries_total", "queries accepted by the engine", ("instance",)
        )
        #: Engine concurrency observed at each admission.
        self.engine_concurrency: Histogram = m.histogram(
            "thrifty_engine_concurrency",
            "concurrency level at query admission",
            ("instance",),
            buckets=DEFAULT_CONCURRENCY_BUCKETS,
        )
        #: Node failures handled by the health manager, per owning instance.
        self.node_failures: Counter = m.counter(
            "thrifty_node_failures_total", "node failures handled", ("instance",)
        )
        #: Query retry attempts after an instance failure aborted them.
        self.query_retries: Counter = m.counter(
            "thrifty_query_retries_total", "query retry attempts", ("group",)
        )
        #: Retries that landed on a different instance than the failed one.
        self.failovers: Counter = m.counter(
            "thrifty_failovers_total", "queries failed over to a surviving replica", ("group",)
        )
        #: Queries that exhausted fault handling (typed FaultError outcomes).
        self.queries_failed: Counter = m.counter(
            "thrifty_queries_failed_total", "queries failed after fault handling", ("group",)
        )
        #: Cumulative time instances spent not-READY because of failures.
        self.instance_degraded_seconds: Counter = m.counter(
            "thrifty_instance_degraded_seconds",
            "cumulative seconds an instance was degraded or down",
            ("instance",),
        )
        #: Time to restore a failed node (allocation + startup + shard reload).
        self.replacement_time: Histogram = m.histogram(
            "thrifty_node_replacement_seconds",
            "node replacement time from failure to ready",
            ("instance",),
        )

    @property
    def enabled(self) -> bool:
        """Whether instrumentation sites should do any work."""
        return self.sink.enabled

    def event(self, time: float, kind: str, **attrs: AttrValue) -> None:
        """Emit a one-shot event to the sink."""
        if self.sink.enabled:
            self.sink.on_event(ObsEvent(time=time, kind=kind, attrs=attrs))

    def memory_sink(self) -> Optional[MemorySink]:
        """The :class:`MemorySink` behind this observer, if it has one."""
        return self.sink if isinstance(self.sink, MemorySink) else None


#: Shared do-nothing observer used as the default everywhere.
NULL_OBSERVER = Observer(NULL_SINK)
