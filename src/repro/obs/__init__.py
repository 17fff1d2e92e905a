"""``repro.obs`` — sim-time-aware observability for the Thrifty runtime.

The Tenant Activity Monitor's whole job is *measuring* the consolidation
guarantee (PAPER ch. 3, 5.1); this package is the reproduction's
measurement plane:

* **Metrics** — labeled :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments, stamped with simulated time, exported
  as JSONL or Prometheus text (:mod:`repro.obs.metrics`).
* **Tracing** — spans over the query/tenant lifecycle (``submit → route
  → admit → execute → complete``/``violate``), plus scaling and
  reconsolidation spans, with deterministic ids.  One :class:`Span`
  object is opened, annotated, finished and kept by the sink
  (:mod:`repro.obs.tracing`).
* **Sinks** — pluggable destinations; the default :data:`NULL_SINK`
  makes every instrumentation site a single branch
  (:mod:`repro.obs.sink`).
* **Run reports** — ``metrics.jsonl`` / ``spans.jsonl`` /
  ``summary.json`` writers and readers (:mod:`repro.obs.report`), wired
  into ``thrifty replay --obs-out`` and the ``thrifty obs`` subcommand.

Minimal session::

    from repro.obs import MemorySink, Observer, write_run_report

    observer = Observer(MemorySink())
    service = ThriftyService(config, observer=observer)
    service.deploy(workload)
    service.replay(until=DAY)
    write_run_report("out/", observer, horizon=DAY)

This is the runtime's only telemetry path: overflow, park, retry,
failover and failure are query-span events and counters, and scale-ups
are ``scaling`` spans (``MemorySink.spans_of("scaling")``).  Everything
here runs on the simulated clock; the host's per-layer wall time is
measured by perfbench ``--trace 1``.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .observer import NULL_OBSERVER, Observer
from .report import RunReport, build_summary, load_run_report, write_run_report
from .sink import (
    MemorySink,
    MetricSample,
    NullSink,
    NULL_SINK,
    ObsEvent,
    ObsSink,
)
from .tracing import STATUS_INFLIGHT, Span, SpanEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observer",
    "NULL_OBSERVER",
    "RunReport",
    "build_summary",
    "load_run_report",
    "write_run_report",
    "MemorySink",
    "MetricSample",
    "NullSink",
    "NULL_SINK",
    "ObsEvent",
    "ObsSink",
    "Span",
    "SpanEvent",
    "STATUS_INFLIGHT",
    "Tracer",
]
