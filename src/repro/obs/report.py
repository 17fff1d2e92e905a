"""Run reports: ``metrics.jsonl`` / ``spans.jsonl`` / ``summary.json``.

:func:`write_run_report` dumps everything a :class:`~repro.obs.sink.
MemorySink` collected during a replay into a directory, plus a digested
``summary.json`` with eight sections: ``meta``, ``queries`` (totals),
``spans`` (counts by status), ``groups`` (per-group totals, RT-TTP
trajectories, time-weighted concurrency histograms),
``routing_decisions``, ``scaling_actions``, ``simulator_events`` and
``faults``.  The summary is built *only* from the sink contents, so any
replay instrumented through an :class:`~repro.obs.observer.Observer` —
CLI, tests, notebooks — exports the same way.

:func:`load_run_report` reads a directory back for the ``thrifty obs``
subcommand and ``examples/observability_demo.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from ..errors import ObservabilityError
from .observer import Observer
from .sink import MemorySink

__all__ = ["RunReportPaths", "RunReport", "build_summary", "write_run_report", "load_run_report"]

METRICS_FILENAME = "metrics.jsonl"
SPANS_FILENAME = "spans.jsonl"
SUMMARY_FILENAME = "summary.json"


@dataclass(frozen=True)
class RunReportPaths:
    """Where one run report landed on disk."""

    directory: Path
    metrics: Path
    spans: Path
    summary: Path


def _counter_last_by_label(
    sink: MemorySink, name: str, label: str
) -> dict[str, float]:
    """Final running total of each child of a counter, summed by one label's value."""
    last: dict[tuple[tuple[str, str], ...], float] = {}
    for sample in sink.metrics:
        if sample.name == name:
            last[sample.labels] = sample.value  # samples arrive in order; last wins
    totals: dict[str, float] = {}
    for labels, value in last.items():
        key = dict(labels).get(label, "")
        totals[key] = totals.get(key, 0.0) + value
    return totals


def _gauge_trajectory(sink: MemorySink, name: str, label: str) -> dict[str, list[list[float]]]:
    """All ``(t, value)`` samples of a gauge, keyed by one label's value."""
    out: dict[str, list[list[float]]] = {}
    for sample in sink.metrics:
        if sample.name != name:
            continue
        key = dict(sample.labels).get(label, "")
        out.setdefault(key, []).append([sample.time, sample.value])
    return out


def _time_weighted_histogram(
    samples: list[list[float]], horizon: Optional[float]
) -> dict[str, float]:
    """Seconds spent at each gauge level, from change-point samples."""
    if not samples:
        return {}
    weights: dict[str, float] = {}
    end_time = horizon if horizon is not None else samples[-1][0]
    for (t, v), t_next in zip(samples, [row[0] for row in samples[1:]] + [end_time]):
        duration = max(0.0, t_next - t)
        if duration > 0:
            key = str(int(v)) if float(v).is_integer() else repr(v)
            weights[key] = weights.get(key, 0.0) + duration
    return dict(sorted(weights.items(), key=lambda kv: (len(kv[0]), kv[0])))


def build_summary(
    sink: MemorySink,
    horizon: Optional[float] = None,
    simulator_events: Optional[Mapping[str, int]] = None,
    meta: Optional[Mapping[str, object]] = None,
) -> dict[str, Any]:
    """Digest a sink's contents into the ``summary.json`` structure."""
    submitted = _counter_last_by_label(sink, "thrifty_queries_submitted_total", "group")
    completed = _counter_last_by_label(sink, "thrifty_queries_completed_total", "group")
    overflow = _counter_last_by_label(sink, "thrifty_queries_overflow_total", "group")
    violations = _counter_last_by_label(sink, "thrifty_sla_violations_total", "group")
    rt_ttp = _gauge_trajectory(sink, "thrifty_rt_ttp", "group")
    concurrency = _gauge_trajectory(sink, "thrifty_concurrent_active_tenants", "group")

    groups: dict[str, dict[str, Any]] = {}
    for name in sorted(set(submitted) | set(completed) | set(rt_ttp) | set(concurrency)):
        trajectory = rt_ttp.get(name, [])
        groups[name] = {
            "queries_submitted": submitted.get(name, 0.0),
            "queries_completed": completed.get(name, 0.0),
            "queries_overflow": overflow.get(name, 0.0),
            "sla_violations": violations.get(name, 0.0),
            "rt_ttp_trajectory": trajectory,
            "rt_ttp_min": min((v for _, v in trajectory), default=1.0),
            "concurrency_histogram": _time_weighted_histogram(
                concurrency.get(name, []), horizon
            ),
        }

    routing = _counter_last_by_label(sink, "thrifty_routing_decisions_total", "outcome")
    node_failures = _counter_last_by_label(sink, "thrifty_node_failures_total", "instance")
    retries = _counter_last_by_label(sink, "thrifty_query_retries_total", "group")
    failovers = _counter_last_by_label(sink, "thrifty_failovers_total", "group")
    failed = _counter_last_by_label(sink, "thrifty_queries_failed_total", "group")
    degraded = _counter_last_by_label(
        sink, "thrifty_instance_degraded_seconds", "instance"
    )

    scaling = [span.as_dict() for span in sink.spans_of("scaling")]
    by_status: dict[str, int] = {}
    query_spans = 0
    for span in sink.spans:
        by_status[span.status] = by_status.get(span.status, 0) + 1
        if span.kind == "query":
            query_spans += 1

    return {
        "meta": dict(meta or {}),
        "queries": {
            "submitted": sum(submitted.values()),
            "completed": sum(completed.values()),
            "overflow": sum(overflow.values()),
            "sla_violations": sum(violations.values()),
        },
        "spans": {
            "total": len(sink.spans),
            "query_spans": query_spans,
            "by_status": dict(sorted(by_status.items())),
        },
        "groups": groups,
        "routing_decisions": dict(sorted(routing.items())),
        "scaling_actions": scaling,
        "simulator_events": dict(sorted((simulator_events or {}).items())),
        "faults": {
            "node_failures": sum(node_failures.values()),
            "node_failures_by_instance": dict(sorted(node_failures.items())),
            "query_retries": sum(retries.values()),
            "failovers": sum(failovers.values()),
            "queries_failed": sum(failed.values()),
            "degraded_seconds_by_instance": dict(sorted(degraded.items())),
        },
    }


def write_run_report(
    out_dir: Union[str, Path],
    observer: Observer,
    horizon: Optional[float] = None,
    simulator_events: Optional[Mapping[str, int]] = None,
    meta: Optional[Mapping[str, object]] = None,
) -> RunReportPaths:
    """Write metrics.jsonl, spans.jsonl and summary.json under ``out_dir``.

    The observer must be backed by a :class:`MemorySink`; the null sink
    has nothing to export.
    """
    sink = observer.memory_sink()
    if sink is None:
        raise ObservabilityError(
            "run reports need an Observer backed by a MemorySink; "
            "the null sink collects nothing"
        )
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    metrics_path = sink.write_metrics_jsonl(directory / METRICS_FILENAME)
    spans_path = sink.write_spans_jsonl(directory / SPANS_FILENAME)
    summary = build_summary(
        sink,
        horizon=horizon,
        simulator_events=simulator_events,
        meta=meta,
    )
    summary_path = directory / SUMMARY_FILENAME
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return RunReportPaths(
        directory=directory, metrics=metrics_path, spans=spans_path, summary=summary_path
    )


@dataclass
class RunReport:
    """A run report read back from disk."""

    directory: Path
    summary: dict[str, Any]
    metrics: list[dict[str, Any]] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)

    def top_groups(self, n: int = 5) -> list[tuple[str, float]]:
        """The ``n`` busiest groups by queries submitted, descending."""
        groups: Mapping[str, Mapping[str, Any]] = self.summary.get("groups", {})
        ranked = sorted(
            ((name, float(info.get("queries_submitted", 0.0))) for name, info in groups.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return ranked[:n]

    def rt_ttp_trajectory(self, group: str) -> list[tuple[float, float]]:
        """A group's RT-TTP samples from the summary."""
        info: Mapping[str, Any] = self.summary.get("groups", {}).get(group, {})
        return [(float(t), float(v)) for t, v in info.get("rt_ttp_trajectory", [])]

    def metric_samples(self, name: str) -> list[dict[str, Any]]:
        """Rows of ``metrics.jsonl`` for one metric name."""
        return [row for row in self.metrics if row.get("metric") == name]


def _read_jsonl(path: Path) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    if not path.exists():
        return rows
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def load_run_report(directory: Union[str, Path]) -> RunReport:
    """Read a run report directory written by :func:`write_run_report`."""
    base = Path(directory)
    summary_path = base / SUMMARY_FILENAME
    if not summary_path.exists():
        raise ObservabilityError(f"no {SUMMARY_FILENAME} under {base}")
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    return RunReport(
        directory=base,
        summary=summary,
        metrics=_read_jsonl(base / METRICS_FILENAME),
        spans=_read_jsonl(base / SPANS_FILENAME),
    )
