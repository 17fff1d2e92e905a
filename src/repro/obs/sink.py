"""Pluggable observability sinks and the record types they carry.

Everything the instrumented runtime emits flows through an
:class:`ObsSink`: metric samples, finished spans, and one-shot events.
Two sinks cover the use cases:

* :class:`NullSink` — the default.  ``enabled`` is ``False``, so every
  instrumentation site short-circuits before building a record; replays
  and benchmarks pay one attribute load and a branch per site.
* :class:`MemorySink` — collects everything in order, with JSONL export
  (``metrics.jsonl`` / ``spans.jsonl``) for the run report.

A finished span arrives as the :class:`~repro.obs.tracing.Span` object
the runtime annotated, not a copy; the sink keeps it as it is.  Span and
event attributes stay as the emitter passed them until ``as_dict``
normalizes them to JSON (:func:`jsonable_attrs`).

There is one telemetry path: overflow, park, retry, failover and failure
are query-span events plus counters, and each scale-up is a ``scaling``
span, so a replay's history is read back from a :class:`MemorySink`.

All timestamps are **simulated** seconds from the replay clock, so two
runs of the same scenario produce byte-identical exports.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only (tracing imports this module)
    from .tracing import Span

__all__ = [
    "MetricSample",
    "ObsEvent",
    "ObsSink",
    "NullSink",
    "MemorySink",
    "NULL_SINK",
]

#: Values allowed in span/event attributes: JSON scalars plus flat
#: sequences and sets (exported as lists, sets sorted).
AttrValue = Union[str, int, float, bool, None, Sequence[object], AbstractSet[object]]


def _jsonable(value: object) -> object:
    """Coerce an attribute value into a JSON-serialisable shape."""
    if isinstance(value, (tuple, list)):
        return list(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return value


def jsonable_attrs(attrs: Mapping[str, AttrValue]) -> dict[str, object]:
    """The JSON object of an attribute mapping."""
    return {k: _jsonable(v) for k, v in attrs.items()}


@dataclass(frozen=True)
class MetricSample:
    """One sim-time-stamped reading of a metric child.

    A gauge sample is the level set at ``time``; a counter sample is the
    running total at a snapshot.  A histogram sample's ``value`` is the
    observation count, ``total`` the sum of observations and ``buckets``
    the non-cumulative count per upper bound (``+Inf`` last).
    """

    time: float
    name: str
    kind: str
    value: float
    labels: tuple[tuple[str, str], ...] = ()
    total: Optional[float] = None
    buckets: tuple[tuple[str, int], ...] = ()

    def as_dict(self) -> dict[str, object]:
        """JSONL row shape; histogram rows add ``sum`` and ``[bound, count]`` buckets."""
        row: dict[str, object] = {
            "t": self.time,
            "metric": self.name,
            "type": self.kind,
            "value": self.value,
            "labels": dict(self.labels),
        }
        if self.kind == "histogram":
            row["sum"] = self.total
            # Pairs, not an object: the export sorts keys, buckets keep bound order.
            row["buckets"] = [list(pair) for pair in self.buckets]
        return row


@dataclass(frozen=True)
class ObsEvent:
    """A one-shot event: a kind and its attributes at one sim time."""

    time: float
    kind: str
    attrs: Mapping[str, AttrValue] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON shape."""
        return {"t": self.time, "kind": self.kind, "attrs": jsonable_attrs(self.attrs)}


class ObsSink(abc.ABC):
    """Destination for everything the instrumented runtime emits.

    ``enabled`` is the near-zero-cost switch: instrumentation sites check
    it *before* building any record, so a disabled sink costs one branch.
    """

    enabled: bool = True

    @abc.abstractmethod
    def on_metric(self, sample: MetricSample) -> None:
        """Receive one metric sample."""

    @abc.abstractmethod
    def on_span(self, span: Span) -> None:
        """Receive one finished span."""

    @abc.abstractmethod
    def on_event(self, event: ObsEvent) -> None:
        """Receive one one-shot event."""


class NullSink(ObsSink):
    """Discards everything; ``enabled`` is ``False`` so emitters skip work."""

    enabled = False

    def on_metric(self, sample: MetricSample) -> None:
        """Drop the sample."""

    def on_span(self, span: Span) -> None:
        """Drop the span."""

    def on_event(self, event: ObsEvent) -> None:
        """Drop the event."""


#: Shared default sink — stateless, safe to share across services.
NULL_SINK = NullSink()


class MemorySink(ObsSink):
    """Collects every emission in arrival order, with JSONL export."""

    def __init__(self) -> None:
        self.metrics: list[MetricSample] = []
        self.spans: list[Span] = []
        self.events: list[ObsEvent] = []

    def on_metric(self, sample: MetricSample) -> None:
        """Append the sample."""
        self.metrics.append(sample)

    def on_span(self, span: Span) -> None:
        """Append the span."""
        self.spans.append(span)

    def on_event(self, event: ObsEvent) -> None:
        """Append the event."""
        self.events.append(event)

    def metric_samples(self, name: str, **labels: str) -> list[MetricSample]:
        """Samples of ``name`` whose labels include every ``labels`` pair."""
        wanted = set(labels.items())
        return [
            s for s in self.metrics if s.name == name and wanted <= set(s.labels)
        ]

    def spans_of(self, kind: str) -> list[Span]:
        """All finished spans of the given kind, in finish order."""
        return [s for s in self.spans if s.kind == kind]

    def write_metrics_jsonl(self, path: Union[str, Path]) -> Path:
        """Write every metric sample as one JSON object per line."""
        return _write_jsonl(path, (s.as_dict() for s in self.metrics))

    def write_spans_jsonl(self, path: Union[str, Path]) -> Path:
        """Write every finished span as one JSON object per line."""
        return _write_jsonl(path, (s.as_dict() for s in self.spans))


def _write_jsonl(path: Union[str, Path], rows: Iterable[Mapping[str, object]]) -> Path:
    """Write ``rows`` as JSON Lines; parents are created as needed."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True))
            handle.write("\n")
    return target
