"""Simulated-time span tracing of the query/tenant lifecycle.

A :class:`Span` is one interval of the replay — a query's life from
submission to its terminal state, a scale-up from trigger to ready, a
reconsolidation cycle — annotated with point-in-time events
(``submit``, ``route``, ``admit``, ``execute``, ``complete`` /
``violate``; see ``docs/OBSERVABILITY.md`` for the full taxonomy).

A span is one object from start to export: the tracer opens it, call
sites annotate it, and :meth:`Span.finish` hands that same object to the
sink, which keeps it.  An :class:`EventSpan` (:meth:`Tracer.start_span`)
stores its attributes and events as the call sites pass them.  A
:class:`QuerySpan` (:meth:`Tracer.start_query_span`), one per replayed
query, is a record: it stores the fields that fix the query's life and
builds its attributes and events when they are read, so the replay's
happy path builds no event objects.  Either way, attributes are
normalized to JSON only by :meth:`Span.as_dict`.

Spans carry **simulated** timestamps from the replay clock and ids from a
deterministic counter, so replaying the same scenario twice yields
byte-identical ``spans.jsonl`` exports.  The tracer keeps no set of open
spans: whoever opens a span closes it, and the owners of spans still open
at the replay horizon finish them there with status
:data:`STATUS_INFLIGHT`.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple, Optional, Sequence, Union

from ..errors import ObservabilityError
from .sink import AttrValue, ObsSink, NULL_SINK, jsonable_attrs

__all__ = ["Span", "EventSpan", "QuerySpan", "SpanEvent", "Tracer", "STATUS_INFLIGHT"]

#: Status given to spans force-closed at the replay horizon.
STATUS_INFLIGHT = "inflight"

#: The attributes of every event recorded without any.
_NO_ATTRS: Mapping[str, AttrValue] = MappingProxyType({})


class SpanEvent(NamedTuple):
    """A point-in-time annotation inside a span."""

    time: float
    name: str
    attrs: Mapping[str, AttrValue] = _NO_ATTRS

    def as_dict(self) -> dict[str, object]:
        """JSON shape used inside a span row."""
        return {"t": self.time, "name": self.name, "attrs": jsonable_attrs(self.attrs)}


class Span:
    """What every span is: an id, an interval, a status, attributes and events.

    ``end`` is ``None`` and ``status`` empty while the span is open.  The
    two kinds differ only in how they keep ``attrs`` and ``events``:
    :class:`EventSpan` stores them as its call sites pass them,
    :class:`QuerySpan` stores the fields that fix a query's life and
    builds both when they are read.
    """

    __slots__ = ("span_id", "start", "end", "status", "_sink")

    name: str
    kind: str
    parent_id: Optional[int]
    attrs: Mapping[str, AttrValue]
    events: Sequence[SpanEvent]

    def __init__(self, sink: ObsSink, span_id: int, start: float) -> None:
        self._sink = sink
        self.span_id = span_id
        self.start = start
        self.end: Optional[float] = None
        self.status = ""

    def _check_open(self) -> None:
        if self.end is not None:
            raise ObservabilityError(f"span {self.span_id} already ended")

    def finish(self, time: float, status: str = "ok") -> None:
        """Close the span at ``time`` and hand it to the tracer's sink."""
        self._check_open()
        if time < self.start:
            raise ObservabilityError(
                f"span {self.span_id} cannot end at {time!r} before its start {self.start!r}"
            )
        self.end = time
        self.status = status
        if self._sink.enabled:
            self._sink.on_span(self)

    def as_dict(self) -> dict[str, object]:
        """JSONL row shape."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": jsonable_attrs(self.attrs),
            "events": [e.as_dict() for e in self.events],
        }


class EventSpan(Span):
    """A span whose ``attrs`` dict and ``events`` list hold what its call sites pass.

    Scaling, reconsolidation and node-replacement spans are of this kind.
    """

    __slots__ = ("parent_id", "name", "kind", "attrs", "events")

    def __init__(
        self,
        sink: ObsSink,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        start: float,
        attrs: dict[str, AttrValue],
    ) -> None:
        super().__init__(sink, span_id, start)
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.attrs: dict[str, AttrValue] = attrs
        self.events: list[SpanEvent] = []

    def set_attr(self, key: str, value: AttrValue) -> None:
        """Set (or overwrite) one span attribute."""
        self._check_open()
        self.attrs[key] = value

    def add_event(self, time: float, name: str, **attrs: Any) -> None:
        """Append a point-in-time annotation."""
        self._check_open()
        self.events.append(SpanEvent(time, name, attrs or _NO_ATTRS))


#: One dispatch of a query: ``(time, instance, outcome, attempt, work_s,
#: admit_concurrency)``, read back as its ``route``, ``admit`` and
#: ``execute`` events.
_Dispatch = tuple[float, str, str, int, float, int]

_LogEntry = Union[_Dispatch, SpanEvent]


class QuerySpan(Span):
    """A query's span, kept as the fields that fix its life.

    A query that completes unharmed is fixed by its submission (time,
    group, tenant, template), one dispatch tuple (:meth:`dispatched`) and
    its completion (:meth:`settle`): ``submit`` is implied by ``start``,
    ``route``, ``admit`` and ``execute`` by the dispatch, and ``complete``
    or ``violate`` by the settled status and ``end``.  The fault path's
    events (``failover``, ``abort``, ``retry``, ``park``, ``failed``,
    ``inflight``) are recorded by :meth:`add_event` as explicit
    :class:`SpanEvent` entries of the same ordered log as the dispatches.

    ``attrs`` and ``events`` are built on each read and are read-only: a
    read-only mapping and a tuple of events whose attributes are
    read-only too.  :meth:`set_attr` stores its value with the span, so
    it is in every later read and in the export.
    """

    __slots__ = (
        "group", "tenant", "template", "observed_latency_s", "_normalized", "_log", "_extra"
    )

    name = "query"
    kind = "query"
    parent_id = None

    def __init__(
        self, sink: ObsSink, span_id: int, start: float, group: str, tenant: int, template: str
    ) -> None:
        super().__init__(sink, span_id, start)
        self.group = group
        self.tenant = tenant
        self.template = template
        self.observed_latency_s: Optional[float] = None
        self._normalized = 0.0
        # None, one entry, or a list once a second entry arrives.
        self._log: Union[None, _LogEntry, list[_LogEntry]] = None
        self._extra: Optional[dict[str, AttrValue]] = None

    def _append(self, entry: _LogEntry) -> None:
        log = self._log
        if log is None:
            self._log = entry
        elif isinstance(log, list):
            log.append(entry)
        else:
            self._log = [log, entry]

    def dispatched(
        self,
        time: float,
        instance: str,
        outcome: str,
        attempt: int,
        work_s: float,
        concurrency: int,
    ) -> None:
        """Record one attempt routed to ``instance`` and admitted there.

        ``concurrency`` is the engine's concurrency right after admission.
        """
        self._check_open()
        self._append((time, instance, outcome, attempt, work_s, concurrency))

    def add_event(self, time: float, name: str, **attrs: Any) -> None:
        """Append an explicit (fault-path) event to the ordered log."""
        self._check_open()
        self._append(SpanEvent(time, name, attrs or _NO_ATTRS))

    def set_attr(self, key: str, value: AttrValue) -> None:
        """Set (or overwrite) one attribute; it is kept and exported."""
        self._check_open()
        if self._extra is None:
            self._extra = {}
        self._extra[key] = value

    def settle(
        self, time: float, status: str, observed_latency_s: float, normalized: float
    ) -> None:
        """Close the span on the query's completion; ``status`` is also its last event."""
        self._check_open()
        self.observed_latency_s = observed_latency_s
        self._normalized = normalized
        self.finish(time, status)

    @property
    def attrs(self) -> Mapping[str, AttrValue]:
        """``group``, ``tenant``, ``template``; on completion the latencies."""
        attrs: dict[str, AttrValue] = {
            "group": self.group, "tenant": self.tenant, "template": self.template
        }
        if self.observed_latency_s is not None:
            attrs["observed_latency_s"] = self.observed_latency_s
            attrs["normalized"] = round(self._normalized, 9)
        if self._extra is not None:
            attrs.update(self._extra)
        return MappingProxyType(attrs)

    @property
    def events(self) -> tuple[SpanEvent, ...]:
        """``submit``, the log with each dispatch expanded, then the settled status."""
        log = self._log
        entries = [] if log is None else log if isinstance(log, list) else [log]
        events = [SpanEvent(self.start, "submit")]
        for entry in entries:
            if isinstance(entry, SpanEvent):
                events.append(entry)
                continue
            time, instance, outcome, attempt, work_s, concurrency = entry
            events += (
                SpanEvent(time, "route", MappingProxyType(
                    {"instance": instance, "outcome": outcome, "attempt": attempt}
                )),
                SpanEvent(time, "admit", MappingProxyType(
                    {"instance": instance, "work_s": round(work_s, 6), "concurrency": concurrency}
                )),
                SpanEvent(time, "execute"),
            )
        if self.observed_latency_s is not None and self.end is not None:
            events.append(SpanEvent(self.end, self.status))
        return tuple(events)


class Tracer:
    """Opens spans onto one sink, with ids from a deterministic counter."""

    def __init__(self, sink: Optional[ObsSink] = None) -> None:
        self.sink: ObsSink = sink if sink is not None else NULL_SINK
        self._ids = itertools.count(1)

    @property
    def enabled(self) -> bool:
        """Whether spans reach a live sink."""
        return self.sink.enabled

    def start_span(
        self,
        name: str,
        time: float,
        kind: str = "",
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> EventSpan:
        """Open a span starting at simulated ``time``."""
        return EventSpan(
            self.sink,
            next(self._ids),
            parent.span_id if parent is not None else None,
            name,
            kind or name,
            time,
            attrs,
        )

    def start_query_span(self, time: float, group: str, tenant: int, template: str) -> QuerySpan:
        """Open a query's span at its submission time."""
        return QuerySpan(self.sink, next(self._ids), time, group, tenant, template)
