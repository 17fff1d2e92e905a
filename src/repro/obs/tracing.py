"""Simulated-time span tracing of the query/tenant lifecycle.

A :class:`Span` is one interval of the replay — a query's life from
submission to its terminal state, a scale-up from trigger to ready, a
reconsolidation cycle — annotated with point-in-time events
(``submit``, ``route``, ``admit``, ``execute``, ``complete`` /
``violate``; see ``docs/OBSERVABILITY.md`` for the full taxonomy).

A span is one object from start to export: :meth:`Tracer.start_span`
opens it, call sites annotate it, and :meth:`Span.finish` hands that same
object to the sink, which keeps it.  Attributes are stored as the call
site passed them and normalized to JSON only by :meth:`Span.as_dict`.

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
from typing import Any, Mapping, NamedTuple, Optional

from ..errors import ObservabilityError
from .sink import AttrValue, ObsSink, NULL_SINK, jsonable_attrs

__all__ = ["Span", "SpanEvent", "Tracer", "STATUS_INFLIGHT"]

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
    """One lifecycle interval, kept by the sink once :meth:`finish` runs.

    ``end`` is ``None`` and ``status`` empty while the span is open.
    """

    __slots__ = (
        "span_id", "parent_id", "name", "kind", "start", "end", "status", "attrs", "events",
        "_sink",
    )

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
        self._sink = sink
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.status = ""
        self.attrs = attrs
        self.events: list[SpanEvent] = []

    def _check_open(self) -> None:
        if self.end is not None:
            raise ObservabilityError(f"span {self.span_id} already ended")

    def set_attr(self, key: str, value: AttrValue) -> None:
        """Set (or overwrite) one span attribute."""
        self._check_open()
        self.attrs[key] = value

    def add_event(self, time: float, name: str, **attrs: Any) -> None:
        """Append a point-in-time annotation."""
        self._check_open()
        self.events.append(SpanEvent(time, name, attrs or _NO_ATTRS))

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
    ) -> Span:
        """Open a span starting at simulated ``time``."""
        return Span(
            self.sink,
            next(self._ids),
            parent.span_id if parent is not None else None,
            name,
            kind or name,
            time,
            attrs,
        )
