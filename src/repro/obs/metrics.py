"""Labeled metric instruments over an :class:`~repro.obs.sink.ObsSink`.

Three instrument kinds, Prometheus-style:

* :class:`Counter` — monotonically increasing totals (queries submitted,
  routing decisions, scaling actions).
* :class:`Gauge` — last-write-wins levels (RT-TTP, concurrent active
  tenants).
* :class:`Histogram` — bucketed distributions (query latency, normalized
  latency, engine concurrency).

Instruments are *families* keyed by name; :meth:`MetricFamily.labels`
binds a family to one label set and returns a cheap bound handle, which
instrumented layers create once, when they are wired, not per update.

Counters and histograms aggregate in place, the way a Prometheus client
does: an update changes only the child's cumulative state.
:meth:`MetricsRegistry.flush` is the scrape — it writes one
:class:`~repro.obs.sink.MetricSample` per child changed since the last
flush, stamped with the **simulated** time of the flush (the runtime
calls it at every monitor tick and at the replay horizon).  Gauges keep
one sample per ``set``: their trajectories (RT-TTP, concurrent-active
tenants) are what the run report is built from.  ``value()``,
``snapshot()`` and :meth:`MetricsRegistry.to_prometheus_text` read the
live state.

State an application keeps anyway is not pushed a second time: a
collector (:meth:`MetricsRegistry.add_collector`) publishes it at each
scrape, Prometheus's pull model.

When the sink is disabled, updates return before touching any state —
the registry is free to share between an instrumented runtime and a
replay that never looks at it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Iterator, Optional, Sequence

from ..errors import ObservabilityError
from .sink import MetricSample, ObsSink, NULL_SINK

__all__ = [
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "BoundCounter",
    "BoundGauge",
    "BoundHistogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_NORMALIZED_BUCKETS",
    "DEFAULT_CONCURRENCY_BUCKETS",
]

LabelKey = tuple[tuple[str, str], ...]

#: Query-latency buckets (seconds): sub-second through multi-hour scans.
DEFAULT_LATENCY_BUCKETS = (1.0, 5.0, 15.0, 60.0, 300.0, 900.0, 3600.0, 4 * 3600.0)

#: Normalized-latency buckets: < 1.0 is faster-than-dedicated, 1.0 meets
#: the SLA, the tail captures interference multiples.
DEFAULT_NORMALIZED_BUCKETS = (0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0, 4.0, 8.0)

#: Engine-concurrency buckets (queries sharing one database process).
DEFAULT_CONCURRENCY_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)


def _label_key(label_names: tuple[str, ...], labels: dict[str, str]) -> LabelKey:
    if set(labels) != set(label_names):
        raise ObservabilityError(
            f"labels {sorted(labels)} do not match declared names {sorted(label_names)}"
        )
    return tuple((name, str(labels[name])) for name in label_names)


class MetricFamily:
    """Common machinery: a named instrument with declared label names."""

    kind: str = ""

    def __init__(
        self,
        sink: ObsSink,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
    ) -> None:
        self._sink = sink
        self.name = name
        self.help_text = help_text
        self.label_names: tuple[str, ...] = tuple(label_names)
        # Children updated since the last snapshot; only counters and
        # histograms mark children changed (gauges emit on every set).
        self._changed: set[LabelKey] = set()

    def _sample(self, time: float, key: LabelKey) -> MetricSample:
        raise NotImplementedError

    def flush(self, time: float) -> None:
        """Emit one sample per child changed since the last flush, by label key."""
        for key in sorted(self._changed):
            self._sink.on_metric(self._sample(time, key))
        self._changed.clear()


class BoundCounter:
    """A counter family bound to one label set."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: "Counter", key: LabelKey) -> None:
        self._family = family
        self._key = key

    def inc(self, time: float, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) at simulated ``time``."""
        self._family.inc_key(self._key, time, amount)

    def set_total(self, time: float, total: float) -> None:
        """Raise the child to a total kept elsewhere; unchanged is no update."""
        delta = total - self._family._values.get(self._key, 0.0)
        if delta:
            self._family.inc_key(self._key, time, delta)


class Counter(MetricFamily):
    """Monotonic counter family."""

    kind = "counter"

    def __init__(
        self,
        sink: ObsSink,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
    ) -> None:
        super().__init__(sink, name, help_text, label_names)
        self._values: dict[LabelKey, float] = {}

    def labels(self, **labels: str) -> BoundCounter:
        """Bind to one label set."""
        return BoundCounter(self, _label_key(self.label_names, labels))

    def inc(self, time: float, amount: float = 1.0) -> None:
        """Increment the unlabeled child (family must declare no labels)."""
        self.inc_key(_label_key(self.label_names, {}), time, amount)

    def inc_key(self, key: LabelKey, time: float, amount: float) -> None:
        """Increment the child at ``key``; skipped when the sink is off."""
        if not self._sink.enabled:
            return
        if amount < 0:
            raise ObservabilityError(f"counter {self.name!r} cannot decrease (got {amount!r})")
        self._values[key] = self._values.get(key, 0.0) + amount
        self._changed.add(key)

    def _sample(self, time: float, key: LabelKey) -> MetricSample:
        return MetricSample(time, self.name, self.kind, self._values[key], key)

    def value(self, **labels: str) -> float:
        """Current total for one label set (0.0 if never incremented)."""
        return self._values.get(_label_key(self.label_names, labels), 0.0)

    def snapshot(self) -> dict[LabelKey, float]:
        """Current totals per label set (copy)."""
        return dict(self._values)


class BoundGauge:
    """A gauge family bound to one label set."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: "Gauge", key: LabelKey) -> None:
        self._family = family
        self._key = key

    def set(self, time: float, value: float) -> None:
        """Record the level at simulated ``time``."""
        self._family.set_key(self._key, time, value)


class Gauge(MetricFamily):
    """Last-write-wins level family."""

    kind = "gauge"

    def __init__(
        self,
        sink: ObsSink,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
    ) -> None:
        super().__init__(sink, name, help_text, label_names)
        self._values: dict[LabelKey, float] = {}

    def labels(self, **labels: str) -> BoundGauge:
        """Bind to one label set."""
        return BoundGauge(self, _label_key(self.label_names, labels))

    def set(self, time: float, value: float) -> None:
        """Set the unlabeled child (family must declare no labels)."""
        self.set_key(_label_key(self.label_names, {}), time, value)

    def set_key(self, key: LabelKey, time: float, value: float) -> None:
        """Set the child at ``key``; skipped when the sink is off."""
        if not self._sink.enabled:
            return
        self._values[key] = value
        self._sink.on_metric(MetricSample(time, self.name, self.kind, value, key))

    def value(self, **labels: str) -> Optional[float]:
        """Last value for one label set, or ``None`` if never set."""
        return self._values.get(_label_key(self.label_names, labels))

    def snapshot(self) -> dict[LabelKey, float]:
        """Current levels per label set (copy)."""
        return dict(self._values)


class BoundHistogram:
    """A histogram family bound to one label set."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: "Histogram", key: LabelKey) -> None:
        self._family = family
        self._key = key

    def observe(self, time: float, value: float) -> None:
        """Record one observation at simulated ``time``."""
        self._family.observe_key(self._key, time, value)


class _HistogramState:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * (num_buckets + 1)  # +inf bucket last
        self.total = 0.0
        self.count = 0


class Histogram(MetricFamily):
    """Bucketed distribution family with cumulative Prometheus buckets."""

    kind = "histogram"

    def __init__(
        self,
        sink: ObsSink,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(sink, name, help_text, label_names)
        ordered = tuple(float(b) for b in buckets)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ObservabilityError(
                f"histogram {name!r} buckets must be non-empty, sorted and unique"
            )
        self.buckets = ordered
        self._bound_names = tuple(_format_bound(b) for b in ordered) + ("+Inf",)
        self._states: dict[LabelKey, _HistogramState] = {}

    def labels(self, **labels: str) -> BoundHistogram:
        """Bind to one label set."""
        return BoundHistogram(self, _label_key(self.label_names, labels))

    def observe(self, time: float, value: float) -> None:
        """Observe on the unlabeled child (family must declare no labels)."""
        self.observe_key(_label_key(self.label_names, {}), time, value)

    def observe_key(self, key: LabelKey, time: float, value: float) -> None:
        """Record one observation; skipped when the sink is off."""
        if not self._sink.enabled:
            return
        state = self._states.get(key)
        if state is None:
            state = _HistogramState(len(self.buckets))
            self._states[key] = state
        # First bucket whose upper bound is >= value (``le`` semantics); NaN
        # compares false against every bound, so it lands in ``+Inf``.
        if math.isnan(value):
            state.bucket_counts[-1] += 1
        else:
            state.bucket_counts[bisect_left(self.buckets, value)] += 1
        state.total += value
        state.count += 1
        self._changed.add(key)

    def _sample(self, time: float, key: LabelKey) -> MetricSample:
        state = self._states[key]
        return MetricSample(
            time,
            self.name,
            self.kind,
            float(state.count),
            key,
            total=state.total,
            buckets=tuple(zip(self._bound_names, state.bucket_counts)),
        )

    def counts(self, **labels: str) -> dict[str, int]:
        """Non-cumulative per-bucket counts keyed by upper bound (``+Inf`` last)."""
        state = self._states.get(_label_key(self.label_names, labels))
        if state is None:
            return {}
        return dict(zip(self._bound_names, state.bucket_counts))

    def snapshot(self) -> dict[LabelKey, _HistogramState]:
        """Histogram state per label set (shared objects; treat read-only)."""
        return dict(self._states)


def _format_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in pairs)
    return "{" + body + "}"


class MetricsRegistry:
    """Creates and indexes metric families over one sink.

    Families are memoized by name; asking for an existing name with a
    different kind or label set raises, so a metric name means one thing
    across the whole process.
    """

    def __init__(self, sink: Optional[ObsSink] = None) -> None:
        self.sink: ObsSink = sink if sink is not None else NULL_SINK
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[Callable[[], None]] = []

    def __iter__(self) -> Iterator[MetricFamily]:
        return iter(sorted(self._families.values(), key=lambda f: f.name))

    def _register(self, family: MetricFamily) -> MetricFamily:
        existing = self._families.get(family.name)
        if existing is not None:
            if type(existing) is not type(family) or existing.label_names != family.label_names:
                raise ObservabilityError(
                    f"metric {family.name!r} re-registered with a different "
                    "kind or label set"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        """Get or create a counter family."""
        family = self._register(Counter(self.sink, name, help_text, label_names))
        assert isinstance(family, Counter)
        return family

    def gauge(
        self, name: str, help_text: str = "", label_names: Sequence[str] = ()
    ) -> Gauge:
        """Get or create a gauge family."""
        family = self._register(Gauge(self.sink, name, help_text, label_names))
        assert isinstance(family, Gauge)
        return family

    def histogram(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram family."""
        family = self._register(
            Histogram(self.sink, name, help_text, label_names, buckets)
        )
        assert isinstance(family, Histogram)
        return family

    def add_collector(self, collect: Callable[[], None]) -> None:
        """Run ``collect()`` before every scrape: :meth:`flush` and Prometheus text."""
        self._collectors.append(collect)

    def flush(self, time: float) -> None:
        """Snapshot counters and histograms into the sink at simulated ``time``.

        One sample per child changed since the last flush, ordered by
        family name, then label key; a histogram sample carries the
        count as its value plus the sum and the per-bucket counts.
        """
        if not self.sink.enabled:
            return
        for collect in self._collectors:
            collect()
        for family in self:
            family.flush(time)

    def to_prometheus_text(self) -> str:
        """Render the current snapshot in the Prometheus text format."""
        for collect in self._collectors:
            collect()
        lines: list[str] = []
        for family in self:
            lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if isinstance(family, (Counter, Gauge)):
                for key, value in sorted(family.snapshot().items()):
                    lines.append(f"{family.name}{_render_labels(key)} {_format_value(value)}")
            elif isinstance(family, Histogram):
                for key, state in sorted(family.snapshot().items()):
                    cumulative = 0
                    for bound, count in zip(
                        [*family.buckets, math.inf], state.bucket_counts
                    ):
                        cumulative += count
                        le = (("le", _format_bound(bound)),)
                        lines.append(
                            f"{family.name}_bucket{_render_labels(key, le)} {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{_render_labels(key)} {_format_value(state.total)}"
                    )
                    lines.append(f"{family.name}_count{_render_labels(key)} {state.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
