"""Performance-SLA accounting.

The SLA of MPPDBaaS is the *query latency before consolidation* (§1.1):
each logged query's baseline is the latency it obtained on the tenant's
dedicated, exactly-sized MPPDB.  After consolidation, a query's *normalized
performance* is ``observed latency / baseline latency`` — "1.0 means a
query has finished execution as quick as it should be when measured in an
isolated environment" (§7.5); values below 1.0 happen when a query lands on
an over-sized MPPDB (the second consolidation opportunity), values above
1.0 when it shares an instance with another tenant.

Completions are kept in an :class:`SLALedger` as narrow typed columns;
an :class:`SLAReport` reads ledgers and builds its :class:`SLARecord`
rows only when they are asked for.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Optional

from ..errors import DeploymentError

__all__ = ["SLALedger", "SLARecord", "SLAReport", "normalized_latency"]

#: Normalized latencies up to this are treated as meeting the SLA
#: (absorbs replay jitter at the boundary).
SLA_TOLERANCE = 1e-6

#: Largest normalized latency that meets the SLA.
_MET_BOUND = 1.0 + SLA_TOLERANCE


def normalized_latency(observed_latency_s: float, baseline_latency_s: float) -> float:
    """Observed / baseline latency (1.0 for a zero baseline)."""
    if baseline_latency_s == 0:
        return 1.0
    return observed_latency_s / baseline_latency_s


@dataclass(frozen=True, slots=True)
class SLARecord:
    """One completed query's SLA outcome."""

    tenant_id: int
    group_name: str
    instance_name: str
    template: str
    submit_time_s: float
    baseline_latency_s: float
    observed_latency_s: float

    def __post_init__(self) -> None:
        if self.baseline_latency_s < 0 or self.observed_latency_s < 0:
            raise DeploymentError("latencies must be non-negative")

    @property
    def normalized(self) -> float:
        """Observed / baseline latency."""
        return normalized_latency(self.observed_latency_s, self.baseline_latency_s)

    @property
    def met(self) -> bool:
        """Whether the query met its before-consolidation latency."""
        return self.normalized <= _MET_BOUND


class SLALedger:
    """Completed queries as columns, in completion order.

    One row per completion, 28 bytes: a code in an ``array('I')`` into the
    ledger's table of distinct ``(tenant, group, instance, template)``
    keys (bounded by a group's tenants, templates and instances, not by
    the horizon), and the submit time, baseline and observed latency in
    ``array('d')`` s.  :meth:`append` computes the row's normalized latency
    and SLA outcome once and keeps :attr:`met`, the running count of rows
    that met it.
    """

    __slots__ = ("_codes", "_key", "_submit", "_baseline", "_observed", "met")

    def __init__(self) -> None:
        # Key -> code; codes count up in insertion order.
        self._codes: dict[tuple[int, str, str, str], int] = {}
        self._key = array("I")
        self._submit = array("d")
        self._baseline = array("d")
        self._observed = array("d")
        #: Rows whose normalized latency met the SLA.
        self.met = 0

    def __len__(self) -> int:
        return len(self._observed)

    def append(
        self,
        tenant_id: int,
        group_name: str,
        instance_name: str,
        template: str,
        submit_time_s: float,
        baseline_latency_s: float,
        observed_latency_s: float,
    ) -> tuple[float, bool]:
        """Add one completion; returns its normalized latency and whether it met the SLA."""
        if baseline_latency_s < 0 or observed_latency_s < 0:
            raise DeploymentError("latencies must be non-negative")
        key = (tenant_id, group_name, instance_name, template)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self._codes)
        self._key.append(code)
        self._submit.append(submit_time_s)
        self._baseline.append(baseline_latency_s)
        self._observed.append(observed_latency_s)
        normalized = normalized_latency(observed_latency_s, baseline_latency_s)
        met = normalized <= _MET_BOUND
        self.met += met
        return normalized, met

    def latencies(self, start: int) -> Iterator[tuple[float, float]]:
        """``(observed, normalized)`` of the rows from index ``start`` on."""
        for observed, baseline in zip(self._observed[start:], self._baseline[start:]):
            yield observed, normalized_latency(observed, baseline)

    def report(self) -> "SLAReport":
        """A report over the rows appended so far."""
        return SLAReport._of(((self, len(self)),))


class SLAReport:
    """Aggregate SLA outcomes over a set of completed queries.

    A report reads the first rows of one or more ledgers, so wrapping a
    group's ledger copies nothing.  :attr:`records` builds the rows once,
    on first read.
    """

    def __init__(self, records: Iterable[SLARecord]) -> None:
        ledger = SLALedger()
        for r in records:
            ledger.append(
                r.tenant_id, r.group_name, r.instance_name, r.template,
                r.submit_time_s, r.baseline_latency_s, r.observed_latency_s,
            )
        self._parts: tuple[tuple[SLALedger, int], ...] = ((ledger, len(ledger)),)
        self._records: Optional[tuple[SLARecord, ...]] = None

    @classmethod
    def _of(cls, parts: Iterable[tuple[SLALedger, int]]) -> "SLAReport":
        report = cls.__new__(cls)
        report._parts = tuple(parts)
        report._records = None
        return report

    @classmethod
    def combine(cls, reports: Iterable["SLAReport"]) -> "SLAReport":
        """One report over ``reports``' rows, in order."""
        return cls._of(chain.from_iterable(report._parts for report in reports))

    def __len__(self) -> int:
        return sum(count for __, count in self._parts)

    def _normalized(self) -> Iterator[float]:
        for ledger, count in self._parts:
            for observed, baseline in zip(islice(ledger._observed, count), ledger._baseline):
                yield normalized_latency(observed, baseline)

    @property
    def records(self) -> tuple[SLARecord, ...]:
        """Every row, in ledger order (built on first read)."""
        if self._records is None:
            rows: list[SLARecord] = []
            for ledger, count in self._parts:
                keys = list(ledger._codes)
                rows.extend(
                    SLARecord(*keys[code], submit, baseline, observed)
                    for code, submit, baseline, observed in islice(
                        zip(ledger._key, ledger._submit, ledger._baseline, ledger._observed), count
                    )
                )
            self._records = tuple(rows)
        return self._records

    @property
    def fraction_met(self) -> float:
        """Fraction of queries that met their SLA."""
        count = len(self)
        if not count:
            return 1.0
        return sum(1 for n in self._normalized() if n <= _MET_BOUND) / count

    @property
    def worst_normalized(self) -> float:
        """Largest normalized latency observed."""
        if not len(self):
            return 1.0
        return max(self._normalized())

    def mean_normalized(self) -> float:
        """Mean normalized latency."""
        count = len(self)
        if not count:
            return 1.0
        return sum(self._normalized()) / count

    def violations(self) -> list[SLARecord]:
        """Queries that missed their SLA, in time order."""
        return sorted(
            (r for r in self.records if not r.met), key=lambda r: r.submit_time_s
        )

    def window(self, start: float, end: float) -> "SLAReport":
        """Restrict to queries submitted in ``[start, end)``."""
        return SLAReport(
            [r for r in self.records if start <= r.submit_time_s < end]
        )

    def summary(self) -> dict[str, float]:
        """Headline SLA metrics."""
        return {
            "queries": float(len(self)),
            "fraction_met": self.fraction_met,
            "mean_normalized": self.mean_normalized(),
            "worst_normalized": self.worst_normalized,
        }
