"""Performance-SLA accounting.

The SLA of MPPDBaaS is the *query latency before consolidation* (§1.1):
each logged query's baseline is the latency it obtained on the tenant's
dedicated, exactly-sized MPPDB.  After consolidation, a query's *normalized
performance* is ``observed latency / baseline latency`` — "1.0 means a
query has finished execution as quick as it should be when measured in an
isolated environment" (§7.5); values below 1.0 happen when a query lands on
an over-sized MPPDB (the second consolidation opportunity), values above
1.0 when it shares an instance with another tenant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import DeploymentError

__all__ = ["SLARecord", "SLAReport"]

#: Normalized latencies up to this are treated as meeting the SLA
#: (absorbs replay jitter at the boundary).
SLA_TOLERANCE = 1e-6


@dataclass(frozen=True)
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
        if self.baseline_latency_s == 0:
            return 1.0
        return self.observed_latency_s / self.baseline_latency_s

    @property
    def met(self) -> bool:
        """Whether the query met its before-consolidation latency."""
        return self.normalized <= 1.0 + SLA_TOLERANCE


class SLAReport:
    """Aggregate SLA outcomes over a set of completed queries."""

    def __init__(self, records: Sequence[SLARecord]) -> None:
        self.records: tuple[SLARecord, ...] = tuple(records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def fraction_met(self) -> float:
        """Fraction of queries that met their SLA."""
        if not self.records:
            return 1.0
        return sum(1 for r in self.records if r.met) / len(self.records)

    @property
    def worst_normalized(self) -> float:
        """Largest normalized latency observed."""
        if not self.records:
            return 1.0
        return max(r.normalized for r in self.records)

    def mean_normalized(self) -> float:
        """Mean normalized latency."""
        if not self.records:
            return 1.0
        return sum(r.normalized for r in self.records) / len(self.records)

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
            "queries": float(len(self.records)),
            "fraction_met": self.fraction_met,
            "mean_normalized": self.mean_normalized(),
            "worst_normalized": self.worst_normalized,
        }
