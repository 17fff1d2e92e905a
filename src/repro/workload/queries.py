"""Parametric query templates.

A :class:`QueryTemplate` is the cost-model stand-in for a real TPC-H/TPC-DS
query (DESIGN.md §2): a single-node cost per gigabyte of tenant data plus a
scale-out curve.  The dedicated latency of a query for a tenant with
``data_gb`` of data on an ``n``-node MPPDB is::

    latency = curve.latency(seconds_per_gb * data_gb, n)

Thrifty never looks inside queries — it only observes latencies and
activity — so this is the exact interface the system exercises.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..errors import WorkloadError
from ..mppdb.scaleout import LinearScaleOut, ScaleOutCurve

__all__ = ["QueryTemplate", "template_by_name"]


@dataclass(frozen=True)
class QueryTemplate:
    """Cost model for one benchmark query.

    Parameters
    ----------
    name:
        Template identifier, e.g. ``"tpch.q1"``.
    benchmark:
        ``"tpch"`` or ``"tpcds"``.
    seconds_per_gb:
        Single-node dedicated execution time per GB of tenant data.
    curve:
        Scale-out behaviour (linear for Q1-like scans, Amdahl for
        Q19-like repartitioning queries).
    """

    name: str
    benchmark: str
    seconds_per_gb: float
    curve: ScaleOutCurve = field(default_factory=LinearScaleOut)

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("template name must be non-empty")
        if self.benchmark not in ("tpch", "tpcds"):
            raise WorkloadError(f"unknown benchmark {self.benchmark!r}")
        if self.seconds_per_gb <= 0:
            raise WorkloadError(f"seconds_per_gb must be positive, got {self.seconds_per_gb!r}")

    def dedicated_latency_s(self, data_gb: float, nodes: int) -> float:
        """Isolated-execution latency for ``data_gb`` of data on ``nodes`` nodes."""
        if data_gb < 0:
            raise WorkloadError(f"data size must be non-negative, got {data_gb!r}")
        return self.curve.latency(self.seconds_per_gb * data_gb, nodes)

    @property
    def is_linear_scale_out(self) -> bool:
        """Whether the template scales out perfectly linearly."""
        return isinstance(self.curve, LinearScaleOut)


@functools.cache
def _templates_by_name() -> dict[str, QueryTemplate]:
    # Imported here, not at module level: the registries import this module.
    from .tpcds import TPCDS_TEMPLATES
    from .tpch import TPCH_TEMPLATES

    return {
        template.name: template
        for registry in (TPCH_TEMPLATES, TPCDS_TEMPLATES)
        for template in registry.values()
    }


def template_by_name(name: str) -> QueryTemplate:
    """Resolve a template by its full name, e.g. ``"tpch.q19"``.

    Used by the runtime replay to recover a logged query's cost model.
    """
    template = _templates_by_name().get(name)
    if template is None:
        raise WorkloadError(f"unknown query template {name!r}")
    return template
