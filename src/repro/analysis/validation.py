"""Workload sanity validation.

A generated workload drives every downstream result, so before spending
hours on sweeps it pays to check it is *plausible*: the active-tenant
ratio in the realistic band the paper cites (8.9–12 % for its logs,
[21]'s 10 % for real DaaS), every node-size class populated with a
Zipf-decreasing shape, and per-tenant activity consistent with the
office-hours structure.  :func:`validate_workload` runs those checks and
returns a structured report; `strict=True` raises on hard failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import WorkloadError
from ..units import DAY
from ..workload.composer import ComposedWorkload

__all__ = ["WorkloadReport", "validate_workload"]


@dataclass(frozen=True)
class WorkloadReport:
    """Outcome of workload validation."""

    tenants: int
    active_ratio_unconditional: float
    active_ratio_conditional: float
    class_counts: dict[int, int]
    mean_daily_busy_hours: float
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        """Whether no warnings were raised."""
        return not self.warnings


def validate_workload(
    workload: ComposedWorkload,
    epoch_size: float = 60.0,
    ratio_band: tuple[float, float] = (0.005, 0.25),
    sample_tenants: int = 25,
    strict: bool = False,
) -> WorkloadReport:
    """Check a composed workload's plausibility.

    Checks:

    * the unconditional active-tenant ratio lies in ``ratio_band`` (a
      deliberately wide envelope around realistic DaaS ratios — outside
      it, calibration is off and consolidation results are meaningless);
    * every node size of the menu has at least one tenant;
    * tenant counts do not *increase* with node size (the Zipf shape of
      Figure 5.2), tolerating small-sample noise on adjacent classes;
    * sampled tenants are busy a plausible number of hours per day
      (more than ~16 h/day means queries never finish).

    Returns the report; with ``strict=True`` raises
    :class:`~repro.errors.WorkloadError` listing every warning.
    """
    if epoch_size <= 0:
        raise WorkloadError("epoch_size must be positive")
    warnings: list[str] = []

    uncond = workload.active_tenant_ratio(epoch_size, conditional=False)
    cond = workload.active_tenant_ratio(epoch_size, conditional=True)
    low, high = ratio_band
    if not (low <= uncond <= high):
        warnings.append(
            f"unconditional active ratio {uncond:.4f} outside plausible band "
            f"[{low}, {high}]"
        )

    class_counts: dict[int, int] = {}
    for tenant in workload.tenants:
        class_counts[tenant.nodes_requested] = class_counts.get(tenant.nodes_requested, 0) + 1
    sizes = sorted(class_counts)
    for size in sizes:
        if class_counts[size] == 0:
            warnings.append(f"node-size class {size} has no tenants")
    counts = [class_counts[s] for s in sizes]
    # Zipf shape: allow adjacent-class noise, flag a clear inversion.
    for i in range(len(counts) - 1):
        if counts[i + 1] > counts[i] * 1.5 + 2:
            warnings.append(
                f"tenant counts increase from {sizes[i]}-node ({counts[i]}) to "
                f"{sizes[i + 1]}-node ({counts[i + 1]}): not Zipf-shaped"
            )

    sample = workload.tenant_ids[: max(1, sample_tenants)]
    horizon_days = workload.horizon_s / DAY
    busy_hours = []
    for tenant_id in sample:
        log = workload.lazy_log(tenant_id)
        busy_hours.append(log.total_busy_seconds() / 3600.0 / horizon_days)
    mean_busy = float(np.mean(busy_hours))
    if mean_busy > 16.0:
        warnings.append(
            f"sampled tenants busy {mean_busy:.1f} h/day on average: queries "
            "are not completing (check template costs vs think times)"
        )
    if mean_busy <= 0.0:
        warnings.append("sampled tenants are never active")

    report = WorkloadReport(
        tenants=len(workload),
        active_ratio_unconditional=uncond,
        active_ratio_conditional=cond,
        class_counts=class_counts,
        mean_daily_busy_hours=mean_busy,
        warnings=tuple(warnings),
    )
    if strict and warnings:
        raise WorkloadError("workload validation failed: " + "; ".join(warnings))
    return report
