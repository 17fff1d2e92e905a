"""The pricing model.

"Thrifty adopts a pricing model that charges a tenant based on the number
of requested nodes (the degree of parallelism) and its active usage"
(Chapter 3).  A tenant renting an ``n``-node MPPDB pays
``n x active hours x rate`` — and, per Chapter 4.4, intra-tenant slowdown
from the tenant's own high MPL is the tenant's node-choice, not a billing
or SLA concern.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import HOUR
from ..workload.composer import LazyTenantLog
from ..workload.logs import TenantLog

__all__ = ["PricingModel", "TenantInvoice"]


@dataclass(frozen=True)
class TenantInvoice:
    """One tenant's bill for a period."""

    tenant_id: int
    nodes_requested: int
    active_hours: float
    node_hour_rate: float

    @property
    def amount(self) -> float:
        """Total charge: nodes x active hours x rate."""
        return self.nodes_requested * self.active_hours * self.node_hour_rate


@dataclass(frozen=True)
class PricingModel:
    """Per-node-hour pricing of active usage.

    The default rate folds hardware, operations and the MPPDB license share
    into a single figure; the absolute value only matters relative to the
    dedicated-cluster alternative computed by
    :meth:`dedicated_cost`, which is what the examples compare against.
    """

    node_hour_rate: float = 4.0
    minimum_billable_hours: float = 0.0

    def __post_init__(self) -> None:
        if self.node_hour_rate <= 0:
            raise ConfigurationError("node_hour_rate must be positive")
        if self.minimum_billable_hours < 0:
            raise ConfigurationError("minimum_billable_hours must be >= 0")

    def invoice(self, log: TenantLog | LazyTenantLog) -> TenantInvoice:
        """Bill a tenant for the activity recorded in its log (either kind)."""
        active_hours = max(
            log.total_busy_seconds() / HOUR, self.minimum_billable_hours
        )
        return TenantInvoice(
            tenant_id=log.tenant_id,
            nodes_requested=log.tenant.nodes_requested,
            active_hours=active_hours,
            node_hour_rate=self.node_hour_rate,
        )

    def dedicated_cost(self, nodes: int, period_hours: float) -> float:
        """What renting ``nodes`` dedicated nodes for the period would cost.

        Dedicated machines bill wall-clock time whether used or not — the
        comparison that makes MPPDBaaS attractive for mostly-inactive
        tenants (§1.1).
        """
        if nodes < 1:
            raise ConfigurationError("nodes must be >= 1")
        if period_hours < 0:
            raise ConfigurationError("period_hours must be >= 0")
        return nodes * period_hours * self.node_hour_rate
