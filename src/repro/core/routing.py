"""Query routing (Algorithm 1) plus ablation policies.

The TDD router routes *active tenants*, not individual queries: once a
tenant has queries running on some MPPDB, every further query of it goes
there until the tenant becomes inactive (strong notion — no query running
anywhere).  Otherwise the tuning MPPDB ``MPPDB_0`` is preferred if free,
then any free MPPDB, and only when *all* instances are busy does a query
fall through to ``MPPDB_0`` for concurrent processing (the case manual
tuning of ``U`` is for, Chapter 6).

Elastic scaling pins over-active tenants to a dedicated instance
(:meth:`QueryRouter.pin_tenant`); pinned tenants bypass Algorithm 1.

Routing does work in proportion to the tenant's own replicas: the router
keeps, per tenant, the instances hosting it (built on the tenant's first
route, dropped when an instance joins), and asks each engine in O(1)
whether the tenant has a query running there.

The ablation routers (random-free, round-robin, always-tuning) exist for
``bench_ablation_routing.py``: they violate the tenant-exclusivity
invariant in different ways and show why Algorithm 1's order matters.
"""

from __future__ import annotations

import abc
from typing import Sequence

from ..errors import NoHealthyInstanceError, RoutingError
from ..mppdb.instance import InstanceState, MPPDBInstance
from ..rng import RngFactory

__all__ = [
    "QueryRouter",
    "TDDRouter",
    "RandomFreeRouter",
    "RoundRobinRouter",
    "AlwaysTuningRouter",
    "ROUTING_OUTCOMES",
]

#: Every outcome :meth:`QueryRouter.route` names; ``overflow`` is a pick of
#: a busy instance the tenant has no query running on.
ROUTING_OUTCOMES = ("pinned", "tenant-affinity", "tuning-free", "free", "overflow")

#: A routing decision: the chosen instance and its outcome.
Route = tuple[MPPDBInstance, str]


class QueryRouter(abc.ABC):
    """Routes a tenant's query to one of a tenant group's instances.

    ``instances[0]`` is the tuning MPPDB ``MPPDB_0``.  An instance's
    catalog must not change once the router holds it: the instances that
    host a tenant are looked up once, on the tenant's first route, and
    again only after :meth:`add_instance`.
    """

    def __init__(self, instances: Sequence[MPPDBInstance]) -> None:
        if not instances:
            raise RoutingError("a router needs at least one instance")
        self._instances: list[MPPDBInstance] = list(instances)
        self._pinned: dict[int, MPPDBInstance] = {}
        # tenant -> the instances hosting it, in routing order.
        self._hosting: dict[int, list[MPPDBInstance]] = {}

    @property
    def instances(self) -> list[MPPDBInstance]:
        """The instances currently routed to (copy)."""
        return list(self._instances)

    @property
    def tuning_instance(self) -> MPPDBInstance:
        """``MPPDB_0``."""
        return self._instances[0]

    def add_instance(self, instance: MPPDBInstance) -> None:
        """Register an additional instance (elastic scaling)."""
        self._instances.append(instance)
        self._hosting.clear()

    def pin_tenant(self, tenant_id: int, instance: MPPDBInstance) -> None:
        """Route all of a tenant's future queries to ``instance``.

        Used after lightweight elastic scaling: "the Deployment Advisor
        will notify the Query Router to route queries from the over-active
        tenant(s) to the new MPPDB" (Chapter 5.1).
        """
        if not instance.hosts(tenant_id):
            raise RoutingError(
                f"cannot pin tenant {tenant_id} to {instance.name!r}: data not deployed"
            )
        self._pinned[tenant_id] = instance

    def unpin_tenant(self, tenant_id: int) -> None:
        """Remove a pin (e.g. at re-consolidation)."""
        self._pinned.pop(tenant_id, None)

    @property
    def pinned_tenants(self) -> dict[int, MPPDBInstance]:
        """Current pin map (copy)."""
        return dict(self._pinned)

    def route(self, tenant_id: int) -> Route:
        """Choose the instance a new query of ``tenant_id`` should run on.

        Returns the instance and the Algorithm 1 outcome of the choice (one
        of :data:`ROUTING_OUTCOMES`) as the pre-submit state shows it.

        Unhealthy (degraded/down) and still-provisioning instances are
        skipped, so a tenant replicated with ``A >= 2`` transparently fails
        over to a surviving replica.  When every hosting instance is
        unavailable *because of failures or loading* the distinguishable
        :class:`~repro.errors.NoHealthyInstanceError` is raised — the
        run-time layer parks such queries until recovery instead of
        treating them as routing bugs.
        """
        pinned = self._pinned.get(tenant_id)
        if pinned is not None and pinned.is_ready:
            return pinned, "pinned"
        hosting = self._hosting.get(tenant_id)
        if hosting is None:
            hosting = [i for i in self._instances if i.hosts(tenant_id)]
            self._hosting[tenant_id] = hosting
        candidates = [i for i in hosting if i.is_ready]
        if not candidates:
            unavailable = [i for i in hosting if i.state is not InstanceState.RETIRED]
            if unavailable:
                states = ", ".join(
                    f"{i.name}={i.state.value}" for i in unavailable
                )
                raise NoHealthyInstanceError(
                    f"no healthy instance hosts tenant {tenant_id} ({states})"
                )
            raise RoutingError(f"no ready instance hosts tenant {tenant_id}")
        return self._choose(tenant_id, candidates)

    @abc.abstractmethod
    def _choose(self, tenant_id: int, candidates: list[MPPDBInstance]) -> Route:
        """Policy-specific choice among ready, hosting instances, with its outcome."""

    def _named(self, tenant_id: int, instance: MPPDBInstance) -> Route:
        """An ablation router's pick with the Algorithm 1 outcome it amounts to."""
        if instance.engine.runs_tenant(tenant_id):
            return instance, "tenant-affinity"
        if instance.is_free:
            return instance, "tuning-free" if instance is self.tuning_instance else "free"
        return instance, "overflow"


class TDDRouter(QueryRouter):
    """Algorithm 1: route the *tenant*, prefer MPPDB_0, overflow to MPPDB_0."""

    def _choose(self, tenant_id: int, candidates: list[MPPDBInstance]) -> Route:
        # Line 1-2: the tenant already has queries running somewhere.
        for instance in candidates:
            if instance.engine.runs_tenant(tenant_id):
                return instance, "tenant-affinity"
        # Line 4-5: MPPDB_0 if free (it is first whenever it is a candidate).
        first = candidates[0]
        if first is self._instances[0] and first.is_free:
            return first, "tuning-free"
        # Line 7-8: any free MPPDB.
        for instance in candidates:
            if instance.is_free:
                return instance, "free"
        # Line 10: all busy -> MPPDB_0 (else the first surviving replica).
        return first, "overflow"


class RandomFreeRouter(QueryRouter):
    """Ablation: pick a uniformly random free instance (no tenant affinity)."""

    def __init__(self, instances: Sequence[MPPDBInstance], seed: int = 0) -> None:
        super().__init__(instances)
        # Drawn via the library's seed-derivation scheme so replays are
        # deterministic and independent of other components' draw counts.
        self._rng = RngFactory(seed).stream("routing", "random-free")

    def _choose(self, tenant_id: int, candidates: list[MPPDBInstance]) -> Route:
        free = [i for i in candidates if i.is_free]
        if free:
            return self._named(tenant_id, free[int(self._rng.integers(0, len(free)))])
        return self._named(tenant_id, candidates[int(self._rng.integers(0, len(candidates)))])


class RoundRobinRouter(QueryRouter):
    """Ablation: per-query round robin, oblivious to busy state."""

    def __init__(self, instances: Sequence[MPPDBInstance]) -> None:
        super().__init__(instances)
        self._next = 0

    def _choose(self, tenant_id: int, candidates: list[MPPDBInstance]) -> Route:
        chosen = candidates[self._next % len(candidates)]
        self._next += 1
        return self._named(tenant_id, chosen)


class AlwaysTuningRouter(QueryRouter):
    """Ablation: everything goes to MPPDB_0 (no replication benefit)."""

    def _choose(self, tenant_id: int, candidates: list[MPPDBInstance]) -> Route:
        return self._named(tenant_id, candidates[0])


ROUTER_POLICIES = {
    "tdd": TDDRouter,
    "random-free": RandomFreeRouter,
    "round-robin": RoundRobinRouter,
    "always-tuning": AlwaysTuningRouter,
}

__all__.append("ROUTER_POLICIES")
