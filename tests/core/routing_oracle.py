"""Reference routing-outcome classifier, kept as the test oracle.

This is the function :meth:`repro.core.routing.QueryRouter.route` replaced
when routers began naming the outcome of their own pick: given a router,
a tenant and the instance it was routed to, it re-reads the pinned map
and the instance's busy/active state and names the Algorithm 1 branch the
decision amounts to.  The routing property tests hold every router's own
outcome to it.
"""

from __future__ import annotations

from repro.core.routing import QueryRouter
from repro.mppdb.instance import MPPDBInstance


def classify_decision(
    router: QueryRouter, tenant_id: int, instance: MPPDBInstance
) -> str:
    """Name the Algorithm 1 branch that produced a routing decision.

    Must be called *before* the query is submitted (the checks read the
    pre-submit busy/active state the router itself saw); one of
    :data:`~repro.core.routing.ROUTING_OUTCOMES`, ``overflow`` being the
    all-busy fall-through onto ``MPPDB_0``.
    """
    if router.pinned_tenants.get(tenant_id) is instance:
        return "pinned"
    if tenant_id in instance.active_tenants:
        return "tenant-affinity"
    if instance.is_free:
        return "tuning-free" if instance is router.tuning_instance else "free"
    return "overflow"
