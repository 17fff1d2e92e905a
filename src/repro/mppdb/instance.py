"""An MPPDB instance: a group of nodes running one shared database process.

TDD's cluster design creates one MPPDB per node group (Chapter 4.1); each
instance hosts every tenant of its tenant group (Chapter 4.2) and processes
whatever queries the router sends it, with fair-share interference when
several run concurrently (:mod:`~repro.mppdb.execution`).
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from ..errors import InstanceNotReadyError, MPPDBError, TenantNotHostedError
from ..simulation.engine import Simulator
from .catalog import Catalog, TenantData
from .execution import ExecutionEngine, QueryExecution

__all__ = ["InstanceState", "MPPDBInstance"]


class InstanceState(enum.Enum):
    """Lifecycle of an instance.

    ``DEGRADED`` and ``DOWN`` are the fault-tolerance states (Chapter 4.4):
    a degraded instance lost at least one node and stops accepting queries
    until the replacement has loaded; a down instance has no healthy worker
    left (or no replacement could be allocated).  Both recover to ``READY``
    once every failed node has been replaced and re-loaded.
    """

    PROVISIONING = "provisioning"
    READY = "ready"
    DEGRADED = "degraded"
    DOWN = "down"
    RETIRED = "retired"


class MPPDBInstance:
    """One simulated MPPDB.

    Parameters
    ----------
    name:
        Unique instance name, e.g. ``"tg3/mppdb1"``.
    parallelism:
        Number of nodes (degree of parallelism) of this instance.
    simulator:
        The simulation engine queries run on.
    node_ids:
        Optional ids of the machine nodes backing the instance (provided by
        the provisioning layer when a :class:`~repro.cluster.pool.MachinePool`
        is in play; pure-algorithm uses may omit them).
    """

    def __init__(
        self,
        name: str,
        parallelism: int,
        simulator: Simulator,
        node_ids: Optional[Sequence[int]] = None,
        speed_factor: float = 1.0,
    ) -> None:
        if parallelism < 1:
            raise MPPDBError(f"parallelism must be >= 1, got {parallelism!r}")
        if node_ids is not None and len(node_ids) != parallelism:
            raise MPPDBError(
                f"instance {name!r}: {len(node_ids)} nodes supplied for parallelism {parallelism}"
            )
        if speed_factor <= 0:
            raise MPPDBError(f"speed_factor must be positive, got {speed_factor!r}")
        self.name = name
        self.parallelism = int(parallelism)
        #: Hardware-class speedup relative to the baseline node (future-work
        #: heterogeneous clusters): callers divide dedicated work by this.
        self.speed_factor = float(speed_factor)
        self.node_ids: tuple[int, ...] = tuple(node_ids) if node_ids is not None else ()
        self.catalog = Catalog()
        self.engine = ExecutionEngine(simulator)
        self._state = InstanceState.PROVISIONING
        self._ready_time: Optional[float] = None
        self._sim = simulator
        # Fault-tolerance bookkeeping: nodes currently failed (awaiting a
        # replacement) and replacements still loading, keyed by the token
        # the provisioning layer issued for that replacement.
        self._failed_nodes: set[int] = set()
        self._recovering_nodes: dict[int, int] = {}

    @property
    def state(self) -> InstanceState:
        """Current lifecycle state."""
        return self._state

    @property
    def ready_time(self) -> Optional[float]:
        """Simulated time the instance became ready, if it has."""
        return self._ready_time

    @property
    def is_ready(self) -> bool:
        """Whether the instance accepts queries."""
        return self._state is InstanceState.READY

    @property
    def is_free(self) -> bool:
        """Algorithm 1's notion of *free*: ready and serving no query."""
        return self._state is InstanceState.READY and not self.engine.busy

    @property
    def active_tenants(self) -> set[int]:
        """Tenants with queries currently running on this instance."""
        return self.engine.active_tenants

    @property
    def failed_nodes(self) -> set[int]:
        """Nodes that failed and still await a replacement (copy)."""
        return set(self._failed_nodes)

    @property
    def recovering_nodes(self) -> set[int]:
        """Replacement nodes still loading their data shard (copy)."""
        return set(self._recovering_nodes)

    @property
    def impaired_node_count(self) -> int:
        """Nodes currently not serving: failed plus still-loading replacements."""
        return len(self._failed_nodes) + len(self._recovering_nodes)

    def mark_ready(self) -> None:
        """Transition to READY (called by the provisioning layer).

        An instance that lost nodes *while provisioning* comes up DEGRADED
        instead and recovers through the node-replacement path.
        """
        if self._state != InstanceState.PROVISIONING:
            raise MPPDBError(f"instance {self.name!r} cannot become ready from {self._state.value}")
        if self.impaired_node_count:
            self._state = InstanceState.DEGRADED
        else:
            self._state = InstanceState.READY
        self._ready_time = self._sim.now

    def retire(self) -> None:
        """Stop accepting queries; running ones are allowed to drain."""
        if self._state == InstanceState.RETIRED:
            raise MPPDBError(f"instance {self.name!r} is already retired")
        self._state = InstanceState.RETIRED

    def record_node_failure(self, node_id: int) -> None:
        """A node backing this instance failed (Chapter 4.4 notification).

        A READY instance degrades; when *every* node is impaired the
        instance is DOWN.  A failed replacement-in-loading is moved from
        the recovering set back to the failed set so a fresh replacement
        can be issued.  DOWN is absorbing here: losing yet another node
        cannot *promote* a DOWN instance to DEGRADED — only
        :meth:`complete_node_replacement` recovers it.
        """
        if self.node_ids and node_id not in self.node_ids:
            raise MPPDBError(f"node {node_id} does not back instance {self.name!r}")
        self._recovering_nodes.pop(node_id, None)
        self._failed_nodes.add(node_id)
        if self._state in (InstanceState.READY, InstanceState.DEGRADED, InstanceState.DOWN):
            if self.impaired_node_count >= self.parallelism:
                self._state = InstanceState.DOWN
            elif self._state is not InstanceState.DOWN:
                self._state = InstanceState.DEGRADED

    def mark_down(self) -> None:
        """Take the instance out of service (e.g. no replacement capacity)."""
        if self._state in (InstanceState.RETIRED,):
            raise MPPDBError(f"instance {self.name!r} is retired")
        self._state = InstanceState.DOWN

    def begin_node_replacement(self, failed_node_id: int, new_node_id: int, token: int) -> None:
        """Swap a failed node for a freshly allocated one that starts loading.

        The newcomer joins ``node_ids`` immediately but counts as impaired
        until :meth:`complete_node_replacement` is called with the same
        ``token`` (tokens guard against stale completion events when a
        replacement itself fails mid-load).
        """
        if failed_node_id not in self._failed_nodes:
            raise MPPDBError(
                f"node {failed_node_id} of instance {self.name!r} is not marked failed"
            )
        self._failed_nodes.discard(failed_node_id)
        self._recovering_nodes[new_node_id] = token
        if self.node_ids:
            self.node_ids = tuple(
                new_node_id if node_id == failed_node_id else node_id
                for node_id in self.node_ids
            )

    def complete_node_replacement(self, new_node_id: int, token: int) -> bool:
        """A replacement finished loading; returns False for stale events.

        When the last impaired node is replaced, a DEGRADED/DOWN instance
        flips back to READY.
        """
        if self._recovering_nodes.get(new_node_id) != token:
            return False
        del self._recovering_nodes[new_node_id]
        if not self.impaired_node_count and self._state in (
            InstanceState.DEGRADED,
            InstanceState.DOWN,
        ):
            self._state = InstanceState.READY
        return True

    def abort_running(self) -> list[QueryExecution]:
        """Abort all in-flight queries (node failure kills MPP executions)."""
        return self.engine.abort_all()

    def deploy_tenant(self, tenant: TenantData) -> None:
        """Add a tenant's data to the catalog (placement step)."""
        if self._state == InstanceState.RETIRED:
            raise MPPDBError(f"instance {self.name!r} is retired")
        self.catalog.add(tenant)

    def hosts(self, tenant_id: int) -> bool:
        """Whether the tenant's data is deployed here."""
        return tenant_id in self.catalog

    def submit_query(self, tenant_id: int, work_s: float, label: str = "") -> QueryExecution:
        """Run a query for a hosted tenant.

        ``work_s`` is the dedicated (isolation) latency of the query on
        *this* instance's parallelism — callers compute it from the query's
        scale-out curve.  Raises if the instance is not ready or the tenant
        is not hosted.
        """
        if self._state is not InstanceState.READY:
            raise InstanceNotReadyError(
                f"instance {self.name!r} is {self._state.value}, cannot accept queries"
            )
        if tenant_id not in self.catalog:
            raise TenantNotHostedError(
                f"tenant {tenant_id} has no data on instance {self.name!r}"
            )
        return self.engine.submit(tenant_id, work_s, label=label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MPPDBInstance(name={self.name!r}, nodes={self.parallelism}, "
            f"state={self._state.value}, tenants={len(self.catalog)})"
        )
