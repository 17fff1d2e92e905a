"""Instance lifecycle: allocate nodes, start, bulk load, retire.

The provisioner is the piece of the Deployment Master that actually touches
hardware: it draws nodes from the :class:`~repro.cluster.pool.MachinePool`,
schedules the startup + bulk-load delay from the
:class:`~repro.mppdb.loading.LoadTimeModel` on the simulator, and flips the
instance to READY when the delay elapses.  Elastic scaling (Chapter 5.1)
uses exactly the same path — which is why the ~5000 s "load only the
over-active tenant" timing of Figure 7.7c falls out of the model for free.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional

from ..cluster.node import NodeState
from ..cluster.pool import MachinePool
from ..errors import MPPDBError
from ..simulation.engine import Simulator
from .catalog import TenantData
from .instance import InstanceState, MPPDBInstance
from .loading import LoadTimeModel

__all__ = ["Provisioner"]


class Provisioner:
    """Creates and retires MPPDB instances on a machine pool."""

    def __init__(
        self,
        simulator: Simulator,
        pool: Optional[MachinePool] = None,
        load_model: Optional[LoadTimeModel] = None,
    ) -> None:
        self._sim = simulator
        self._pool = pool
        self._load_model = load_model if load_model is not None else LoadTimeModel()
        self._counter = itertools.count()
        self._replace_tokens = itertools.count()
        self._instances: dict[str, MPPDBInstance] = {}

    @property
    def load_model(self) -> LoadTimeModel:
        """The startup/bulk-load time model in use."""
        return self._load_model

    @property
    def instances(self) -> list[MPPDBInstance]:
        """All instances ever provisioned (copy, in creation order)."""
        return list(self._instances.values())

    def live_instances(self) -> list[MPPDBInstance]:
        """Instances that are not retired."""
        return [i for i in self._instances.values() if i.state != InstanceState.RETIRED]

    def get(self, name: str) -> MPPDBInstance:
        """Look up an instance by name."""
        try:
            return self._instances[name]
        except KeyError:
            raise MPPDBError(f"unknown instance {name!r}") from None

    def provision(
        self,
        parallelism: int,
        tenants: Iterable[TenantData],
        name: Optional[str] = None,
        instant: bool = False,
        on_ready: Optional[Callable[[MPPDBInstance, float], None]] = None,
        node_class: str = "standard",
    ) -> MPPDBInstance:
        """Create an instance hosting ``tenants``.

        The instance becomes READY after the model's startup + bulk-load
        time; pass ``instant=True`` to skip the delay (useful when a
        deployment is assumed pre-provisioned, e.g. at the start of a
        runtime replay — "the deployment is supposed to be static for
        days", Chapter 3).  ``on_ready`` is invoked with the instance and
        the time it became ready — elastic scaling uses it to wire the
        query router once the new MPPDB is loaded.
        """
        tenant_list = list(tenants)
        if name is None:
            name = f"mppdb{next(self._counter)}"
        if name in self._instances:
            raise MPPDBError(f"instance name {name!r} already in use")
        node_ids: Optional[list[int]] = None
        speed_factor = 1.0
        if self._pool is not None:
            nodes = self._pool.allocate(parallelism, owner=name, node_class=node_class)
            node_ids = [n.node_id for n in nodes]
            speed_factor = self._pool.class_spec(node_class).relative_speed
        instance = MPPDBInstance(
            name, parallelism, self._sim, node_ids=node_ids, speed_factor=speed_factor
        )
        for tenant in tenant_list:
            instance.deploy_tenant(tenant)
        self._instances[name] = instance

        def _started(time: float) -> None:
            if self._pool is not None:
                for node_id in instance.node_ids:
                    node = self._pool.node(node_id)
                    if node.state is NodeState.STARTING:
                        node.mark_running()
            instance.mark_ready()
            if on_ready is not None:
                on_ready(instance, time)

        if instant:
            if self._pool is not None:
                for node_id in instance.node_ids:
                    self._pool.node(node_id).mark_running()
            instance.mark_ready()
            if on_ready is not None:
                on_ready(instance, self._sim.now)
        else:
            delay = self.provision_time_s(parallelism, tenant_list)
            self._sim.schedule_after(delay, _started, label=f"provision:{name}")
        return instance

    def provision_time_s(self, parallelism: int, tenants: Iterable[TenantData]) -> float:
        """Predicted time-to-ready for a prospective instance."""
        total_gb = sum(t.data_gb for t in tenants)
        return self._load_model.provision_seconds(parallelism, total_gb)

    def replace_node(
        self,
        instance: MPPDBInstance,
        failed_node_id: int,
        on_ready: Optional[Callable[[MPPDBInstance, float], None]] = None,
    ) -> float:
        """Replace a failed node of ``instance``; returns the reload delay.

        "Thrifty will replace a failed node by starting a new node upon
        receiving node failure notification" (Chapter 4.4).  The replacement
        is drawn from the pool (renting when elastic), then pays startup plus
        the bulk-load time of the failed node's data *shard* — one node's
        worth of the instance's catalog.  ``on_ready`` fires when the
        replacement finishes loading; completions are token-guarded so a
        replacement that itself fails mid-load cannot be marked healthy by
        its stale completion event.

        Raises :class:`~repro.errors.CapacityError` when the pool cannot
        supply a replacement (inelastic pool, nothing available).
        """
        if self._pool is None:
            raise MPPDBError("replace_node requires a machine pool")
        if instance.node_ids and failed_node_id not in instance.node_ids:
            raise MPPDBError(
                f"node {failed_node_id} does not back instance {instance.name!r}"
            )
        failed = self._pool.node(failed_node_id)
        replacement = self._pool.replace_failed(failed, owner=instance.name)
        token = next(self._replace_tokens)
        instance.begin_node_replacement(failed_node_id, replacement.node_id, token)
        shard_gb = instance.catalog.total_data_gb / instance.parallelism
        delay = self._load_model.provision_seconds(1, shard_gb)

        def _replaced(time: float) -> None:
            if not instance.complete_node_replacement(replacement.node_id, token):
                return
            if replacement.state is NodeState.STARTING:
                replacement.mark_running()
            if on_ready is not None:
                on_ready(instance, time)

        self._sim.schedule_after(delay, _replaced, label=f"replace:{instance.name}")
        return delay

    def retire(self, instance: MPPDBInstance) -> None:
        """Retire an instance and hibernate its nodes."""
        instance.retire()
        if self._pool is not None:
            self._pool.release_owner(instance.name)
