"""The health manager: node failure -> degrade -> replace -> recover.

"Node failure is handled directly by the MPPDB... Thrifty will replace a
failed node by starting a new node upon receiving node failure notification"
(Chapter 4.4).  The :class:`HealthManager` is that notification path: it
subscribes to a :class:`~repro.cluster.failures.FailureInjector`, marks the
owning :class:`~repro.mppdb.instance.MPPDBInstance` degraded (or down),
aborts its in-flight queries — MPP queries straddle every node, so losing
one kills whatever is running — and drives a replacement node through the
:class:`~repro.mppdb.provisioning.Provisioner`, paying the
:class:`~repro.mppdb.loading.LoadTimeModel` reload delay for the failed
node's data shard.  When the replacement finishes loading, the instance
flips back to READY and recovery handlers fire (the run-time layer uses
them to resubmit queries parked for want of a healthy replica).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..errors import CapacityError, MPPDBError
from ..obs.observer import NULL_OBSERVER, Observer
from ..obs.tracing import STATUS_INFLIGHT, EventSpan
from ..simulation.engine import Simulator
from .failures import FailureInjector, NodeFailure
from .pool import MachinePool

if TYPE_CHECKING:  # pragma: no cover - typing only (mppdb imports cluster
    # submodules at runtime; importing it back here would close a cycle)
    from ..mppdb.instance import MPPDBInstance
    from ..mppdb.provisioning import Provisioner

__all__ = ["HealthManager"]

RecoveryHandler = Callable[["MPPDBInstance", float], None]


class HealthManager:
    """Watches node failures and restores the instances they hit.

    Parameters
    ----------
    pool:
        The machine pool that owns the (failing) nodes.
    provisioner:
        The provisioning layer used to issue replacement nodes.
    simulator:
        The simulation engine (for the clock and scheduled reloads).
    observer:
        Optional observability plane; fault metrics and ``replace`` spans
        are emitted through it.
    """

    def __init__(
        self,
        pool: MachinePool,
        provisioner: Provisioner,
        simulator: Simulator,
        observer: Optional[Observer] = None,
    ) -> None:
        self._pool = pool
        self._provisioner = provisioner
        self._sim = simulator
        self._observer = observer if observer is not None else NULL_OBSERVER
        self._recovery_handlers: list[RecoveryHandler] = []
        #: When each currently-impaired instance left READY, by name.
        self._degraded_since: dict[str, float] = {}
        #: Open ``replace`` spans per instance name (ended on recovery).
        self._replace_spans: dict[str, EventSpan] = {}
        self.node_failures_handled = 0
        self.replacements_started = 0
        self.replacements_completed = 0

    @property
    def degraded_instances(self) -> list[str]:
        """Names of instances currently impaired by node failures (sorted)."""
        return sorted(self._degraded_since)

    def watch(self, injector: FailureInjector) -> None:
        """Subscribe to an injector's failure notifications."""
        injector.on_failure(self.handle_failure)

    def on_recover(self, handler: RecoveryHandler) -> None:
        """Register a callback fired when an instance returns to READY."""
        self._recovery_handlers.append(handler)

    def handle_failure(self, failure: NodeFailure) -> None:
        """React to one node failure: degrade, abort, replace.

        Failures on unowned nodes (released before the scheduled failure
        fired) and on retired instances are ignored; failures during
        PROVISIONING replace the node silently — :meth:`~repro.mppdb.
        instance.MPPDBInstance.mark_ready` lands the instance DEGRADED if
        the replacement is still loading when provisioning completes.
        """
        from ..mppdb.instance import InstanceState

        if failure.owner is None:
            return
        try:
            instance = self._provisioner.get(failure.owner)
        except MPPDBError:
            return  # owner is not an MPPDB instance (foreign allocation)
        if instance.state is InstanceState.RETIRED:
            return
        if instance.node_ids and failure.node_id not in instance.node_ids:
            return
        self.node_failures_handled += 1
        observer = self._observer
        now = self._sim.now
        if observer.enabled:
            observer.node_failures.labels(instance=instance.name).inc(now)

        if instance.state is InstanceState.PROVISIONING:
            instance.record_node_failure(failure.node_id)
            self._start_replacement(instance, failure.node_id)
            return

        if instance.name not in self._degraded_since:
            self._degraded_since[instance.name] = now
        instance.record_node_failure(failure.node_id)
        instance.abort_running()
        if observer.enabled and instance.name not in self._replace_spans:
            self._replace_spans[instance.name] = observer.tracer.start_span(
                "replace",
                now,
                kind="fault",
                instance=instance.name,
                node_id=failure.node_id,
            )
        self._start_replacement(instance, failure.node_id)

    def _start_replacement(self, instance: MPPDBInstance, node_id: int) -> None:
        """Issue a replacement; no capacity takes the instance DOWN."""
        observer = self._observer
        now = self._sim.now
        try:
            delay = self._provisioner.replace_node(
                instance, node_id, on_ready=self._on_replaced
            )
        except CapacityError:
            instance.mark_down()
            span = self._replace_spans.pop(instance.name, None)
            if span is not None:
                span.finish(now, status="no-capacity")
            return
        self.replacements_started += 1
        if observer.enabled:
            observer.replacement_time.labels(instance=instance.name).observe(now, delay)

    def _on_replaced(self, instance: MPPDBInstance, time: float) -> None:
        """A replacement finished loading; close the episode if healthy."""
        self.replacements_completed += 1
        if not instance.is_ready:
            return  # other nodes still impaired; episode stays open
        span = self._replace_spans.pop(instance.name, None)
        if span is not None:
            span.add_event(time, "recovered")
            span.finish(time, status="replaced")
        since = self._degraded_since.pop(instance.name, None)
        if since is not None and self._observer.enabled:
            self._observer.instance_degraded_seconds.labels(
                instance=instance.name
            ).inc(time, time - since)
        for handler in self._recovery_handlers:
            handler(instance, time)

    def finalize(self, time: float) -> None:
        """Account still-open degradation episodes at the replay horizon."""
        observer = self._observer
        for name, since in sorted(self._degraded_since.items()):
            if observer.enabled:
                observer.instance_degraded_seconds.labels(instance=name).inc(
                    time, max(0.0, time - since)
                )
        self._degraded_since.clear()
        for name in sorted(self._replace_spans):
            self._replace_spans.pop(name).finish(time, status=STATUS_INFLIGHT)
