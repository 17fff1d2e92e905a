"""Reference up-front replay schedule, kept as the test oracle.

This is the loop :meth:`repro.core.runtime.GroupRuntime.schedule` replaced:
before the event loop starts, push one ``query-submit`` event (and one
closure) for every logged record before the horizon, tenant by tenant in
id order and record by record in log order, then the first monitor tick.
It holds the whole log in the heap, so it is slow and fat on a long
replay, but the order it gives every tie is the reference; the cursor
tests hold the streaming schedule to it exactly.
"""

from __future__ import annotations

from repro.core.runtime import GroupRuntime
from repro.errors import DeploymentError
from repro.workload.logs import QueryRecord, TenantLog


def schedule_up_front(runtime: GroupRuntime, until: float) -> int:
    """Schedule every submission before ``until`` now; return how many.

    ``runtime``'s logs must be :class:`~repro.workload.logs.TenantLog`\\ s.
    """
    if runtime._scheduled:
        raise DeploymentError("schedule() called twice")
    runtime._scheduled = True
    placed = runtime._deployed.deployment.placement.tenant_ids
    count = 0
    for tenant_id, log in sorted(runtime._logs.items()):
        if tenant_id not in placed:
            continue
        assert isinstance(log, TenantLog)
        for record in log.records:
            if record.submit_time_s >= until:
                continue

            def _cb(time: float, _tenant: int = tenant_id, _record: QueryRecord = record) -> None:
                runtime._submit(_tenant, _record, time)

            runtime._sim.schedule(record.submit_time_s, _cb, label="query-submit")
            count += 1
    runtime._submitted = count
    runtime._schedule_ticks(until)
    return count
