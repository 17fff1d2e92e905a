"""Reference SLA accounting, kept as the test oracle.

Before the ledger, the runtime appended one :class:`SLARecord` per
completion and :class:`~repro.core.sla.SLAReport` folded over that list.
:func:`record_completions` rebuilds that list beside a replay, and the
folds below are the report's old ones, so the ledger's rows and figures
can be held to them exactly.
"""

from __future__ import annotations

from repro.core.runtime import GroupRuntime
from repro.core.sla import SLARecord


def record_completions(patch) -> dict[str, list[SLARecord]]:
    """Append one row per completion, per group, as the runtime once did.

    Patches ``GroupRuntime._settle`` on ``patch`` (a ``pytest.MonkeyPatch``).
    """
    rows: dict[str, list[SLARecord]] = {}
    settle = GroupRuntime._settle

    def settle_and_record(runtime, state, instance_name, finish):
        group = runtime._deployed.group_name
        rows.setdefault(group, []).append(
            SLARecord(
                tenant_id=state.tenant,
                group_name=group,
                instance_name=instance_name,
                template=state.record.template,
                submit_time_s=state.record.submit_time_s,
                baseline_latency_s=state.record.latency_s,
                observed_latency_s=finish - state.first_submit,
            )
        )
        settle(runtime, state, instance_name, finish)

    patch.setattr(GroupRuntime, "_settle", settle_and_record)
    return rows


def fraction_met(records: list[SLARecord]) -> float:
    if not records:
        return 1.0
    return sum(1 for r in records if r.met) / len(records)


def worst_normalized(records: list[SLARecord]) -> float:
    if not records:
        return 1.0
    return max(r.normalized for r in records)


def mean_normalized(records: list[SLARecord]) -> float:
    if not records:
        return 1.0
    return sum(r.normalized for r in records) / len(records)
