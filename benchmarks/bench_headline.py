"""The headline claim (abstract / Chapter 1).

"In a MPPDBaaS with 5000 tenants, where each tenant requests 2 to 32 nodes
MPPDB to query against 200GB to 3.2TB of data, Thrifty can serve all the
tenants with a 99.9% performance SLA guarantee and a high availability
replication factor of 3, using only 18.7% of the nodes requested by the
tenants."

This bench runs the full pipeline — log generation, composition, grouping,
TDD cluster design — at the bench profile's scale and default parameters
(R = 3, P = 99.9 %, theta = 0.8, plateau epoch size) and reports the
fraction of requested nodes actually used.
"""

from __future__ import annotations

import statistics
import time

import pytest
from conftest import run_once

from repro.analysis.report import format_table
from repro.analysis.sweeps import build_workload
from repro.config import EvaluationConfig, LogGenerationConfig
from repro.core.advisor import DeploymentAdvisor
from repro.core.service import ThriftyService
from repro.obs import MemorySink, Observer
from repro.units import HOUR
from repro.workload.activity import ActivityMatrix, active_tenant_ratio
from repro.workload.composer import MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator


def test_headline_consolidation(benchmark, scale):
    config = scale.config()

    def experiment():
        workload = build_workload(config, scale.sessions_per_size)
        advice = DeploymentAdvisor(config).plan_from_workload(workload)
        matrix = ActivityMatrix.from_workload(workload, config.epoch_size_s)
        return workload, advice, matrix

    workload, advice, matrix = run_once(benchmark, experiment)
    plan = advice.plan
    used_fraction = plan.total_nodes_used / plan.total_nodes_requested
    print()
    print(
        format_table(
            ["metric", "measured", "paper"],
            [
                ["tenants", len(workload), 5000],
                ["node menu", "2..32", "2..32"],
                ["replication factor R", config.replication_factor, 3],
                ["SLA guarantee P", f"{config.sla_percent}%", "99.9%"],
                ["nodes requested", plan.total_nodes_requested, "-"],
                ["nodes used", plan.total_nodes_used, "-"],
                ["fraction of requested nodes used", f"{used_fraction:.1%}", "18.7%"],
                ["consolidation effectiveness", f"{plan.consolidation_effectiveness:.1%}", "81.3%"],
                [
                    "active tenant ratio (uncond.)",
                    f"{active_tenant_ratio(matrix, conditional=False):.1%}",
                    "~11.9% (coarse)",
                ],
                ["tenant groups", len(plan), "-"],
            ],
            title="Headline: MPPDBaaS consolidation at default parameters",
        )
    )
    # Who wins and by roughly what factor: Thrifty serves everyone with a
    # small fraction of the requested nodes (paper: 18.7 %; bench scale
    # lands in the same region).
    assert used_fraction < 0.35
    # Every group satisfies the fuzzy capacity (validated by the advisor),
    # and replication is 3x throughout.
    for group in plan:
        assert group.design.num_instances == 3


_OBS_REPLAY_HORIZON = 12 * HOUR
_OBS_REPS = 3
_GUARD_BATCH = 200_000
_GUARD_BATCHES = 5


def _replay_seconds(config, workload, observer):
    """Wall-clock seconds for one instrumented replay (deploy excluded)."""
    service = ThriftyService(config, observer=observer)
    service.deploy(workload)
    t0 = time.perf_counter()
    service.replay(until=_OBS_REPLAY_HORIZON)
    return time.perf_counter() - t0


class _GuardCountingSink(MemorySink):
    """A ``MemorySink`` that tallies every read of ``enabled``.

    Every instrumentation guard reads ``enabled``, so the tally counts the
    guards a null-sink replay evaluates plus the ones only an enabled
    replay reaches (inside the instruments and the tracer): an over-count,
    the safe direction for the gate.
    """

    def __init__(self) -> None:
        super().__init__()
        self.guard_reads = 0

    @property
    def enabled(self) -> bool:
        self.guard_reads += 1
        return True


def _guard_seconds():
    """Per-evaluation cost of the ``observer.enabled`` site guard, right now.

    Times ``_GUARD_BATCHES`` batches of ``_GUARD_BATCH`` evaluations and
    returns the median batch's per-evaluation cost, so one descheduled
    batch does not set it.  Measured with the loop overhead *included*, so
    this overestimates what an inlined guard costs inside the replay.
    """
    from repro.obs import NULL_OBSERVER

    costs = []
    for _ in range(_GUARD_BATCHES):
        hits = 0
        t0 = time.perf_counter()
        for _ in range(_GUARD_BATCH):
            if NULL_OBSERVER.enabled:
                hits += 1
        costs.append((time.perf_counter() - t0) / _GUARD_BATCH)
        assert hits == 0
    return statistics.median(costs)


def test_headline_obs_overhead(benchmark, obs_mode):
    """--obs mode: the null-sink instrumentation must be (near) free.

    Replays an identical small scenario with the default null observer and
    with a fully enabled MemorySink observer, then bounds the null-sink
    cost *quantitatively*: (guard evaluations the scenario performs) x
    (measured per-guard cost) must stay under 5 % of the replay's wall
    time.  The guard evaluations are counted directly, by a sink that
    tallies every read of ``enabled`` in an untimed enabled replay (see
    ``_GuardCountingSink``).  Emissions are no proxy for them: counters
    and histograms aggregate in place and reach the sink only as
    snapshots.  The per-guard cost is timed right after each null replay,
    so each repetition's fraction divides a cost and a replay time taken
    on the same host state; the gate reads the median of those fractions.
    The enabled-observer wall overhead is printed as a report, not gated.
    """
    if not obs_mode:
        pytest.skip("observability overhead mode: pass --obs or set REPRO_BENCH_OBS=1")

    config = EvaluationConfig(
        num_tenants=40, logs=LogGenerationConfig(horizon_days=3, holiday_weekdays=0), seed=5
    )
    library = SessionLogGenerator(config, sessions_per_size=3).generate()
    workload = MultiTenantLogComposer(config, library).compose()

    def experiment():
        null_times, enabled_times, per_guard = [], [], []
        _replay_seconds(config, workload, observer=None)  # warm-up, untimed
        counting = _GuardCountingSink()
        _replay_seconds(config, workload, observer=Observer(counting))  # untimed
        for _ in range(_OBS_REPS):
            null_times.append(_replay_seconds(config, workload, observer=None))
            per_guard.append(_guard_seconds())
            obs = Observer(MemorySink())
            enabled_times.append(_replay_seconds(config, workload, observer=obs))
            sink = obs.memory_sink()
            emissions = len(sink.metrics) + len(sink.spans) + len(sink.events)
        return null_times, enabled_times, counting.guard_reads, emissions, per_guard

    null_times, enabled_times, guards, emissions, per_guard = run_once(benchmark, experiment)
    median = statistics.median
    t_null, t_enabled = median(null_times), median(enabled_times)
    fractions = [guards * cost / t for cost, t in zip(per_guard, null_times)]
    guard_fraction = median(fractions)
    print()
    print(
        format_table(
            ["variant", "median_s", "reps_s"],
            [
                ["null sink (default)", f"{t_null:.3f}", [f"{t:.3f}" for t in null_times]],
                ["MemorySink enabled", f"{t_enabled:.3f}", [f"{t:.3f}" for t in enabled_times]],
            ],
            title="Observability overhead (identical deterministic replay)",
        )
    )
    print(
        f"guard: {guards} evaluations x "
        f"{'/'.join(f'{cost * 1e9:.0f}' for cost in per_guard)} ns/site = "
        f"{'/'.join(f'{f:.2%}' for f in fractions)} of each null replay, "
        f"median {guard_fraction:.2%} "
        f"({emissions} emissions when enabled); "
        f"enabled-observer wall overhead: {t_enabled / t_null - 1.0:+.1%}"
    )
    # The 5% gate: the entire null-sink instrumentation budget — every
    # guard the replay evaluates, at its measured cost — is far below 5%
    # of the replay, and the disabled run never beats the enabled run's
    # wall time by more than noise allows.
    assert guard_fraction < 0.05
    assert t_null <= t_enabled * 1.10
