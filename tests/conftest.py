"""Shared fixtures.

The expensive artifacts (session library, composed workload) are generated
once per test session at a tiny scale; tests that need different parameters
build their own via the factories here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import EvaluationConfig, LogGenerationConfig
from repro.packing.livbp import LIVBPwFCProblem
from repro.simulation.engine import Simulator
from repro.workload.activity import ActivityItem, ActivityMatrix
from repro.workload.composer import ComposedWorkload, MultiTenantLogComposer
from repro.workload.generator import SessionLibrary, SessionLogGenerator


def tiny_config(**overrides) -> EvaluationConfig:
    """A fast EvaluationConfig for tests (7-day logs, few tenants)."""
    defaults = dict(
        num_tenants=40,
        logs=LogGenerationConfig(horizon_days=7, holiday_weekdays=0),
        node_sizes=(2, 4, 8),
        seed=7,
    )
    defaults.update(overrides)
    return EvaluationConfig(**defaults)


def assert_spans_emitted_once(observer, time: float) -> None:
    """Every span the observer's tracer opened reached its sink exactly once.

    The sink's span ids are exactly ``1..N`` and the next id the tracer
    issues is ``N + 1``: no span is still open, lost, or emitted twice.
    """
    ids = sorted(span.span_id for span in observer.memory_sink().spans)
    assert ids == list(range(1, len(ids) + 1))
    assert observer.tracer.start_span("probe", time).span_id == len(ids) + 1


def assert_counters_match_books(observer, report) -> None:
    """Each group's counters and latency histogram equal its runtime report.

    ``report`` is a finished ``ServiceReport``; the counters were last
    published at its horizon flush.
    """
    for group, r in report.group_reports.items():
        books = {
            observer.queries_submitted: r.queries_submitted,
            observer.queries_completed: r.queries_completed,
            observer.queries_overflow: r.overflow_queries,
            observer.query_retries: r.queries_retried,
            observer.failovers: r.failovers,
            observer.queries_failed: r.queries_failed,
            observer.sla_violations: len(r.sla.violations()) + r.queries_failed,
        }
        for family, total in books.items():
            assert family.value(group=group) == total, (family.name, group)
        latency = observer.query_latency.snapshot().get((("group", group),))
        observed = 0.0
        for record in r.sla.records:
            observed += record.observed_latency_s
        counted = (latency.count, latency.total) if latency is not None else (0, 0.0)
        assert counted == (r.queries_completed, observed), group
        kinds: dict[str, int] = {}
        for action in r.scaling_actions:
            kinds[action.kind] = kinds.get(action.kind, 0) + 1
        published = {
            dict(key)["kind"]: value
            for key, value in observer.scaling_actions.snapshot().items()
            if dict(key)["group"] == group
        }
        assert published == kinds, group


@pytest.fixture(scope="session")
def config() -> EvaluationConfig:
    return tiny_config()


@pytest.fixture(scope="session")
def library(config) -> SessionLibrary:
    return SessionLogGenerator(config, sessions_per_size=4).generate()


@pytest.fixture(scope="session")
def workload(config, library) -> ComposedWorkload:
    return MultiTenantLogComposer(config, library).compose()


@pytest.fixture(scope="session")
def matrix(workload) -> ActivityMatrix:
    return ActivityMatrix.from_workload(workload, epoch_size=10.0)


@pytest.fixture
def simulator() -> Simulator:
    return Simulator()


def make_item(tenant_id: int, nodes: int, epochs) -> ActivityItem:
    """Convenience ActivityItem builder."""
    return ActivityItem(
        tenant_id=tenant_id,
        nodes_requested=nodes,
        epochs=np.asarray(sorted(epochs), dtype=np.int64),
    )


def paper_example_problem(replication_factor: int = 3, sla_percent: float = 99.0) -> LIVBPwFCProblem:
    """A Figure 5.1-style toy instance: six tenants over ten epochs.

    Activities (0-indexed epochs):
      T1: {0,1,2,3,4,5}   the heavy tenant (like the thesis's T1, active t1..t6)
      T2: {4,5,6}
      T3: {1,2,3}
      T4: {0,7}
      T5: {2,4,8}
      T6: {4}

    Hand-checked walkthrough of Algorithm 2 at R = 3, P = 99 % (so, with
    d = 10, no epoch may exceed 3 concurrently active tenants):
    the least-active tenant T6 seeds the group, then the histogram rule
    inserts T4, T3, T2, T5 in that order; adding T1 would push epoch 4 to
    four active tenants, dropping the <=3-active time percentage to 90 %,
    so — exactly as in the thesis's example — T1 is rejected and lands in
    its own group.  Final grouping: {T2,T3,T4,T5,T6}, {T1}.
    """
    items = [
        make_item(1, 4, [0, 1, 2, 3, 4, 5]),
        make_item(2, 4, [4, 5, 6]),
        make_item(3, 4, [1, 2, 3]),
        make_item(4, 4, [0, 7]),
        make_item(5, 4, [2, 4, 8]),
        make_item(6, 4, [4]),
    ]
    return LIVBPwFCProblem(
        items=tuple(items),
        num_epochs=10,
        replication_factor=replication_factor,
        sla_fraction=sla_percent / 100.0,
    )
