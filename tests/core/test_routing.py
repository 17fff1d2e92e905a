"""Query routing tests — the Algorithm 1 walkthrough of Figure 4.2."""

import pytest

from repro.core.routing import (
    AlwaysTuningRouter,
    RandomFreeRouter,
    RoundRobinRouter,
    TDDRouter,
)
from repro.errors import RoutingError
from repro.mppdb.catalog import TenantData
from repro.mppdb.instance import MPPDBInstance
from repro.simulation.engine import Simulator


def _instances(sim, count=3, tenants=range(1, 11), parallelism=6):
    result = []
    for i in range(count):
        instance = MPPDBInstance(f"mppdb{i}", parallelism, sim)
        for tid in tenants:
            instance.deploy_tenant(TenantData(tenant_id=tid, data_gb=100.0))
        instance.mark_ready()
        result.append(instance)
    return result


class TestFigure42Walkthrough:
    """Replays the tenant activities of Figure 4.2 step by step."""

    def test_full_walkthrough(self):
        sim = Simulator()
        m0, m1, m2 = _instances(sim, 3)
        router = TDDRouter([m0, m1, m2])

        # T4 submits Q1: all free -> MPPDB0 (line 5).
        assert router.route(4) == (m0, "tuning-free")
        q1 = m0.submit_query(4, 100.0)
        # T2 submits Q2: MPPDB0 busy -> free MPPDB1 (line 8).
        assert router.route(2) == (m1, "free")
        q2 = m1.submit_query(2, 100.0)
        # T4 submits Q3 while Q1 runs -> follow the tenant to MPPDB0 (line 2).
        assert router.route(4) == (m0, "tenant-affinity")
        m0.submit_query(4, 50.0)
        # T2 submits Q4 while Q2 runs -> MPPDB1 (line 2).
        assert router.route(2) == (m1, "tenant-affinity")
        m1.submit_query(2, 50.0)
        # T9 submits Q5 -> MPPDB2 is the only free one (line 8).
        assert router.route(9) == (m2, "free")
        m2.submit_query(9, 100.0)

        # Let T4's queries finish (Q1+Q3 PS: total work 150 shared).
        sim.run(until=500.0)
        assert m0.is_free

        # T1 submits Q6: T4 inactive now, MPPDB0 free again (line 5).
        assert router.route(1) == (m0, "tuning-free")
        m0.submit_query(1, 100.0)

        # T4 submits Q7 after its queries finished: not tied to MPPDB0
        # anymore; MPPDB0 busy (T1); is MPPDB1 or MPPDB2 free?
        # Q2+Q4 on m1: total 150s from t=0 -> done by 500; Q5 on m2 done.
        assert m1.is_free and m2.is_free
        assert router.route(4) == (m1, "free")

    def test_overflow_to_tuning_instance(self):
        # Line 10: all instances busy -> MPPDB0 for concurrent processing.
        sim = Simulator()
        m0, m1, m2 = _instances(sim, 3)
        router = TDDRouter([m0, m1, m2])
        m0.submit_query(1, 100.0)
        m1.submit_query(2, 100.0)
        m2.submit_query(3, 100.0)
        assert router.route(4) == (m0, "overflow")

    def test_tenant_affinity_beats_free_instances(self):
        # Line 2 dominates: a tenant with running queries stays put even
        # when other instances are free.
        sim = Simulator()
        m0, m1, m2 = _instances(sim, 3)
        router = TDDRouter([m0, m1, m2])
        m1.submit_query(5, 100.0)
        assert router.route(5) == (m1, "tenant-affinity")


class TestRouterMechanics:
    def test_tenant_not_hosted_anywhere(self):
        sim = Simulator()
        instances = _instances(sim, 2, tenants=[1, 2])
        router = TDDRouter(instances)
        with pytest.raises(RoutingError):
            router.route(99)

    def test_not_ready_instances_skipped(self):
        sim = Simulator()
        m0 = MPPDBInstance("m0", 4, sim)
        m0.deploy_tenant(TenantData(tenant_id=1, data_gb=1.0))
        (m1,) = _instances(sim, 1, tenants=[1])
        router = TDDRouter([m0, m1])
        assert router.route(1) == (m1, "free")

    def test_pin_tenant(self):
        sim = Simulator()
        m0, m1, m2 = _instances(sim, 3)
        extra = MPPDBInstance("scale0", 6, sim)
        extra.deploy_tenant(TenantData(tenant_id=7, data_gb=100.0))
        extra.mark_ready()
        router = TDDRouter([m0, m1, m2])
        router.add_instance(extra)
        router.pin_tenant(7, extra)
        assert router.route(7) == (extra, "pinned")
        assert router.pinned_tenants == {7: extra}
        router.unpin_tenant(7)
        assert router.route(7) == (m0, "tuning-free")

    def test_pin_requires_hosting(self):
        sim = Simulator()
        m0, m1, m2 = _instances(sim, 3)
        foreign = MPPDBInstance("foreign", 4, sim)
        foreign.mark_ready()
        router = TDDRouter([m0, m1, m2])
        with pytest.raises(RoutingError):
            router.pin_tenant(1, foreign)

    def test_empty_router_rejected(self):
        with pytest.raises(RoutingError):
            TDDRouter([])

    def test_tuning_instance_is_first(self):
        sim = Simulator()
        instances = _instances(sim, 3)
        assert TDDRouter(instances).tuning_instance is instances[0]


class TestAblationRouters:
    def test_random_free_prefers_free(self):
        sim = Simulator()
        m0, m1, m2 = _instances(sim, 3)
        router = RandomFreeRouter([m0, m1, m2], seed=1)
        m0.submit_query(1, 100.0)
        m1.submit_query(2, 100.0)
        assert router.route(3) == (m2, "free")

    def test_random_free_ignores_affinity(self):
        # The ablation flaw: a busy tenant's next query may land elsewhere.
        sim = Simulator()
        m0, m1, m2 = _instances(sim, 3)
        router = RandomFreeRouter([m0, m1, m2], seed=0)
        m0.submit_query(1, 1000.0)
        targets = {router.route(1)[0].name for __ in range(20)}
        assert "mppdb0" not in targets  # m0 is busy; router scatters

    def test_round_robin_cycles(self):
        sim = Simulator()
        instances = _instances(sim, 3)
        router = RoundRobinRouter(instances)
        names = [router.route(1)[0].name for __ in range(6)]
        assert names == ["mppdb0", "mppdb1", "mppdb2"] * 2

    def test_always_tuning(self):
        sim = Simulator()
        instances = _instances(sim, 3)
        router = AlwaysTuningRouter(instances)
        instances[0].submit_query(1, 100.0)
        assert router.route(2) == (instances[0], "overflow")
