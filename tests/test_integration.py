"""Cross-module integration tests.

These exercise full paths through the system that unit tests cover only in
pieces: generation -> discretization -> grouping -> TDD -> deployment ->
replay, plus failure handling across the cluster/provisioning boundary.
"""

import numpy as np
import pytest

from repro.cluster.failures import FailureInjector
from repro.cluster.pool import MachinePool
from repro.core.advisor import DeploymentAdvisor
from repro.core.master import DeploymentMaster
from repro.core.routing import TDDRouter
from repro.core.service import ThriftyService
from repro.mppdb.provisioning import Provisioner
from repro.simulation.engine import Simulator
from repro.workload.activity import ActivityMatrix
from repro.workload.composer import MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator
from tests.conftest import tiny_config


class TestGuaranteeOne:
    """Guarantee 1 end to end: the grouping's promise survives the replay.

    If the tenants behave exactly as their history (we replay the very
    logs the plan was computed from), then for at least P% of time at most
    R tenants are concurrently active per group — so with A = R MPPDBs the
    router can serve nearly every query on a dedicated instance.
    """

    @pytest.fixture(scope="class")
    def outcome(self):
        config = tiny_config(num_tenants=30, seed=21)
        library = SessionLogGenerator(config, sessions_per_size=3).generate()
        workload = MultiTenantLogComposer(config, library).compose()
        service = ThriftyService(config, scaling="disabled")
        advice = service.deploy(workload)
        report = service.replay(until=workload.horizon_s)
        return config, advice, report

    def test_sla_met_close_to_p(self, outcome):
        config, advice, report = outcome
        # Time-based guarantee P = 99.9%; query-based outcomes concentrate
        # in busy periods, so allow slack — but the vast majority of
        # queries must meet their pre-consolidation latency.
        assert report.sla.fraction_met > 0.97

    def test_group_concurrency_respects_plan(self, outcome):
        config, advice, report = outcome
        # Each group's audited max concurrency matches what the plan
        # promised (TTP >= P at R).
        for group in advice.grouping.groups:
            assert group.ttp + 1e-12 >= config.sla_fraction


class TestEpochConsistency:
    def test_matrix_agrees_with_logs_at_scale(self):
        config = tiny_config(num_tenants=12, seed=31)
        library = SessionLogGenerator(config, sessions_per_size=2).generate()
        workload = MultiTenantLogComposer(config, library).compose()
        matrix = ActivityMatrix.from_workload(workload, 30.0)
        for item in matrix.items:
            log = workload.tenant_log(item.tenant_id)
            busy = log.total_busy_seconds()
            # Epoch-count x size bounds total busy time from above.
            assert item.active_epoch_count * 30.0 >= busy - 1e-6


class TestNodeFailureRecovery:
    def test_failed_node_replaced_and_instance_keeps_serving(self):
        # Ch. 4.4: node failure is handled by the MPPDB staying online;
        # Thrifty starts a replacement node.
        sim = Simulator()
        pool = MachinePool(12)
        provisioner = Provisioner(sim, pool)
        config = tiny_config(num_tenants=6, seed=41)
        library = SessionLogGenerator(config, sessions_per_size=2).generate()
        workload = MultiTenantLogComposer(config, library).compose()
        advice = DeploymentAdvisor(config).plan_from_workload(workload)
        master = DeploymentMaster(provisioner)
        deployed = master.deploy_group(advice.plan.groups[0], instant=True)
        instance = deployed.instances[0]
        injector = FailureInjector(pool, sim, mtbf_s=1e9, rng=np.random.default_rng(0))
        injector.on_failure(
            lambda f: pool.replace_failed(pool.node(f.node_id), f.owner)
        )
        victim = instance.node_ids[0]
        injector.inject_now(victim)
        # The MPPDB stays online (R4's "stay online even with node failure")
        # and a replacement node is assigned to the same instance.
        assert instance.is_ready
        owners = pool.owners()[instance.name]
        assert len(owners) == instance.parallelism
        assert victim not in owners
        # Routing still works.
        router = TDDRouter(deployed.instances)
        tenant_id = deployed.deployment.placement.tenant_ids[0]
        assert router.route(tenant_id)[0] in deployed.instances


class TestDeterminismEndToEnd:
    def test_same_seed_same_plan(self):
        def run():
            config = tiny_config(num_tenants=25, seed=77)
            library = SessionLogGenerator(config, sessions_per_size=2).generate()
            workload = MultiTenantLogComposer(config, library).compose()
            advice = DeploymentAdvisor(config).plan_from_workload(workload)
            return [
                (g.group_name, tuple(g.placement.tenant_ids)) for g in advice.plan
            ]

        assert run() == run()

    def test_different_seed_different_plan(self):
        def run(seed):
            config = tiny_config(num_tenants=25, seed=seed)
            library = SessionLogGenerator(config, sessions_per_size=2).generate()
            workload = MultiTenantLogComposer(config, library).compose()
            advice = DeploymentAdvisor(config).plan_from_workload(workload)
            return advice.plan.total_nodes_used

        # Different seeds draw different tenant mixes; node usage almost
        # surely differs (they could coincide, so compare weakly).
        outcomes = {run(seed) for seed in (1, 2, 3)}
        assert len(outcomes) >= 1  # smoke: at minimum it runs


class TestHigherActiveRatioEndToEnd:
    def test_squeezed_workload_consolidates_worse(self):
        base = tiny_config(num_tenants=40, seed=51)
        library = SessionLogGenerator(base, sessions_per_size=3).generate()
        spread = MultiTenantLogComposer(base, library).compose()
        squeezed_config = base.scaled(
            logs=base.logs.single_timezone().without_lunch()
        )
        squeezed = MultiTenantLogComposer(squeezed_config, library).compose()
        advisor = DeploymentAdvisor(base)
        eff_spread = advisor.plan_from_workload(spread).plan.consolidation_effectiveness
        eff_squeezed = advisor.plan_from_workload(squeezed).plan.consolidation_effectiveness
        assert eff_squeezed < eff_spread
