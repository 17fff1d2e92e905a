"""ThriftyService facade tests — the end-to-end integration path."""

import pytest

from repro.core.pricing import PricingModel
from repro.core.service import SCALING_POLICIES, ThriftyService
from repro.errors import DeploymentError
from repro.units import DAY
from repro.workload.composer import ComposedWorkload, MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator
from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def small_service_run(request):
    """One deployed + replayed service shared across this module."""
    from repro.workload.composer import MultiTenantLogComposer
    from repro.workload.generator import SessionLogGenerator

    config = tiny_config(num_tenants=24, seed=13)
    library = SessionLogGenerator(config, sessions_per_size=3).generate()
    workload = MultiTenantLogComposer(config, library).compose()
    service = ThriftyService(config)
    advice = service.deploy(workload)
    report = service.replay(until=1 * DAY)
    return config, workload, service, advice, report


class TestDeploy:
    def test_plan_and_instances(self, small_service_run):
        config, workload, service, advice, __ = small_service_run
        assert advice.plan.total_nodes_requested + advice.excluded_nodes == (
            workload.total_nodes_requested()
        )
        deployed = service.master.deployed_groups()
        assert set(deployed) == {g.group_name for g in advice.plan}

    def test_pool_reflects_plan(self, small_service_run):
        __, __, service, advice, __ = small_service_run
        # Replay may rent extra nodes for elastic scaling; at least the
        # plan's nodes are in use.
        assert service.pool.in_use_count >= advice.plan.total_nodes_used

    def test_double_deploy_rejected(self, small_service_run, workload):
        __, __, service, __, __ = small_service_run
        with pytest.raises(DeploymentError):
            service.deploy(workload)


class TestReplay:
    def test_report_covers_all_groups(self, small_service_run):
        __, __, service, advice, report = small_service_run
        assert set(report.group_reports) == {g.group_name for g in advice.plan}

    def test_queries_complete(self, small_service_run):
        __, __, __, __, report = small_service_run
        sla = report.sla
        assert len(sla) > 0
        # The vast majority of queries meet the before-consolidation SLA.
        assert sla.fraction_met > 0.9

    def test_effectiveness_consistent(self, small_service_run):
        __, __, __, advice, report = small_service_run
        assert report.consolidation_effectiveness == pytest.approx(
            advice.plan.consolidation_effectiveness
        )

    def test_summary_keys(self, small_service_run):
        __, __, __, __, report = small_service_run
        assert {
            "groups",
            "queries",
            "sla_fraction_met",
            "nodes_used",
            "nodes_requested",
            "effectiveness",
            "scaling_actions",
        } <= set(report.summary())

    def test_replay_same_group_twice_rejected(self, small_service_run, workload):
        __, __, service, advice, __ = small_service_run
        name = advice.plan.groups[0].group_name
        with pytest.raises(DeploymentError):
            service.replay(until=2 * DAY, group_names=[name])

    def test_replay_before_deploy_rejected(self):
        service = ThriftyService(tiny_config())
        with pytest.raises(DeploymentError):
            service.replay(until=DAY)


class TestInvoices:
    def test_invoices_for_all_tenants(self, small_service_run):
        config, workload, service, __, __ = small_service_run
        invoices = service.invoices()
        assert len(invoices) == len(workload)
        assert all(inv.amount >= 0 for inv in invoices)

    @pytest.mark.parametrize("seed", [13, 20130625])
    def test_invoices_equal_the_materialized_log_path(self, seed, monkeypatch):
        config = tiny_config(num_tenants=30, seed=seed)
        library = SessionLogGenerator(config, sessions_per_size=2).generate()
        workload = MultiTenantLogComposer(config, library).compose()
        service = ThriftyService(config)
        service.deploy(workload)
        model = PricingModel()
        want = [model.invoice(workload.tenant_log(t)) for t in workload.tenant_ids]

        def refuse(self, tenant_id):
            raise AssertionError("invoices() materialized a tenant log")

        monkeypatch.setattr(ComposedWorkload, "tenant_log", refuse)
        assert service.invoices(model) == want


class TestConfiguration:
    def test_scaling_policy_names(self):
        assert set(SCALING_POLICIES) == {
            "lightweight",
            "proactive",
            "whole-group",
            "disabled",
        }

    def test_unknown_scaling_rejected(self):
        with pytest.raises(DeploymentError):
            ThriftyService(tiny_config(), scaling="magic")

    def test_ffd_grouping_option(self):
        service = ThriftyService(tiny_config(), grouping="ffd")
        assert service.advisor.grouping_name == "ffd"
