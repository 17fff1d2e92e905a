"""Re-consolidation cycle tests (Chapter 3 / 5.1)."""

import json

import pytest

from repro.core.advisor import DeploymentAdvisor
from repro.core.runtime import GroupRuntime
from repro.core.service import ThriftyService
from repro.errors import DeploymentError
from repro.mppdb.provisioning import Provisioner
from repro.obs import MemorySink, Observer
from repro.units import HOUR
from repro.workload.activity import ActivityMatrix
from repro.workload.composer import MultiTenantLogComposer
from repro.workload.generator import SessionLogGenerator
from repro.workload.logs import QueryRecord, TenantLog
from repro.workload.queries import template_by_name
from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def planned():
    config = tiny_config(num_tenants=36, seed=17)
    library = SessionLogGenerator(config, sessions_per_size=3).generate()
    workload = MultiTenantLogComposer(config, library).compose()
    advisor = DeploymentAdvisor(config)
    advice = advisor.plan_from_workload(workload)
    matrix = ActivityMatrix.from_workload(workload, config.epoch_size_s)
    return config, workload, advisor, advice, matrix


class TestAdvisorReconsolidate:
    def test_affected_groups_regrouped(self, planned):
        config, workload, advisor, advice, matrix = planned
        target = advice.plan.groups[0].group_name
        result, kept = advisor.reconsolidate(
            matrix, advice.plan, affected_groups={target}
        )
        result.plan.summary()
        kept_names = {g.group_name for g in kept}
        assert target not in kept_names
        # All original tenants are still planned exactly once.
        planned_ids = {t for g in result.plan for t in g.placement.tenant_ids}
        original_ids = {t for g in advice.plan for t in g.placement.tenant_ids}
        assert planned_ids == original_ids

    def test_departed_tenants_removed(self, planned):
        config, workload, advisor, advice, matrix = planned
        group = advice.plan.groups[0]
        victim = group.placement.tenant_ids[0]
        result, __ = advisor.reconsolidate(
            matrix, advice.plan, affected_groups=set(), departed=[victim]
        )
        planned_ids = {t for g in result.plan for t in g.placement.tenant_ids}
        assert victim not in planned_ids
        original_ids = {t for g in advice.plan for t in g.placement.tenant_ids}
        assert planned_ids == original_ids - {victim}

    def test_departure_pulls_in_whole_group(self, planned):
        config, workload, advisor, advice, matrix = planned
        group = advice.plan.groups[0]
        victim = group.placement.tenant_ids[0]
        __, kept = advisor.reconsolidate(
            matrix, advice.plan, affected_groups=set(), departed=[victim]
        )
        assert group.group_name not in {g.group_name for g in kept}

    def test_new_groups_satisfy_constraints(self, planned):
        config, workload, advisor, advice, matrix = planned
        target = advice.plan.groups[0].group_name
        result, __ = advisor.reconsolidate(matrix, advice.plan, affected_groups={target})
        result.grouping.validate()
        for group in result.plan:
            assert group.design.num_instances == config.replication_factor

    def test_unknown_group_rejected(self, planned):
        config, workload, advisor, advice, matrix = planned
        with pytest.raises(DeploymentError):
            advisor.reconsolidate(matrix, advice.plan, affected_groups={"nope"})

    def test_empty_pool_rejected(self, planned):
        config, workload, advisor, advice, matrix = planned
        group = advice.plan.groups[0]
        with pytest.raises(DeploymentError):
            advisor.reconsolidate(
                matrix,
                advice.plan,
                affected_groups={group.group_name},
                departed=list(group.placement.tenant_ids),
            )


#: The exported ``spans.jsonl`` row of the cycle in
#: ``test_reconsolidation_span_row_is_pinned``: tuple attributes set at
#: start (``affected``, ``departed``) and by ``set_attr`` (``torn_down``)
#: all export as JSON lists.
RECONSOLIDATION_ROW = (
    '{"attrs": {"affected": ["tg1"], "cycle": 1, "departed": [0, 3], "groups_after": 4, '
    '"torn_down": ["tg0", "tg1"]}, "end": 0.0, "events": [], "kind": "reconsolidation", '
    '"name": "reconsolidation", "parent_id": null, "span_id": 1, "start": 0.0, "status": "ok"}'
)


class TestServiceReconsolidate:
    def _service(self, observer=None):
        config = tiny_config(num_tenants=24, seed=19)
        library = SessionLogGenerator(config, sessions_per_size=3).generate()
        workload = MultiTenantLogComposer(config, library).compose()
        service = ThriftyService(config, scaling="disabled", observer=observer)
        service.deploy(workload)
        return service

    def test_reconsolidate_after_departure(self):
        service = self._service()
        plan = service.advice.plan
        victim = plan.groups[0].placement.tenant_ids[0]
        old_groups = set(service.master.deployed_groups())
        advice = service.reconsolidate(departed=[victim])
        new_groups = set(service.master.deployed_groups())
        assert plan.groups[0].group_name not in new_groups
        assert any(name.startswith("rg1-") for name in new_groups)
        planned_ids = {t for g in advice.plan for t in g.placement.tenant_ids}
        assert victim not in planned_ids
        assert old_groups != new_groups

    def test_extra_groups_forced(self):
        service = self._service()
        target = service.advice.plan.groups[0].group_name
        advice = service.reconsolidate(extra_groups=[target])
        assert target not in {g.group_name for g in advice.plan}

    def test_reconsolidation_span_row_is_pinned(self):
        observer = Observer(MemorySink())
        service = self._service(observer)
        plan = service.advice.plan
        departed = list(plan.groups[0].placement.tenant_ids[:2])
        service.reconsolidate(departed=departed, extra_groups=[plan.groups[1].group_name])
        (span,) = observer.memory_sink().spans_of("reconsolidation")
        assert json.dumps(span.as_dict(), sort_keys=True) == RECONSOLIDATION_ROW

    def test_nothing_to_do_rejected(self):
        service = self._service()
        with pytest.raises(DeploymentError):
            service.reconsolidate()

    def test_before_deploy_rejected(self):
        service = ThriftyService(tiny_config())
        with pytest.raises(DeploymentError):
            service.reconsolidate(departed=[1])


class TestReconsolidateAfterScaling:
    """Scaled groups are found from the policies' actions, not full reports."""

    def _scaled_service(self, monkeypatch):
        config = tiny_config(num_tenants=24, seed=19)
        library = SessionLogGenerator(config, sessions_per_size=2).generate()
        workload = MultiTenantLogComposer(config, library).compose()
        observer = Observer(MemorySink())
        service = ThriftyService(config, scaling="lightweight", observer=observer)
        service.deploy(workload)
        # One tenant of tg0 turns over-active from hour 1: back-to-back
        # heavy queries push its group into lightweight scaling.
        victim = service.advice.plan.groups[0].placement.tenant_ids[0]
        spec = workload.tenant(victim)
        latency = template_by_name("tpcds.q72").dedicated_latency_s(
            spec.data_gb, spec.nodes_requested
        )
        records = [r for r in workload.tenant_log(victim).records if r.submit_time_s < HOUR]
        t = HOUR
        while t < 6 * HOUR:
            records.append(QueryRecord(submit_time_s=t, latency_s=latency, template="tpcds.q72"))
            t += latency * 1.05 + 0.5
        heavy = TenantLog(spec, records)
        lazy_log = workload.lazy_log
        monkeypatch.setattr(
            workload, "lazy_log", lambda tid: heavy if tid == victim else lazy_log(tid)
        )
        service.replay(until=6 * HOUR)
        return service, observer

    @staticmethod
    def _outcome(service, observer, advice):
        (span,) = observer.memory_sink().spans_of("reconsolidation")
        groups = [(g.group_name, tuple(g.placement.tenant_ids)) for g in advice.plan]
        return span.attrs["affected"], span.attrs["torn_down"], groups

    def test_report_is_not_built(self, monkeypatch):
        service, observer = self._scaled_service(monkeypatch)
        expected = self._outcome(service, observer, service.reconsolidate())
        assert expected[0] == ("tg0",)

        service, observer = self._scaled_service(monkeypatch)

        def no_report(self):
            raise AssertionError("reconsolidate built a full runtime report")

        monkeypatch.setattr(GroupRuntime, "report", no_report)
        assert self._outcome(service, observer, service.reconsolidate()) == expected

    def test_second_cycle_counts_only_deployed_groups(self, monkeypatch):
        # The first cycle tears tg0 down; its runtime still holds its
        # scaling actions, but tg0 is no longer a group to reconsolidate.
        service, observer = self._scaled_service(monkeypatch)
        first = service.reconsolidate()
        kept = next(g for g in first.plan if not g.group_name.startswith("rg1-"))
        leaver = kept.placement.tenant_ids[0]
        second = service.reconsolidate(departed=[leaver])
        spans = observer.memory_sink().spans_of("reconsolidation")
        assert [span.attrs["affected"] for span in spans] == [("tg0",), ()]
        assert spans[1].attrs["torn_down"] == (kept.group_name,)
        assert leaver not in {t for g in second.plan for t in g.placement.tenant_ids}

    def test_retires_the_scaled_groups_action_instances_in_order(self, monkeypatch):
        service, observer = self._scaled_service(monkeypatch)
        actions = service._runtimes["tg0"].scaling_actions
        group_instances = [i.name for i in service.master.deployed_groups()["tg0"].instances]
        retired: list[str] = []
        retire = Provisioner.retire
        monkeypatch.setattr(
            Provisioner, "retire",
            lambda self, instance: (retired.append(instance.name), retire(self, instance)),
        )
        service.reconsolidate()
        assert actions
        assert retired == group_instances + [a.instance_name for a in actions]
