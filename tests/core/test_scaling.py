"""Elastic scaling tests (Chapter 5.1)."""

import pytest

from repro.core.deployment import GroupDeployment
from repro.core.master import DeployedGroup
from repro.core.monitor import GroupActivityMonitor
from repro.core.routing import TDDRouter
from repro.core.scaling import DisabledScaling, LightweightScaling, WholeGroupScaling
from repro.core.tdd import design_for_group
from repro.errors import ScalingError
from repro.mppdb.provisioning import Provisioner
from repro.simulation.engine import Simulator
from repro.workload.tenant import TenantSpec

_WINDOW = 1000.0


def _setup(policy=None, sla_fraction=0.999, num_tenants=6, nodes=4, name="tg0"):
    """A three-instance group, with ``policy`` attached to it when given."""
    sim = Simulator()
    provisioner = Provisioner(sim)
    tenants = tuple(
        TenantSpec(tenant_id=i, nodes_requested=nodes, data_gb=nodes * 100.0)
        for i in range(1, num_tenants + 1)
    )
    design, placement = design_for_group(name, tenants, num_instances=3)
    deployment = GroupDeployment(design=design, placement=placement, tenants=tenants)
    instances = tuple(
        provisioner.provision(
            parallelism=design.instance_parallelism(i),
            tenants=[t.as_tenant_data() for t in tenants],
            name=name,
            instant=True,
        )
        for i, name in enumerate(design.instance_names())
    )
    deployed = DeployedGroup(deployment=deployment, instances=instances)
    monitor = GroupActivityMonitor(name, replication_factor=3)
    for t in tenants:
        monitor.register_tenant(t.tenant_id, t.nodes_requested)
    router = TDDRouter(instances)
    if policy is not None:
        policy.attach(deployed, monitor, router, provisioner, sla_fraction)
    return sim, provisioner, deployed, monitor, router


def _tick(policy, monitor, now=_WINDOW):
    """One monitor tick, as the runtime makes it: RT-TTP over the policy's window."""
    return policy.maybe_scale(now, monitor.rt_ttp(now, policy.window_s))


def _make_over_active(monitor, sim, over_tenant=1, quiet=(2, 3, 4)):
    """Drive 4 concurrent tenants for 5 % of the window: RT-TTP = 0.95."""
    for tid in (over_tenant, *quiet):
        monitor.on_query_start(tid, 0.0)
    for tid in quiet:
        monitor.on_query_finish(tid, 0.05 * _WINDOW)
    # The over-active tenant stays busy the whole window.
    assert sim.pending == 0  # so run() only moves the clock
    sim.run(until=_WINDOW)


class TestTrigger:
    def test_no_action_above_sla(self):
        policy = LightweightScaling(window_s=_WINDOW)
        sim, provisioner, deployed, monitor, router = _setup(policy, sla_fraction=0.9)
        action = _tick(policy, monitor)
        assert action is None

    def test_disabled_never_scales(self):
        policy = DisabledScaling(window_s=_WINDOW)
        sim, provisioner, deployed, monitor, router = _setup(policy)
        _make_over_active(monitor, sim)
        action = _tick(policy, monitor)
        assert action is None
        assert policy.actions == []

    def test_lightweight_fires_below_sla(self):
        policy = LightweightScaling(window_s=_WINDOW, identification_epoch_s=10.0)
        sim, provisioner, deployed, monitor, router = _setup(policy)
        _make_over_active(monitor, sim)
        action = _tick(policy, monitor)
        assert action is not None
        assert action.kind == "lightweight"
        assert 1 in action.over_active

    def test_single_action_in_flight(self):
        policy = LightweightScaling(window_s=_WINDOW, identification_epoch_s=10.0)
        sim, provisioner, deployed, monitor, router = _setup(policy)
        _make_over_active(monitor, sim)
        first = _tick(policy, monitor)
        second = _tick(policy, monitor)
        assert first is not None
        assert second is None


class TestLightweightMechanics:
    def test_over_active_identification(self):
        policy = LightweightScaling(window_s=_WINDOW, identification_epoch_s=10.0)
        sim, provisioner, deployed, monitor, router = _setup(policy)
        _make_over_active(monitor, sim, over_tenant=3, quiet=(1, 2, 4))
        over = policy.identify_over_active(_WINDOW)
        assert over == [3]

    def test_new_instance_loads_only_over_active_data(self):
        policy = LightweightScaling(window_s=_WINDOW, identification_epoch_s=10.0)
        sim, provisioner, deployed, monitor, router = _setup(policy)
        _make_over_active(monitor, sim)
        action = _tick(policy, monitor)
        # One 4-node tenant = 400 GB, not the whole group's 2.4 TB.
        assert action.loaded_gb == 400.0
        group_gb = sum(t.data_gb for t in deployed.deployment.tenants)
        assert action.loaded_gb < group_gb / 2

    def test_router_pinned_after_ready(self):
        policy = LightweightScaling(window_s=_WINDOW, identification_epoch_s=10.0)
        sim, provisioner, deployed, monitor, router = _setup(policy)
        _make_over_active(monitor, sim)
        action = _tick(policy, monitor)
        assert router.pinned_tenants == {}
        sim.run()  # provisioning completes
        assert 1 in router.pinned_tenants
        pinned = router.pinned_tenants[1]
        assert pinned.name == action.instance_name
        assert router.route(1) == (pinned, "pinned")
        # The monitor excludes the tenant once it moves.
        assert monitor.excluded_tenants == {1}

    def test_ready_time_from_load_model(self):
        policy = LightweightScaling(window_s=_WINDOW, identification_epoch_s=10.0)
        sim, provisioner, deployed, monitor, router = _setup(policy)
        _make_over_active(monitor, sim)
        action = _tick(policy, monitor)
        expected = _WINDOW + provisioner.load_model.provision_seconds(4, 400.0)
        assert action.expected_ready_time == pytest.approx(expected)

    def test_cooldown_after_completion(self):
        policy = LightweightScaling(window_s=_WINDOW, identification_epoch_s=10.0)
        sim, provisioner, deployed, monitor, router = _setup(policy)
        _make_over_active(monitor, sim)
        _tick(policy, monitor)
        sim.run()  # completes, _in_flight cleared
        # Within one window of the action: no re-fire even if RT-TTP low.
        action = _tick(policy, monitor, sim.now)
        assert action is None


class TestWholeGroupScaling:
    def test_loads_everything(self):
        policy = WholeGroupScaling(window_s=_WINDOW)
        sim, provisioner, deployed, monitor, router = _setup(policy)
        _make_over_active(monitor, sim)
        action = _tick(policy, monitor)
        assert action.kind == "whole-group"
        assert action.loaded_gb == sum(t.data_gb for t in deployed.deployment.tenants)
        sim.run()
        # No pinning: the extra instance just joins the pool of A+1.
        assert router.pinned_tenants == {}
        assert len(router.instances) == 4

    def test_lightweight_is_faster_than_whole_group(self):
        light = LightweightScaling(window_s=_WINDOW, identification_epoch_s=10.0)
        sim1, prov1, dep1, mon1, rout1 = _setup(light)
        _make_over_active(mon1, sim1)
        a1 = _tick(light, mon1)

        whole = WholeGroupScaling(window_s=_WINDOW)
        sim2, prov2, dep2, mon2, rout2 = _setup(whole)
        _make_over_active(mon2, sim2)
        a2 = _tick(whole, mon2)
        assert a1.expected_ready_time < a2.expected_ready_time


class TestValidation:
    def test_window_positive(self):
        with pytest.raises(ScalingError):
            LightweightScaling(window_s=0.0)
        with pytest.raises(ScalingError):
            LightweightScaling(identification_epoch_s=0.0)

    def test_one_policy_serves_one_group(self):
        policy = LightweightScaling(window_s=_WINDOW)
        _setup(policy)
        with pytest.raises(ScalingError, match="tg0"):
            _setup(policy, name="tg1")
        with pytest.raises(ScalingError):
            _setup(policy)
