"""Property-based tests on the Algorithm 1 router's invariants.

Random submission/completion interleavings must never break the two
guarantees routing rests on: a tenant with running queries is always
routed back to the same instance (tenant exclusivity), and as long as at
most A tenants are concurrently active, no two tenants ever share an
instance (Guarantee 1's mechanism).  Every router's named outcome must
also equal the reference classification of its pick
(:mod:`tests.core.routing_oracle`), and a router that has cached each
tenant's hosting instances must route exactly as a freshly built one,
across scale-up instances joining and instances failing and recovering.
"""

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import ROUTER_POLICIES, ROUTING_OUTCOMES, TDDRouter
from repro.errors import RoutingError
from repro.mppdb.catalog import TenantData
from repro.mppdb.instance import MPPDBInstance
from repro.simulation.engine import Simulator
from tests.core.routing_oracle import classify_decision

_NUM_TENANTS = 6
_NUM_INSTANCES = 3

# A script is a list of (tenant, work, gap-before-submission).
_SCRIPTS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=_NUM_TENANTS),
        st.floats(min_value=0.5, max_value=30.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


def _play(script):
    sim = Simulator()
    instances = []
    for i in range(_NUM_INSTANCES):
        instance = MPPDBInstance(f"m{i}", 4, sim)
        for tid in range(1, _NUM_TENANTS + 1):
            instance.deploy_tenant(TenantData(tenant_id=tid, data_gb=100.0))
        instance.mark_ready()
        instances.append(instance)
    router = TDDRouter(instances)
    observations = []
    t = 0.0
    for tenant, work, gap in script:
        t += gap

        def _submit(time, _tenant=tenant, _work=work):
            active_before = {
                i.name: set(i.active_tenants) for i in instances
            }
            chosen, __ = router.route(_tenant)
            chosen.submit_query(_tenant, _work)
            observations.append((time, _tenant, chosen.name, active_before))

        sim.schedule(t, _submit)
    sim.run()
    return observations


class TestRouterInvariants:
    @given(_SCRIPTS)
    @settings(max_examples=50, deadline=None)
    def test_tenant_affinity(self, script):
        # If the tenant had queries running anywhere at submission time,
        # the router must have chosen exactly that instance (line 2).
        for __, tenant, chosen, active_before in _play(script):
            holding = [name for name, active in active_before.items() if tenant in active]
            if holding:
                assert chosen == holding[0]
                assert len(holding) == 1  # never smeared across instances

    @given(_SCRIPTS)
    @settings(max_examples=50, deadline=None)
    def test_no_sharing_while_any_instance_free(self, script):
        # The router only co-locates two tenants when nothing is free.
        for __, tenant, chosen, active_before in _play(script):
            chosen_active = active_before[chosen]
            if chosen_active and tenant not in chosen_active:
                # Overflow: every instance must have been busy.
                assert all(active for active in active_before.values())

    @given(_SCRIPTS)
    @settings(max_examples=50, deadline=None)
    def test_overflow_goes_to_tuning_instance(self, script):
        for __, tenant, chosen, active_before in _play(script):
            chosen_active = active_before[chosen]
            if chosen_active and tenant not in chosen_active:
                assert chosen == "m0"  # MPPDB_0, Algorithm 1 line 10

    @given(_SCRIPTS)
    @settings(max_examples=50, deadline=None)
    def test_tuning_instance_preferred_when_free(self, script):
        # A newly active tenant goes to MPPDB_0 whenever it is free (line 5).
        for __, tenant, chosen, active_before in _play(script):
            anywhere = any(tenant in a for a in active_before.values())
            if not anywhere and not active_before["m0"]:
                assert chosen == "m0"


# A routing scenario: per instance (ready?, tenants hosted, tenants already
# running a query), pins as (tenant, instance index), and a script of
# (tenant, work, gap-before-submission) routed one query at a time.
_INSTANCE = st.tuples(
    st.booleans(),
    st.sets(st.integers(min_value=1, max_value=_NUM_TENANTS), min_size=1),
    st.sets(st.integers(min_value=1, max_value=_NUM_TENANTS), max_size=3),
)
_SCENARIOS = st.tuples(
    st.lists(_INSTANCE, min_size=1, max_size=4),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=_NUM_TENANTS), st.integers(0, 3)),
        max_size=3,
    ),
    _SCRIPTS,
)


# Events applied before a script step: a ready scale-up instance hosting
# some tenants joins (optionally taking a pin, as elastic scaling does),
# or an instance degrades, goes down or recovers.
_EVENT = st.one_of(
    st.tuples(
        st.just("scale-up"),
        st.sets(st.integers(min_value=1, max_value=_NUM_TENANTS), min_size=1),
        st.one_of(st.none(), st.integers(min_value=1, max_value=_NUM_TENANTS)),
    ),
    st.tuples(
        st.sampled_from(["degraded", "down", "ready"]), st.integers(min_value=0, max_value=7)
    ),
)
_EVENTS = st.dictionaries(
    st.integers(min_value=0, max_value=24), st.lists(_EVENT, min_size=1, max_size=2), max_size=6
)


def _apply(event, router, sim, tokens):
    """Change the router's instances as elastic scaling or a failure would."""
    if event[0] == "scale-up":
        __, hosted, pin = event
        instance = MPPDBInstance(f"s{len(router.instances)}", 2, sim)
        for tid in sorted(hosted):
            instance.deploy_tenant(TenantData(tenant_id=tid, data_gb=10.0))
        instance.mark_ready()
        router.add_instance(instance)
        if pin in hosted:
            router.pin_tenant(pin, instance)
        return
    target, index = event
    instance = router.instances[index % len(router.instances)]
    if target == "ready":
        for node in sorted(instance.failed_nodes):
            token = next(tokens)
            instance.begin_node_replacement(node, node, token)
            instance.complete_node_replacement(node, token)
        return
    for node in range(1 if target == "degraded" else instance.parallelism):
        instance.record_node_failure(node)
    instance.abort_running()


def _fresh_twin(router):
    """A newly built router over the same instances, pins and pick state."""
    twin = type(router)(router.instances)
    for tenant, instance in router.pinned_tenants.items():
        twin.pin_tenant(tenant, instance)
    for attr in ("_rng", "_next"):  # the ablation routers' pick state
        if hasattr(router, attr):
            setattr(twin, attr, copy.deepcopy(getattr(router, attr)))
    return twin


def _route_or_error(router, tenant):
    try:
        return router.route(tenant)
    except RoutingError as error:  # NoHealthyInstanceError is one too
        return type(error)


class TestNamedOutcomes:
    @pytest.mark.parametrize("policy", sorted(ROUTER_POLICIES))
    @given(scenario=_SCENARIOS)
    @settings(max_examples=60, deadline=None)
    def test_route_names_the_oracles_outcome(self, policy, scenario):
        shapes, pins, script = scenario
        sim = Simulator()
        instances = []
        for index, (ready, hosted, running) in enumerate(shapes):
            instance = MPPDBInstance(f"m{index}", 4, sim)
            for tid in sorted(hosted | running):
                instance.deploy_tenant(TenantData(tenant_id=tid, data_gb=10.0))
            if ready:
                instance.mark_ready()
                for tid in sorted(running):
                    instance.submit_query(tid, 25.0)
            instances.append(instance)
        router = ROUTER_POLICIES[policy](instances)
        for tenant, index in pins:
            if index < len(instances) and instances[index].hosts(tenant):
                router.pin_tenant(tenant, instances[index])
        t = 0.0
        for tenant, work, gap in script:
            t += gap
            sim.run(until=t)
            try:
                chosen, outcome = router.route(tenant)
            except RoutingError:  # no ready instance hosts the tenant
                continue
            assert outcome in ROUTING_OUTCOMES
            assert outcome == classify_decision(router, tenant, chosen)
            chosen.submit_query(tenant, work)

    @pytest.mark.parametrize("policy", sorted(ROUTER_POLICIES))
    @given(scenario=_SCENARIOS, events=_EVENTS)
    @settings(max_examples=60, deadline=None)
    def test_cached_router_routes_as_a_fresh_one(self, policy, scenario, events):
        shapes, pins, script = scenario
        sim = Simulator()
        instances = []
        for index, (ready, hosted, __) in enumerate(shapes):
            instance = MPPDBInstance(f"m{index}", 4, sim)
            for tid in sorted(hosted):
                instance.deploy_tenant(TenantData(tenant_id=tid, data_gb=10.0))
            if ready:
                instance.mark_ready()
            instances.append(instance)
        router = ROUTER_POLICIES[policy](instances)
        for tenant, index in pins:
            if index < len(instances) and instances[index].hosts(tenant):
                router.pin_tenant(tenant, instances[index])
        tokens = itertools.count()
        t = 0.0
        for step, (tenant, work, gap) in enumerate(script):
            t += gap
            sim.run(until=t)
            for event in events.get(step, ()):
                _apply(event, router, sim, tokens)
            twin = _fresh_twin(router)
            expected = _route_or_error(twin, tenant)
            actual = _route_or_error(router, tenant)
            assert actual == expected
            if isinstance(actual, tuple):
                chosen, outcome = actual
                assert outcome == classify_decision(router, tenant, chosen)
                chosen.submit_query(tenant, work)

