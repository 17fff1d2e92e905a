"""Differential tests: vectorized Step 2 of Algorithm 2 against the scalar oracle.

``pack_initial_group`` must return exactly the grouping of the scalar
``T_best`` loop kept in :mod:`tests.packing.oracle` — same groups, same
member order — on every input, including the corners where the
tie-breaks and the feasibility tolerance decide.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import GroupActivityMonitor
from repro.core.scaling import LightweightScaling
from repro.packing.livbp import TTP_TOL
from repro.packing.two_step import _INITIAL_LEVELS, pack_initial_group
from repro.units import num_epochs
from repro.workload.activity import ActivityItem
from tests.conftest import make_item
from tests.core.test_scaling import _setup
from tests.packing.oracle import oracle_pack_initial_group


@st.composite
def initial_group_instances(draw):
    """One homogeneous initial group plus (R, P), biased toward ties."""
    d = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=1, max_value=14))
    epoch_sets = st.sets(st.integers(min_value=0, max_value=d - 1), max_size=d)
    # A few shared epoch sets make fully tied tenants (same histogram,
    # same activity count) likely, so the tenant-id tie-break decides.
    shared = draw(st.lists(epoch_sets, min_size=1, max_size=3))
    ids = draw(st.permutations(range(100, 100 + n)))
    items = []
    for tenant_id in ids:
        kind = draw(st.sampled_from(["shared", "own", "idle"]))
        if kind == "shared":
            epochs = draw(st.sampled_from(shared))
        elif kind == "own":
            epochs = draw(epoch_sets)
        else:
            epochs = set()
        items.append(make_item(tenant_id, 2, sorted(epochs)))
    r = draw(st.integers(min_value=1, max_value=4))
    # P exactly at (d - k) / d, and just inside / just outside TTP_TOL of it.
    k = draw(st.integers(min_value=0, max_value=min(3, d - 1)))
    nudge = draw(st.sampled_from([0.0, TTP_TOL / 2, 2 * TTP_TOL]))
    boundary = min(1.0, (d - k) / d + nudge)
    p = draw(st.one_of(st.just(1.0), st.just(boundary), st.floats(0.5, 1.0)))
    return items, d, r, p


def _check(items, d, r, p):
    fast = pack_initial_group(items, d, r, p)
    assert fast == oracle_pack_initial_group(items, d, r, p)
    return fast


class TestAgainstOracle:
    @given(initial_group_instances())
    @settings(max_examples=300, deadline=None)
    def test_equal_to_oracle(self, instance):
        _check(*instance)

    def test_all_idle_tenants(self):
        items = [make_item(i, 2, []) for i in (5, 3, 9)]
        assert _check(items, 10, 1, 1.0) == [[3, 5, 9]]

    def test_fully_tied_tenants_break_by_id(self):
        items = [make_item(i, 2, [0, 1]) for i in (7, 2, 4, 1)]
        # R = 1, P = 1.0: every pair collides, so each tenant is alone.
        assert _check(items, 4, 1, 1.0) == [[1], [2], [4], [7]]
        # R = 2: pairs fit, in id order.
        assert _check(items, 4, 2, 1.0) == [[1, 2], [4, 7]]

    def test_p_on_tolerance_boundary(self):
        # Seeding T1 then adding T2 creates one violating epoch of ten.
        items = [make_item(1, 2, [0, 1]), make_item(2, 2, [0, 2, 3])]
        assert _check(items, 10, 1, 0.9) == [[1, 2]]
        assert _check(items, 10, 1, 0.9 + TTP_TOL / 2) == [[1, 2]]
        assert _check(items, 10, 1, 0.9 + 2 * TTP_TOL) == [[1], [2]]

    def _medium(self, seed, n, d, runs, run_len):
        rng = np.random.default_rng(seed)
        items = []
        for tenant_id in rng.permutation(n):
            starts = rng.integers(0, d - run_len, size=int(rng.integers(1, runs)))
            lengths = rng.integers(1, run_len, size=starts.size)
            epochs = np.unique(
                np.concatenate([np.arange(s, s + w) for s, w in zip(starts, lengths)])
            )
            items.append(ActivityItem(tenant_id=int(tenant_id), nodes_requested=4, epochs=epochs))
        # A few never-active tenants seed the first group.
        items += [make_item(n + i, 4, []) for i in range(3)]
        return items

    def test_medium_case_outgrows_initial_levels(self):
        d = 24_000
        items = self._medium(20130625, n=72, d=d, runs=12, run_len=120)
        groups = _check(items, d, 3, 0.999)
        # The histogram matrix starts with _INITIAL_LEVELS columns and must
        # have grown for a group this large.
        assert max(len(g) for g in groups) > _INITIAL_LEVELS
        assert sorted(t for g in groups for t in g) == sorted(i.tenant_id for i in items)

    def test_more_candidates_than_a_byte_indexes(self):
        # 300 candidates: owners and counts switch to a 16-bit type.
        d = 3_000
        items = self._medium(20140622, n=300, d=d, runs=4, run_len=30)
        _check(items, d, 2, 0.99)


class TestRegroupingParity:
    def test_identify_by_regrouping_matches_oracle(self):
        window, epoch = 2_000.0, 10.0
        monitor = GroupActivityMonitor("g", replication_factor=2)
        rng = np.random.default_rng(7)
        events = []  # (time, is_start, tenant); finishes sort before starts
        for tenant_id in range(1, 13):
            monitor.register_tenant(tenant_id, 4)
            t = float(rng.uniform(0, 200))
            while t < window:
                length = float(rng.uniform(5, 150 if tenant_id < 4 else 40))
                events += [(t, 1, tenant_id), (min(t + length, window), 0, tenant_id)]
                t += length + float(rng.uniform(20, 400))
        for time, is_start, tenant_id in sorted(events):
            if is_start:
                monitor.on_query_start(tenant_id, time)
            else:
                monitor.on_query_finish(tenant_id, time)
        policy = LightweightScaling(window_s=window, identification_epoch_s=epoch)
        # Regrouping reads only the monitor and P; the rest of the context
        # is a stand-in group of the same tenants.
        __, provisioner, deployed, __, router = _setup(num_tenants=12)
        policy.attach(deployed, monitor, router, provisioner, 0.95)
        over_active = policy.identify_by_regrouping(window)

        items = monitor.activity_items(0.0, window, epoch)
        groups = oracle_pack_initial_group(items, num_epochs(window, epoch), 2, 0.95)
        expected = [item.tenant_id for item in items if item.tenant_id not in groups[0]]
        assert over_active == expected
        assert over_active  # the instance is tight enough to evict someone
