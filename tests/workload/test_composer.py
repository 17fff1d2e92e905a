"""Multi-tenant log composition tests (§7.1 Step 2)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.units import DAY, HOUR
from repro.workload.activity import active_epoch_indices
from repro.workload.composer import ComposedWorkload, MultiTenantLogComposer, SessionPick
from repro.workload.generator import SessionLibrary, SessionLog, SessionLogGenerator
from repro.workload.logs import QueryRecord
from repro.workload.tenant import TenantSpec
from tests.conftest import tiny_config


class TestComposition:
    def test_tenant_count(self, workload, config):
        assert len(workload) == config.num_tenants

    def test_tenant_specs_follow_config(self, workload, config):
        for tenant in workload.tenants:
            assert tenant.nodes_requested in config.node_sizes
            assert tenant.data_gb == tenant.nodes_requested * config.data_gb_per_node
            assert tenant.benchmark in ("tpch", "tpcds")
            assert tenant.tz_offset_hours in config.logs.tz_offsets_hours

    def test_deterministic(self, config, library):
        a = MultiTenantLogComposer(config, library).compose()
        b = MultiTenantLogComposer(config, library).compose()
        assert [t.nodes_requested for t in a.tenants] == [
            t.nodes_requested for t in b.tenants
        ]
        assert a.picks_of(0) == b.picks_of(0)

    def test_three_sessions_per_workday(self, workload, config):
        # morning + afternoon + evening on every non-holiday workday.
        logs = config.logs
        workdays = sum(
            1 for d in range(logs.horizon_days) if d % 7 < logs.workdays_per_week
        )
        expected = workdays * 3  # holiday_weekdays = 0 in the tiny config
        for tenant_id in workload.tenant_ids[:5]:
            assert len(workload.picks_of(tenant_id)) == expected

    def test_session_start_offsets(self, workload, config):
        # Morning at O, afternoon at O + 5 h (3 h session + 2 h lunch),
        # evening at O + 14 h.
        tenant = workload.tenants[0]
        picks = workload.picks_of(tenant.tenant_id)
        day_starts = sorted({p.shift_s // DAY for p in picks})
        first_day = [p for p in picks if p.shift_s // DAY == day_starts[0]]
        offsets = sorted((p.shift_s % DAY) / HOUR for p in first_day)
        base = tenant.tz_offset_hours
        assert offsets == [base, base + 5, base + 14]

    def test_weekends_inactive(self, workload, config):
        # Each pick is scheduled on a workday at one of the three session
        # offsets (morning O, afternoon O+5h, evening O+14h); sessions may
        # spill past midnight, so recover the *scheduled* day first.
        logs = config.logs
        for tenant_id in workload.tenant_ids[:5]:
            tenant = workload.tenant(tenant_id)
            base = tenant.tz_offset_hours
            session_offsets = {base, base + 5, base + 14}
            for pick in workload.picks_of(tenant_id):
                hours_total = pick.shift_s / HOUR
                matched = [
                    (hours_total - off) / 24
                    for off in session_offsets
                    if (hours_total - off) % 24 == 0 and hours_total >= off
                ]
                assert matched, f"pick at {pick.shift_s} matches no session offset"
                day = int(matched[0])
                assert day % 7 < logs.workdays_per_week

    def test_tenant_log_materialization(self, workload):
        log = workload.tenant_log(0)
        assert len(log) > 0
        assert log.tenant_id == 0
        assert log.horizon_s() <= workload.horizon_s

    def test_unknown_tenant_rejected(self, workload):
        with pytest.raises(WorkloadError):
            workload.tenant(10**6)
        with pytest.raises(WorkloadError):
            workload.tenant_log(10**6)

    def test_subset(self, workload):
        sub = workload.subset([0, 1, 2])
        assert len(sub) == 3
        assert sub.picks_of(1) == workload.picks_of(1)

    def test_total_nodes_requested(self, workload):
        assert workload.total_nodes_requested() == sum(
            t.nodes_requested for t in workload.tenants
        )


class TestActivityEpochs:
    def test_matches_materialized_log(self, workload):
        # The fast epoch-shift path must agree with discretizing the fully
        # materialized log.
        from repro.workload.activity import active_epoch_indices

        for tenant_id in workload.tenant_ids[:3]:
            fast = workload.activity_epochs(tenant_id, 10.0)
            log = workload.tenant_log(tenant_id)
            slow = active_epoch_indices(log.busy_intervals(), 10.0)
            slow = slow[slow < workload.num_epochs(10.0)]
            assert np.array_equal(fast, slow)

    def test_unaligned_epoch_size_fallback(self, workload):
        # 7.0 s does not divide an hour; the fallback path must still
        # agree with the materialized log.
        from repro.workload.activity import active_epoch_indices

        tenant_id = workload.tenant_ids[0]
        fast = workload.activity_epochs(tenant_id, 7.0)
        log = workload.tenant_log(tenant_id)
        slow = active_epoch_indices(log.busy_intervals(), 7.0)
        slow = slow[slow < workload.num_epochs(7.0)]
        assert np.array_equal(fast, slow)

    @staticmethod
    def _edge_workload(horizon_s):
        # Busy intervals (0, 10) and (55, 60) end on a 10 s epoch boundary,
        # (25, 25) has zero length; the picks at 0 s and 20 s overlap, so
        # their epoch sets share indices.
        records = tuple(
            QueryRecord(submit_time_s=s, latency_s=w, template="q")
            for s, w in [(0.0, 10.0), (25.0, 0.0), (30.0, 5.0), (55.0, 5.0)]
        )
        session = SessionLog(
            node_size=2, benchmark="tpch", num_users=1, records=records, duration_s=60.0
        )
        library = SessionLibrary({2: [session]})
        picks = tuple(SessionPick(2, 0, shift) for shift in (0.0, 20.0, 3600.0))
        tenant = TenantSpec(tenant_id=0, nodes_requested=2, data_gb=200.0)
        return ComposedWorkload([tenant], {0: picks}, library, horizon_s)

    def test_overlapping_picks_boundaries_and_zero_length(self):
        workload = self._edge_workload(3620.0)
        # Session epochs at E = 10: [0, 2, 3, 5]; shifted by 0, +2 and
        # +360, then clipped to d = 362.
        assert workload.activity_epochs(0, 10.0).tolist() == [0, 2, 3, 4, 5, 7, 360]

    @pytest.mark.parametrize("epoch_size", [10.0, 7.0, 0.5])
    def test_edge_workload_matches_materialized_log(self, epoch_size):
        # 7 s leaves the 20 s and 3600 s shifts unaligned (fallback branch)
        # while the 0 s shift stays on the cached path.
        workload = self._edge_workload(3630.0)
        fast = workload.activity_epochs(0, epoch_size)
        slow = active_epoch_indices(workload.tenant_log(0).busy_intervals(), epoch_size)
        slow = slow[slow < workload.num_epochs(epoch_size)]
        assert np.array_equal(fast, slow)
        assert fast.dtype == np.int64

    def test_concurrency_profile_sums(self, workload):
        counts = workload.concurrency_profile(60.0)
        total = sum(
            len(workload.activity_epochs(t, 60.0)) for t in workload.tenant_ids
        )
        assert counts.sum() == total

    def test_active_ratio_definitions(self, workload):
        cond = workload.active_tenant_ratio(60.0, conditional=True)
        uncond = workload.active_tenant_ratio(60.0, conditional=False)
        assert 0.0 < uncond <= cond <= 1.0


class TestHigherActiveRatioVariants:
    """§7.4: squeezing activity raises the (conditional) active ratio."""

    @pytest.fixture(scope="class")
    def variants(self):
        base = tiny_config(num_tenants=60, seed=11)
        library = SessionLogGenerator(base, sessions_per_size=3).generate()
        ratios = {}
        for name, logs in [
            ("default", base.logs),
            ("na", base.logs.north_america_only()),
            ("na-nolunch", base.logs.north_america_only().without_lunch()),
            ("single-tz", base.logs.single_timezone().without_lunch()),
        ]:
            config = base.scaled(logs=logs)
            workload = MultiTenantLogComposer(config, library).compose()
            ratios[name] = workload.active_tenant_ratio(60.0, conditional=True)
        return ratios

    def test_variants_increase_ratio(self, variants):
        assert variants["na"] > variants["default"]
        assert variants["single-tz"] > variants["na"]

    def test_no_lunch_increases_over_na(self, variants):
        assert variants["na-nolunch"] >= variants["na"] * 0.95


class TestSessionPick:
    def test_negative_shift_rejected(self):
        with pytest.raises(WorkloadError):
            SessionPick(node_size=2, session_index=0, shift_s=-1.0)


class TestComposerValidation:
    def test_library_must_cover_sizes(self, library):
        config = tiny_config(node_sizes=(2, 4, 8, 16))
        with pytest.raises(WorkloadError):
            MultiTenantLogComposer(config, library)

    def test_compose_zero_tenants_rejected(self, config, library):
        composer = MultiTenantLogComposer(config, library)
        with pytest.raises(WorkloadError):
            composer.compose(num_tenants=0)
