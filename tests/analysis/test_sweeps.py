"""Experiment driver tests (smoke scale)."""

import pytest

from repro.analysis.sweeps import (
    BENCH_SCALES,
    GROUPING_HEADERS,
    SMOKE_SCALE,
    BenchScale,
    build_workload,
    resolve_scale,
    run_grouping_experiment,
    sweep_parameter,
)
from repro.errors import ConfigurationError, ReproError


class TestBenchScale:
    def test_config_fields(self):
        scale = BenchScale(num_tenants=50, horizon_days=7)
        config = scale.config()
        assert config.num_tenants == 50
        assert config.logs.horizon_days == 7

    def test_overrides(self):
        config = SMOKE_SCALE.config(replication_factor=2, sla_percent=99.0)
        assert config.replication_factor == 2
        assert config.sla_percent == 99.0


class TestBenchScales:
    def test_standard_scales_registered(self):
        assert {"smoke", "default", "large"} <= set(BENCH_SCALES)
        assert resolve_scale("smoke") is SMOKE_SCALE
        assert resolve_scale("smoke").num_tenants <= resolve_scale("default").num_tenants
        assert resolve_scale("default").num_tenants <= resolve_scale("large").num_tenants

    def test_unknown_scale_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_scale("galactic")

    def test_unknown_scale_error_names_the_options(self):
        with pytest.raises(ReproError) as info:
            resolve_scale("galactic")
        message = str(info.value)
        assert "galactic" in message
        for name in BENCH_SCALES:
            assert name in message


class TestBuildWorkload:
    def test_caching(self):
        config = SMOKE_SCALE.config()
        a = build_workload(config, SMOKE_SCALE.sessions_per_size)
        b = build_workload(config, SMOKE_SCALE.sessions_per_size)
        assert a is b

    def test_different_theta_different_workload(self):
        a = build_workload(SMOKE_SCALE.config(theta=0.2), SMOKE_SCALE.sessions_per_size)
        b = build_workload(SMOKE_SCALE.config(theta=0.8), SMOKE_SCALE.sessions_per_size)
        assert a is not b


class TestRunGroupingExperiment:
    def test_row_fields(self):
        config = SMOKE_SCALE.config()
        workload = build_workload(config, SMOKE_SCALE.sessions_per_size)
        row = run_grouping_experiment(
            workload,
            epoch_size=10.0,
            replication_factor=3,
            sla_percent=99.9,
            parameter="smoke",
            value="x",
        )
        assert 0.0 < row.two_step_effectiveness < 1.0
        assert 0.0 < row.ffd_effectiveness < 1.0
        assert row.two_step_group_size >= 1.0
        assert row.two_step_seconds > 0.0
        assert len(row.as_list()) == len(GROUPING_HEADERS)


class TestSweep:
    def test_sweep_replication_factor(self):
        rows = sweep_parameter("replication_factor", [1, 3], scale=SMOKE_SCALE)
        assert [r.value for r in rows] == [1, 3]
        # Figure 7.4b: larger R packs more tenants per group.
        assert rows[1].two_step_group_size > rows[0].two_step_group_size

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ReproError):
            sweep_parameter("flux_capacitor", [1])
