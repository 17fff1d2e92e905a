"""Shared benchmark fixtures and scales.

Every bench prints the rows/series its figure or table reports, then runs
its computation once under pytest-benchmark (rounds=1 — these are
experiments, not micro-benchmarks).

Scale: the paper's evaluation uses T = 5000 tenants and 30-day logs on an
EC2 cluster; the committed benches default to a laptop scale (documented
per experiment in EXPERIMENTS.md).  Set ``REPRO_BENCH_PROFILE=smoke`` for
a fast sanity pass or ``REPRO_BENCH_PROFILE=large`` to push closer to the
paper's scale.  Profile names resolve through
:func:`repro.analysis.sweeps.resolve_scale`, the one table of bench
scales.  Performance claims are measured by ``perfbench/`` (see
``perfbench/README.md``), not by these experiments.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.sweeps import BenchScale, resolve_scale


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--obs",
        action="store_true",
        default=False,
        help="run the repro.obs instrumentation-overhead bench (bench_headline)",
    )


@pytest.fixture(scope="session")
def obs_mode(pytestconfig: pytest.Config) -> bool:
    """Whether the observability-overhead bench was requested."""
    return bool(pytestconfig.getoption("--obs") or os.environ.get("REPRO_BENCH_OBS"))


def bench_profile() -> str:
    """The active profile name."""
    return os.environ.get("REPRO_BENCH_PROFILE", "default")


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    """The bench scale for this run."""
    return resolve_scale(bench_profile())


@pytest.fixture(scope="session")
def small_scale(scale: BenchScale) -> BenchScale:
    """A reduced scale for quadratic-cost sweeps (fine epochs, DIRECT)."""
    return BenchScale(
        num_tenants=max(100, scale.num_tenants // 2),
        horizon_days=scale.horizon_days,
        holiday_weekdays=scale.holiday_weekdays,
        sessions_per_size=scale.sessions_per_size,
        seed=scale.seed,
    )


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
