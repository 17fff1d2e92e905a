"""Proactive scaling policy tests (Ch. 5.1's rejected alternative)."""

import numpy as np
import pytest

from repro.core.scaling import ProactiveScaling
from repro.errors import ScalingError
from tests.core.test_scaling import _setup


def _fed(policy, samples, sla_fraction=0.5):
    """``policy`` attached to a quiet group and ticked once per ``(time, rt_ttp)``.

    With every sample at or above ``sla_fraction`` and a trend that stays
    above it, no tick fires, so each tick only records its sample.
    """
    _setup(policy, sla_fraction=sla_fraction)
    for time, rt_ttp in samples:
        assert policy.maybe_scale(time, rt_ttp) is None
    return policy


def _oracle_prediction(history, min_samples, at_time):
    """The linear-trend fit over the last ``4 * min_samples`` of an unbounded history."""
    samples = history[-min_samples * 4:]
    if len(samples) < min_samples:
        return None
    times = np.array([t for t, __ in samples])
    values = np.array([v for __, v in samples])
    t_mean = times.mean()
    v_mean = values.mean()
    denom = float(((times - t_mean) ** 2).sum())
    if denom == 0:
        return float(v_mean)
    slope = float(((times - t_mean) * (values - v_mean)).sum()) / denom
    return float(v_mean + slope * (at_time - t_mean))


class TestPredictor:
    def test_too_few_samples(self):
        policy = _fed(ProactiveScaling(min_samples=4), [(0.0, 1.0), (1.0, 0.99)])
        assert policy.predict_rt_ttp(10.0) is None

    def test_linear_trend_extrapolation(self):
        policy = _fed(
            ProactiveScaling(min_samples=3),
            [(0.0, 1.0), (100.0, 0.999), (200.0, 0.998), (300.0, 0.997)],
        )
        predicted = policy.predict_rt_ttp(400.0)
        assert predicted == pytest.approx(0.996, abs=1e-6)

    def test_flat_series_predicts_constant(self):
        policy = _fed(
            ProactiveScaling(min_samples=3), [(0.0, 0.9995), (100.0, 0.9995), (200.0, 0.9995)]
        )
        assert policy.predict_rt_ttp(10_000.0) == pytest.approx(0.9995)

    def test_no_samples(self):
        assert ProactiveScaling().predict_rt_ttp(0.0) is None

    def test_keeps_only_the_samples_it_fits(self):
        # A long run keeps 4 * min_samples samples, not the whole history,
        # and predicts bit for bit what a fit over the full history's tail does.
        min_samples, lead = 4, 3600.0
        policy = ProactiveScaling(min_samples=min_samples, lead_time_s=lead)
        _setup(policy, sla_fraction=0.5)
        rng = np.random.default_rng(11)
        history = []
        for tick in range(40 * min_samples):
            now = 600.0 * tick
            rt_ttp = float(rng.uniform(0.999, 1.0))
            history.append((now, rt_ttp))
            assert policy.maybe_scale(now, rt_ttp) is None
            assert len(policy._samples) == min(len(history), 4 * min_samples)
            at = now + lead
            assert policy.predict_rt_ttp(at) == _oracle_prediction(history, min_samples, at)


class TestTrigger:
    def test_fires_on_declining_trend_before_violation(self):
        # RT-TTP still above P but falling fast: proactive fires as soon
        # as the fitted trend reaches P within the lead time — a reactive
        # policy would still be idle (every observation is >= P).
        policy = ProactiveScaling(min_samples=3, lead_time_s=1000.0)
        _setup(policy, sla_fraction=0.999)
        series = [(0.0, 1.0), (100.0, 0.9998), (200.0, 0.9996), (300.0, 0.9994)]
        fired = [policy._should_scale(t, v) for t, v in series]
        assert not any(fired[:2])  # below min_samples: no prediction yet
        assert any(fired[2:])

    def test_does_not_fire_on_stable_series(self):
        policy = ProactiveScaling(min_samples=3, lead_time_s=1000.0)
        _setup(policy, sla_fraction=0.999)
        fired = [
            policy._should_scale(t, 0.9995)
            for t in (0.0, 100.0, 200.0, 300.0, 400.0)
        ]
        assert not any(fired)

    def test_reacts_when_already_violating(self):
        policy = ProactiveScaling(min_samples=10)
        _setup(policy, sla_fraction=0.999)
        assert policy._should_scale(0.0, 0.99)

    def test_spike_susceptibility(self):
        # The paper's caveat: a sharp drop followed by a sharp rise still
        # leaves a falling fitted trend, so the proactive policy fires on
        # a one-off spike a reactive policy would have ridden out.
        policy = ProactiveScaling(min_samples=4, lead_time_s=50_000.0)
        _setup(policy, sla_fraction=0.999)
        series = [(0.0, 1.0), (600.0, 1.0), (1200.0, 0.9992), (1800.0, 0.99985)]
        fired = [policy._should_scale(t, v) for t, v in series]
        assert fired[-1]  # fires even though RT-TTP is back near 1.0


class TestValidation:
    def test_lead_time_positive(self):
        with pytest.raises(ScalingError):
            ProactiveScaling(lead_time_s=0.0)

    def test_min_samples(self):
        with pytest.raises(ScalingError):
            ProactiveScaling(min_samples=1)
