"""Monte Carlo threshold calibration: frozen values, monotonicity,
scale-freeness, and the closed-form conservative bound.

Frozen oracle values (2000 replications, seed 0, m0 = 10, alpha = 0.05):
the bisection lands on lambda = 2.390625 for (gamma 0.5, M 40) and
2.734375 for (gamma 0.5, M 80), with achieved rates 0.0485 and 0.0495.
Both shipped reference thresholds round-trip to a rate inside 0.05 +/- 0.02
on the same draws.
"""

import numpy as np
import pytest

from lave.calibration import (
    CalibrationSpec,
    _max_test_ratios,
    calibrate_lambda,
    conservative_lambda,
    rejection_frequency,
    simulate_homogeneous,
)
from lave.errors import CalibrationBracketError
from lave.estimator import _scan_at_tau, homogeneity_test
from lave.series import TransformedSeries


class TestSimulateHomogeneous:
    def test_unit_mean(self, p05):
        y = simulate_homogeneous(1_000_000, p05, seed=0)
        assert abs(y.values.mean() - 1.0) < 4.0 * p05.s_gamma * 1e-3

    def test_noise_variance(self, p05):
        y = simulate_homogeneous(1_000_000, p05, seed=1)
        assert y.values.var() == pytest.approx(p05.s_gamma**2, abs=2e-3)

    def test_nonnegative(self, p05):
        y = simulate_homogeneous(10_000, p05, seed=2)
        assert float(y.values.min()) >= 0.0

    def test_seed_determinism(self, p05):
        a = simulate_homogeneous(100, p05, seed=3)
        b = simulate_homogeneous(100, p05, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_rejects_nonpositive_length(self, p05):
        with pytest.raises(ValueError):
            simulate_homogeneous(0, p05, seed=0)


class TestRejectionFrequency:
    def spec(self, gamma=0.5, M=40, reps=2000):
        return CalibrationSpec(gamma=gamma, M=M, m0=10, target_alpha=0.05,
                               replications=reps, seed=0)

    def test_large_lambda_never_rejects(self):
        assert rejection_frequency(6.0, self.spec()) <= 0.001

    def test_small_lambda_nearly_always_rejects(self):
        rate = rejection_frequency(0.5, self.spec())
        assert rate == pytest.approx(0.9135, abs=0.005)
        assert rate >= 0.9

    def test_monotone_in_lambda(self):
        spec = self.spec()
        rates = [rejection_frequency(lam, spec) for lam in (1.5, 2.0, 2.5, 3.0)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_shipped_threshold_round_trip(self):
        # both gamma = 0.5 reference thresholds hit the 5% target
        assert rejection_frequency(2.40, self.spec(M=40)) == pytest.approx(0.0465, abs=1e-12)
        assert rejection_frequency(2.74, self.spec(M=80)) == pytest.approx(0.0480, abs=1e-12)
        for rate in (0.0465, 0.0480):
            assert abs(rate - 0.05) <= 0.02

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            rejection_frequency(0.0, self.spec())


class TestMaxTestRatios:
    def test_window_is_longest_multiple_of_m0_below_M(self, p05):
        # M = 45 with m0 = 10: the longest candidate at tau = 45 has length
        # 40, and every split divides that window, not all 45 points
        spec = CalibrationSpec(gamma=0.5, M=45, m0=10, replications=40, seed=4)
        ratios = _max_test_ratios(spec)
        xi = np.random.default_rng(spec.seed).standard_normal((spec.replications, spec.M))
        for ratio, row in zip(ratios, xi):
            y = TransformedSeries(np.abs(row) ** 0.5 / p05.c_gamma, gamma=0.5)
            tests = [homogeneity_test(y, 40, j, 45, 1.0, p05) for j in (10, 20, 30)]
            expected = max(t.statistic / t.threshold for t in tests)
            assert ratio == pytest.approx(expected, rel=1e-9)


class TestCalibrateLambda:
    def test_frozen_values(self):
        spec40 = CalibrationSpec(gamma=0.5, M=40, m0=10, replications=2000, seed=0)
        res40 = calibrate_lambda(spec40)
        assert res40.lam == pytest.approx(2.390625, abs=5e-4)
        assert res40.achieved_rate == pytest.approx(0.0485, abs=1e-12)
        spec80 = CalibrationSpec(gamma=0.5, M=80, m0=10, replications=2000, seed=0)
        res80 = calibrate_lambda(spec80)
        assert res80.lam == pytest.approx(2.734375, abs=5e-4)
        assert res80.achieved_rate == pytest.approx(0.0495, abs=1e-12)

    def test_matches_shipped_half_power_threshold(self):
        res = calibrate_lambda(CalibrationSpec(gamma=0.5, M=40, m0=10, replications=2000, seed=0))
        assert abs(res.lam - 2.40) <= 0.15

    def test_squared_returns_cell_is_frozen(self):
        # the engine's own gamma = 2, M = 80 value is pinned here; it agrees
        # with the shipped table entry of 3.18 within acceptance gate 01's 0.15
        res = calibrate_lambda(CalibrationSpec(gamma=2.0, M=80, m0=10, replications=2000, seed=0))
        assert res.lam == pytest.approx(3.1640625, abs=5e-4)
        assert abs(res.achieved_rate - 0.05) <= max(0.005, res.ci_halfwidth)

    def test_longer_reference_window_needs_larger_lambda(self):
        lams = {}
        for M in (40, 80):
            spec = CalibrationSpec(gamma=0.5, M=M, m0=10, replications=2000, seed=0)
            lams[M] = calibrate_lambda(spec).lam
        assert lams[80] > lams[40]

    def test_achieved_rate_within_tolerance(self):
        res = calibrate_lambda(CalibrationSpec(gamma=1.0, M=40, m0=10, replications=2000, seed=0))
        assert abs(res.achieved_rate - 0.05) <= max(0.005, res.ci_halfwidth)
        assert res.ci_halfwidth == pytest.approx(1.96 * np.sqrt(0.05 * 0.95 / 2000), rel=1e-12)

    def test_bitwise_reproducibility(self):
        spec = CalibrationSpec(gamma=0.5, M=40, m0=10, replications=500, seed=11)
        a = calibrate_lambda(spec)
        b = calibrate_lambda(spec)
        assert a.lam == b.lam
        assert a.achieved_rate == b.achieved_rate

    def test_unreachable_target_raises_bracket_error(self):
        spec = CalibrationSpec(gamma=0.5, M=20, m0=10, target_alpha=0.9,
                               replications=500, seed=0)
        with pytest.raises(CalibrationBracketError) as err:
            calibrate_lambda(spec)
        assert err.value.rate_low < 0.9
        assert err.value.rate_high <= err.value.rate_low

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CalibrationSpec(gamma=0.5, M=15, m0=10)
        with pytest.raises(ValueError):
            CalibrationSpec(gamma=0.5, M=40, m0=10, target_alpha=1.0)
        with pytest.raises(ValueError):
            CalibrationSpec(gamma=0.5, M=40, m0=10, replications=0)
        with pytest.raises(ValueError):
            CalibrationSpec(gamma=-0.5, M=40, m0=10)
        with pytest.raises(ValueError, match="m0 must be a positive integer"):
            CalibrationSpec(gamma=0.5, M=40, m0=0)

    def test_integral_float_m0_runs_as_its_integer(self):
        spec = CalibrationSpec(0.5, 80, m0=10.0, replications=500)
        assert type(spec.m0) is int
        same = CalibrationSpec(0.5, 80, m0=10, replications=500)
        assert calibrate_lambda(spec).lam == calibrate_lambda(same).lam

    def test_integral_float_counts_run_as_their_integers(self):
        spec = CalibrationSpec(0.5, 80.0, replications=500.0)
        assert type(spec.M) is int and type(spec.replications) is int
        result = calibrate_lambda(spec)
        assert result.replications == 500
        assert result.lam == calibrate_lambda(CalibrationSpec(0.5, 80, replications=500)).lam

    @pytest.mark.parametrize(
        "fields",
        [{"M": 80.5}, {"replications": 200.5}, {"m0": 10.5}, {"M": float("inf")},
         {"replications": float("nan")}],
    )
    def test_non_integral_counts_are_rejected(self, fields):
        with pytest.raises(ValueError, match="must be an integer"):
            CalibrationSpec(**{"gamma": 0.5, "M": 80, **fields})


class TestScaleFreeness:
    def test_scan_decisions_ignore_the_level(self, p05):
        # the calibration model fixes the level at 1; any other level c
        # gives identical rejection decisions, so the calibrated lambda
        # cannot depend on it
        rng = np.random.default_rng(17)
        y = np.abs(rng.standard_normal((300, 40))) ** 0.5 / p05.c_gamma
        base = _scan_at_tau(y, 40, 10, 2.40, p05.s_gamma)
        for c in (0.01, 7.0, 1000.0):
            scaled = _scan_at_tau(c * y, 40, 10, 2.40, p05.s_gamma)
            assert np.array_equal(base[0], scaled[0])  # chosen lengths
            assert np.array_equal(base[2], scaled[2])  # rejected candidates


class TestConservativeLambda:
    def test_reference_evaluation(self):
        v = conservative_lambda(80, 10, 0.05, 1.005, 0.0)
        assert v == pytest.approx(3.1939159927, abs=1e-9)
        assert v == pytest.approx(3.194, abs=1e-3)

    def test_epsilon_is_a_linear_factor(self):
        v0 = conservative_lambda(80, 10, 0.05, 1.005, 0.0)
        assert conservative_lambda(80, 10, 0.05, 1.005, 0.05) == pytest.approx(1.05 * v0, rel=1e-15)

    def test_exceeds_monte_carlo_threshold(self):
        assert conservative_lambda(80, 10, 0.05, 1.005, 0.0) > 2.74

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            conservative_lambda(5, 100, 0.5, 1.005, 0.0)  # log argument below 1
        with pytest.raises(ValueError):
            conservative_lambda(80, 10, 0.0, 1.005, 0.0)
        with pytest.raises(ValueError):
            conservative_lambda(80, 10, 0.05, -1.0, 0.0)
        with pytest.raises(ValueError):
            conservative_lambda(80, 10, 0.05, 1.005, -0.1)
        with pytest.raises(ValueError):
            conservative_lambda(0, 10, 0.05, 1.005, 0.0)
