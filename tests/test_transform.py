"""Moment constants of the power transform and the log-Laplace tail constant.

Closed-form oracles: E|xi|^gamma = 2^(gamma/2) Gamma((gamma+1)/2) / sqrt(pi)
gives c_1 = sqrt(2/pi), c_2 = 1, E xi^4 = 3. For gamma = 1 the Laplace
transform of |xi| has the closed form E exp(u|xi|) = 2 exp(u^2/2) Phi(u),
which pins the quadrature to machine precision. Everything else is checked
against frozen high-precision values or an independent Monte Carlo draw.
"""

import math

import numpy as np
import pytest
from scipy import optimize, special

from lave import transform
from lave.calibration import CalibrationSpec, calibrate_lambda
from lave.estimator import EstimatorConfig, batch_estimate, estimate_path
from lave.series import ReturnSeries
from lave.transform import (
    LaplaceCurve,
    compute_a_gamma,
    gaussian_abs_moment,
    laplace_curve,
    log_laplace_ratio,
    noise_sample,
    power_constants,
    power_transform,
)

A_LIMIT_AT_ONE = np.pi / (np.pi - 2.0)  # sup of the gamma=1 ratio as u -> inf


class TestGaussianAbsMoment:
    def test_closed_forms(self):
        assert gaussian_abs_moment(1.0) == pytest.approx(np.sqrt(2.0 / np.pi), rel=1e-13)
        assert gaussian_abs_moment(2.0) == pytest.approx(1.0, rel=1e-13)
        assert gaussian_abs_moment(4.0) == pytest.approx(3.0, rel=1e-13)
        assert gaussian_abs_moment(6.0) == pytest.approx(15.0, rel=1e-12)

    def test_frozen_half_power(self):
        assert gaussian_abs_moment(0.5) == pytest.approx(0.822178958662, abs=1e-10)

    def test_monte_carlo_cross_check(self):
        xi = np.random.default_rng(2).standard_normal(400_000)
        for g in (0.5, 1.3):
            sample = np.abs(xi) ** g
            se = sample.std() / np.sqrt(sample.size)
            assert abs(sample.mean() - gaussian_abs_moment(g)) < 4 * se

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gaussian_abs_moment(0.0)
        with pytest.raises(ValueError):
            gaussian_abs_moment(-0.5)


class TestLgamPort:
    """transform._lgam is cephes lgam in Python floats: scipy.special.gammaln's
    bits, without importing scipy.special."""

    def _assert_gammaln_bits(self, xs):
        got = np.array([transform._lgam(x) for x in xs])
        assert got.tobytes() == special.gammaln(np.array(xs)).tobytes()

    def test_log_uniform_spread(self):
        # every branch: the shift into [2, 3), the Stirling tail below 1000,
        # its short form to 1e8, the bare Stirling term beyond, and inf past
        # _MAXLGM
        xs = 10.0 ** np.random.default_rng(11).uniform(-3.0, 9.0, 50_000)
        top = transform._MAXLGM
        self._assert_gammaln_bits(
            xs.tolist() + [2.0, 3.0, 13.0, 1000.0, 1e8, top, np.nextafter(top, np.inf), 1.7e308]
        )

    def test_every_half_integer_to_one_hundred(self):
        self._assert_gammaln_bits((np.arange(1, 201) / 2.0).tolist())

    def test_the_arguments_moment_constants_uses(self):
        gammas = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0]
        # moment_constants takes gaussian_abs_moment at gamma and 2 gamma
        self._assert_gammaln_bits([0.5 * (k * g + 1.0) for k in (1, 2) for g in gammas])
        for g in gammas:
            expect = np.exp(
                0.5 * g * np.log(2.0) + special.gammaln(0.5 * (g + 1.0)) - 0.5 * np.log(np.pi)
            )
            assert gaussian_abs_moment(g) == float(expect)


def _assert_golden_bits(func, bracket):
    # transform._golden_section against scipy's golden-section search, bit for bit
    ref = optimize.minimize_scalar(func, bracket=bracket, method="golden", options={"xtol": 1e-10})
    x, fun = transform._golden_section(func, *bracket)
    assert np.float64(x).tobytes() == np.float64(ref.x).tobytes()
    assert np.float64(fun).tobytes() == np.float64(ref.fun).tobytes()


class TestGoldenSectionPort:
    """transform._golden_section takes scipy's golden-section steps one for
    one, so a_gamma keeps scipy's bits without importing scipy.optimize."""

    def test_the_brackets_compute_a_gamma_refines(self, monkeypatch):
        real = transform._golden_section
        seen = []

        def recording(func, xa, xb, xc):
            seen.append((gamma, func, (xa, xb, xc)))
            return real(func, xa, xb, xc)

        gammas = [k / 20 for k in range(1, 21)]
        with monkeypatch.context() as m:
            m.setattr(transform, "_golden_section", recording)
            for gamma in gammas:
                compute_a_gamma(transform.moment_constants(gamma))
        # below 0.5 the ratio peaks as u -> 0+, at 1 it rises toward its limit
        assert [g for g, _, _ in seen] == gammas[9:19]
        for _, func, bracket in seen:
            _assert_golden_bits(func, bracket)

    @pytest.mark.parametrize(
        "func, bracket",
        [
            (lambda x: (x - 1.0) ** 2, (0.0, 0.5, 3.0)),
            (lambda x: (x - 1.0) ** 2, (-2.0, 1.5, 2.0)),
            (math.cos, (2.5, 3.0, 3.5)),
            (math.cos, (2.0, 3.0, 5.0)),
            (math.cos, (1.0, 3.5, 4.0)),
            (lambda x: x * math.log(x), (0.1, 0.2, 1.0)),
            (lambda x: x * math.log(x), (0.05, 0.6, 0.7)),
        ],
    )
    def test_analytic_brackets_split_either_side_first(self, func, bracket):
        # the first split goes into the wider side of the bracket, the left
        # one on a tie
        _assert_golden_bits(func, bracket)


class TestPowerConstants:
    def test_gamma_two_exact(self):
        p = power_constants(2.0)
        assert p.c_gamma == pytest.approx(1.0, abs=1e-10)
        assert p.d_gamma**2 == pytest.approx(2.0, abs=1e-10)
        assert p.s_gamma == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert p.a_gamma is None

    def test_frozen_table(self):
        half = power_constants(0.5)
        assert half.c_gamma == pytest.approx(0.822178958662, abs=1e-9)
        assert half.d_gamma**2 == pytest.approx(0.121906320736, abs=1e-9)
        assert half.s_gamma == pytest.approx(0.424665278797, abs=1e-9)
        one = power_constants(1.0)
        assert one.c_gamma == pytest.approx(0.797884560803, abs=1e-9)
        assert one.d_gamma**2 == pytest.approx(0.363380227632, abs=1e-9)
        assert one.s_gamma == pytest.approx(0.755510639763, abs=1e-9)

    def test_tail_constant_only_at_or_below_one(self):
        assert power_constants(0.5).a_gamma is not None
        assert power_constants(1.0).a_gamma is not None
        assert power_constants(1.5).a_gamma is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            power_constants(-1.0)
        with pytest.raises(ValueError, match="gamma must be positive"):
            transform.moment_constants(0.0)

    def test_scan_and_calibration_never_compute_the_tail_constant(self, monkeypatch):
        def no_tail_constant(params):
            raise AssertionError("a_gamma was computed")

        transform._moment_constants_cached.cache_clear()
        transform._power_constants_cached.cache_clear()
        monkeypatch.setattr(transform, "compute_a_gamma", no_tail_constant)
        config = EstimatorConfig(gamma=0.5, m0=10, lam=2.4)
        returns = np.random.default_rng(0).standard_normal((3, 200))
        assert len(estimate_path(ReturnSeries(returns[0]), config)) == 181
        assert batch_estimate(returns, config)[1].shape == (3, 181)
        calibrate_lambda(CalibrationSpec(gamma=0.5, M=40, replications=200, seed=1))
        with pytest.raises(AssertionError, match="a_gamma was computed"):
            power_constants(0.5)
        monkeypatch.undo()
        assert power_constants(0.5).a_gamma == pytest.approx(1.004584942408, abs=1e-9)


class TestPowerTransform:
    def test_elementwise(self):
        r = ReturnSeries([-4.0, 0.0, 9.0])
        y = power_transform(r, 0.5)
        np.testing.assert_allclose(y.values, [2.0, 0.0, 3.0], rtol=1e-15)
        assert y.gamma == 0.5

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            power_transform(ReturnSeries([1.0]), 0.0)


class TestNoiseSample:
    def test_seed_determinism(self, p05):
        a = noise_sample(p05, 1000, seed=7)
        b = noise_sample(p05, 1000, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, noise_sample(p05, 1000, seed=8))

    def test_standardization(self, p05):
        z = noise_sample(p05, 1_000_000, seed=0)
        assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
        assert z.var() == pytest.approx(1.0, abs=0.02)

    def test_rejects_nonpositive_count(self, p05):
        with pytest.raises(ValueError):
            noise_sample(p05, 0, seed=0)


class TestLogLaplaceRatio:
    def test_gamma_one_closed_form(self):
        # E exp(v|xi|) = 2 exp(v^2/2) Phi(v) with v = u/d, then recenter by uc/d.
        # The 2/u^2 scaling amplifies the fixed quadrature error at small u,
        # so the tolerance widens as u shrinks.
        p = power_constants(1.0)
        for u, rel in ((1e-3, 1e-5), (0.01, 1e-7), (0.1, 1e-9), (1.0, 1e-12),
                       (5.0, 1e-12), (20.0, 1e-12), (100.0, 1e-12)):
            v = u / p.d_gamma
            log_mgf = 0.5 * v * v + np.log(2.0) + special.log_ndtr(v) - u * p.c_gamma / p.d_gamma
            assert log_laplace_ratio(p, u) == pytest.approx(2.0 * log_mgf / u**2, rel=rel)

    def test_small_u_limit_is_unit_variance(self, p05):
        assert log_laplace_ratio(p05, 0.01) == pytest.approx(1.0, abs=2e-3)

    def test_monte_carlo_cross_check(self, p05):
        u = 1.0
        z = noise_sample(p05, 200_000, seed=1)
        sample = np.exp(u * z)
        se = sample.std() / np.sqrt(sample.size)
        mc_ratio = 2.0 * np.log(sample.mean()) / u**2
        se_ratio = 2.0 * se / (sample.mean() * u**2)
        assert abs(log_laplace_ratio(p05, u) - mc_ratio) < 4 * se_ratio

    def test_domain_errors(self, p05, p20):
        with pytest.raises(ValueError):
            log_laplace_ratio(p20, 1.0)
        with pytest.raises(ValueError):
            log_laplace_ratio(p05, 0.0)


class TestTailConstant:
    def test_half_power_band(self, p05):
        # frozen quadrature value; the supremum sits near u = 0.325
        assert 1.003 <= p05.a_gamma <= 1.007
        assert p05.a_gamma == pytest.approx(1.004584942408, abs=1e-6)

    def test_gamma_one_approaches_limit_from_below(self):
        a1 = power_constants(1.0).a_gamma
        assert a1 == pytest.approx(2.75173158858, abs=1e-5)
        assert a1 < A_LIMIT_AT_ONE
        assert A_LIMIT_AT_ONE - a1 < 2.5e-4

    def test_never_below_one(self):
        # the u -> 0+ limit of the ratio is exactly 1 for every gamma
        for g in (0.25, 0.75, 1.0):
            assert compute_a_gamma(power_constants(g)) >= 1.0

    def test_rejects_gamma_above_one(self, p20):
        with pytest.raises(ValueError):
            compute_a_gamma(p20)


class TestLaplaceCurve:
    def test_default_grid(self, p05):
        curve = laplace_curve(p05)
        assert curve.u_grid.shape == curve.ratio.shape
        assert np.all(curve.u_grid > 0)
        assert float(curve.ratio.max()) <= p05.a_gamma + 1e-9

    def test_custom_grid_matches_pointwise(self, p05):
        us = [0.5, 1.0, 2.0]
        curve = laplace_curve(p05, u_grid=us)
        for u, r in zip(us, curve.ratio):
            assert r == log_laplace_ratio(p05, u)

    def test_validation(self):
        with pytest.raises(ValueError):
            LaplaceCurve(u_grid=np.array([1.0, 2.0]), ratio=np.array([1.0]))
        with pytest.raises(ValueError):
            LaplaceCurve(u_grid=np.array([0.0, 1.0]), ratio=np.array([1.0, 1.0]))
