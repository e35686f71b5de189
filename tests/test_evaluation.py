"""Forecast scoring, moment summaries, autocorrelation, standardization.

Frozen seeded oracles: a Gaussian sample of 1e5 points at seed 0 has
kurtosis 3.0240; the two-jump design at seed 0 has raw kurtosis 5.1548
which drops to 3.0164 after standardizing by the adaptive estimate, with
the absolute-return autocorrelation moving from 19 of 50 lags outside the
3/sqrt(n) band to all 50 inside it.
"""

import math

import numpy as np
import pytest

import lave.garch as garch_mod
from lave.errors import DegenerateWindowError, GarchConvergenceError
from lave.estimator import EstimatorConfig, estimate_path
from lave.evaluation import (
    ForecastComparison,
    acf,
    compare_forecasters,
    forecast_criterion,
    standardized_returns,
    summary_stats,
)
from lave.series import ReturnSeries
from lave.simulation import ChangePointSpec, generate_change_point_series

DESIGN_A = ChangePointSpec(segments=((80, 1.0), (80, 3.0), (80, 1.0)), seed=0)
CFG = EstimatorConfig(gamma=0.5, m0=10, lam=2.74, t0=20)


@pytest.fixture(scope="module")
def design_a_series():
    r, sigma = generate_change_point_series(DESIGN_A)
    return r, sigma


@pytest.fixture(scope="module")
def design_a_standardized(design_a_series):
    r, _ = design_a_series
    path = estimate_path(r, CFG)
    aligned = np.full(len(r), np.nan)
    aligned[path.taus - 1] = path.sigma_hat
    return standardized_returns(r, aligned)


class TestForecastCriterion:
    def test_perfect_forecast_scores_zero(self):
        r = ReturnSeries(np.array([1.0, 2.0]))
        assert forecast_criterion(r, [(1, 4.0)]) == 0.0

    def test_single_term(self):
        # |2^2 - 1|^0.5 = sqrt(3)
        r = ReturnSeries(np.array([0.5, 2.0]))
        assert forecast_criterion(r, [(1, 1.0)]) == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_p_one_is_mean_absolute_error(self):
        r = ReturnSeries(np.array([1.0, 2.0, 3.0]))
        score = forecast_criterion(r, [(1, 1.0), (2, 2.0)], p=1.0)
        assert score == pytest.approx((3.0 + 7.0) / 2.0, rel=1e-12)

    def test_scales_with_half_power_of_variance(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(50)
        forecasts = [(t, 0.9) for t in range(1, 50)]
        base = forecast_criterion(ReturnSeries(values), forecasts)
        c = 3.0
        scaled = forecast_criterion(
            ReturnSeries(c * values), [(t, c**2 * s2) for t, s2 in forecasts]
        )
        assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_validation(self):
        r = ReturnSeries(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            forecast_criterion(r, [])
        with pytest.raises(ValueError):
            forecast_criterion(r, [(0, 1.0)])
        with pytest.raises(ValueError):
            forecast_criterion(r, [(3, 1.0)])
        with pytest.raises(ValueError):
            forecast_criterion(r, [(1, 1.0)], p=0.0)


class TestSummaryStats:
    def test_alternating_sequence_exact(self):
        s = summary_stats(ReturnSeries(np.array([1.0, -1.0, 1.0, -1.0])))
        assert (s.n, s.mean, s.variance, s.skewness, s.kurtosis) == (4, 0.0, 1.0, 0.0, 1.0)

    def test_gaussian_kurtosis_near_three(self):
        r = ReturnSeries(np.random.default_rng(0).standard_normal(100_000))
        s = summary_stats(r)
        assert s.kurtosis == pytest.approx(3.0240, abs=0.001)
        assert abs(s.kurtosis - 3.0) < 0.1
        assert abs(s.mean) < 0.02 and s.variance == pytest.approx(1.0, abs=0.02)

    def test_volatility_jumps_fatten_tails(self, design_a_series):
        r, _ = design_a_series
        assert summary_stats(r).kurtosis == pytest.approx(5.1548, abs=0.001)

    def test_matches_brute_force_moments(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            x = rng.standard_normal(n) * float(rng.uniform(0.1, 5.0))
            s = summary_stats(ReturnSeries(x))
            mean = math.fsum(x) / n
            m2 = math.fsum((v - mean) ** 2 for v in x) / n
            m3 = math.fsum((v - mean) ** 3 for v in x) / n
            m4 = math.fsum((v - mean) ** 4 for v in x) / n
            assert s.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
            assert s.variance == pytest.approx(m2, rel=1e-12)
            assert s.skewness == pytest.approx(m3 / m2**1.5, rel=1e-9, abs=1e-12)
            assert s.kurtosis == pytest.approx(m4 / m2**2, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            summary_stats(ReturnSeries(np.array([1.0, 2.0, 3.0])))
        with pytest.raises(DegenerateWindowError):
            summary_stats(ReturnSeries(np.full(10, 2.5)))


class TestAcf:
    def test_lag_zero_is_one(self):
        a = acf(np.random.default_rng(1).standard_normal(100), 5)
        assert a[0] == 1.0
        assert a.shape == (6,)

    def test_iid_noise_stays_inside_band(self):
        x = np.random.default_rng(7).standard_normal(10_000)
        a = acf(x, 50)
        inside = int(np.sum(np.abs(a[1:]) <= 3.0 / 100.0))
        assert inside >= 48  # frozen run: all 50

    def test_negation_invariance(self):
        x = np.random.default_rng(2).standard_normal(500)
        np.testing.assert_array_equal(acf(x, 20), acf(-x, 20))

    def test_absolute_returns_cluster_on_jump_design(self, design_a_series):
        r, _ = design_a_series
        a = acf(np.abs(r.values), 50)
        assert np.all(a[1:21] > 0.0)
        outside = int(np.sum(np.abs(a[1:]) > 3.0 / np.sqrt(len(r))))
        assert outside == 19

    def test_validation(self):
        x = np.random.default_rng(3).standard_normal(30)
        with pytest.raises(ValueError):
            acf(x, 0)
        with pytest.raises(ValueError):
            acf(x, 30)
        with pytest.raises(ValueError):
            acf(x.reshape(5, 6), 2)
        with pytest.raises(DegenerateWindowError):
            acf(np.ones(30), 3)


class TestStandardizedReturns:
    def test_known_sigma_gives_unit_variance(self):
        rng = np.random.default_rng(11)
        r = ReturnSeries(2.0 * rng.standard_normal(10_000))
        z = standardized_returns(r, np.full(10_000, 2.0))
        assert float(np.var(z)) == pytest.approx(1.0032, abs=0.001)
        assert abs(float(np.var(z)) - 1.0) < 0.05

    def test_common_rescaling_cancels(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(200)
        sigma = np.abs(rng.standard_normal(200)) + 0.5
        base = standardized_returns(ReturnSeries(values), sigma)
        doubled = standardized_returns(ReturnSeries(2.0 * values), 2.0 * sigma)
        np.testing.assert_array_equal(base, doubled)

    def test_undefined_entries_are_skipped(self):
        r = ReturnSeries(np.array([1.0, 2.0, 3.0, 4.0]))
        sigma = np.array([np.nan, 2.0, np.nan, 4.0])
        np.testing.assert_allclose(standardized_returns(r, sigma), [1.0, 1.0], rtol=1e-15)

    def test_validation(self):
        r = ReturnSeries(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            standardized_returns(r, np.ones(4))
        with pytest.raises(ValueError):
            standardized_returns(r, np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            standardized_returns(r, np.full(3, np.nan))

    def test_adaptive_standardization_restores_gaussian_texture(
        self, design_a_series, design_a_standardized
    ):
        # the adaptive estimate absorbs the jumps: kurtosis moves to ~3 and
        # the absolute-value autocorrelation falls back inside the noise band
        r, _ = design_a_series
        z = design_a_standardized
        raw_kurt = summary_stats(r).kurtosis
        std_kurt = summary_stats(ReturnSeries(z)).kurtosis
        assert std_kurt == pytest.approx(3.0164, abs=0.001)
        assert abs(std_kurt - 3.0) < abs(raw_kurt - 3.0)
        a = acf(np.abs(z), 50)
        inside = int(np.sum(np.abs(a[1:]) <= 3.0 / np.sqrt(len(z))))
        assert inside == 50


class TestCompareForecasters:
    def test_scores_and_fields_are_consistent(self):
        r = ReturnSeries(np.random.default_rng(21).standard_normal(450))
        comp = compare_forecasters(r, CFG)
        assert isinstance(comp, ForecastComparison)
        assert comp.lave_score > 0 and comp.garch_score > 0
        assert comp.ratio == comp.lave_score / comp.garch_score
        assert comp.t0 == 350
        assert comp.p == 0.5

    def test_window_and_p_are_wired_through(self):
        r = ReturnSeries(np.random.default_rng(21).standard_normal(450))
        comp = compare_forecasters(r, CFG, garch_window=400, p=1.0)
        assert comp.t0 == 400
        assert comp.p == 1.0

    def test_requires_common_range(self):
        # adaptive forecasts exist only at t = n, which has no target left
        r = ReturnSeries(np.random.default_rng(4).standard_normal(100))
        cfg = EstimatorConfig(gamma=0.5, m0=10, lam=2.74, t0=100)
        with pytest.raises(ValueError):
            compare_forecasters(r, cfg, garch_window=50)

    def test_garch_fallbacks_are_reported(self, monkeypatch):
        real_fit = garch_mod._fit
        calls = {"n": 0}

        def flaky(window, init):
            calls["n"] += 1
            if calls["n"] in (2, 5):
                raise GarchConvergenceError("budget", best_params=None, best_loglik=0.0)
            return real_fit(window, init)

        monkeypatch.setattr(garch_mod, "_fit", flaky)
        r = ReturnSeries(np.random.default_rng(21).standard_normal(120))
        comp = compare_forecasters(r, CFG, garch_window=100)
        assert comp.garch_fallback_times == (101, 104)
        assert len(comp.forecasts) == 20


# Gate 09's series refitted by the Nelder-Mead simplex from the previous
# optimum at every window (before warm local refits), seeds 0-19: the
# half-power adaptive/GARCH ratio and the mean log likelihood of the 250 fits.
SIMPLEX_REFIT_RATIOS = (
    0.91956, 1.00945, 0.94850, 0.96610, 0.97791, 0.98514, 0.94879, 0.98989,
    1.02146, 0.99547, 0.96401, 0.96397, 1.03753, 0.95680, 0.97176, 0.96731,
    0.93978, 1.00739, 0.97987, 1.05243,
)
SIMPLEX_REFIT_MEAN_LOGLIK = (
    -428.75683, -369.82578, -415.45026, -400.05575, -408.69757, -398.99083,
    -407.03591, -378.40977, -405.23815, -417.28364, -414.14256, -415.07473,
    -411.23501, -423.93586, -395.13517, -401.67020, -424.37206, -385.68845,
    -436.76283, -387.10276,
)


class TestBreakSeriesGarch:
    def test_warm_refits_stay_near_the_simplex_on_gate_09_series(self, monkeypatch):
        # A warm Newton refit that starts with persistence on its cap stays
        # there, where the simplex sometimes stepped to a higher interior
        # maximum; the GARCH forecasts then score worse and gate 09's ratio
        # falls. Measured worst: mean log likelihood 0.357 below the simplex
        # and ratio 0.95680 -> 0.93892, both seed 13. Refits frozen at the
        # first window's fit fall up to 2.07 below.
        real_fit = garch_mod._fit
        logliks = []

        def recording(window, init):
            params, path = real_fit(window, init)
            # garch_loglik of the fit on the window, from its variance path
            logliks.append(-0.5 * float(np.sum(np.log(path) + window.r2 / path)))
            return params, path

        monkeypatch.setattr(garch_mod, "_fit", recording)
        alternating = tuple((60, 1.0) if i % 2 == 0 else (60, 3.0) for i in range(10))
        loglik_gap, ratio_drift = [], []
        for seed in range(20):
            r, _ = generate_change_point_series(ChangePointSpec(alternating, seed=seed))
            logliks.clear()
            comp = compare_forecasters(r, CFG, garch_window=350)
            assert comp.garch_fallback_times == ()
            assert len(logliks) == 250
            loglik_gap.append(SIMPLEX_REFIT_MEAN_LOGLIK[seed] - float(np.mean(logliks)))
            ratio_drift.append(comp.ratio - SIMPLEX_REFIT_RATIOS[seed])
        assert max(loglik_gap) <= 0.4, [round(g, 5) for g in loglik_gap]
        assert min(ratio_drift) >= -0.02, [round(d, 5) for d in ratio_drift]
