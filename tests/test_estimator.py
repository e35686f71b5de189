"""Adaptive interval scan: hand-traced examples, invariants, and the
vectorized batch kernel pinned against the reference implementation.

The noiseless-step trace below is fully hand-checkable. With Y = 1 on
t <= 80 and Y = 10 on t > 80 (gamma = 0.5, lambda = 2.40, tau = 100,
m0 = 10, s = 0.4246653):

    candidate 20, J = 10: both windows all 10s, statistic 0
    candidate 30, J = 10: means 10 vs 5.5, statistic 4.5,
        threshold 2.40 s sqrt(10^2/10 + 5.5^2/20) = 3.458142 -> reject
    candidate 30, J = 20: means 10 vs 1, statistic 9,
        threshold 2.40 s sqrt(10^2/20 + 1^2/10) = 2.301670 -> reject

so the scan keeps length 20 with theta_hat = 10.
"""

import numpy as np
import pytest

from lave.errors import DegenerateWindowError
from lave.estimator import (
    EstimatorConfig,
    IntervalGrid,
    _scan_at_tau,
    batch_estimate,
    estimate_path,
    estimated_std,
    forecast_next,
    homogeneity_test,
    interval_mean,
    select_interval,
)
from lave.estimator import TestRecord as ScanRecord
from lave.series import ReturnSeries, VolEstimate, theta_to_sigma
from lave.transform import power_constants, power_transform


def step_series():
    """Y = |R|^0.5 equal to 1 then 10: R = 1 on t <= 80, R = 100 after."""
    r = np.where(np.arange(1, 101) <= 80, 1.0, 100.0)
    return power_transform(ReturnSeries(r), 0.5)


class TestIntervalGrid:
    def test_for_time_full(self):
        grid = IntervalGrid.for_time(100, 10)
        assert grid.interval_lengths == tuple(range(10, 101, 10))

    def test_max_len_cap(self):
        grid = IntervalGrid.for_time(100, 10, max_len=35)
        assert grid.interval_lengths == (10, 20, 30)

    def test_tau_below_m0(self):
        with pytest.raises(ValueError):
            IntervalGrid.for_time(5, 10)

    def test_integral_values_run_as_their_integers(self):
        grid = IntervalGrid.for_time(100.0, np.int64(10), max_len=np.float64(35.0))
        assert grid == IntervalGrid.for_time(100, 10, max_len=35)
        assert type(grid.tau) is int and type(grid.m0) is int

    @pytest.mark.parametrize(
        "args, name",
        [((100, 10, 35.9), "max_len"), ((100, 2.5), "m0"), ((99.5, 10), "tau"),
         ((100, float("nan")), "m0"), ((float("inf"), 10), "tau"), ((100, 10, "30"), "max_len")],
    )
    def test_non_integral_values_are_rejected(self, args, name):
        # max_len=35.9 once gave (10, 20, 30) without a word, and m0=2.5 a TypeError
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            IntervalGrid.for_time(*args)

    @pytest.mark.parametrize("m0", [0, -10])
    def test_m0_must_be_positive(self, m0):
        with pytest.raises(ValueError, match="m0 must be a positive integer"):
            IntervalGrid.for_time(100, m0)

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalGrid(m0=10, tau=50, interval_lengths=(10, 25))
        with pytest.raises(ValueError):
            IntervalGrid(m0=10, tau=50, interval_lengths=(10, 60))
        with pytest.raises(ValueError):
            IntervalGrid(m0=10, tau=50, interval_lengths=())


class TestIntervalMean:
    def test_constant(self, p05):
        y = power_transform(ReturnSeries([4.0, 4.0, 4.0, 4.0]), 0.5)
        assert interval_mean(y, 0, 4) == 2.0

    def test_arithmetic_mean(self, p05):
        y = power_transform(ReturnSeries([1.0, 4.0, 9.0]), 0.5)
        assert interval_mean(y, 0, 3) == 2.0

    def test_homogeneous_monte_carlo(self, p05):
        # window mean of |R|^gamma concentrates at c_gamma sigma^gamma
        sigma = 2.0
        rng = np.random.default_rng(4)
        y = power_transform(ReturnSeries(sigma * rng.standard_normal(10_000)), 0.5)
        target = p05.c_gamma * sigma**0.5
        tol = 4.0 * p05.s_gamma * target * 1e-2
        assert abs(interval_mean(y, 0, len(y)) - target) < tol

    def test_zero_window_degenerate(self):
        y = power_transform(ReturnSeries([0.0, 0.0, 1.0]), 0.5)
        with pytest.raises(DegenerateWindowError):
            interval_mean(y, 0, 2)

    def test_bad_range(self):
        y = power_transform(ReturnSeries([1.0, 1.0]), 0.5)
        with pytest.raises(ValueError):
            interval_mean(y, 1, 1)
        with pytest.raises(ValueError):
            interval_mean(y, 0, 3)


class TestEstimatedStd:
    def test_unit_arguments(self, p20):
        assert estimated_std(1.0, 1, p20) == p20.s_gamma
        assert p20.s_gamma == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_inverse_sqrt_length(self, p20):
        assert estimated_std(1.0, 100, p20) == pytest.approx(np.sqrt(2.0) / 10.0, abs=1e-10)

    def test_linear_in_theta(self, p05):
        assert estimated_std(2.0, 25, p05) == pytest.approx(2 * estimated_std(1.0, 25, p05), rel=1e-15)

    def test_domain_errors(self, p05):
        with pytest.raises(ValueError):
            estimated_std(0.0, 10, p05)
        with pytest.raises(ValueError):
            estimated_std(1.0, 0, p05)


class TestHomogeneityTest:
    def test_constant_never_rejects(self, p05):
        y = power_transform(ReturnSeries(np.full(40, 2.5)), 0.5)
        for lam in (0.01, 1.0, 100.0):
            ht = homogeneity_test(y, 20, 10, 40, lam, p05)
            assert ht.statistic == 0.0
            assert not ht.reject

    def test_ten_vs_ten_example(self, p05):
        # means 1 and 10 over two length-10 windows at lambda = 2.40
        y = power_transform(ReturnSeries([1.0] * 10 + [100.0] * 10), 0.5)
        ht = homogeneity_test(y, 20, 10, 20, 2.40, p05)
        assert ht.statistic == pytest.approx(9.0, abs=1e-12)
        assert ht.threshold == pytest.approx(3.239058, abs=1e-5)
        assert ht.reject

    def test_scale_equivariance_of_decision(self, p05):
        rng = np.random.default_rng(9)
        base = rng.standard_normal(60)
        ref = homogeneity_test(power_transform(ReturnSeries(base), 0.5), 40, 20, 60, 1.2, p05)
        for c in (0.01, 3.0, 1000.0):
            ht = homogeneity_test(power_transform(ReturnSeries(c * base), 0.5), 40, 20, 60, 1.2, p05)
            scale = c**0.5
            assert ht.reject == ref.reject
            assert ht.statistic == pytest.approx(scale * ref.statistic, rel=1e-12)
            assert ht.threshold == pytest.approx(scale * ref.threshold, rel=1e-12)

    def test_degenerate_subwindow(self, p05):
        y = power_transform(ReturnSeries([0.0] * 10 + [1.0] * 10), 0.5)
        with pytest.raises(DegenerateWindowError):
            homogeneity_test(y, 20, 10, 20, 2.4, p05)

    def test_validation(self, p05):
        y = power_transform(ReturnSeries(np.ones(30)), 0.5)
        with pytest.raises(ValueError):
            homogeneity_test(y, 20, 20, 30, 2.4, p05)
        with pytest.raises(ValueError):
            homogeneity_test(y, 40, 10, 30, 2.4, p05)
        with pytest.raises(ValueError):
            homogeneity_test(y, 20, 10, 40, 2.4, p05)
        with pytest.raises(ValueError):
            homogeneity_test(y, 20, 10, 30, 0.0, p05)


class TestSelectInterval:
    def test_constant_keeps_everything(self, p05):
        y = power_transform(ReturnSeries(np.full(100, 3.0)), 0.5)
        sel = select_interval(y, 100, 10, 2.40, p05)
        assert sel.chosen_len == 100
        assert sel.rejected_at is None
        assert all(not t.reject for t in sel.test_trace)
        # candidate k m0 runs k - 1 tests: total 1 + 2 + ... + 9
        assert len(sel.test_trace) == 45

    def test_noiseless_step_trace(self, p05):
        sel = select_interval(step_series(), 100, 10, 2.40, p05)
        assert sel.chosen_len == 20
        assert sel.rejected_at == 30
        assert sel.theta_hat == pytest.approx(10.0, rel=1e-12)
        assert sel.v_tilde == pytest.approx(p05.s_gamma * 10.0 / np.sqrt(20), rel=1e-12)
        expected = [
            (20, 10, 0.0, 4.557986, False),
            (30, 10, 4.5, 3.458142, True),
            (30, 20, 9.0, 2.301670, True),
        ]
        assert len(sel.test_trace) == len(expected)
        for rec, (cand, tl, stat, thr, rej) in zip(sel.test_trace, expected):
            assert rec.candidate_len == cand
            assert rec.test_len == tl
            assert rec.statistic == pytest.approx(stat, abs=1e-9)
            assert rec.threshold == pytest.approx(thr, abs=1e-5)
            assert rec.reject == rej

    def test_trace_consistency(self, p05):
        rng = np.random.default_rng(3)
        r = np.concatenate([rng.standard_normal(60), 5 * rng.standard_normal(40)])
        sel = select_interval(power_transform(ReturnSeries(r), 0.5), 100, 10, 2.0, p05)
        for rec in sel.test_trace:
            assert rec.reject == (rec.statistic > rec.threshold)
        rejected = sorted({rec.candidate_len for rec in sel.test_trace if rec.reject})
        if sel.rejected_at is None:
            assert not rejected
        else:
            assert rejected[0] == sel.rejected_at
            # scan stops at the first rejected candidate
            assert max(rec.candidate_len for rec in sel.test_trace) == sel.rejected_at
            assert sel.chosen_len == sel.rejected_at - 10

    def test_scale_equivariance(self, p05):
        rng = np.random.default_rng(5)
        base = np.concatenate([rng.standard_normal(70), 4 * rng.standard_normal(30)])
        ref = select_interval(power_transform(ReturnSeries(base), 0.5), 100, 10, 2.4, p05)
        for c in (0.5, 3.0):
            sel = select_interval(power_transform(ReturnSeries(c * base), 0.5), 100, 10, 2.4, p05)
            assert sel.chosen_len == ref.chosen_len
            assert sel.rejected_at == ref.rejected_at
            assert sel.theta_hat == pytest.approx(c**0.5 * ref.theta_hat, rel=1e-12)

    def test_prefix_determinism(self, p05):
        rng = np.random.default_rng(6)
        base = rng.standard_normal(120)
        tampered = base.copy()
        tampered[80:] = 999.0
        a = select_interval(power_transform(ReturnSeries(base), 0.5), 80, 10, 2.4, p05)
        b = select_interval(power_transform(ReturnSeries(tampered), 0.5), 80, 10, 2.4, p05)
        assert a.chosen_len == b.chosen_len
        assert a.theta_hat == b.theta_hat
        assert a.test_trace == b.test_trace

    def test_max_len_cap(self, p05):
        y = power_transform(ReturnSeries(np.full(100, 3.0)), 0.5)
        sel = select_interval(y, 100, 10, 2.40, p05, max_len=30)
        assert sel.chosen_len == 30

    def test_tau_beyond_series(self, p05):
        y = power_transform(ReturnSeries(np.ones(20)), 0.5)
        with pytest.raises(ValueError):
            select_interval(y, 30, 10, 2.4, p05)

    def test_integral_values_run_as_their_integers(self, p05):
        y = power_transform(ReturnSeries(np.random.default_rng(7).standard_normal(100)), 0.5)
        sel = select_interval(y, 100.0, 10.0, 2.4, p05, max_len=np.float64(60.0))
        same = select_interval(y, 100, 10, 2.4, p05, max_len=60)
        assert (sel.chosen_len, sel.theta_hat, sel.rejected_at) == (
            same.chosen_len, same.theta_hat, same.rejected_at
        )
        assert sel.test_trace == same.test_trace

    @pytest.mark.parametrize(
        "tau, m0, max_len, name",
        [(99.5, 10, None, "tau"), (100, 2.5, None, "m0"), (100, 10, 35.9, "max_len")],
    )
    def test_non_integral_values_are_rejected(self, p05, tau, m0, max_len, name):
        # tau=99.5 and tau=100.0 once raised a bare TypeError from slicing
        y = power_transform(ReturnSeries(np.ones(100)), 0.5)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            select_interval(y, tau, m0, 2.4, p05, max_len=max_len)

    def test_to_estimate_is_the_selected_window_as_an_estimate(self, p05):
        sel = select_interval(step_series(), 100, 10, 2.40, p05)
        expected = VolEstimate(
            theta_hat=sel.theta_hat,
            sigma_hat=theta_to_sigma(sel.theta_hat, p05),
            interval_len=sel.chosen_len,
            v_tilde=sel.v_tilde,
        )
        assert sel.to_estimate(p05) == expected
        assert expected.interval_len == 20
        assert expected.sigma_hat == pytest.approx(theta_to_sigma(10.0, p05), rel=1e-12)

    def test_scan_record_reject_property(self):
        assert ScanRecord(20, 10, 2.0, 1.0).reject
        assert not ScanRecord(20, 10, 1.0, 1.0).reject  # tie keeps the window


class TestBatchKernel:
    """The block-sum scan must reproduce select_interval exactly."""

    def cases(self):
        rng = np.random.default_rng(12)
        flat = rng.standard_normal(120)
        jump = np.concatenate([rng.standard_normal(60), 6 * rng.standard_normal(60)])
        return [flat, jump]

    def test_matches_reference(self, p05):
        for r in self.cases():
            y = power_transform(ReturnSeries(r), 0.5)
            for tau in (20, 47, 80, 120):
                chosen, theta, rejected, degenerate = _scan_at_tau(
                    y.values, tau, 10, 2.4, p05.s_gamma
                )
                sel = select_interval(y, tau, 10, 2.4, p05)
                assert not degenerate[0]
                assert chosen[0] == sel.chosen_len
                assert theta[0] == pytest.approx(sel.theta_hat, rel=1e-9)
                assert rejected[0] == (sel.rejected_at or 0)

    def test_many_rows_match_row_by_row(self, p05):
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((8, 90))
        chosen, theta, rejected, _ = _scan_at_tau(np.abs(rows) ** 0.5, 90, 10, 2.2, p05.s_gamma)
        for i in range(rows.shape[0]):
            sel = select_interval(power_transform(ReturnSeries(rows[i]), 0.5), 90, 10, 2.2, p05)
            assert chosen[i] == sel.chosen_len
            assert theta[i] == pytest.approx(sel.theta_hat, rel=1e-9)
            assert rejected[i] == (sel.rejected_at or 0)


class TestEstimatePath:
    def test_grid_membership_and_shape(self, p05):
        rng = np.random.default_rng(21)
        r = ReturnSeries(rng.standard_normal(150))
        path = estimate_path(r, EstimatorConfig(gamma=0.5, m0=10, lam=2.4))
        assert path.taus[0] == 20  # default t0 = 2 m0
        assert path.taus[-1] == 150
        assert len(path) == 131
        assert np.all(path.interval_len % 10 == 0)
        assert np.all(path.interval_len >= 10)
        np.testing.assert_allclose(
            path.sigma_hat, (path.theta_hat / p05.c_gamma) ** 2.0, rtol=1e-12
        )

    def test_homogeneous_final_rmse(self):
        # delta-method oracle: relative sd of sigma_hat is about s/(gamma sqrt(tau))
        sigma = 1.5
        rng = np.random.default_rng(123)
        config = EstimatorConfig(gamma=0.5, m0=10, lam=2.74, t0=20)
        finals = []
        for row in sigma * rng.standard_normal((60, 200)):
            path = estimate_path(ReturnSeries(row), config)
            finals.append(path.sigma_hat[-1])
        rmse = np.sqrt(np.mean(((np.asarray(finals) - sigma) / sigma) ** 2))
        p05 = power_constants(0.5)
        assert rmse < 2 * p05.s_gamma / (0.5 * np.sqrt(20))

    def test_degenerate_windows_become_gaps(self):
        r = ReturnSeries([0.0] * 30 + [1.0, -1.0] * 45)
        path = estimate_path(r, EstimatorConfig(gamma=0.5, m0=10, lam=2.4))
        # all-zero scan window at the start: flagged, not raised
        assert np.isnan(path.theta_hat[0])
        assert path.interval_len[0] == 0
        assert np.isnan(path.sigma_hat[0])
        assert [(t, s) for t, s in path.forecasts() if not np.isfinite(s)] == []

    def test_gap_positions_match_reference_errors(self, p05):
        r = ReturnSeries([0.0] * 30 + [1.0, -1.0] * 30)
        path = estimate_path(r, EstimatorConfig(gamma=0.5, m0=10, lam=2.4))
        y = power_transform(r, 0.5)
        for t, m in zip(path.taus, path.interval_len):
            if m == 0:
                with pytest.raises(DegenerateWindowError):
                    select_interval(y, int(t), 10, 2.4, p05)
            else:
                sel = select_interval(y, int(t), 10, 2.4, p05)
                assert sel.chosen_len == m

    def test_t0_validation(self):
        r = ReturnSeries(np.ones(50))
        with pytest.raises(ValueError):
            estimate_path(r, EstimatorConfig(gamma=0.5, m0=10, lam=2.4, t0=60))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(gamma=0.0, m0=10, lam=2.4)
        with pytest.raises(ValueError):
            EstimatorConfig(gamma=0.5, m0=0, lam=2.4)
        with pytest.raises(ValueError):
            EstimatorConfig(gamma=0.5, m0=10, lam=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(gamma=0.5, m0=10, lam=2.4, t0=5)
        with pytest.raises(ValueError):
            EstimatorConfig(gamma=0.5, m0=10, lam=2.4, max_len=5)

    def test_integral_float_m0_runs_as_its_integer(self):
        r = ReturnSeries(np.random.default_rng(22).standard_normal(120))
        config = EstimatorConfig(0.5, 10.0, 2.4)
        assert type(config.m0) is int
        path = estimate_path(r, config)
        same = estimate_path(r, EstimatorConfig(0.5, 10, 2.4))
        np.testing.assert_array_equal(path.interval_len, same.interval_len)
        np.testing.assert_array_equal(path.sigma_hat, same.sigma_hat)
        _, sigma, lens = batch_estimate(r.values[None, :], config)
        np.testing.assert_array_equal(lens[0], same.interval_len)
        np.testing.assert_allclose(sigma[0], same.sigma_hat, rtol=1e-12)
        assert forecast_next(r, 120, config) == forecast_next(r, 120, same.config)

    @pytest.mark.parametrize(
        "integral", [20.0, np.int64(20), np.float64(20.0)], ids=["float", "int64", "float64"]
    )
    def test_integral_t0_and_max_len_run_as_their_integers(self, integral):
        r = ReturnSeries(np.random.default_rng(23).standard_normal(150))
        config = EstimatorConfig(0.5, 10, 2.4, t0=integral, max_len=3 * integral)
        assert type(config.t0) is int and type(config.max_len) is int
        assert config == EstimatorConfig(0.5, 10, 2.4, t0=20, max_len=60)
        path = estimate_path(r, config)
        assert path.taus[0] == 20
        same = estimate_path(r, EstimatorConfig(0.5, 10, 2.4, t0=20, max_len=60))
        np.testing.assert_array_equal(path.sigma_hat, same.sigma_hat)
        np.testing.assert_array_equal(path.interval_len, same.interval_len)

    @pytest.mark.parametrize(
        "fields",
        [{"t0": 20.5}, {"max_len": 100.5}, {"t0": float("inf")}, {"max_len": float("nan")},
         {"t0": "20"}, {"m0": float("inf")}],
    )
    def test_non_integral_counts_are_rejected(self, fields):
        # t0=20.5 once started the scan at tau = 20 without a word
        with pytest.raises(ValueError, match="must be an integer"):
            EstimatorConfig(**{"gamma": 0.5, "m0": 10, "lam": 2.74, **fields})


class TestForecastNext:
    def test_time_must_be_an_integer(self):
        r = ReturnSeries(np.random.default_rng(24).standard_normal(150))
        config = EstimatorConfig(0.5, 10, 2.74)
        assert forecast_next(r, 100.0, config) == forecast_next(r, np.int64(100), config)
        assert forecast_next(r, 100.0, config) == estimate_path(r, config).sigma_hat[100 - 20]
        # 100.5 once raised a TypeError from slicing the series
        with pytest.raises(ValueError, match="t must be an integer"):
            forecast_next(r, 100.5, config)

    def test_constant_series_forecast(self, p05):
        # constant |R| = 2: the scan keeps everything, theta_hat = sqrt(2),
        # and the Gaussian plug-in inversion gives sigma_hat = 2 / c^2
        r = ReturnSeries(np.full(60, 2.0))
        f = forecast_next(r, 60, EstimatorConfig(gamma=0.5, m0=10, lam=2.4))
        assert f == pytest.approx(2.0 / p05.c_gamma**2, rel=1e-12)

    def test_causality_bitwise(self):
        rng = np.random.default_rng(31)
        base = rng.standard_normal(100)
        tampered = base.copy()
        tampered[60:] += 50.0
        config = EstimatorConfig(gamma=0.5, m0=10, lam=2.4)
        assert forecast_next(ReturnSeries(base), 60, config) == forecast_next(
            ReturnSeries(tampered), 60, config
        )

    def test_stability_across_seeds(self):
        # homogeneous model: the p = 0.5 criterion varies little across seeds
        config = EstimatorConfig(gamma=0.5, m0=10, lam=2.74, t0=20)
        scores = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            values = rng.standard_normal(240)
            r = ReturnSeries(values)
            path = estimate_path(r, config)
            terms = [
                np.sqrt(abs(values[t] ** 2 - s2))
                for t, s2 in path.forecasts()
                if t <= len(r) - 1
            ]
            scores.append(np.mean(terms))
        scores = np.asarray(scores)
        assert scores.std() / scores.mean() < 0.05

    def test_equals_estimate_path_bitwise(self):
        r = ReturnSeries(np.random.default_rng(0).standard_normal(2000))
        for config in (EstimatorConfig(0.5, 10, 2.74), EstimatorConfig(1.0, 5, 2.5, max_len=100)):
            path = estimate_path(r, config)
            for t in (config.start_time, 333, 1000, 2000):
                assert forecast_next(r, t, config) == path.sigma_hat[t - config.start_time]

    def test_raises_where_estimate_path_leaves_a_gap(self):
        r = ReturnSeries(np.r_[np.ones(30), np.zeros(20), np.ones(30)])
        config = EstimatorConfig(gamma=0.5, m0=10, lam=2.4)
        path = estimate_path(r, config)
        assert 0 < np.count_nonzero(path.interval_len == 0) < len(path)
        for t, m, sigma in zip(path.taus, path.interval_len, path.sigma_hat):
            if m == 0:
                with pytest.raises(DegenerateWindowError):
                    forecast_next(r, int(t), config)
            else:
                assert forecast_next(r, int(t), config) == sigma

    def test_range_validation(self):
        r = ReturnSeries(np.ones(50))
        config = EstimatorConfig(gamma=0.5, m0=10, lam=2.4)
        with pytest.raises(ValueError):
            forecast_next(r, 10, config)
        with pytest.raises(ValueError):
            forecast_next(r, 51, config)
