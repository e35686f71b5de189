"""Change-point designs, truth diagnostics, and the experiment harness.

Frozen oracle values come from the seeded engine itself: the two-jump
design (80 at sigma 1, 80 at 3, 80 at 1) with 100 replications at seed 0
has median selected length 80 at t = 80 and 20 at t = 90, and detection
delays shrink as the jump grows (medians 11.5 / 8.0 / 5.0 for jumps to
sigma 2 / 3 / 5 over 200 replications).
"""

import tracemalloc

import numpy as np
import pytest

import lave.simulation as simulation_mod
from lave.estimator import EstimatorConfig, estimate_path
from lave.series import ReturnSeries
from lave.simulation import (
    ChangePointSpec,
    batch_estimate,
    detectability_bound,
    detection_delays,
    generate_change_point_series,
    relative_error_criterion,
    run_change_point_experiment,
    truth_diagnostics,
)
from lave.transform import power_constants

TWO_JUMP_3X = ((80, 1.0), (80, 3.0), (80, 1.0))


class TestChangePointSpec:
    def test_paths_and_boundaries(self):
        spec = ChangePointSpec(segments=TWO_JUMP_3X)
        assert spec.total_length == 240
        assert spec.change_points() == [80, 160]
        sigma = spec.sigma_path()
        assert sigma.shape == (240,)
        assert sigma[79] == 1.0 and sigma[80] == 3.0 and sigma[160] == 1.0

    def test_segment_normalization(self):
        spec = ChangePointSpec(segments=[(10, 2), (5, 1)])
        assert spec.segments == ((10, 2.0), (5, 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChangePointSpec(segments=())
        with pytest.raises(ValueError):
            ChangePointSpec(segments=((0, 1.0),))
        with pytest.raises(ValueError):
            ChangePointSpec(segments=((10, 0.0),))


class TestGenerateSeries:
    def test_unit_variance_single_segment(self):
        r, sigma = generate_change_point_series(ChangePointSpec(segments=((10_000, 1.0),), seed=0))
        assert r.values.var() == pytest.approx(1.0, abs=0.04)
        assert np.all(sigma == 1.0)

    def test_seed_determinism_and_label(self):
        spec = ChangePointSpec(segments=TWO_JUMP_3X, seed=5)
        r1, _ = generate_change_point_series(spec)
        r2, _ = generate_change_point_series(spec)
        assert np.array_equal(r1.values, r2.values)
        assert "80x1/80x3/80x1" in r1.origin_label

    def test_scales_by_segment_sigma(self):
        spec = ChangePointSpec(segments=((50, 1.0), (50, 5.0)), seed=3)
        r, sigma = generate_change_point_series(spec)
        assert len(r) == 100
        # second segment has visibly larger spread
        assert np.abs(r.values[50:]).mean() > 2 * np.abs(r.values[:50]).mean()


class TestTruthDiagnostics:
    def test_zero_departure_inside_segment(self, p05):
        sigma = ChangePointSpec(segments=TWO_JUMP_3X).sigma_path()
        d = truth_diagnostics(sigma, tau=70, length=40, params=p05)
        assert d.delta == 0.0
        assert d.ratio == 0.0

    def test_jump_departure_at_gamma_two(self, p20):
        # theta = sigma^2 when gamma = 2, so a 1 -> 3 jump departs by 8
        sigma = ChangePointSpec(segments=((80, 1.0), (80, 3.0))).sigma_path()
        d = truth_diagnostics(sigma, tau=90, length=20, params=p20)
        assert d.delta == pytest.approx(8.0, rel=1e-12)

    def test_oracle_std_on_constant_window(self, p05):
        # sigma = 1 means theta = c, so v = s * c * sqrt(100) / 100 = d / 10
        sigma = np.ones(200)
        d = truth_diagnostics(sigma, tau=150, length=100, params=p05)
        assert d.v == pytest.approx(p05.d_gamma / 10.0, rel=1e-12)
        assert d.v == pytest.approx(0.0349151, abs=1e-6)

    def test_inverse_sqrt_scaling_within_segment(self, p05):
        sigma = np.ones(200)
        v25 = truth_diagnostics(sigma, 200, 25, p05).v
        v100 = truth_diagnostics(sigma, 200, 100, p05).v
        assert v25 == pytest.approx(2.0 * v100, rel=1e-12)

    def test_window_range_validation(self, p05):
        with pytest.raises(ValueError):
            truth_diagnostics(np.ones(100), tau=50, length=60, params=p05)
        with pytest.raises(ValueError):
            truth_diagnostics(np.ones(100), tau=120, length=10, params=p05)


class TestRelativeErrorCriterion:
    def test_exact_estimate_scores_zero(self):
        sigma = np.full(50, 2.0)
        assert relative_error_criterion([(sigma, sigma)], t_start=1) == 0.0

    def test_double_estimate_scores_count(self):
        sigma = np.full(30, 1.5)
        assert relative_error_criterion([(2 * sigma, sigma)], t_start=11) == pytest.approx(20.0, rel=1e-12)

    def test_sums_over_replications(self):
        sigma = np.ones(10)
        paths = [(2 * sigma, sigma), (2 * sigma, sigma), (sigma, sigma)]
        assert relative_error_criterion(paths, t_start=1) == pytest.approx(20.0, rel=1e-12)

    def test_missing_values_allowed_before_start_only(self):
        sigma = np.ones(10)
        hat = np.ones(10)
        hat[:3] = np.nan
        assert relative_error_criterion([(hat, sigma)], t_start=4) == 0.0
        with pytest.raises(ValueError):
            relative_error_criterion([(hat, sigma)], t_start=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_error_criterion([], t_start=1)
        with pytest.raises(ValueError):
            relative_error_criterion([(np.ones(5), np.ones(6))], t_start=1)
        with pytest.raises(ValueError):
            relative_error_criterion([(np.ones(5), np.zeros(5))], t_start=1)
        with pytest.raises(ValueError):
            relative_error_criterion([(np.ones(5), np.ones(5))], t_start=9)


class TestDetectabilityBound:
    def test_reference_points(self):
        assert detectability_bound(0.5) == pytest.approx(4.1213203, abs=1e-6)
        assert detectability_bound(0.2) == pytest.approx(0.9242641, abs=1e-6)

    def test_vanishes_at_zero(self):
        assert detectability_bound(1e-6) < 1e-5

    def test_domain(self):
        for rho in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                detectability_bound(rho)


class TestBatchEstimate:
    def test_matches_estimate_path(self):
        spec = ChangePointSpec(segments=TWO_JUMP_3X, seed=2)
        r, _ = generate_change_point_series(spec)
        config = EstimatorConfig(gamma=0.5, m0=10, lam=2.74, t0=20)
        taus, sigma, lens = batch_estimate(r.values[None, :], config)
        path = estimate_path(r, config)
        assert np.array_equal(taus, path.taus)
        np.testing.assert_array_equal(sigma[0], path.sigma_hat)
        np.testing.assert_array_equal(lens[0], path.interval_len)

    def test_rows_are_independent(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((4, 60))
        config = EstimatorConfig(gamma=1.0, m0=10, lam=2.24, t0=20)
        _, sigma_all, lens_all = batch_estimate(rows, config)
        for i in range(4):
            _, sigma_one, lens_one = batch_estimate(rows[i : i + 1], config)
            np.testing.assert_array_equal(sigma_all[i], sigma_one[0])
            np.testing.assert_array_equal(lens_all[i], lens_one[0])

    def test_t0_validation(self):
        config = EstimatorConfig(gamma=0.5, m0=10, lam=2.4, t0=100)
        with pytest.raises(ValueError):
            batch_estimate(np.ones((2, 50)), config)


class TestDetectionDelays:
    def test_hand_case(self):
        taus = np.arange(21, 31)
        lens = np.array([
            [30, 40, 50, 60, 20, 20, 30, 40, 50, 60],   # collapses at tau 25
            [30, 40, 50, 60, 70, 80, 90, 100, 110, 120],  # never collapses
        ])
        d = detection_delays(taus, lens, change_point=20, m0=10)
        assert d[0] == 5.0
        assert np.isnan(d[1])

    def test_gap_rows_do_not_count_as_collapse(self):
        taus = np.arange(21, 24)
        lens = np.array([[0, 0, 20]])
        d = detection_delays(taus, lens, change_point=20, m0=10)
        assert d[0] == 3.0

    def test_requires_times_after_change(self):
        with pytest.raises(ValueError):
            detection_delays(np.arange(21, 31), np.ones((1, 10)), change_point=40, m0=10)

    def test_delay_shrinks_with_jump_size(self):
        # larger jumps are detected sooner: medians 11.5 / 8.0 / 5.0
        config = EstimatorConfig(gamma=0.5, m0=10, lam=2.74, t0=20)
        medians = []
        for sigma_after in (2.0, 3.0, 5.0):
            spec = ChangePointSpec(segments=((80, 1.0), (80, sigma_after)))
            rng = np.random.default_rng(0)
            rows = spec.sigma_path() * rng.standard_normal((200, 160))
            taus, _, lens = batch_estimate(rows, config)
            medians.append(float(np.nanmedian(detection_delays(taus, lens, 80, 10))))
        assert medians == [11.5, 8.0, 5.0]
        assert all(a >= b for a, b in zip(medians, medians[1:]))


def _small_experiment():
    design = ChangePointSpec(segments=TWO_JUMP_3X, seed=0)
    return run_change_point_experiment(
        design, {(0.5, 80): 2.74}, replications=100, seed=0, t_start=20
    )


@pytest.fixture(scope="module")
def small_result():
    return _small_experiment()


class TestExperimentHarness:
    def test_cells_and_determinism(self, small_result):
        b = _small_experiment()
        assert len(small_result.cells) == 1
        cell = small_result.cells[0]
        assert cell.gamma == 0.5 and cell.m_label == 80 and cell.lam == 2.74
        assert cell.error > 0
        assert small_result.cells[0].error == b.cells[0].error

    def test_error_matches_criterion_definition(self, small_result):
        res = small_result
        design = ChangePointSpec(segments=TWO_JUMP_3X, seed=0)
        sigma = design.sigma_path()
        rng = np.random.default_rng(0)
        returns = sigma * rng.standard_normal((100, 240))
        config = EstimatorConfig(gamma=0.5, m0=10, lam=2.74, t0=20)
        taus, sigma_hat, _ = batch_estimate(returns, config)
        pairs = []
        for row in sigma_hat:
            full = np.full(240, np.nan)
            full[taus - 1] = row
            pairs.append((full, sigma))
        expected = relative_error_criterion(pairs, t_start=20)
        assert res.cells[0].error == pytest.approx(expected, rel=1e-12)

    def test_each_error_sums_its_thresholds_rows_in_c_order(self):
        # batch_estimate may return transposed views, and np.sum adds in
        # memory order: each cell's bits are those of the sum over a
        # C-contiguous (replications, taus) array
        design = ChangePointSpec(segments=TWO_JUMP_3X)
        lambdas = {(2.0, 40): 1.86, (2.0, 80): 2.18}
        res = run_change_point_experiment(
            design, lambdas, replications=300, seed=3, curves_for=[]
        )
        sigma = design.sigma_path()
        returns = sigma * np.random.default_rng(3).standard_normal((300, sigma.size))
        config = EstimatorConfig(gamma=2.0, m0=10, lam=1.86, t0=20)
        taus, sigma_hats, _ = batch_estimate(returns, config, lams=list(lambdas.values()))
        truth = sigma[taus - 1]
        assert [(cell.m_label, cell.lam) for cell in res.cells] == [(40, 1.86), (80, 2.18)]
        for cell, sigma_hat in zip(res.cells, sigma_hats):
            rows = np.ascontiguousarray(sigma_hat)
            assert cell.error == float(np.sum(((rows - truth) / truth) ** 2))

    def test_window_collapses_after_jump(self, small_result):
        curves = small_result.curves[(0.5, 80)]
        at = {int(t): m for t, m in zip(curves.taus, curves.len_median)}
        assert at[80] == 80.0
        assert at[90] == 20.0
        assert at[80] > at[90]

    def test_full_grid_has_six_cells(self):
        design = ChangePointSpec(segments=TWO_JUMP_3X)
        lambdas = {
            (0.5, 40): 2.40, (0.5, 80): 2.74,
            (1.0, 40): 2.24, (1.0, 80): 2.58,
            (2.0, 40): 1.86, (2.0, 80): 2.18,
        }
        res = run_change_point_experiment(design, lambdas, replications=30, seed=0)
        assert len(res.cells) == 6
        assert set(res.curves) == set(lambdas)

    def test_gammas_run_in_order_of_first_appearance(self):
        design = ChangePointSpec(segments=TWO_JUMP_3X)
        lambdas = {(2.0, 80): 3.18, (0.5, 80): 2.74, (2.0, 40): 2.41}
        res = run_change_point_experiment(design, lambdas, replications=10, seed=0)
        order = [(2.0, 40), (2.0, 80), (0.5, 80)]
        assert [(cell.gamma, cell.m_label) for cell in res.cells] == order
        assert list(res.curves) == order

    def test_curves_for_one_key_builds_that_curve_alone(self):
        design = ChangePointSpec(segments=TWO_JUMP_3X)
        lambdas = {(2.0, 80): 3.18, (0.5, 80): 2.74, (0.5, 40): 2.40, (2.0, 40): 2.41}
        full = run_change_point_experiment(design, lambdas, replications=40, seed=1)
        for key in lambdas:
            one = run_change_point_experiment(
                design, lambdas, replications=40, seed=1, curves_for=[key]
            )
            assert one.cells == full.cells
            assert list(one.curves) == [key]
            for field in vars(full.curves[key]):
                a, b = getattr(one.curves[key], field), getattr(full.curves[key], field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (key, field)

    def test_each_gammas_scan_results_are_dropped_before_the_next_scan(self):
        # one gamma's scan returns sigma_hat and lens for its two thresholds,
        # 2 x 1000 x 221 x 16 bytes = 6.7 MB; the next gamma's scan must not
        # run while they are still held
        design = ChangePointSpec(segments=TWO_JUMP_3X, seed=0)
        half = {(0.5, 40): 2.40, (0.5, 80): 2.74}
        unit = {(1.0, 40): 2.24, (1.0, 80): 2.58}
        peaks = []
        for lambdas in (half, unit, {**half, **unit}):
            tracemalloc.start()
            try:
                run_change_point_experiment(
                    design, lambdas, replications=1000, seed=1, curves_for=[]
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one_scan = 2 * 1000 * 221 * 16
        assert peaks[2] < max(peaks[:2]) + one_scan / 4

    def test_curves_for_a_key_not_run_is_an_error(self):
        design = ChangePointSpec(segments=TWO_JUMP_3X)
        with pytest.raises(ValueError, match="curves_for"):
            run_change_point_experiment(
                design, {(0.5, 80): 2.74}, replications=10, curves_for=[(1.0, 80)]
            )

    def test_no_matching_lambdas(self):
        design = ChangePointSpec(segments=TWO_JUMP_3X)
        with pytest.raises(ValueError):
            run_change_point_experiment(design, {}, replications=10)

    def test_replication_validation(self):
        design = ChangePointSpec(segments=TWO_JUMP_3X)
        with pytest.raises(ValueError):
            run_change_point_experiment(design, {(0.5, 80): 2.74}, replications=0)

    @pytest.mark.parametrize("t_start", [0, 241])
    def test_t_start_validation(self, t_start):
        design = ChangePointSpec(segments=TWO_JUMP_3X)
        with pytest.raises(ValueError, match=f"t_start={t_start} out of range for length 240"):
            run_change_point_experiment(
                design, {(0.5, 80): 2.74}, replications=10, t_start=t_start
            )


def test_quartiles_equal_numpy_percentile_bit_for_bit():
    # the curves' quartiles without np.percentile, which loads numpy.ma:
    # float and int input, with and without ties and signed zeros, at every
    # replication count from 1 to 2001
    rng = np.random.default_rng(0)
    for n in range(1, 2002):
        for x in (
            rng.lognormal(0.0, 1.0, (n, 3)),
            rng.integers(0, 40, (n, 3)) * 10,
            np.round(rng.standard_normal((n, 3)), 1),
        ):
            expect = np.percentile(x, [25.0, 50.0, 75.0], axis=0)
            got = simulation_mod._quartiles(x)
            assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), (n, x.dtype)
