"""The block-of-taus scan kernel across its block boundaries and in memory.

_scan_path splits the taus into blocks of at most _BLOCK_ELEMENTS
working-set entries (rows x taus per block x candidates), at least one tau
each. These inputs are large enough to force many blocks: long series
without max_len, a wide batch where every block holds a single tau, and a
long series and a wide batch whose traced peak memory must stay bounded.

Within a block the kernel masks stopped rows and compacts its working set
once fewer than half of them are live. Rows that drop out at staggered
candidates, a zero block first reached after a compaction, and blocks
whose rows have different candidate counts pin that path to the reference.

Several thresholds share one scan: the working set holds a row while it is
live under the largest. Each threshold's results must equal a scan under
that threshold alone bit for bit, also where the set compacts while a
smaller threshold has already stopped many of the rows it keeps, and the
change-point experiment, which scans each gamma once for all of its
thresholds, must give the cells and curves of one run per threshold.
"""

import tracemalloc

import numpy as np
import pytest

from lave.errors import DegenerateWindowError
from lave.estimator import (
    _BLOCK_ELEMENTS,
    EstimatorConfig,
    _scan_at_tau,
    batch_estimate,
    estimate_path,
    select_interval,
)
from lave.series import ReturnSeries, TransformedSeries
from lave.simulation import ChangePointSpec, run_change_point_experiment
from lave.transform import power_constants, power_transform


def alternating_returns(n, run, high, seed):
    """Gaussian returns whose sigma switches between 1 and high every run steps."""
    rng = np.random.default_rng(seed)
    sigma = np.where((np.arange(n) // run) % 2 == 0, 1.0, high)
    return sigma * rng.standard_normal(n)


def assert_path_matches_reference(path, r, indices):
    """path, estimated on r, agrees with select_interval at path.taus[indices]."""
    config = path.config
    params = power_constants(config.gamma)
    y = power_transform(r, config.gamma)
    for i in indices:
        tau = int(path.taus[i])
        try:
            sel = select_interval(y, tau, config.m0, config.lam, params, config.max_len)
        except DegenerateWindowError:
            assert path.interval_len[i] == 0 and np.isnan(path.theta_hat[i]), tau
            assert path.rejected_at[i] == 0, tau
            continue
        assert path.interval_len[i] == sel.chosen_len, tau
        assert path.rejected_at[i] == (sel.rejected_at or 0), tau
        assert abs(path.theta_hat[i] - sel.theta_hat) <= 1e-9 * sel.theta_hat, tau


@pytest.mark.parametrize("m0", [1, 3])
def test_long_series_matches_reference_on_both_sides_of_every_block_boundary(m0):
    n = 3000
    r = alternating_returns(n, run=25, high=6.0, seed=7)
    r[1496:1505] = 0.0
    config = EstimatorConfig(gamma=0.5, m0=m0, lam=2.4)
    per_block = _BLOCK_ELEMENTS // (n // m0)
    n_taus = n - config.start_time + 1
    boundaries = np.arange(per_block, n_taus, per_block)
    assert boundaries.size >= 40
    indices = np.unique(np.concatenate([boundaries - 1, boundaries, [n_taus - 1]]))
    r = ReturnSeries(r)
    assert_path_matches_reference(estimate_path(r, config), r, indices)


def test_wide_batch_with_one_tau_per_block_matches_estimate_path_row_by_row():
    rows, n = 3000, 60
    config = EstimatorConfig(gamma=0.5, m0=3, lam=2.4)
    # two taus of the widest scan would exceed the block budget
    assert 2 * rows * (n // config.m0) > _BLOCK_ELEMENTS
    rng = np.random.default_rng(11)
    returns = np.where(np.arange(n) < 35, 1.0, 3.0) * rng.standard_normal((rows, n))
    returns[::7, 40:44] = 0.0
    taus, sigma_hat, lens = batch_estimate(returns, config)
    for i in range(rows):
        path = estimate_path(ReturnSeries(returns[i]), config)
        np.testing.assert_array_equal(path.taus, taus)
        np.testing.assert_array_equal(path.interval_len, lens[i])
        np.testing.assert_array_equal(path.sigma_hat, sigma_hat[i])


def test_long_series_without_max_len_runs_in_bounded_memory():
    # a scan over every tau and every candidate at once would hold
    # n x n / m0 floats, about 200 MB here
    n, run = 16_000, 400
    r = ReturnSeries(alternating_returns(n, run=run, high=4.0, seed=3))
    config = EstimatorConfig(gamma=0.5, m0=10, lam=2.74)
    tracemalloc.start()
    try:
        path = estimate_path(r, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    jumps = np.arange(run, n, run)[::3][:10]
    indices = jumps + 15 - config.start_time
    assert_path_matches_reference(path, r, indices)


def assert_batch_matches_estimate_path(returns, config):
    """Every row of batch_estimate equals estimate_path on that row alone;
    returns the batch's lens and the paths."""
    taus, sigma_hat, lens = batch_estimate(returns, config)
    paths = [estimate_path(ReturnSeries(row), config) for row in returns]
    for i, path in enumerate(paths):
        np.testing.assert_array_equal(path.taus, taus)
        np.testing.assert_array_equal(path.interval_len, lens[i])
        np.testing.assert_array_equal(path.sigma_hat, sigma_hat[i])
    return lens, paths


def compactions(stops):
    """Candidates at which the working set of rows that stay live through
    candidate stops[i] is compacted: fewer than half of its rows are live."""
    held, at = stops.size, []
    for k in range(2, int(stops.max()) + 1):
        live = int(np.count_nonzero(stops >= k))
        if 0 < live and 2 * live < held:
            held = live
            at.append(k)
    return at


@pytest.mark.parametrize("m0, n", [(1, 60), (3, 90)])
def test_staggered_drop_outs_compact_the_working_set_and_match_the_reference(m0, n):
    rows = 120
    rng = np.random.default_rng(5 + m0)
    # |returns| stay within 10% of sigma, which jumps from 1 to 6 at evenly
    # staggered times: at tau = n each row keeps its window until it
    # reaches back across its own jump
    jumps = np.linspace(n - 3 * m0, 4 * m0, rows).astype(int)
    sigma = np.where(np.arange(n) >= jumps[:, None], 6.0, 1.0)
    returns = sigma * rng.uniform(0.9, 1.1, (rows, n)) * rng.choice([-1.0, 1.0], (rows, n))
    # an all-zero m0-block `depth` blocks back from tau = n, inside the
    # high-volatility part of the rows that scan longest
    depth = (3 * n // 4) // m0
    zero_rows = np.arange(rows - 20, rows)
    returns[zero_rows, n - depth * m0 : n - (depth - 1) * m0] = 0.0
    config = EstimatorConfig(gamma=0.5, m0=m0, lam=2.4)
    params = power_constants(config.gamma)
    y = np.abs(returns) ** config.gamma

    chosen, theta, rejected, degenerate = _scan_at_tau(
        y, n, m0, config.lam, params.s_gamma
    )
    stops = np.where(rejected > 0, rejected, chosen) // m0
    compacted_at = compactions(stops)
    assert len(compacted_at) >= 2
    assert compacted_at[0] < depth and np.all(stops[zero_rows] >= depth)
    assert degenerate[zero_rows].all() and not degenerate[: rows - 20].any()

    lens, _ = assert_batch_matches_estimate_path(returns, config)
    for i in range(rows):
        series = TransformedSeries(y[i], gamma=config.gamma)
        try:
            sel = select_interval(series, n, m0, config.lam, params)
        except DegenerateWindowError:
            assert degenerate[i] and lens[i, -1] == 0, i
            continue
        assert not degenerate[i] and lens[i, -1] == chosen[i] == sel.chosen_len, i
        assert rejected[i] == (sel.rejected_at or 0), i
        assert abs(theta[i] - sel.theta_hat) <= 1e-9 * sel.theta_hat, i


def test_estimate_path_block_with_mixed_candidate_counts_under_max_len():
    n, m0, max_len = 2000, 1, 150
    r = alternating_returns(n, run=40, high=5.0, seed=21)
    r[100:103] = 0.0
    r[300:302] = 0.0
    config = EstimatorConfig(gamma=0.5, m0=m0, lam=2.4, max_len=max_len)
    per_block = _BLOCK_ELEMENTS // (max_len // m0)
    # the first block runs from tau = 2 (2 candidates) past tau = max_len
    assert config.start_time < max_len < config.start_time + per_block
    r = ReturnSeries(r)
    path = estimate_path(r, config)
    assert_path_matches_reference(path, r, np.arange(0, per_block + 40, 3))


def test_batch_blocks_with_mixed_candidate_counts_at_m0_one():
    rows, n = 200, 100
    config = EstimatorConfig(gamma=0.5, m0=1, lam=2.4)
    per_block = _BLOCK_ELEMENTS // (rows * n)
    assert per_block >= 3  # each block holds taus with different candidate counts
    rng = np.random.default_rng(17)
    jumps = rng.integers(10, n, size=rows)
    returns = np.where(np.arange(n) >= jumps[:, None], 4.0, 1.0) * rng.standard_normal((rows, n))
    returns[::9, 60:62] = 0.0
    _, paths = assert_batch_matches_estimate_path(returns, config)
    last_full_block = per_block * (len(paths[0]) // per_block - 1) + np.arange(per_block)
    for row, path in zip(returns, paths):
        assert_path_matches_reference(path, ReturnSeries(row), last_full_block)


def test_wide_batch_runs_in_bounded_memory():
    rows = 2000
    sigma = np.repeat([1.0, 3.0, 1.0], 80)  # the two-jump-3x design
    returns = sigma * np.random.default_rng(4).standard_normal((rows, sigma.size))
    config = EstimatorConfig(gamma=0.5, m0=10, lam=2.74, t0=20)
    tracemalloc.start()
    try:
        taus, sigma_hat, lens = batch_estimate(returns, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert sigma_hat.shape == (rows, taus.size) and np.all(lens > 0)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def test_thresholds_scanned_together_match_one_scan_each_through_compactions():
    rows, n, m0 = 1200, 90, 3
    # one tau per block, so the last block is the scan at tau = n alone
    assert rows * (n // m0) > _BLOCK_ELEMENTS // 2
    rng = np.random.default_rng(8)
    # staggered jumps from 1 to 6 stop the rows at spread candidates under
    # the larger threshold; noisier returns than in the test above stop
    # many of them much earlier under the smaller one
    jumps = np.linspace(n - 3 * m0, 4 * m0, rows).astype(int)
    sigma = np.where(np.arange(n) >= jumps[:, None], 6.0, 1.0)
    returns = sigma * rng.uniform(0.5, 1.5, (rows, n)) * rng.choice([-1.0, 1.0], (rows, n))
    depth = (3 * n // 4) // m0
    zero_rows = np.arange(rows - 100, rows)
    returns[zero_rows, n - depth * m0 : n - (depth - 1) * m0] = 0.0
    low, high = 0.6, 2.4
    config = EstimatorConfig(gamma=0.5, m0=m0, lam=high)
    s_gamma = power_constants(config.gamma).s_gamma
    y = np.abs(returns) ** config.gamma

    stops, flags = {}, {}
    for lam in (low, high):
        chosen, _, rejected, flags[lam] = _scan_at_tau(y, n, m0, lam, s_gamma)
        stops[lam] = np.where(rejected > 0, rejected, chosen) // m0
    compacted_at = compactions(stops[high])
    assert len(compacted_at) >= 2
    for k in compacted_at:
        # rows the compacted set keeps, though the smaller threshold has
        # already stopped them
        assert np.count_nonzero((stops[high] >= k) & (stops[low] < k)) > 0, k
    # the zero block is reached under the larger threshold only, by rows
    # held past a compaction
    assert np.count_nonzero(flags[high] & ~flags[low]) > 0

    lams = [high, low, high]
    taus, sigma_hat, lens = batch_estimate(returns, config, lams=lams)
    assert sigma_hat.shape == lens.shape == (len(lams), rows, taus.size)
    for i, lam in enumerate(lams):
        one = batch_estimate(returns, EstimatorConfig(gamma=0.5, m0=m0, lam=lam))
        assert_same_bits(one[0], taus)
        assert_same_bits(one[1], sigma_hat[i])
        assert_same_bits(one[2], lens[i])
    assert np.count_nonzero(lens[0, :, -1] == 0) == zero_rows.size
    assert np.count_nonzero(lens[1, :, -1] == 0) < zero_rows.size


def test_two_threshold_wide_batch_runs_in_bounded_memory():
    rows = 2000
    sigma = np.repeat([1.0, 3.0, 1.0], 80)  # the two-jump-3x design
    returns = sigma * np.random.default_rng(4).standard_normal((rows, sigma.size))
    config = EstimatorConfig(gamma=0.5, m0=10, lam=2.74, t0=20)
    tracemalloc.start()
    try:
        taus, sigma_hat, lens = batch_estimate(returns, config, lams=[2.4, 2.74])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert sigma_hat.shape == (2, rows, taus.size) and np.all(lens > 0)


def test_experiment_scans_each_gamma_once_and_matches_one_run_per_threshold():
    design = ChangePointSpec(((60, 1.0), (60, 3.0), (60, 1.0)))
    # gamma 0.5: three thresholds, unsorted by M label, one value twice
    lambdas = {(0.5, 80): 2.8, (0.5, 40): 2.4, (0.5, 60): 2.4, (2.0, 40): 2.41, (2.0, 80): 2.9}
    gammas = [0.5, 2.0]
    together = run_change_point_experiment(design, gammas, lambdas, replications=150, seed=3)
    cells, curves = [], {}
    for gamma in gammas:
        for key, lam in sorted(lambdas.items()):
            if key[0] != gamma:
                continue
            one = run_change_point_experiment(design, [gamma], {key: lam}, replications=150, seed=3)
            cells.extend(one.cells)
            curves.update(one.curves)
    assert together.cells == tuple(cells)
    assert list(together.curves) == list(curves)
    for key, curve in curves.items():
        for field in vars(curve):
            assert_same_bits(getattr(together.curves[key], field), getattr(curve, field))
