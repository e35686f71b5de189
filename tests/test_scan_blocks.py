"""The block-of-taus scan kernel across its block boundaries and in memory.

_scan_path splits the taus into blocks of at most _BLOCK_ELEMENTS suffix
entries (rows x taus per block x candidates), at least one tau each. These
inputs are large enough to force many blocks: long series without max_len,
a wide batch where every block holds a single tau, and a long series whose
traced peak memory must stay bounded.
"""

import tracemalloc

import numpy as np
import pytest

from lave.errors import DegenerateWindowError
from lave.estimator import (
    _BLOCK_ELEMENTS,
    EstimatorConfig,
    batch_estimate,
    estimate_path,
    select_interval,
)
from lave.series import ReturnSeries
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
