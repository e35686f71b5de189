"""Property tests pinning the vectorized scan to the reference scan.

At every tau, estimate_path and each row of batch_estimate must choose the
same window length as select_interval, agree with its theta_hat within a
relative difference of 1e-9, and leave a gap exactly where select_interval
raises DegenerateWindowError. Inputs are piecewise-constant volatility
returns with runs of exact zeros, over the grid steps m0 in {1, 2, 3, 10},
with and without max_len, and as short as the first estimation time. Half
of the cases scale each point by its own factor between 1e-6 and 1e6, and
two fixed examples put values many orders of magnitude smaller after large
ones, where a window sum taken as a difference of prefix sums rounds to
zero.

EstimatePath.rejected_at is pinned to select_interval's rejected_at on the
same inputs, and an exact tie at the threshold keeps the window in both.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lave.errors import DegenerateWindowError
from lave.estimator import (
    EstimatorConfig,
    batch_estimate,
    estimate_path,
    homogeneity_test,
    select_interval,
)
from lave.series import ReturnSeries
from lave.transform import power_constants, power_transform

ROWS = 3


@st.composite
def scan_cases(draw):
    m0 = draw(st.sampled_from([1, 2, 3, 10]))
    t0 = draw(st.one_of(st.none(), st.integers(m0, 3 * m0)))
    start = 2 * m0 if t0 is None else t0
    # m0 = 1 scans every length, so its series stay short
    n = draw(st.integers(start, start + (12 if m0 == 1 else 6 * m0)))
    max_len = draw(st.one_of(st.none(), st.integers(m0, n + m0)))
    config = EstimatorConfig(
        gamma=draw(st.sampled_from([0.5, 1.0, 2.0])),
        m0=m0,
        lam=draw(st.floats(0.5, 4.0)),
        t0=t0,
        max_len=max_len,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cut = rng.integers(0, n + 1)
    sigma = np.where(np.arange(n) < cut, 1.0, draw(st.sampled_from([0.2, 1.0, 3.0, 5.0])))
    rows = sigma * rng.standard_normal((ROWS, n))
    if draw(st.booleans()):
        rows *= 10.0 ** rng.uniform(-6.0, 6.0, (ROWS, n))
    for row in rows:
        zero_len = draw(st.integers(0, 2 * m0 + 2))
        zero_start = draw(st.integers(0, n))
        row[zero_start : zero_start + zero_len] = 0.0
    return config, rows


def reference(y, tau, config, params):
    """(chosen_len, theta_hat) from select_interval, or None for a gap."""
    try:
        sel = select_interval(y, tau, config.m0, config.lam, params, config.max_len)
    except DegenerateWindowError:
        return None
    return sel.chosen_len, sel.theta_hat


def assert_matches(length, theta, ref):
    if ref is None:
        assert length == 0 and np.isnan(theta)
        return
    assert length == ref[0]
    assert abs(theta - ref[1]) <= 1e-9 * abs(ref[1])


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(scan_cases())
@example(
    (
        EstimatorConfig(gamma=2.0, m0=1, lam=2.5, t0=3),
        np.array([[1e4, 2e4, 1e4, 1e-5, 2e-5, 3e-5]]),
    )
)
@example(
    (
        EstimatorConfig(gamma=2.0, m0=1, lam=0.5, t0=3),
        np.array([[1e4, 2e4, 1e4, 1e-5, 2e-5, 3e-5, 1e-5, 2e-5, 3e-5, 1e-5]]),
    )
)
def test_fast_paths_match_select_interval(case):
    config, rows = case
    params = power_constants(config.gamma)
    taus, sigma_batch, lens_batch = batch_estimate(rows, config)
    theta_batch = params.c_gamma * sigma_batch**config.gamma
    for i, row in enumerate(rows):
        r = ReturnSeries(row)
        path = estimate_path(r, config)
        np.testing.assert_array_equal(path.taus, taus)
        y = power_transform(r, config.gamma)
        for j, tau in enumerate(taus):
            ref = reference(y, int(tau), config, params)
            assert_matches(path.interval_len[j], path.theta_hat[j], ref)
            assert_matches(lens_batch[i, j], theta_batch[i, j], ref)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(scan_cases())
def test_rejected_at_matches_select_interval(case):
    """EstimatePath.rejected_at is select_interval's first rejected length
    (0 for none) at every tau, and 0 at gaps."""
    config, rows = case
    params = power_constants(config.gamma)
    for row in rows:
        r = ReturnSeries(row)
        path = estimate_path(r, config)
        y = power_transform(r, config.gamma)
        for tau, rejected_at in zip(path.taus, path.rejected_at):
            try:
                sel = select_interval(y, int(tau), config.m0, config.lam, params, config.max_len)
            except DegenerateWindowError:
                assert rejected_at == 0
                continue
            assert rejected_at == (sel.rejected_at or 0)


def test_exact_tie_at_the_threshold_keeps_the_window():
    # homogeneity_test gives statistic == threshold exactly for this lam
    config = EstimatorConfig(gamma=1.0, m0=1, lam=1.2138413517790783, t0=2)
    r = ReturnSeries(np.array([0.24, 3.0]))
    params = power_constants(config.gamma)
    y = power_transform(r, config.gamma)
    ht = homogeneity_test(y, 2, 1, 2, config.lam, params)
    assert ht.statistic == ht.threshold
    sel = select_interval(y, 2, config.m0, config.lam, params)
    assert sel.chosen_len == 2
    assert estimate_path(r, config).interval_len[-1] == sel.chosen_len
