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

batch_estimate scans once for several thresholds given in any order, with
repeats; entry i of its results must equal, bit for bit, the scan under
the i-th threshold alone.

Under a small block budget the same cases, widened to up to 8 rows, split
into many blocks whose stragglers run in the kernel's pooled pass; the
results must keep the bits of the scan at the real budget and match
select_interval.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lave import estimator
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
def scan_cases(draw, n_rows=st.just(ROWS)):
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
    shape = (draw(n_rows), n)
    rows = sigma * rng.standard_normal(shape)
    if draw(st.booleans()):
        rows *= 10.0 ** rng.uniform(-6.0, 6.0, shape)
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


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(scan_cases(), st.lists(st.floats(0.5, 4.0), min_size=1, max_size=3), st.randoms())
def test_thresholds_scanned_together_match_one_scan_each(case, extra, random):
    config, rows = case
    # unsorted, with config.lam at least twice
    lams = [config.lam, config.lam, *extra]
    random.shuffle(lams)
    taus, sigma, lens = batch_estimate(rows, config, lams=lams)
    assert sigma.shape == lens.shape == (len(lams), ROWS, taus.size)
    for i, lam in enumerate(lams):
        one_taus, one_sigma, one_lens = batch_estimate(rows, replace(config, lam=lam))
        assert one_taus.tobytes() == taus.tobytes()
        assert one_sigma.tobytes() == sigma[i].tobytes()
        assert one_lens.tobytes() == lens[i].tobytes()


# A block budget at which these short series split into many small blocks
# whose stragglers take the pooled pass: about half of the examples below
# hand rows to the pool. At the real budget three rows would need series
# tens of thousands long to get there.
SMALL_BUDGET = 32


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(scan_cases(n_rows=st.integers(ROWS, 8)), st.floats(0.5, 4.0))
def test_small_blocks_and_the_pooled_pass_match_select_interval(case, extra):
    config, rows = case
    lams = [config.lam, extra]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "_BLOCK_ELEMENTS", SMALL_BUDGET)
        taus, sigma, lens = batch_estimate(rows, config, lams=lams)
        one = batch_estimate(rows, replace(config, lam=extra))
    # the same bits as the scan at the real budget, and as one scan per threshold
    for got, want in zip((taus, sigma, lens), batch_estimate(rows, config, lams=lams)):
        assert got.tobytes() == want.tobytes()
    assert one[1].tobytes() == sigma[1].tobytes() and one[2].tobytes() == lens[1].tobytes()
    params = power_constants(config.gamma)
    theta = params.c_gamma * sigma[0] ** config.gamma
    for i, row in enumerate(rows):
        y = power_transform(ReturnSeries(row), config.gamma)
        for j, tau in enumerate(taus):
            assert_matches(lens[0, i, j], theta[i, j], reference(y, int(tau), config, params))


@pytest.mark.parametrize("lams", [[], [2.0, 0.0], [2.0, -1.0], [float("nan")], [[2.0, 3.0]]])
def test_batch_estimate_rejects_bad_thresholds(lams):
    config = EstimatorConfig(gamma=0.5, m0=2, lam=2.0)
    with pytest.raises(ValueError, match="lams"):
        batch_estimate(np.ones((2, 10)), config, lams=lams)
