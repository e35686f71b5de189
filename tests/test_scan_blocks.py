"""The block-of-taus scan kernel across its block boundaries and in memory.

_scan_taus splits the taus into the consecutive blocks of _tau_blocks,
each of at most _BLOCK_ELEMENTS working-set entries (series x taus in the
block x the block's largest candidate count) unless it is a single tau. A
property test pins that split; the tests below take their block boundaries
from it. These inputs are large enough to force many blocks: long series
without max_len, a wide batch whose widest taus take a block each, and a
long series and a wide batch whose traced peak memory must stay bounded.

Within a block the kernel masks stopped rows and compacts its working set
once enough of them have stopped. Rows that drop out at staggered
candidates, a zero block first reached after a compaction, and blocks
whose rows have different candidate counts pin that path to the reference.
The compactions helper below models the kernel's rule at one tau, so
the tests that use it pick inputs with staggered stops and check that the
kernel's partial write-outs happen where it predicts. On 120 rows the
masked split entries stay below the step cost _STEP_ENTRIES, so those
tests lower it; its value changes when the kernel compacts, never what it
returns.

A block down to a few live rows hands them to a pool, and the pooled rows
of many blocks restart in one pass. A wide batch whose rows mostly stop
early pins that pass to the reference, also where a zero block is reached
by a pooled straggler under the larger of two thresholds only. Gaps are
decided after the scan, from each row's chosen length and its first zero
block counted back from tau, so a zero block that only later blocks of
taus and a pooled pass reach must still leave its gaps, and one that lies
past a row's stop must leave none.

Several thresholds, in any order, share one scan: the working set holds a
row while it is live under the largest. Each threshold's results must equal a scan under
that threshold alone bit for bit, also where the set compacts while a
smaller threshold has already stopped many of the rows it keeps, and the
change-point experiment, which scans each gamma once for all of its
thresholds, must give the cells and curves of one run per threshold.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lave import estimator
from lave.errors import DegenerateWindowError
from lave.estimator import (
    _BLOCK_ELEMENTS,
    EstimatorConfig,
    _block_sums,
    _candidate_counts,
    _scan_at_tau,
    _scan_taus,
    _tau_blocks,
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


def scan_blocks(n, config, n_series=1):
    """_scan_path's block bounds over the taus of series of length n."""
    taus = np.arange(config.start_time, n + 1)
    return _tau_blocks(_candidate_counts(taus, config.m0, config.max_len), n_series)


@st.composite
def tau_ranges(draw):
    """Candidate counts of the taus t0..n of one scan."""
    m0 = draw(st.sampled_from([1, 3, 10]))
    t0 = draw(st.integers(m0, 4 * m0))
    n = draw(st.integers(t0, 5000))
    max_len = draw(st.one_of(st.none(), st.integers(m0, n + m0)))
    return _candidate_counts(np.arange(t0, n + 1), m0, max_len)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(tau_ranges(), st.sampled_from([1, 2000]))
def test_blocks_cover_the_taus_in_order_each_within_budget_or_a_single_tau(counts, n_series):
    bounds = _tau_blocks(counts, n_series)
    assert bounds[0] == 0 and bounds[-1] == counts.size
    for lo, hi in zip(bounds, bounds[1:]):
        assert hi > lo
        # a block's largest count is its last tau's
        entries = n_series * (hi - lo) * int(counts[hi - 1])
        assert entries <= _BLOCK_ELEMENTS or hi == lo + 1
        # and it takes every tau that fits
        if hi < counts.size:
            assert n_series * (hi + 1 - lo) * int(counts[hi]) > _BLOCK_ELEMENTS


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
    # a larger m0 has fewer candidates per tau and so fewer, longer blocks
    n = {1: 3000, 3: 4500}[m0]
    r = alternating_returns(n, run=25, high=6.0, seed=7)
    r[1496:1505] = 0.0
    config = EstimatorConfig(gamma=0.5, m0=m0, lam=2.4)
    n_taus = n - config.start_time + 1
    boundaries = np.array(scan_blocks(n, config)[1:-1])
    assert boundaries.size >= 40
    indices = np.unique(np.concatenate([boundaries - 1, boundaries, [n_taus - 1]]))
    r = ReturnSeries(r)
    assert_path_matches_reference(estimate_path(r, config), r, indices)


def test_wide_batch_with_one_tau_per_block_matches_estimate_path_row_by_row():
    rows, n = 3000, 60
    config = EstimatorConfig(gamma=0.5, m0=3, lam=2.4)
    # the first taus share blocks; the widest take a block each
    sizes = np.diff(scan_blocks(n, config, rows))
    assert sizes[0] > 1 and sizes[-1] == 1
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
    """Candidates at which _scan_rows, scanning one tau without a pool,
    compacts the working set of rows that stay live through candidate
    stops[i]: fewer than 3/4 of its rows are live and the masked rows'
    split entries, (held - live) x k, exceed estimator._STEP_ENTRIES."""
    held, at = stops.size, []
    for k in range(2, int(stops.max()) + 1):
        live = int(np.count_nonzero(stops >= k))
        if 0 < live and 4 * live < 3 * held and (held - live) * k > estimator._STEP_ENTRIES:
            held = live
            at.append(k)
    return at


def record_partial_write_outs(monkeypatch):
    """Spy on _write_rows: returns a list that collects, for each write-out,
    whether it wrote only some of the working set's rows, as a compaction
    does, rather than all of them at the end of a scan."""
    partial = []
    write = estimator._write_rows

    def spy(out, m0, rows, chosen, state, cols):
        partial.append(cols.size < rows.shape[1])
        write(out, m0, rows, chosen, state, cols)

    monkeypatch.setattr(estimator, "_write_rows", spy)
    return partial


@pytest.mark.parametrize("m0, n", [(1, 60), (3, 90)])
def test_staggered_drop_outs_compact_the_working_set_and_match_the_reference(
    monkeypatch, m0, n
):
    rows = 120
    # 120 rows of at most 60 candidates rarely mask 2**12 split entries; a
    # smaller step cost lets the set compact at staggered candidates
    monkeypatch.setattr(estimator, "_STEP_ENTRIES", 256)
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

    partial = record_partial_write_outs(monkeypatch)
    chosen, theta, rejected, degenerate = _scan_at_tau(
        y, n, m0, config.lam, params.s_gamma
    )
    stops = np.where(rejected > 0, rejected, chosen) // m0
    compacted_at = compactions(stops)
    assert sum(partial) == len(compacted_at) >= 2
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
    first_block = scan_blocks(n, config)[1]
    # the first block runs from tau = 2 (2 candidates) past tau = max_len
    assert config.start_time < max_len < config.start_time + first_block
    r = ReturnSeries(r)
    path = estimate_path(r, config)
    assert_path_matches_reference(path, r, np.arange(0, first_block + 40, 3))


def test_batch_blocks_with_mixed_candidate_counts_at_m0_one():
    rows, n = 200, 100
    config = EstimatorConfig(gamma=0.5, m0=1, lam=2.4)
    bounds = scan_blocks(n, config, rows)
    # each block but the last holds taus with different candidate counts
    assert min(np.diff(bounds)[:-1]) >= 3
    rng = np.random.default_rng(17)
    jumps = rng.integers(10, n, size=rows)
    returns = np.where(np.arange(n) >= jumps[:, None], 4.0, 1.0) * rng.standard_normal((rows, n))
    returns[::9, 60:62] = 0.0
    _, paths = assert_batch_matches_estimate_path(returns, config)
    # the last tau of a block, the next block and the single last tau
    last_blocks = np.arange(bounds[-3] - 1, bounds[-1])
    for row, path in zip(returns, paths):
        assert_path_matches_reference(path, ReturnSeries(row), last_blocks)


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


def test_thresholds_scanned_together_match_one_scan_each_through_compactions(monkeypatch):
    rows, n, m0 = 1200, 90, 3
    # the last block is the scan at tau = n alone
    bounds = scan_blocks(n, EstimatorConfig(gamma=0.5, m0=m0, lam=2.4), rows)
    assert bounds[-2] == bounds[-1] - 1
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
    partial = record_partial_write_outs(monkeypatch)
    for lam in (low, high):
        chosen, _, rejected, flags[lam] = _scan_at_tau(y, n, m0, lam, s_gamma)
        stops[lam] = np.where(rejected > 0, rejected, chosen) // m0
    assert sum(partial) == len(compactions(stops[low])) + len(compactions(stops[high]))
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


@pytest.mark.parametrize("lams", [(2.4, 0.6, 0.9), (0.6, 2.4, 0.9)])
def test_scan_taus_takes_the_largest_threshold_anywhere_in_lams(monkeypatch, lams):
    rows, n, m0 = 120, 90, 3
    # as in the staggered test, a smaller step cost lets 120 rows compact
    monkeypatch.setattr(estimator, "_STEP_ENTRIES", 256)
    rng = np.random.default_rng(9)
    jumps = np.linspace(n - 3 * m0, 4 * m0, rows).astype(int)
    sigma = np.where(np.arange(n) >= jumps[:, None], 6.0, 1.0)
    returns = sigma * rng.uniform(0.5, 1.5, (rows, n)) * rng.choice([-1.0, 1.0], (rows, n))
    y = np.abs(returns) ** 0.5
    s_gamma = power_constants(0.5).s_gamma

    stops = {}
    for lam in lams:
        chosen, _, rejected, _ = _scan_at_tau(y, n, m0, lam, s_gamma)
        stops[lam] = np.where(rejected > 0, rejected, chosen) // m0
    compacted_at = compactions(stops[max(lams)])
    assert compacted_at
    # the compacted set keeps rows that a smaller threshold has stopped
    assert any(np.count_nonzero((stops[max(lams)] >= k) & (stops[lam] < k))
               for k in compacted_at for lam in lams)

    blocks, taus = _block_sums(y, m0), np.array([n])
    partial = record_partial_write_outs(monkeypatch)
    together = _scan_taus(blocks, taus, m0, np.array(lams), s_gamma)
    # the shared scan compacts where the largest threshold's rows stop
    assert sum(partial) == len(compacted_at)
    for i, lam in enumerate(lams):
        one = _scan_taus(blocks, taus, m0, np.array([lam]), s_gamma)
        for shared, alone in zip(together, one):
            assert_same_bits(shared[i], alone[0])


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


def test_change_point_study_stores_its_lengths_in_four_bytes():
    # lave simulate's study of two-jump-3x under the shipped gamma = 0.5
    # thresholds: its peak is the scan's results. Stored as int64, the
    # chosen lengths took the traced peak to 25.2 MiB; as int32, 21.9 MiB
    design = ChangePointSpec(((80, 1.0), (80, 3.0), (80, 1.0)))
    lambdas = {(0.5, 40): 2.40, (0.5, 80): 2.74}
    tracemalloc.start()
    try:
        run_change_point_experiment(
            design, lambdas, replications=2000, seed=1, curves_for=[(0.5, 80)]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 23.5 * 2**20
    r = ReturnSeries(alternating_returns(300, run=60, high=3.0, seed=1))
    config = EstimatorConfig(gamma=0.5, m0=10, lam=2.74)
    path = estimate_path(r, config)
    _, _, lens = batch_estimate(r.values[None, :], config)
    assert lens.dtype == path.interval_len.dtype == path.rejected_at.dtype == np.int32


def test_experiment_scans_each_gamma_once_and_matches_one_run_per_threshold():
    design = ChangePointSpec(((60, 1.0), (60, 3.0), (60, 1.0)))
    # gamma 0.5: three thresholds, unsorted by M label, one value twice
    lambdas = {(0.5, 80): 2.8, (0.5, 40): 2.4, (0.5, 60): 2.4, (2.0, 40): 2.41, (2.0, 80): 2.9}
    gammas = [0.5, 2.0]
    together = run_change_point_experiment(design, lambdas, replications=150, seed=3)
    cells, curves = [], {}
    for gamma in gammas:
        for key, lam in sorted(lambdas.items()):
            if key[0] != gamma:
                continue
            one = run_change_point_experiment(design, {key: lam}, replications=150, seed=3)
            cells.extend(one.cells)
            curves.update(one.curves)
    assert together.cells == tuple(cells)
    assert list(together.curves) == list(curves)
    for key, curve in curves.items():
        for field in vars(curve):
            assert_same_bits(getattr(together.curves[key], field), getattr(curve, field))


def record_pooled_rows(monkeypatch):
    """Spy on _scan_rows: returns a list that collects the destinations
    (entries of the flat (taus, series) results) of the rows each scan
    hands to the pool."""
    handed = []
    scan = estimator._scan_rows

    def spy(flat_blocks, rows, m0, lams, s_gamma, out, pool=None):
        before = len(pool) if pool is not None else 0
        scan(flat_blocks, rows, m0, lams, s_gamma, out, pool)
        if pool is not None:
            handed.extend(p[0] for p in pool[before:])

    monkeypatch.setattr(estimator, "_scan_rows", spy)
    return handed


def straggler_batch(rows, n, seed):
    """Returns whose sigma switches between 1 and 5 every 15 steps, so at
    almost every tau a row stops early, except every 50th row, which is
    homogeneous and mostly reaches its last candidate. Returns the draws and
    the homogeneous rows."""
    rng = np.random.default_rng(seed)
    sigma = np.where((np.arange(n) // 15) % 2 == 0, 1.0, 5.0) * np.ones((rows, 1))
    stragglers = np.arange(0, rows, 50)
    sigma[stragglers] = 1.0
    return sigma * rng.standard_normal((rows, n)), stragglers


def reference_at(y, tau, m0, lam, params):
    """(chosen_len, theta_hat) from select_interval, or None where it raises."""
    try:
        sel = select_interval(y, tau, m0, lam, params)
    except DegenerateWindowError:
        return None
    return sel.chosen_len, sel.theta_hat


def test_stragglers_of_many_blocks_run_in_one_pooled_pass_and_match_the_reference(monkeypatch):
    rows, n, m0 = 1000, 120, 5
    returns, stragglers = straggler_batch(rows, n, seed=12)
    # the larger threshold, which holds the working set, comes second
    lams = low, high = 0.9, 2.4
    config = EstimatorConfig(gamma=0.5, m0=m0, lam=high)
    # 65 entries per series: up to 2 taus of 24 candidates in a block
    assert len(scan_blocks(n, config, rows)) - 1 > n // m0
    handed = record_pooled_rows(monkeypatch)
    taus, sigma_hat, lens = batch_estimate(returns, config, lams=list(lams))

    pooled = np.concatenate(handed)
    column, series = np.divmod(pooled, rows)
    # the pool gathers rows from many blocks, most of them rows of the
    # homogeneous series; many of these run to their last candidate
    assert np.unique(column).size > 20
    assert np.isin(series, stragglers).mean() > 0.3
    last = _candidate_counts(taus, m0, None) * m0
    assert np.count_nonzero(lens[1, series, column] == last[column]) > 100
    # while most rows of the batch stop early
    assert np.mean(lens[1] < last) > 0.8

    # every row equals estimate_path on its series alone (one block, no
    # pool), and each threshold's results equal a scan under it alone
    monkeypatch.undo()
    for i in range(rows):
        path = estimate_path(ReturnSeries(returns[i]), config)
        assert_same_bits(path.interval_len, lens[1, i])
        assert_same_bits(path.sigma_hat, sigma_hat[1, i])
    for i, lam in enumerate(lams):
        one = batch_estimate(returns, EstimatorConfig(gamma=0.5, m0=m0, lam=lam))
        assert_same_bits(one[1], sigma_hat[i])
        assert_same_bits(one[2], lens[i])

    # and pooled rows match select_interval under both thresholds
    params = power_constants(config.gamma)
    y = np.abs(returns) ** config.gamma
    theta = params.c_gamma * sigma_hat**config.gamma
    for s, j in zip(series[::10], column[::10]):
        series_y = TransformedSeries(y[s], gamma=config.gamma)
        for i, lam in enumerate(lams):
            ref = reference_at(series_y, int(taus[j]), m0, lam, params)
            assert ref is not None and lens[i, s, j] == ref[0], (s, j, lam)
            assert abs(theta[i, s, j] - ref[1]) <= 1e-9 * ref[1], (s, j, lam)


def test_zero_block_reached_by_a_pooled_straggler_under_the_larger_threshold_only(monkeypatch):
    rows, n, m0 = 1000, 120, 5
    returns, stragglers = straggler_batch(rows, n, seed=13)
    # an all-zero m0-block 12 blocks back from the last tau in a few of the
    # homogeneous rows: the larger threshold keeps their windows long enough
    # to reach it, the smaller one stops them before
    zero_rows = stragglers[:6]
    returns[zero_rows, n - 60 : n - 55] = 0.0
    high, low = 2.4, 0.6
    config = EstimatorConfig(gamma=0.5, m0=m0, lam=high)
    handed = record_pooled_rows(monkeypatch)
    taus, sigma_hat, lens = batch_estimate(returns, config, lams=[high, low])
    monkeypatch.undo()

    column, series = np.divmod(np.concatenate(handed), rows)
    in_zero_rows = np.isin(series, zero_rows)
    gap_high_only = (lens[0, series, column] == 0) & (lens[1, series, column] > 0)
    cases = np.flatnonzero(in_zero_rows & gap_high_only)
    assert cases.size >= 3
    params = power_constants(config.gamma)
    y = np.abs(returns) ** config.gamma
    for s, j in zip(series[cases], column[cases]):
        series_y = TransformedSeries(y[s], gamma=config.gamma)
        assert np.isnan(sigma_hat[0, s, j])
        assert reference_at(series_y, int(taus[j]), m0, high, params) is None
        assert reference_at(series_y, int(taus[j]), m0, low, params)[0] == lens[1, s, j]
    for i, lam in enumerate((high, low)):
        one = batch_estimate(returns, EstimatorConfig(gamma=0.5, m0=m0, lam=lam))
        assert_same_bits(one[1], sigma_hat[i])
        assert_same_bits(one[2], lens[i])


def test_zero_block_first_gathered_after_the_first_block_of_taus_leaves_its_gaps(monkeypatch):
    rows, n, m0 = 1000, 120, 5
    returns, stragglers = straggler_batch(rows, n, seed=15)
    # the batch's only all-zero m0-block lies 12 blocks back from the last
    # tau in a few homogeneous rows, far past the first block of taus
    zero_rows, start = stragglers[:4], n - 60
    returns[zero_rows, start : start + m0] = 0.0
    lams = high, low = 2.4, 0.9
    config = EstimatorConfig(gamma=0.5, m0=m0, lam=high)
    params = power_constants(config.gamma)
    y = np.abs(returns) ** config.gamma
    assert np.count_nonzero(_block_sums(y, m0) == 0.0) == zero_rows.size

    # per _scan_rows call: whether it ran rows handed to the pool before,
    # and whether it scanned a zero row at a tau whose windows can reach
    # the zero block (row destinations are s + rows * tau index)
    calls, handed = [], []
    scan = estimator._scan_rows

    def scan_spy(flat_blocks, rows, m0, lams, s_gamma, out, pool=None):
        pooled = bool(handed) and np.isin(rows[0], np.concatenate(handed)).all()
        column, series = np.divmod(rows[0], returns.shape[0])
        zero = np.isin(series, zero_rows) & (config.start_time + column > start)
        calls.append({"pooled": pooled, "zero": bool(zero.any())})
        before = len(pool) if pool is not None else 0
        scan(flat_blocks, rows, m0, lams, s_gamma, out, pool)
        if pool is not None:
            handed.extend(p[0] for p in pool[before:])

    monkeypatch.setattr(estimator, "_scan_rows", scan_spy)
    taus, sigma_hat, lens = batch_estimate(returns, config, lams=list(lams))
    monkeypatch.undo()

    assert not calls[0]["zero"]
    assert any(c["zero"] and not c["pooled"] for c in calls[1:])
    assert any(c["zero"] and c["pooled"] for c in calls)
    # gaps lie only in the zero rows, at taus whose windows can reach the
    # zero block, and there they match select_interval under both thresholds
    reach = taus > start
    gaps = lens == 0
    assert gaps[:, zero_rows].any(axis=(1, 2)).all()
    assert not gaps[:, :, ~reach].any() and not np.delete(gaps, zero_rows, axis=1).any()
    for s in zero_rows:
        series_y = TransformedSeries(y[s], gamma=config.gamma)
        for j in np.flatnonzero(reach):
            for i, lam in enumerate(lams):
                ref = reference_at(series_y, int(taus[j]), m0, lam, params)
                assert (ref is None) == (lens[i, s, j] == 0) == np.isnan(sigma_hat[i, s, j])
                assert ref is None or ref[0] == lens[i, s, j], (s, j, lam)


def test_zero_block_past_a_rows_stop_leaves_no_gap():
    rows, n, m0 = 40, 120, 5
    rng = np.random.default_rng(14)
    # |returns| within 10% of 1: a homogeneous row keeps every candidate
    returns = rng.uniform(0.9, 1.1, (rows, n)) * rng.choice([-1.0, 1.0], (rows, n))
    # the first 4 rows jump from 1 to 6 three blocks back from tau = n and
    # stop there; two blocks further back lies an all-zero block. The other
    # rows are homogeneous and keep the set scanning to the last candidate,
    # and with 4 of 40 rows stopped the set is never compacted, so the
    # stopped rows, masked, gather that zero block too.
    stopped = np.arange(4)
    returns[stopped, n - 15 :] *= 6.0
    returns[stopped, n - 30 : n - 25] = 0.0
    config = EstimatorConfig(gamma=0.5, m0=m0, lam=2.4)
    params = power_constants(config.gamma)
    y = np.abs(returns) ** config.gamma

    chosen, theta, rejected, degenerate = _scan_at_tau(y, n, m0, config.lam, params.s_gamma)
    assert np.all(rejected[stopped] > 0) and np.all(rejected[stopped] < 30)
    assert np.all(rejected[4:] == 0)
    assert not degenerate.any()
    taus, sigma_hat, lens = batch_estimate(returns, config)
    for i in range(rows):
        series_y = TransformedSeries(y[i], gamma=config.gamma)
        sel = select_interval(series_y, n, m0, config.lam, params)
        assert chosen[i] == lens[i, -1] == sel.chosen_len, i
        assert rejected[i] == (sel.rejected_at or 0), i
        assert abs(theta[i] - sel.theta_hat) <= 1e-9 * sel.theta_hat, i
