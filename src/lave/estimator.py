"""Adaptive interval-of-homogeneity scan and pointwise volatility estimation.

At each time tau the estimator examines nested candidate windows ending at
tau whose lengths are multiples of a grid step m0. A candidate window I is
kept when no split of I into a right-end test window J and the remaining
left part I \\ J shows a difference of sub-window means exceeding lambda
times the combined estimated noise scale. The scan stops at the first
rejected candidate; the longest surviving window supplies the estimate
theta_hat (its mean) and sigma_hat = (theta_hat / c_gamma)^(1/gamma).

`select_interval` is the readable single-time reference implementation and
keeps a full trace of every comparison. One module-private kernel,
`_scan_taus`, reproduces its decisions for many (series, tau) rows at once.
It sums each window from m0-block sums taken on their own, which never
cancel, since the transformed values are nonnegative, and decides every
split as `homogeneity_test` does. `_scan_path` walks the taus in blocks of
bounded size, so memory does not grow with n, and serves `estimate_path`
(one row) and `batch_estimate` (one row per Monte Carlo replication);
`_scan_at_tau` is the kernel at one tau, and calibration shares its split
arithmetic.

The kernel scans under several thresholds at once, and its results carry a
leading threshold axis. A split's statistic and root do not depend on
lambda; each threshold only makes its own comparison statistic > lam *
root. Since fl(lam_lo * root) <= fl(lam_hi * root), a row that the smaller
threshold keeps, the larger one keeps too, so one working set, held for
the largest threshold, serves them all, and every threshold's decisions
are those of a scan under it alone (`batch_estimate(..., lams=...)`; the
change-point study scans each gamma once).

The test suite pins the kernel to the reference. An exact tie at the
threshold keeps the window in both wherever the two window means agree
bit for bit, as for single values; numpy's mean sums pairwise, so in
longer windows the means, and with them a tie, can differ in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWindowError
from .series import PowerParams, ReturnSeries, TransformedSeries, VolEstimate, theta_to_sigma
from .transform import moment_constants, power_transform

__all__ = [
    "IntervalGrid",
    "HomogeneityTest",
    "TestRecord",
    "SelectionResult",
    "EstimatorConfig",
    "EstimatePath",
    "interval_mean",
    "estimated_std",
    "homogeneity_test",
    "select_interval",
    "estimate_path",
    "batch_estimate",
    "forecast_next",
]


@dataclass(frozen=True)
class IntervalGrid:
    """Candidate window lengths available at time tau: m0, 2*m0, ... <= tau."""

    m0: int
    tau: int
    interval_lengths: tuple[int, ...]

    def __post_init__(self):
        if not (self.m0 >= 1 and int(self.m0) == self.m0):
            raise ValueError("m0 must be a positive integer")
        if not (self.tau >= self.m0):
            raise ValueError("tau must be at least m0")
        lens = tuple(int(v) for v in self.interval_lengths)
        if not lens:
            raise ValueError("interval_lengths must be nonempty")
        prev = 0
        for v in lens:
            if v % self.m0 != 0 or v <= prev or v > self.tau:
                raise ValueError("interval_lengths must be increasing multiples of m0, each <= tau")
            prev = v
        object.__setattr__(self, "interval_lengths", lens)

    @classmethod
    def for_time(cls, tau: int, m0: int, max_len: int | None = None) -> "IntervalGrid":
        if not (m0 >= 1):
            raise ValueError("m0 must be a positive integer")
        if tau < m0:
            raise ValueError(f"tau={tau} is below the smallest window length m0={m0}")
        top = tau if max_len is None else min(tau, int(max_len))
        ks = range(1, top // m0 + 1)
        return cls(m0=int(m0), tau=int(tau), interval_lengths=tuple(k * m0 for k in ks))


@dataclass(frozen=True)
class HomogeneityTest:
    statistic: float
    threshold: float
    reject: bool


@dataclass(frozen=True)
class TestRecord:
    """One comparison from the selection scan (reject iff statistic > threshold)."""

    candidate_len: int
    test_len: int
    statistic: float
    threshold: float

    @property
    def reject(self) -> bool:
        return self.statistic > self.threshold


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Outcome of the interval scan at one time point.

    chosen_len : length of the selected interval of homogeneity.
    theta_hat : mean of the transformed series over that interval.
    v_tilde : estimated standard deviation of theta_hat.
    rejected_at : length of the first rejected candidate, None if the scan
        exhausted all candidates without a rejection.
    test_trace : every comparison performed, in scan order.
    """

    chosen_len: int
    theta_hat: float
    v_tilde: float
    rejected_at: int | None
    test_trace: tuple[TestRecord, ...]

    def to_estimate(self, params: PowerParams) -> VolEstimate:
        return VolEstimate(
            theta_hat=self.theta_hat,
            sigma_hat=theta_to_sigma(self.theta_hat, params),
            interval_len=self.chosen_len,
            v_tilde=self.v_tilde,
        )


@dataclass(frozen=True)
class EstimatorConfig:
    """Bundle of estimator settings shared by path estimation and forecasting.

    t0 defaults to 2*m0, the first time at which the scan has two candidate
    windows to compare. max_len caps the candidate length (None = up to tau).
    """

    gamma: float
    m0: int
    lam: float
    t0: int | None = None
    max_len: int | None = None

    def __post_init__(self):
        if not (self.gamma > 0.0):
            raise ValueError("gamma must be positive")
        if not (self.m0 >= 1 and int(self.m0) == self.m0):
            raise ValueError("m0 must be a positive integer")
        object.__setattr__(self, "m0", int(self.m0))
        if not (self.lam > 0.0):
            raise ValueError("lam must be positive")
        if self.t0 is not None and self.t0 < self.m0:
            raise ValueError("t0 must be at least m0")
        if self.max_len is not None and self.max_len < self.m0:
            raise ValueError("max_len must be at least m0")

    @property
    def start_time(self) -> int:
        return self.t0 if self.t0 is not None else 2 * self.m0


@dataclass(frozen=True, eq=False)
class EstimatePath:
    """Per-time volatility estimates over taus = t0, t0+1, ..., n.

    rejected_at holds the length of the first rejected candidate window, 0
    where the scan kept every candidate. A degenerate window at some tau is
    recorded as a gap: NaN in theta_hat and sigma_hat, 0 in interval_len and
    rejected_at.
    """

    taus: np.ndarray
    theta_hat: np.ndarray
    sigma_hat: np.ndarray
    interval_len: np.ndarray
    rejected_at: np.ndarray
    config: EstimatorConfig

    def __len__(self) -> int:
        return int(self.taus.size)

    def forecasts(self) -> list[tuple[int, float]]:
        """One-step-ahead variance forecasts (t, sigma_sq): the local-constant
        extrapolation predicts the variance at t+1 by sigma_hat_t squared.
        Gap entries are omitted."""
        out = []
        for t, s in zip(self.taus, self.sigma_hat):
            if np.isfinite(s):
                out.append((int(t), float(s * s)))
        return out


def interval_mean(y: TransformedSeries, lo: int, hi: int) -> float:
    """Mean of y over the half-open index window [lo, hi).

    Raises DegenerateWindowError when the window is all zeros (the scale of
    such a window is not estimable and every test on it is ill-defined).
    """
    n = len(y)
    if not (0 <= lo < hi <= n):
        raise ValueError(f"window [{lo}, {hi}) is not a valid range for n={n}")
    m = float(y.values[lo:hi].mean())
    if m == 0.0:
        raise DegenerateWindowError(f"window [{lo}, {hi}) contains only zeros")
    return m


def estimated_std(theta_tilde: float, length: int, params: PowerParams) -> float:
    """Plug-in standard deviation of a window mean: s_gamma * theta / sqrt(len)."""
    if not (theta_tilde > 0.0):
        raise ValueError("theta_tilde must be positive")
    if not (length >= 1):
        raise ValueError("length must be at least 1")
    return params.s_gamma * theta_tilde / float(np.sqrt(length))


def homogeneity_test(
    y: TransformedSeries,
    candidate_len: int,
    test_len: int,
    tau: int,
    lam: float,
    params: PowerParams,
) -> HomogeneityTest:
    """Compare the last test_len observations against the preceding part.

    With J the final test_len points before tau and I \\ J the
    candidate_len - test_len points before J, the statistic is the absolute
    difference of the two window means and the threshold is lam times the
    combined plug-in standard deviation. reject = statistic > threshold
    (strict).
    """
    if not (0 < test_len < candidate_len <= tau):
        raise ValueError(
            f"need 0 < test_len < candidate_len <= tau, got {test_len}, {candidate_len}, {tau}"
        )
    if tau > len(y):
        raise ValueError(f"tau={tau} exceeds series length {len(y)}")
    if not (lam > 0.0):
        raise ValueError("lam must be positive")
    theta_test = interval_mean(y, tau - test_len, tau)
    theta_rest = interval_mean(y, tau - candidate_len, tau - test_len)
    statistic = abs(theta_rest - theta_test)
    v_test = estimated_std(theta_test, test_len, params)
    v_rest = estimated_std(theta_rest, candidate_len - test_len, params)
    threshold = lam * float(np.sqrt(v_test * v_test + v_rest * v_rest))
    return HomogeneityTest(statistic=statistic, threshold=threshold, reject=statistic > threshold)


def select_interval(
    y: TransformedSeries,
    tau: int,
    m0: int,
    lam: float,
    params: PowerParams,
    max_len: int | None = None,
) -> SelectionResult:
    """Scan candidate windows at time tau and pick the interval of homogeneity.

    Candidates of length m0, 2*m0, ... are taken in increasing order. The
    shortest candidate is accepted without testing. Each longer candidate is
    tested against every split with test_len in {m0, ..., candidate_len - m0};
    the first candidate with any rejecting split stops the scan and the
    previous candidate is selected. All comparisons are recorded in
    test_trace (test_len ascending within each candidate).
    """
    if tau > len(y):
        raise ValueError(f"tau={tau} exceeds series length {len(y)}")
    grid = IntervalGrid.for_time(tau, m0, max_len)
    trace: list[TestRecord] = []
    chosen = grid.interval_lengths[0]
    rejected_at = None
    for candidate in grid.interval_lengths[1:]:
        candidate_rejected = False
        for test_len in range(m0, candidate, m0):
            ht = homogeneity_test(y, candidate, test_len, tau, lam, params)
            trace.append(TestRecord(candidate, test_len, ht.statistic, ht.threshold))
            candidate_rejected = candidate_rejected or ht.reject
        if candidate_rejected:
            rejected_at = candidate
            break
        chosen = candidate
    theta_hat = interval_mean(y, tau - chosen, tau)
    v_tilde = estimated_std(theta_hat, chosen, params)
    return SelectionResult(
        chosen_len=chosen,
        theta_hat=theta_hat,
        v_tilde=v_tilde,
        rejected_at=rejected_at,
        test_trace=tuple(trace),
    )


def _block_sums(values: np.ndarray, m0: int) -> np.ndarray:
    """Row-wise sums of every m0 consecutive values, entry s summing values
    s .. s+m0-1, each taken on its own. The transformed values are
    nonnegative, so a block sum is zero exactly when its values are, and
    sums of blocks never cancel: whatever came before a window, its sum is
    accurate to its length times eps, relative."""
    rows = np.atleast_2d(np.asarray(values, dtype=float))
    # the m0 shifted copies of each row, added up: entry (i, s) of a row's
    # view is values[s + i]; a row shorter than m0 has no blocks
    width = max(rows.shape[1] - m0 + 1, 0)
    return np.lib.stride_tricks.sliding_window_view(rows, width, axis=1).sum(axis=1)


def _test_terms(test_sums: np.ndarray, test_lens, s_gamma: float):
    """Test-side terms of the splits whose test windows sum to test_sums:
    theta_test = test_sums / test_len and v_test^2, formed as
    homogeneity_test forms them. Neither depends on the candidate, so the
    scan computes them once per column."""
    theta_test = test_sums / test_lens
    v_test = s_gamma * theta_test / np.sqrt(test_lens)
    return theta_test, v_test * v_test


def _split_terms(rest, theta_test, v_test_sq, m0: int, s_gamma: float):
    """Split arithmetic of one candidate, candidate-major: row i of rest
    sums the candidate's values before its test window of length
    j = (i+1)*m0 (rest lengths run down from rest.shape[0]*m0 to m0), and
    theta_test, v_test_sq come from _test_terms on the test sums.

    Returns statistic = |theta_rest - theta_test| of the two window means
    and root = sqrt(v_test^2 + v_rest^2), v = s_gamma * theta / sqrt(len);
    a split rejects at lam when statistic > lam * root, as in
    homogeneity_test.
    """
    rest_lens = m0 * np.arange(rest.shape[0], 0, -1, dtype=float)[:, None]
    theta_rest = rest / rest_lens
    statistic = np.abs(theta_rest - theta_test)
    # in place, in homogeneity_test's order of operations
    v_rest = np.multiply(s_gamma, theta_rest, out=theta_rest)
    v_rest /= np.sqrt(rest_lens)
    v_rest *= v_rest
    v_rest += v_test_sq
    return statistic, np.sqrt(v_rest, out=v_rest)


# Budget of one block of taus: its rows times their largest candidate
# count. The scan's working set holds three float arrays of that size (the
# rest sums of every split and the two test-side terms of each column), and
# one candidate's split temporaries are no larger, so a block takes a small
# multiple of 2**16 floats however long the series or wide the batch.
_BLOCK_ELEMENTS = 2**16


def _scan_taus(
    blocks: np.ndarray,
    taus: np.ndarray,
    m0: int,
    lams: np.ndarray,
    s_gamma: float,
    max_len: int | None = None,
):
    """Vectorized replica of select_interval's decisions at a block of taus,
    under each of the ascending thresholds lams at once.

    blocks : _block_sums of R series; taus : int64 array. Every
    (series, tau) pair is a row with its own candidate count
    min(tau, max_len) // m0. Returns (lams.size, R, taus.size) arrays:
    chosen length, theta_hat and a flag for rows where select_interval
    would raise.

    Candidates k = 1, 2, ... are taken one at a time on a candidate-major
    working set (candidates x rows). At candidate k each held row gathers
    only block k, the m0 values ending (k-1)*m0 before tau. The test sum
    grows by it, and so does the rest sum of every split of k (split j's
    rest is blocks j+1..k); the column's test-side terms are computed once
    and serve every later candidate. A split's statistic and root do not
    depend on the threshold, so they are computed once for all of lams, and
    each threshold decides with its own comparison statistic > lam * root,
    as homogeneity_test does. A row stops, under each threshold, at its
    first rejection or after its own last candidate, and records theta_hat
    and its chosen length as it accepts each candidate.

    For roots >= 0, lam_lo <= lam_hi gives fl(lam_lo * root) <= fl(lam_hi
    * root), so a split that rejects under the larger threshold rejects
    under the smaller one too: a row live under any threshold is live
    under the largest. The working set therefore holds a row while it is
    live under lams[-1]; stopped rows stay in it, masked, until fewer than
    half of its rows are live under lams[-1], and then it is compacted to
    those rows.

    The degenerate flag is decided as the blocks are gathered: a row is
    degenerate exactly when one of the blocks 1..k is zero, k being the
    rejected candidate or else the last. Every examined window holds block
    1 or the oldest block of its candidate, and each such block is itself
    examined (the test window at j = m0, the rest window at j = (k-1)*m0).
    """
    n_series, width = blocks.shape
    flat_blocks = blocks.ravel()
    tops = taus if max_len is None else np.minimum(taus, int(max_len))
    all_cand = np.tile(tops // m0, n_series)
    n_rows, k_max = all_cand.size, int(all_cand.max())
    # per-threshold, per-row results, copied out of the working set when it
    # is compacted and at the end
    out_chosen = np.empty((lams.size, n_rows), dtype=np.int64)
    out_theta = np.empty((lams.size, n_rows))
    out_degenerate = np.empty((lams.size, n_rows), dtype=bool)

    # the working set: one entry per row it holds, live or masked
    rows = np.arange(n_rows)
    n_cand = all_cand
    at = (width * np.arange(n_series)[:, None] + taus).ravel()  # flat (series, tau)
    test_sum = np.zeros(n_rows)
    chosen = np.empty((lams.size, n_rows), dtype=np.int64)
    theta = np.empty((lams.size, n_rows))
    degenerate = np.zeros((lams.size, n_rows), dtype=bool)
    live = np.ones((lams.size, n_rows), dtype=bool)
    rest, theta_test, v_test_sq = (np.empty((k_max, n_rows)) for _ in range(3))
    fewest = int(n_cand.min())  # every held row has candidates up to here
    lam_list = lams.tolist()

    for k in range(1, k_max + 1):
        if k > fewest:
            live &= n_cand >= k
        n_live = np.count_nonzero(live[-1])
        if n_live == 0:
            break
        if 2 * n_live < rows.size:
            out_chosen[:, rows], out_theta[:, rows], out_degenerate[:, rows] = (
                chosen, theta, degenerate
            )
            keep = np.flatnonzero(live[-1])
            rows, n_cand, at, test_sum = (a[keep] for a in (rows, n_cand, at, test_sum))
            chosen, theta, degenerate, live = (
                a[:, keep] for a in (chosen, theta, degenerate, live)
            )
            held = (rest, theta_test, v_test_sq)
            rest, theta_test, v_test_sq = (np.empty((k_max, keep.size)) for _ in held)
            for old, new in zip(held, (rest, theta_test, v_test_sq)):
                new[: k - 1] = old[: k - 1, keep]
            fewest = int(n_cand.min())

        # masked rows gather too; past its last candidate a row reads a
        # clipped block whose value is never used
        block = np.take(flat_blocks, at - k * m0, mode="clip")
        degenerate |= (block == 0.0) & live
        test_sum += block
        theta_test[k - 1], v_test_sq[k - 1] = _test_terms(test_sum, k * m0, s_gamma)
        if k > 1:
            rest[k - 2] = block
            rest[: k - 2] += block
            statistic, root = _split_terms(
                rest[: k - 1], theta_test[: k - 1], v_test_sq[: k - 1], m0, s_gamma
            )
            for lam, live_under in zip(lam_list, live):
                live_under ^= (statistic > lam * root).any(axis=0) & live_under
        np.copyto(chosen, k, where=live)
        np.copyto(theta, theta_test[k - 1], where=live)

    out_chosen[:, rows], out_theta[:, rows], out_degenerate[:, rows] = chosen, theta, degenerate
    shape = (lams.size, n_series, taus.size)
    return (
        (out_chosen * m0).reshape(shape),
        out_theta.reshape(shape),
        out_degenerate.reshape(shape),
    )


def _rejected_lengths(lens, taus, m0: int, max_len: int | None = None):
    """First rejected candidate length at each tau, read off the chosen
    length: the next candidate where the scan stopped before its last one,
    0 where it kept every candidate or left a gap (length 0)."""
    tops = taus if max_len is None else np.minimum(taus, int(max_len))
    return np.where((lens > 0) & (lens < tops // m0 * m0), lens + m0, 0)


def _scan_at_tau(
    values: np.ndarray,
    tau: int,
    m0: int,
    lam: float,
    s_gamma: float,
    max_len: int | None = None,
):
    """_scan_taus on the transformed values of R series at the single time
    tau: arrays over the series of chosen length, theta_hat, rejected
    candidate length (0 when none) and the degenerate flag."""
    taus = np.array([tau])
    scan = _scan_taus(_block_sums(values, m0), taus, m0, np.array([lam]), s_gamma, max_len)
    chosen, theta, degenerate = (column[0, :, 0] for column in scan)
    return chosen, theta, _rejected_lengths(chosen, taus, m0, max_len), degenerate


def _scan_path(blocks: np.ndarray, n: int, config: EstimatorConfig, lams):
    """Run the scan at every tau from t0 through n on each series, under
    each threshold of lams (any order; config.lam is not used).

    blocks : _block_sums of (R, n) transformed series. Returns taus and
    (lams.size, R, taus.size) arrays theta and lens, entry i under lams[i];
    a degenerate window leaves a gap, NaN in theta and 0 in lens. The taus
    are scanned in blocks of at most _BLOCK_ELEMENTS working-set entries
    (rows x candidates), so memory stays bounded in n. _scan_taus takes
    the thresholds in ascending order; its results are written straight to
    their places in the caller's order.
    """
    t0 = config.start_time
    if t0 > n:
        raise ValueError(f"t0={t0} exceeds series length {n}")
    s_gamma = moment_constants(config.gamma).s_gamma
    lams = np.asarray(lams, dtype=float)
    order = np.argsort(lams, kind="stable")
    n_series = blocks.shape[0]

    taus = np.arange(t0, n + 1, dtype=np.int64)
    top = n if config.max_len is None else min(n, int(config.max_len))
    per_block = max(1, _BLOCK_ELEMENTS // (n_series * (top // config.m0)))
    theta = np.empty((lams.size, n_series, taus.size))
    lens = np.empty(theta.shape, dtype=np.int64)
    for lo in range(0, taus.size, per_block):
        block = slice(lo, lo + per_block)
        chosen_len, theta_hat, degenerate = _scan_taus(
            blocks, taus[block], config.m0, lams[order], s_gamma, config.max_len
        )
        theta_hat[degenerate], chosen_len[degenerate] = np.nan, 0
        theta[order, :, block], lens[order, :, block] = theta_hat, chosen_len
    return taus, theta, lens


def estimate_path(r: ReturnSeries, config: EstimatorConfig) -> EstimatePath:
    """Run the interval scan at every time tau from t0 through the end.

    Estimates at tau use only the first tau observations. Degenerate windows
    become gaps (NaN estimate, interval length 0) rather than errors.
    """
    params = moment_constants(config.gamma)
    y = power_transform(r, config.gamma)
    blocks = _block_sums(y.values, config.m0)
    taus, theta, lens = _scan_path(blocks, len(y), config, [config.lam])
    theta, lens = theta[0, 0], lens[0, 0]
    return EstimatePath(
        taus=taus,
        theta_hat=theta,
        sigma_hat=theta_to_sigma(theta, params),
        interval_len=lens,
        rejected_at=_rejected_lengths(lens, taus, config.m0, config.max_len),
        config=config,
    )


def batch_estimate(returns: np.ndarray, config: EstimatorConfig, *, lams=None):
    """Run the adaptive scan at every tau >= t0 for many series at once.

    returns has shape (replications, n). Gives (taus, sigma_hat, lens) where
    sigma_hat and lens have shape (replications, taus.size); degenerate
    windows appear as NaN / 0, matching estimate_path's gap convention.

    lams, a sequence of positive thresholds in any order, replaces
    config.lam: the draws are scanned once for all of them, and sigma_hat
    and lens gain a leading axis, entry i being bit for bit the result
    under config.lam = lams[i]. Each threshold decides every split with its
    own comparison; see _scan_taus.
    """
    returns = np.atleast_2d(np.asarray(returns, dtype=float))
    thresholds = np.array([config.lam] if lams is None else lams, dtype=float)
    if thresholds.ndim != 1 or thresholds.size == 0 or not np.all(thresholds > 0.0):
        raise ValueError("lams must be a nonempty sequence of positive thresholds")
    params = moment_constants(config.gamma)
    # the transformed values are dropped as soon as their block sums exist
    blocks = _block_sums(np.abs(returns) ** config.gamma, config.m0)
    taus, sigma, lens = _scan_path(blocks, returns.shape[1], config, thresholds)
    # theta_to_sigma, in place: (theta / c_gamma) ** (1 / gamma)
    sigma /= params.c_gamma
    sigma **= 1.0 / params.gamma
    if lams is None:
        return taus, sigma[0], lens[0]
    return taus, sigma, lens


def forecast_next(r: ReturnSeries, t: int, config: EstimatorConfig) -> float:
    """One-step-ahead volatility forecast: sigma_hat at t extrapolated to t+1.

    Uses observations up to and including t only.
    """
    if t < config.start_time:
        raise ValueError(f"t={t} is before the first estimation time {config.start_time}")
    if t > len(r):
        raise ValueError(f"t={t} exceeds series length {len(r)}")
    params = moment_constants(config.gamma)
    y = power_transform(r, config.gamma)
    sel = select_interval(y, t, config.m0, config.lam, params, config.max_len)
    return theta_to_sigma(sel.theta_hat, params)
