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
`_scan_rows`, reproduces its decisions for a set of (series, tau) rows at
once. It sums each window from m0-block sums taken on their own, which never
cancel, since the transformed values are nonnegative, and decides every
split as `homogeneity_test` does. Each candidate step spends little beyond
that arithmetic: a row's kept candidates are counted, and its theta_hat is
read once from the test-side terms already stored when it leaves the
working set. The test-side terms and each threshold's comparison are
written into the working set and buffers allocated with it, not into new
arrays each step. `_scan_taus` walks the taus in blocks of bounded size, so
memory does not grow with n, writes each row's results once into its
output, stored tau-major so that the rows of one tau land side by side,
and runs the few rows that blocks leave scanning long in pooled passes of
the same kernel, each once the pool fills the block budget or the last
block is done. Gaps, where select_interval raises on a window of zeros,
are decided once after the scan, by `_gaps`, from each row's chosen length
and its first all-zero block counted back from tau; a scan whose block
sums hold no zero has none. `_scan_path` applies the gaps and serves
`estimate_path` (one row) and `batch_estimate` (one row per Monte Carlo
replication); `_scan_at_tau` is the scan at one tau, which `forecast_next`
runs, and calibration shares its split arithmetic.

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

from bisect import bisect_right

import numpy as np

from ._record import Record, ValueRecord
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


def _integer(name: str, value) -> int:
    """value as an int: an integral float such as 20.0, or a numpy integer,
    is stored as its int, and anything else raises ValueError."""
    try:
        integral = bool(np.isfinite(value)) and int(value) == value
    except (TypeError, ValueError):
        integral = False
    if not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class IntervalGrid(ValueRecord):
    """Candidate window lengths available at time tau: m0, 2*m0, ... <= tau."""

    m0: int
    tau: int
    interval_lengths: tuple[int, ...]

    def __post_init__(self):
        for name in ("m0", "tau"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.m0 < 1:
            raise ValueError("m0 must be a positive integer")
        if self.tau < self.m0:
            raise ValueError(f"tau={self.tau} is below the smallest window length m0={self.m0}")
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
        """Every multiple of m0 up to min(tau, max_len). An integral float
        runs as its int, and any other value that is not an integer raises
        ValueError."""
        m0, tau = _integer("m0", m0), _integer("tau", tau)
        if m0 < 1:
            raise ValueError("m0 must be a positive integer")
        top = tau if max_len is None else min(tau, _integer("max_len", max_len))
        return cls(m0=m0, tau=tau, interval_lengths=tuple(range(m0, top + 1, m0)))


class HomogeneityTest(ValueRecord):
    """One split test's verdict: reject iff statistic > threshold."""

    statistic: float
    threshold: float
    reject: bool


class TestRecord(ValueRecord):
    """One comparison from the selection scan (reject iff statistic > threshold)."""

    candidate_len: int
    test_len: int
    statistic: float
    threshold: float

    @property
    def reject(self) -> bool:
        return self.statistic > self.threshold


class SelectionResult(Record):
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


class EstimatorConfig(ValueRecord):
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
        object.__setattr__(self, "m0", _integer("m0", self.m0))
        if self.m0 < 1:
            raise ValueError("m0 must be a positive integer")
        if not (self.lam > 0.0):
            raise ValueError("lam must be positive")
        for name in ("t0", "max_len"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _integer(name, value))
                if value < self.m0:
                    raise ValueError(f"{name} must be at least m0")

    @property
    def start_time(self) -> int:
        return self.t0 if self.t0 is not None else 2 * self.m0


class EstimatePath(Record):
    """Per-time volatility estimates over taus = t0, t0+1, ..., n.

    interval_len and rejected_at are int32. rejected_at holds the length of
    the first rejected candidate window, 0 where the scan kept every
    candidate. A degenerate window at some tau is recorded as a gap: NaN in
    theta_hat and sigma_hat, 0 in interval_len and rejected_at.
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
    grid = IntervalGrid.for_time(tau, m0, max_len)
    tau, m0 = grid.tau, grid.m0
    if tau > len(y):
        raise ValueError(f"tau={tau} exceeds series length {len(y)}")
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


def _test_terms(test_sums: np.ndarray, test_lens, s_gamma: float, out=(None, None)):
    """Test-side terms of the splits whose test windows sum to test_sums:
    theta_test = test_sums / test_len and v_test^2, formed as
    homogeneity_test forms them, into the pair of arrays out if given.
    Neither depends on the candidate, so the scan computes them once per
    column."""
    theta_test = np.divide(test_sums, test_lens, out=out[0])
    v_test = np.multiply(s_gamma, theta_test, out=out[1])
    v_test /= np.sqrt(test_lens)
    return theta_test, np.multiply(v_test, v_test, out=v_test)


def _rest_lengths(splits: int, m0: int):
    """Rest lengths of the splits of a candidate of splits + 1 blocks, a
    (splits, 1) float column running down from splits*m0 to m0, and their
    square roots. A candidate with fewer splits takes the last rows of
    both, so one pair serves every candidate of a scan."""
    rest_lens = m0 * np.arange(splits, 0, -1, dtype=float)[:, None]
    return rest_lens, np.sqrt(rest_lens)


def _split_terms(rest, theta_test, v_test_sq, rest_lens, rest_roots, s_gamma: float):
    """Split arithmetic of one candidate, candidate-major: row i of rest
    sums the candidate's values before its test window of length
    j = (i+1)*m0, rest_lens and rest_roots are the rest windows' lengths
    and their square roots (_rest_lengths), and theta_test, v_test_sq come
    from _test_terms on the test sums.

    Returns statistic = |theta_rest - theta_test| of the two window means
    and root = sqrt(v_test^2 + v_rest^2), v = s_gamma * theta / sqrt(len);
    a split rejects at lam when statistic > lam * root, as in
    homogeneity_test.
    """
    theta_rest = rest / rest_lens
    # in place, in homogeneity_test's order of operations
    statistic = np.subtract(theta_rest, theta_test)
    np.abs(statistic, out=statistic)
    v_rest = np.multiply(s_gamma, theta_rest, out=theta_rest)
    v_rest /= rest_roots
    v_rest *= v_rest
    v_rest += v_test_sq
    return statistic, np.sqrt(v_rest, out=v_rest)


# Budget of one block of taus: its rows (series x taus) times the largest
# candidate count among them, its last tau's. The scan's working set holds
# three float arrays of that size (the rest sums of every split and the two
# test-side terms of each column) and buffers for one candidate's lam * root
# and comparison, and its split temporaries are no larger, so a block takes a
# small multiple of 2**16 floats however long
# the series or wide the batch. A pooled pass of stragglers keeps to the same
# budget.
_BLOCK_ELEMENTS = 2**16

# The fixed cost of one candidate step of the kernel, some 30 numpy calls,
# in split entries (one split of one row): 30-40 us against 8-13 ns per
# entry on a 2-vCPU x86-64 VM. The kernel compacts its working set, and
# hands stragglers to the pooled pass, only where that saves more than it
# costs in these units.
_STEP_ENTRIES = 2**12


def _candidate_counts(taus: np.ndarray, m0: int, max_len: int | None) -> np.ndarray:
    """Candidate windows at each tau: min(tau, max_len) // m0, which never
    decreases along increasing taus."""
    tops = taus if max_len is None else np.minimum(taus, int(max_len))
    return tops // m0


def _tau_blocks(counts: np.ndarray, n_series: int) -> list[int]:
    """Split taus with nondecreasing candidate counts into consecutive
    blocks [bounds[i], bounds[i + 1]) for _scan_taus.

    Each block takes as many taus as fit n_series * (its taus) * (its last
    tau's count) <= _BLOCK_ELEMENTS, so the first taus of a scan, which have
    few candidates, share a block with many others. A tau over budget on its
    own is a block of one.
    """
    budget = _BLOCK_ELEMENTS // n_series
    counts = counts.tolist()
    bounds = [0]
    while bounds[-1] < len(counts):
        lo = bounds[-1]
        # the entries per series of block [lo, hi) grow with hi
        fits = bisect_right(
            range(lo + 1, len(counts) + 1), budget, key=lambda hi: (hi - lo) * counts[hi - 1]
        )
        bounds.append(lo + max(fits, 1))
    return bounds


def _write_rows(out, m0: int, rows, chosen, state, cols):
    """Write the results of the working-set columns cols of _scan_rows into
    out = (lens, theta), each (thresholds, N), at the rows' destinations
    (flat positions in the tau-major results of _scan_taus): the chosen
    length and theta_test of the last kept candidate. Nothing here decides
    a gap; _scan_taus does, once the scan is done (_gaps)."""
    counts = chosen.take(cols, axis=1)
    dest = rows[0].take(cols)
    theta = state[1].take((counts - 1) * state.shape[2] + cols)
    for i in range(counts.shape[0]):
        out[0][i][dest] = counts[i] * m0
        out[1][i][dest] = theta[i]


def _working_set(count: int, n_rows: int):
    """A working set of _scan_rows for n_rows rows of at most count
    candidates: per candidate k - 1, the rest sums of its splits, then
    theta_test and v_test^2 of its test window; and room for one step's
    lam * root and its comparison with the statistic."""
    splits = max(count - 1, 0), n_rows
    return np.empty((3, count, n_rows)), np.empty(splits), np.empty(splits, dtype=bool)


def _scan_rows(flat_blocks, rows, m0: int, lams, s_gamma: float, out, pool=None):
    """Vectorized replica of select_interval's decisions for a set of rows,
    under each of the thresholds lams at once, in any order.

    flat_blocks : the raveled _block_sums of the series. rows : a (3, n)
    int array; each column is one (series, tau) row, given as its
    destination in out, the flat position of (series, tau) in flat_blocks
    and its candidate count min(tau, max_len) // m0. Results go to out, see
    _write_rows.

    Candidates k = 1, 2, ... are taken one at a time on a candidate-major
    working set (candidates x rows). At candidate k each held row gathers
    only block k, the m0 values ending (k-1)*m0 before tau. The test sum
    grows by it, and so does the rest sum of every split of k (split j's
    rest is blocks j+1..k); the column's test-side terms are computed once
    and serve every later candidate. A split's statistic and root do not
    depend on the threshold, so they are computed once for all of lams, and
    each threshold decides with its own comparison statistic > lam * root,
    as homogeneity_test does. A row stops, under each threshold, at its
    first rejection or after its own last candidate.

    Each step spends little beyond that arithmetic. A row's kept candidates
    are counted (chosen += live), and its theta_hat, the theta_test column
    of its last kept candidate, is read once, when the row leaves the
    working set. The kernel leaves gaps alone: _scan_taus decides them from
    the chosen lengths once the scan is done (_gaps).

    For roots >= 0, lam_lo <= lam_hi gives fl(lam_lo * root) <= fl(lam_hi
    * root), so a split that rejects under the larger threshold rejects
    under the smaller one too: a row live under any threshold is live
    under the largest. The working set therefore holds a row while it is
    live under the largest threshold; stopped rows stay in it, masked,
    until fewer than 3/4 of its rows are live and the masked rows' split
    entries outweigh a step's fixed cost, and then it is compacted to the
    live rows.

    Given a pool (a list), the scan hands its live rows over once they are
    so few that a pooled pass of k_last steps, the working set's largest
    candidate count, can serve k_last such hand-overs within
    _BLOCK_ELEMENTS, and redoing their splits so far costs less than one
    step: it appends them to pool and returns. The caller runs the pooled
    rows in one more scan without a pool. They restart there at k = 1,
    so their results are the same bits.

    Memory: the working set's three (count, rows) float arrays and its
    (count - 1, rows) buffers for lam * root (float) and the comparison
    (bool), the rest-length column and its square root (count - 1 floats
    each, built once and sliced at each step), the rows and per row a test
    sum, a count and a flag per threshold, and no first-zero index; a
    compaction holds the old and the new working set for a moment, and
    drops the old one once its columns are copied.
    """
    n_rows = rows.shape[1]
    state, scaled, rejects = _working_set(int(rows[2].max()), n_rows)
    # a compacted working set is no taller, so these serve it too
    rest_lens, rest_roots = _rest_lengths(state.shape[1] - 1, m0)
    test_sum = np.zeros(n_rows)
    chosen = np.zeros((lams.size, n_rows), dtype=np.int64)
    live = np.ones((lams.size, n_rows), dtype=bool)
    _, at, n_cand = rows
    fewest = int(n_cand.min())
    lam_list, top = lams.tolist(), int(lams.argmax())

    for k in range(1, state.shape[1] + 1):
        if k > fewest:
            live &= n_cand >= k
        n_live = np.count_nonzero(live[top])
        if n_live == 0:
            break
        n_held, k_last = rows.shape[1], state.shape[1]
        if (
            pool is not None
            and n_live * k_last * k_last <= _BLOCK_ELEMENTS
            and n_live * k * (k - 1) < 2 * _STEP_ENTRIES
        ):
            _write_rows(out, m0, rows, chosen, state, np.flatnonzero(~live[top]))
            pool.append(rows.compress(live[top], axis=1))
            return
        if 4 * n_live < 3 * n_held and (n_held - n_live) * k > _STEP_ENTRIES:
            _write_rows(out, m0, rows, chosen, state, np.flatnonzero(~live[top]))
            keep = np.flatnonzero(live[top])
            rows, chosen, live = (a.take(keep, axis=1) for a in (rows, chosen, live))
            test_sum = test_sum.take(keep)
            _, at, n_cand = rows
            held = state
            state, scaled, rejects = _working_set(int(n_cand.max()), keep.size)
            for old, new in zip(held, state):
                old[: k - 1].take(keep, axis=1, out=new[: k - 1], mode="clip")
            del held, old, new
            fewest = int(n_cand.min())

        # block k goes straight into rest row k - 2, the rest of split
        # k - 1; block 1 into row 0, which block 2 overwrites. Masked rows
        # gather too; past its last candidate a row reads a clipped block
        # whose value is never used
        rest, theta_test, v_test_sq = state[:, :k]
        block = flat_blocks.take(at - k * m0, out=rest[max(k - 2, 0)], mode="clip")
        test_sum += block
        _test_terms(test_sum, k * m0, s_gamma, out=(theta_test[k - 1], v_test_sq[k - 1]))
        if k > 1:
            rest[: k - 2] += block
            statistic, root = _split_terms(
                rest[:-1], theta_test[:-1], v_test_sq[:-1],
                rest_lens[1 - k :], rest_roots[1 - k :], s_gamma,
            )
            scaled_k, rejects_k = scaled[: k - 1], rejects[: k - 1]
            for lam, live_under in zip(lam_list, live):
                np.greater(statistic, np.multiply(lam, root, out=scaled_k), out=rejects_k)
                live_under ^= rejects_k.any(axis=0) & live_under
        chosen += live

    _write_rows(out, m0, rows, chosen, state, np.arange(rows.shape[1]))


def _scan_taus(
    blocks: np.ndarray,
    taus: np.ndarray,
    m0: int,
    lams: np.ndarray,
    s_gamma: float,
    max_len: int | None = None,
):
    """select_interval's decisions at each of the taus on every series,
    under each of the thresholds lams at once, in any order.

    blocks : _block_sums of R series; taus : int64 array. Every
    (series, tau) pair is a row with its own candidate count
    min(tau, max_len) // m0. Returns (lams.size, R, taus.size) arrays:
    chosen length (int32), theta_hat and a flag for rows where
    select_interval would raise; a flagged row keeps the length and
    theta_hat the scan reached. Each is a transposed view of a tau-major (lams.size,
    taus.size, R) array, not a copy: row (series s, tau index i) is written
    at s + R * i, so the rows of one tau, series-major within every block,
    land side by side. The flags are decided once, after the scan, by
    _gaps; without a zero block sum they are a read-only all-False view.

    The taus are scanned by _scan_rows in the blocks of _tau_blocks, each
    sized by its own largest candidate count to at most _BLOCK_ELEMENTS
    working-set entries (rows x candidates) unless it is a single tau, so
    memory stays bounded in the length of the series. Each row's results
    are written once, straight into the returned arrays. A block that is
    down to a few live rows hands them to a pool, and the pooled rows run
    in one pass once they exceed the budget or the last block is done, so
    their last steps are shared with the stragglers of many other blocks. A pooled pass runs up to the largest candidate count k_last
    among its rows, so a block is given the pool only when the scan has
    more than k_last blocks, and the last block only when the pool already
    holds rows. Besides one block's or one pooled pass's working set, the
    scan holds its results, 12 bytes per entry and threshold (the int32
    length and the float theta_hat, each stored once in the tau-major
    arrays), and three ints per pooled row; the gap flags take one byte
    more, and _gaps a position per block sum, only where a block sum is
    zero.
    """
    n_series, width = blocks.shape
    flat_blocks = blocks.ravel()
    counts = _candidate_counts(taus, m0, max_len)
    shape = (lams.size, taus.size, n_series)
    # a length is at most the series length, so 4 bytes hold it
    lens, theta = np.empty(shape, dtype=np.int32), np.empty(shape)
    out = lens.reshape(lams.size, -1), theta.reshape(lams.size, -1)
    series = np.arange(n_series)[:, None]
    at_series = width * series
    bounds = _tau_blocks(counts, n_series)
    pool = []
    for lo, hi in zip(bounds, bounds[1:]):
        # destination, flat block position and candidate count of each row
        rows = np.empty((3, n_series, hi - lo), dtype=np.int64)
        rows[0] = series + n_series * np.arange(lo, hi)
        rows[1] = at_series + taus[lo:hi]
        rows[2] = counts[lo:hi]
        rows = rows.reshape(3, -1)
        shared = counts[hi - 1] < len(bounds) - 1 and (bool(pool) or hi < taus.size)
        _scan_rows(flat_blocks, rows, m0, lams, s_gamma, out, pool if shared else None)
        pooled = sum(p.shape[1] for p in pool)
        if pooled and (hi == taus.size or pooled * int(counts[hi - 1]) > _BLOCK_ELEMENTS):
            _scan_rows(flat_blocks, np.concatenate(pool, axis=1), m0, lams, s_gamma, out)
            pool.clear()
    gap = _gaps(blocks, taus, m0, counts, lens)
    return tuple(a.transpose(0, 2, 1) for a in (lens, theta, gap))


def _gaps(blocks: np.ndarray, taus: np.ndarray, m0: int, counts: np.ndarray, lens: np.ndarray):
    """Gap flags of the tau-major lens (thresholds, taus, R) of _scan_taus:
    where select_interval would raise on the row (series, tau).

    Block k of a row is the m0 values ending (k-1)*m0 before tau, and the
    row is a gap exactly when one of its blocks 1..stop sums to zero, stop
    being the rejected candidate or else the last, min(lens // m0 + 1,
    count). Every examined window holds block 1 or the oldest block of its
    candidate, and each such block is itself examined (the test window at
    j = m0, the rest window at j = (k-1)*m0). So the first zero block
    counted back from tau decides the row under every threshold.
    """
    if blocks.all():
        return np.broadcast_to(False, lens.shape)
    n_series, width = blocks.shape
    # latest[s, p]: the last zero block position q <= p of series s with
    # q = p modulo m0, a running maximum per residue; without one, a
    # position so far back that its block count exceeds every candidate count
    none = -(width + m0)
    latest = np.full((n_series, -(-width // m0) * m0), none)
    latest[:, :width] = np.where(blocks == 0.0, np.arange(width), none)
    steps = latest.reshape(n_series, -1, m0)
    np.maximum.accumulate(steps, axis=1, out=steps)
    # block 1 of the row at tau starts at tau - m0
    first_zero = (taus - latest[:, taus - m0]) // m0
    return first_zero.T <= np.minimum(lens // m0 + 1, counts[:, None])


def _rejected_lengths(lens, taus, m0: int, max_len: int | None = None):
    """First rejected candidate length at each tau, read off the chosen
    length: the next candidate where the scan stopped before its last one,
    0 where it kept every candidate or left a gap (length 0)."""
    last = _candidate_counts(taus, m0, max_len) * m0
    return np.where((lens > 0) & (lens < last), lens + m0, 0)


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
    (lams.size, R, taus.size) arrays theta and lens, entry i under lams[i],
    the transposed views of _scan_taus;
    a degenerate window leaves a gap, NaN in theta and 0 in lens. The scan
    is one _scan_taus over all the taus, which bounds its memory in n; the
    gaps are applied to its results here, in one pass over each array, and
    only where a block sum is zero, without which _gaps flags no row.
    """
    t0 = config.start_time
    if t0 > n:
        raise ValueError(f"t0={t0} exceeds series length {n}")
    s_gamma = moment_constants(config.gamma).s_gamma
    lams = np.asarray(lams, dtype=float)
    taus = np.arange(t0, n + 1, dtype=np.int64)
    lens, theta, gap = _scan_taus(blocks, taus, config.m0, lams, s_gamma, config.max_len)
    if not blocks.all():
        theta[gap], lens[gap] = np.nan, 0
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
    sigma_hat and lens (int32) have shape (replications, taus.size);
    degenerate windows appear as NaN / 0, matching estimate_path's gap
    convention.
    sigma_hat and lens may be views that are not C-contiguous (the scan
    stores its results tau-major); a reduction over them, such as np.sum,
    adds in memory order, so a caller that needs the bits of a
    C-ordered sum makes a C-ordered copy first.

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

    Uses observations up to and including t only, and equals estimate_path's
    sigma_hat at t bit for bit. Raises DegenerateWindowError where
    estimate_path leaves a gap.
    """
    t = _integer("t", t)
    if t < config.start_time:
        raise ValueError(f"t={t} is before the first estimation time {config.start_time}")
    if t > len(r):
        raise ValueError(f"t={t} exceeds series length {len(r)}")
    params = moment_constants(config.gamma)
    y = power_transform(r, config.gamma)
    _, theta, _, degenerate = _scan_at_tau(
        y.values[:t], t, config.m0, config.lam, params.s_gamma, config.max_len
    )
    if degenerate[0]:
        raise DegenerateWindowError(f"a window examined at t={t} contains only zeros")
    return theta_to_sigma(theta[0], params)
