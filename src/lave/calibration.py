"""Monte Carlo calibration of the homogeneity-test threshold.

Under the homogeneous null the transformed observations are
Y_t = |xi_t|^gamma / c_gamma with constant unit level, so an ideal scan
keeps every candidate window. For a series of length M the threshold
lambda is tuned so that the longest candidate window at tau = M (length M
when m0 divides M, else the largest multiple of m0 below M) is wrongly
rejected by one of its own split tests in a target fraction (default 5%)
of replications. Shorter candidates of the scan are not part of this
event; a false rejection of any candidate at tau = M is more frequent, and
its 5% thresholds for gamma = 0.5 are about 2.6 (M = 40) and 3.2 (M = 80).

Each replication is summarized once by

    T = max over splits of that window of statistic / unit_threshold,

where unit_threshold is the test threshold at lambda = 1. That test rejects
at threshold lambda exactly when T > lambda, so the rejection frequency at
any lambda is mean(T > lambda) on a single fixed set of draws. Bisection
over lambda then reuses common random numbers by construction, which keeps
the frequency monotone in lambda and the calibrated values reproducible
from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CalibrationBracketError
from .estimator import _block_sums, _split_terms, _test_terms
from .series import PowerParams, TransformedSeries
from .transform import moment_constants

__all__ = [
    "CalibrationSpec",
    "CalibrationResult",
    "simulate_homogeneous",
    "rejection_frequency",
    "calibrate_lambda",
    "conservative_lambda",
]

_LAMBDA_LO = 0.5
_LAMBDA_HI = 6.0
_RATE_TOL = 0.005
_LAMBDA_TOL = 1e-3


@dataclass(frozen=True)
class CalibrationSpec:
    """Settings for one calibration run.

    M : length of the homogeneous series. The longest candidate window,
        whose splits are tested at tau = M, is the largest multiple of m0
        not above M.
    m0 : grid step of the scan.
    target_alpha : desired probability that the longest candidate window at
        tau = M is falsely rejected by one of its own split tests.
    """

    gamma: float
    M: int
    m0: int = 10
    target_alpha: float = 0.05
    replications: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not (self.gamma > 0.0):
            raise ValueError("gamma must be positive")
        # counts: an integral float such as 80.0 is stored as its int
        for name in ("M", "m0", "replications"):
            value = getattr(self, name)
            if not (np.isfinite(value) and int(value) == value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.m0 < 1:
            raise ValueError("m0 must be a positive integer")
        if self.M < 2 * self.m0:
            raise ValueError("M must be at least 2*m0 so the scan has something to test")
        if not (0.0 < self.target_alpha < 1.0):
            raise ValueError("target_alpha must lie in (0, 1)")
        if self.replications < 1:
            raise ValueError("replications must be positive")


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Calibrated threshold with the rate it achieves on the calibration draws.

    ci_halfwidth is the 95% binomial half-width at the target rate: rates
    closer to the target than this are statistically indistinguishable from
    it at the given replication count.
    """

    lam: float
    achieved_rate: float
    replications: int
    ci_halfwidth: float
    spec: CalibrationSpec


def simulate_homogeneous(M: int, params: PowerParams, seed: int) -> TransformedSeries:
    """Draw a transformed series with constant unit level: |xi|^gamma / c_gamma."""
    if M < 1:
        raise ValueError("M must be positive")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(int(M))
    return TransformedSeries(np.abs(xi) ** params.gamma / params.c_gamma, gamma=params.gamma)


def _max_test_ratios(spec: CalibrationSpec) -> np.ndarray:
    """Per-replication maximum of statistic / unit-threshold over the splits
    of the longest candidate window at tau = M.

    The summary T of one replication is taken over the split tests of that
    window only, whose length is the largest multiple of m0 not above M.
    mean(T > lam) is then the probability that the homogeneity test of the
    longest candidate falsely rejects.
    """
    params = moment_constants(spec.gamma)
    rng = np.random.default_rng(spec.seed)
    xi = rng.standard_normal((spec.replications, spec.M))
    y = np.abs(xi) ** spec.gamma / params.c_gamma

    m0, M = spec.m0, spec.M
    lengths = m0 * np.arange(1, M // m0 + 1)
    # candidate-major: blocks[i] is block i+1 counted back from M, and split
    # j = i+1 tests blocks 1..j against the rest, blocks j+1..M // m0
    blocks = _block_sums(y, m0)[:, M - lengths].T
    tests = _test_terms(np.cumsum(blocks[:-1], axis=0), lengths[:-1, None], params.s_gamma)
    rest = np.cumsum(blocks[:0:-1], axis=0)[::-1]
    statistic, unit = _split_terms(rest, *tests, m0, params.s_gamma)
    # zero unit threshold needs a zero window, which has probability 0
    # under the Gaussian draws; guard anyway to keep the max finite
    ratio = np.where(unit > 0.0, statistic / np.where(unit > 0.0, unit, 1.0), 0.0)
    return ratio.max(axis=0)


def rejection_frequency(lam: float, spec: CalibrationSpec) -> float:
    """Fraction of homogeneous replications whose longest candidate window
    at tau = M is rejected by its own split tests at threshold lam."""
    if not (lam > 0.0):
        raise ValueError("lam must be positive")
    return float(np.mean(_max_test_ratios(spec) > lam))


def calibrate_lambda(spec: CalibrationSpec) -> CalibrationResult:
    """Bisect lambda on [0.5, 6] until the false-rejection rate meets the target.

    Stops when the achieved rate is within 0.005 of the target or the
    lambda bracket is narrower than 1e-3. Raises CalibrationBracketError
    when the target rate is outside what the lambda range can produce.
    """
    ratios = _max_test_ratios(spec)
    alpha = spec.target_alpha

    def rate_at(lam: float) -> float:
        return float(np.mean(ratios > lam))

    lo, hi = _LAMBDA_LO, _LAMBDA_HI
    rate_lo, rate_hi = rate_at(lo), rate_at(hi)
    if not (rate_hi <= alpha <= rate_lo):
        raise CalibrationBracketError(
            f"target rate {alpha} is outside the achievable range "
            f"[{rate_hi}, {rate_lo}] for lambda in [{lo}, {hi}]",
            rate_low=rate_lo,
            rate_high=rate_hi,
        )

    lam = 0.5 * (lo + hi)
    rate = rate_at(lam)
    while abs(rate - alpha) > _RATE_TOL and (hi - lo) > _LAMBDA_TOL:
        if rate > alpha:
            lo = lam
        else:
            hi = lam
        lam = 0.5 * (lo + hi)
        rate = rate_at(lam)

    ci = 1.96 * float(np.sqrt(alpha * (1.0 - alpha) / spec.replications))
    return CalibrationResult(
        lam=lam,
        achieved_rate=rate,
        replications=spec.replications,
        ci_halfwidth=ci,
        spec=spec,
    )


def conservative_lambda(M: int, m0: int, alpha: float, a_gamma: float, epsilon: float = 0.0) -> float:
    """Closed-form threshold (1+eps) * sqrt(2 * a_gamma * log(M / (m0 * alpha))).

    Guarantees the false-rejection probability analytically rather than by
    simulation; noticeably larger than the calibrated values.
    """
    if not (M >= 1 and m0 >= 1):
        raise ValueError("need M >= 1 and m0 >= 1")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if not (a_gamma > 0.0):
        raise ValueError("a_gamma must be positive")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    arg = M / (m0 * alpha)
    if arg <= 1.0:
        raise ValueError("M / (m0 * alpha) must exceed 1 for a real threshold")
    return (1.0 + epsilon) * float(np.sqrt(2.0 * a_gamma * np.log(arg)))
