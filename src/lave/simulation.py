"""Piecewise-constant volatility designs and the change-point study harness.

A design is a list of (length, sigma) segments. The harness generates seeded
Gaussian returns R_t = sigma_t xi_t, runs the adaptive scan at every time
point across many replications at once, and aggregates a truth-relative
error criterion together with per-time median/quartile curves of the
volatility estimate and of the selected window length.

Truth-aware diagnostics quantify how detectable a configuration is: the
within-window departure from homogeneity, the oracle standard deviation of
the window mean, and their ratio, plus the closed-form bound on the jump
size needed for reliable detection.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ._record import Record, ValueRecord
from .errors import DegenerateWindowError
from .estimator import EstimatorConfig, batch_estimate
from .series import PowerParams, ReturnSeries, sigma_to_theta

__all__ = [
    "ChangePointSpec",
    "TruthDiagnostics",
    "ExperimentCell",
    "CurveTable",
    "ExperimentResult",
    "generate_change_point_series",
    "truth_diagnostics",
    "relative_error_criterion",
    "detectability_bound",
    "detection_delays",
    "run_change_point_experiment",
]


class ChangePointSpec(ValueRecord):
    """A piecewise-constant volatility path: segments of (length, sigma)."""

    segments: tuple
    seed: int = 0

    def __post_init__(self):
        segs = tuple((int(n), float(s)) for n, s in self.segments)
        if not segs:
            raise ValueError("at least one segment is required")
        for n, s in segs:
            if n <= 0:
                raise ValueError(f"segment length must be positive, got {n}")
            if not (s > 0.0):
                raise ValueError(f"segment sigma must be positive, got {s}")
        object.__setattr__(self, "segments", segs)

    @property
    def total_length(self) -> int:
        return sum(n for n, _ in self.segments)

    def sigma_path(self) -> np.ndarray:
        """Ground-truth sigma_t for t = 1..total_length as a 0-based array."""
        return np.repeat(
            [s for _, s in self.segments], [n for n, _ in self.segments]
        ).astype(float)

    def change_points(self) -> list[int]:
        """Last time index (1-based) of each segment except the final one."""
        bounds = np.cumsum([n for n, _ in self.segments])
        return [int(b) for b in bounds[:-1]]


class TruthDiagnostics(ValueRecord):
    """Oracle quantities for one window: departure from homogeneity
    delta = sup over the window of |theta_t - theta_tau|, the oracle
    standard deviation v of the window mean, and their ratio."""

    delta: float
    v: float
    ratio: float


class ExperimentCell(ValueRecord):
    """One (gamma, lambda) configuration's accumulated relative error."""

    gamma: float
    lam: float
    m_label: int
    error: float


class CurveTable(Record):
    """Per-time cross-replication summaries for one configuration.

    All arrays are aligned with taus; quartiles are pointwise in t.
    """

    taus: np.ndarray
    sigma_true: np.ndarray
    sigma_median: np.ndarray
    sigma_q25: np.ndarray
    sigma_q75: np.ndarray
    len_median: np.ndarray
    len_q25: np.ndarray
    len_q75: np.ndarray


class ExperimentResult(Record):
    """Error cells plus estimate/length curves for every configuration."""

    design: ChangePointSpec
    replications: int
    seed: int
    t_start: int
    cells: tuple
    curves: dict


def generate_change_point_series(spec: ChangePointSpec):
    """Draw one seeded series R_t = sigma_t xi_t from the design.

    Returns the series and the ground-truth sigma path, both of length
    spec.total_length.
    """
    sigma = spec.sigma_path()
    rng = np.random.default_rng(spec.seed)
    xi = rng.standard_normal(sigma.size)
    label = "change-point design " + "/".join(
        f"{n}x{s:g}" for n, s in spec.segments
    )
    return ReturnSeries(sigma * xi, origin_label=label), sigma


def truth_diagnostics(
    sigma_true, tau: int, length: int, params: PowerParams
) -> TruthDiagnostics:
    """Oracle homogeneity diagnostics for the window of the last `length`
    observations before time tau (1-based, inclusive).

    delta is the largest |theta_t - theta_tau| over the window, v is the
    exact standard deviation s * |I|^{-1} * sqrt(sum theta_t^2) of the
    window mean under the known truth, and ratio = delta / v.
    """
    sigma_true = np.asarray(sigma_true, dtype=float)
    if not (1 <= length <= tau <= sigma_true.size):
        raise ValueError(
            f"window [tau-length, tau] = [{tau - length}, {tau}] out of range"
        )
    theta = sigma_to_theta(sigma_true[tau - length : tau], params)
    theta_now = sigma_to_theta(float(sigma_true[tau - 1]), params)
    delta = float(np.max(np.abs(theta - theta_now)))
    v = params.s_gamma * float(np.sqrt(np.sum(theta**2))) / length
    return TruthDiagnostics(delta=delta, v=v, ratio=delta / v)


def relative_error_criterion(paths: Iterable, t_start: int) -> float:
    """Accumulated squared relative error from t_start (1-based) onward.

    paths is a collection of (sigma_hat, sigma_true) pairs of equal-length
    arrays on the full time axis. The criterion sums, over replications and
    over t >= t_start, the terms ((sigma_hat_t - sigma_t) / sigma_t)^2.
    Estimates before t_start may be missing (NaN); inside the scored range
    every estimate must be finite and every true sigma positive.
    """
    pairs = [(np.asarray(h, dtype=float), np.asarray(s, dtype=float)) for h, s in paths]
    if not pairs:
        raise ValueError("paths must be nonempty")
    total = 0.0
    for sigma_hat, sigma_true in pairs:
        if sigma_hat.shape != sigma_true.shape:
            raise ValueError("sigma_hat and sigma_true must be aligned")
        if not (1 <= t_start <= sigma_true.size):
            raise ValueError(f"t_start={t_start} out of range")
        h = sigma_hat[t_start - 1 :]
        s = sigma_true[t_start - 1 :]
        if not np.all(s > 0.0):
            raise ValueError("sigma_true must be positive")
        if not np.all(np.isfinite(h)):
            raise ValueError(
                f"sigma_hat has missing values at or after t_start={t_start}"
            )
        total += float(np.sum(((h - s) / s) ** 2))
    return total


def detectability_bound(rho: float) -> float:
    """Smallest relative jump size reliably detectable at noise level rho.

    Computes (2 rho + sqrt(2) rho (1 + rho)) / (1 - rho) for rho in (0, 1);
    the caller supplies rho = lam * s_gamma / sqrt(min window length).
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    return (2.0 * rho + np.sqrt(2.0) * rho * (1.0 + rho)) / (1.0 - rho)


def detection_delays(taus, lens, change_point: int, m0: int) -> np.ndarray:
    """Per-replication delay until the selected window collapses after a jump.

    The delay is the first tau > change_point with selected length <= 2*m0,
    minus change_point; NaN when the window never collapses. lens has shape
    (replications, taus.size).
    """
    taus = np.asarray(taus, dtype=np.int64)
    lens = np.atleast_2d(np.asarray(lens))
    after = taus > change_point
    if not after.any():
        raise ValueError(f"no estimation times after change_point={change_point}")
    collapsed = (lens[:, after] > 0) & (lens[:, after] <= 2 * m0)
    tau_after = taus[after].astype(float)
    first = np.argmax(collapsed, axis=1)
    delays = tau_after[first] - change_point
    return np.where(collapsed.any(axis=1), delays, np.nan)


def _quartiles(x: np.ndarray) -> np.ndarray:
    """np.percentile(x, [25, 50, 75], axis=0) of finite x, bit for bit.

    The order statistics either side of (n - 1) q come from one
    np.partition, and numpy's linear-method lerp joins them, with its
    t >= 0.5 branch. np.percentile itself calls np.unique, which loads
    numpy.ma, about 15 ms of start-up.
    """
    n = x.shape[0]
    at = (n - 1) * np.array([0.25, 0.5, 0.75])
    below = np.where(at >= n - 1, -1.0, np.floor(at)).astype(np.intp)  # -1: n = 1
    above = np.where(below < 0, -1, below + 1)
    # the kth np.percentile passes, so equal values of either sign land alike
    part = np.partition(x, sorted({0, -1, *below.tolist(), *above.tolist()}), axis=0)
    a, b = part[below], part[above]
    t = (at - below).reshape((3,) + (1,) * (x.ndim - 1))
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def _score_gamma(returns, sigma, config, entries, wanted):
    """The cells and the wanted curves of one gamma's (m_label, lam) entries,
    all from one batch_estimate scan of the draws. The scan's results are
    dropped on return, so the next gamma's scan does not run beside them."""
    gamma = config.gamma
    cells, curves = [], {}
    taus, sigma_hats, lens_all = batch_estimate(
        returns, config, lams=[lam for _, lam in entries]
    )
    if not np.all(np.isfinite(sigma_hats)):
        raise DegenerateWindowError(
            "degenerate window inside the scored range"
        )
    for (m_label, lam), sigma_hat, lens in zip(entries, sigma_hats, lens_all):
        # sigma_hat may be a transposed view, and np.sum adds in memory
        # order: a C-ordered difference keeps the sum over (replications, taus)
        diff = np.subtract(sigma_hat, sigma[taus - 1], order="C")
        err = float(np.sum((diff / sigma[taus - 1]) ** 2))
        cells.append(
            ExperimentCell(gamma=gamma, lam=lam, m_label=m_label, error=err)
        )
        if (gamma, m_label) not in wanted:
            continue
        q25, med, q75 = _quartiles(sigma_hat)
        l25, lmed, l75 = _quartiles(lens)
        curves[(gamma, m_label)] = CurveTable(
            taus=taus,
            sigma_true=sigma[taus - 1],
            sigma_median=med,
            sigma_q25=q25,
            sigma_q75=q75,
            len_median=lmed,
            len_q25=l25,
            len_q75=l75,
        )
    return cells, curves


def run_change_point_experiment(
    design: ChangePointSpec,
    lambdas: Mapping,
    replications: int = 500,
    seed: int = 0,
    t_start: int = 20,
    m0: int = 10,
    curves_for: Iterable | None = None,
) -> ExperimentResult:
    """Monte Carlo study of the scan on one change-point design.

    lambdas maps (gamma, m_label) to a threshold value. Every entry runs,
    gammas in their order of first appearance and m_label ascending within
    each, one batch_estimate scan serving all of a gamma's thresholds; an
    empty lambdas raises ValueError. All configurations share one seeded
    set of Gaussian draws, so cells are comparable and the output is
    reproducible from (design, seed) alone. Returns accumulated relative
    errors for every entry, plus per-time median/quartile curves of the
    estimate and of the selected window length for the keys of lambdas
    named in curves_for (default: every key; a key not in lambdas raises
    ValueError). Each curve takes two percentile passes over all
    replications at every tau, so a caller that writes one curve asks for
    that one alone.
    """
    if replications <= 0:
        raise ValueError("replications must be positive")
    if not lambdas:
        raise ValueError("lambdas must hold at least one (gamma, m_label) entry")
    wanted = set(lambdas if curves_for is None else curves_for)
    if not wanted <= lambdas.keys():
        missing = sorted(wanted - lambdas.keys())
        raise ValueError(f"curves_for names configurations not in lambdas: {missing}")
    sigma = design.sigma_path()
    n = sigma.size
    if not (1 <= t_start <= n):
        raise ValueError(f"t_start={t_start} out of range for length {n}")
    rng = np.random.default_rng(seed)
    returns = sigma * rng.standard_normal((replications, n))

    cells = []
    curves = {}
    for gamma in dict.fromkeys(g for g, _ in lambdas):
        entries = [(int(m), float(lam)) for (g, m), lam in sorted(lambdas.items()) if g == gamma]
        config = EstimatorConfig(gamma=gamma, m0=m0, lam=entries[0][1], t0=t_start)
        gamma_cells, gamma_curves = _score_gamma(returns, sigma, config, entries, wanted)
        cells += gamma_cells
        curves.update(gamma_curves)
    return ExperimentResult(
        design=design,
        replications=replications,
        seed=seed,
        t_start=t_start,
        cells=tuple(cells),
        curves=curves,
    )
