"""GARCH(1,1) benchmark: filter, Gaussian likelihood, fitting, simulation,
and the rolling one-step-ahead forecast pipeline.

The variance recursion is sigma2_t = omega + alpha * R_{t-1}^2 +
beta * sigma2_{t-1} with sigma2_1 supplied by the caller. It and the
recursions of its derivatives below, all of the form y_t = x_t +
beta y_{t-1}, run as blocked scans in numpy (_beta_recursion): blocks of
at most 25 values are each solved by a small matmul, and the block ends
carry forward by the same scan. Their drives are nonnegative, so each
value is within 16 sqrt(n) eps of the exact solution, relative; the scan
rounds differently from the step-by-step recursion. Fitting maximizes
the Gaussian log likelihood on an unconstrained reparameterization
(log omega, logit persistence, logit split), which keeps every iterate
inside {omega > 0, alpha >= 0, beta >= 0, alpha + beta <= 1 - 1e-6}.

A fit from the default start uses a Nelder-Mead simplex search. A fit
warm-started from given parameters, as each refit of rolling_forecast is,
uses Newton's method on the exact Hessian: the derivatives of sigma2_t
follow the recursion d sigma2_t = (1, R_{t-1}^2, sigma2_{t-1}) +
beta d sigma2_{t-1} with d sigma2_1 = 0, and the second derivatives the
same recursion driven by d sigma2_{t-1}. From a neighbouring window's
optimum it converges in about three steps whatever the data. Each
evaluation forms the Hessian only where a Newton step uses it: the point
whose gradient meets the tolerance, which ends every refit, skips it. The
two searches do not always end at the same maximum when the likelihood has
several. From the default start a local search can take a different local
maximum than the simplex, so cold fits keep the simplex. It is written out
here (_nelder_mead) and takes the steps of scipy's Nelder-Mead one for one,
so a cold fit equals scipy's bit for bit without importing scipy.optimize,
and no longer depends on the scipy version. A warm refit
that starts with persistence at its cap, a local maximum flat in the logit
of persistence, stays there; the simplex sometimes stepped off it to a
higher interior maximum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GarchConvergenceError
from .series import ReturnSeries

__all__ = [
    "GarchParams",
    "RollingForecast",
    "garch_filter",
    "garch_loglik",
    "garch_fit",
    "garch_simulate",
    "rolling_forecast",
]

# stationarity margin: persistence alpha + beta capped at 1 - _MARGIN
_MARGIN = 1e-6


@dataclass(frozen=True)
class GarchParams:
    """Parameters of the variance recursion omega + alpha R^2 + beta sigma2."""

    omega: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.omega > 0.0):
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be nonnegative")

    @property
    def persistence(self) -> float:
        return self.alpha + self.beta

    @property
    def is_stationary(self) -> bool:
        return self.persistence < 1.0

    def long_run_variance(self) -> float:
        if not self.is_stationary:
            raise ValueError("long-run variance requires alpha + beta < 1")
        return self.omega / (1.0 - self.persistence)


@dataclass(frozen=True, eq=False)
class RollingForecast:
    """One-step-ahead variance forecasts (t, sigma2 for t+1) from rolling
    refits, plus the times whose fit failed and fell back to the previous
    parameter values."""

    forecasts: tuple
    fallback_times: tuple
    window: int

    def __len__(self) -> int:
        return len(self.forecasts)


def garch_filter(params: GarchParams, r: ReturnSeries, sigma0_sq: float) -> np.ndarray:
    """Variance path sigma2_1..sigma2_n with sigma2_1 = sigma0_sq.

    The recursion in the beta-lag is linear, so it runs as a blocked scan
    in numpy instead of a Python loop, within 16 sqrt(n) eps of the exact
    path, relative: see _beta_recursion.
    """
    if not (sigma0_sq > 0.0):
        raise ValueError(f"sigma0_sq must be positive, got {sigma0_sq}")
    return _variance_path(params, r.values**2, sigma0_sq)


# longest block of the blocked scan in _beta_recursion; a 350-value
# window is 14 blocks of 25
_BLOCK = 25
# _TOEPLITZ[j, i] = i - j where i >= j, else -1: indices into the powers
# beta^0..beta^b of a block, followed by a zero
_TOEPLITZ = np.maximum(np.arange(_BLOCK) - np.arange(_BLOCK)[:, None], -1)
_EXPONENTS = np.arange(_BLOCK + 1.0)
# the scan runs where n max|x_t|, which bounds every value it forms, is below
_SCAN_BOUND = 1e300


def _block_solver(beta: float, b: int):
    # the b x b matrix of beta^(i - j), i >= j, that solves a block of b
    # from zero (rows index the drive, columns the solution), and beta^(1..b)
    powers = np.zeros(b + 2)
    np.power(beta, _EXPONENTS[: b + 1], out=powers[: b + 1])
    return powers[_TOEPLITZ[:b, :b]], powers[1 : b + 1]


@functools.lru_cache(maxsize=4)
def _scan_plan(beta: float, n: int) -> tuple:
    # the blocked scan of n values: block length b, block count m, the block
    # solver, and the carry, which adds beta^(1..b) times the solution at the
    # end of block k - 1 to block k > 0. Those ends follow the same scan with
    # beta^b: for at most _BLOCK of them that is one block solver, folded
    # with beta^(1..b) into one (m - 1) x (m - 1) b matrix; beyond, a plan
    # of its own. Built once per (beta, n), so the solves of one evaluation
    # share it
    m = -(-n // _BLOCK)
    b = -(-n // m)
    lower, rises = _block_solver(beta, b)
    if m == 1:
        return b, m, lower, None
    if m - 1 > _BLOCK:
        return b, m, lower, (_scan_plan(float(rises[-1]), m - 1), rises)
    ends, _ = _block_solver(float(rises[-1]), m - 1)
    return b, m, lower, np.dot(ends.reshape(-1, 1), rises[None]).reshape(m - 1, -1)


def _blocked_scan(plan, x: np.ndarray) -> np.ndarray:
    # the recursion along the rows of a 2-D x, padded with zeros to m blocks
    # of b; the caller drops the padding
    b, m, lower, carry = plan
    k, n = x.shape
    if b * m > n:
        x = np.concatenate((x, np.zeros((k, b * m - n))), axis=1)
    y = np.dot(x.reshape(k * m, b), lower).reshape(k, b * m)
    ends = y[:, b - 1 : -1 : b]  # the solution at the end of blocks 0..m-2
    if isinstance(carry, np.ndarray):  # the ends' scan folded with beta^(1..b)
        y[:, b:] += np.dot(ends, carry)
    elif carry is not None:  # the ends' own plan, and beta^(1..b)
        inner, rises = carry
        y[:, b:] += (_blocked_scan(inner, ends)[:, : m - 1, None] * rises).reshape(k, -1)
    return y


def _beta_recursion(beta: float, x: np.ndarray) -> np.ndarray:
    """y_0 = x_0 and y_t = x_t + beta y_{t-1} along the last axis of x.

    For 0 <= beta <= 1 it runs as a blocked scan (Blelloch 1990, "Prefix
    sums and their applications", on first-order linear recurrences):
    blocks of at most 25 values are solved from zero by one matmul, and the
    block ends carry into the next block by the same scan with beta^b. The
    cost stays linear in the length, and the rows of a 2-D x are solved
    together; x is left unchanged. The scan sums in another order than the
    recursion: for nonnegative x, each y_t is within 16 sqrt(n) eps of the
    exact solution, relative. Every value the scan forms is at most n
    max|x_t| in magnitude, so it runs only where that cannot overflow, and
    raises no floating-point warning. The recursion runs directly in Python
    floats otherwise: for a single value, for beta outside [0, 1], where
    powers of beta grow, and for large or non-finite x, where a path that
    overflows keeps its finite prefix.
    """
    beta = float(beta)
    n = x.shape[-1]
    if n > 1 and 0.0 <= beta <= 1.0 and n * float(np.abs(x).max()) < _SCAN_BOUND:
        return _blocked_scan(_scan_plan(beta, n), x.reshape(-1, n))[:, :n].reshape(x.shape)
    rows = np.reshape(x, (-1, n)).tolist()
    for row in rows:
        for t in range(1, n):
            row[t] += beta * row[t - 1]
    return np.array(rows).reshape(x.shape)


def _variance_path(params: GarchParams, r2: np.ndarray, sigma0_sq: float) -> np.ndarray:
    # the recursion on squared returns r2, one or more, with the start
    # sigma2_1 = sigma0_sq as its first drive
    drive = np.empty(r2.size)
    drive[0] = sigma0_sq
    drive[1:] = params.omega + params.alpha * r2[:-1]
    return _beta_recursion(params.beta, drive)


def garch_loglik(params: GarchParams, r: ReturnSeries, sigma0_sq: float) -> float:
    """Gaussian log likelihood up to constants: -0.5 sum(log s2 + R^2/s2)."""
    s2 = garch_filter(params, r, sigma0_sq)
    value = -0.5 * float(np.sum(np.log(s2) + r.values**2 / s2))
    if not np.isfinite(value):
        raise ValueError("log likelihood is not finite for these parameters")
    return value


def _pack(params: GarchParams) -> np.ndarray:
    # inverse of _unpack; clips keep logit arguments inside (0, 1)
    q = min(max(params.persistence / (1.0 - _MARGIN), 1e-12), 1.0 - 1e-12)
    f = params.alpha / params.persistence if params.persistence > 0 else 0.5
    f = min(max(f, 1e-12), 1.0 - 1e-12)
    return np.array([np.log(params.omega), _logit(q), _logit(f)])


def _logit(p: float) -> float:
    # scipy.special.logit's formulas, and its bits, in Python floats: the
    # quotient form loses precision near 1/2, so around it the log1p form
    if p < 0.3 or p > 0.65:
        return math.log(p / (1.0 - p))
    s = 2.0 * (p - 0.5)
    return math.log1p(s) - math.log1p(-s)


def _expit(x: float) -> float:
    # scipy.special.expit's formula, and its bits, in Python floats
    return 1.0 / (1.0 + math.exp(-x))


def _unpack(z: np.ndarray) -> GarchParams:
    # clip keeps exp/expit finite; the box is far wider than any useful fit.
    # omega keeps numpy's exp, which rounds differently from math.exp
    z0, z1, z2 = (min(max(c, -40.0), 40.0) for c in np.asarray(z, dtype=float).tolist())
    q = (1.0 - _MARGIN) * _expit(z1)
    f = _expit(z2)
    return GarchParams(omega=float(np.exp(z0)), alpha=q * f, beta=q * (1.0 - f))


def _path_and_cost(params: GarchParams, r2: np.ndarray, sigma0_sq: float):
    # the variance path and -garch_loglik on squared returns r2
    s2 = _variance_path(params, r2, sigma0_sq)
    return s2, 0.5 * float((np.log(s2) + r2 / s2).sum())


def _not_finite():
    # what _loglik_grad_hess returns where a result is not finite
    return np.inf, np.zeros(3), np.zeros((3, 3))


def _loglik_grad_hess(z: np.ndarray, r2: np.ndarray, sigma0_sq: float):
    """Negative log likelihood at _unpack(z) with its gradient and Hessian in z.

    The Hessian is formed only where a Newton step uses it: at a point
    whose gradient already meets _GTOL, where _newton_fit stops, it is
    None. Returns (inf, zeros(3), zeros((3, 3))) where the value, the
    gradient or a formed Hessian is not finite, so a line search retreats
    instead of erroring.
    """
    params = _unpack(z)
    omega, alpha, beta = params.omega, params.alpha, params.beta
    s2, value = _path_and_cost(params, r2, sigma0_sq)
    if not math.isfinite(value):
        return _not_finite()
    # d s2_t / d(omega, alpha, beta), zero at t = 1. Every recursion runs at
    # the window length, so the three solves of an evaluation share
    # _scan_plan(beta, n); the derivatives' zero first column adds nothing
    # to the sums below
    drives = np.empty((3, r2.size))
    drives[:, 0] = 0.0
    drives[0, 1:], drives[1, 1:], drives[2, 1:] = 1.0, r2[:-1], s2[:-1]
    ds2 = _beta_recursion(beta, drives)
    weight = 0.5 * (s2 - r2) / s2**2  # d(value) / d s2_t
    score = ds2 @ weight
    # chain through _unpack: omega = e^z0, (alpha, beta) = q (f, 1 - f) with
    # q = (1 - _MARGIN) expit(z1), f = expit(z2); its clip has zero gradient
    q = alpha + beta
    tail = 1.0 - q / (1.0 - _MARGIN)  # 1 - expit(z1)
    split = alpha * beta / q  # q f (1 - f)
    jacobian = np.array([
        [omega, 0.0, 0.0],
        [0.0, alpha * tail, beta * tail],
        [0.0, split, -split],
    ])
    grad = jacobian @ score
    inside = [abs(c) <= 40.0 for c in np.asarray(z, dtype=float).tolist()]
    clipped = not all(inside)
    if clipped:
        grad = np.where(inside, grad, 0.0)
    steep = grad.tolist()
    if not all(map(math.isfinite, steep)):
        return _not_finite()
    if max(map(abs, steep)) < _GTOL:
        return value, grad, None
    # d2 s2_t / d(omega, alpha, beta) d beta: driven by d s2_{t-1}, twice
    # for (beta, beta); every pair without beta has zero second derivative
    lagged = np.zeros_like(drives)
    lagged[:, 1:] = ds2[:, :-1]
    lagged[2] *= 2.0
    d2s2 = _beta_recursion(beta, lagged)
    curvature = 0.5 * (2.0 * r2 - s2) / s2**3  # d2(value) / d s2_t^2
    hess = (ds2 * curvature) @ ds2.T
    cross = d2s2 @ weight
    hess[:, 2] += cross
    hess[2, :2] += cross[:2]
    hess = jacobian @ hess @ jacobian.T
    # second derivatives of _unpack, weighted by the score
    s_omega, s_alpha, s_beta = score.tolist()
    tilt = s_alpha - s_beta
    hess[0, 0] += omega * s_omega
    hess[1, 1] += tail * (2.0 * tail - 1.0) * (alpha * s_alpha + beta * s_beta)
    hess[1, 2] += split * tail * tilt
    hess[2, 1] += split * tail * tilt
    hess[2, 2] += split * (1.0 - 2.0 * alpha / q) * tilt
    if clipped:
        hess = hess * np.outer(inside, inside)
    if not all(map(math.isfinite, hess.ravel().tolist())):
        return _not_finite()
    return value, grad, hess


# warm refits: converged at a gradient below _GTOL in every coordinate of z;
# a step the line search cannot shorten into a decrease still counts as
# converged at a gradient below _STALL_GTOL
_GTOL = 1e-8
_STALL_GTOL = 1e-4
_MAX_NEWTON_STEPS = 100


def _newton_fit(z: np.ndarray, r2: np.ndarray, sigma0_sq: float) -> GarchParams:
    """Minimize the negative log likelihood from z by Newton steps.

    Each step solves with the exact Hessian, its eigenvalues replaced by
    their absolute values (floored) so the step always descends, then halves
    until the Armijo condition holds. Near the optimum, where rounding hides
    the decrease, a step that raises the value by no more than rounding is
    accepted too.
    """
    value, grad, hess = _loglik_grad_hess(z, r2, sigma0_sq)
    if not math.isfinite(value):
        raise GarchConvergenceError(
            "fit did not converge: log likelihood is not finite at the start",
            best_params=_unpack(z),
            best_loglik=-value,
        )
    for _ in range(_MAX_NEWTON_STEPS):
        if max(map(abs, grad.tolist())) < _GTOL:
            return _unpack(z)
        eigval, eigvec = np.linalg.eigh(hess)
        scale = max(float(np.max(np.abs(eigval))), 1.0)
        step = -eigvec @ ((eigvec.T @ grad) / np.maximum(np.abs(eigval), 1e-8 * scale))
        slope = float(grad @ step)
        t = 1.0
        while True:
            trial = _loglik_grad_hess(z + t * step, r2, sigma0_sq)
            if trial[0] <= value + 1e-4 * t * slope or trial[0] - value <= 1e-13 * abs(value):
                break
            t *= 0.5
            if t < 1e-10:
                if max(map(abs, grad.tolist())) < _STALL_GTOL:
                    return _unpack(z)
                raise GarchConvergenceError(
                    "fit did not converge: line search found no decrease",
                    best_params=_unpack(z),
                    best_loglik=-value,
                )
        z = z + t * step
        value, grad, hess = trial
    raise GarchConvergenceError(
        f"fit did not converge in {_MAX_NEWTON_STEPS} Newton steps",
        best_params=_unpack(z),
        best_loglik=-value,
    )


# Nelder-Mead moves: reflection, expansion, contraction and shrink
# coefficients, and the relative and zero-coordinate steps of the first
# simplex, as in scipy's non-adaptive method
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025

# _nelder_mead's status 1 and 2, worded as scipy words them
_BUDGET_MESSAGES = {
    1: "Maximum number of function evaluations has been exceeded.",
    2: "Maximum number of iterations has been exceeded.",
}


class _BudgetExhausted(Exception):
    pass


def _nelder_mead(func, x0, xatol, fatol, maxiter, maxfev):
    """Minimize func from x0 by the Nelder-Mead simplex.

    Takes the steps of scipy.optimize.minimize(method="Nelder-Mead") with no
    bounds, no initial simplex and adaptive off, one for one and with its
    arithmetic in the same order, so x and fun equal scipy's bit for bit.
    That includes an exhausted budget: a call past maxfev abandons the
    iteration, the simplex is re-sorted, and the iteration is not counted.
    func must leave its argument unchanged. Returns (x, fun, status) with
    status 0 on convergence, 1 when maxfev ran out, 2 when maxiter did.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetExhausted
        calls += 1
        return func(x)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetExhausted:
        pass
    # sorted twice, as scipy does: argsort need not keep tied values in place
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while calls < maxfev and iterations < maxiter:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = sim[:-1].sum(axis=0) / n
            xr = (1 + _RHO) * xbar - _RHO * sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction, kept if no worse than xr
                    xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                    fxc = f(xc)
                    keep = fxc <= fxr
                else:  # inside contraction, kept if better than the worst vertex
                    xc = (1 - _PSI) * xbar + _PSI * sim[-1]
                    fxc = f(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetExhausted:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    if calls >= maxfev:
        status = 1
    elif iterations >= maxiter:
        status = 2
    else:
        status = 0
    return sim[0], np.min(fsim), status


def garch_fit(r: ReturnSeries, init: GarchParams | None = None) -> GarchParams:
    """Maximum-likelihood fit of the variance recursion.

    Searches the reparameterized (log scale, logit persistence, logit
    split) domain; deterministic given the data and the starting point.
    Without init the search is a Nelder-Mead simplex from omega = 0.1 *
    sample variance, alpha = 0.1, beta = 0.8, written out in this module
    and equal to scipy's step for step (_nelder_mead), so the fit does not
    depend on the scipy version. With init it is Newton's
    method on the exact Hessian, started at init; it has converged at a
    gradient below 1e-8 in every coordinate, or below 1e-4 where the line
    search finds no further decrease. The first variance is pinned to the
    sample variance of the window. Raises GarchConvergenceError with the
    best parameters seen when the search does not converge; after a cold
    fit its message names the budget that ran out.
    """
    values = r.values
    if values.size < 50:
        raise ValueError(f"need at least 50 observations, got {values.size}")
    sigma0_sq = float(np.var(values))
    if not (sigma0_sq > 0.0):
        raise ValueError("sample variance must be positive")
    r2 = values**2
    if init is not None:
        return _newton_fit(_pack(init), r2, sigma0_sq)

    def objective(z):
        # -garch_loglik(_unpack(z), r, sigma0_sq) on the window squared once;
        # invalid or non-finite: retreat instead of erroring mid-search
        try:
            _, value = _path_and_cost(_unpack(z), r2, sigma0_sq)
        except ValueError:
            return 1e12
        return value if math.isfinite(value) else 1e12

    x, fun, status = _nelder_mead(
        objective,
        _pack(GarchParams(omega=0.1 * sigma0_sq, alpha=0.1, beta=0.8)),
        xatol=1e-8,
        fatol=1e-10,
        maxiter=4000,
        maxfev=8000,
    )
    best = _unpack(x)
    if status:
        raise GarchConvergenceError(
            f"fit did not converge within the iteration budget: {_BUDGET_MESSAGES[status]}",
            best_params=best,
            best_loglik=-float(fun),
        )
    return best


def garch_simulate(params: GarchParams, n: int, seed: int) -> ReturnSeries:
    """Seeded draw of n returns from the recursion started at its long-run
    variance. Requires alpha + beta < 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if not params.is_stationary:
        raise ValueError("simulation requires alpha + beta < 1")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(int(n))
    r = np.empty(int(n))
    s2 = params.long_run_variance()
    for t in range(int(n)):
        r[t] = np.sqrt(s2) * xi[t]
        s2 = params.omega + params.alpha * r[t] ** 2 + params.beta * s2
    return ReturnSeries(r, origin_label=f"garch sim n={n} seed={seed}")


def rolling_forecast(r: ReturnSeries, window: int = 350) -> RollingForecast:
    """One-step-ahead variance forecasts from rolling refits.

    For each t from window to n-1 the model is refitted on the last
    `window` observations, warm-started from the previous optimum, and the
    forecast omega + alpha R_t^2 + beta sigma2_t is emitted for t+1. A
    window whose fit fails to converge reuses the previous parameters and
    is flagged in fallback_times.
    """
    n = len(r)
    if window < 50:
        raise ValueError("window must be at least 50")
    if n <= window:
        raise ValueError(f"series length {n} must exceed window {window}")
    values = r.values
    forecasts = []
    fallbacks = []
    params = None
    for t in range(window, n):
        chunk = ReturnSeries(values[t - window : t], origin_label=f"window@{t}")
        try:
            params = garch_fit(chunk, init=params)
        except GarchConvergenceError as exc:
            fallbacks.append(t)
            params = params if params is not None else exc.best_params
        s2_t = float(garch_filter(params, chunk, float(np.var(chunk.values)))[-1])
        forecast = params.omega + params.alpha * values[t - 1] ** 2 + params.beta * s2_t
        forecasts.append((t, float(forecast)))
    return RollingForecast(
        forecasts=tuple(forecasts), fallback_times=tuple(fallbacks), window=window
    )
