"""GARCH(1,1) benchmark: filter, Gaussian likelihood, fitting, simulation,
and the rolling one-step-ahead forecast pipeline.

The variance recursion is sigma2_t = omega + alpha * R_{t-1}^2 +
beta * sigma2_{t-1} with sigma2_1 supplied by the caller. It and the
recursions of its derivatives, all y_t = x_t + beta y_{t-1} with
nonnegative drives, run as blocked numpy scans (_beta_recursion), within
16 sqrt(n) eps of the exact solution, relative. Fitting maximizes the
Gaussian log likelihood over (log omega, logit persistence, logit split),
which keeps every iterate inside {omega > 0, alpha >= 0, beta >= 0,
alpha + beta <= 1 - 1e-6}.

A fit from the default start takes scipy's Nelder-Mead steps one for one
(_nelder_mead), so it equals scipy's bit for bit without importing scipy.
A fit warm-started from given parameters, as each refit of rolling_forecast
is, takes Newton steps on the exact Hessian: d sigma2_t = (1, R_{t-1}^2,
sigma2_{t-1}) + beta d sigma2_{t-1} with d sigma2_1 = 0, and the second
derivatives follow the same recursion driven by d sigma2_{t-1}. From a
neighbouring window's optimum it converges in about three steps whatever
the data, and forms the Hessian only where a step uses it. The searches can
end at different local maxima, so cold fits keep the simplex; a warm refit
that starts on the persistence cap, a local maximum flat in its logit, stays
there, where the simplex sometimes stepped to a higher interior one.

A fit does its window's fixed work once (_Window): the squares, the sample
variance that pins sigma2_1 and the constant rows of the derivative drives.
rolling_forecast takes sigma2_t from the variance path of the point each
refit returns, so no window is filtered twice; every forecast keeps its bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np
# np.linalg.eigh's gufunc (dsyevd, lower triangle): its eigenpairs to the bit,
# without the checks and error state that cost twice the 3 x 3 solve; numpy
# has no public way round them. A solve that does not converge gives nan
from numpy.linalg._umath_linalg import eigh_lo as _eigh

from ._record import Record, ValueRecord
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


class GarchParams(ValueRecord):
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


class RollingForecast(Record):
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
    r2 = r.values**2
    drive = np.concatenate(([sigma0_sq], params.omega + params.alpha * r2[:-1]))
    return _beta_recursion(params.beta, drive)


# longest block of the blocked scan in _beta_recursion; a 350-value
# window is 14 blocks of 25
_BLOCK = 25
# _TOEPLITZ[j, i] = i - j where i >= j, else -1: indices into the powers
# beta^0..beta^b of a block, followed by a zero
_TOEPLITZ = np.maximum(np.arange(_BLOCK) - np.arange(_BLOCK)[:, None], -1)
_EXPONENTS = np.arange(_BLOCK + 1.0)
# the scan runs where n max|x_t|, which bounds every value it forms, is below
_SCAN_BOUND = 1e300


@functools.lru_cache(maxsize=4)
def _scan_plan(beta: float, n: int) -> tuple:
    # the blocked scan of n values: block length b, block count m, the b x b
    # matrix of beta^(i - j), i >= j, that solves a block from zero (rows
    # index the drive, columns the solution), and past one block the carry:
    # the plan of the block ends' own scan with beta^b, and beta^(1..b), by
    # which the end of block k - 1 carries into block k
    m = -(-n // _BLOCK)
    b = -(-n // m)
    powers = np.zeros(b + 2)
    np.power(beta, _EXPONENTS[: b + 1], out=powers[: b + 1])
    lower = powers[_TOEPLITZ[:b, :b]]
    if m == 1:
        return b, m, lower, None
    return b, m, lower, (_scan_plan(float(powers[b]), m - 1), powers[1 : b + 1])


def _blocked_scan(plan, x: np.ndarray) -> np.ndarray:
    # the recursion along the rows of a 2-D x, padded with zeros to m blocks
    # of b and the padding dropped again. Each block is solved from zero;
    # past one block, the solved ends of blocks 0..m-2 take their own scan,
    # with beta^b, and each carries into the next block by beta^(1..b)
    b, m, lower, carry = plan
    k, n = x.shape
    if b * m > n:
        x = np.concatenate((x, np.zeros((k, b * m - n))), axis=1)
    y = np.dot(x.reshape(k * m, b), lower).reshape(k, b * m)
    if carry is not None:
        inner, rises = carry
        ends = _blocked_scan(inner, y[:, b - 1 : -1 : b])
        y[:, b:] += (ends[:, :, None] * rises).reshape(k, -1)
    return y[:, :n]


def _beta_recursion(beta: float, x: np.ndarray) -> np.ndarray:
    """y_0 = x_0 and y_t = x_t + beta y_{t-1} along the last axis of x.

    For 0 <= beta <= 1 it runs as a blocked scan (Blelloch 1990, "Prefix
    sums and their applications", on first-order linear recurrences):
    blocks of at most 25 values are solved from zero by one matmul, and the
    block ends carry into the next block by the same scan with beta^b, so
    the cost stays linear in the length; the rows of a 2-D x are solved
    together, and x is left unchanged. For nonnegative x each y_t is within
    16 sqrt(n) eps of the exact solution, relative. Every value the scan
    forms is at most n max|x_t|, so it runs only where that cannot overflow
    and raises no floating-point warning. The recursion runs in Python
    floats otherwise: for a single value, for beta outside [0, 1], where
    powers of beta grow, and for large or non-finite x, where a path that
    overflows keeps its finite prefix.
    """
    beta = float(beta)
    n = x.shape[-1]
    if n > 1 and 0.0 <= beta <= 1.0 and n * float(np.abs(x).max()) < _SCAN_BOUND:
        return _blocked_scan(_scan_plan(beta, n), x.reshape(-1, n)).reshape(x.shape)
    rows = np.reshape(x, (-1, n)).tolist()
    for row in rows:
        for t in range(1, n):
            row[t] += beta * row[t - 1]
    return np.array(rows).reshape(x.shape)


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


def _coefficients(z: list) -> tuple:
    # (omega, alpha, beta) at the list z, clipped to a box that keeps exp and
    # expit finite; omega keeps numpy's exp, which rounds unlike math.exp
    z0, z1, z2 = (min(max(c, -40.0), 40.0) for c in z)
    q = (1.0 - _MARGIN) * _expit(z1)
    f = _expit(z2)
    return float(np.exp(z0)), q * f, q * (1.0 - f)


def _unpack(z: np.ndarray) -> GarchParams:
    return GarchParams(*_coefficients(np.asarray(z, dtype=float).tolist()))


class _Window:
    """A fit window's fixed work, done once: its squares, the sample
    variance that pins sigma2_1, and its recursions' drives, with the
    constant rows (ones and the lagged squares) filled in."""

    def __init__(self, values: np.ndarray):
        n = values.size
        self.sigma0_sq = float(np.var(values))
        if not (self.sigma0_sq > 0.0):
            raise ValueError("sample variance must be positive")
        self.r2 = values**2
        self.twice_r2 = 2.0 * self.r2
        self.drive = np.empty((1, n))  # drives the variance path
        self.drive[0, 0] = self.sigma0_sq
        self.drives = np.zeros((3, n))  # drive d s2_t / d(omega, alpha, beta)
        self.drives[0, 1:], self.drives[1, 1:] = 1.0, self.r2[:-1]
        self.lagged = np.zeros((3, n))  # drive the second derivatives
        # omega <= e^40 and alpha, beta <= 1 bound every value an evaluation's
        # scans form by 2 n^3 (e^40 + max(1, sigma0_sq, R^2)); far below
        # _SCAN_BOUND, _beta_recursion's checks cannot fail, so scan skips them
        top = math.exp(40.0) + max(1.0, self.sigma0_sq, float(self.r2.max()))
        self.tame = 4.0 * n**3 * top < _SCAN_BOUND

    def scan(self, beta: float, x: np.ndarray) -> np.ndarray:
        # _beta_recursion(beta, x) on rows of the window's length
        if self.tame:
            return _blocked_scan(_scan_plan(beta, x.shape[1]), x)
        return _beta_recursion(beta, x)

    def path_and_cost(self, omega: float, alpha: float, beta: float):
        # the variance path and -garch_loglik at (omega, alpha, beta)
        self.drive[0, 1:] = omega + alpha * self.drives[1, 1:]
        s2 = self.scan(beta, self.drive)[0]
        return s2, 0.5 * float((np.log(s2) + self.r2 / s2).sum())


def _not_finite():
    # what _loglik_grad_hess returns where a result is not finite
    return np.inf, np.zeros(3), np.zeros((3, 3)), None


def _loglik_grad_hess(z: np.ndarray, window: _Window):
    """Negative log likelihood at _unpack(z) on a window, its gradient and
    Hessian in z, and its variance path.

    The Hessian is None where the gradient meets _GTOL, where _newton_fit
    stops without a step. Returns (inf, zeros(3), zeros((3, 3)), None) where
    the value, the gradient or a formed Hessian is not finite, so a line
    search retreats instead of erroring.
    """
    z = z.tolist()
    omega, alpha, beta = _coefficients(z)
    s2, value = window.path_and_cost(omega, alpha, beta)
    if not math.isfinite(value):
        return _not_finite()
    # d s2_t / d(omega, alpha, beta), whose zero first column adds nothing to
    # the sums below; the scans of an evaluation share _scan_plan(beta, n)
    drives = window.drives
    drives[2, 1:] = s2[:-1]
    ds2 = window.scan(beta, drives)
    weight = 0.5 * (s2 - window.r2) / s2**2  # d(value) / d s2_t
    score = ds2 @ weight
    # chain through _unpack: omega = e^z0, (alpha, beta) = q (f, 1 - f) with
    # q = (1 - _MARGIN) expit(z1), f = expit(z2); its clip has zero gradient
    q = alpha + beta
    tail = 1.0 - q / (1.0 - _MARGIN)  # 1 - expit(z1)
    split = alpha * beta / q  # q f (1 - f)
    jacobian = np.array(
        [[omega, 0.0, 0.0], [0.0, alpha * tail, beta * tail], [0.0, split, -split]]
    )
    grad = jacobian @ score
    inside = [abs(c) <= 40.0 for c in z]
    clipped = not all(inside)
    if clipped:
        grad = np.where(inside, grad, 0.0)
    steep = grad.tolist()
    if not all(map(math.isfinite, steep)):
        return _not_finite()
    if max(map(abs, steep)) < _GTOL:
        return value, grad, None, s2
    # d2 s2_t / d(omega, alpha, beta) d beta: driven by d s2_{t-1}, twice
    # for (beta, beta); every pair without beta has zero second derivative
    lagged = window.lagged
    lagged[:, 1:] = ds2[:, :-1]
    lagged[2] *= 2.0
    d2s2 = window.scan(beta, lagged)
    curvature = 0.5 * (window.twice_r2 - s2) / s2**3  # d2(value) / d s2_t^2
    hess = (ds2 * curvature) @ ds2.T
    cross = d2s2 @ weight
    hess[:, 2] += cross
    hess[2, :2] += cross[:2]
    h = (jacobian @ hess @ jacobian.T).tolist()
    # second derivatives of _unpack, weighted by the score
    s_omega, s_alpha, s_beta = score.tolist()
    tilt = s_alpha - s_beta
    h[0][0] += omega * s_omega
    h[1][1] += tail * (2.0 * tail - 1.0) * (alpha * s_alpha + beta * s_beta)
    h[1][2] += split * tail * tilt
    h[2][1] += split * tail * tilt
    h[2][2] += split * (1.0 - 2.0 * alpha / q) * tilt
    if not all(map(math.isfinite, h[0] + h[1] + h[2])):
        return _not_finite()
    hess = np.array(h)
    if clipped:
        hess = hess * np.outer(inside, inside)
    return value, grad, hess, s2


# warm refits: converged at a gradient below _GTOL in every coordinate of z;
# a step the line search cannot shorten into a decrease still counts as
# converged at a gradient below _STALL_GTOL
_GTOL = 1e-8
_STALL_GTOL = 1e-4
_MAX_NEWTON_STEPS = 100


def _newton_fit(z: np.ndarray, window: _Window) -> tuple:
    """Minimize the negative log likelihood from z by Newton steps.

    Each step solves with the exact Hessian, its eigenvalues replaced by
    their absolute values (floored) so the step always descends, then halves
    until the Armijo condition holds. Near the optimum, where rounding hides
    the decrease, a step that raises the value by no more than rounding is
    accepted too. Returns the fit and its variance path.
    """
    def failed(message):
        return GarchConvergenceError(message, best_params=_unpack(z), best_loglik=-value)

    value, grad, hess, path = _loglik_grad_hess(z, window)
    if not math.isfinite(value):
        raise failed("fit did not converge: log likelihood is not finite at the start")
    for _ in range(_MAX_NEWTON_STEPS):
        steep = max(map(abs, grad.tolist()))
        if steep < _GTOL:
            return _unpack(z), path
        eigval, eigvec = _eigh(hess)
        scale = max(max(map(abs, eigval.tolist())), 1.0)
        step = -eigvec @ ((eigvec.T @ grad) / np.maximum(np.abs(eigval), 1e-8 * scale))
        slope = float(grad @ step)
        t = 1.0
        while True:
            moved = z + t * step
            trial = _loglik_grad_hess(moved, window)
            if trial[0] <= value + 1e-4 * t * slope or trial[0] - value <= 1e-13 * abs(value):
                break
            t *= 0.5
            if t < 1e-10:
                if steep < _STALL_GTOL:
                    return _unpack(z), path
                raise failed("fit did not converge: line search found no decrease")
        z = moved
        value, grad, hess, path = trial
    raise failed(f"fit did not converge in {_MAX_NEWTON_STEPS} Newton steps")


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

    status = 1 if calls >= maxfev else 2 if iterations >= maxiter else 0
    return sim[0], np.min(fsim), status


def garch_fit(r: ReturnSeries, init: GarchParams | None = None) -> GarchParams:
    """Maximum-likelihood fit of the variance recursion.

    Searches (log scale, logit persistence, logit split), deterministic
    given the data and the start. Without init the search is a Nelder-Mead
    simplex from omega = 0.1 * sample variance, alpha = 0.1, beta = 0.8,
    equal to scipy's step for step (_nelder_mead). With init it is Newton's
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
    return _fit(_Window(values), init)[0]


def _fit(window: _Window, init: GarchParams | None) -> tuple:
    # garch_fit on a window's fixed work: the fit and the variance path at it
    if init is not None:
        return _newton_fit(_pack(init), window)

    def objective(z):
        # -garch_loglik(_unpack(z), ...); where that is not finite, retreat
        # instead of erroring mid-search
        value = window.path_and_cost(*_coefficients(z.tolist()))[1]
        return value if math.isfinite(value) else 1e12

    start = _pack(GarchParams(omega=0.1 * window.sigma0_sq, alpha=0.1, beta=0.8))
    x, fun, status = _nelder_mead(
        objective, start, xatol=1e-8, fatol=1e-10, maxiter=4000, maxfev=8000
    )
    best = _unpack(x)
    if status:
        raise GarchConvergenceError(
            f"fit did not converge within the iteration budget: {_BUDGET_MESSAGES[status]}",
            best_params=best,
            best_loglik=-float(fun),
        )
    return best, window.path_and_cost(best.omega, best.alpha, best.beta)[0]


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
        state = _Window(values[t - window : t])
        try:
            params, path = _fit(state, params)
        except GarchConvergenceError as exc:
            fallbacks.append(t)
            params = params if params is not None else exc.best_params
            path = state.path_and_cost(params.omega, params.alpha, params.beta)[0]
        forecast = params.omega + params.alpha * values[t - 1] ** 2 + params.beta * float(path[-1])
        forecasts.append((t, float(forecast)))
    return RollingForecast(
        forecasts=tuple(forecasts), fallback_times=tuple(fallbacks), window=window
    )
