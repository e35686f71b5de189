"""GARCH(1,1) benchmark: filter, Gaussian likelihood, fitting, simulation,
and the rolling one-step-ahead forecast pipeline.

The variance recursion is sigma2_t = omega + alpha * R_{t-1}^2 +
beta * sigma2_{t-1} with sigma2_1 supplied by the caller. It and the
recursions of its first derivatives, all y_t = x_t + beta y_{t-1} with
nonnegative drives, run as blocked numpy scans (_beta_recursion), within
16 sqrt(n) eps of the exact solution, relative. Fitting maximizes the
Gaussian log likelihood over (log omega, logit persistence, logit split),
which keeps every iterate inside {omega > 0, alpha >= 0, beta >= 0,
alpha + beta <= 1 - 1e-6}.

A fit from the default start takes scipy's Nelder-Mead steps one for one
(_nelder_mead), so it equals scipy's bit for bit without importing scipy.
A fit warm-started from given parameters, as each refit of rolling_forecast
is, takes Newton steps on the exact Hessian: d sigma2_t = (1, R_{t-1}^2,
sigma2_{t-1}) + beta d sigma2_{t-1} with d sigma2_1 = 0. The second
derivatives d2 sigma2_t / d theta d beta follow the same recursion driven
by d sigma2_{t-1} (twice for theta = beta), so the Hessian's term
sum_t w_t d2 sigma2_t / d theta d beta, w_t = d(-loglik) / d sigma2_t, is
sum_t u_t d sigma2_{t-1} by the adjoint u_t = w_t + beta u_{t+1} of the
recursion: the same scan run on the weights reversed. An evaluation runs
two scans, the path and then its first derivatives with u. From a
neighbouring window's optimum it converges in about three steps whatever
the data, and forms the Hessian only where a step uses it. The searches can
end at different local maxima, so cold fits keep the simplex; a warm refit
that starts on the persistence cap, a local maximum flat in its logit, stays
there, where the simplex sometimes stepped to a higher interior one.

A fit does its window's fixed work once (_Window): the squares, the sample
variance that pins sigma2_1 and the constant rows of the derivative drives,
and one check, from the window's length, sample variance and largest square,
that no value a fit forms anywhere in its search box overflows and that the
box's smallest omega can fit the window's own variance; a window whose
returns are too large or too small for that is refused.
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
# _Window accepts a window whose spread n S / L is below this, where
# 4 e^80 (n S / L)^3 < _SCAN_BOUND
_SPREAD_BOUND = (_SCAN_BOUND / (4.0 * math.exp(80.0))) ** (1.0 / 3.0)


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
    constant rows (ones and the lagged squares) filled in. Raises ValueError
    where the window's scale lets a value a fit forms overflow, or is too
    small for the box's smallest omega to fit its own variance."""

    def __init__(self, values: np.ndarray):
        n = values.size
        # np.var's arithmetic, and its bits, without its wrapper
        deviations = values - values.sum() / n
        self.sigma0_sq = float(np.square(deviations, out=deviations).sum()) / n
        if not (self.sigma0_sq > 0.0):
            raise ValueError("sample variance must be positive")
        self.r2 = values**2
        self.twice_r2 = 2.0 * self.r2
        self.drive = np.empty((1, n))  # drives the variance path
        self.drive[0, 0] = self.sigma0_sq
        self.work = np.empty(n)  # the cost's terms
        # drive d s2_t / d(omega, alpha, beta), then the weights reversed,
        # whose scan is the adjoint of the variance recursion
        self.drives = np.zeros((4, n))
        self.drives[0, 1:], self.drives[1, 1:] = 1.0, self.r2[:-1]
        # A stationary fit of the window's own variance V, the sample
        # variance, has omega = V (1 - alpha - beta) >= V _MARGIN, which the
        # box _coefficients clips to, omega in [e^-40, e^40] and alpha + beta
        # < 1, cannot represent where V _MARGIN < e^-40: such a window is
        # refused, and so V > e^-40. Every point of the box keeps the variance
        # path in [L, S]: s2_1 = V and omega bounds each later s2_t from
        # below, so L = e^-40, and S = n (e^40 + max(V, max R^2)) also bounds
        # |s2_t - R_t^2| and |2 R_t^2 - s2_t| / 2. The first-derivative scans
        # (drives 1, R^2, s2) stay below n S, the weights below S / L^2, their
        # adjoint u_t = w_t + beta u_{t+1} below n S / L^2 and the curvatures
        # below S / L^3, the score below n^2 S^2 / L^2, and the Hessian with
        # its cross term, twice sum_t d s2_t u_{t+1}, below 2 (n S / L)^3.
        # The chain rule multiplies by at most e^40 on each side and adds
        # e^40 times the score: every value formed is below 4 e^80 (n S / L)^3.
        # Where that is below _SCAN_BOUND, nothing overflows, the scans need
        # none of _beta_recursion's checks, and s2^3 >= L^3 = e^-120 does not
        # underflow
        top = max(self.sigma0_sq, float(self.r2.max()))
        spread = n * n * (math.exp(40.0) + top) / math.exp(-40.0)
        if not (self.sigma0_sq * _MARGIN >= math.exp(-40.0) and spread < _SPREAD_BOUND):
            raise ValueError(
                f"a GARCH window of scale {math.sqrt(self.sigma0_sq):.3g} (largest |return| "
                f"{math.sqrt(top):.3g}) is out of the fit's range: rescale the returns"
            )

    def scan(self, beta: float, x: np.ndarray) -> np.ndarray:
        # _beta_recursion(beta, x) on rows of the window's length
        return _blocked_scan(_scan_plan(beta, x.shape[1]), x)

    def path_and_cost(self, omega: float, alpha: float, beta: float):
        # the variance path and -garch_loglik at (omega, alpha, beta)
        drive = self.drive[0, 1:]
        np.multiply(self.drives[1, 1:], alpha, out=drive)
        drive += omega
        s2 = self.scan(beta, self.drive)[0]
        terms = np.divide(self.r2, s2, out=self.work)
        terms += np.log(s2)
        return s2, 0.5 * float(terms.sum())


def _loglik_grad_hess(z, window: _Window):
    """Negative log likelihood at _unpack(z) on a window, its gradient and
    Hessian in z, and its variance path; z holds three floats.

    The Hessian is None where the gradient meets _GTOL, where _newton_fit
    stops without a step. Every value is finite at every finite z: _Window
    refuses a window whose scale could make one overflow.
    """
    omega, alpha, beta = _coefficients(z)
    s2, value = window.path_and_cost(omega, alpha, beta)
    s2_sq = s2 * s2
    weight = 0.5 * (s2 - window.r2) / s2_sq  # d(value) / d s2_t
    # one scan of d s2_t / d(omega, alpha, beta), whose zero first column
    # adds nothing to the sums below, and of the adjoint u_t = w_t +
    # beta u_{t+1} of the weights, reversed; it shares the path's
    # _scan_plan(beta, n)
    drives = window.drives
    drives[2, 1:] = s2[:-1]
    drives[3] = weight[::-1]
    scanned = window.scan(beta, drives)
    ds2 = scanned[:3]
    s_omega, s_alpha, s_beta = (ds2 @ weight).tolist()
    # chain through _unpack: omega = e^z0, (alpha, beta) = q (f, 1 - f) with
    # q = (1 - _MARGIN) expit(z1), f = expit(z2); its clip has zero gradient.
    # Its Jacobian is [[omega, 0, 0], [0, a, b], [0, split, -split]]
    q = alpha + beta
    tail = 1.0 - q / (1.0 - _MARGIN)  # 1 - expit(z1)
    split = alpha * beta / q  # q f (1 - f)
    a, b = alpha * tail, beta * tail
    tilt = s_alpha - s_beta
    grad = [omega * s_omega, a * s_alpha + b * s_beta, split * tilt]
    inside = [abs(c) <= 40.0 for c in z]
    clipped = not all(inside)
    if clipped:
        grad = [g if ok else 0.0 for g, ok in zip(grad, inside)]
    if max(map(abs, grad)) < _GTOL:
        return value, np.array(grad), None, s2
    curvature = 0.5 * (window.twice_r2 - s2) / (s2_sq * s2)  # d2(value) / d s2_t^2
    (h00, h01, h02), (_, h11, h12), (_, _, h22) = ((ds2 * curvature) @ ds2.T).tolist()
    # sum_t w_t d2 s2_t / d(omega, alpha, beta) d beta: the second
    # derivatives follow the recursion driven by d s2_{t-1}, twice for
    # (beta, beta), so by the adjoint the sum is sum_t d s2_{t-1} u_t;
    # every pair without beta has zero second derivative
    c_omega, c_alpha, c_beta = (ds2[:, :-1] @ scanned[3, -2::-1]).tolist()
    h02 += c_omega
    h12 += c_alpha
    h22 += 2.0 * c_beta
    # J H J^T, plus the second derivatives of _unpack weighted by the score
    k00 = omega * omega * h00 + omega * s_omega
    k01 = omega * (a * h01 + b * h02)
    k02 = omega * split * (h01 - h02)
    k11 = a * (a * h11 + b * h12) + b * (a * h12 + b * h22)
    k11 += tail * (2.0 * tail - 1.0) * (alpha * s_alpha + beta * s_beta)
    k12 = split * (a * (h11 - h12) + b * (h12 - h22)) + split * tail * tilt
    k22 = split * split * (h11 - 2.0 * h12 + h22) + split * (1.0 - 2.0 * alpha / q) * tilt
    hess = [[k00, k01, k02], [k01, k11, k12], [k02, k12, k22]]
    if clipped:
        hess = [[h if i and j else 0.0 for h, j in zip(row, inside)]
                for row, i in zip(hess, inside)]
    return value, np.array(grad), np.array(hess), s2


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

    z = z.tolist()
    value, grad, hess, path = _loglik_grad_hess(z, window)
    if not math.isfinite(value):
        raise failed("fit did not converge: log likelihood is not finite at the start")
    for _ in range(_MAX_NEWTON_STEPS):
        g = grad.tolist()
        steep = max(map(abs, g))
        if steep < _GTOL:
            return _unpack(z), path
        eigval, eigvec = _eigh(hess)
        (l0, l1, l2), rows = eigval.tolist(), eigvec.tolist()
        (v00, v01, v02), (v10, v11, v12), (v20, v21, v22) = rows
        g0, g1, g2 = g
        # -V (V^T g / max(|lambda|, floor)), written out; a nan eigenvalue
        # makes every coordinate of the step nan, and the line search fails
        floor = 1e-8 * max(abs(l0), abs(l1), abs(l2), 1.0)
        c0 = (v00 * g0 + v10 * g1 + v20 * g2) / max(abs(l0), floor)
        c1 = (v01 * g0 + v11 * g1 + v21 * g2) / max(abs(l1), floor)
        c2 = (v02 * g0 + v12 * g1 + v22 * g2) / max(abs(l2), floor)
        step = [-(v * c0 + w * c1 + x * c2) for v, w, x in rows]
        slope = g0 * step[0] + g1 * step[1] + g2 * step[2]
        t = 1.0
        while True:
            moved = [zk + t * sk for zk, sk in zip(z, step)]
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
    fit its message names the budget that ran out. Raises ValueError, before
    any fitting, where the returns are too large or too small for the
    search's box (see _Window).
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
    is flagged in fallback_times. A window garch_fit refuses for its scale
    raises ValueError before it is fitted.
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
