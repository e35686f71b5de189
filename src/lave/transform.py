"""Power transform of returns and moment constants of |xi|^gamma.

For standard Gaussian xi the absolute moment has the closed form

    E|xi|^gamma = 2^(gamma/2) * Gamma((gamma+1)/2) / sqrt(pi),

so the transformed observation Y_t = |R_t|^gamma decomposes into a local
level theta_t = c_gamma * sigma_t^gamma plus multiplicative noise with known
mean one and known relative standard deviation s_gamma. Everything the
homogeneity test needs about the noise is collected in PowerParams.

The module also evaluates the scaled log-Laplace transform of the
standardized noise zeta = (|xi|^gamma - c_gamma) / d_gamma,

    ratio(u) = 2 * log E exp(u * zeta) / u**2,

whose supremum over u > 0 is the sub-Gaussian tail constant a_gamma used by
the conservative threshold rule. For gamma <= 1 the expectation is finite
for every u, and the integrand's exponent is concave with second derivative
at most -1, which makes a peak-shifted quadrature well conditioned at any u.

The module needs numpy alone: log Gamma (_lgam) and the golden-section step
that refines a_gamma (_golden_section) are ports of scipy's routines that
keep their bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from ._record import Record
from .series import PowerParams, ReturnSeries, TransformedSeries

__all__ = [
    "LaplaceCurve",
    "gaussian_abs_moment",
    "moment_constants",
    "power_constants",
    "power_transform",
    "noise_sample",
    "log_laplace_ratio",
    "compute_a_gamma",
    "laplace_curve",
]

_LOG_2 = float(np.log(2.0))
_LOG_PI = float(np.log(np.pi))

# cephes lgam: coefficients of its Stirling tail (A) and of its rational
# approximation on [2, 3) (B over monic C), log(sqrt(2 pi)), and the
# argument above which log Gamma overflows
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305

# Geometric search grid for the supremum of ratio(u), extended adaptively
# (doubling the upper end) while the maximum sits on the right edge.
_U_MIN = 1e-3
_U_MAX = 50.0
_U_POINTS = 400
_U_CAP = 12800.0

# scipy's golden-section constant, to the digits scipy writes it
_GOLDEN = 0.61803399


class LaplaceCurve(Record):
    """The function u -> 2 log E exp(u zeta) / u^2 sampled on a grid."""

    u_grid: np.ndarray
    ratio: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u_grid, dtype=float)
        r = np.asarray(self.ratio, dtype=float)
        if u.shape != r.shape or u.ndim != 1:
            raise ValueError("u_grid and ratio must be 1-d arrays of equal length")
        if np.any(u <= 0.0):
            raise ValueError("u_grid must be strictly positive")
        object.__setattr__(self, "u_grid", u)
        object.__setattr__(self, "ratio", r)


def gaussian_abs_moment(gamma: float) -> float:
    """Absolute moment E|xi|^gamma of a standard Gaussian, gamma > 0.

    Evaluated through log-gamma to stay accurate for large exponents.
    """
    if not (gamma > 0.0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    g = float(gamma)
    return float(np.exp(0.5 * g * _LOG_2 + _lgam(0.5 * (g + 1.0)) - 0.5 * _LOG_PI))


def _polevl(x: float, coefs) -> float:
    value = coefs[0]
    for c in coefs[1:]:
        value = value * x + c
    return value


def _lgam(x: float) -> float:
    """log Gamma(x) for x > 0: cephes lgam, the routine behind
    scipy.special.gammaln, with its branches, coefficients and operation
    order in Python floats, so it equals gammaln bit for bit without
    importing scipy.special."""
    if x < 13.0:
        # shift x into [2, 3) by the recurrence Gamma(x + 1) = x Gamma(x)
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x = x + (p - 2.0)
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, (1.0, *_LGAM_C))
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


@functools.lru_cache(maxsize=64)
def _moment_constants_cached(gamma: float) -> PowerParams:
    c = gaussian_abs_moment(gamma)
    second = gaussian_abs_moment(2.0 * gamma)
    d_sq = second - c * c
    if d_sq <= 0.0:
        raise ValueError(f"variance of |xi|^gamma is not positive at gamma={gamma}")
    d = float(np.sqrt(d_sq))
    return PowerParams(gamma=gamma, c_gamma=c, d_gamma=d, s_gamma=d / c)


@functools.lru_cache(maxsize=64)
def _power_constants_cached(gamma: float) -> PowerParams:
    base = _moment_constants_cached(gamma)
    if gamma <= 1.0:
        return replace(base, a_gamma=compute_a_gamma(base))
    return base


def moment_constants(gamma: float) -> PowerParams:
    """c_gamma, d_gamma and s_gamma for exponent gamma, cached per gamma,
    with a_gamma left out (None). The scan and its calibration need no
    more, and skip the numerical search that a_gamma takes."""
    if not (gamma > 0.0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    return _moment_constants_cached(float(gamma))


def power_constants(gamma: float) -> PowerParams:
    """All moment constants for exponent gamma, cached per gamma.

    The tail constant a_gamma is included when gamma <= 1. It is undefined
    beyond that: for gamma > 1 the Laplace transform of the standardized
    noise diverges at finite u (for gamma = 2 already at u = sqrt(2)/2).
    """
    if not (gamma > 0.0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    return _power_constants_cached(float(gamma))


def power_transform(r: ReturnSeries, gamma: float) -> TransformedSeries:
    """Apply Y_t = |R_t|^gamma elementwise."""
    if not (gamma > 0.0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    return TransformedSeries(np.abs(r.values) ** float(gamma), gamma=float(gamma))


def noise_sample(params: PowerParams, count: int, seed: int) -> np.ndarray:
    """Draw standardized noise zeta = (|xi|^gamma - c) / d, xi ~ N(0, 1).

    Uses numpy's default_rng (PCG64); identical (params, count, seed) give
    identical draws.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(int(count))
    return (np.abs(xi) ** params.gamma - params.c_gamma) / params.d_gamma


@functools.lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the rule every _log_mgf_abs_power call uses; 400
    nodes over the width-80 peak window resolve the integrand to ~1e-12
    relative. Built on first use, since only a_gamma and the Laplace curve
    need it and leggauss solves an eigenproblem (slow with many BLAS threads)."""
    return np.polynomial.legendre.leggauss(400)


def _log_mgf_abs_power(u: float, gamma: float, d: float) -> float:
    """log E exp(u |xi|^gamma / d) for gamma <= 1, u > 0.

    The exponent f(x) = u x^gamma / d - x^2 / 2 of the half-Gaussian integral
    is concave with f'' <= -1 on x > 0, so after shifting by its peak the
    integrand lies under exp(-(x - x*)^2 / 2): a window of half-width 40
    around the peak truncates below exp(-800), and nothing overflows even
    for very large u because only logs are combined.
    """
    x_star = (gamma * u / d) ** (1.0 / (2.0 - gamma))

    def f(x):
        return u * np.power(x, gamma) / d - 0.5 * x * x

    f_peak = float(f(x_star))
    lo = max(0.0, x_star - 40.0)
    hi = x_star + 40.0
    half = 0.5 * (hi - lo)
    nodes, weights = _gauss_legendre()
    x = half * nodes + 0.5 * (hi + lo)
    val = half * float(np.dot(weights, np.exp(f(x) - f_peak)))
    return f_peak + float(np.log(val)) + 0.5 * float(np.log(2.0 / np.pi))


def log_laplace_ratio(params: PowerParams, u: float) -> float:
    """Evaluate 2 log E exp(u zeta_gamma) / u^2 at a single u > 0.

    Restricted to gamma <= 1, where the expectation is finite for all u.
    As u -> 0+ the value tends to 1 (zeta has unit variance).
    """
    if params.gamma > 1.0:
        raise ValueError("log_laplace_ratio is defined only for gamma <= 1")
    if not (u > 0.0):
        raise ValueError(f"u must be positive, got {u}")
    g, c, d = params.gamma, params.c_gamma, params.d_gamma
    log_mgf = _log_mgf_abs_power(float(u), g, d) - u * c / d
    return 2.0 * log_mgf / (u * u)


def _golden_section(func, xa, xb, xc):
    """Minimize func on the bracket xa < xb < xc by scipy's golden-section
    search (minimize_scalar, method "golden", xtol 1e-10) step for step: its
    first split into the wider side, its stop rule and its final f1 < f2
    pick, so the returned (x, fun) equal scipy's bit for bit."""
    gc = 1.0 - _GOLDEN
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + gc * (xc - xb)
    else:
        x1, x2 = xb - gc * (xb - xa), xb
    f1, f2 = func(x1), func(x2)
    while abs(x3 - x0) > 1e-10 * (abs(x1) + abs(x2)):
        if f2 < f1:
            x0, x1, x2 = x1, x2, _GOLDEN * x2 + gc * x3
            f1, f2 = f2, func(x2)
        else:
            x3, x2, x1 = x2, x1, _GOLDEN * x1 + gc * x0
            f2, f1 = f1, func(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


def compute_a_gamma(params: PowerParams) -> float:
    """Supremum over u > 0 of the scaled log-Laplace transform ratio.

    Scans a geometric grid, extends the grid while the maximum sits on its
    right edge (the ratio is monotone increasing toward a finite limit at
    gamma = 1), and refines an interior maximum by golden-section search
    (_golden_section) on the bracket of its two grid neighbours.
    The u -> 0+ limit equals 1, so the result is never below 1.
    """
    if params.gamma > 1.0:
        raise ValueError("a_gamma is defined only for gamma <= 1")

    grid = list(np.geomspace(_U_MIN, _U_MAX, _U_POINTS))
    vals = [log_laplace_ratio(params, u) for u in grid]
    while int(np.argmax(vals)) == len(grid) - 1 and grid[-1] < _U_CAP:
        extension = np.geomspace(grid[-1], min(grid[-1] * 2.0, _U_CAP), 61)[1:]
        grid.extend(extension)
        vals.extend(log_laplace_ratio(params, u) for u in extension)

    i = int(np.argmax(vals))
    best = vals[i]
    if 0 < i < len(grid) - 1:
        _, fun = _golden_section(lambda u: -log_laplace_ratio(params, u),
                                 grid[i - 1], grid[i], grid[i + 1])
        best = max(best, -float(fun))
    # sup over u > 0 includes the u -> 0+ limit, which is exactly 1
    return max(1.0, float(best))


def laplace_curve(params: PowerParams, u_grid=None) -> LaplaceCurve:
    """Sample the log-Laplace ratio on a grid (geometric by default)."""
    if u_grid is None:
        u_grid = np.geomspace(_U_MIN, _U_MAX, 160)
    u = np.asarray(u_grid, dtype=float)
    ratio = np.array([log_laplace_ratio(params, float(x)) for x in u])
    return LaplaceCurve(u_grid=u, ratio=ratio)
