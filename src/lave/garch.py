"""GARCH(1,1) benchmark: filter, Gaussian likelihood, fitting, simulation,
and the rolling one-step-ahead forecast pipeline.

The variance recursion is sigma2_t = omega + alpha * R_{t-1}^2 +
beta * sigma2_{t-1} with sigma2_1 supplied by the caller. Fitting maximizes
the Gaussian log likelihood with a derivative-free simplex search on an
unconstrained reparameterization, which keeps every iterate inside
{omega > 0, alpha >= 0, beta >= 0, alpha + beta <= 1 - 1e-6}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize, signal, special

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

    The recursion in the beta-lag is linear, so it runs through a single
    IIR filter pass instead of a Python loop.
    """
    if not (sigma0_sq > 0.0):
        raise ValueError(f"sigma0_sq must be positive, got {sigma0_sq}")
    values = r.values
    if values.size == 1:
        return np.array([float(sigma0_sq)])
    drive = params.omega + params.alpha * values[:-1] ** 2
    tail, _ = signal.lfilter(
        [1.0], [1.0, -params.beta], drive, zi=[params.beta * sigma0_sq]
    )
    return np.concatenate(([float(sigma0_sq)], tail))


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
    return np.array([np.log(params.omega), special.logit(q), special.logit(f)])


def _unpack(z: np.ndarray) -> GarchParams:
    # clip keeps exp/expit finite; the box is far wider than any useful fit
    z = np.clip(z, -40.0, 40.0)
    omega = float(np.exp(z[0]))
    q = (1.0 - _MARGIN) * float(special.expit(z[1]))
    f = float(special.expit(z[2]))
    return GarchParams(omega=omega, alpha=q * f, beta=q * (1.0 - f))


def garch_fit(r: ReturnSeries, init: GarchParams | None = None) -> GarchParams:
    """Maximum-likelihood fit of the variance recursion.

    Simplex search on the reparameterized (log scale, logit persistence,
    logit split) domain; deterministic given the data and the starting
    point. The first variance is pinned to the sample variance of the
    window. Raises GarchConvergenceError with the best parameters seen
    when the optimizer hits its iteration budget.
    """
    values = r.values
    if values.size < 50:
        raise ValueError(f"need at least 50 observations, got {values.size}")
    sigma0_sq = float(np.var(values))
    if not (sigma0_sq > 0.0):
        raise ValueError("sample variance must be positive")
    if init is None:
        init = GarchParams(omega=0.1 * sigma0_sq, alpha=0.1, beta=0.8)

    def objective(z):
        try:
            return -garch_loglik(_unpack(z), r, sigma0_sq)
        except ValueError:  # non-finite: retreat instead of erroring mid-search
            return 1e12

    result = optimize.minimize(
        objective,
        _pack(init),
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000, "maxfev": 8000},
    )
    best = _unpack(result.x)
    if not result.success:
        raise GarchConvergenceError(
            f"fit did not converge within the iteration budget: {result.message}",
            best_params=best,
            best_loglik=-float(result.fun),
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
