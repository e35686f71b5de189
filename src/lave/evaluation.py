"""Forecast scoring, summary statistics, and autocorrelation diagnostics.

The forecast criterion is the robust power-mean loss
mean |R_{t+1}^2 - sigma2_{t+1|t}|^p with p = 0.5 by default, applied to
(t, variance forecast) pairs keyed by forecast origin. compare_forecasters
runs the adaptive estimator and the rolling GARCH benchmark on one series
and scores both over the common forecastable range, so their ratio is
directly comparable.

Summary statistics use population central moments (kurtosis of a Gaussian
is 3, not 0); the autocorrelation is normalized by the lag-0 autocovariance.
"""

from __future__ import annotations

import numpy as np

from ._record import ValueRecord
from .errors import DegenerateWindowError
from .estimator import EstimatorConfig, estimate_path
from .garch import rolling_forecast
from .series import ReturnSeries

__all__ = [
    "SummaryStats",
    "ForecastComparison",
    "forecast_criterion",
    "summary_stats",
    "acf",
    "standardized_returns",
    "compare_forecasters",
]


class SummaryStats(ValueRecord):
    """Population-moment summary of a series."""

    n: int
    mean: float
    variance: float
    skewness: float
    kurtosis: float


class ForecastComparison(ValueRecord):
    """Scores of the adaptive and GARCH forecasters over a common range.

    forecasts holds the scored rows (t, lave_sigma_sq, garch_sigma_sq), one
    per common forecast origin t in increasing order: the two variance
    forecasts made at t for t+1. garch_fallback_times holds the origins
    whose GARCH refit did not converge and reused the previous parameters
    (RollingForecast.fallback_times).
    """

    lave_score: float
    garch_score: float
    ratio: float
    t0: int
    p: float
    forecasts: tuple
    garch_fallback_times: tuple


def forecast_criterion(r: ReturnSeries, forecasts, p: float = 0.5) -> float:
    """Mean of |R_{t+1}^2 - sigma2_forecast|^p over the forecast pairs.

    forecasts is a sequence of (t, sigma2) with the forecast made at time t
    for time t+1 (1-based), so each t must satisfy 1 <= t <= n-1.
    """
    if not (p > 0.0):
        raise ValueError("p must be positive")
    pairs = list(forecasts)
    if not pairs:
        raise ValueError("forecasts must be nonempty")
    values = r.values
    total = 0.0
    for t, s2 in pairs:
        if not (1 <= t <= values.size - 1):
            raise ValueError(f"forecast origin t={t} has no target in range")
        total += abs(values[t] ** 2 - s2) ** p
    return total / len(pairs)


def summary_stats(r: ReturnSeries) -> SummaryStats:
    """Mean, variance, skewness, kurtosis with population conventions.

    variance = m2, skewness = m3 / m2^(3/2), kurtosis = m4 / m2^2 where m_k
    is the k-th central sample moment; a Gaussian sample has kurtosis near 3.
    """
    x = r.values
    if x.size < 4:
        raise ValueError(f"need at least 4 observations, got {x.size}")
    mean = float(np.mean(x))
    d = x - mean
    m2 = float(np.mean(d**2))
    if m2 <= 0.0:
        raise DegenerateWindowError("zero variance: moments are undefined")
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    return SummaryStats(
        n=int(x.size),
        mean=mean,
        variance=m2,
        skewness=m3 / m2**1.5,
        kurtosis=m4 / m2**2,
    )


def acf(x, max_lag: int) -> np.ndarray:
    """Autocorrelation at lags 0..max_lag, normalized by the lag-0
    autocovariance; the lag-0 entry is exactly 1."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    if not (1 <= max_lag < x.size):
        raise ValueError(f"max_lag must be in [1, {x.size - 1}], got {max_lag}")
    d = x - np.mean(x)
    c0 = float(np.dot(d, d))
    if c0 <= 0.0:
        raise DegenerateWindowError("zero variance: autocorrelation is undefined")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = float(np.dot(d[:-k], d[k:])) / c0
    return out


def standardized_returns(r: ReturnSeries, sigma_hat) -> np.ndarray:
    """R_t / sigma_hat_t over the indices where the estimate exists.

    sigma_hat is aligned with the series on the full time axis; NaN entries
    (times before estimation starts, or gaps) are skipped. Any defined
    entry must be positive.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if sigma_hat.shape != r.values.shape:
        raise ValueError("sigma_hat must be aligned with the series")
    defined = np.isfinite(sigma_hat)
    if not defined.any():
        raise ValueError("sigma_hat has no defined entries")
    if not np.all(sigma_hat[defined] > 0.0):
        raise ValueError("sigma_hat must be positive where defined")
    return r.values[defined] / sigma_hat[defined]


def compare_forecasters(
    r: ReturnSeries, lave_cfg: EstimatorConfig, garch_window: int = 350, p: float = 0.5
) -> ForecastComparison:
    """Score the adaptive forecaster against rolling GARCH on one series.

    Both forecasters emit (t, variance forecast) pairs; scoring uses only
    the common origins t (so t >= max(garch_window, adaptive start) and
    t <= n-1) with the robust criterion, p = 0.5 by default. ratio < 1
    means the adaptive forecaster wins. The scored rows
    (t, lave_sigma_sq, garch_sigma_sq) are returned as `forecasts`, and
    the origins whose GARCH refit fell back as `garch_fallback_times`.
    """
    path = estimate_path(r, lave_cfg)
    lave_by_t = dict(path.forecasts())
    garch = rolling_forecast(r, window=garch_window)
    garch_by_t = dict(garch.forecasts)
    common = sorted(
        t for t in set(lave_by_t) & set(garch_by_t) if 1 <= t <= len(r) - 1
    )
    if not common:
        raise ValueError("forecasters share no common forecast range")
    rows = tuple((t, lave_by_t[t], garch_by_t[t]) for t in common)
    lave_score = forecast_criterion(r, [(t, s2) for t, s2, _ in rows], p=p)
    garch_score = forecast_criterion(r, [(t, s2) for t, _, s2 in rows], p=p)
    if not (garch_score > 0.0):
        raise ValueError("benchmark score is zero; ratio undefined")
    return ForecastComparison(
        lave_score=lave_score,
        garch_score=garch_score,
        ratio=lave_score / garch_score,
        t0=common[0],
        p=p,
        forecasts=rows,
        garch_fallback_times=garch.fallback_times,
    )
