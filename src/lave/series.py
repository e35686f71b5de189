"""Core value types: return series, power-transformed series, scale parameters.

The estimator never works on prices directly. Prices become log-returns,
log-returns become the nonnegative transformed observations Y_t = |R_t|^gamma,
and volatility is carried around as the local level theta = c_gamma * sigma^gamma
of that transformed series. The conversions between sigma and theta live here.
"""

from __future__ import annotations

import numpy as np

from ._record import Record, ValueRecord

__all__ = [
    "ReturnSeries",
    "TransformedSeries",
    "PowerParams",
    "VolEstimate",
    "log_returns",
    "theta_to_sigma",
    "sigma_to_theta",
]


def _readonly_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr.setflags(write=False)
    return arr


class ReturnSeries(Record):
    """A one-dimensional series of log-returns.

    values : array of finite reals, one per observation time.
    origin_label : free-text tag describing where the series came from
        (a currency pair, a simulation design, a file stem). Used only for
        reporting.
    """

    values: np.ndarray
    origin_label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly_array(self.values, "values"))

    def __len__(self) -> int:
        return int(self.values.size)


class TransformedSeries(Record):
    """The series Y_t = |R_t|^gamma, all entries nonnegative."""

    values: np.ndarray
    gamma: float

    def __post_init__(self):
        arr = _readonly_array(self.values, "values")
        if float(arr.min()) < 0.0:
            raise ValueError("transformed values must be nonnegative")
        object.__setattr__(self, "values", arr)
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        object.__setattr__(self, "gamma", float(self.gamma))

    def __len__(self) -> int:
        return int(self.values.size)


class PowerParams(ValueRecord):
    """Moment constants of |xi|^gamma for standard Gaussian xi.

    c_gamma : mean E|xi|^gamma.
    d_gamma : standard deviation of |xi|^gamma.
    s_gamma : noise-to-signal ratio d_gamma / c_gamma.
    a_gamma : constant governing the sub-Gaussian tail of the standardized
        noise; only defined (and only computed) for gamma <= 1.
    """

    gamma: float
    c_gamma: float
    d_gamma: float
    s_gamma: float
    a_gamma: float | None = None

    def __post_init__(self):
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        for name in ("c_gamma", "d_gamma", "s_gamma"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        if not np.isclose(self.s_gamma, self.d_gamma / self.c_gamma, rtol=1e-9):
            raise ValueError("s_gamma must equal d_gamma / c_gamma")
        if self.a_gamma is not None and not (self.a_gamma > 0.0):
            raise ValueError("a_gamma must be positive when present")


class VolEstimate(ValueRecord):
    """A single volatility estimate with its supporting interval.

    theta_hat : estimated local level of the transformed series.
    sigma_hat : the corresponding volatility (theta_hat / c_gamma)^(1/gamma).
    interval_len : length of the selected interval of homogeneity.
    v_tilde : estimated standard deviation of theta_hat.
    """

    theta_hat: float
    sigma_hat: float
    interval_len: int
    v_tilde: float

    def __post_init__(self):
        if not (self.theta_hat >= 0.0 and np.isfinite(self.theta_hat)):
            raise ValueError("theta_hat must be a finite nonnegative real")
        if not (self.sigma_hat >= 0.0 and np.isfinite(self.sigma_hat)):
            raise ValueError("sigma_hat must be a finite nonnegative real")
        if not (int(self.interval_len) == self.interval_len and self.interval_len > 0):
            raise ValueError("interval_len must be a positive integer")
        if not (self.v_tilde >= 0.0 and np.isfinite(self.v_tilde)):
            raise ValueError("v_tilde must be a finite nonnegative real")


def log_returns(prices, origin_label: str = "") -> ReturnSeries:
    """Convert a price series to log-returns R_t = log(P_t / P_{t-1}).

    Requires at least two strictly positive prices; returns a series one
    element shorter than the input.
    """
    p = np.asarray(prices, dtype=float)
    if p.ndim != 1:
        raise ValueError("prices must be one-dimensional")
    if p.size < 2:
        raise ValueError("need at least two prices to form one return")
    if not np.all(np.isfinite(p)):
        raise ValueError("prices must be finite")
    if not np.all(p > 0.0):
        raise ValueError("prices must be strictly positive")
    return ReturnSeries(np.diff(np.log(p)), origin_label=origin_label)


def theta_to_sigma(theta, params: PowerParams):
    """Invert theta = c_gamma * sigma^gamma for sigma.

    Accepts a scalar or an array; theta must be nonnegative.
    """
    th = np.asarray(theta, dtype=float)
    if np.any(th < 0.0):
        raise ValueError("theta must be nonnegative")
    sigma = (th / params.c_gamma) ** (1.0 / params.gamma)
    return float(sigma) if np.isscalar(theta) or th.ndim == 0 else sigma


def sigma_to_theta(sigma, params: PowerParams):
    """Map a volatility to the local level of the transformed series."""
    sg = np.asarray(sigma, dtype=float)
    if np.any(sg < 0.0):
        raise ValueError("sigma must be nonnegative")
    theta = params.c_gamma * sg**params.gamma
    return float(theta) if np.isscalar(sigma) or sg.ndim == 0 else theta
