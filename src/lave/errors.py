"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "LaveError",
    "DegenerateWindowError",
    "InputDataError",
    "CalibrationBracketError",
    "GarchConvergenceError",
]


class LaveError(Exception):
    """Base class for errors raised by this package."""


class DegenerateWindowError(LaveError):
    """An observation window contains only zeros, so no scale is estimable."""


class InputDataError(LaveError):
    """An input file is unreadable, unrecognizable, or too short to use."""


class CalibrationBracketError(LaveError):
    """The requested rejection rate is not bracketed by the threshold range."""

    def __init__(self, message: str, rate_low: float, rate_high: float):
        super().__init__(message)
        self.rate_low = rate_low
        self.rate_high = rate_high


class GarchConvergenceError(LaveError):
    """The likelihood optimizer stopped without meeting its convergence test.

    Carries the best parameters seen so far, so callers that can tolerate an
    approximate fit (e.g. rolling re-estimation) may still proceed with them.
    """

    def __init__(self, message: str, best_params, best_loglik: float):
        super().__init__(message)
        self.best_params = best_params
        self.best_loglik = best_loglik
