"""Locally adaptive volatility estimation with a data-driven window.

The estimator models returns as R_t = sigma_t * xi_t with standard Gaussian
noise and a slowly varying or piecewise-constant scale sigma_t. Power
transformed observations Y_t = |R_t|^gamma have conditional mean
theta_t = c_gamma * sigma_t^gamma, so averaging Y over the largest past
window that passes a homogeneity test gives a variance-reduced, jump-aware
estimate of the current volatility. The package covers the transform
constants, the window scan, Monte Carlo threshold calibration, change-point
simulation studies, a rolling GARCH(1,1) benchmark, forecast scoring, and a
CSV command-line interface.

Each public name is listed once, in its module's __all__; the package
exports the union of those lists.
"""

from . import calibration, errors, estimator, evaluation, garch, series, simulation, transform
from .calibration import *
from .errors import *
from .estimator import *
from .evaluation import *
from .garch import *
from .series import *
from .simulation import *
from .transform import *

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (
            calibration, errors, estimator, evaluation, garch, series, simulation, transform
        )
        for name in module.__all__
    }
)
