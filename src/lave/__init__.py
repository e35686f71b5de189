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
"""

from .calibration import (
    CalibrationResult,
    CalibrationSpec,
    calibrate_lambda,
    conservative_lambda,
    rejection_frequency,
    simulate_homogeneous,
)
from .errors import (
    CalibrationBracketError,
    DegenerateWindowError,
    GarchConvergenceError,
    InputDataError,
    LaveError,
)
from .estimator import (
    EstimatePath,
    EstimatorConfig,
    HomogeneityTest,
    IntervalGrid,
    SelectionResult,
    TestRecord,
    batch_estimate,
    estimate_path,
    estimated_std,
    forecast_next,
    homogeneity_test,
    interval_mean,
    select_interval,
)
from .evaluation import (
    ForecastComparison,
    SummaryStats,
    acf,
    compare_forecasters,
    forecast_criterion,
    standardized_returns,
    summary_stats,
)
from .garch import (
    GarchParams,
    RollingForecast,
    garch_filter,
    garch_fit,
    garch_loglik,
    garch_simulate,
    rolling_forecast,
)
from .series import (
    PowerParams,
    ReturnSeries,
    TransformedSeries,
    VolEstimate,
    log_returns,
    sigma_to_theta,
    theta_to_sigma,
)
from .simulation import (
    ChangePointSpec,
    CurveTable,
    ExperimentCell,
    ExperimentResult,
    TruthDiagnostics,
    detectability_bound,
    detection_delays,
    generate_change_point_series,
    relative_error_criterion,
    run_change_point_experiment,
    truth_diagnostics,
)
from .transform import (
    LaplaceCurve,
    compute_a_gamma,
    gaussian_abs_moment,
    laplace_curve,
    log_laplace_ratio,
    noise_sample,
    power_constants,
    power_transform,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationBracketError",
    "CalibrationResult",
    "CalibrationSpec",
    "ChangePointSpec",
    "CurveTable",
    "DegenerateWindowError",
    "EstimatePath",
    "EstimatorConfig",
    "ExperimentCell",
    "ExperimentResult",
    "ForecastComparison",
    "GarchConvergenceError",
    "GarchParams",
    "HomogeneityTest",
    "InputDataError",
    "IntervalGrid",
    "LaplaceCurve",
    "LaveError",
    "PowerParams",
    "ReturnSeries",
    "RollingForecast",
    "SelectionResult",
    "SummaryStats",
    "TestRecord",
    "TransformedSeries",
    "TruthDiagnostics",
    "VolEstimate",
    "acf",
    "batch_estimate",
    "calibrate_lambda",
    "compare_forecasters",
    "compute_a_gamma",
    "conservative_lambda",
    "detectability_bound",
    "detection_delays",
    "estimate_path",
    "estimated_std",
    "forecast_criterion",
    "forecast_next",
    "gaussian_abs_moment",
    "generate_change_point_series",
    "garch_filter",
    "garch_fit",
    "garch_loglik",
    "garch_simulate",
    "homogeneity_test",
    "interval_mean",
    "laplace_curve",
    "log_laplace_ratio",
    "log_returns",
    "noise_sample",
    "power_constants",
    "power_transform",
    "rejection_frequency",
    "relative_error_criterion",
    "rolling_forecast",
    "run_change_point_experiment",
    "select_interval",
    "sigma_to_theta",
    "simulate_homogeneous",
    "standardized_returns",
    "summary_stats",
    "theta_to_sigma",
    "truth_diagnostics",
]
