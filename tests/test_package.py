"""The package namespace: what `import lave` exports and where it comes from."""

import lave
import lave.errors

# the exports as they stood when the list moved into the modules' __all__s,
# plus moment_constants, public in lave.transform
EXPORTS = frozenset({
    "CalibrationBracketError", "CalibrationResult", "CalibrationSpec", "ChangePointSpec",
    "CurveTable", "DegenerateWindowError", "EstimatePath", "EstimatorConfig", "ExperimentCell",
    "ExperimentResult", "ForecastComparison", "GarchConvergenceError", "GarchParams",
    "HomogeneityTest", "InputDataError", "IntervalGrid", "LaplaceCurve", "LaveError",
    "PowerParams", "ReturnSeries", "RollingForecast", "SelectionResult", "SummaryStats",
    "TestRecord", "TransformedSeries", "TruthDiagnostics", "VolEstimate", "acf",
    "batch_estimate", "calibrate_lambda", "compare_forecasters", "compute_a_gamma",
    "conservative_lambda", "detectability_bound", "detection_delays", "estimate_path",
    "estimated_std", "forecast_criterion", "forecast_next", "gaussian_abs_moment",
    "generate_change_point_series", "garch_filter", "garch_fit", "garch_loglik",
    "garch_simulate", "homogeneity_test", "interval_mean", "laplace_curve", "log_laplace_ratio",
    "log_returns", "noise_sample", "power_constants", "power_transform", "rejection_frequency",
    "relative_error_criterion", "rolling_forecast", "run_change_point_experiment",
    "select_interval", "sigma_to_theta", "simulate_homogeneous", "standardized_returns",
    "summary_stats", "theta_to_sigma", "truth_diagnostics", "moment_constants",
})
MODULES = (
    "calibration", "errors", "estimator", "evaluation", "garch", "series", "simulation",
    "transform",
)


def test_exports_keep_every_name():
    assert len(EXPORTS) == 65
    assert EXPORTS <= set(lave.__all__)


def test_each_export_is_its_defining_modules_object():
    for name in lave.__all__:
        homes = [m for m in MODULES if name in getattr(lave, m).__all__]
        # listed once, in the module that defines it
        assert homes == [getattr(lave, name).__module__.removeprefix("lave.")], (name, homes)
        assert getattr(lave, name) is getattr(getattr(lave, homes[0]), name), name


def test_errors_module_lists_its_classes():
    assert sorted(lave.errors.__all__) == [
        "CalibrationBracketError", "DegenerateWindowError", "GarchConvergenceError",
        "InputDataError", "LaveError",
    ]
    assert "annotations" not in vars(lave)
