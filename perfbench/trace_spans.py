"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

The recorder wraps the public function of each layer at every place it is
imported (for example both `lave.cli.estimate_path` and
`lave.evaluation.estimate_path`), so calls are seen whichever module makes
them. Each call becomes a span (name, start, end, parent); spans stay in
memory and are written once, when the run ends. Counts are taken at the same
boundaries from the functions' arguments and results. The recorder also
times its own work, each wrapper's time outside the function it wraps, as
overhead_s: the cost tracing adds to a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# span name -> (defining module, function name)
TARGETS = {
    "cli.ingest": ("lave.cli", "ingest_csv"),
    "estimator.estimate_path": ("lave.estimator", "estimate_path"),
    "simulation.batch_estimate": ("lave.simulation", "batch_estimate"),
    "simulation.experiment": ("lave.simulation", "run_change_point_experiment"),
    "garch.rolling_forecast": ("lave.garch", "rolling_forecast"),
    "garch.fit": ("lave.garch", "garch_fit"),
    "garch.filter": ("lave.garch", "garch_filter"),
    "evaluation.compare_forecasters": ("lave.evaluation", "compare_forecasters"),
    "calibration.calibrate": ("lave.calibration", "calibrate_lambda"),
    "transform.power_constants": ("lave.transform", "power_constants"),
}


def split_tests(lens, taus, m0: int, max_len: int | None) -> int:
    """Split comparisons the reference scan makes, computed from chosen lengths.

    With k_c = chosen_len / m0 and n_cand candidates at tau, the scan makes
    k_c (k_c + 1) / 2 comparisons when it rejects candidate k_c + 1, and
    n_cand (n_cand - 1) / 2 when it rejects none (k_c = n_cand). A gap
    (chosen length 0) counts as none. lens broadcasts against taus.
    """
    lens = np.asarray(lens, dtype=np.int64)
    taus = np.asarray(taus, dtype=np.int64)
    top = taus if max_len is None else np.minimum(taus, int(max_len))
    n_cand = np.broadcast_to(top // m0, lens.shape)
    k = lens // m0
    tests = np.where(k >= n_cand, n_cand * (n_cand - 1) // 2, k * (k + 1) // 2)
    return int(np.where(lens == 0, 0, tests).sum())


def _observe_estimate_path(counts, args, result):
    config = args[1]
    counts["estimator.taus"] += int(result.taus.size)
    counts["estimator.gaps"] += int(np.count_nonzero(result.interval_len == 0))
    counts["estimator.split_tests"] += split_tests(
        result.interval_len, result.taus, config.m0, config.max_len
    )


def _observe_batch_estimate(counts, args, result):
    config = args[1]
    taus, _, lens = result
    counts["simulation.split_tests"] += split_tests(lens, taus, config.m0, config.max_len)


def _observe_rolling_forecast(counts, args, result):
    counts["garch.forecasts"] += len(result.forecasts)
    counts["garch.fallbacks"] += len(result.fallback_times)


OBSERVERS = {
    "estimator.estimate_path": _observe_estimate_path,
    "simulation.batch_estimate": _observe_batch_estimate,
    "garch.rolling_forecast": _observe_rolling_forecast,
}


class SpanRecorder:
    """Records nested spans [name, start, end, parent index] in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.overhead_s = 0.0

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            with self.span(name):
                began = time.perf_counter()
                result = fn(*args, **kwargs)
                ended = time.perf_counter()
            if observe is not None:
                observe(self.counts, args, result)
            self.overhead_s += time.perf_counter() - entered - (ended - began)
            return result

        return traced

    def install(self) -> None:
        """Replace each target at every loaded `lave` module that holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "lave" or n.startswith("lave.")]
        for name, (module_name, attr) in TARGETS.items():
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(name, original)
            sites = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        sites += 1
            if sites == 0:
                raise RuntimeError(f"no import site found for {module_name}.{attr}")

    def write(self, path) -> None:
        payload = {"run_id": self.run_id, "spans": self.spans, "counts": dict(self.counts),
                   "overhead_s": self.overhead_s}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def layer_metrics(spans, counts) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced run's spans and counts."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    fit_ms = []
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
        if name == "garch.fit":
            fit_ms.append(1000.0 * (end - start))
    taus = counts.get("estimator.taus", 0)
    forecasts = counts.get("garch.forecasts", 0)
    est_tests = counts.get("estimator.split_tests", 0)
    est_s = total["estimator.estimate_path"]
    fit_p50, fit_p99 = np.percentile(fit_ms, [50, 99]) if fit_ms else (0.0, 0.0)
    return {
        "estimator.estimate_path_s": (est_s, "s"),
        "estimator.estimate_path_calls": (calls["estimator.estimate_path"], "count"),
        "estimator.taus": (taus, "count"),
        "estimator.split_tests": (est_tests, "count"),
        "estimator.split_tests_per_s": (est_tests / est_s if est_s > 0 else 0.0, "1/s"),
        "estimator.gap_share": (counts.get("estimator.gaps", 0) / taus if taus else 0.0, "share"),
        "simulation.batch_estimate_s": (total["simulation.batch_estimate"], "s"),
        "simulation.batch_estimate_calls": (calls["simulation.batch_estimate"], "count"),
        "simulation.split_tests": (counts.get("simulation.split_tests", 0), "count"),
        "simulation.experiment_self_s": (own["simulation.experiment"], "s"),
        "garch.rolling_forecast_s": (total["garch.rolling_forecast"], "s"),
        "garch.rolling_forecast_calls": (calls["garch.rolling_forecast"], "count"),
        "garch.fit_calls": (calls["garch.fit"], "count"),
        "garch.fit_s": (total["garch.fit"], "s"),
        "garch.fit_p50_ms": (float(fit_p50), "ms"),
        "garch.fit_p99_ms": (float(fit_p99), "ms"),
        "garch.fit_self_s": (own["garch.fit"], "s"),
        "garch.filter_calls": (calls["garch.filter"], "count"),
        "garch.filter_s": (total["garch.filter"], "s"),
        "garch.fallback_share": (
            counts.get("garch.fallbacks", 0) / forecasts if forecasts else 0.0, "share"
        ),
        "evaluation.compare_forecasters_self_s": (own["evaluation.compare_forecasters"], "s"),
        "evaluation.compare_forecasters_calls": (calls["evaluation.compare_forecasters"], "count"),
        "calibration.calibrate_s": (total["calibration.calibrate"], "s"),
        "calibration.calibrate_calls": (calls["calibration.calibrate"], "count"),
        "transform.power_constants_s": (total["transform.power_constants"], "s"),
        "transform.power_constants_calls": (calls["transform.power_constants"], "count"),
        "cli.ingest_s": (total["cli.ingest"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
    }


# Metrics that must repeat exactly between traced runs of one input.
COUNT_METRICS = tuple(
    name for name in layer_metrics([], {}) if name.endswith(("_calls", ".taus", "split_tests", "_share"))
)
