"""Self-tests of the benchmark: its checks catch corrupted outputs, its
computed counts match the reference scan, and span self times are sane.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from trace_spans import SpanRecorder, layer_metrics, self_times, split_tests  # noqa: E402

import lave.cli  # noqa: E402
from lave.estimator import interval_mean, select_interval  # noqa: E402
from lave.series import ReturnSeries, theta_to_sigma  # noqa: E402
from lave.transform import power_constants, power_transform  # noqa: E402


def edit_csv(path: Path, row_index: int, column: int, value: str) -> None:
    """Overwrite one data cell of a lave output CSV, keeping its comment lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader([ln for ln in lines if not ln.startswith("#")]))
    rows[row_index + 1][column] = value
    body = [",".join(r) for r in rows]
    path.write_text("\n".join(comments + body) + "\n", encoding="utf-8")


def run_workload(name: str, seed: int, tmp_path: Path):
    workload = workloads.prepare(name, seed, tmp_path)
    out = tmp_path / "out"
    assert lave.cli.main(list(workload.argv) + ["--out-dir", str(out)]) == 0
    returns = None
    if (tmp_path / "returns.csv").is_file():
        returns = np.loadtxt(tmp_path / "returns.csv", skiprows=1)
    return checks.Checker(workload, returns), out


@pytest.fixture(scope="module")
def small_estimate(tmp_path_factory):
    """estimate-2k's checker and output on a 300-point input."""
    tmp = tmp_path_factory.mktemp("estimate")
    returns = workloads.regime_returns(5, n=300, regimes=4)
    workloads.write_returns(tmp / "returns.csv", returns)
    workload = workloads.Workload(
        "estimate-2k",
        ("estimate", "--input", str(tmp / "returns.csv"), "--gamma", "0.5", "--lam", "auto:80",
         "--deterministic"),
        ops=300 - 20 + 1,
        input_seed=5,
    )
    out = tmp / "out"
    assert lave.cli.main(list(workload.argv) + ["--out-dir", str(out)]) == 0
    return checks.Checker(workload, returns), out


def test_estimate_check_passes_then_catches_changed_rows(small_estimate):
    checker, out = small_estimate
    assert checker.check(out) == []
    path = out / "estimate.csv"
    original = path.read_text(encoding="utf-8")
    _, rows = checks.read_csv(path)
    i = len(rows) // 2
    t, length = int(rows[i][0]), int(rows[i][2])
    other = length + 10 if length + 10 <= t else length - 10
    params = power_constants(0.5)
    y = power_transform(ReturnSeries(checker.returns), 0.5)
    # the sigma_hat that goes with the other window: a self-consistent row
    sigma = theta_to_sigma(interval_mean(y, t - other, t), params)
    try:
        edit_csv(path, i, 2, str(other))
        assert any("interval_len differs" in p and f"t={t}" in p for p in checker.check(out))
        edit_csv(path, i, 1, repr(sigma))
        problems = checker.check(out)
        assert any("interval_len differs" in p and f"t={t}" in p for p in problems)
        assert any("sigma_hat differs" in p and f"t={t}" in p for p in problems)
        path.write_text(original, encoding="utf-8")
        edit_csv(path, i, 1, repr(float(rows[i][1]) * (1 + 1e-7)))
        assert any("sigma_hat differs" in p and f"t={t}" in p for p in checker.check(out))
    finally:
        path.write_text(original, encoding="utf-8")


def test_missing_output_fails_instead_of_raising(small_estimate, tmp_path):
    checker, _ = small_estimate
    assert checker.check(tmp_path / "nothing")


def test_simulate_check_catches_changed_curve_value(tmp_path):
    checker, out = run_workload("simulate-mc", 0, tmp_path)
    assert checker.check(out) == []
    _, rows = checks.read_csv(out / "curves.csv")
    edit_csv(out / "curves.csv", 7, 5, str(float(rows[7][5]) + 10.0))
    assert any("len_median" in p for p in checker.check(out))


def test_backtest_check_catches_changed_forecasts(tmp_path):
    checker, out = run_workload("backtest-600", 1, tmp_path)
    assert checker.check(out) == []
    _, rows = checks.read_csv(out / "forecasts.csv")
    edit_csv(out / "forecasts.csv", 100, 2, repr(float(rows[100][2]) * 1.001))
    edit_csv(out / "forecasts.csv", 200, 1, repr(float(rows[200][1]) * 1.001))
    problems = checker.check(out)
    assert any("garch_sigma_sq" in p for p in problems)
    assert any("garch_score" in p for p in problems)
    assert any(f"lave_sigma_sq differs from the reference scan at 1 rows, first t={rows[200][0]}"
               in p for p in problems)


@pytest.mark.parametrize("max_len", [None, 60])
def test_computed_split_tests_equal_reference_trace_length(max_len):
    returns = workloads.regime_returns(2, n=300, regimes=4)
    params = power_constants(0.5)
    y = power_transform(ReturnSeries(returns), 0.5)
    taus = [20, 35, 79, 150, 151, 299, 300]
    for lam in (1.5, 2.74, 50.0):  # 50 never rejects: the no-rejection branch
        sels = [select_interval(y, tau, 10, lam, params, max_len) for tau in taus]
        lens = [s.chosen_len for s in sels]
        assert split_tests(lens, taus, 10, max_len) == sum(len(s.test_trace) for s in sels)


def test_self_times_are_nonnegative_and_within_totals():
    recorder = SpanRecorder("unit")
    with recorder.span("cli.main"):
        with recorder.span("garch.fit"):
            with recorder.span("garch.filter"):
                time.sleep(0.002)
            with recorder.span("garch.filter"):
                time.sleep(0.002)
        time.sleep(0.002)
    spans = recorder.spans
    own = self_times(spans)
    for (_, start, end, _), s in zip(spans, own):
        assert -1e-9 <= s <= end - start
    assert own[1] < 0.5 * (spans[1][2] - spans[1][1])
    metrics = layer_metrics(spans, {})
    assert metrics["garch.filter_calls"][0] == 2
    assert metrics["garch.fit_self_s"][0] <= metrics["garch.fit_s"][0]


def test_traced_child_records_every_layer_and_sane_self_times(tmp_path):
    returns = workloads.regime_returns(4, n=200, regimes=3)
    workloads.write_returns(tmp_path / "returns.csv", returns)
    result = tmp_path / "run" / "result.json"
    result.parent.mkdir()
    argv = ["backtest", "--input", str(tmp_path / "returns.csv"), "--garch-window", "150",
            "--lam", "table:80", "--deterministic", "--out-dir", str(tmp_path / "out")]
    env = {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    subprocess.run([sys.executable, str(HERE / "child.py"), str(result), "trace", *argv],
                   env=env, check=True, timeout=120)
    assert json.loads(result.read_text())["exit_code"] == 0
    payload = json.loads((tmp_path / "run" / "spans.json").read_text())
    spans = payload["spans"]
    for (_, start, end, _), s in zip(spans, self_times(spans)):
        assert -1e-9 <= s <= end - start
    cli_main = next(end - start for name, start, end, _ in spans if name == "cli.main")
    assert 0.0 < payload["overhead_s"] < cli_main
    metrics = layer_metrics(spans, payload["counts"])
    assert metrics["estimator.estimate_path_calls"][0] == 2
    assert metrics["garch.rolling_forecast_calls"][0] == 2
    assert metrics["garch.fit_calls"][0] == 2 * (200 - 150)
    assert metrics["estimator.taus"][0] == 2 * (200 - 20 + 1)
    assert metrics["garch.filter_calls"][0] > metrics["garch.fit_calls"][0]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = set(layer_metrics([], {})) | {"trace_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "ops_per_s",
                                                        "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)
