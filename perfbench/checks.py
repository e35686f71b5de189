"""Output checks: each workload's CSVs against an independent reference.

- estimate-2k: at every tau, `interval_len` must equal that of the reference
  scan `lave.estimator.select_interval` and `sigma_hat` must agree within
  REL_TOL. The threshold comes from `calibrate_lambda`, recomputed here. The
  reference is computed once per run, after the timed commands.
- backtest-600: the adaptive forecasts are checked like estimate-2k at every
  forecast time, the GARCH forecasts and scores against the values stored in
  expected.json, and both scores against the forecast rows they summarize.
- simulate-mc: error cells, sampled curve rows and curve column sums against
  expected.json.

Tolerances are fixed here, before any run. REL_TOL covers float64 rounding
(prefix-sum window means against direct means) plus the 12-decimal rounding
of the CSV writer. GARCH_REL_TOL is looser because a GARCH fit is only as
exact as its optimizer's stopping rule; any optimizer that reaches the same
optimum within that rule passes. SCORE_REL_TOL covers the square root in the
p = 0.5 criterion, which magnifies the CSV rounding of a near-zero error.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import workloads

REL_TOL = 1e-9
ABS_TOL = 1e-12
GARCH_REL_TOL = 1e-6
SCORE_REL_TOL = 1e-6
GAMMA = 0.5
M0 = 10
T0 = 2 * M0
CURVE_SAMPLE_STEP = 10
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def close(actual: float, expected: float, rel: float) -> bool:
    return abs(actual - expected) <= rel * abs(expected) + ABS_TOL


def scan_reference(returns: np.ndarray, lam: float, taus) -> tuple[np.ndarray, np.ndarray]:
    """(chosen lengths, sigma_hat) of the reference scan at each tau."""
    from lave.estimator import select_interval
    from lave.series import ReturnSeries, theta_to_sigma
    from lave.transform import power_constants, power_transform

    params = power_constants(GAMMA)
    y = power_transform(ReturnSeries(returns), GAMMA)
    lens, sigmas = [], []
    for tau in taus:
        sel = select_interval(y, tau, M0, lam, params)
        lens.append(sel.chosen_len)
        sigmas.append(theta_to_sigma(sel.theta_hat, params))
    return np.array(lens, dtype=np.int64), np.array(sigmas)


def _check_scan_column(ts, values, expected, column: str) -> list[str]:
    """Rows of one column that disagree with the reference: count and first t."""
    off = ~np.isclose(values, expected, rtol=REL_TOL, atol=ABS_TOL)
    if not off.any():
        return []
    i = int(np.argmax(off))
    return [f"{column} differs from the reference scan at {int(off.sum())} rows, "
            f"first t={ts[i]}: {float(values[i])!r} != {float(expected[i])!r}"]


def _check_rows_cover(rows, expected_ts) -> list[str]:
    ts = [int(r[0]) for r in rows]
    if ts != list(expected_ts):
        return [f"rows cover t={ts[:1]}..{ts[-1:]} ({len(ts)} rows), expected "
                f"{expected_ts[0]}..{expected_ts[-1]} ({len(expected_ts)} rows)"]
    return []


class Checker:
    """Checks one workload's outputs; build it once per run, after timing."""

    def __init__(self, workload: workloads.Workload, returns: np.ndarray | None):
        self.workload = workload
        self.returns = returns
        name = workload.name
        if name == "estimate-2k":
            from lave.calibration import CalibrationSpec, calibrate_lambda

            lam = calibrate_lambda(CalibrationSpec(gamma=GAMMA, M=80, m0=M0)).lam
            self.taus = range(T0, returns.size + 1)
            self.ref_lens, self.ref_sigma = scan_reference(returns, lam, self.taus)
        elif name == "backtest-600":
            from lave.cli import DEFAULT_LAMBDA_TABLE

            lam = DEFAULT_LAMBDA_TABLE[(GAMMA, 80)]
            self.taus = range(workloads.GARCH_WINDOW, returns.size)
            self.ref_lens, self.ref_sigma = scan_reference(returns, lam, self.taus)
        if name != "estimate-2k":
            stored = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
            self.expected = stored[name][str(workload.input_seed)]

    def check(self, out_dir: Path) -> list[str]:
        """Every mismatch between the run's outputs and the reference."""
        try:
            return getattr(self, "_" + self.workload.name.replace("-", "_"))(Path(out_dir))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output in {out_dir}: {exc!r}"]

    def _estimate_2k(self, out: Path) -> list[str]:
        header, rows = read_csv(out / "estimate.csv")
        if header != ["t", "sigma_hat", "interval_len"]:
            return [f"estimate.csv header {header}"]
        problems = _check_rows_cover(rows, self.taus)
        if problems:
            return problems
        table = np.array([[float(v) for v in r] for r in rows])
        problems += _check_scan_column(self.taus, table[:, 1], self.ref_sigma, "sigma_hat")
        lens = table[:, 2].astype(np.int64)
        off = lens != self.ref_lens
        if off.any():
            i = int(np.argmax(off))
            problems.append(f"interval_len differs from the reference scan at {int(off.sum())} "
                            f"rows, first t={self.taus[i]}: {lens[i]} != {self.ref_lens[i]}")
        return problems

    def _backtest_600(self, out: Path) -> list[str]:
        exp = self.expected
        header, rows = read_csv(out / "comparison.csv")
        comparison = dict(zip(header, rows[0]))
        problems = []
        if len(rows) != 1 or int(comparison["t0"]) != workloads.GARCH_WINDOW:
            problems.append(f"comparison.csv: {rows}")
        for key, rel in (("lave_score", REL_TOL), ("garch_score", GARCH_REL_TOL),
                         ("ratio", GARCH_REL_TOL)):
            if not close(float(comparison[key]), exp[key], rel):
                problems.append(f"{key} {comparison[key]} != stored {exp[key]!r}")

        header, rows = read_csv(out / "forecasts.csv")
        if header != ["t", "lave_sigma_sq", "garch_sigma_sq", "r_sq_next"]:
            return problems + [f"forecasts.csv header {header}"]
        ts = self.taus
        bad_rows = _check_rows_cover(rows, ts)
        if bad_rows:
            return problems + bad_rows
        table = np.array([[float(v) for v in r[1:]] for r in rows])
        lave_f, garch_f, r_sq = table.T
        problems += _check_scan_column(ts, lave_f, self.ref_sigma ** 2, "lave_sigma_sq")
        if not np.allclose(r_sq, self.returns[ts.start:] ** 2, rtol=REL_TOL, atol=ABS_TOL):
            problems.append("r_sq_next differs from the input returns")
        stored = np.array(exp["garch_sigma_sq"])
        off = ~np.isclose(garch_f, stored, rtol=GARCH_REL_TOL, atol=ABS_TOL)
        if off.any():
            t = ts[int(np.argmax(off))]
            problems.append(f"garch_sigma_sq differs from stored at {int(off.sum())} rows, first t={t}")
        for key, forecast in (("lave_score", lave_f), ("garch_score", garch_f)):
            score = float(np.mean(np.abs(r_sq - forecast) ** 0.5))
            if not close(float(comparison[key]), score, SCORE_REL_TOL):
                problems.append(f"{key} {comparison[key]} != {score!r} from forecasts.csv")
        return problems

    def _simulate_mc(self, out: Path) -> list[str]:
        exp = self.expected
        problems = []
        header, rows = read_csv(out / "errors.csv")
        if header != ["gamma", "lambda", "M_label", "error"] or len(rows) != len(exp["errors"]):
            return [f"errors.csv: {header} with {len(rows)} rows"]
        for row, stored in zip(rows, exp["errors"]):
            g, lam, m, err = float(row[0]), float(row[1]), int(row[2]), float(row[3])
            if (g, m) != (stored[0], stored[2]) or not (
                close(lam, stored[1], REL_TOL) and close(err, stored[3], REL_TOL)
            ):
                problems.append(f"errors.csv row {row} != stored {stored}")

        header, rows = read_csv(out / "curves.csv")
        table = np.array([[float(v) for v in r] for r in rows])
        if table.shape != (workloads.SIMULATE_TAUS, len(header)):
            return problems + [f"curves.csv has shape {table.shape}"]
        sums = table.sum(axis=0)
        for col, s, stored in zip(header, sums, exp["curve_sums"]):
            if not close(float(s), stored, REL_TOL):
                problems.append(f"curves.csv column {col} sums to {s!r}, stored {stored!r}")
        sampled = table[::CURVE_SAMPLE_STEP]
        if not np.allclose(sampled, np.array(exp["curve_rows"]), rtol=REL_TOL, atol=ABS_TOL):
            problems.append("curves.csv sampled rows differ from stored")
        return problems


def expected_values(name: str, out: Path) -> dict:
    """The stored-reference record for one output directory (see make_expected.py)."""
    if name == "backtest-600":
        header, rows = read_csv(out / "comparison.csv")
        comparison = dict(zip(header, rows[0]))
        _, rows = read_csv(out / "forecasts.csv")
        return {
            "lave_score": float(comparison["lave_score"]),
            "garch_score": float(comparison["garch_score"]),
            "ratio": float(comparison["ratio"]),
            "garch_sigma_sq": [float(r[2]) for r in rows],
        }
    if name == "simulate-mc":
        _, rows = read_csv(out / "errors.csv")
        errors = [[float(r[0]), float(r[1]), int(r[2]), float(r[3])] for r in rows]
        _, rows = read_csv(out / "curves.csv")
        table = np.array([[float(v) for v in r] for r in rows])
        return {
            "errors": errors,
            "curve_sums": table.sum(axis=0).tolist(),
            "curve_rows": table[::CURVE_SAMPLE_STEP].tolist(),
        }
    raise ValueError(f"{name} has no stored reference")
