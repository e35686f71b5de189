"""Seeded workload inputs and the `lave` command line each workload runs.

Every input file is drawn here, with numpy only, from the benchmark seed; the
program under test receives nothing but the generated files and flags. Why
each workload exists is recorded in README.md next to this file.

The outputs of `backtest` and `simulate` can only be checked against stored
reference values (expected.json), so those two workloads draw their inputs
from one of VARIANTS stored variants, chosen by the seed. `estimate` is
checked against the reference scan recomputed from the input, so every seed
gives a fresh input there.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("estimate-2k", "backtest-600", "simulate-mc")
# Number of stored reference variants for the workloads checked against
# stored values; the seed selects one of them.
VARIANTS = 8

ESTIMATE_N = 2000
ESTIMATE_REGIMES = 8
BACKTEST_N = 600
GARCH_WINDOW = 350
SIMULATE_DESIGN = "two-jump-3x"
SIMULATE_REPLICATIONS = 2000
# (gamma, M) configurations `simulate --lambdas auto` runs with the default grid
SIMULATE_CONFIGS = 6
SIMULATE_TAUS = 240 - 20 + 1  # two-jump-3x is 240 long, scored from t=20


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its CLI arguments and operations per run.

    argv excludes --out-dir, which the runner appends per run. ops is the
    number of operations one successful run completes.
    """

    name: str
    argv: tuple
    ops: int
    input_seed: int


def input_seed(name: str, seed: int) -> int:
    """Seed of the workload's input data: the seed itself for estimate-2k,
    its stored variant for the workloads checked against stored values."""
    return seed if name == "estimate-2k" else seed % VARIANTS


def regime_returns(seed: int, n: int = ESTIMATE_N, regimes: int = ESTIMATE_REGIMES) -> np.ndarray:
    """Daily percent returns with piecewise-constant volatility.

    Regime boundaries are random with each regime at least n / (4 * regimes)
    long; each change multiplies sigma by a factor between 1.5x and 4x, up or
    down, with the level kept inside [0.25, 4].
    """
    rng = np.random.default_rng([seed, 1])
    shortest = n // (4 * regimes)
    spare = n - shortest * regimes
    cuts = np.sort(rng.choice(spare, size=regimes - 1, replace=False))
    lengths = np.diff(np.concatenate(([0], cuts, [spare]))) + shortest
    sigma = [1.0]
    for _ in range(regimes - 1):
        factor = rng.uniform(1.5, 4.0)
        down = sigma[-1] * factor > 4.0 or (sigma[-1] / factor >= 0.25 and rng.random() < 0.5)
        sigma.append(sigma[-1] / factor if down else sigma[-1] * factor)
    path = np.repeat(sigma, lengths)
    return path * rng.standard_normal(n)


def garch_returns(seed: int, n: int = BACKTEST_N) -> np.ndarray:
    """Percent returns from a GARCH(1,1) with seeded parameters, started at
    the long-run variance and discarding a 200-step burn-in."""
    rng = np.random.default_rng([seed, 2])
    alpha = rng.uniform(0.05, 0.12)
    beta = rng.uniform(0.80, 0.90)
    omega = rng.uniform(0.02, 0.08)
    burn = 200
    xi = rng.standard_normal(n + burn)
    r = np.empty(n + burn)
    s2 = omega / (1.0 - alpha - beta)
    for t in range(n + burn):
        r[t] = np.sqrt(s2) * xi[t]
        s2 = omega + alpha * r[t] ** 2 + beta * s2
    return r[burn:]


def write_returns(path: Path, values: np.ndarray) -> None:
    lines = ["return"] + [repr(float(v)) for v in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def prepare(name: str, seed: int, work_dir: Path) -> Workload:
    """Write the workload's input files into work_dir and return its argv."""
    s = input_seed(name, seed)
    common = ("--deterministic",)
    if name == "estimate-2k":
        path = work_dir / "returns.csv"
        write_returns(path, regime_returns(s))
        argv = ("estimate", "--input", str(path), "--gamma", "0.5", "--lam", "auto:80") + common
        return Workload(name, argv, ESTIMATE_N - 20 + 1, s)
    if name == "backtest-600":
        path = work_dir / "returns.csv"
        write_returns(path, garch_returns(s))
        argv = (
            "backtest", "--input", str(path), "--garch-window", str(GARCH_WINDOW),
            "--lam", "table:80",
        ) + common
        return Workload(name, argv, BACKTEST_N - GARCH_WINDOW, s)
    if name == "simulate-mc":
        argv = (
            "simulate", "--design", SIMULATE_DESIGN, "--replications",
            str(SIMULATE_REPLICATIONS), "--lambdas", "auto", "--seed", str(s),
        ) + common
        return Workload(name, argv, SIMULATE_REPLICATIONS * SIMULATE_TAUS * SIMULATE_CONFIGS, s)
    raise ValueError(f"unknown workload {name!r}")
