#!/usr/bin/env python3
"""Regenerate expected.json, the stored reference outputs of the workloads
that cannot be checked against a recomputation (backtest-600, simulate-mc),
for each of the workloads.VARIANTS input variants.

    python3 perfbench/make_expected.py

Run it only at a commit whose outputs are trusted: a run rewrites the
reference that every later benchmark run is checked against. It also
confirms, for variant 0 of simulate-mc and the (gamma 0.5, M 80) curve, that
the stored median estimate and median window length at CONFIRM_TAUS agree
with the reference scan `select_interval` applied to every replication.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import workloads
from checks import EXPECTED_PATH, GAMMA, M0, REL_TOL, close, expected_values
from run import ROOT, SRC, WORK, git_revision

sys.path.insert(0, str(SRC))

CONFIRM_TAUS = (40, 90, 170)


def generate(work: Path) -> dict:
    import lave.cli

    stored = {"commit": git_revision()}
    for name in ("backtest-600", "simulate-mc"):
        stored[name] = {}
        for variant in range(workloads.VARIANTS):
            run_dir = work / f"{name}-{variant}"
            run_dir.mkdir(parents=True)
            wl = workloads.prepare(name, variant, run_dir)
            code = lave.cli.main([*wl.argv, "--out-dir", str(run_dir / "out")])
            if code != 0:
                raise SystemExit(f"{name} variant {variant}: lave exited {code}")
            stored[name][str(variant)] = expected_values(name, run_dir / "out")
            print(f"{name} variant {variant} stored", flush=True)
    return stored


def confirm_simulate(stored: dict, taus) -> None:
    """Median sigma_hat and window length over all replications, recomputed
    with select_interval, against the stored curve rows of variant 0."""
    from lave.cli import DESIGN_PRESETS
    from lave.estimator import select_interval
    from lave.series import ReturnSeries, theta_to_sigma
    from lave.transform import power_constants, power_transform

    exp = stored["simulate-mc"]["0"]
    lam = next(row[1] for row in exp["errors"] if (row[0], row[2]) == (GAMMA, 80))
    segments = DESIGN_PRESETS[workloads.SIMULATE_DESIGN]
    sigma = np.repeat([s for _, s in segments], [n for n, _ in segments]).astype(float)
    rng = np.random.default_rng(workloads.input_seed("simulate-mc", 0))
    draws = sigma * rng.standard_normal((workloads.SIMULATE_REPLICATIONS, sigma.size))
    params = power_constants(GAMMA)
    rows = {int(r[0]): r for r in exp["curve_rows"]}
    for tau in taus:
        if tau not in rows:
            raise SystemExit(f"tau {tau} is not a stored curve row")
        sig, lens = [], []
        for r in draws:
            sel = select_interval(power_transform(ReturnSeries(r), GAMMA), tau, M0, lam, params)
            sig.append(theta_to_sigma(sel.theta_hat, params))
            lens.append(sel.chosen_len)
        med_sigma = float(np.percentile(sig, 50))
        med_len = float(np.percentile(lens, 50))
        ok = close(med_sigma, rows[tau][2], REL_TOL) and med_len == rows[tau][5]
        print(f"tau={tau}: select_interval median sigma {med_sigma!r} len {med_len}; "
              f"stored {rows[tau][2]!r} len {rows[tau][5]} -> {'agree' if ok else 'DIFFER'}")
        if not ok:
            raise SystemExit("stored simulate-mc values disagree with select_interval")


def main() -> None:
    os.environ.pop("LAVE_SEED", None)  # the benchmark's commands never see it
    work = WORK / "expected"
    shutil.rmtree(work, ignore_errors=True)
    stored = generate(work)
    confirm_simulate(stored, CONFIRM_TAUS)
    EXPECTED_PATH.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
