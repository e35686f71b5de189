"""
Monte Carlo study on change-point designs
=========================================

How well does the adaptive window track a volatility jump, and which
transform power tracks it best? This script runs a compact version of
the simulation study: seeded series with piecewise-constant volatility,
the scan applied at every time point across many replications, and the
accumulated relative estimation error per configuration.
"""

import numpy as np

from lave.cli import DEFAULT_LAMBDA_TABLE
from lave.estimator import EstimatorConfig
from lave.simulation import (
    ChangePointSpec,
    batch_estimate,
    detection_delays,
    run_change_point_experiment,
)

design = ChangePointSpec(((80, 1.0), (80, 3.0), (80, 1.0)), seed=0)
print("1. The design:", " / ".join(f"{n} points at sigma {s:g}"
                                   for n, s in design.segments))
print(f"   change points at t = {list(design.change_points())}")
print()

print("2. Accumulated relative error, 200 replications, both transform powers")
lambdas = {k: v for k, v in DEFAULT_LAMBDA_TABLE.items() if k[0] in (0.5, 2.0)}
# every configuration gets its error cell; only section 3's gets its curves
result = run_change_point_experiment(
    design, lambdas, replications=200, seed=0, curves_for=[(0.5, 80)]
)
print()
print("   gamma    M   lambda   error")
for cell in result.cells:
    print(f"   {cell.gamma:4.1f}  {cell.m_label:4d}   {cell.lam:.2f}   {cell.error:10.1f}")
print()
print("Lower is better. The half power wins at both reference windows;")
print("its lighter-tailed transform makes the homogeneity tests sharper.")
print()

print("3. Median selected window length around the first jump (gamma 0.5)")
curve = result.curves[(0.5, 80)]
for tau in (60, 80, 85, 90, 100, 140):
    i = int(np.where(curve.taus == tau)[0][0])
    print(f"   tau {tau:3d}: median length {curve.len_median[i]:5.1f}"
          f"   (true sigma {curve.sigma_true[i]:.0f})")
print()

print("4. Detection delay: how fast does the window collapse after a jump?")
rng = np.random.default_rng(7)
xi = rng.standard_normal((300, 160))
config = EstimatorConfig(gamma=0.5, m0=10, lam=2.74, t0=20)
for jump in (2.0, 3.0, 5.0):
    sigma = ChangePointSpec(((80, 1.0), (80, jump))).sigma_path()
    taus, _, lens = batch_estimate(sigma * xi, config)
    d = detection_delays(taus, lens, change_point=80, m0=10)
    print(f"   jump 1 -> {jump:g}: median delay {np.nanmedian(d):4.1f} steps"
          f"   ({int(np.isnan(d).sum())} of 300 never collapse)")
print()
print("Bigger jumps are caught faster, and the same noise draws are used")
print("for every jump size, so the comparison is paired.")
