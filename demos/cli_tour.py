"""
The command line in one sitting
===============================

Everything the library does is also reachable through the `lave`
console script. This script drives the CLI programmatically: it writes
a small returns file, runs a few subcommands against it, and shows the
CSV outputs each one leaves behind. Every output file starts with a
`# config:` line that reproduces the exact run configuration.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from lave.cli import main

# everything goes into a temporary directory, removed at the end
tmp = tempfile.TemporaryDirectory(prefix="lave-demo-")
root = Path(tmp.name)
out = root / "out"

# a 300-point series with one volatility jump, written as one value per line
rng = np.random.default_rng(42)
returns = np.concatenate([rng.standard_normal(150),
                          3.0 * rng.standard_normal(150)])
data = root / "returns.csv"
data.write_text("\n".join(repr(float(v)) for v in returns) + "\n")
print(f"1. Wrote {len(returns)} returns to {data}")
print()


def show(path, head=4):
    lines = path.read_text().splitlines()
    print(f"   {path.name} ({len(lines)} lines):")
    for line in lines[:head]:
        print(f"     {line}")
    print("     ...")
    print()


print("2. lave stats: marginal moments")
main(["stats", "--input", str(data), "--out-dir", str(out / "stats")])
show(out / "stats" / "stats.csv", head=5)

print("3. lave estimate: the adaptive volatility path")
main(["estimate", "--input", str(data), "--gamma", "0.5", "--lam", "2.74",
      "--out-dir", str(out / "estimate")])
show(out / "estimate" / "estimate.csv")

print("4. lave acf: autocorrelation before and after standardization")
main(["acf", "--input", str(data), "--standardize", "--max-lag", "10",
      "--out-dir", str(out / "acf")])
show(out / "acf" / "acf_standardized.csv")

print("5. lave calibrate: thresholds from scratch")
main(["calibrate", "--gamma", "0.5", "--M", "40", "--replications", "500",
      "--out-dir", str(out / "cal")])
with (out / "cal" / "calibrate.csv").open() as f:
    rows = [row for row in csv.reader(f) if row and not row[0].startswith("#")]
print(f"   header {rows[0]}")
print(f"   row    {rows[1]}")
print()

print("6. Every run is reproducible from its own output header")
first = (out / "estimate" / "estimate.csv").read_text().splitlines()[0]
print(f"   {first}")
print()
print(f"All artifacts were under {out}, now removed")
tmp.cleanup()
