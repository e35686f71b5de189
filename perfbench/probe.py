"""Machine-speed probe: a fixed piece of work that belongs to the benchmark,
timed in a fresh interpreter before every measured command.

    python3 probe.py   # prints its wall time in seconds

It does not touch `lave`. Its work is of the kinds a `lave` command does:
importing numpy and scipy, a Python loop over small numpy arrays, and plain
interpreter arithmetic. A change to `lave` cannot change its time; a change
in how fast the machine runs does.
"""

import time


def main() -> float:
    start = time.perf_counter()
    import numpy as np
    import scipy.optimize  # noqa: F401
    import scipy.signal  # noqa: F401
    import scipy.special  # noqa: F401

    x = np.abs(np.random.default_rng(0).standard_normal(3000)) ** 0.5
    prefix = np.concatenate(([0.0], np.cumsum(x)))
    lengths = 10 * np.arange(1, 30)
    acc = 0.0
    for tau in range(300, 3000):
        means = (prefix[tau] - prefix[tau - lengths]) / lengths
        acc += float(np.abs(np.diff(means)).max())
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main()))
