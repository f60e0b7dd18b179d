"""The speed gauge: a fixed compute kernel that calls nothing of the library.

    python3 perfbench/calib.py      # prints ten kernel times, in ms

Workers run `gauge()` after their set-up and after each operation they
time; run.py divides the run's times by gauge times and multiplies them by
run.KERNEL_REFERENCE_S, so the figures read as seconds on this machine in
its fast state (README, "Reference speed").  The kernel mixes what the library's operations are made of: a Python loop over
small numpy arrays (the Monte Carlo stepping), complex log-gamma and exp on
a few thousand points (the Bernstein-gamma evaluator) and long FFTs (the
transforms, at a length no workload grid has, so the kernel warms nothing
an operation uses).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.special


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    rng = np.random.default_rng(12345)
    t = time.perf_counter()
    z = np.zeros(256)
    acc = np.zeros(256)
    for _ in range(600):
        inc = 0.03 * rng.standard_normal(z.size) + rng.poisson(0.01, z.size)
        z_new = z + inc
        acc = acc + 0.5 * (np.exp(z) + np.exp(z_new)) * 1e-3
        live = acc < 0.4
        z, acc = z_new[live], acc[live]
        if z.size < 32:
            z, acc = np.zeros(256), np.zeros(256)
    s = 0.5 + 1j * np.linspace(-200.0, 200.0, 4096)
    for _ in range(4):
        w = np.exp(scipy.special.loggamma(s) - scipy.special.loggamma(s + 0.7))
        s = s + 1e-3 * w
    x = np.exp(-np.linspace(-20.0, 40.0, 30000) ** 2 / 50.0).astype(complex)
    for _ in range(6):
        x = np.fft.ifft(np.fft.fft(x) * 0.999)
    return time.perf_counter() - t


def gauge(runs: int = 3) -> float:
    """Mean time of `runs` back-to-back runs of the kernel, in seconds."""
    return sum(kernel() for _ in range(runs)) / runs


if __name__ == "__main__":
    print(" ".join(f"{1e3 * kernel():.2f}" for _ in range(10)))
