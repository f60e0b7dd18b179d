"""Recompute the reference figures recorded in perfbench/README.md.

    python3 perfbench/envinfo.py            # versions, cores, src line count,
                                            # the speed gauge's current time
    python3 perfbench/envinfo.py --suite    # plus the tier-1 suite wall time
    python3 perfbench/envinfo.py --clamp    # plus the clamped samples of the
                                            # gamma pair on EIGEN_GRID

Nothing here feeds a check: the benchmark's references are computed on
every run.  These are the figures that describe the machine and the code
the README's measurements were taken on.
"""

from __future__ import annotations

import argparse
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--suite", action="store_true")
    p.add_argument("--clamp", action="store_true")
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import mpmath
    import numpy
    import scipy

    lines = sum(len(f.read_text(encoding="utf-8").splitlines())
                for f in sorted((SRC / "spectral_ssmp").glob("*.py")))
    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, mpmath {mpmath.__version__}")
    print(f"cores available: {len(os.sched_getaffinity(0))}")
    print(f"src/spectral_ssmp line count: {lines}")
    gauge = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "calib.py")],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True,
        text=True, check=True).stdout.split()
    print(f"speed gauge (calib.kernel), ten runs: {' '.join(gauge)} ms "
          f"(run.py reports at 20 ms)")
    if args.clamp:
        import numpy as np
        from spectral_ssmp import WienerHopfPair, make_bernstein, multiplier_h
        from spectral_ssmp.eigenfunctions import EIGEN_GRID
        pair = WienerHopfPair(
            make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
            make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0))
        vals = multiplier_h(pair, EIGEN_GRID).values
        clamped = int(np.sum(np.abs(np.log(np.abs(vals))) >= 700.0 - 1e-9))
        print(f"gamma pair (0.7, 0.3, 1) on EIGEN_GRID: {clamped} of "
              f"{vals.size} multiplier samples clamped at |log m| = 700")
    if args.suite:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors"],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True)
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        print(f"tier-1 suite: {time.perf_counter() - t:.0f} s wall ({tail})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
