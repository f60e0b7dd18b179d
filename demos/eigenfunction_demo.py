"""Eigenfunctions three ways: power series, Wright forms, inversion.

Each route takes the Wiener-Hopf pair it serves.  For the pair (drift, u+1)
the eigenfunction collapses to a Bessel function, e^{-x/2} J_1(2 e^{x/2}),
so the series (plus factor the unit drift) and the transform inversion
(a Point pair) can be compared against a classical special function.  For
the gamma-ratio pairs two candidate Wright-function normalizations exist
(the argument scale is either e^{x/alpha_tilde} or e^{x/alpha}); the
inversion route decides.
"""

import numpy as np
from scipy.special import j1

from spectral_ssmp.eigenfunctions import (
    EIGEN_GRID,
    eigenfunction_fft,
    eigenfunction_series,
    wright_eigenfunction,
)
from spectral_ssmp.exponents import WienerHopfPair
from spectral_ssmp.families import make_bernstein

pair_b = WienerHopfPair(make_bernstein("drift", d=1.0),
                        make_bernstein("affine", d=1.0, c=1.0))
J = eigenfunction_fft(pair_b)
x = EIGEN_GRID.x
mask = (x >= -10) & (x <= 5)
ref = np.exp(-x / 2) * j1(2 * np.exp(x / 2))
print("pair (id, u+1): inversion vs e^{-x/2} J_1(2 e^{x/2}):",
      f"sup error {np.max(np.abs(J.values.real[mask] - ref[mask])):.2e}")

xv = np.array([-4.0, 0.0, 2.0])
for xi, sv, bv in zip(xv, eigenfunction_series(pair_b, xv, tol=1e-9),
                      np.exp(-xv / 2) * j1(2 * np.exp(xv / 2))):
    print(f"  series at x={xi}: {sv:+.8f}  bessel: {bv:+.8f}")

pair_g = WienerHopfPair(make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
                        make_bernstein("gamma-ratio-minus", alpha=0.3,
                                       rho=1.0))
Jg = eigenfunction_fft(pair_g)
win = (x >= -10) & (x <= 0.5)
xs = x[win][::256]
jf = np.interp(xs, x, Jg.values.real)
print("\ngamma pair (0.7, 0.3, 1.0): Wright-variant discrimination")
for variant in ("statement", "proof"):
    jv = wright_eigenfunction(pair_g, xs, variant)
    c = float(np.dot(jf, jv) / np.dot(jv, jv))
    rel = float(np.linalg.norm(jf - c * jv) / np.linalg.norm(jf))
    tag = "e^{x/alpha_tilde}" if variant == "statement" else "e^{x/alpha}"
    print(f"  argument scale {tag:18s}: rel L2 mismatch {rel:.2e}")
print("the e^{x/alpha_tilde} scale is the one the inversion confirms")
