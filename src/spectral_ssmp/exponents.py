"""Levy-Khintchine exponents: quadruplets and Wiener-Hopf pairs.

An exponent psi can be given directly by its quadruplet
(psi(0), b, sigma^2, mu),

    psi(xi) = psi(0) - i b xi + sigma^2 xi^2
              + integral (1 - e^{i xi y} + i xi y 1_{|y|<=1}) mu(dy),

or through an ordered pair of Bernstein functions (phi_plus, phi_minus),

    psi(xi) = phi_plus(-i xi) * phi_minus(i xi).

No factorization from a quadruplet is attempted: pairs are primary input.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .bernstein import (
    BernsteinFunction,
    DensityMeasure,
    _measure_rule,
    eval_phi,
)
from .errors import DomainError
from .records import Record
from .special import median

__all__ = [
    "SignedMeasure",
    "LevyQuadruplet",
    "WienerHopfPair",
    "Exponent",
    "eval_psi",
    "conjugate",
    "weak_nonlattice_check",
]


class SignedMeasure(Record):
    """Levy measure on R minus {0}: atoms plus one tabulated density per side.

    density_pos covers (0, inf); density_neg is the reflected measure of the
    negative side, i.e. a DensityMeasure in the variable |y| for y < 0.
    Integrability of (y^2 ^ 1) mu(dy) bounds each density's near-zero tail
    exponent by 2.
    """

    atoms: tuple = ()
    density_pos: Optional[DensityMeasure] = None
    density_neg: Optional[DensityMeasure] = None

    def __post_init__(self):
        for y, m in self.atoms:
            if not (0.0 < abs(y) < math.inf and 0.0 < m < math.inf):
                raise DomainError("atoms need a finite nonzero location and "
                                  "a finite positive mass")
        for d in (self.density_pos, self.density_neg):
            if d is not None and not d.tail_exponent_zero < 2.0:
                raise DomainError("near-zero exponent >= 2 violates "
                                  "integral (y^2 ^ 1) mu(dy) < inf")

    def reflected(self):
        return SignedMeasure(
            atoms=tuple((-y, m) for y, m in self.atoms),
            density_pos=self.density_neg,
            density_neg=self.density_pos,
        )

    def discretized(self):
        """(y, w, sides): the signed sizes y and weights w of the atoms and of
        both densities' Gauss nodes, and a (sign, rule) pair per density,
        whose rule carries the remainder mass beyond the nodes and the head
        below the table."""
        y = [np.array([a[0] for a in self.atoms], dtype=float)]
        w = [np.array([a[1] for a in self.atoms], dtype=float)]
        sides = []
        for dens, sign in ((self.density_pos, 1.0), (self.density_neg, -1.0)):
            if dens is not None:
                rule = _measure_rule(dens)
                y.append(sign * rule.nodes)
                w.append(rule.weights)
                sides.append((sign, rule))
        return np.concatenate(y), np.concatenate(w), sides


class LevyQuadruplet(Record):
    psi0: float = 0.0
    b: float = 0.0
    sigma2: float = 0.0
    mu: SignedMeasure = SignedMeasure()

    def __post_init__(self):
        if not (0.0 <= self.psi0 < math.inf and 0.0 <= self.sigma2 < math.inf
                and math.isfinite(self.b)):
            raise DomainError("psi(0) and sigma^2 must be finite and "
                              "nonnegative, and b finite")


class WienerHopfPair(Record):
    phi_plus: BernsteinFunction
    phi_minus: BernsteinFunction


class Exponent(Record):
    """Exactly one canonical representation, optionally both for cross-checks."""

    quadruplet: Optional[LevyQuadruplet] = None
    pair: Optional[WienerHopfPair] = None

    def __post_init__(self):
        if self.quadruplet is None and self.pair is None:
            raise DomainError("an exponent needs a quadruplet or a pair")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _compensated_kernel(xi, y):
    """(1 - e^{i xi y} + i xi y 1_{|y|<=1}) for xi (..., 1) against y (m,)."""
    ph = np.exp(1j * np.multiply.outer(xi, y))
    comp = np.where(np.abs(y) <= 1.0, y, 0.0)
    return 1.0 - ph + 1j * np.multiply.outer(xi, comp)


def _quad_psi(q: LevyQuadruplet, xi):
    xi = np.asarray(xi, dtype=float)
    y, w, sides = q.mu.discretized()
    flat = xi.ravel()
    jumps = np.empty(flat.shape, dtype=complex)
    chunk = max(64, int(2e6 // max(1, y.size)))
    for lo in range(0, flat.size, chunk):
        jumps[lo:lo + chunk] = _compensated_kernel(flat[lo:lo + chunk], y) @ w
    out = q.psi0 - 1j * q.b * xi + q.sigma2 * xi ** 2 + jumps.reshape(xi.shape)
    for sign, rule in sides:
        # jumps beyond the nodes are > 1 in size, so the compensator is
        # absent and the kernel contributes ~ 1 * mass (0 at xi = 0); below
        # the table the head contributes -(e^{i xi y} - 1 - i xi y)
        out = (out + np.where(xi == 0, 0.0, rule.rem)
               - rule.series(-1j * sign * xi, 2))
    return out


def eval_psi(e: Exponent, xi):
    """psi(xi) for real xi, vectorized; prefers the pair representation."""
    xi_arr = np.asarray(xi, dtype=float)
    if e.pair is not None:
        zp = -1j * xi_arr
        zm = 1j * xi_arr
        out = eval_phi(e.pair.phi_plus, zp) * eval_phi(e.pair.phi_minus, zm)
    else:
        out = _quad_psi(e.quadruplet, xi_arr)
    return out if np.ndim(xi) else complex(out)


def conjugate(e: Exponent) -> Exponent:
    """The conjugate exponent: pair factors swap; the quadruplet reflects."""
    pair = None
    quad = None
    if e.pair is not None:
        pair = WienerHopfPair(e.pair.phi_minus, e.pair.phi_plus)
    if e.quadruplet is not None:
        q = e.quadruplet
        quad = LevyQuadruplet(q.psi0, -q.b, q.sigma2, q.mu.reflected())
    return Exponent(quadruplet=quad, pair=pair)


def weak_nonlattice_check(phi: BernsteinFunction, xi_max: float) -> tuple:
    """Fit the decay rate kappa of |phi(i xi)| (|phi| ~ |xi|^{-kappa}) on
    256 geometric points of [1, xi_max] and report whether
    |xi|^kappa |phi(i xi)| stays bounded below.

    Lattice-type oscillation (|phi(i xi)| dipping to near zero along the
    grid) returns ok = False.  It accepts 10 < xi_max < inf and raises
    DomainError otherwise.
    """
    if not 10.0 < xi_max < math.inf:
        raise DomainError("xi_max must be finite and exceed 10")
    xi = np.exp(np.linspace(np.log(1.0), np.log(xi_max), 256))
    mags = np.abs(eval_phi(phi, 1j * xi))
    if np.any(mags == 0.0):
        return float("nan"), False
    # least-squares slope of log|phi| against log xi on the upper half
    half = xi >= np.sqrt(xi_max)
    lx, lm = np.log(xi[half]), np.log(mags[half])
    slope = float(np.polyfit(lx, lm, 1)[0])
    kappa = -slope
    # zero detection: linear scan (lattice zeros are equally spaced), then
    # a local refinement around the worst dip of the trend-corrected level
    lin = np.linspace(1.0, xi_max, 16 * 256)
    scaled = np.abs(eval_phi(phi, 1j * lin)) * lin ** kappa
    med = float(median(scaled))
    i0 = int(np.argmin(scaled))
    window = np.linspace(lin[max(0, i0 - 1)], lin[min(lin.size - 1, i0 + 1)],
                         512)
    local = np.abs(eval_phi(phi, 1j * window)) * window ** kappa
    ok = bool(min(np.min(scaled), np.min(local)) > 1e-3 * med)
    return kappa, ok
