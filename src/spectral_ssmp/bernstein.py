"""Bernstein functions and their Bernstein-gamma functions.

A Bernstein function is represented by the triplet (phi(0), drift, measure)
so that

    phi(z) = phi(0) + drift * z + integral_0^inf (1 - e^{-z y}) nu(dy),

valid on the closed right half-plane.  The associated Bernstein-gamma
function W is the unique Mellin-transform-of-a-positive-random-variable
solution of

    W(z + 1) = phi(z) W(z),   W(1) = 1,

and is evaluated here in log space by its Stirling-type representation: a
short Weierstrass-type product of K = 32 factors with an Euler-Maclaurin
tail to order B_8, whose segment integral all points on one vertical line
share: a point costs K + 33 evaluations of phi plus its share of one
cumulative pass up its line.  The evaluator is specified by its contracts
(functional equation, normalization, conjugate symmetry, zero-freeness),
which are checked at construction, at the horizon too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    BranchError,
    ConvergenceError,
    DomainError,
    MetadataError,
    QuadratureError,
)
from .special import digamma, gauss_legendre, log_gamma_ratio

_RE_TOL = 1e-12


# ---------------------------------------------------------------------------
# measure descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormMeasure:
    """Levy measure whose integral against (1 - e^{-zy}) has a closed form.

    Supported kinds:
      "stable"            params = (beta,), integral = z**beta, 0 < beta < 1
      "gamma-ratio-plus"  params = (alpha_tilde,),
                          integral = Gamma(at*(1+z))/Gamma(at*z)
      "gamma-ratio-minus" params = (alpha, rho),
                          integral = Gamma(rho+a+a*z)/Gamma(rho+a*z)
                                     - Gamma(rho+a)/Gamma(rho)
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in ("stable", "gamma-ratio-plus", "gamma-ratio-minus"):
            raise DomainError(f"unknown closed-form measure kind {self.kind!r}")


@dataclass(frozen=True)
class AtomMeasure:
    """Finite sum of point masses: nu = sum m_i * delta_{y_i}, y_i > 0."""

    atoms: tuple  # of (location, mass) pairs

    def __post_init__(self):
        for y, m in self.atoms:
            if y <= 0 or m <= 0:
                raise DomainError("atom locations and masses must be positive")


@dataclass(frozen=True)
class DensityMeasure:
    """Tabulated Levy density on a log-spaced grid with declared power tails.

    Outside [y[0], y[-1]] the density is extended by c0*y**(-1-a0) on the
    left and cinf*y**(-1-ainf) on the right, with the constants matched by
    continuity.  Integrability of (1 ^ y) nu(dy) forces a0 < 1 and ainf > 0.
    """

    y: tuple
    density: tuple
    tail_exponent_zero: float
    tail_exponent_inf: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        d = np.asarray(self.density, dtype=float)
        if y.ndim != 1 or y.size < 4 or np.any(np.diff(y) <= 0) or y[0] <= 0:
            raise DomainError("density grid must be increasing and positive")
        if d.size != y.size or np.any(d < 0):
            raise DomainError("density values must be nonnegative")
        if not (self.tail_exponent_zero < 1.0):
            raise DomainError("near-zero tail exponent must be < 1 "
                              "for integrability of (1 ^ y) nu(dy)")
        if not (self.tail_exponent_inf > 0.0):
            raise DomainError("infinity tail exponent must be > 0")


Measure = AtomMeasure | DensityMeasure | ClosedFormMeasure


@dataclass(frozen=True)
class TailMetadata:
    """Qualitative tail data used by the symbolic spectrum tables.

    nu_bar_at_zero is nu((0, inf)): math.inf for infinite activity, else the
    finite total mass.  rv_index is the regular-variation index of the tail
    (when in (0,1)), quasi_monotone the q-m flag, and mass_m the constant
    phi(0) + nu_bar(0+) entering the power-law magnitude estimate.
    """

    nu_bar_at_zero: float = np.inf
    rv_index: Optional[float] = None
    quasi_monotone: Optional[bool] = None
    mass_m: Optional[float] = None

    def __post_init__(self):
        if self.rv_index is not None and not (0.0 < self.rv_index < 1.0):
            raise DomainError("rv_index must lie in (0, 1)")
        if self.mass_m is not None and self.mass_m < 0:
            raise DomainError("mass_m must be nonnegative")


@dataclass(frozen=True)
class BernsteinFunction:
    """Triplet representation (phi0, drift, measure) of a Bernstein function."""

    phi0: float = 0.0
    drift: float = 0.0
    measure: Optional[Measure] = None
    derivative: Optional[Callable] = field(default=None, compare=False, repr=False)
    metadata: Optional[TailMetadata] = None

    def __post_init__(self):
        if self.phi0 < 0 or self.drift < 0:
            raise DomainError("phi(0) and drift must be nonnegative")
        if self.phi0 == 0 and self.drift == 0 and self.measure is None:
            raise DomainError("degenerate phi == 0 rejected")


# ---------------------------------------------------------------------------
# quadrature tables for tabulated densities
# ---------------------------------------------------------------------------

_PANEL_NODES = 10
_LAPLACE_CUT = 40.0  # e^{-40} = 4e-18
_SMALL_SERIES_MAX = 10.0  # guard on |z| * y_min for the near-zero series


def _tail_consts(meas: DensityMeasure):
    y0, y1 = meas.y[0], meas.y[-1]
    a0, a1 = meas.tail_exponent_zero, meas.tail_exponent_inf
    c0 = meas.density[0] * y0 ** (1.0 + a0)
    c1 = meas.density[-1] * y1 ** (1.0 + a1)
    return y0, y1, a0, a1, c0, c1


def _power_nodes(c, a, lo, hi, npan):
    """Gauss nodes y_q and weights w_q*nu(y_q) of nu(dy) = c y^{-1-a} dy on
    [lo, hi], split into npan panels of equal width in log y."""
    xg, wg = gauss_legendre(_PANEL_NODES)
    edges = np.exp(np.linspace(np.log(lo), np.log(hi), npan + 1))
    ta, tb = np.log(edges[:-1]), np.log(edges[1:])
    tn = np.exp(ta[:, None] + (tb - ta)[:, None] * xg[None, :])
    tw = c * tn ** (-a) * ((tb - ta)[:, None] * wg[None, :])
    return tn.ravel(), tw.ravel()


@functools.lru_cache(maxsize=64)
def _density_nodes(meas: DensityMeasure):
    """Gauss nodes y_q (ascending), weights w_q*nu(y_q), and the constant
    remainder mass.

    The node set covers the table [y_min, y_max] (density interpolated
    log-linearly within each panel, exact for power laws) and the declared
    power tail on [y_max, Y]; beyond Y only the constant measure mass
    c1*Y^{-a1}/a1 remains and the oscillatory part is dropped, with Y grown
    until that dropped part is below the internal error target.
    """
    y = np.asarray(meas.y, dtype=float)
    d = np.asarray(meas.density, dtype=float)
    y0, y1, a0, a1, c0, c1 = _tail_consts(meas)
    xg, wg = gauss_legendre(_PANEL_NODES)

    la, lb = np.log(y[:-1]), np.log(y[1:])
    nodes = np.exp(la[:, None] + (lb - la)[:, None] * xg[None, :])
    with np.errstate(divide="ignore"):
        ld = np.log(np.where(d > 0, d, 1e-300))
    slope = (ld[1:] - ld[:-1]) / (lb - la)
    dens = np.exp(ld[:-1, None] + slope[:, None] * (np.log(nodes) - la[:, None]))
    dens[(d[:-1] == 0) & (d[1:] == 0), :] = 0.0
    wts = dens * nodes * ((lb - la)[:, None] * wg[None, :])
    all_nodes = [nodes.ravel()]
    all_wts = [wts.ravel()]

    rem = 0.0
    if c1 > 0.0:
        # extend nodes until the dropped measure mass is negligible both in
        # absolute terms and relative to the tail's own mass
        big = min(max(y1 * 1e8 ** (1.0 / a1), 10.0 * y1), 1e28)
        rem_try = c1 * big ** (-a1) / a1
        if rem_try > 1e-6 * max(1.0, c1 * y1 ** (-a1) / a1):
            raise QuadratureError(
                "declared infinity-tail exponent too small for the internal "
                "error target of the tabulated-density quadrature")
        npan = max(8, int(3 * np.log10(big / y1)))
        tn, tw = _power_nodes(c1, a1, y1, big, npan)
        all_nodes.append(tn)
        all_wts.append(tw)
        rem = c1 * big ** (-a1) / a1

    return np.concatenate(all_nodes), np.concatenate(all_wts), rem


def _near_zero_series(zy, a0, s, start):
    """sum_{k >= start} (-zy)^k / k! / (k + s - a0).

    Term by term, this integrates e^{-zy} - 1 (s = 0, start = 1) or
    y e^{-zy} (s = 1, start = 0) against the power head y^{-1-a0} of a
    tabulated density on (0, y_min], with zy = z * y_min; start = 2 leaves
    out the first-order term as well, as the compensated Levy-Khintchine
    kernel does.  Summed until the terms, past their peak at k ~ |zy|,
    fall below 2^-60 of the sum: 7 terms at |zy| = 1e-3, 54 at the guard
    |zy| = _SMALL_SERIES_MAX.
    """
    term = np.ones_like(zy)
    total = term / (s - a0) if start == 0 else np.zeros_like(zy)
    peak = float(np.max(np.abs(zy), initial=0.0))
    for k in range(1, 100):
        term = term * (-zy) / k
        if k >= start:
            total = total + term / (k + s - a0)
        if k > peak and np.all(np.abs(term) <= 2.0 ** -60 * np.abs(total)):
            break
    return total


def _density_small_tail(meas: DensityMeasure, z):
    """integral_0^{y_min} (1 - e^{-zy}) c0 y^{-1-a0} dy by alternating series."""
    y0, _, a0, _, c0, _ = _tail_consts(meas)
    z = np.asarray(z, dtype=complex)
    if c0 == 0.0:
        return np.zeros_like(z)
    zy = z * y0
    if np.max(np.abs(zy)) > _SMALL_SERIES_MAX:
        raise QuadratureError(
            "tabulated density table does not reach low enough for this "
            "argument (|z| * y_min too large); extend the table toward 0")
    return -(c0 * y0 ** (-a0)) * _near_zero_series(zy, a0, 0, 1)


def _nodes_needed(nodes, re_min):
    """How many of the ascending Laplace nodes y have re_min * y <= 40.

    Beyond them every e^{-zy} with Re z >= re_min is below e^{-40} times its
    weight w, while phi carries at least (1 - e^{-40}) w from that node, so
    dropping them changes phi by a relative 4e-18 at most.
    """
    if re_min <= 0.0:
        return nodes.size
    return int(np.searchsorted(nodes, _LAPLACE_CUT / re_min, side="right"))


def _density_integral(meas: DensityMeasure, z):
    nodes, wts, rem = _density_nodes(meas)
    z = np.asarray(z, dtype=complex)
    q = _nodes_needed(nodes, float(np.min(z.real)) if z.size else 0.0)
    core = np.sum(wts) + rem - np.exp(-z[..., None] * nodes[:q]) @ wts[:q]
    return np.where(z == 0, 0.0, core + _density_small_tail(meas, z))


# ---------------------------------------------------------------------------
# evaluation of phi
# ---------------------------------------------------------------------------

def _measure_integral(measure, z):
    """integral (1 - e^{-zy}) nu(dy) for any descriptor, vectorized in z."""
    z = np.asarray(z, dtype=complex)
    if measure is None:
        return np.zeros_like(z)
    if isinstance(measure, AtomMeasure):
        out = np.zeros_like(z)
        for y, m in measure.atoms:
            out = out + m * (1.0 - np.exp(-z * y))
        return out
    if isinstance(measure, DensityMeasure):
        return _density_integral(measure, z)
    if not isinstance(measure, ClosedFormMeasure):
        raise DomainError(f"unknown measure descriptor {type(measure)!r}")
    if measure.kind == "stable":
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(measure.params[0] * np.log(z))
        return np.where(z == 0, 0.0, out)
    # Gamma(rho + a + a z) / Gamma(rho + a z) - Gamma(rho + a) / Gamma(rho),
    # where rho = 0 (plus kind) makes the constant 0
    a, rho = _gamma_ratio_params(measure)
    x = rho + a * z
    out = np.exp(log_gamma_ratio(np.where(x == 0, 1.0, x), a))
    return (np.where(x == 0, 0.0, out)
            - (np.exp(log_gamma_ratio(rho, a)) if rho > 0 else 0.0))


def _gamma_ratio_params(m: ClosedFormMeasure):
    """(a, rho) of a gamma-ratio kind, rho = 0 for the plus kind."""
    return (m.params[0], 0.0) if m.kind == "gamma-ratio-plus" else m.params


def eval_phi(phi: BernsteinFunction, z):
    """Evaluate phi on the closed right half-plane (vectorized).

    Raises DomainError if any Re z < 0.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < -_RE_TOL):
        raise DomainError("phi is only defined for Re z >= 0")
    return phi.phi0 + phi.drift * z + _measure_integral(phi.measure, z)


def _phi_on_shifted(phi: BernsteinFunction, z, c):
    """phi(z_i + c_j) as a (len(z), len(c)) matrix, c complex offsets.

    For tabulated densities the Laplace kernel factorizes,
    e^{-(z+c)y} = e^{-zy} e^{-cy}, so the whole matrix costs one exp row
    per point and one matrix product against the (nodes, offsets) matrix
    e^{-cy}, instead of a quadrature per (i, j) pair.
    """
    z = np.asarray(z, dtype=complex).ravel()
    c = np.asarray(c, dtype=complex).ravel()
    zc = z[:, None] + c[None, :]
    if isinstance(phi.measure, DensityMeasure):
        nodes, wts, rem = _density_nodes(phi.measure)
        q = _nodes_needed(nodes, float(np.min(z.real) + np.min(c.real)))
        ezw = np.exp(-np.outer(z, nodes[:q])) * wts[:q]
        ec = np.exp(-np.outer(nodes[:q], c))
        base = np.sum(wts) + rem + _density_small_tail(phi.measure, zc)
        return phi.phi0 + phi.drift * zc + (base - ezw @ ec)
    return eval_phi(phi, zc)


def phi_derivative(phi: BernsteinFunction, u):
    """phi'(u) for u > 0.

    Uses the user-supplied analytic derivative when present and an analytic
    formula for the built-in descriptors otherwise.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0):
        raise DomainError("phi' is evaluated on (0, inf) only")
    if phi.derivative is not None:
        return phi.derivative(u)
    m = phi.measure
    if m is None or isinstance(m, AtomMeasure):
        out = np.full(u_arr.shape, float(phi.drift))
        for y, mass in (m.atoms if m is not None else ()):
            out = out + mass * y * np.exp(-u_arr * y)
        return out if u_arr.shape else float(out)
    if isinstance(m, DensityMeasure):
        nodes, wts, _ = _density_nodes(m)
        core = np.exp(-u_arr[..., None] * nodes) @ (wts * nodes)
        y0, _, a0, _, c0, _ = _tail_consts(m)
        small = 0.0
        if c0 > 0:
            small = (c0 * y0 ** (1.0 - a0)
                     * _near_zero_series(u_arr * y0, a0, 1, 0))
        return phi.drift + core + small
    if not isinstance(m, ClosedFormMeasure):
        raise DomainError(f"unknown measure descriptor {type(m)!r}")
    if m.kind == "stable":
        return phi.drift + m.params[0] * u_arr ** (m.params[0] - 1.0)
    a, rho = _gamma_ratio_params(m)
    x = rho + a * u_arr
    val = np.exp(log_gamma_ratio(x, a)).real
    return phi.drift + val * a * (digamma(x + a) - digamma(x)).real


# ---------------------------------------------------------------------------
# Bernstein-gamma evaluator
# ---------------------------------------------------------------------------

_VALIDATION_Z = (np.array([0.5, 1.0, 2.0])[:, None]
                 + 1j * np.array([0.0, 1.0, 3.0, 10.0, 30.0])).ravel()
_HORIZON_FRACTIONS = (0.97, 0.99, 0.999)
_K = 32
_CIRCLE_N = 32
_SIDE_N = 16
_PANEL_H = 2.0  # width of the vertical-leg panels
_PANEL_N = 6  # Gauss-Legendre nodes per panel
# B_2j / (2j)! for j = 1..4 (B_2 = 1/6, B_4 = -1/30, B_6 = 1/42, B_8 = -1/30)
_EM_COEF = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
_CHUNK_ELEMENTS = 4_000_000  # complex values per chunk of phi evaluations


def _laplace_nodes(phi):
    """Laplace nodes per evaluation of phi (for a tabulated density)."""
    if isinstance(phi.measure, DensityMeasure):
        return _density_nodes(phi.measure)[0].size
    return 0


def _vertical_pass(phi, a, edges, rule):
    """log phi(a + i t) at the nodes of the Gauss-Legendre rule (nodes,
    weights on [0, 1]) on each panel between the ascending edges, and the
    integrals of log phi(a + i t) dt from edges[0] to every edge, summed in
    np.clongdouble; phi is evaluated in chunks under _CHUNK_ELEMENTS."""
    gx, gw = rule
    width = np.diff(edges)
    t = (edges[:-1, None] + width[:, None] * gx[None, :]).ravel()
    lv = np.empty(t.shape, dtype=complex)
    step = max(1, _CHUNK_ELEMENTS // (1 + _laplace_nodes(phi)))
    for lo in range(0, t.size, step):
        lv[lo:lo + step] = np.log(eval_phi(phi, a + 1j * t[lo:lo + step]))
    lv = lv.reshape(width.size, gx.size)
    panels = ((lv @ gw) * width).astype(np.clongdouble)
    return lv, np.concatenate([np.zeros(1, np.clongdouble), np.cumsum(panels)])


class BernsteinGammaEvaluator:
    """Evaluates W on the closed right half-plane in log space.

    The construction is the Stirling-type representation of W (Patie and
    Savov, Electron. J. Probab. 2018) with L = log phi:

        log W(z) = -gamma_hat z - L(z)
                   + sum_{k=1}^{K} f_z(k) + sum_{k>K} f_z(k),
        f_z(u) = L(u) - L(u+z) + z L'(u),

    where gamma_hat is fixed by W(1) = 1.  The tail sum is taken by
    Euler-Maclaurin to order B_8:

        sum_{k>K} f_z(k) = integral_K^{K+z} L - z L(K) - f_z(K)/2
                           - sum_{j=1}^{4} B_2j/(2j)! f_z^(2j-1)(K),
        f_z^(m)(K) = L^(m)(K) - L^(m)(K+z) + z L^(m+1)(K).

    The derivatives of L at K (once, at build) and at K+z (per point) come
    from the trapezoid rule on _CIRCLE_N nodes of a circle of radius K/3;
    L is analytic on Re > 0, so the rule converges geometrically for every
    measure.  The segment integral runs K -> K + Re z (_SIDE_N Gauss-Legendre
    nodes in log u) -> K + z, and all points with the same Re z share the
    vertical leg: one cumulative pass of panels of n = _PANEL_N
    Gauss-Legendre nodes, with edges at every |Im z| and on a grid of width
    h = _PANEL_H (conjugate symmetry for Im z < 0).  Since |L'(u)| <= 1/Re u
    (|phi'(u)| <= phi'(Re u) <= phi(Re u)/Re u <= |phi(u)|/Re u), L moves by
    at most M = 1 + h/K within K/2 of a panel, a region that holds the
    panel's Bernstein ellipse rho, (h/4)(rho - 1/rho) = K/2.  The
    Gauss-Legendre bound (Trefethen, SIAM Rev. 2008, Thm 4.5) then puts the
    error of a leg of height Y below (32/15) Y M rho^{-2n} / (rho^2 - 1),
    which h = 2, n = 6 (rho = 32) make 2e-21 Y.  So a point costs
    K + _CIRCLE_N + 1 evaluations of phi (for a tabulated density, one exp
    row and one matrix product cover the K + _CIRCLE_N shifted ones), and
    each distinct real part O(points + max |Im z| / h) more.

    K = 32 is `truncation`.  The functional-equation residuals on the
    validation grid (|Im z| <= 30) and at a few points on Re z = 1/2 near
    Im z = zmax are `residual` and `horizon_residual`; a ConvergenceError is
    raised when either misses tol (a larger K does not lower them).  All
    caches are computed here, so the evaluator is immutable and safe to
    share between threads.
    """

    def __init__(self, phi: BernsteinFunction, tol: float = 1e-10,
                 zmax: float = 300.0):
        if tol <= 0 or zmax <= 0:
            raise DomainError("tol and zmax must be positive")
        self.phi = phi
        self.tol = float(tol)
        self.zmax = float(zmax)
        if float(eval_phi(phi, 1.0).real) <= 0.0:
            raise DomainError("phi(1) must be positive")
        self._build_tables()
        self.truncation = _K
        z = _VALIDATION_Z[np.abs(_VALIDATION_Z) + 1.0 <= self.zmax]
        self.residual = self._fe_residual(z)
        xi = self.zmax * np.array(_HORIZON_FRACTIONS)
        self.horizon_residual = self._fe_residual(0.5 + 1j * xi)
        if not (self.residual <= tol and self.horizon_residual <= tol):
            raise ConvergenceError(
                f"functional-equation residual {self.residual:.3e} "
                f"(validation), {self.horizon_residual:.3e} (horizon) > tol "
                f"{tol:.3e} at K = {_K}")

    # -- construction helpers -------------------------------------------

    def _build_tables(self):
        kk = np.arange(1, _K + 1, dtype=float)
        phik = eval_phi(self.phi, kk).real
        if np.any(phik <= 0):
            raise DomainError("phi must be strictly positive on [1, K]")
        rk = np.asarray(phi_derivative(self.phi, kk), dtype=float) / phik
        self._log_phik = np.log(phik)
        # L^(m)(c) = m!/(N r^m) sum_n L(c + r w^n) w^{-mn}, w = e^{2 pi i/N};
        # em_odd and em_even fold in B_2j/(2j)! for m = 2j-1 and m = 2j
        r = _K / 3.0
        circle = r * np.exp(2j * np.pi * np.arange(_CIRCLE_N) / _CIRCLE_N)
        em_odd = np.zeros(_CIRCLE_N, dtype=complex)
        em_even = np.zeros(_CIRCLE_N, dtype=complex)
        for j, coef in enumerate(_EM_COEF, start=1):
            for m, acc in ((2 * j - 1, em_odd), (2 * j, em_even)):
                acc += (coef * math.factorial(m) / _CIRCLE_N) * (circle ** -m)
        self._em_odd = em_odd
        log_phi_circle = np.log(eval_phi(self.phi, _K + circle))
        # the terms affine in z, folded so that a point adds them with one
        # rounding; sum_k L(k) is subtracted from sum_k L(k+z) term by term,
        # so that W(1) = 1 fixes gamma_hat (in the slope) to a few ulp
        self._const = float(-0.5 * self._log_phik[-1]
                            - (log_phi_circle @ em_odd).real)
        self._slope = float(np.sum(rk) - self._log_phik[-1] - 0.5 * rk[-1]
                            - (log_phi_circle @ em_even).real)
        self._offsets = np.concatenate([kk, _K + circle])
        cols = _K + _CIRCLE_N + 1 + 2 * _laplace_nodes(self.phi)
        self._chunk = max(1, _CHUNK_ELEMENTS // cols)
        self._slope -= float(self._log_w_raw(np.array([1.0 + 0j]))[0].real)

    def _segment_integral(self, z):
        """integral_K^{K+z} log phi(u) du along K -> K + Re z -> K + z for a
        1-d array z: one real leg and one vertical pass per distinct Re z."""
        re, group = np.unique(z.real, return_inverse=True)
        gx, gw = gauss_legendre(_SIDE_N)
        t = np.log1p(re / _K)[:, None]  # the real leg, in t = log(u/K)
        u = _K * np.exp(t * gx[None, :])
        out = np.sum(np.log(eval_phi(self.phi, u)) * u * t * gw, axis=1)[group]
        rule = gauss_legendre(_PANEL_N)
        for g, x in enumerate(re):
            idx = np.flatnonzero(group == g)
            y = np.abs(z.imag[idx])
            edges = np.union1d(y, np.arange(0.0, y.max(), _PANEL_H))
            cum = _vertical_pass(self.phi, _K + x, edges, rule)[1]
            leg = 1j * cum[np.searchsorted(edges, y)].astype(complex)
            out[idx] += np.where(z.imag[idx] < 0, np.conj(leg), leg)
        return out

    def _log_w_raw(self, z):
        """log W for a 1-d array z; until the build folds gamma_hat into the
        slope, log W(z) + gamma_hat z."""
        out = self._segment_integral(z) + (self._const + self._slope * z)
        for lo in range(0, z.size, self._chunk):
            zz = z[lo:lo + self._chunk]
            lv = np.log(_phi_on_shifted(self.phi, zz, self._offsets))
            shifted, circle = lv[:, :_K], lv[:, _K:]
            with np.errstate(divide="ignore", invalid="ignore"):
                head = -np.log(eval_phi(self.phi, zz))
            out[lo:lo + self._chunk] += (
                head - np.sum(shifted - self._log_phik, axis=1)
                + 0.5 * shifted[:, -1] + circle @ self._em_odd)
        return out

    def _fe_residual(self, z):
        """max |1 - phi(z) W(z) / W(z+1)| over the points z."""
        lw = np.log(eval_phi(self.phi, z)) + self._log_w_raw(z)
        lw1 = self._log_w_raw(z + 1.0)
        return float(np.max(np.abs(1.0 - np.exp(lw - lw1))))

    # -- public surface ---------------------------------------------------

    def log_w(self, z):
        """log W(z) for Re z >= 0 (principal determination), vectorized."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        if np.any(flat.real < -_RE_TOL):
            raise DomainError("W is evaluated on Re z >= 0 only")
        if np.any(np.abs(flat) > self.zmax):
            raise ConvergenceError(
                f"|z| exceeds the evaluator horizon zmax={self.zmax}; "
                "rebuild the evaluator with a larger zmax")
        on_boundary = np.abs(flat.real) <= _RE_TOL
        if np.any(on_boundary):
            pv = eval_phi(self.phi, flat[on_boundary])
            if np.any(np.abs(pv) == 0.0):
                raise DomainError("phi vanishes at a boundary point; "
                                  "W has a pole there")
        out = self._log_w_raw(flat)
        return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)

    def w(self, z):
        """W(z) itself."""
        return np.exp(self.log_w(z))


@functools.lru_cache(maxsize=32)
def default_evaluator(phi: BernsteinFunction, tol: float = 1e-10,
                      zmax: float = 300.0) -> BernsteinGammaEvaluator:
    """Shared evaluator cache; BernsteinFunction is frozen, hence hashable."""
    return BernsteinGammaEvaluator(phi, tol=tol, zmax=zmax)


# ---------------------------------------------------------------------------
# oscillation functionals Theta
# ---------------------------------------------------------------------------

_THETA_MAX_PANELS = 1 << 22


def theta_integral(phi: BernsteinFunction, a: float, xi,
                   tol: float = 1e-10):
    """integral_0^xi arg phi(a + i w) dw for a scalar xi or a 1-d array of
    xi, all from one pass over [0, max xi].

    The interval is cut at every xi and each piece into Gauss-Legendre
    panels for the W evaluator's vertical-line pass (arg phi = Im log phi),
    halved until the cumulative totals of two successive passes agree to
    tol at every xi.  Since Re phi(a + iw) >= phi(a) > 0, the principal
    argument is already continuous; a jump above pi/2 between adjacent
    nodes therefore only ever signals an unresolved quadrature and also
    triggers halving.
    """
    if a <= 0:
        raise DomainError("theta_integral needs a > 0")
    xs = np.asarray(xi, dtype=float)
    if xs.ndim > 1 or np.any(xs < 0):
        raise DomainError("theta_integral needs xi >= 0, a scalar or 1-d")
    pos = xs > 0
    ends = np.unique(xs[pos])
    if ends.size == 0:
        return 0.0 if xs.ndim == 0 else np.zeros(xs.shape)
    starts = np.concatenate([[0.0], ends[:-1]])
    npan = np.clip((ends - starts).astype(int), 8, 4096)
    prev = None
    while True:
        edges = np.concatenate([np.linspace(s, e, n + 1)[:-1]
                                for s, e, n in zip(starts, ends, npan)]
                               + [ends[-1:]])
        lv, cum = _vertical_pass(phi, a, edges, gauss_legendre(8))
        total = cum.imag[np.cumsum(npan)].astype(float)
        jump = np.abs(np.diff(lv.imag.ravel())).max(initial=0.0) > np.pi / 2
        if not jump:
            if prev is not None and np.all(
                    np.abs(total - prev) <= tol * (1.0 + np.abs(total))):
                break
            prev = total
        npan = 2 * npan
        if np.sum(npan) > _THETA_MAX_PANELS:
            if jump:
                raise BranchError("arg tracking cannot resolve a branch jump")
            raise QuadratureError("theta_integral did not converge")
    out = np.zeros(xs.shape)
    out[pos] = total[np.searchsorted(ends, xs[pos])]
    return float(out) if xs.ndim == 0 else out


def theta_limits(phi: BernsteinFunction, xi_max: float,
                 n_samples: int = 8) -> tuple:
    """Empirical (min, max) of Theta_phi over a geometric grid up to xi_max.

    Theta is always confined to [0, pi/2]; the returned pair brackets the
    liminf/limsup at the resolution of the grid.
    """
    if n_samples < 2:
        raise DomainError("n_samples must be at least 2")
    xis = xi_max * 2.0 ** (-np.arange(n_samples, dtype=float))[::-1]
    th = theta_integral(phi, 0.5, xis) / xis
    return float(np.min(th)), float(np.max(th))


def asymptotic_magnitude(phi: BernsteinFunction, a: float, xi: float,
                         form: str = "theta",
                         evaluator: Optional[BernsteinGammaEvaluator] = None
                         ) -> float:
    """Estimate of |W(a + i xi)| along the vertical line Re = a.

    form="theta": sqrt(phi(a)) W(a) / sqrt(|phi(a+i xi)|) * e^{-Theta-area},
    where the area is integral_0^{|xi|} arg phi(a + iw) dw.
    form="power": with drift > 0 and the mass constant m present in the
    metadata, the power-law shape c |xi|^{a + m/d - 1/2} e^{-pi |xi| / 2}.
    """
    if a <= 0:
        raise DomainError("asymptotic_magnitude needs a > 0")
    axi = abs(xi)
    if evaluator is None:
        evaluator = default_evaluator(phi)
    wa = float(evaluator.w(complex(a, 0.0)).real)
    pa = float(eval_phi(phi, a).real)
    if form == "theta":
        area = theta_integral(phi, a, axi, tol=1e-9)
        mag = np.sqrt(pa) * wa / np.sqrt(abs(eval_phi(phi, complex(a, axi))))
        return float(mag * np.exp(-area))
    if form == "power":
        meta = phi.metadata
        if meta is None or meta.mass_m is None or phi.drift <= 0:
            raise MetadataError("power form needs drift > 0 and mass_m metadata")
        expo = a + meta.mass_m / phi.drift - 0.5
        return float(np.sqrt(pa) * wa * axi ** expo * np.exp(-0.5 * np.pi * axi))
    raise DomainError(f"unknown form {form!r}")
