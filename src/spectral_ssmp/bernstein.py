"""Bernstein functions and their Bernstein-gamma functions.

A Bernstein function is represented by the triplet (phi(0), drift, measure)
so that

    phi(z) = phi(0) + drift * z + integral_0^inf (1 - e^{-z y}) nu(dy),

valid on the closed right half-plane.  The associated Bernstein-gamma
function W is the unique Mellin-transform-of-a-positive-random-variable
solution of

    W(z + 1) = phi(z) W(z),   W(1) = 1,

and is evaluated here in log space by its Stirling-type representation: a
short Weierstrass-type product of K = 16 factors with an Euler-Maclaurin
tail to order B_12.  The points on one vertical line share fixed panels of
length 8 on |Im z|: the segment integral, the factors z + k with k >= 8
and the Euler-Maclaurin terms are analytic in a strip of half-width
8 + Re z about the line, so a panel that holds at least 28 points
interpolates them from its 28 Chebyshev points, at the Bernstein-ellipse
rate (rho = 4.47 on Re z = 1/2, an error of 3e-18 times their modulus).
A point there costs 8 evaluations of log phi plus its share of the
panel's 812 (18.7 on the half line of a 4096-point multiplier grid),
elsewhere 37, all through one kernel (`_log_phi`).  The evaluator is
specified by its contracts (functional equation, normalization, conjugate
symmetry, zero-freeness): the first two are checked at construction, the
functional equation at the horizon too, and the last two hold by
construction.

Where W has a log-Gamma closed form (drift and affine factors, a constant,
a gamma ratio itself, a pure stable z^beta), `default_evaluator` serves it
from that form instead: one `special.log_gamma` per point, about 0.35 us,
under the same construction checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError
from .special import (
    BERNOULLI,
    _log,
    gauss_legendre,
    log_gamma,
    log_gamma_ratio,
)

_RE_TOL = 1e-12


# ---------------------------------------------------------------------------
# measure descriptors
# ---------------------------------------------------------------------------

_CLOSED_FORM_ARITY = {"stable": 1, "gamma-ratio-plus": 1,
                      "gamma-ratio-minus": 2}


@dataclass(frozen=True)
class ClosedFormMeasure:
    """Levy measure whose integral against (1 - e^{-zy}) has a closed form.

    Supported kinds, each index (beta, at, a) in (0, 1) and rho finite > 0:
      "stable"            params = (beta,), integral = z**beta
      "gamma-ratio-plus"  params = (alpha_tilde,),
                          integral = Gamma(at*(1+z))/Gamma(at*z)
      "gamma-ratio-minus" params = (alpha, rho),
                          integral = Gamma(rho+a+a*z)/Gamma(rho+a*z)
                                     - Gamma(rho+a)/Gamma(rho)
    """

    kind: str
    params: tuple

    def __post_init__(self):
        arity = _CLOSED_FORM_ARITY.get(self.kind)
        if arity is None:
            raise DomainError(f"unknown closed-form measure kind {self.kind!r}")
        if len(self.params) != arity:
            raise DomainError(f"a {self.kind} measure takes {arity} "
                              f"parameter(s), got {len(self.params)}")
        if not 0.0 < self.params[0] < 1.0:
            raise DomainError(f"the index of a {self.kind} measure must be "
                              "in (0, 1)")
        if arity == 2 and not 0.0 < self.params[1] < math.inf:
            raise DomainError("rho of a gamma-ratio-minus measure must be "
                              "finite and > 0")


@dataclass(frozen=True)
class AtomMeasure:
    """Finite sum of point masses: nu = sum m_i * delta_{y_i}, y_i > 0."""

    atoms: tuple  # of (location, mass) pairs

    def __post_init__(self):
        if not self.atoms or not all(0.0 < y < math.inf and 0.0 < m < math.inf
                                     for y, m in self.atoms):
            raise DomainError("an atom measure needs at least one atom, "
                              "each with finite positive location and mass")


@dataclass(frozen=True)
class DensityMeasure:
    """Tabulated Levy density on a log-spaced grid with declared power tails.

    Outside [y[0], y[-1]] the density is extended by c0*y**(-1-a0) on the
    left and cinf*y**(-1-ainf) on the right, with the constants matched by
    continuity.  Every value is finite and nonnegative, one at least
    positive (all zero is the zero measure), and ainf > 0 makes the mass
    beyond 1 finite.  The bound on a0 belongs to the measure's use: a
    Bernstein function needs a0 < 1 (`BernsteinFunction`), a Levy measure
    a0 < 2 (`exponents.SignedMeasure`).
    """

    y: tuple
    density: tuple
    tail_exponent_zero: float
    tail_exponent_inf: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        d = np.asarray(self.density, dtype=float)
        if (y.ndim != 1 or y.size < 4 or not np.all((0.0 < y) & (y < np.inf))
                or np.any(np.diff(y) <= 0)):
            raise DomainError("density grid must be finite, increasing and "
                              "positive")
        if d.shape != y.shape or not (np.all((0 <= d) & (d < np.inf))
                                      and d.max() > 0):
            raise DomainError("density values must be finite, nonnegative "
                              "and not all zero")
        if not math.isfinite(self.tail_exponent_zero):
            raise DomainError("near-zero tail exponent must be finite")
        if not 0.0 < self.tail_exponent_inf < math.inf:
            raise DomainError("infinity tail exponent must be finite and > 0")


Measure = AtomMeasure | DensityMeasure | ClosedFormMeasure


@dataclass(frozen=True)
class BernsteinFunction:
    """Triplet representation (phi0, drift, measure) of a Bernstein function."""

    phi0: float = 0.0
    drift: float = 0.0
    measure: Optional[Measure] = None

    def __post_init__(self):
        if not (0.0 <= self.phi0 < math.inf and 0.0 <= self.drift < math.inf):
            raise DomainError("phi(0) and drift must be finite and nonnegative")
        if self.phi0 == 0 and self.drift == 0 and self.measure is None:
            raise DomainError("degenerate phi == 0 rejected")
        if (isinstance(self.measure, DensityMeasure)
                and not self.measure.tail_exponent_zero < 1.0):
            raise DomainError("near-zero tail exponent must be < 1 "
                              "for integrability of (1 ^ y) nu(dy)")


# ---------------------------------------------------------------------------
# Laplace-node rules of atom measures and tabulated densities
# ---------------------------------------------------------------------------

_PANEL_NODES = 10
_LAPLACE_CUT = 40.0  # e^{-40} = 4e-18
_SMALL_SERIES_MAX = 10.0  # guard on |z| * y_min for the near-zero series


def _power_nodes(c, a, lo, hi, npan):
    """Gauss nodes y_q and weights w_q*nu(y_q) of nu(dy) = c y^{-1-a} dy on
    [lo, hi], split into npan panels of equal width in log y."""
    xg, wg = gauss_legendre(_PANEL_NODES)
    edges = np.exp(np.linspace(np.log(lo), np.log(hi), npan + 1))
    ta, tb = np.log(edges[:-1]), np.log(edges[1:])
    tn = np.exp(ta[:, None] + (tb - ta)[:, None] * xg[None, :])
    tw = c * tn ** (-a) * ((tb - ta)[:, None] * wg[None, :])
    return tn.ravel(), tw.ravel()


@dataclass(frozen=True, eq=False)
class _MeasureRule:
    """The discretization of an atom measure or a tabulated density that
    every integral against it uses: phi, phi', psi, the integro-differential
    generator and the jump model.

    For atoms, the nodes are the sorted locations, the weights the masses,
    and rem = c0 = 0.  For a density, nodes (ascending) and weights
    w_q*nu(y_q) are Gauss rules on the table
    [y_min, y_max] (density interpolated log-linearly within each panel,
    exact for power laws) and on the declared power tail [y_max, Y]; rem is
    the measure mass c1*Y^{-a1}/a1 beyond Y, whose oscillatory part is
    dropped, with Y grown until that dropped part is below the internal
    error target.  Below y_min the head c0*y^{-1-a0} is integrated exactly
    by `series` and `moment`.
    """

    nodes: np.ndarray
    weights: np.ndarray
    rem: float
    y_min: float
    a0: float
    c0: float

    def series(self, z, start):
        """integral_0^{y_min} sum_{k >= start} (-zy)^k / k! c0 y^{-1-a0} dy
        = c0 y_min^{-a0} sum_{k >= start} (-w)^k / k! / (k - a0),
        w = z y_min.

        This is e^{-zy} - 1 for start = 1 and the compensated Levy-Khintchine
        kernel for start = 2.  Summed until the terms, past their peak at
        k ~ |w|, fall below 2^-60 of the sum: 7 terms at |w| = 1e-3, 54 at
        the guard |w| = _SMALL_SERIES_MAX, beyond which ConvergenceError is
        raised.
        """
        zy = np.asarray(z) * self.y_min
        if self.c0 == 0.0:
            return np.zeros_like(zy)
        peak = float(np.max(np.abs(zy), initial=0.0))
        if peak > _SMALL_SERIES_MAX:
            raise ConvergenceError(
                "tabulated density table does not reach low enough for this "
                "argument (|z| * y_min too large); extend the table toward 0")
        term = np.ones_like(zy)
        total = np.zeros_like(zy)
        for k in range(1, 100):
            term = term * (-zy) / k
            if k >= start:
                total = total + term / (k - self.a0)
            if k > peak and np.all(np.abs(term) <= 2.0 ** -60 * np.abs(total)):
                break
        return self.c0 * self.y_min ** -self.a0 * total

    def moment(self, lo):
        """integral_0^lo y^2 c0 y^{-1-a0} dy for lo <= y_min."""
        return self.c0 * lo ** (2.0 - self.a0) / (2.0 - self.a0)

    def head_nodes(self, lo):
        """Gauss nodes and weights of the head on [lo, y_min], three panels
        per decade (none when lo >= y_min)."""
        if self.c0 == 0.0 or lo >= self.y_min:
            return np.empty(0), np.empty(0)
        npan = max(1, int(np.ceil(3 * np.log10(self.y_min / lo))))
        return _power_nodes(self.c0, self.a0, lo, self.y_min, npan)


@functools.lru_cache(maxsize=64)
def _measure_rule(meas: AtomMeasure | DensityMeasure) -> _MeasureRule:
    """The rule of an atom measure or a tabulated density, built once per
    descriptor."""
    if isinstance(meas, AtomMeasure):
        y, m = np.array(sorted(meas.atoms), dtype=float).T.copy()
        return _MeasureRule(y, m, 0.0, y[0], 0.0, 0.0)
    y = np.asarray(meas.y, dtype=float)
    d = np.asarray(meas.density, dtype=float)
    y0, y1 = meas.y[0], meas.y[-1]
    a0, a1 = meas.tail_exponent_zero, meas.tail_exponent_inf
    c1 = meas.density[-1] * y1 ** (1.0 + a1)
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
            raise ConvergenceError(
                "declared infinity-tail exponent too small for the internal "
                "error target of the tabulated-density quadrature")
        npan = max(8, int(3 * np.log10(big / y1)))
        tn, tw = _power_nodes(c1, a1, y1, big, npan)
        all_nodes.append(tn)
        all_wts.append(tw)
        rem = c1 * big ** (-a1) / a1

    return _MeasureRule(np.concatenate(all_nodes), np.concatenate(all_wts),
                        rem, y0, a0, meas.density[0] * y0 ** (1.0 + a0))


def _nodes_needed(nodes, re_min):
    """How many of the ascending Laplace nodes y have re_min * y <= 40.

    Beyond them every e^{-zy} with Re z >= re_min is below e^{-40} times its
    weight w, while phi carries at least (1 - e^{-40}) w from that node, so
    dropping them changes phi by a relative 4e-18 at most.
    """
    if re_min <= 0.0:
        return nodes.size
    return int(np.searchsorted(nodes, _LAPLACE_CUT / re_min, side="right"))


# ---------------------------------------------------------------------------
# evaluation of phi
# ---------------------------------------------------------------------------

def _measure_integral(measure, z, c=None):
    """integral (1 - e^{-zy}) nu(dy) for any descriptor, vectorized in z;
    given offsets c, the (len(z), c.size) matrix of its values at
    z_i + c_j for a 1-d z, the offsets in c.ravel() order.  A 2-d c is an
    outer sum, c[j, k] = c[j, 0] - c[0, 0] + c[0, k] (to rounding).

    Atoms and tabulated densities take one Laplace sum over their rule's
    nodes.  With offsets it factorizes, e^{-(z+c)y} = e^{-zy} e^{-cy}, so
    the matrix costs one exp row per point and one matrix product against
    the (nodes, offsets) matrix e^{-cy}, instead of a quadrature per (i, j)
    pair (`_laplace_product`).  Where phi cancels most of the mass sum,
    with no offsets and in the column c = 0, the sum is the pairwise row
    sum of w e^{-zy}, which rounds less than a dot product.  e^{-zy} is
    formed in place: the (points, nodes) array is the largest one phi
    takes.
    """
    if measure is None:
        return 0.0
    z = np.asarray(z, dtype=complex)
    zc = z if c is None else z[:, None] + np.ravel(c)
    if isinstance(measure, (AtomMeasure, DensityMeasure)):
        r = _measure_rule(measure)
        q = _nodes_needed(r.nodes, float(np.min(zc.real)) if zc.size else 0.0)
        ezw = -z[..., None] * r.nodes[:q]
        np.exp(ezw, out=ezw)
        ezw *= r.weights[:q]
        if c is None:
            lap = ezw.sum(axis=-1)
        else:
            lap = _laplace_product(ezw, r.nodes[:q], c)
            lap[:, np.ravel(c) == 0] = ezw.sum(axis=1)[:, None]
        out = np.sum(r.weights) + r.rem - lap - r.series(zc, 1)
        return np.where(zc == 0, 0.0, out)
    if not isinstance(measure, ClosedFormMeasure):
        raise DomainError(f"unknown measure descriptor {type(measure)!r}")
    if measure.kind == "stable":
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(measure.params[0] * np.log(zc))
        return np.where(zc == 0, 0.0, out)
    # Gamma(rho + a + a z) / Gamma(rho + a z) - Gamma(rho + a) / Gamma(rho),
    # where rho = 0 (plus kind) makes the constant 0
    a, rho = _gamma_ratio_params(measure)
    x = rho + a * zc
    out = np.exp(log_gamma_ratio(np.where(x == 0, 1.0, x), a))
    return np.where(x == 0, 0.0, out) - _ratio_constant(a, rho)


_PRODUCT_DEPTH = 128  # Laplace nodes per matrix product


def _laplace_product(ezw, nodes, c):
    """ezw @ e^{-y c} over the nodes y, with bits that depend neither on
    the number of rows nor on the BLAS thread count.  OpenBLAS cuts a
    product deeper than its block (256 nodes for complex128 on x86-64) at
    other depths when it runs on more threads, and takes one row by gemv,
    which sums in another order; so the nodes go in chunks of
    _PRODUCT_DEPTH, added in order, each chunk's e^{-y c} formed only for
    its product, and a single row is doubled.

    The offsets are an outer sum (`_measure_integral`; a 1-d c is one row
    of it), whose e^{-y c} is the product of the exps of its two factors,
    e^{-y (c[j, 0] - c[0, 0])} e^{-y c[0, k]}: c.shape[0] + c.shape[1]
    exps per node instead of c.size (28 + 29 against 812 on a dense panel
    of the W evaluator)."""
    rows = ezw.shape[0]
    if rows == 1:
        ezw = np.concatenate([ezw, ezw])
    c = c.reshape(-1, c.shape[-1])  # 1-d offsets: an outer sum of one row
    out = np.zeros((ezw.shape[0], c.size), dtype=complex)
    for lo in range(0, nodes.size, _PRODUCT_DEPTH):
        y = nodes[lo:lo + _PRODUCT_DEPTH]
        e = (np.exp(np.outer(y, c[0, 0] - c[:, 0]))[:, :, None]
             * np.exp(np.outer(y, -c[0]))[:, None, :])
        out += ezw[:, lo:lo + _PRODUCT_DEPTH] @ e.reshape(y.size, c.size)
    return out[:rows]


def _gamma_ratio_params(m: ClosedFormMeasure):
    """(a, rho) of a gamma-ratio kind, rho = 0 for the plus kind."""
    return (m.params[0], 0.0) if m.kind == "gamma-ratio-plus" else m.params


def _ratio_constant(a, rho):
    """Gamma(rho + a) / Gamma(rho), the ratio at z = 0 (0 for rho = 0)."""
    if rho == 0.0:
        return 0.0
    return math.exp(math.lgamma(rho + a) - math.lgamma(rho))


def eval_phi(phi: BernsteinFunction, z):
    """Evaluate phi on the closed right half-plane (vectorized).

    Raises DomainError if any Re z < 0.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < -_RE_TOL):
        raise DomainError("phi is only defined for Re z >= 0")
    return phi.phi0 + phi.drift * z + _measure_integral(phi.measure, z)


def _ratio_form(phi: BernsteinFunction):
    """(a, rho) when phi is the gamma ratio Gamma(rho + a + a z) /
    Gamma(rho + a z) itself, None otherwise: a gamma-ratio measure with no
    drift and phi(0) within 4 ulp of the ratio's constant, as `families`
    builds both kinds and as Gamma(rho + a) / Gamma(rho) rounds however it
    is formed."""
    m = phi.measure
    if (isinstance(m, ClosedFormMeasure) and m.kind != "stable"
            and phi.drift == 0.0):
        a, rho = _gamma_ratio_params(m)
        const = _ratio_constant(a, rho)
        if abs(phi.phi0 - const) <= 4 * math.ulp(const):
            return a, rho
    return None


def _w_form(phi: BernsteinFunction):
    """(p, a, b, lam) when W has the log-Gamma closed form

        log W(z) = p (log Gamma(a z + b) - log Gamma(a + b)) + lam (z - 1),

    None otherwise (Patie and Savov, Electron. J. Probab. 2018).  Four
    cases: phi0 + drift z with no measure, W = d^{z-1} Gamma(z + phi0/d) /
    Gamma(1 + phi0/d) with d the drift, and W = phi0^{z-1} for d = 0; a
    gamma ratio itself (`_ratio_form`), W = Gamma(rho + a z) /
    Gamma(rho + a); and a pure stable z^beta, W = Gamma^beta."""
    m = phi.measure
    if m is None:
        if phi.drift == 0.0:
            return 0.0, 1.0, 0.0, math.log(phi.phi0)
        return 1.0, 1.0, phi.phi0 / phi.drift, math.log(phi.drift)
    ratio = _ratio_form(phi)
    if ratio is not None:
        return 1.0, ratio[0], ratio[1], 0.0
    if (isinstance(m, ClosedFormMeasure) and m.kind == "stable"
            and phi.phi0 == 0.0 and phi.drift == 0.0):
        return m.params[0], 1.0, 0.0, 0.0
    return None


def _log_phi(phi: BernsteinFunction, z, c=None):
    """log phi(z) for a complex array z with Re z >= 0 (z != 0 for a gamma
    ratio with rho = 0); given offsets c, the (len(z), c.size) matrix
    log phi(z_i + c_j) for a 1-d z, the offsets in c.ravel() order (a 2-d
    c is an outer sum, `_measure_integral`).  The one log of phi that the W
    evaluator and theta_integral take.

    A gamma ratio (`_ratio_form`) returns `log_gamma_ratio` directly, with
    no exp and no log; everything else takes the log of phi(0) + drift z
    plus `_measure_integral`.  Logs are `special._log`'s, real ufuncs only.
    """
    zc = z if c is None else z[:, None] + np.ravel(c)
    ratio = _ratio_form(phi)
    if ratio is None:
        return _log(phi.phi0 + phi.drift * zc
                    + _measure_integral(phi.measure, z, c))
    a, rho = ratio
    return log_gamma_ratio(rho + a * zc, a)


_STEP = 1e-30  # the complex step of phi_derivative


def phi_derivative(phi: BernsteinFunction, u):
    """phi'(u) for u >= 0 by the complex step Im phi(u + ih) / h, h = 1e-30
    (Squire and Trapp, SIAM Rev. 1998).

    phi is real on the real axis and analytic about it, so the step takes
    no difference and loses no digits: phi' comes out as accurate as phi
    itself, for every descriptor from its phi alone.  For atoms and
    tabulated densities it is drift plus the Laplace sum of w y e^{-uy}
    over the nodes with u y <= 40, plus the head below the table: the
    dropped nodes hold at most 40 e^{-40} nu_mass / u of phi'(u), nu_mass
    their weight, and the mass beyond the last node is a constant of phi.
    At u = 0 that is drift plus the first moment of nu over the nodes, so
    phi'(0+) adds the moment beyond them: math.inf for a stable measure
    and for a table's power tail with exponent a1 <= 1, the tail's
    c1 Y^{1-a1} / (a1 - 1) beyond the nodes' end Y otherwise.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0):
        raise DomainError("phi' is evaluated on [0, inf) only")
    out = eval_phi(phi, u_arr + 1j * _STEP).imag / _STEP
    return np.where(u_arr == 0, out + _moment_beyond(phi.measure), out)


def _moment_beyond(measure) -> float:
    """The first moment of nu that the Laplace sum at z = 0 leaves out."""
    if isinstance(measure, ClosedFormMeasure) and measure.kind == "stable":
        return math.inf
    if not isinstance(measure, DensityMeasure):
        return 0.0
    r = _measure_rule(measure)
    if r.rem == 0.0:
        return 0.0
    # the tail c1 y^{-1-a1} beyond Y, rem = c1 Y^{-a1} / a1
    a1 = measure.tail_exponent_inf
    if a1 <= 1.0:
        return math.inf
    c1 = measure.density[-1] * measure.y[-1] ** (1.0 + a1)
    return r.rem * a1 / (a1 - 1.0) * (c1 / (a1 * r.rem)) ** (1.0 / a1)


def _tails(phi: BernsteinFunction) -> tuple:
    """(nu_bar(0+), rv_index, quasi_monotone, mass_m) of phi, read off its
    measure: the tail facts of the spectrum tables and of the power form of
    `asymptotic_magnitude` (Patie and Savov, Electron. J. Probab. 2018).

    nu_bar(0+) = nu((0, inf)) is math.inf for the closed forms and for a
    table whose head c0 y^{-1-a0} has a0 >= 0 and c0 > 0, else the total
    mass (atoms summed in their given order).  rv_index is the index of
    regular variation of nu_bar at 0 when it lies in (0, 1), the first
    parameter of a closed form; quasi_monotone is True for the closed forms
    and None (unknown) for a table.  mass_m = phi(0) + nu_bar(0+) when the
    activity is finite, None otherwise.
    """
    m = phi.measure
    rv = qm = None
    if m is None:
        nu_bar = 0.0
    elif isinstance(m, AtomMeasure):
        nu_bar = sum(mass for _, mass in m.atoms)
    elif isinstance(m, ClosedFormMeasure):
        nu_bar, rv, qm = math.inf, m.params[0], True
    elif m.tail_exponent_zero >= 0.0 and m.density[0] > 0.0:
        nu_bar = math.inf
        if m.tail_exponent_zero > 0.0:
            rv = m.tail_exponent_zero
    else:
        # the nodes' weights, the mass beyond them and the head's
        # c0 y_min^{-a0} / (-a0)
        r = _measure_rule(m)
        head = r.c0 * r.y_min ** -r.a0 / -r.a0 if r.c0 > 0.0 else 0.0
        nu_bar = float(np.sum(r.weights)) + r.rem + head
    mass_m = phi.phi0 + nu_bar if nu_bar < math.inf else None
    return nu_bar, rv, qm, mass_m


# ---------------------------------------------------------------------------
# Bernstein-gamma evaluator
# ---------------------------------------------------------------------------

_VALIDATION_Z = (np.array([0.5, 1.0, 2.0])[:, None]
                 + 1j * np.array([0.0, 1.0, 3.0, 10.0, 30.0])).ravel()
_HORIZON_FRACTIONS = (0.97, 0.99, 0.999)
_K = 16
_CIRCLE_N = 20
_SIDE_N = 16
_NEAR = 8  # k0: the shifts z + k with k < k0 are taken per point
_PANEL_L = 8.0  # length of the panels on each vertical line
_CHEB_N = 28  # Chebyshev points per panel
# B_2j / (2j)! for j = 1..6
_EM_COEF = tuple(n / (d * math.factorial(2 * j))
                 for j, (n, d) in enumerate(BERNOULLI[2:13:2], 1))
_BLOCK = 1024  # points per block of log phi evaluations


def _barycentric(x, nodes, weights):
    """The (len(x), len(nodes)) matrix whose row i, applied to values at
    the nodes, gives their interpolant at x_i by the second barycentric
    formula (Berrut and Trefethen, SIAM Rev. 2004); where x_i is a node,
    the row picks that node's value."""
    d = x[:, None] - nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        q = weights / d
        q /= q.sum(axis=1, keepdims=True)
    hit = d == 0.0
    rows = hit.any(axis=1)
    q[rows] = hit[rows]
    return q


@functools.lru_cache(maxsize=4)
def _chebyshev_rule(n):
    """The panel rule on [0, 1]: the n Chebyshev points of the second kind
    x_i = (1 - cos(pi i / (n - 1))) / 2, ascending from 0 to 1, their
    barycentric weights (-1)^i (halved at both ends), the (n, n) matrix S
    whose row i maps values at the points to the integral of their
    interpolant over [0, x_i], and its last row, the Clenshaw-Curtis
    weights, in np.longdouble; read-only and shared between calls.

    S comes from the Chebyshev coefficients in np.longdouble, with
    T_k(2 x_i - 1) = (-1)^k cos(k theta_i): rounded to float64 the weights
    sum to 1 + 1e-16, and that bias would grow with the height of a line,
    to 1e-13 at Im z = 214 for log W of the drift.
    """
    m = n - 1
    theta = np.arange(n) * (np.arccos(np.longdouble(-1.0)) / m)
    k = np.arange(n + 1)[:, None]
    cheb = (-1.0) ** k * np.cos(k * theta)  # T_k at the points, k = 0..n
    half = np.ones(n)
    half[[0, -1]] = 0.5
    coef = np.longdouble(2.0) / m * half[:, None] * cheb[:n] * half
    # integral_{-1}^{s_i} T_k: T_1 + 1, (T_2 - 1) / 4, then the recurrence
    edge = (-1.0) ** k
    integ = np.empty((n, n), dtype=np.longdouble)
    integ[0] = cheb[1] + 1.0
    integ[1] = (cheb[2] - 1.0) / 4.0
    j = np.arange(2, n)[:, None]
    integ[2:] = ((cheb[3:] - edge[3:]) / (2.0 * (j + 1))
                 - (cheb[1:n - 1] - edge[1:n - 1]) / (2.0 * (j - 1)))
    s = 0.5 * integ.T @ coef
    x = ((1.0 - np.cos(theta)) / 2.0).astype(float)
    w = (-1.0) ** np.arange(n)
    w[[0, -1]] *= 0.5
    rule = (x, w, s.astype(float), s[-1].copy())
    for a in rule:
        a.flags.writeable = False
    return rule


class BernsteinGammaEvaluator:
    """Evaluates W on the closed right half-plane in log space.

    The construction is the Stirling-type representation of W (Patie and
    Savov, Electron. J. Probab. 2018) with L = log phi:

        log W(z) = -gamma_hat z - L(z)
                   + sum_{k=1}^{K} f_z(k) + sum_{k>K} f_z(k),
        f_z(u) = L(u) - L(u+z) + z L'(u),

    where gamma_hat = lim_n (sum_{k<=n} L'(k) - L(n)).  The tail sum is
    taken by Euler-Maclaurin to order B_12:

        sum_{k>K} f_z(k) = integral_K^{K+z} L - z L(K) - f_z(K)/2
                           - sum_{j=1}^{6} B_2j/(2j)! f_z^(2j-1)(K),
        f_z^(m)(K) = L^(m)(K) - L^(m)(K+z) + z L^(m+1)(K).

    The terms linear in z (gamma_hat z, z L'(k), z L(K) and the
    z L^(2j)(K)) cancel: Euler-Maclaurin on the series of gamma_hat leaves
    a z-linear B_14 remainder that cancels the one inside f_z.  So W needs
    phi alone, never phi', W(1) = 1 holds by construction, to rounding (no
    slope is fitted), and the error does not grow with |z|: it is the
    Euler-Maclaurin remainders of L and of L(. + z), about
    2 (2p - 2)! / ((2 pi)^{2p} K^{2p-1}) = 1.4e-18 at p = 7, K = 16.  The
    odd derivatives of L at K (once, at build) and at K+z (per point) come
    from the trapezoid rule on _CIRCLE_N = 20 nodes of a circle of radius
    r = K/6; L is analytic on Re > 0, a disk of radius R >= K about each
    centre, so the rule's aliasing is (r/R)^20 <= 6^-20 = 3e-16 for every
    measure.

    The segment integral runs K -> K + Re z (_SIDE_N Gauss-Legendre nodes
    in log u) -> K + z.  The points with the same Re z = a form a line,
    cut on |Im z| into fixed panels [j l, (j + 1) l] of length
    l = _PANEL_L = 8, whatever points a call asks for (conjugate symmetry
    for Im z < 0).  Every panel below the highest point takes L(K + a + is)
    at its n = _CHEB_N = 28 Chebyshev points, and the vertical leg to a
    point is the integral of the interpolant of those values: over whole
    panels (Clenshaw-Curtis, weights and sums in np.longdouble), cumulated
    and added last in np.clongdouble, and over the point's own panel up to
    the point.  The error of the
    interpolant of a function analytic in the strip |Re s| < b about a
    panel is 4 M rho^{1-n} / (rho - 1) (Trefethen, Approximation Theory
    and Approximation Practice, Thm 8.2), M its modulus on the Bernstein
    ellipse rho < beta + sqrt(1 + beta^2), beta = 2 b / l.  For the leg
    b = K + a, rho = 8.1 and rho^{1-n} = 3e-25: it is exact to rounding.

    A point's terms split in two.  The near ones, L(z) and the L(z + k)
    with k < k0 = _NEAR = 8, are taken per point.  The far ones, the
    L(z + k) with k0 <= k <= K, L(z + K)/2 and the Euler-Maclaurin circle,
    are analytic in the strip of half-width b = k0 + a about the line: on
    a panel that holds at least n points they are interpolated, with the
    partial leg, from their values at the Chebyshev points (the second
    barycentric formula, Berrut and Trefethen, SIAM Rev. 2004), at the
    rate rho = 4.47 at a = 1/2 (4 rho^{1-n} / (rho - 1) = 3e-18), 4.24 at
    a = 0 (1.5e-17).  The points of a panel that holds fewer take the far
    terms directly, since n nodes cost what n points do.  So a point costs
    k0 = 8 evaluations of log phi plus its share of the n (K - k0 + 21) =
    812 of its panel (18.7 in all on the half line of a 4096-point
    multiplier grid: 2049 points, 27 panels), or K + _CIRCLE_N + 1 = 37
    on a sparse line, where each panel it crosses adds n.

    Every log phi goes through `_log_phi` (a gamma ratio's log comes
    straight from `log_gamma_ratio`, with no exp and log round trip):
    points with their columns, panels as their base a + i j l with the
    Chebyshev points as offsets (times the far columns on an interpolated
    panel, as the 2-d outer sum of the two), so that a tabulated density
    takes one exp row per panel and one matrix product, whose e^{-yc} over
    the 28 x 29 offsets of a dense panel costs 57 exps per node.  Points
    go through in blocks of _BLOCK = 1024, panels in blocks of as many
    evaluations (_BLOCK times the 37 columns of a point), so an
    elementwise pass writes about 0.6 MB.  A point's bits do not depend on
    its block: every sum along a row is a NumPy row reduction, and the one
    matrix product, that of atoms and tables, is `_laplace_product`'s,
    whose bits depend neither on the number of rows nor on the BLAS
    thread count.  The build batches its log phi calls:
    the K integers come from the columns of z = 1, all real legs go in one
    call, all panels in one per block, and the validation and horizon
    points with their +1 shifts in one _log_w_raw.

    tol and zmax must lie in (0, inf), else DomainError.  K = 16 is
    `truncation`.  The functional-equation residuals on the
    validation grid (|Im z| <= 30) and at a few points on Re z = 1/2 near
    Im z = zmax are `residual` and `horizon_residual`, and `residual` also
    covers the normalization |log W(1)|; a ConvergenceError is raised when
    either misses tol (a larger K does not lower them).  All caches are
    computed here, so the evaluator is immutable and safe to share between
    threads.

    This is the evaluator for atoms, tables and mixed factors;
    `default_evaluator` serves a factor with a log-Gamma closed form
    (`_w_form`) by a subclass that keeps this construction and `log_w`
    and replaces only the tables and `_log_w_raw`.
    """

    def __init__(self, phi: BernsteinFunction, tol: float = 1e-10,
                 zmax: float = 300.0):
        if not (0.0 < tol < math.inf and 0.0 < zmax < math.inf):
            raise DomainError("tol and zmax must be positive and finite")
        self.phi = phi
        self.tol = float(tol)
        self.zmax = float(zmax)
        self._build_tables()
        self.truncation = _K
        z = _VALIDATION_Z[np.abs(_VALIDATION_Z) + 1.0 <= self.zmax]
        xi = self.zmax * np.array(_HORIZON_FRACTIONS)
        self.residual, self.horizon_residual = self._fe_residuals(
            z, 0.5 + 1j * xi)
        if not (self.residual <= tol and self.horizon_residual <= tol):
            raise ConvergenceError(
                f"functional-equation residual {self.residual:.3e} "
                f"(validation), {self.horizon_residual:.3e} (horizon) > tol "
                f"{tol:.3e} at K = {_K}")

    # -- construction helpers -------------------------------------------

    def _build_tables(self):
        # L^(m)(c) = m!/(N r^m) sum_n L(c + r w^n) w^{-mn}, w = e^{2 pi i/N};
        # em_odd folds in B_2j/(2j)! for m = 2j-1
        r = _K / 6.0
        circle = r * np.exp(2j * np.pi * np.arange(_CIRCLE_N) / _CIRCLE_N)
        self._em_odd = sum(coef * math.factorial(2 * j - 1) / _CIRCLE_N
                           * circle ** (1 - 2 * j)
                           for j, coef in enumerate(_EM_COEF, 1))
        # the columns of a point: the near ones, z + k for k < k0 and z
        # itself, then the far ones, z + k for k0 <= k <= K and the circle
        # about z + K
        self._offsets = np.concatenate(
            [np.arange(1, _NEAR), [0.0], np.arange(_NEAR, _K + 1),
             _K + circle])
        with np.errstate(divide="ignore"):
            row = _log_phi(self.phi, np.ones(1, dtype=complex),
                           self._offsets)[0]
        # L(1..K) from the columns of z = 1 (c = 0 and c = 1..K-1), so that
        # in log W(1) each L(k) cancels against its own bits, whatever the
        # rounding of the Laplace product of atoms and tables
        lk = np.concatenate([row[_NEAR - 1:_NEAR], row[:_NEAR - 1],
                             row[_NEAR:_K]])
        if not np.all(np.isfinite(lk.real) & (lk.imag == 0)):
            raise DomainError("phi must be strictly positive on [1, K]")
        self._log_phik = lk.real
        # the constant term; the terms linear in z cancel (class docstring)
        self._const = float(-0.5 * self._log_phik[-1]
                            - (_log_phi(self.phi, _K + circle)
                               @ self._em_odd).real)

    def _near_terms(self, lv):
        """sum_{k < k0} (L(k) - L(z + k)) - L(z) from the near columns."""
        return (np.sum(self._log_phik[:_NEAR - 1] - lv[:, :_NEAR - 1], axis=1)
                - lv[:, _NEAR - 1])

    def _far_terms(self, lv):
        """sum_{k0 <= k <= K} (L(k) - L(z + k)) + L(z + K)/2 and the
        Euler-Maclaurin terms from the far columns."""
        shifted, circle = lv[:, :_K - _NEAR + 1], lv[:, _K - _NEAR + 1:]
        return (np.sum(self._log_phik[_NEAR - 1:] - shifted, axis=1)
                + 0.5 * shifted[:, -1] + (circle * self._em_odd).sum(axis=1))

    def _log_w_raw(self, z):
        """log W for a 1-d array z, line by line (class docstring)."""
        ell = _PANEL_L
        nodes, weights, integ, cc = _chebyshev_rule(_CHEB_N)
        n = nodes.size
        t = np.abs(z.imag)
        re, line = np.unique(z.real, return_inverse=True)
        top = np.zeros(re.size)
        np.maximum.at(top, line, t)
        npan = np.ceil(top / ell).astype(int)
        first = np.cumsum(npan) - npan
        # the panel (j l, (j + 1) l] of each point, [0, l] for j = 0, as an
        # index into all lines' panels
        local = np.maximum(np.ceil(t / ell).astype(int) - 1, 0)
        lined = npan[line] > 0
        pan = np.where(lined, first[line] + local, 0)
        dense = np.bincount(pan[lined], minlength=npan.sum()) >= n
        interp = lined & dense[pan] if dense.size else lined
        pline = np.repeat(np.arange(re.size), npan)
        base = re[pline] + 1j * ell * (np.arange(pline.size) - first[pline])

        gx, gw = gauss_legendre(_SIDE_N)
        u_t = np.log1p(re / _K)[:, None]  # the real leg, in t = log(u/K)
        u = _K * np.exp(u_t * gx[None, :])
        out = self._const + np.sum(_log_phi(self.phi, u) * u * u_t * gw,
                                   axis=1)[line]
        v = np.empty((pline.size, n), dtype=complex)
        g = np.zeros((pline.size, n), dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            # the panels: L(K + a + is) at the Chebyshev points, and the far
            # terms there where they are interpolated (offsets (n, far))
            for idx, cols, k in (
                    (np.flatnonzero(dense),
                     (1j * ell * nodes)[:, None] + self._offsets[_NEAR:],
                     _K - _NEAR),
                    (np.flatnonzero(~dense), _K + 1j * ell * nodes, 0)):
                rows = max(1, _BLOCK * self._offsets.size // cols.size)
                for lo in range(0, idx.size, rows):
                    i = idx[lo:lo + rows]
                    lv = _log_phi(self.phi, base[i], cols).reshape(
                        i.size * n, -1)
                    v[i] = lv[:, k].reshape(i.size, n)
                    if k:
                        g[i] = self._far_terms(lv).reshape(i.size, n)
            # the points: near terms, and far terms where not interpolated;
            # lv stays alive until the next block's exists: freed first, it
            # lets malloc trim the heap, and every block's temporaries
            # page-fault afresh (15k faults against 2.4k on 16385 points)
            for idx, cols in ((np.flatnonzero(~interp), self._offsets),
                              (np.flatnonzero(interp),
                               self._offsets[:_NEAR])):
                for lo in range(0, idx.size, _BLOCK):
                    i = idx[lo:lo + _BLOCK]
                    lv = _log_phi(self.phi, z[i], cols)
                    out[i] += self._near_terms(lv)
                    if cols.size > _NEAR:
                        out[i] += self._far_terms(lv[:, _NEAR:])
            # each point's own panel: the far terms and the leg from the
            # panel's start, at the Chebyshev points, interpolated
            idx = np.flatnonzero(lined)
            x = t / ell - local
            for lo in range(0, idx.size, _BLOCK):
                i = idx[lo:lo + _BLOCK]
                held, at = np.unique(pan[i], return_inverse=True)
                vh, h = v[held], g[held]
                for j, row in enumerate(integ):
                    h[:, j] += 1j * (ell * np.sum(vh * row, axis=1))
                s = np.sum(_barycentric(x[i], nodes, weights) * h[at], axis=1)
                out[i] += np.where(z.imag[i] < 0, np.conj(s), s)
        whole = ell * np.sum(v.astype(np.clongdouble) * cc, axis=1)
        # the whole panels below each point, added last in extended precision
        cum = np.zeros(pline.size, dtype=np.clongdouble)
        for lo, m in zip(first, npan):
            cum[lo + 1:lo + m] = np.cumsum(whole[lo:lo + m - 1])
        lw = out.astype(np.clongdouble)
        leg = 1j * cum[pan[lined]]
        lw[lined] += np.where(z.imag[lined] < 0, np.conj(leg), leg)
        return lw.astype(complex)

    def _fe_residuals(self, *groups):
        """max |1 - phi(z) W(z) / W(z+1)| over each group of points z, and
        |log W(1)| (normalization) at z = 1, all from one _log_w_raw call."""
        z = np.concatenate(groups)
        lw = self._log_w_raw(np.concatenate([z, z + 1.0]))
        err = np.abs(1.0 - np.exp(_log_phi(self.phi, z) + lw[:z.size]
                                  - lw[z.size:]))
        err = np.where(z == 1.0, np.maximum(err, np.abs(lw[:z.size])), err)
        ends = np.cumsum([g.size for g in groups])
        return tuple(float(np.max(e)) for e in np.split(err, ends[:-1]))

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


class _ClosedFormEvaluator(BernsteinGammaEvaluator):
    """W of a factor with a log-Gamma closed form (`_w_form`): one
    `log_gamma` per point, about 0.35 us, where the line evaluator takes
    about 19 log phi evaluations.  No tables are built; construction still
    checks the functional equation against `_log_phi` on the validation
    grid and at the horizon, and `log_w` still checks Re z >= 0, zmax and
    the boundary pole."""

    def _build_tables(self):
        self._form = _w_form(self.phi)
        p, a, b, _ = self._form
        self._log_gamma_1 = math.lgamma(a + b) if p else 0.0

    def _log_w_raw(self, z):
        p, a, b, lam = self._form
        out = lam * (z - 1.0)
        if p:
            out = out + p * (log_gamma(a * z + b) - self._log_gamma_1)
        return out


@functools.lru_cache(maxsize=32)
def default_evaluator(phi: BernsteinFunction, tol: float = 1e-10,
                      zmax: float = 300.0) -> BernsteinGammaEvaluator:
    """Shared evaluator cache; BernsteinFunction is frozen, hence hashable.

    A factor whose W has a log-Gamma closed form (drift and affine factors,
    a constant, a gamma ratio itself, a pure stable z^beta: `_w_form`) gets
    the closed-form evaluator, every other factor the line evaluator."""
    cls = (BernsteinGammaEvaluator if _w_form(phi) is None
           else _ClosedFormEvaluator)
    return cls(phi, tol=tol, zmax=zmax)


# ---------------------------------------------------------------------------
# oscillation functionals Theta
# ---------------------------------------------------------------------------

_THETA_MAX_PANELS = 1 << 22


def _vertical_pass(phi, a, edges, rule):
    """log phi(a + i t) at the nodes of the Gauss-Legendre rule (nodes,
    weights on [0, 1]) on each panel between the ascending edges, and the
    integrals of log phi(a + i t) dt from edges[0] to every edge, summed in
    np.clongdouble.  The nodes go through _log_phi _BLOCK points at a
    time."""
    gx, gw = rule
    w = np.diff(edges)
    z = a + 1j * (edges[:-1, None] + w[:, None] * gx[None, :]).ravel()
    lv = np.empty(z.shape, dtype=complex)
    for lo in range(0, z.size, _BLOCK):
        lv[lo:lo + _BLOCK] = _log_phi(phi, z[lo:lo + _BLOCK])
    lv = lv.reshape(w.size, gx.size)
    panels = ((lv @ gw) * w).astype(np.clongdouble)
    return lv, np.concatenate([np.zeros(1, np.clongdouble), np.cumsum(panels)])


def theta_integral(phi: BernsteinFunction, a: float, xi):
    """integral_0^xi arg phi(a + i w) dw for a scalar xi or a 1-d array of
    xi, all from one pass over [0, max xi].  It accepts 0 < a < inf and
    0 <= xi < inf and raises DomainError otherwise.

    The interval is cut at every xi and each piece into Gauss-Legendre
    panels for the W evaluator's vertical-line pass (arg phi = Im log phi),
    halved until the cumulative totals of two successive passes agree to
    1e-10 at every xi.  Since Re phi(a + iw) >= phi(a) > 0, the principal
    argument is already continuous; a jump above pi/2 between adjacent
    nodes therefore only ever signals an unresolved quadrature, triggers
    halving and, once _THETA_MAX_PANELS runs out, ConvergenceError.
    """
    if not 0.0 < a < math.inf:
        raise DomainError("theta_integral needs 0 < a < inf")
    xs = np.asarray(xi, dtype=float)
    if xs.ndim > 1 or not np.all((0.0 <= xs) & (xs < np.inf)):
        raise DomainError("theta_integral needs 0 <= xi < inf, a scalar or "
                          "1-d")
    pos = xs > 0
    # the inverse indexes the totals; np.unique with no optional output
    # imports numpy.ma (np.ma.is_masked) on NumPy 2.4
    ends, at = np.unique(xs[pos], return_inverse=True)
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
                    np.abs(total - prev) <= 1e-10 * (1.0 + np.abs(total))):
                break
            prev = total
        npan = 2 * npan
        if np.sum(npan) > _THETA_MAX_PANELS:
            raise ConvergenceError("theta_integral did not converge")
    out = np.zeros(xs.shape)
    out[pos] = total[at]
    return float(out) if xs.ndim == 0 else out


def theta_limits(phi: BernsteinFunction, xi_max: float) -> tuple:
    """(min, max) of Theta_phi(1/2, xi) = theta_integral(phi, 1/2, xi) / xi
    over the two samples xi = xi_max / 2 and xi = xi_max.

    Theta is always confined to [0, pi/2]; the pair brackets the
    liminf/limsup at the top of the frequency range, and `classify` takes
    half its spread as the error bar of its Theta-gap test.  It accepts
    0 < xi_max < inf and raises DomainError otherwise.
    """
    if not 0.0 < xi_max < math.inf:
        raise DomainError("theta_limits needs 0 < xi_max < inf")
    xis = xi_max * np.array([0.5, 1.0])
    th = theta_integral(phi, 0.5, xis) / xis
    return float(np.min(th)), float(np.max(th))


def asymptotic_magnitude(phi: BernsteinFunction, a: float, xi: float,
                         form: str = "theta") -> float:
    """Estimate of |W(a + i xi)| along the vertical line Re = a.

    form="theta": sqrt(phi(a)) W(a) / sqrt(|phi(a+i xi)|) * e^{-Theta-area},
    where the area is integral_0^{|xi|} arg phi(a + iw) dw.
    form="power": with drift d > 0 and finite activity, the power-law shape
    c |xi|^{a + m/d - 1/2} e^{-pi |xi| / 2}, m = phi(0) + nu_bar(0+) read
    off the measure (`_tails`), c = sqrt(phi(a)) W(a).
    """
    if not (0.0 < a < math.inf and math.isfinite(xi)):
        raise DomainError("asymptotic_magnitude needs 0 < a < inf and a "
                          "finite xi")
    axi = abs(xi)
    wa = float(default_evaluator(phi).w(complex(a, 0.0)).real)
    pa = float(eval_phi(phi, a).real)
    if form == "theta":
        area = theta_integral(phi, a, axi)
        mag = np.sqrt(pa) * wa / np.sqrt(abs(eval_phi(phi, complex(a, axi))))
        return float(mag * np.exp(-area))
    if form == "power":
        mass_m = _tails(phi)[3]
        if mass_m is None or phi.drift <= 0:
            raise DomainError("power form needs drift > 0 and finite "
                              "activity nu_bar(0+)")
        expo = a + mass_m / phi.drift - 0.5
        return float(np.sqrt(pa) * wa * axi ** expo * np.exp(-0.5 * np.pi * axi))
    raise DomainError(f"unknown form {form!r}")
