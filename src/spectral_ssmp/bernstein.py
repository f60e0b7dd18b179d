"""Bernstein functions and their Bernstein-gamma functions.

A Bernstein function is represented by the triplet (phi(0), drift, measure)
so that

    phi(z) = phi(0) + drift * z + integral_0^inf (1 - e^{-z y}) nu(dy),

valid on the closed right half-plane.  The associated Bernstein-gamma
function W is the unique Mellin-transform-of-a-positive-random-variable
solution of

    W(z + 1) = phi(z) W(z),   W(1) = 1,

and is evaluated here by a truncated Weierstrass-type product in log space
with an integral tail correction.  The evaluator is specified by its
contracts (functional equation, normalization, conjugate symmetry,
zero-freeness), which are checked at construction.
"""

from __future__ import annotations

import functools
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
from .special import digamma, gauss_legendre, log_gamma

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
    """Gauss nodes y_q, weights w_q*nu(y_q), and the constant remainder mass.

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
    total = np.zeros_like(zy)
    term = np.ones_like(zy)
    for k in range(1, 30):
        term = term * (-zy) / k
        total = total - term / (k - a0)
    return c0 * y0 ** (-a0) * total


def _density_integral(meas: DensityMeasure, z):
    nodes, wts, rem = _density_nodes(meas)
    z = np.asarray(z, dtype=complex)
    core = np.sum(wts) + rem - np.exp(-z[..., None] * nodes) @ wts
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
    if isinstance(measure, ClosedFormMeasure):
        return _closed_form_integral(measure, z)
    if isinstance(measure, DensityMeasure):
        return _density_integral(measure, z)
    raise DomainError(f"unknown measure descriptor {type(measure)!r}")


def _closed_form_integral(measure: ClosedFormMeasure, z):
    kind, p = measure.kind, measure.params
    z = np.asarray(z, dtype=complex)
    if kind == "stable":
        beta = p[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(beta * np.log(z))
        return np.where(z == 0, 0.0, out)
    if kind == "gamma-ratio-plus":
        at = p[0]
        safe = np.where(z == 0, 1.0, z)
        out = np.exp(log_gamma(at * (1.0 + safe)) - log_gamma(at * safe))
        return np.where(z == 0, 0.0, out)
    if kind == "gamma-ratio-minus":
        a, rho = p
        val = np.exp(log_gamma(rho + a + a * z) - log_gamma(rho + a * z))
        return val - np.exp(log_gamma(rho + a) - log_gamma(rho))
    raise DomainError(kind)


def eval_phi(phi: BernsteinFunction, z):
    """Evaluate phi on the closed right half-plane (vectorized).

    Raises DomainError if any Re z < 0.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < -_RE_TOL):
        raise DomainError("phi is only defined for Re z >= 0")
    return phi.phi0 + phi.drift * z + _measure_integral(phi.measure, z)


def _phi_on_shifted(phi: BernsteinFunction, z, k):
    """phi(z_i + k_j) as a (len(z), len(k)) matrix.

    For tabulated densities the Laplace kernel factorizes,
    e^{-(z+k)y} = e^{-zy} e^{-ky}, so the whole matrix costs one
    matrix product instead of a quadrature per (i, j) pair.
    """
    z = np.asarray(z, dtype=complex).ravel()
    k = np.asarray(k, dtype=float).ravel()
    if isinstance(phi.measure, DensityMeasure):
        nodes, wts, rem = _density_nodes(phi.measure)
        zk = z[:, None] + k[None, :]
        ezw = np.exp(-np.outer(z, nodes)) * wts          # (Nz, Q)
        base = np.sum(wts) + rem + _density_small_tail(phi.measure, zk)
        out = np.empty(zk.shape, dtype=complex)
        chunk = max(256, int(4e6 // max(1, nodes.size)))
        for lo in range(0, k.size, chunk):
            ek = np.exp(-np.outer(nodes, k[lo:lo + chunk]))
            out[:, lo:lo + chunk] = -(ezw @ ek)
        out += base
        return phi.phi0 + phi.drift * zk + out
    return eval_phi(phi, z[:, None] + k[None, :])


def phi_derivative(phi: BernsteinFunction, u):
    """phi'(u) for u > 0.

    Uses the user-supplied analytic derivative when present, an analytic
    formula for built-in descriptors otherwise, and central finite
    differences with step 1e-6 * max(1, u) as a last resort.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0):
        raise DomainError("phi' is evaluated on (0, inf) only")
    if phi.derivative is not None:
        return phi.derivative(u)
    m = phi.measure
    if m is None:
        out = np.full(u_arr.shape, float(phi.drift))
        return out if u_arr.shape else float(phi.drift)
    if isinstance(m, AtomMeasure):
        out = np.full(u_arr.shape if u_arr.shape else (), float(phi.drift))
        for y, mass in m.atoms:
            out = out + mass * y * np.exp(-u_arr * y)
        return out
    if isinstance(m, ClosedFormMeasure):
        return _closed_form_derivative(phi, m, u_arr)
    if isinstance(m, DensityMeasure):
        nodes, wts, _ = _density_nodes(m)
        core = np.exp(-u_arr[..., None] * nodes) @ (wts * nodes)
        y0, _, a0, _, c0, _ = _tail_consts(m)
        small = np.zeros_like(u_arr)
        if c0 > 0:
            zy = u_arr * y0
            term = np.ones_like(u_arr)
            small = small + 1.0 / (1.0 - a0)
            for k in range(1, 24):
                term = term * (-zy) / k
                small = small + term / (k + 1.0 - a0)
            small = c0 * y0 ** (1.0 - a0) * small
        return phi.drift + core + small
    h = 1e-6 * np.maximum(1.0, u_arr)
    return (eval_phi(phi, u_arr + h).real - eval_phi(phi, u_arr - h).real) / (2 * h)


def _closed_form_derivative(phi, m, u):
    kind, p = m.kind, m.params
    if kind == "stable":
        beta = p[0]
        return phi.drift + beta * u ** (beta - 1.0)
    if kind == "gamma-ratio-plus":
        at = p[0]
        val = np.exp(log_gamma(at * (1.0 + u)) - log_gamma(at * u)).real
        return phi.drift + val * at * (digamma(at + at * u) - digamma(at * u)).real
    if kind == "gamma-ratio-minus":
        a, rho = p
        val = np.exp(log_gamma(rho + a + a * u) - log_gamma(rho + a * u)).real
        return phi.drift + val * a * (digamma(rho + a + a * u)
                                      - digamma(rho + a * u)).real
    raise DomainError(kind)


# ---------------------------------------------------------------------------
# Bernstein-gamma evaluator
# ---------------------------------------------------------------------------

_VALIDATION_A = (0.5, 1.0, 2.0)
_VALIDATION_XI = (0.0, 1.0, 3.0, 10.0, 30.0)
_GAUSS_N = 32
_K_MAX = 1 << 17


class BernsteinGammaEvaluator:
    """Evaluates W on the closed right half-plane in log space.

    The construction is

        log W(z) = -gamma_hat z - log phi(z)
                   + sum_{k=1}^{K} [log phi(k) - log phi(k+z) + z phi'(k)/phi(k)]
                   + T(K, z)

    where T is an Euler-Maclaurin tail correction built from the segment
    integral of log phi over [K, K+z], and gamma_hat is fixed by W(1) = 1.
    K adapts (by doubling) until the functional-equation residual on the
    validation grid drops below tol.  All caches are computed here, so the
    evaluator is immutable and safe to share between threads.
    """

    def __init__(self, phi: BernsteinFunction, tol: float = 1e-10,
                 zmax: float = 300.0, k_start: int = 1024):
        if tol <= 0 or zmax <= 0:
            raise DomainError("tol and zmax must be positive")
        self.phi = phi
        self.tol = float(tol)
        self.zmax = float(zmax)
        if float(eval_phi(phi, 1.0).real) <= 0.0:
            raise DomainError("phi(1) must be positive")
        self._gx, self._gw = gauss_legendre(_GAUSS_N)
        # the segment-integral tail stays accurate for K >= |z|/4 (the
        # integrand is analytic with its singularity at the origin), so K
        # need not track the horizon linearly
        k = max(k_start, _next_pow2(int(zmax / 4)))
        while True:
            self._build_tables(k)
            last_res = self._validation_residual()
            if last_res <= tol or k >= _K_MAX:
                break
            k *= 2
        if last_res > tol:
            raise ConvergenceError(
                f"functional-equation residual {last_res:.3e} > tol {tol:.3e} "
                f"at K = {k}")
        self.truncation = k
        self.residual = float(last_res)

    # -- construction helpers -------------------------------------------

    def _build_tables(self, k):
        kk = np.arange(1, k + 1, dtype=float)
        phik = eval_phi(self.phi, kk).real
        if np.any(phik <= 0):
            raise DomainError("phi must be strictly positive on [1, K]")
        self._K = k
        self._gk = np.log(phik)
        self._rk = np.asarray(phi_derivative(self.phi, kk), dtype=float) / phik
        self._sum_g = float(np.sum(self._gk))
        self._sum_r = float(np.sum(self._rk))
        self.gamma_phi = 0.0
        self.gamma_phi = float(self._log_w_raw(np.array([1.0 + 0j]))[0].real)

    def _segment_integral(self, z):
        """integral_K^{K+z} log phi(u) du along the straight segment."""
        pts = self._K + np.multiply.outer(z, self._gx)
        vals = np.log(eval_phi(self.phi, pts))
        return z * (vals @ self._gw)

    def _log_w_raw(self, z):
        """log W before the -gamma_hat * z normalization, z a 1-d array."""
        K = self._K
        out = np.empty(z.shape, dtype=complex)
        chunk = max(1, int(4e6 // K))
        kk = np.arange(1, K + 1, dtype=float)
        for lo in range(0, z.size, chunk):
            zz = z[lo:lo + chunk]
            g_shift = np.log(_phi_on_shifted(self.phi, zz, kk))
            core = self._sum_g - np.sum(g_shift, axis=1) + zz * self._sum_r
            # f_z at K, K-1, K-2 for the Euler-Maclaurin corrections
            f0 = self._gk[K - 1] - g_shift[:, K - 1] + zz * self._rk[K - 1]
            f1 = self._gk[K - 2] - g_shift[:, K - 2] + zz * self._rk[K - 2]
            f2 = self._gk[K - 3] - g_shift[:, K - 3] + zz * self._rk[K - 3]
            fprime = 0.5 * (3.0 * f0 - 4.0 * f1 + f2)
            tail = (self._segment_integral(zz) - zz * self._gk[K - 1]
                    - 0.5 * f0 - fprime / 12.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                head = -np.log(eval_phi(self.phi, zz))
            out[lo:lo + chunk] = head + core + tail
        return out - self.gamma_phi * z

    def _validation_residual(self):
        a = np.array(_VALIDATION_A)
        xi = np.array(_VALIDATION_XI)
        z = (a[:, None] + 1j * xi[None, :]).ravel()
        z = z[np.abs(z) + 1.0 <= self.zmax]
        lw = self._log_w_raw(z)
        lw1 = self._log_w_raw(z + 1.0)
        lphi = np.log(eval_phi(self.phi, z))
        return float(np.max(np.abs(1.0 - np.exp(lphi + lw - lw1))))

    # -- public surface ---------------------------------------------------

    def log_w(self, z):
        """log W(z) for Re z >= 0 (principal determination), vectorized."""
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        flat = np.atleast_1d(z).ravel()
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
        return complex(out[0]) if scalar else out.reshape(z.shape)

    def w(self, z):
        """W(z) itself."""
        return np.exp(self.log_w(z))


def _next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


@functools.lru_cache(maxsize=32)
def default_evaluator(phi: BernsteinFunction, tol: float = 1e-10,
                      zmax: float = 300.0) -> BernsteinGammaEvaluator:
    """Shared evaluator cache; BernsteinFunction is frozen, hence hashable."""
    return BernsteinGammaEvaluator(phi, tol=tol, zmax=zmax)


# ---------------------------------------------------------------------------
# oscillation functionals Theta
# ---------------------------------------------------------------------------

def _arg_phi(phi, a, w):
    vals = eval_phi(phi, a + 1j * np.asarray(w, dtype=float))
    return np.angle(vals)


def theta_integral(phi: BernsteinFunction, a: float, xi: float,
                   tol: float = 1e-10, max_refine: int = 12) -> float:
    """integral_0^xi arg phi(a + i w) dw with continuous branch tracking.

    Since Re phi(a + iw) >= phi(a) > 0, the principal argument is already
    continuous; jumps above pi/2 between adjacent nodes therefore only ever
    signal an unresolved quadrature and trigger panel halving.
    """
    if a <= 0:
        raise DomainError("theta_integral needs a > 0")
    if xi < 0:
        raise DomainError("theta_integral needs xi >= 0")
    if xi == 0.0:
        return 0.0
    xg, wg = gauss_legendre(8)
    npan = max(8, min(int(xi), 4096))
    prev = None
    for _ in range(max_refine):
        edges = np.linspace(0.0, xi, npan + 1)
        nodes = edges[:-1, None] + np.diff(edges)[:, None] * xg[None, :]
        args = _arg_phi(phi, a, nodes.ravel()).reshape(nodes.shape)
        jumps = float(np.max(np.abs(np.diff(args, axis=1)))) if args.shape[1] > 1 else 0.0
        total = float(np.sum((args @ wg) * np.diff(edges)))
        if jumps > 0.5 * np.pi:
            npan *= 2
            if npan > 2 ** 22:
                raise BranchError("arg tracking cannot resolve a branch jump")
            continue
        if prev is not None and abs(total - prev) <= tol * (1.0 + abs(total)):
            return total
        prev = total
        npan *= 2
    raise QuadratureError("theta_integral did not converge")


def theta_samples(phi: BernsteinFunction, xi_values, a: float = 0.5):
    """Theta_phi(|xi|) = (1/xi) * integral_0^xi arg phi(a + iw) dw on an
    increasing grid, sharing the integrand between sample points."""
    xi_values = np.asarray(sorted(xi_values), dtype=float)
    xg, wg = gauss_legendre(8)
    lo = 0.0
    acc = 0.0
    out = []
    for xi in xi_values:
        if xi > lo:
            npan = max(4, min(int(2 * (xi - lo)) + 1, 8192))
            edges = np.linspace(lo, xi, npan + 1)
            nodes = edges[:-1, None] + np.diff(edges)[:, None] * xg[None, :]
            args = _arg_phi(phi, a, nodes.ravel()).reshape(nodes.shape)
            acc += float(np.sum((args @ wg) * np.diff(edges)))
            lo = xi
        out.append(acc / xi if xi > 0 else 0.0)
    return xi_values, np.asarray(out)


def theta_limits(phi: BernsteinFunction, xi_max: float,
                 n_samples: int = 8) -> tuple:
    """Empirical (min, max) of Theta_phi over a geometric grid up to xi_max.

    Theta is always confined to [0, pi/2]; the returned pair brackets the
    liminf/limsup at the resolution of the grid.
    """
    if n_samples < 2:
        raise DomainError("n_samples must be at least 2")
    xis = xi_max * 2.0 ** (-np.arange(n_samples, dtype=float))[::-1]
    _, th = theta_samples(phi, xis)
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
        evaluator = default_evaluator(phi, 1e-7 if isinstance(
            phi.measure, DensityMeasure) else 1e-10)
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
