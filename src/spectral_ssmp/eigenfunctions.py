"""Eigenfunctions and co-eigenfunctions of the evolution semigroups.

Three routes are implemented and cross-validated; each takes the
Wiener-Hopf pair it serves and raises DomainError for any other:

  * `eigenfunction_series`, sum_n (-1)^n e^{nx} / (W(n+1) n!) of phi_minus
    when phi_plus is the unit drift, so psi(xi) = -i xi phi(i xi) (W(n+1) =
    prod phi(k) exactly, by the functional equation);
  * `wright_eigenfunction`, Wright-function closed forms of the gamma
    pairs, in both the e^{x/alpha_tilde} and e^{x/alpha} argument variants
    (the two candidate normalizations; the transform route discriminates);
  * `eigenfunction_fft`, L^2 inversion of the multiplier of a Point pair,
    J(x) = e^{-x/2} (2 pi)^{-1} integral e^{i x xi} m(xi) dxi,
    normalized so that it matches the power series on overlapping families.

The series and the Wright function are summed by one extended-precision
kernel, _paired_sum, one series per grid point and a whole grid at once:
each caller supplies only the log-magnitudes of its terms and its tail
test.  Consecutive terms are paired to exploit the alternation, and when
cancellation would still consume every significant digit a
ConvergenceError is raised rather than returning noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bernstein import BernsteinFunction, _ratio_form, eval_phi
from .errors import ConvergenceError, DomainError, ResolutionError
from .exponents import WienerHopfPair
from .special import log_gamma_long
from .spectrum import classify
from .transform import (
    GridFunction,
    GridSpec,
    SpectrumLine,
    inverse_shifted_fft,
    multiplier_h,
)

_LONG_EPS_DIGITS = float(-np.log10(np.finfo(np.longdouble).eps))


# ---------------------------------------------------------------------------
# power series
# ---------------------------------------------------------------------------

_SERIES_ORDER = 600  # the last n of a coefficient table


@dataclass(frozen=True)
class SeriesEigenfunction:
    """Coefficients c_n = (-1)^n / (W(n+1) n!), n <= _SERIES_ORDER, of phi.

    phi is the minus factor of a pair whose plus factor is the unit drift,
    so psi(xi) = -i xi phi(i xi); W(n+1) = prod_{k<=n} phi(k) exactly.  The
    log-magnitudes are summed in np.longdouble: in float64 a log term of
    size L carries a rounding of L x 1.1e-16 into its term, past what the
    extended-precision sum and its audit account for.
    """

    phi: BernsteinFunction

    def __post_init__(self):
        kk = np.arange(1, _SERIES_ORDER + 1, dtype=float)
        phik = eval_phi(self.phi, kk).real
        if np.any(phik <= 0):
            raise DomainError("phi must be positive on the integers")
        logs = np.log(np.stack([phik, kk]).astype(np.longdouble)).sum(axis=0)
        object.__setattr__(self, "_log_c",
                           -np.cumsum(np.concatenate([[0.0], logs])))
        object.__setattr__(self, "_log_phi1", float(np.log(phik[0])))
        # lgamma(m + 2) = log (m + 1)!, for the tail bound past order m
        object.__setattr__(self, "_log_fact", np.fromiter(
            map(math.lgamma, np.arange(2.0, _SERIES_ORDER + 3.0)), float))


_series_table = functools.lru_cache(maxsize=16)(SeriesEigenfunction)


_FIRST_CHUNK = 32  # terms in a row's first chunk; each later chunk doubles
_CHUNK_CELLS = 8192  # rows x terms of a chunk, or 2 x rows where more


def _paired_sum(log_term, n_terms, tail_ok, alternating, tol, label, points):
    """One series per row, sum_m (+-1)^m e^{log_term(m)}, in extended
    precision, for a batch of rows at once.

    log_term(rows, m) gives the (len(rows), len(m)) log-magnitudes of the
    terms m < n_terms of the given rows.  The terms go in chunks of
    columns, doubling from _FIRST_CHUNK and at most
    max(_CHUNK_CELLS, 2 x live rows) terms in all (a chunk holds at least
    one pair per row), taken only for the rows still live.  Consecutive terms are
    paired, t[2k] + t[2k+1], so for an alternating series the running sum
    stays near the final value rather than near the largest term; the
    running sums are one np.cumsum, which adds in order.  A row stops at
    the first m >= 2 where tail_ok(rows, m, lt, prev, scale) certifies
    its remainder past term m, given the log terms lt at m and prev at
    m - 1 and scale = |partial sum|.  An alternating row is then audited:
    the extended-precision roundoff of its largest term must stay below
    tol relative to the result.  So a row gets the bits of a loop over its
    own terms, whatever the other rows and the chunks.  A ConvergenceError
    names the first failing row, "{label}={points[row]:g}": a term beyond
    the extended-precision range, no stop within n_terms, or a failed audit.
    A NaN, infinite or non-positive tol raises DomainError.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError("the series tol must be positive and finite")
    alternating = np.asarray(alternating, dtype=bool)
    n_rows = alternating.size
    out = np.empty(n_rows)
    total = np.zeros(n_rows, dtype=np.longdouble)
    peak = prev = None
    fail = np.zeros(n_rows, dtype=int)  # 1 overflow, 2 unsettled, 3 audit
    live = np.arange(n_rows)
    lo, width = 0, _FIRST_CHUNK
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size and lo < n_terms:
            width = max(2, min(width, _CHUNK_CELLS // live.size) // 2 * 2)
            m = np.arange(lo, min(lo + width, n_terms))
            lt = log_term(live, m)
            if peak is None:  # no term before m = 0: its prev is unused
                peak = np.full(n_rows, -np.inf, dtype=lt.dtype)
                prev = lt[:, 0]
            t = np.exp(lt.astype(np.longdouble))
            t[:, m % 2 == 1] *= np.where(alternating[live], -1, 1)[:, None]
            half = m.size // 2
            cum = np.cumsum(np.concatenate(
                [total[live, None], t[:, 0:2 * half:2] + t[:, 1:2 * half:2]],
                axis=1), axis=1)
            partial = np.empty_like(t)
            partial[:, 1::2] = cum[:, 1:]
            partial[:, 0::2] = cum[:, :(m.size + 1) // 2] + t[:, 0::2]
            scale = np.abs(partial.astype(float)) + 1e-300
            before = np.concatenate([prev[:, None], lt[:, :-1]], axis=1)
            over = lt > 11000.0  # beyond the extended-precision exponent range
            stop = over | (tail_ok(live, m, lt, before, scale) & (m >= 2))
            done = stop.any(axis=1)
            j = stop.argmax(axis=1)[done]
            rows = live[done]
            out[rows] = partial[done, j].astype(float)
            top = np.maximum(peak[rows], np.maximum.accumulate(
                lt[done], axis=1)[np.arange(j.size), j])
            budget = np.log10(tol * (np.abs(out[rows]) + 1e-300))
            fail[rows[alternating[rows] & (
                top / np.log(10.0) - _LONG_EPS_DIGITS > budget)]] = 3
            fail[rows[over[done, j]]] = 1
            live, lt = live[~done], lt[~done]
            total[live] = cum[~done, -1]
            peak[live] = np.maximum(peak[live], lt.max(axis=1))
            prev = lt[:, -1]
            lo, width = m[-1] + 1, 2 * width
    fail[live] = 2
    if fail.any():
        i = int(np.argmax(fail > 0))
        what = f"{label}={points[i]:g}"
        raise ConvergenceError(
            (f"{what} terms overflow extended precision",
             f"{what} did not settle below tol={tol:g}",
             f"{what}: cancellation exceeds extended precision for "
             f"tol={tol:g}")[fail[i] - 1])
    return out


_UNIT_DRIFT = BernsteinFunction(drift=1.0)


def eigenfunction_series(pair: WienerHopfPair, x, tol: float = 1e-9):
    """sum_n (-1)^n e^{nx} / (W(n+1) n!) of phi = pair.phi_minus by adaptive
    partial sums with a certified relative tail bound below tol, at one x
    or at every point of an array (a float for a scalar x).

    It serves the pairs whose plus factor is the unit drift
    BernsteinFunction(drift=1.0) and raises DomainError for any other; the
    coefficients of phi come from a per-factor cache.  The remainder
    past order m is dominated by the exponential tail of
    sum e^{nx}/(phi(1)^n n!) because W(n+1) >= phi(1)^n; a ConvergenceError
    is raised when the order runs out first or cancellation eats past tol.
    The log terms log|c_n| + n x are formed in np.longdouble (n x exactly).
    """
    if pair.phi_plus != _UNIT_DRIFT:
        raise DomainError("the series route serves only pairs whose plus "
                          "factor is BernsteinFunction(drift=1.0)")
    s = _series_table(pair.phi_minus)
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    x_l = flat.astype(np.longdouble)[:, None]
    r_log = (flat - s._log_phi1)[:, None]  # log of e^x / phi(1)

    def log_term(rows, m):
        return s._log_c[m] + m.astype(np.longdouble) * x_l[rows]

    def tail_ok(rows, m, lt, prev, scale):
        ratio = np.exp(r_log[rows]) / (m + 2)
        log_tail = (m + 1) * r_log[rows] - s._log_fact[m] - np.log(1 - ratio)
        bound = np.log(tol * scale)
        return (ratio < 0.5) & (lt < bound) & (log_tail < bound)

    out = _paired_sum(log_term, s._log_c.size, tail_ok,
                      np.ones(flat.size, dtype=bool), tol,
                      "the eigenfunction series at x", flat)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


# ---------------------------------------------------------------------------
# Wright function
# ---------------------------------------------------------------------------

_WRIGHT_TERMS = 4000


@functools.lru_cache(maxsize=64)
def _wright_log_denominators(gamma: float, beta: float, size: int):
    """log n! + log Gamma(gamma n + beta) for n < size, in np.longdouble,
    read-only and shared by every z of one (gamma, beta); each value is
    the same whatever the size."""
    n = np.arange(size, dtype=np.longdouble)
    out = log_gamma_long(n + 1) + log_gamma_long(np.longdouble(gamma) * n
                                                 + beta)
    out.flags.writeable = False
    return out


def wright(gamma: float, beta: float, z, tol: float = 1e-12):
    """The Wright function sum_n z^n / (Gamma(gamma n + beta) n!) for
    gamma >= 0 and beta > 0, at one z or at every point of an array (a
    float for a scalar z).

    Adaptive partial sums with a ratio-test tail bound, alternating for
    z < 0.  For gamma < 0 or beta <= 0, 1/Gamma(gamma n + beta) changes
    sign and vanishes at poles, which neither the log-magnitude terms nor
    the ratio test carry, so that range raises DomainError.  The log terms
    m log|z| - log m! - log Gamma(gamma m + beta) are formed in
    np.longdouble: in float64 a log term of size L carries a rounding of
    L x 1.1e-16 into its term, which cancellation then magnifies.
    """
    if not (gamma >= 0.0 and beta > 0.0):
        raise DomainError("the Wright series is summed for gamma >= 0 "
                          "and beta > 0")
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    out = np.full(flat.size, math.exp(-math.lgamma(beta)))  # at z = 0
    nz = np.flatnonzero(flat != 0.0)
    log_z = np.log(np.abs(flat[nz]).astype(np.longdouble))[:, None]

    def log_term(rows, m):
        # the denominators double in length as far as the terms reach
        size = min(_WRIGHT_TERMS, max(64, 1 << int(m[-1]).bit_length()))
        return m * log_z[rows] - _wright_log_denominators(
            float(gamma), float(beta), size)[m]

    def tail_ok(rows, m, lt, prev, scale):
        # a bound needs no extended precision
        lt = lt.astype(float)
        ratio = np.exp(lt - prev.astype(float))
        return (ratio < 0.5) & (np.exp(lt) / (1 - ratio) < tol * scale)

    out[nz] = _paired_sum(log_term, _WRIGHT_TERMS, tail_ok, flat[nz] < 0,
                          tol, "the Wright series at z", flat[nz])
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def wright_eigenfunction(pair: WienerHopfPair, x,
                         variant: str = "statement"):
    """The two candidate closed forms for the eigenfunction of a gamma pair,
    whose factors are gamma ratios themselves (`bernstein._ratio_form`):
    Gamma(at + at z) / Gamma(at z) over Gamma(rho + a + a z) /
    Gamma(rho + a z), rho > 0, with alpha_tilde = at and alpha = a.  Any
    other pair raises DomainError.

    variant="statement": W(alpha/alpha_tilde, alpha+rho; -e^{x/alpha_tilde})
    variant="proof":     same series with e^{x/alpha} in the argument.
    Exactly one matches the transform inversion; tests record which.
    """
    plus, minus = _ratio_form(pair.phi_plus), _ratio_form(pair.phi_minus)
    if plus is None or minus is None or plus[1] != 0.0 or not minus[1] > 0.0:
        raise DomainError("the Wright route serves the gamma pairs only: "
                          "a gamma ratio with rho = 0 over one with rho > 0")
    (alpha_tilde, _), (alpha, rho) = plus, minus
    scale = alpha_tilde if variant == "statement" else alpha
    if variant not in ("statement", "proof"):
        raise DomainError("variant must be 'statement' or 'proof'")
    return wright(alpha / alpha_tilde, alpha + rho,
                  -np.exp(np.asarray(x, dtype=float) / scale), tol=1e-10)


# ---------------------------------------------------------------------------
# transform inversion
# ---------------------------------------------------------------------------

#: default inversion grid: slowly decaying multipliers (|m| ~ 1/xi) need a
#: high Nyquist frequency for the truncated integral to settle below 1e-3
EIGEN_GRID = GridSpec(-20.0, 40.0, 32768)


def eigenfunction_fft(pair: WienerHopfPair, spec: GridSpec = EIGEN_GRID,
                      y: float = 0.0) -> GridFunction:
    """J(x_j - y), with J(x) = e^{-x/2} (2 pi)^{-1} integral e^{i x xi}
    m(xi) dxi; the translate tau_{-y} J is an exact phase on the multiplier.

    It serves the pairs that `classify` reads as Point on spec (m square
    integrable at grid scale) and raises DomainError for any other; the
    verdict and the inversion read the one `multiplier_h` line of
    (pair, spec).  The (2 pi)^{-1} normalization is pinned by agreement
    with the power series route.
    """
    report = classify(pair, spec)
    if report.verdict != "Point":
        raise DomainError(
            f"eigenfunction inversion needs a Point verdict, got "
            f"{report.verdict}")
    m = multiplier_h(pair, spec)
    phase = np.exp(-1j * spec.xi * y) * np.exp(y / 2.0)
    out = inverse_shifted_fft(SpectrumLine(spec, m.values * phase))
    return GridFunction(spec, out.values / np.sqrt(2.0 * np.pi))


# ---------------------------------------------------------------------------
# approximate eigenfunctions
# ---------------------------------------------------------------------------

def _bump(u: np.ndarray) -> np.ndarray:
    """The profile e^{-1/(1-u^2)} on |u| < 1, zero elsewhere."""
    vals = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return vals


def standard_bump(spec: GridSpec) -> GridFunction:
    """The profile e^{-1/(1-u^2)} on |u| < 1, fixed for reproducibility."""
    return GridFunction(spec, _bump(spec.x))


def approx_eigenfunction(spec: GridSpec, y: float, n: int) -> GridFunction:
    """The rescaled translate n * bump(n (x - y)) of `standard_bump`,
    evaluated at the grid points and scaled to unit L^2(e)-norm.

    These are the approximate eigenfunctions of the multiplication
    semigroup at spectral parameter e^{-t e^{-y}}.  The support 2/n must
    span at least 16 grid cells and meet the grid.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    cells = 2.0 / (n * spec.dx)
    if cells < 16:
        raise ResolutionError(
            f"rescaled bump support spans {cells:.1f} < 16 cells")
    vals = n * _bump(n * (spec.x - y))
    nrm = GridFunction(spec, vals).norm_e()
    if nrm == 0.0:
        raise ResolutionError("rescaled bump does not intersect the grid")
    return GridFunction(spec, vals / nrm)
