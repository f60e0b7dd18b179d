"""Eigenfunctions and co-eigenfunctions of the evolution semigroups.

Three routes are implemented and cross-validated:

  * a power series sum_n (-1)^n e^{nx} / (W(n+1) n!) for spectrally
    negative exponents psi(xi) = -i xi phi(i xi) (W(n+1) = prod phi(k)
    exactly, by the functional equation);
  * Wright-function closed forms for the gamma-ratio pairs, in both the
    e^{x/alpha_tilde} and e^{x/alpha} argument variants (the two candidate
    normalizations; the transform route below discriminates);
  * L^2 Fourier inversion of the diagonalizing multiplier,
    J(x) = e^{-x/2} (2 pi)^{-1} integral e^{i x xi} m(xi) dxi,
    normalized so that it matches the power series on overlapping families.

The series and the Wright function are summed by one extended-precision
kernel, _paired_sum: each caller supplies only the log-magnitudes of its
terms and its tail test.  Consecutive terms are paired to exploit the
alternation, and when cancellation would still consume every significant
digit an OverflowGuard is raised rather than returning noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bernstein import BernsteinFunction, eval_phi
from .errors import DomainError, OverflowGuard, ResolutionError
from .exponents import WienerHopfPair
from .special import log_gamma
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

@dataclass(frozen=True)
class SeriesEigenfunction:
    """Cached coefficients c_n = (-1)^n / (W(n+1) n!) for one phi.

    phi is the single Bernstein factor of a spectrally negative exponent
    psi(xi) = -i xi phi(i xi); W(n+1) = prod_{k<=n} phi(k) exactly.
    """

    phi: BernsteinFunction
    order: int = 600

    def __post_init__(self):
        kk = np.arange(1, self.order + 1, dtype=float)
        phik = eval_phi(self.phi, kk).real
        if np.any(phik <= 0):
            raise DomainError("phi must be positive on the integers")
        log_w = np.concatenate([[0.0], np.cumsum(np.log(phik))])  # W(n+1)
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(kk))])
        object.__setattr__(self, "_log_c", -(log_w + log_fact))
        object.__setattr__(self, "_log_phi1", float(np.log(phik[0])))

    def log_coefficient_magnitudes(self):
        return self._log_c.copy()


def _paired_sum(log_terms, alternating, tail_ok, tol, name):
    """sum_n (+-1)^n e^{log_terms[n]} in extended precision.

    Consecutive terms are paired, so for an alternating series the running
    sum stays near the final value rather than near the largest term.  The
    sum stops at the first m >= 2 where tail_ok(m, scale) certifies the
    remainder past term m against scale = |partial sum|.  An alternating sum
    is then audited: an OverflowGuard is raised when the extended-precision
    roundoff of its largest term exceeds tol relative to the result.
    """
    total = np.longdouble(0.0)
    held = None
    peak = -np.inf
    for m, lt in enumerate(log_terms):
        if lt > 11000.0:  # beyond the extended-precision exponent range
            raise OverflowGuard(f"{name} terms overflow extended precision")
        peak = max(peak, lt)
        sign = -1.0 if alternating and m % 2 else 1.0
        term = np.longdouble(sign) * np.exp(np.longdouble(lt))
        if held is None:
            held = term
        else:
            total += held + term
            held = None
        partial = total if held is None else total + held
        if m >= 2 and tail_ok(m, abs(float(partial)) + 1e-300):
            break
    else:
        raise OverflowGuard(f"{name} did not settle below tol={tol:g}")
    if held is not None:
        total += held
    budget = np.log10(tol * (abs(float(total)) + 1e-300))
    if alternating and peak / np.log(10.0) - _LONG_EPS_DIGITS > budget:
        raise OverflowGuard(f"{name}: cancellation exceeds extended "
                            f"precision for tol={tol:g}")
    return float(total)


def eigenfunction_series(s: SeriesEigenfunction, x: float,
                         tol: float = 1e-9) -> float:
    """Adaptive partial sum with a certified relative tail bound below tol.

    The remainder past order m is dominated by the exponential tail of
    sum e^{nx}/(phi(1)^n n!) because W(n+1) >= phi(1)^n; an OverflowGuard is
    raised when the order runs out first or cancellation eats past tol.
    """
    x = float(x)
    log_terms = s._log_c + np.arange(len(s._log_c)) * x
    r_log = x - s._log_phi1  # log of e^x / phi(1), the tail ratio scale

    def tail_ok(m, scale):
        ratio = np.exp(r_log) / (m + 2)
        if ratio >= 0.5:
            return False
        log_tail = ((m + 1) * r_log - math.lgamma(m + 2.0)
                    - np.log(1 - ratio))
        bound = np.log(tol * scale)
        return log_terms[m] < bound and log_tail < bound

    return _paired_sum(log_terms, True, tail_ok, tol,
                       f"the eigenfunction series at x={x:g}")


# ---------------------------------------------------------------------------
# Wright function
# ---------------------------------------------------------------------------

_WRIGHT_TERMS = 4000


@functools.lru_cache(maxsize=64)
def _wright_log_denominators(gamma: float, beta: float):
    """log n! + log Gamma(gamma n + beta) for n < _WRIGHT_TERMS, read-only
    and shared by every z of one (gamma, beta)."""
    n = np.arange(_WRIGHT_TERMS)
    out = np.cumsum(np.log(np.maximum(n, 1))) + log_gamma(gamma * n + beta)
    out.flags.writeable = False
    return out


def wright(gamma: float, beta: float, z: float, tol: float = 1e-12) -> float:
    """The Wright function sum_n z^n / (Gamma(gamma n + beta) n!) for
    gamma >= 0 and beta > 0.

    Adaptive partial sums with a ratio-test tail bound, alternating for
    z < 0.  For gamma < 0 or beta <= 0, 1/Gamma(gamma n + beta) changes
    sign and vanishes at poles, which neither the log-magnitude terms nor
    the ratio test carry, so that range raises DomainError.
    """
    if not (gamma >= 0.0 and beta > 0.0):
        raise DomainError("the Wright series is summed for gamma >= 0 "
                          "and beta > 0")
    z = float(z)
    if z == 0.0:
        return math.exp(-math.lgamma(beta))
    log_terms = (np.arange(_WRIGHT_TERMS) * np.log(abs(z))
                 - _wright_log_denominators(float(gamma), float(beta)))

    def tail_ok(m, scale):
        ratio = np.exp(log_terms[m] - log_terms[m - 1])
        return ratio < 0.5 and np.exp(log_terms[m]) / (1 - ratio) < tol * scale

    return _paired_sum(log_terms, z < 0, tail_ok, tol, "the Wright series")


def wright_eigenfunction(alpha_tilde: float, alpha: float, rho: float,
                         x, variant: str = "statement"):
    """The two candidate closed forms for the gamma-ratio pair eigenfunction.

    variant="statement": W(alpha/alpha_tilde, alpha+rho; -e^{x/alpha_tilde})
    variant="proof":     same series with e^{x/alpha} in the argument.
    Exactly one matches the transform inversion; tests record which.
    """
    scale = alpha_tilde if variant == "statement" else alpha
    if variant not in ("statement", "proof"):
        raise DomainError("variant must be 'statement' or 'proof'")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([wright(alpha / alpha_tilde, alpha + rho,
                           -np.exp(xi / scale), tol=1e-10) for xi in xs])
    return out if np.ndim(x) else float(out[0])


# ---------------------------------------------------------------------------
# transform inversion
# ---------------------------------------------------------------------------

#: default inversion grid: slowly decaying multipliers (|m| ~ 1/xi) need a
#: high Nyquist frequency for the truncated integral to settle below 1e-3
EIGEN_GRID = GridSpec(-20.0, 40.0, 32768)


def eigenfunction_fft(pair: WienerHopfPair, spec: Optional[GridSpec] = None,
                      tol: float = 1e-10,
                      report=None) -> GridFunction:
    """J(x_j) = e^{-x_j/2} (2 pi)^{-1} integral e^{i x_j xi} m(xi) dxi.

    Requires a Point verdict (m square integrable at grid scale); pass a
    precomputed SpectrumReport to skip re-classification.  The (2 pi)^{-1}
    normalization is pinned by agreement with the power series route.
    """
    return translated_eigenfunction_fft(pair, 0.0, spec, tol, report)


def translated_eigenfunction_fft(pair: WienerHopfPair, y: float,
                                 spec: Optional[GridSpec] = None,
                                 tol: float = 1e-10,
                                 report=None) -> GridFunction:
    """tau_{-y} J (x) = J(x - y), done by an exact phase on the multiplier."""
    if spec is None:
        spec = EIGEN_GRID
    if report is None:
        report = classify(pair, spec, tol=tol)
    if report.verdict != "Point":
        raise DomainError(
            f"eigenfunction inversion needs a Point verdict, got "
            f"{report.verdict}")
    m = multiplier_h(pair, spec, tol=tol)
    phase = np.exp(-1j * spec.xi * y) * np.exp(y / 2.0)
    out = inverse_shifted_fft(SpectrumLine(spec, m.values * phase))
    return GridFunction(spec, out.values / np.sqrt(2.0 * np.pi))


# ---------------------------------------------------------------------------
# approximate eigenfunctions
# ---------------------------------------------------------------------------

def standard_bump(spec: GridSpec) -> GridFunction:
    """The profile e^{-1/(1-u^2)} on |u| < 1, fixed for reproducibility."""
    u = spec.x
    vals = np.zeros(spec.n)
    inside = np.abs(u) < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return GridFunction(spec, vals)


def approx_eigenfunction(spec: GridSpec, y: float, n: int,
                         bump: Optional[GridFunction] = None) -> GridFunction:
    """The rescaled translate n * bump(n (x - y)), unit L^2(e)-norm.

    These are the approximate eigenfunctions of the multiplication
    semigroup at spectral parameter e^{-t e^{-y}}.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if bump is None:
        bump = standard_bump(spec)
    if bump.spec != spec:
        raise DomainError("bump must be sampled on the same grid")
    # support of the profile in its own sampling
    prof_x = spec.x
    nz = np.abs(bump.values) > 0
    if not np.any(nz):
        raise DomainError("bump profile is identically zero")
    lo, hi = prof_x[nz][0], prof_x[nz][-1]
    width = (hi - lo) / n
    if width / spec.dx < 16:
        raise ResolutionError(
            f"rescaled bump support spans {width / spec.dx:.1f} < 16 cells")
    args = n * (spec.x - y)
    vals = n * np.interp(args, prof_x, bump.values.real, left=0.0, right=0.0)
    g = GridFunction(spec, vals)
    nrm = g.norm_e()
    if nrm == 0.0:
        raise ResolutionError("rescaled bump does not intersect the grid")
    return GridFunction(spec, vals / nrm)
