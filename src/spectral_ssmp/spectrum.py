"""Classification of the spectrum of the evolution semigroup.

The semigroup attached to a Wiener-Hopf pair always contains the ray
e^{t R_-} in its spectrum; which part (point, residual, continuous,
approximate) is decided by square-integrability or two-sided boundedness
of the diagonalizing multiplier m(xi) = W_plus(1/2-i xi)/W_minus(1/2+i xi).

classify combines three kinds of evidence, in order:
  (a) a certified gap between the Theta oscillation limits of the two
      factors (exponential decay of |m| one way or the other),
  (b) symbolic table rules on each factor's drift and on tail facts
      derived from its Levy measure: the activity nu_bar(0+), the
      regular-variation index of nu_bar and quasi-monotonicity,
  (c) direct dyadic-band decay fits of |m| and 1/|m| on the grid.
Inconclusive is a first-class verdict: the reverse spectral inclusion is
not checkable numerically, and the ratio need not be monotone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .bernstein import BernsteinFunction, _tails, theta_limits
from .errors import DomainError
from .exponents import WienerHopfPair
from .special import median
from .transform import GridSpec, multiplier_h

__all__ = [
    "SpectrumReport",
    "classify",
    "table_rule",
    "spectrum_values",
]

VERDICTS = ("Point", "Residual", "Continuous", "ApproximateOnly", "Inconclusive")


@dataclass(frozen=True)
class SpectrumReport:
    verdict: str
    theta_plus: tuple
    theta_minus: tuple
    l2_mass_m: float
    l2_mass_m_finite: bool
    l2_mass_inv: float
    l2_mass_inv_finite: bool
    bounded_above: bool
    bounded_below: bool
    table_rule_fired: Optional[str]
    evidence_grid: GridSpec
    branch: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise DomainError(f"unknown verdict {self.verdict!r}")
        # mutually exclusive evidence: a multiplier and its reciprocal
        # cannot both be square integrable
        if self.verdict == "Point" and not self.l2_mass_m_finite:
            raise DomainError("a Point verdict needs a square-integrable m")
        if self.verdict == "Residual" and not self.l2_mass_inv_finite:
            raise DomainError("a Residual verdict needs a square-integrable 1/m")
        if self.verdict == "Continuous" and not (self.bounded_above
                                                 and self.bounded_below):
            raise DomainError("a Continuous verdict needs m bounded both ways")
        if self.l2_mass_m_finite and self.l2_mass_inv_finite:
            raise DomainError("m and 1/m cannot both be square integrable")

    def to_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# table rules
# ---------------------------------------------------------------------------

def _point_rule(p: BernsteinFunction, q: BernsteinFunction) -> Optional[str]:
    """The rows guaranteeing square integrability of m (Point side)."""
    nu_p, rv_p, qm_p, _ = _tails(p)
    nu_q, rv_q, qm_q, _ = _tails(q)
    rv_ok_p = rv_p is not None and qm_p
    rv_ok_q = rv_q is not None and qm_q
    if (p.drift == 0 and q.drift == 0 and rv_ok_p and rv_ok_q
            and 0.0 < rv_q < rv_p < 1.0):
        return "T1r1"
    if p.drift > 0 and q.drift == 0 and rv_ok_q:
        return "T1r2"
    if p.drift > 0 and q.drift == 0 and nu_p < math.inf:
        return "T2r1"
    if (p.drift > 0 and q.drift > 0 and nu_p < math.inf
            and nu_q == math.inf):
        return "T2r2"
    return None


def _table_row(phi_plus: BernsteinFunction, phi_minus: BernsteinFunction):
    """(verdict, row) of the first matching table row, (None, None) when
    no row matches."""
    row = _point_rule(phi_plus, phi_minus)
    if row is not None:
        return "Point", row
    row = _point_rule(phi_minus, phi_plus)
    if row is not None:
        return "Residual", row
    return None, None


def table_rule(phi_plus: BernsteinFunction,
               phi_minus: BernsteinFunction) -> Optional[str]:
    """Symbolic verdict from the factors' drifts and tails, or None when no
    row matches.

    Returns "Point" when a row certifies m in L^2, "Residual" when the
    mirrored row (factors swapped) certifies 1/m in L^2.
    """
    return _table_row(phi_plus, phi_minus)[0]


def spectrum_values(t: float, y_grid) -> np.ndarray:
    """The spectral ray parametrization e^{-t e^{-y}} used by eigen-tests."""
    if not t >= 0:
        raise DomainError("t must be nonnegative")
    return np.exp(-t * np.exp(-np.asarray(y_grid, dtype=float)))


# ---------------------------------------------------------------------------
# numeric evidence
# ---------------------------------------------------------------------------

def _theta_bracket(phi, xi_max):
    """(lower, upper, error bar) from the samples at xi_max / 2 and xi_max.

    The liminf/limsup are not computable; the bar is half the spread of the
    two samples, a conservative finite-sample surrogate.
    """
    lo, up = theta_limits(phi, xi_max, 2)
    return lo, up, 0.5 * (up - lo)


def _dyadic_bands(spec: GridSpec, values: np.ndarray):
    """Per-band maxima of |values| over the six top dyadic |xi| bands (top
    band last)."""
    xi = np.abs(spec.xi)
    top = spec.nyquist
    out = []
    centers = []
    for j in range(6, 0, -1):
        lo, hi = top / 2 ** j, top / 2 ** (j - 1)
        mask = (xi >= lo) & (xi < hi)
        if np.any(mask):
            out.append(float(np.max(np.abs(values[mask]))))
            centers.append(np.sqrt(lo * hi))
    return np.asarray(centers), np.asarray(out)


def _decay_fit(centers, maxima):
    """(power slope, exponential rate per unit xi) of band maxima."""
    safe = np.maximum(maxima, 1e-300)
    logm = np.log(safe)
    p = float(np.polyfit(np.log(centers), logm, 1)[0])
    r = float(np.polyfit(centers, logm, 1)[0])
    return p, r


def _band_evidence(spec, values):
    centers, maxima = _dyadic_bands(spec, values)
    power_slope, exp_rate = _decay_fit(centers, maxima)
    median_band = float(median(maxima))
    bounded_above = maxima[-1] <= 2.0 * median_band
    # decisive exponential decay: e^{-c xi} with c xi_max >> 1
    exponential = exp_rate * spec.nyquist < -20.0 and maxima[-1] < 1e-4 * maxima[0]
    square_integrable = exponential or power_slope < -0.55
    return bounded_above, square_integrable


def _grid_l2_mass(spec, values):
    mags = np.clip(np.abs(values), 0.0, 1e150)
    return float(spec.dxi * np.sum(mags ** 2))


def classify(pair: WienerHopfPair, spec: GridSpec = GridSpec(),
             xi_max: float = 200.0) -> SpectrumReport:
    """Decide which part of the spectrum the ray e^{t R_-} belongs to.

    The evidence is the multiplier line of `multiplier_h`, one cache entry
    per (pair, grid) that `EvolutionPlan` and `eigenfunction_fft` share."""
    lo_p, up_p, bar_p = _theta_bracket(pair.phi_plus, xi_max)
    lo_m, up_m, bar_m = _theta_bracket(pair.phi_minus, xi_max)

    m_line = multiplier_h(pair, spec)
    inv_vals = 1.0 / m_line.values
    bounded_above, m_l2 = _band_evidence(spec, m_line.values)
    bounded_below, inv_l2 = _band_evidence(spec, inv_vals)
    if m_l2 and inv_l2:  # numerically impossible; refuse to guess
        m_l2 = inv_l2 = False
    mass_m = _grid_l2_mass(spec, m_line.values)
    mass_i = _grid_l2_mass(spec, inv_vals)

    # soundness guard for the theta-gap branch: a certified gap implies
    # exponential decay, so the measured ratio must drop by 10x between
    # xi_max/4 and xi_max (and symmetrically for the reciprocal)
    def _window_level(vals, center):
        sel = (np.abs(spec.xi) > 0.9 * center) & (np.abs(spec.xi) < 1.1 * center)
        return float(median(np.abs(vals[sel]))) if np.any(sel) else np.nan
    hi = min(xi_max, 0.95 * spec.nyquist)
    drop_m = _window_level(m_line.values, hi / 4) / max(
        _window_level(m_line.values, hi), 1e-300)
    drop_i = _window_level(inv_vals, hi / 4) / max(
        _window_level(inv_vals, hi), 1e-300)

    verdict = None
    branch = ""
    fired = None
    if lo_p - up_m > bar_p + bar_m and drop_m >= 10.0:
        verdict, branch = "Point", "theta-gap"
        m_l2 = True
        inv_l2 = False
    elif lo_m - up_p > bar_p + bar_m and drop_i >= 10.0:
        verdict, branch = "Residual", "theta-gap"
        inv_l2 = True
        m_l2 = False
    else:
        rule, fired = _table_row(pair.phi_plus, pair.phi_minus)
        if rule is not None:
            verdict, branch = rule, "table"
            m_l2, inv_l2 = rule == "Point", rule == "Residual"
        elif m_l2:
            verdict, branch = "Point", "band-decay"
        elif inv_l2:
            verdict, branch = "Residual", "band-decay"
        elif bounded_above and bounded_below:
            verdict, branch = "Continuous", "band-bounded"
        elif bounded_above or bounded_below:
            verdict, branch = "ApproximateOnly", "band-bounded"
        else:
            verdict, branch = "Inconclusive", "none"

    return SpectrumReport(
        verdict=verdict,
        theta_plus=(lo_p, up_p),
        theta_minus=(lo_m, up_m),
        l2_mass_m=mass_m,
        l2_mass_m_finite=bool(m_l2),
        l2_mass_inv=mass_i,
        l2_mass_inv_finite=bool(inv_l2),
        bounded_above=bool(bounded_above),
        bounded_below=bool(bounded_below),
        table_rule_fired=fired,
        evidence_grid=spec,
        branch=branch,
    )
