"""Classification of the spectrum of the evolution semigroup.

The semigroup attached to a Wiener-Hopf pair always contains the ray
e^{t R_-} in its spectrum; which part (point, residual, continuous,
approximate) is decided by square-integrability or two-sided boundedness
of the diagonalizing multiplier m(xi) = W_plus(1/2-i xi)/W_minus(1/2+i xi).

classify reads one set of grid evidence on m and one on 1/m
(`_side_evidence`) and decides by the first of these that holds:
  1. theta-gap: a certified gap between the Theta oscillation limits of
     the two factors (exponential decay of |m| one way or the other),
     confirmed by a 10x drop of |m| or 1/|m| on the grid;
  2. table: a symbolic row on each factor's drift and on tail facts
     derived from its Levy measure: the activity nu_bar(0+), the
     regular-variation index of nu_bar and quasi-monotonicity;
  3. band-decay: exactly one of m and 1/m is square integrable by the
     band fits;
  4. band-bounded: m is bounded both ways (Continuous) or one way
     (ApproximateOnly);
  5. Inconclusive.
The report's L^2 flags are read off the verdict: m is square integrable
exactly for Point, 1/m exactly for Residual.
Inconclusive is a first-class verdict: the reverse spectral inclusion is
not checkable numerically, and the ratio need not be monotone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

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
    l2_mass_inv: float
    bounded_above: bool
    bounded_below: bool
    table_rule_fired: Optional[str]
    evidence_grid: GridSpec
    branch: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise DomainError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "Continuous" and not (self.bounded_above
                                                 and self.bounded_below):
            raise DomainError("a Continuous verdict needs m bounded both ways")

    @property
    def l2_mass_m_finite(self) -> bool:
        """m is square integrable exactly when the verdict is Point."""
        return self.verdict == "Point"

    @property
    def l2_mass_inv_finite(self) -> bool:
        """1/m is square integrable exactly when the verdict is Residual."""
        return self.verdict == "Residual"

    def to_dict(self):
        """The fields, each L^2 mass followed by its derived flag."""
        out = {}
        for key, value in asdict(self).items():
            out[key] = value
            if key in ("l2_mass_m", "l2_mass_inv"):
                out[key + "_finite"] = getattr(self, key + "_finite")
        return out


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
# numeric evidence and the verdict
# ---------------------------------------------------------------------------

class _Side(NamedTuple):
    """Grid evidence on one of m and 1/m."""
    bounded: bool
    square_integrable: bool
    l2_mass: float
    drop: float


def _side_evidence(spec: GridSpec, values: np.ndarray, hi: float) -> _Side:
    """The evidence of |values| on the grid.

    The maxima over the six top dyadic |xi| bands (top band last) give the
    power slope and the exponential rate of a log-linear fit: bounded when
    the top band stays within twice the median band, square integrable on
    decisive exponential decay (rate x nyquist < -20 and a 1e4 fall across
    the bands) or a power slope below -0.55.  The L^2 mass is dxi times the
    sum of |values|^2, each sample clipped at 1e150.  The drop is the ratio of
    the median levels in 10% windows around hi / 4 and hi.
    """
    axi = np.abs(spec.xi)
    mags = np.abs(values)
    top = spec.nyquist
    centers, maxima = [], []
    for j in range(6, 0, -1):
        lo, up = top / 2 ** j, top / 2 ** (j - 1)
        mask = (axi >= lo) & (axi < up)
        if np.any(mask):
            maxima.append(float(np.max(mags[mask])))
            centers.append(np.sqrt(lo * up))
    centers, maxima = np.asarray(centers), np.asarray(maxima)
    log_max = np.log(np.maximum(maxima, 1e-300))
    power_slope = float(np.polyfit(np.log(centers), log_max, 1)[0])
    exp_rate = float(np.polyfit(centers, log_max, 1)[0])
    # decisive exponential decay: e^{-c xi} with c xi_max >> 1
    exponential = exp_rate * top < -20.0 and maxima[-1] < 1e-4 * maxima[0]

    def level(center):
        sel = (axi > 0.9 * center) & (axi < 1.1 * center)
        return float(median(mags[sel])) if np.any(sel) else np.nan

    return _Side(
        bounded=bool(maxima[-1] <= 2.0 * float(median(maxima))),
        square_integrable=bool(exponential or power_slope < -0.55),
        l2_mass=float(spec.dxi * np.sum(np.clip(mags, 0.0, 1e150) ** 2)),
        drop=level(hi / 4) / max(level(hi), 1e-300))


def classify(pair: WienerHopfPair, spec: GridSpec = GridSpec(),
             xi_max: float = 200.0) -> SpectrumReport:
    """Decide which part of the spectrum the ray e^{t R_-} belongs to.

    The evidence is the multiplier line of `multiplier_h`, one cache entry
    per (pair, grid) that `EvolutionPlan` and `eigenfunction_fft` share."""
    lo_p, up_p = theta_limits(pair.phi_plus, xi_max)
    lo_m, up_m = theta_limits(pair.phi_minus, xi_max)
    # the liminf/limsup are not computable; the error bar of each bracket
    # is half its spread, a conservative finite-sample surrogate
    bar = 0.5 * (up_p - lo_p) + 0.5 * (up_m - lo_m)
    m_vals = multiplier_h(pair, spec).values
    hi = min(xi_max, 0.95 * spec.nyquist)
    m = _side_evidence(spec, m_vals, hi)
    inv = _side_evidence(spec, 1.0 / m_vals, hi)
    rule, row = _table_row(pair.phi_plus, pair.phi_minus)

    # a certified Theta gap implies exponential decay, so the gap decides
    # only when the measured ratio also drops 10x between hi / 4 and hi
    if lo_p - up_m > bar and m.drop >= 10.0:
        verdict, branch = "Point", "theta-gap"
    elif lo_m - up_p > bar and inv.drop >= 10.0:
        verdict, branch = "Residual", "theta-gap"
    elif rule is not None:
        verdict, branch = rule, "table"
    elif m.square_integrable != inv.square_integrable:
        # both square integrable is numerically impossible: refuse to guess
        verdict = "Point" if m.square_integrable else "Residual"
        branch = "band-decay"
    elif m.bounded or inv.bounded:
        verdict = ("Continuous" if m.bounded and inv.bounded
                   else "ApproximateOnly")
        branch = "band-bounded"
    else:
        verdict, branch = "Inconclusive", "none"

    return SpectrumReport(
        verdict=verdict,
        theta_plus=(lo_p, up_p),
        theta_minus=(lo_m, up_m),
        l2_mass_m=m.l2_mass,
        l2_mass_inv=inv.l2_mass,
        bounded_above=m.bounded,
        bounded_below=inv.bounded,
        table_rule_fired=row if branch == "table" else None,
        evidence_grid=spec,
        branch=branch,
    )
