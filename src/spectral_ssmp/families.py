"""Built-in Bernstein-function families and the JSON exponent schema.

Family identifiers (shared with the command line):

    drift               {"family": "drift", "d": 1.0}
    affine              {"family": "affine", "d": 1.0, "c": 1.0}
    stable              {"family": "stable", "beta": 0.5}
    gamma-ratio-plus    {"family": "gamma-ratio-plus", "alpha_tilde": 0.7}
    gamma-ratio-minus   {"family": "gamma-ratio-minus", "alpha": 0.3, "rho": 1.0}
    compound-poisson    {"family": "compound-poisson", "atoms": [[1.0, 1.0]],
                         "c": 0.0, "d": 0.0}
    tabulated-density   {"family": "tabulated-density", "y": [...],
                         "density": [...], "tail_exponent_zero": a0,
                         "tail_exponent_inf": a1, "c": 0.0, "d": 0.0}

A family is a builder whose keyword arguments are its JSON parameters
(d defaults to 1 for drift and affine, c and d to 0 elsewhere) and which
builds the triplet (phi(0), drift, measure) and nothing else.  Both gamma
ids build the one measure kind "gamma-ratio" (a, rho): gamma-ratio-plus
is gamma-ratio-minus at rho = 0, phi(z) = Gamma(at + at z) / Gamma(at z).
The descriptors check every range and finiteness themselves
(`bernstein.ClosedFormMeasure`, `AtomMeasure`, `DensityMeasure`,
`BernsteinFunction`, `exponents.SignedMeasure`, `LevyQuadruplet`), and the
tail facts that the spectrum tables read are derived from the measure, so
a factor built by hand meets the same checks and table rows as its family.
A missing, unknown or malformed parameter, or a descriptor's DomainError,
is raised as ValidationError.

Exponent JSON:

    {"pair": {"plus": <family>, "minus": <family>}}
    {"quadruplet": {"psi0": 0.0, "b": 0.0, "sigma2": 1.0,
                    "mu": {"atoms": [[y, m], ...],
                           "density_pos": {...}, "density_neg": {...}}}}
"""

from __future__ import annotations

import math

import numpy as np

from .bernstein import (
    AtomMeasure,
    BernsteinFunction,
    ClosedFormMeasure,
    DensityMeasure,
    _ratio_constant,
)
from .errors import DomainError, ValidationError
from .exponents import Exponent, LevyQuadruplet, SignedMeasure, WienerHopfPair


def _drift(d=1.0):
    return BernsteinFunction(drift=float(d))


def _affine(d=1.0, c=0.0):
    return BernsteinFunction(phi0=float(c), drift=float(d))


def _stable(beta):
    return BernsteinFunction(
        measure=ClosedFormMeasure("stable", (float(beta),)))


def _gamma_ratio_minus(alpha, rho):
    measure = ClosedFormMeasure("gamma-ratio", (float(alpha), float(rho)))
    return BernsteinFunction(phi0=_ratio_constant(*measure.params),
                             measure=measure)


def _gamma_ratio_plus(alpha_tilde):
    return _gamma_ratio_minus(alpha_tilde, 0.0)


def _compound_poisson(atoms, c=0.0, d=0.0):
    measure = AtomMeasure(tuple((float(y), float(m)) for y, m in atoms))
    return BernsteinFunction(phi0=float(c), drift=float(d), measure=measure)


def _density(y, density, tail_exponent_zero, tail_exponent_inf):
    return DensityMeasure(tuple(float(v) for v in y),
                          tuple(float(v) for v in density),
                          float(tail_exponent_zero), float(tail_exponent_inf))


def _tabulated_density(y, density, tail_exponent_zero, tail_exponent_inf,
                       c=0.0, d=0.0):
    measure = _density(y, density, tail_exponent_zero, tail_exponent_inf)
    return BernsteinFunction(phi0=float(c), drift=float(d), measure=measure)


_FAMILIES = {
    "drift": _drift,
    "affine": _affine,
    "stable": _stable,
    "gamma-ratio-plus": _gamma_ratio_plus,
    "gamma-ratio-minus": _gamma_ratio_minus,
    "compound-poisson": _compound_poisson,
    "tabulated-density": _tabulated_density,
}
FAMILY_IDS = tuple(_FAMILIES)


def _checked(build, what, /, **params):
    """build(**params), with a missing, unknown or malformed parameter and
    a descriptor's DomainError raised as ValidationError."""
    try:
        return build(**params)
    except (TypeError, ValueError, DomainError) as exc:
        raise ValidationError(f"bad parameters for {what}: {exc}") from None


def make_bernstein(family: str, **params) -> BernsteinFunction:
    """Construct a built-in family; see the module docstring for identifiers."""
    if family not in FAMILY_IDS:
        raise ValidationError(f"unknown family {family!r}; known: {FAMILY_IDS}")
    return _checked(_FAMILIES[family], f"family {family!r}", **params)


def stable_density_table(beta: float) -> dict:
    """Tabulated version of the stable(beta) Levy density, for cross-checks:
    181 nodes, 20 per decade of y in [1e-6, 1e3]."""
    y = np.exp(np.linspace(np.log(1e-6), np.log(1e3), 181))
    c = beta / math.gamma(1.0 - beta)
    return {
        "family": "tabulated-density",
        "y": list(y),
        "density": list(c * y ** (-1.0 - beta)),
        "tail_exponent_zero": beta,
        "tail_exponent_inf": beta,
    }


# ---------------------------------------------------------------------------
# JSON parsing
# ---------------------------------------------------------------------------

def bernstein_from_json(obj) -> BernsteinFunction:
    """The factor of a JSON object {"family": <id>, <parameters>}."""
    return _checked(make_bernstein, "a Bernstein function", **obj)


def _pair(plus, minus):
    return WienerHopfPair(bernstein_from_json(plus), bernstein_from_json(minus))


def _signed_measure(atoms=(), density_pos=None, density_neg=None):
    return SignedMeasure(
        atoms=tuple((float(y), float(w)) for y, w in atoms),
        density_pos=_density(**density_pos) if density_pos else None,
        density_neg=_density(**density_neg) if density_neg else None)


def _quadruplet(psi0=0.0, b=0.0, sigma2=0.0, mu=None):
    mu = SignedMeasure() if mu is None else _signed_measure(**mu)
    return LevyQuadruplet(float(psi0), float(b), float(sigma2), mu)


def _exponent(pair=None, quadruplet=None):
    return Exponent(
        pair=None if pair is None else _pair(**pair),
        quadruplet=None if quadruplet is None else _quadruplet(**quadruplet))


def exponent_from_json(obj) -> Exponent:
    """Parse {"pair": ...} or {"quadruplet": ...}; unknown keys rejected."""
    return _checked(_exponent, "exponent", **obj)
