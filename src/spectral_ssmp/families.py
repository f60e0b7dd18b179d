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

A family builds the triplet (phi(0), drift, measure) and nothing else: the
tail facts that the spectrum tables read (activity, regular-variation
index, quasi-monotonicity) are derived from the measure, so a factor built
by hand meets the same table rows as its family.

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
)
from .errors import ValidationError
from .exponents import Exponent, LevyQuadruplet, SignedMeasure, WienerHopfPair

FAMILY_IDS = (
    "drift",
    "affine",
    "stable",
    "gamma-ratio-plus",
    "gamma-ratio-minus",
    "compound-poisson",
    "tabulated-density",
)


def _require_keys(obj, allowed, context):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} in {context}")


def make_bernstein(family: str, **params) -> BernsteinFunction:
    """Construct a built-in family; see the module docstring for identifiers."""
    if family == "drift":
        d = float(params.pop("d", 1.0))
        _no_extra(params, family)
        return BernsteinFunction(drift=d)
    if family == "affine":
        d = float(params.pop("d", 1.0))
        c = float(params.pop("c", 0.0))
        _no_extra(params, family)
        return BernsteinFunction(phi0=c, drift=d)
    if family == "stable":
        beta = float(params.pop("beta"))
        _no_extra(params, family)
        if not 0.0 < beta < 1.0:
            raise ValidationError("stable exponent beta must be in (0, 1)")
        return BernsteinFunction(measure=ClosedFormMeasure("stable", (beta,)))
    if family == "gamma-ratio-plus":
        at = float(params.pop("alpha_tilde"))
        _no_extra(params, family)
        if not 0.0 < at < 1.0:
            raise ValidationError("alpha_tilde must be in (0, 1)")
        return BernsteinFunction(
            measure=ClosedFormMeasure("gamma-ratio-plus", (at,)))
    if family == "gamma-ratio-minus":
        a = float(params.pop("alpha"))
        rho = float(params.pop("rho"))
        _no_extra(params, family)
        if not 0.0 < a < 1.0 or rho <= 0:
            raise ValidationError("need alpha in (0, 1) and rho > 0")
        phi0 = math.exp(math.lgamma(rho + a) - math.lgamma(rho))
        return BernsteinFunction(
            phi0=phi0,
            measure=ClosedFormMeasure("gamma-ratio-minus", (a, rho)))
    if family == "compound-poisson":
        atoms = tuple((float(y), float(m)) for y, m in params.pop("atoms"))
        c = float(params.pop("c", 0.0))
        d = float(params.pop("d", 0.0))
        _no_extra(params, family)
        return BernsteinFunction(phi0=c, drift=d, measure=AtomMeasure(atoms))
    if family == "tabulated-density":
        y = tuple(float(v) for v in params.pop("y"))
        dens = tuple(float(v) for v in params.pop("density"))
        a0 = float(params.pop("tail_exponent_zero"))
        a1 = float(params.pop("tail_exponent_inf"))
        c = float(params.pop("c", 0.0))
        d = float(params.pop("d", 0.0))
        _no_extra(params, family)
        return BernsteinFunction(phi0=c, drift=d,
                                 measure=DensityMeasure(y, dens, a0, a1))
    raise ValidationError(f"unknown family {family!r}; known: {FAMILY_IDS}")


def _no_extra(params, family):
    if params:
        raise ValidationError(
            f"unknown parameters {sorted(params)} for family {family!r}")


def stable_density_table(beta: float, y_min: float = 1e-6, y_max: float = 1e3,
                         points_per_decade: int = 20) -> dict:
    """Tabulated version of the stable(beta) Levy density, for cross-checks."""
    n = int(points_per_decade * np.log10(y_max / y_min)) + 1
    y = np.exp(np.linspace(np.log(y_min), np.log(y_max), n))
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
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValidationError("a Bernstein function is a JSON object "
                              "with a 'family' key")
    obj = dict(obj)
    family = obj.pop("family")
    try:
        return make_bernstein(family, **obj)
    except (TypeError, KeyError) as exc:
        raise ValidationError(f"bad parameters for family {family!r}: {exc}")


def _density_from_json(obj) -> DensityMeasure:
    _require_keys(obj, ("y", "density", "tail_exponent_zero",
                        "tail_exponent_inf"), "density")
    return DensityMeasure(tuple(float(v) for v in obj["y"]),
                          tuple(float(v) for v in obj["density"]),
                          float(obj["tail_exponent_zero"]),
                          float(obj["tail_exponent_inf"]))


def exponent_from_json(obj) -> Exponent:
    """Parse {"pair": ...} or {"quadruplet": ...}; unknown keys rejected."""
    if not isinstance(obj, dict):
        raise ValidationError("an exponent is a JSON object")
    _require_keys(obj, ("pair", "quadruplet"), "exponent")
    pair = None
    quad = None
    if "pair" in obj:
        p = obj["pair"]
        _require_keys(p, ("plus", "minus"), "pair")
        if "plus" not in p or "minus" not in p:
            raise ValidationError("a pair needs both 'plus' and 'minus'")
        pair = WienerHopfPair(bernstein_from_json(p["plus"]),
                              bernstein_from_json(p["minus"]))
    if "quadruplet" in obj:
        q = obj["quadruplet"]
        _require_keys(q, ("psi0", "b", "sigma2", "mu"), "quadruplet")
        mu = SignedMeasure()
        if "mu" in q and q["mu"] is not None:
            m = q["mu"]
            _require_keys(m, ("atoms", "density_pos", "density_neg"), "mu")
            mu = SignedMeasure(
                atoms=tuple((float(y), float(w)) for y, w in m.get("atoms", ())),
                density_pos=(_density_from_json(m["density_pos"])
                             if m.get("density_pos") else None),
                density_neg=(_density_from_json(m["density_neg"])
                             if m.get("density_neg") else None))
        quad = LevyQuadruplet(float(q.get("psi0", 0.0)), float(q.get("b", 0.0)),
                              float(q.get("sigma2", 0.0)), mu)
    if pair is None and quad is None:
        raise ValidationError("exponent needs a 'pair' or a 'quadruplet'")
    return Exponent(quadruplet=quad, pair=pair)
