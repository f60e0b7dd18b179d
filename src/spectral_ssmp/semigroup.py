"""Semigroup evolution by diagonalization, generators, and tensor products.

The evolution attached to a Wiener-Hopf pair is the sandwich

    P_t f = H ( e_t ( H^{-1} f ) ),    e_t g(x) = e^{-t e^{-x}} g(x),

realized by two multiplier applications around a pointwise multiplication.
The 1-d evolve is the d = 1 case of the tensor evolution.  H^{-1} and H
run through one per-axis step: one forward transform, divided or
multiplied by m, feeds both transform.domain_gate and the inverse
transform.  The gate reads the product on every axis and in both
directions, so an input outside the discretized domain of H^{-1}, or an
output that H amplifies past the grid's resolution (as for a residual
spectrum on a wide grid, where |m| grows exponentially), raises
DomainError; only evolve takes force=True to override it.

Two generator realizations are provided: the pseudo-differential form
A f = -e^{-x} F^{-1}[psi(xi) F f], and the integro-differential form built
directly from a quadruplet.  Their agreement on smooth inputs is one of
the standing cross-checks.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ConditionError,
    DomainError,
    DomainWarning,
    InterpolationError,
)
from .exponents import Exponent, LevyQuadruplet, WienerHopfPair, eval_psi
from .transform import (
    GridFunction,
    GridSpec,
    MultiplierLine,
    _along,
    _fft_axis,
    _ifft_axis,
    _lambda_multiplier_line0,
    apply_multiplier,
    domain_gate,
    gaussian_fixture,
    multiplier_h,
    multiplier_lambda,
)

__all__ = [
    "EvolutionPlan",
    "TensorPlan",
    "mult_semigroup",
    "evolve",
    "evolve_tensor",
    "generator_pdo",
    "generator_ido",
    "ws_residual",
]


# ---------------------------------------------------------------------------
# the multiplication semigroup and 1-d evolution
# ---------------------------------------------------------------------------

def mult_semigroup(t: float, f: GridFunction) -> GridFunction:
    """Pointwise multiplication by e^{-t e^{-x}} (the diagonal model)."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    with np.errstate(over="ignore", under="ignore"):
        factor = np.exp(-t * np.exp(-f.spec.x))
    return GridFunction(f.spec, factor * f.values)


@dataclass(frozen=True)
class EvolutionPlan:
    """Cached diagonalization data for one pair on one grid."""

    pair: WienerHopfPair
    spec: GridSpec
    tol: float = 1e-10
    m: MultiplierLine = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "m", multiplier_h(self.pair, self.spec,
                                                   tol=self.tol))


def evolve(plan: EvolutionPlan, t: float, f: GridFunction,
           force: bool = False) -> GridFunction:
    """Apply the semigroup at time t through the diagonalization.

    The d = 1 case of evolve_tensor; force=True overrides the domain gate.
    """
    if f.spec != plan.spec:
        raise DomainError("grid mismatch")
    return GridFunction(plan.spec, _evolve_axes((plan,), t, f.values, force))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generator_pdo(e: Exponent, f: GridFunction) -> GridFunction:
    """A f(x) = -e^{-x} (2 pi)^{-1/2} integral e^{i xi x} psi(xi) Ff(xi) dxi.

    Realized with the plain transform on the same grid; warns when f is not
    smooth at grid scale (the domain gate does not read F f inside).
    """
    spec = f.spec
    s = _fft_axis(f.values, spec, weight=0.0)
    if domain_gate(s, spec).verdict != "inside":
        warnings.warn("input spectrum carries mass beyond half Nyquist; "
                      "the symbol application is under-resolved",
                      DomainWarning, stacklevel=2)
    psi_vals = eval_psi(e, spec.xi)
    out = _ifft_axis(psi_vals * s, spec, weight=0.0)
    return GridFunction(spec, -np.exp(-spec.x) * out)


_FD_STEP = 1e-4


def _check_big_jump_integrability(q: LevyQuadruplet):
    """Condition for the compensated-jump Taylor bound: either the jump
    measure integrates |y| beyond 1, or a positive killing/ladder value
    must be known.  The first is verifiable from the descriptor."""
    for d in (q.mu.density_pos, q.mu.density_neg):
        if d is not None and d.tail_exponent_inf <= 1.0:
            raise ConditionError(
                "integral_{|y|>1} |y| mu(dy) diverges for the declared tail "
                "exponent; the integro-differential form is not certified")


def generator_ido(q: LevyQuadruplet, f, spec: GridSpec) -> GridFunction:
    """Integro-differential generator from a quadruplet:

        A f(x) = e^{-x} ( sigma^2 f'' + b f' - psi(0) f
                          + integral (f(x+y) - f(x) - y 1_{|y|<=1} f'(x)) mu(dy) ).

    f is a smooth callable, evaluated on the grid of spec and at its shifts;
    f' and f'' are central differences of step _FD_STEP.  Grid samples go
    to generator_pdo: their one exact interpolant is the trigonometric one,
    under which the shifts f(x+y) become e^{i xi y} and this form is the
    pseudo-differential one.
    """
    if not callable(f):
        raise DomainError("generator_ido takes a callable; apply "
                          "generator_pdo to grid samples")
    _check_big_jump_integrability(q)
    x, h = spec.x, _FD_STEP
    f0, f_up, f_dn = f(x), f(x + h), f(x - h)
    f1 = (f_up - f_dn) / (2 * h)
    f2 = (f_up - 2.0 * f0 + f_dn) / (h * h)
    vals = (q.sigma2 * f2 + q.b * f1 - q.psi0 * f0).astype(complex)
    y, w, sides = q.mu.discretized()
    span = 700.0  # evaluation guard for the far remainder mass
    shifted = f(x[:, None] + np.clip(y, -span, span)[None, :])
    comp = np.where(np.abs(y) <= 1.0, y, 0.0)
    vals = vals + (shifted - f0[:, None]) @ w - f1 * float(comp @ w)
    for sign, rule in sides:
        # the remainder mass beyond the nodes acts like a shift to infinity,
        # the head below the table by its second-order Taylor term
        vals = (vals + rule.rem * (f(x + sign * span) - f0)
                + 0.5 * f2 * rule.moment(rule.y_min))
    return GridFunction(spec, np.exp(-x) * vals)


# ---------------------------------------------------------------------------
# weak-similarity residual
# ---------------------------------------------------------------------------

def ws_residual(pair: WienerHopfPair, spec: GridSpec,
                centers: Sequence[float] = (-2.0, 0.0, 2.0),
                tol: float = 1e-10) -> float:
    """max over Gaussian centers a of
    || A[psi] (Lambda f_a) - Lambda (A[psi0] f_a) ||_e / || Lambda A[psi0] f_a ||_e

    with f_a(x) = e^{-(x-a)^2} and psi0(xi) = xi^2.  The left side fuses
    A[psi] with Lambda spectrally (the plain-line multiplier of Lambda is
    exact there), which avoids resampling the intermediate Lambda f; the
    right side runs the two operators separately, so the comparison still
    crosses the functional equation between the two strip heights.
    """
    lam_e = multiplier_lambda(pair, spec, tol=tol)
    lam_0 = _lambda_multiplier_line0(pair, spec, tol)
    e_pair = Exponent(pair=pair)
    e0 = Exponent(quadruplet=LevyQuadruplet(sigma2=1.0))
    psi_vals = eval_psi(e_pair, spec.xi)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        for a in centers:
            f = gaussian_fixture(spec, a)
            fhat = _fft_axis(f.values, spec, weight=0.0)
            fused = _ifft_axis(psi_vals * lam_0 * fhat, spec, weight=0.0)
            lhs = GridFunction(spec, -np.exp(-spec.x) * fused)
            rhs = apply_multiplier(lam_e, generator_pdo(e0, f))
            diff = GridFunction(spec, lhs.values - rhs.values)
            denom = rhs.norm_e()
            if denom == 0.0:
                raise DomainError("degenerate reference side")
            worst = max(worst, diff.norm_e() / denom)
    return worst


# ---------------------------------------------------------------------------
# tensor evolution (d <= 3) with an invertible similarity matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorPlan:
    """Per-axis 1-d plans plus the similarity matrix M (weight e(M^{-1}x))."""

    plans: tuple  # of EvolutionPlan, length d <= 3
    matrix_m: np.ndarray = None

    def __post_init__(self):
        d = len(self.plans)
        if not 1 <= d <= 3:
            raise DomainError("tensor evolution supports d in {1, 2, 3}")
        m = self.matrix_m
        if m is None:
            m = np.eye(d)
        m = np.asarray(m, dtype=float)
        if m.shape != (d, d) or abs(np.linalg.det(m)) < 1e-12:
            raise DomainError("matrix_m must be d x d and invertible")
        object.__setattr__(self, "matrix_m", m)

    @property
    def dim(self):
        return len(self.plans)

    @property
    def is_identity(self):
        return np.array_equal(self.matrix_m, np.eye(self.dim))


_PAD_CELLS = 8


def _resample(values, plans, mat):
    """values(M x) on the product grid by multilinear interpolation, 0
    outside the sampled box; M may map the grid at most _PAD_CELLS cells
    outside it."""
    axes = [p.spec.x for p in plans]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = mat @ np.stack([m.ravel() for m in mesh])
    inside = np.ones(values.size, dtype=bool)
    flat_cell = np.zeros(values.size, dtype=np.intp)
    fracs = []
    for x, p, xm in zip(axes, plans, coords):
        u = (xm - x[0]) / p.spec.dx  # fractional cell index
        overshoot = np.maximum(u - (len(x) - 1), -u).max()
        if overshoot > _PAD_CELLS:
            raise InterpolationError(
                f"similarity matrix maps the grid {overshoot:.1f} cells "
                f"outside the sampled box (padding margin {_PAD_CELLS})")
        inside &= (xm >= x[0]) & (xm <= x[-1])
        cell = np.clip(np.floor(u).astype(np.intp), 0, len(x) - 2)
        flat_cell = flat_cell * len(x) + cell
        fracs.append(u - cell)
    flat = values.ravel()
    out = np.zeros(values.size, dtype=values.dtype)
    for corner in itertools.product((0, 1), repeat=len(axes)):
        weight = np.ones(values.size)
        for c, frac in zip(corner, fracs):
            weight *= frac if c else 1.0 - frac
        out += weight * flat[flat_cell + np.ravel_multi_index(corner,
                                                               values.shape)]
    return np.where(inside, out, 0.0).reshape(values.shape)


def _multiplier_step(work, plan, axis, invert, force):
    """H^{-1} (invert) or H along one axis of work.

    The product F^e / m or F^e * m is gated before anything is dropped: if
    the domain gate reads it outside, DomainError is raised unless force is
    given.  The step then drops the coefficients of F^e at or below the
    transform's rounding floor, eps * ||F^e||_2 along the axis: they carry
    no information, and multiplied by |m|^{+-1} (1/|m| reaches 1.8e8 for
    the Point gamma pair on 512 points, |m| 2.5e5 for the Residual one)
    their noise would swamp the result.
    """
    coef = _fft_axis(work, plan.spec, axis)
    m = _along(plan.m.values, work.ndim, axis)
    product = coef / m if invert else coef * m
    rec = domain_gate(product, plan.spec, axis)
    if rec.verdict == "outside" and not force:
        raise DomainError(
            f"input is outside the discretized domain of "
            f"{'H^-1' if invert else 'H'} on axis {axis} (tail fraction "
            f"{rec.tail_fraction:.2e}); evolve takes force=True to override")
    floor = np.finfo(float).eps * np.sqrt(
        np.sum(np.abs(coef) ** 2, axis=axis, keepdims=True))
    return _ifft_axis(np.where(np.abs(coef) > floor, product, 0.0),
                      plan.spec, axis)


def _evolve_axes(plans, t, work, force=False):
    """P_t on the product grid of the per-axis plans: H^{-1} axis by axis,
    the joint factor e^{-t sum_k e^{-x_k}}, then H axis by axis, each
    axis one gated multiplier step."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    for k, p in enumerate(plans):
        work = _multiplier_step(work, p, k, True, force)
    expo = np.zeros(work.shape)
    for k, p in enumerate(plans):
        expo = expo + _along(np.exp(-p.spec.x), work.ndim, k)
    with np.errstate(over="ignore", under="ignore"):
        work = work * np.exp(-t * expo)
    for k, p in enumerate(plans):
        work = _multiplier_step(work, p, k, False, force)
    return work


def evolve_tensor(plan: TensorPlan, t: float,
                  values: np.ndarray) -> np.ndarray:
    """d-dimensional evolution: per-axis diagonalization around the joint
    multiplication factor e^{-t sum_k e^{-y_k}}; M-similarity by resampling.

    The domain gate of evolve runs on every axis, without an override.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape != tuple(p.spec.n for p in plan.plans):
        raise DomainError("value array must match the product grid")
    work = values if plan.is_identity else _resample(values, plan.plans,
                                                     plan.matrix_m)
    work = _evolve_axes(plan.plans, t, work)
    if not plan.is_identity:
        work = _resample(work, plan.plans, np.linalg.inv(plan.matrix_m))
    return work
