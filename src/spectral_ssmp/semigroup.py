"""Semigroup evolution by diagonalization, generators, and tensor products.

The evolution attached to a Wiener-Hopf pair is the sandwich

    P_t f = H ( e_t ( H^{-1} f ) ),    e_t g(x) = e^{-t e^{-x}} g(x),

realized by two multiplier applications around a pointwise multiplication.
The 1-d evolve is the d = 1 case of the tensor evolution: one forward
transform per axis, divided by m, feeds both the domain gate and the
inverse step.  The membership of f in the domain of H^{-1} is gated on
every axis by the discrete spectral-tail surrogate (the tail fraction of
domain_check); only evolve takes force=True to override the gate.

Two generator realizations are provided: the pseudo-differential form
A f = -e^{-x} F^{-1}[psi(xi) F f], and the integro-differential form built
directly from a quadruplet.  Their agreement on smooth inputs is one of
the standing cross-checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bernstein import _density_nodes, _tail_consts
from .errors import (
    ConditionError,
    DomainError,
    DomainWarning,
    InterpolationError,
    QuadratureError,
)
from .exponents import Exponent, LevyQuadruplet, WienerHopfPair, eval_psi
from .transform import (
    TAIL_FRACTION_BORDERLINE,
    GridFunction,
    GridSpec,
    MultiplierLine,
    _along,
    _fft_axis,
    _ifft_axis,
    apply_multiplier,
    gaussian_fixture,
    multiplier_h,
    multiplier_lambda,
    tail_fraction,
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
    inverse_ok: bool = field(init=False)

    def __post_init__(self):
        line = multiplier_h(self.pair, self.spec, tol=self.tol)
        object.__setattr__(self, "m", line)
        object.__setattr__(self, "inverse_ok", bool(line.zero_free))


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
    smooth at grid scale (spectral tail mass above the inside threshold).
    """
    spec = f.spec
    s = _fft_axis(f.values, spec, weight=0.0)
    if tail_fraction(s, spec) > 1e-6:
        warnings.warn("input spectrum carries mass beyond half Nyquist; "
                      "the symbol application is under-resolved",
                      DomainWarning, stacklevel=2)
    psi_vals = eval_psi(e, spec.xi)
    out = _ifft_axis(psi_vals * s, spec, weight=0.0)
    return GridFunction(spec, -np.exp(-spec.x) * out)


def _derivatives(f, spec, order_h=1e-4):
    """First and second derivatives of f: spline for samples, finite
    differences for callables."""
    if isinstance(f, GridFunction):
        from scipy.interpolate import CubicSpline
        cs = CubicSpline(f.spec.x, f.values.real)
        return (lambda x: cs(x),
                lambda x: cs(x, 1),
                lambda x: cs(x, 2))
    h = order_h

    def d1(x):
        return (f(x + h) - f(x - h)) / (2 * h)

    def d2(x):
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)

    return f, d1, d2


def _check_big_jump_integrability(q: LevyQuadruplet):
    """Condition for the compensated-jump Taylor bound: either the jump
    measure integrates |y| beyond 1, or a positive killing/ladder value
    must be known.  The first is verifiable from the descriptor."""
    for d in (q.mu.density_pos, q.mu.density_neg):
        if d is not None and d.tail_exponent_inf <= 1.0:
            raise ConditionError(
                "integral_{|y|>1} |y| mu(dy) diverges for the declared tail "
                "exponent; the integro-differential form is not certified")


def generator_ido(q: LevyQuadruplet, f, spec: Optional[GridSpec] = None
                  ) -> GridFunction:
    """Integro-differential generator from a quadruplet:

        A f(x) = e^{-x} ( sigma^2 f'' + b f' - psi(0) f
                          + integral (f(x+y) - f(x) - y 1_{|y|<=1} f'(x)) mu(dy) ).

    f may be a GridFunction (cubic-spline derivatives) or a smooth callable
    together with a grid spec.
    """
    _check_big_jump_integrability(q)
    if isinstance(f, GridFunction):
        spec = f.spec
    elif spec is None:
        raise DomainError("a grid spec is required for callable inputs")
    f0, f1, f2 = _derivatives(f, spec)
    x = spec.x
    vals = (q.sigma2 * f2(x) + q.b * f1(x) - q.psi0 * f0(x)).astype(complex)
    fp = f1(x)
    for y, m in q.mu.atoms:
        comp = y * fp if abs(y) <= 1.0 else 0.0
        vals = vals + m * (f0(x + y) - f0(x) - comp)
    for dens, sign in ((q.mu.density_pos, +1), (q.mu.density_neg, -1)):
        if dens is None:
            continue
        nodes, wts, rem = _density_nodes(dens)
        yy = sign * nodes
        span = 700.0  # evaluation guard for the far remainder mass
        shifted = f0(x[:, None] + np.clip(yy, -span, span)[None, :])
        comp = np.where(np.abs(yy) <= 1.0, yy, 0.0)
        vals = vals + (shifted - f0(x)[:, None]) @ wts - fp * float(comp @ wts)
        # remainder mass beyond the node span acts like a shift to infinity
        vals = vals + rem * (f0(x + sign * span) - f0(x))
        # analytic second-order piece below the table
        y0, _, a0, _, c0, _ = _tail_consts(dens)
        if c0 > 0:
            if a0 >= 2.0:
                raise QuadratureError("near-zero exponent >= 2 is not a "
                                      "Levy density")
            vals = vals + 0.5 * f2(x) * c0 * y0 ** (2.0 - a0) / (2.0 - a0)
    return GridFunction(spec, np.exp(-x) * vals)


# ---------------------------------------------------------------------------
# weak-similarity residual
# ---------------------------------------------------------------------------

def _lambda_multiplier_line0(pair: WienerHopfPair, spec: GridSpec, tol: float):
    """The similarity multiplier on the unshifted line,
    m(xi) = W_+(-i xi) Gamma(1 + i xi) / (W_-(1 + i xi) Gamma(-i xi)),
    regularized at xi = 0 through W(z) = W(z+1)/phi(z)."""
    from .bernstein import default_evaluator, eval_phi, phi_derivative
    from .special import log_gamma

    zmax = float(np.hypot(1.0, spec.nyquist)) + 2.0
    ev_p = default_evaluator(pair.phi_plus, tol, zmax)
    ev_m = default_evaluator(pair.phi_minus, tol, zmax)
    xi = spec.xi
    nz = xi != 0.0
    vals = np.empty(spec.n, dtype=complex)
    x_nz = xi[nz]
    # regularized form: (-i xi)/Gamma(1 - i xi) replaces 1/Gamma(-i xi)
    log_num = (ev_p.log_w(1.0 - 1j * x_nz) + log_gamma(1.0 + 1j * x_nz)
               - np.log(eval_phi(pair.phi_plus, -1j * x_nz)))
    log_den = ev_m.log_w(1.0 + 1j * x_nz) + log_gamma(1.0 - 1j * x_nz)
    vals[nz] = (-1j * x_nz) * np.exp(log_num - log_den)
    if np.any(~nz):
        phi0 = float(eval_phi(pair.phi_plus, 0.0).real)
        if phi0 > 0.0:
            limit = 0.0
        else:
            dphi0 = float(np.asarray(phi_derivative(pair.phi_plus, 1e-8)))
            w_m1 = float(ev_m.w(1.0 + 0j).real)
            limit = 1.0 / (dphi0 * w_m1)
        vals[~nz] = limit
    return vals


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
        return np.allclose(self.matrix_m, np.eye(self.dim), atol=1e-15)


def _resample(values, plans, mat, pad_cells=8):
    """values(M x) on the product grid by multilinear interpolation."""
    from scipy.interpolate import interpn
    axes = [p.spec.x for p in plans]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1) @ mat.T
    for k, p in enumerate(plans):
        overshoot = np.maximum(pts[:, k] - p.spec.x[-1],
                               p.spec.x[0] - pts[:, k]).max()
        if overshoot > pad_cells * p.spec.dx:
            raise InterpolationError(
                f"similarity matrix maps the grid {overshoot / p.spec.dx:.1f} "
                f"cells outside the sampled box (padding margin {pad_cells})")
    out = interpn(tuple(axes), values, pts, method="linear",
                  bounds_error=False, fill_value=0.0)
    return out.reshape(values.shape)


def _evolve_axes(plans, t, work, force=False):
    """P_t on the product grid of the per-axis plans: H^{-1} axis by axis,
    the joint factor e^{-t sum_k e^{-x_k}}, then H axis by axis.

    Each H^{-1} step is gated: if F^e / m carries more than
    TAIL_FRACTION_BORDERLINE of its mass beyond half Nyquist along that
    axis, DomainError is raised unless force is given.  The inverse itself
    then drops the coefficients of F^e below the transform's rounding
    floor, eps * ||F^e||_2 along the axis, before dividing by m.
    """
    if t < 0:
        raise DomainError("t must be nonnegative")
    d = len(plans)
    for k, p in enumerate(plans):
        coef = _fft_axis(work, p.spec, k)
        quotient = coef / _along(p.m.values, d, k)
        frac = tail_fraction(quotient, p.spec, k)
        if not frac <= TAIL_FRACTION_BORDERLINE and not force:
            raise DomainError(
                f"input is outside the discretized domain of H^-1 on axis "
                f"{k} (tail fraction {frac:.2e}); evolve takes force=True "
                "to override")
        # the transform leaves every coefficient with rounding noise of order
        # eps * ||coef||_2 along the axis; a coefficient below that carries
        # no information, and divided by |m| (down to 5e-9 for a gamma pair
        # on 512 points) its noise would swamp the result
        floor = np.finfo(float).eps * np.sqrt(
            np.sum(np.abs(coef) ** 2, axis=k, keepdims=True))
        spec_hat = np.where(np.abs(coef) > floor, quotient, 0.0)
        work = _ifft_axis(spec_hat, p.spec, k)
    expo = np.zeros(work.shape)
    for k, p in enumerate(plans):
        expo = expo + _along(np.exp(-p.spec.x), d, k)
    with np.errstate(over="ignore", under="ignore"):
        work = work * np.exp(-t * expo)
    for k, p in enumerate(plans):
        spec_hat = _fft_axis(work, p.spec, k) * _along(p.m.values, d, k)
        work = _ifft_axis(spec_hat, p.spec, k)
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
