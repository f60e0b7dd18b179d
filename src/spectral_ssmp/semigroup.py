"""Semigroup evolution by diagonalization, generators, and tensor products.

The evolution of a Wiener-Hopf pair is P_t = H e_t H^{-1}, e_t the factor
e^{-t e^{-x}}.  evolve never applies the unbounded H or H^{-1} to data: on
the window [x_min, x_max) of length L, e_t = q + s with the sawtooth
s(x) = (x - x_min)/L - 1/2 and a smooth periodic q whose coefficients are
q_l = Gamma(i zeta_l) t^{-i zeta_l}/L (q_0 is the grid mean of e_t - s).
As [H, x] = -i (log m)'(D) H, P_t f is the band sum F^{-1}[m (q * (F f/m))]
plus s f - (i/L) F^{-1}[(log m)' F f].  The band's terms are bounded: q_l
decays like e^{-pi |zeta_l|/2}, faster than log m grows.  Each axis takes
one forward and one inverse transform; the gate reads the input's spectrum.

Two generator realizations are provided: the pseudo-differential form
A f = -e^{-x} F^{-1}[psi(xi) F f], and the integro-differential form built
directly from a quadruplet.  Their agreement on smooth inputs is one of
the standing cross-checks.
"""

from __future__ import annotations

import functools
import itertools
import warnings

import numpy as np

from .errors import DomainError, DomainWarning, ResolutionError
from .exponents import Exponent, LevyQuadruplet, WienerHopfPair, eval_psi
from .records import Record
from .special import log_gamma
from .transform import (
    GridFunction,
    GridSpec,
    _along,
    _fft_axis,
    _ifft_axis,
    _lambda_multiplier_line0,
    _log_w_lines,
    apply_multiplier,
    domain_gate,
    gaussian_fixture,
    multiplier_h,
    multiplier_lambda,
)

__all__ = ["EvolutionPlan", "TensorPlan", "mult_semigroup", "evolve",
           "evolve_tensor", "generator_pdo", "generator_ido", "ws_residual"]


# ---------------------------------------------------------------------------
# the multiplication semigroup and 1-d evolution
# ---------------------------------------------------------------------------

def mult_semigroup(t: float, f: GridFunction) -> GridFunction:
    """Pointwise multiplication by e^{-t e^{-x}} (the diagonal model)."""
    if not t >= 0:
        raise DomainError("t must be nonnegative")
    with np.errstate(over="ignore", under="ignore"):
        factor = np.exp(-t * np.exp(-f.spec.x))
    return GridFunction(f.spec, factor * f.values)


_BAND = 45.0  # |zeta| of q's band: |Gamma(i zeta)| is below 1e-30 beyond
_SLOPE_STEP = 1e-3  # xi step of the central difference of log m
_RISE = (3.0, 21.0)  # e_t < 2e-9 at log t - 3, 1 - e_t < 1e-9 at log t + 21


@functools.lru_cache(maxsize=64)
def _split_lines(pair: WienerHopfPair, spec: GridSpec):
    """(log m)'(xi_k), the 4th-order central difference of log m at xi +- h
    and xi +- 2h taken at xi >= 0, as (log m)'(-xi) = -conj (log m)'(xi);
    and Gamma(i zeta_l)/L on q's band, 0 at l = 0 (q_0 depends on t)."""
    pos = spec.dxi * np.arange(spec.n // 2 + 1)
    lw_p, lw_m = _log_w_lines(pair, spec, 0.5, np.concatenate(
        [pos + k * _SLOPE_STEP for k in (-2, -1, 1, 2)]))
    lm = (lw_p - lw_m).reshape(4, -1)
    d = (8.0 * (lm[2] - lm[1]) - lm[3] + lm[0]) / (12.0 * _SLOPE_STEP)
    d = d[np.abs(np.arange(spec.n) - spec.n // 2)]
    slope = np.where(spec.xi >= 0, d, -np.conj(d))
    nb = int(_BAND / spec.dxi)
    zeta = spec.dxi * np.arange(-nb, nb + 1)
    zeta[nb] = 1.0
    band = np.exp(log_gamma(1j * zeta)) / (spec.x_max - spec.x_min)
    band[nb] = 0.0
    for v in (slope, band):
        v.setflags(write=False)
    return slope, band


class EvolutionPlan(Record):
    """Per (pair, grid): the multiplier m, its slope (log m)', and
    Gamma(i zeta_l)/L on q's band, set by __post_init__."""

    pair: WienerHopfPair
    spec: GridSpec

    def __post_init__(self):
        object.__setattr__(self, "m", multiplier_h(self.pair, self.spec))
        slope, band = _split_lines(self.pair, self.spec)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "band", band)


def evolve(plan: EvolutionPlan, t: float, f: GridFunction) -> GridFunction:
    """Apply the semigroup at time t: the d = 1 case of evolve_tensor."""
    if f.spec != plan.spec:
        raise DomainError("grid mismatch")
    return GridFunction(plan.spec,
                        evolve_tensor(TensorPlan((plan,)), t, f.values))


def _split_step(work, plan, axis, t):
    """P_t along one axis of work: the band sum, without wrap, and the
    sawtooth's commutator term, then the periodic image of the output's
    left plateau (e^{-L/2} times its value at x_min) off every node."""
    spec, width = plan.spec, plan.spec.x_max - plan.spec.x_min
    if not spec.x_min + _RISE[0] <= np.log(t) <= spec.x_max - _RISE[1]:
        raise DomainError(f"e_t must rise from 0 to 1 inside the window: "
                          f"x_min + {_RISE[0]:g} <= log t <= x_max - "
                          f"{_RISE[1]:g} fails on axis {axis} at t = {t:g}")
    coef = _fft_axis(work, spec, axis)
    rec = domain_gate(coef, spec, axis)
    if rec.verdict == "outside":
        raise DomainError(
            f"the input is not resolved on axis {axis}: its spectral tail "
            f"fraction beyond half Nyquist is {rec.tail_fraction:.2e}")
    saw = (spec.x - spec.x_min) / width - 0.5
    nb = plan.band.size // 2
    q = plan.band * np.exp(-1j * np.log(t) * spec.dxi * np.arange(-nb, nb + 1))
    with np.errstate(over="ignore"):
        q[nb] = np.mean(np.exp(-t * np.exp(-spec.x)) - saw)
    m, slope, saw_k = (_along(v, work.ndim, axis)
                       for v in (plan.m.values, plan.slope, saw))
    smooth = np.apply_along_axis(lambda g: np.convolve(g, q)[nb:nb + spec.n],
                                 axis, coef / m)
    out = _ifft_axis(m * smooth - (1j / width) * slope * coef, spec, axis)
    out = out + saw_k * work
    return out - np.exp(-width / 2) * np.take(out, [0], axis=axis)


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
            raise DomainError(
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

def ws_residual(pair: WienerHopfPair, spec: GridSpec) -> float:
    """max over Gaussian centers a in {-2, 0, 2} of
    || A[psi] (Lambda f_a) - Lambda (A[psi0] f_a) ||_e / || Lambda A[psi0] f_a ||_e

    with f_a(x) = e^{-(x-a)^2} and psi0(xi) = xi^2.  The left side fuses
    A[psi] with Lambda spectrally (the plain-line multiplier of Lambda is
    exact there), which avoids resampling the intermediate Lambda f; the
    right side runs the two operators separately, so the comparison still
    crosses the functional equation between the two strip heights.
    """
    lam_e = multiplier_lambda(pair, spec)
    lam_0 = _lambda_multiplier_line0(pair, spec)
    e_pair = Exponent(pair=pair)
    e0 = Exponent(quadruplet=LevyQuadruplet(sigma2=1.0))
    psi_vals = eval_psi(e_pair, spec.xi)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        for a in (-2.0, 0.0, 2.0):
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

class TensorPlan(Record):
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
        if (m.shape != (d, d) or not np.all(np.isfinite(m))
                or abs(np.linalg.det(m)) < 1e-12):
            raise DomainError("matrix_m must be d x d, finite and invertible")
        object.__setattr__(self, "matrix_m", m)

    @property
    def is_identity(self):
        return np.array_equal(self.matrix_m, np.eye(len(self.plans)))


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
            raise ResolutionError(
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


def evolve_tensor(plan: TensorPlan, t: float,
                  values: np.ndarray) -> np.ndarray:
    """d-dimensional evolution: one split step per axis, since H acts per
    axis and e^{-t sum e^{-x_k}} = prod e^{-t e^{-x_k}}; M by resampling."""
    values = np.array(values, dtype=complex)
    if values.shape != tuple(p.spec.n for p in plan.plans):
        raise DomainError("value array must match the product grid")
    if not t >= 0:
        raise DomainError("t must be nonnegative")
    work = values if plan.is_identity else _resample(values, plan.plans,
                                                     plan.matrix_m)
    for k, p in enumerate(plan.plans if t > 0 else ()):
        work = _split_step(work, p, k, t)
    if not plan.is_identity:
        work = _resample(work, plan.plans, np.linalg.inv(plan.matrix_m))
    return work
