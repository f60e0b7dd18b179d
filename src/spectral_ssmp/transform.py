"""Shifted Fourier transform on a uniform grid and multiplier operators.

The shifted transform of f in L^2(R, e^x dx) is the ordinary Fourier
transform of e^{x/2} f(x); it is unitary onto L^2(R).  On an n-point grid
x_j = x_min + j dx with centered frequencies xi_k = 2 pi (k - n/2)/(n dx),

    F_k = (dx / sqrt(2 pi)) e^{-i xi_k x_min} DFT_k[(-1)^j e^{x_j/2} f_j],

and the inverse reverses each step, making the round trip exact up to FFT
rounding.  One kernel does this along any axis of an array, with the
weight e^{x/2} or, for the plain transform of PDO symbols, none.  Multiplier operators act by pointwise multiplication on that
frequency side; the diagonalizing multiplier of a Wiener-Hopf pair is

    m(xi) = W_plus(1/2 - i xi) / W_minus(1/2 + i xi),

evaluated once per (pair, grid) and cached in the MultiplierLine.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
import numpy as np

from .bernstein import default_evaluator, eval_phi, phi_derivative
from .errors import DomainError, DomainWarning
from .exponents import WienerHopfPair
from .special import log_gamma

TAIL_FRACTION_INSIDE = 1e-6
TAIL_FRACTION_BORDERLINE = 1e-3
_LOG_CLAMP = 700.0  # |log m| bound of the multiplier line, e^700 = 1e304


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [x_min, x_max) with n a power of two (>= 256)."""

    x_min: float = -20.0
    x_max: float = 40.0
    n: int = 4096

    def __post_init__(self):
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise DomainError("the window needs finite x_min below x_max")
        try:
            n = operator.index(self.n)
        except TypeError:
            raise DomainError("n must be an integer") from None
        if n < 256 or n & (n - 1):
            raise DomainError("n must be a power of two, at least 2**8")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.n

    @property
    def x(self):
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def xi(self):
        return 2.0 * np.pi * (np.arange(self.n) - self.n / 2) / (self.n * self.dx)

    @property
    def dxi(self):
        return 2.0 * np.pi / (self.n * self.dx)

    @property
    def nyquist(self):
        return np.pi / self.dx


def _freeze_samples(obj, side):
    """obj.values as a read-only complex array of the grid's length."""
    v = np.array(obj.values, dtype=complex)
    if v.shape != (obj.spec.n,):
        raise DomainError("values must match the grid length")
    if side is not None and not np.all(np.isfinite(v)):
        raise DomainError(f"{side} samples must be finite")
    v.setflags(write=False)
    object.__setattr__(obj, "values", v)
    return v


@dataclass(frozen=True)
class GridFunction:
    """Complex samples f(x_j) on the physical side."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        _freeze_samples(self, "grid")

    def norm_e(self):
        """Discrete L^2(e)-norm: sqrt(dx * sum |f|^2 e^x)."""
        w = np.exp(self.spec.x)
        return float(np.sqrt(self.spec.dx * np.sum(np.abs(self.values) ** 2 * w)))


@dataclass(frozen=True)
class SpectrumLine:
    """Complex samples on the centered frequency grid xi_k."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        _freeze_samples(self, "spectrum")

    def norm(self):
        return float(np.sqrt(self.spec.dxi * np.sum(np.abs(self.values) ** 2)))


@dataclass(frozen=True)
class MultiplierLine:
    """Zero-free samples of a Fourier multiplier m(xi_k) on a grid."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if np.any(np.abs(_freeze_samples(self, None)) == 0.0):
            raise DomainError("a multiplier line must be zero-free")


def inner_e(f: GridFunction, g: GridFunction) -> complex:
    """<f, g> in L^2(e) on the grid (conjugate-linear in g)."""
    if f.spec != g.spec:
        raise DomainError("grid mismatch")
    w = np.exp(f.spec.x)
    return complex(f.spec.dx * np.sum(f.values * np.conj(g.values) * w))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def h_fixture(spec: GridSpec, eps: float, beta: float) -> GridFunction:
    """The test function e^{-(1/2+eps)x} e^{-beta e^{-x}}.

    Decays double-exponentially to the left and exponentially to the right,
    so the default asymmetric window keeps aliasing negligible.  Its shifted
    transform is beta^{-eps-i xi} Gamma(eps + i xi) / sqrt(2 pi), and the
    multiplication semigroup shifts beta to beta + t.
    """
    if eps <= 0 or beta <= 0:
        raise DomainError("the fixture needs eps > 0 and beta > 0")
    x = spec.x
    with np.errstate(over="ignore"):
        vals = np.exp(-(0.5 + eps) * x - beta * np.exp(-x))
    return GridFunction(spec, np.nan_to_num(vals, nan=0.0, posinf=0.0))


def gaussian_fixture(spec: GridSpec, center: float = 0.0) -> GridFunction:
    """e^{-(x-a)^2}, the generator test family."""
    return GridFunction(spec, np.exp(-(spec.x - center) ** 2))


def h_transform_exact(spec: GridSpec, eps: float, beta: float) -> SpectrumLine:
    """Closed-form shifted transform of the fixture above."""
    xi = spec.xi
    vals = (beta ** (-eps - 1j * xi) * np.exp(log_gamma(eps + 1j * xi))
            / np.sqrt(2.0 * np.pi))
    return SpectrumLine(spec, vals)


# ---------------------------------------------------------------------------
# the transform pair
# ---------------------------------------------------------------------------

def _along(v, ndim, axis):
    """A grid-length vector shaped to broadcast along one axis of an array."""
    shape = [1] * ndim
    shape[axis] = v.size
    return v.reshape(shape)


def _fft_axis(arr, spec, axis=0, weight=0.5):
    """Forward transform along one axis: weight by e^{weight x}, alternate
    signs, FFT, phase, scale.  weight 1/2 is the shifted transform, 0 the
    plain one used for PDO symbols."""
    signs = np.where(np.arange(spec.n) % 2 == 0, 1.0, -1.0)
    if weight:
        arr = _along(np.exp(weight * spec.x), arr.ndim, axis) * arr
    fhat = np.fft.fft(arr * _along(signs, arr.ndim, axis), axis=axis)
    phase = np.exp(-1j * spec.xi * spec.x_min)
    return (spec.dx / np.sqrt(2.0 * np.pi)) * _along(phase, arr.ndim, axis) * fhat


def _ifft_axis(arr, spec, axis=0, weight=0.5):
    """Inverse of _fft_axis with the same axis and weight."""
    phase = np.exp(1j * spec.xi * spec.x_min)
    back = np.fft.ifft(_along(phase, arr.ndim, axis) * arr, axis=axis) * spec.n
    signs = np.where(np.arange(spec.n) % 2 == 0, 1.0, -1.0)
    out = (spec.dxi / np.sqrt(2.0 * np.pi)) * _along(signs, arr.ndim, axis) * back
    if weight:
        out = out * _along(np.exp(-weight * spec.x), arr.ndim, axis)
    return out


def shifted_fft(f: GridFunction) -> SpectrumLine:
    """Discrete shifted Fourier transform (unitary onto the xi grid)."""
    return SpectrumLine(f.spec, _fft_axis(f.values, f.spec))


def inverse_shifted_fft(s: SpectrumLine) -> GridFunction:
    """Inverse of shifted_fft; the composition is the identity to 1e-12."""
    return GridFunction(s.spec, _ifft_axis(s.values, s.spec))


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def multiplier_h(pair: WienerHopfPair, spec: GridSpec, /) -> MultiplierLine:
    """m(xi_k) = W_plus(1/2 - i xi_k) / W_minus(1/2 + i xi_k); zero-free.

    Uses the conjugate symmetry W(conj z) = conj W(z) to evaluate each
    Bernstein-gamma function on half the line only.  The arguments are
    positional-only, so every call keys the one cache entry of its
    (pair, grid): the Bernstein-gamma product is the expensive kernel.
    """
    lw_p, lw_m = _log_w_lines(pair, spec, 0.5, spec.xi)
    return MultiplierLine(spec, _clamped_exp(lw_p - lw_m))


def _log_w_lines(pair: WienerHopfPair, spec: GridSpec, a: float, xi):
    """(log W_+(a - i xi), log W_-(a + i xi)) for a 1-d xi, from the shared
    W evaluators of both factors, whose horizon covers every |1/2 +- i xi|
    and |1 +- i xi| on spec.  Each is evaluated at the distinct |xi| only,
    W(conj z) = conj W(z), and one factor for both sides, as for (id, id),
    takes one log W."""
    zmax = float(np.hypot(0.5, spec.nyquist)) + 2.0
    ev_p = default_evaluator(pair.phi_plus, zmax=zmax)
    ev_m = default_evaluator(pair.phi_minus, zmax=zmax)
    pos, inv = np.unique(np.abs(xi), return_inverse=True)

    def line(ev):
        lw = ev.log_w(a + 1j * pos)[inv]
        return np.where(xi < 0, np.conj(lw), lw)

    lw_m = line(ev_m)
    return np.conj(lw_m if ev_p is ev_m else line(ev_p)), lw_m


def _clamped_exp(lw):
    """e^lw with Re lw clamped at +-_LOG_CLAMP, and a DomainWarning that
    counts the clamped samples.  The multipliers are zero-free in exact
    arithmetic; the clamp at the double-precision exponent boundary keeps
    under/overflow from breaking that on very wide frequency grids."""
    clamped = np.abs(lw.real) > _LOG_CLAMP
    if np.any(clamped):
        extreme = lw.real[np.argmax(np.abs(lw.real))]
        warnings.warn(
            f"{np.count_nonzero(clamped)} of {lw.size} multiplier samples "
            f"have |log m| > {_LOG_CLAMP:g} (extreme log|m| = {extreme:.4g}); "
            f"their log|m| is clamped at +-{_LOG_CLAMP:g}", DomainWarning,
            stacklevel=3)
    return np.exp(np.clip(lw.real, -_LOG_CLAMP, _LOG_CLAMP) + 1j * lw.imag)


def _lambda_multiplier_line0(pair: WienerHopfPair, spec: GridSpec):
    """The similarity multiplier on the unshifted line,
    m(xi) = W_+(-i xi) Gamma(1 + i xi) / (W_-(1 + i xi) Gamma(-i xi)),
    regularized at xi = 0 through W(z) = W(z+1)/phi(z)."""
    xi = spec.xi
    nz = xi != 0.0
    vals = np.empty(spec.n, dtype=complex)
    x_nz = xi[nz]
    # regularized form: (-i xi)/Gamma(1 - i xi) replaces 1/Gamma(-i xi);
    # log Gamma(1 - i xi) = conj log Gamma(1 + i xi)
    log_g = log_gamma(1.0 + 1j * x_nz)
    lw_p, lw_m = _log_w_lines(pair, spec, 1.0, x_nz)
    log_num = lw_p + log_g - np.log(eval_phi(pair.phi_plus, -1j * x_nz))
    log_den = lw_m + np.conj(log_g)
    vals[nz] = (-1j * x_nz) * _clamped_exp(log_num - log_den)
    if np.any(~nz):
        phi0 = float(eval_phi(pair.phi_plus, 0.0).real)
        if phi0 > 0.0:
            limit = 0.0
        else:  # 1 / (phi_+'(0+) W_-(1)), where W_-(1) = 1; 0 if phi_+'(0+)
            # is infinite
            limit = 1.0 / phi_derivative(pair.phi_plus, 0.0)
        vals[~nz] = limit
    return vals


def multiplier_lambda(pair: WienerHopfPair, spec: GridSpec) -> MultiplierLine:
    """The H multiplier times the unimodular phase
    Gamma(1/2 + i xi)/Gamma(1/2 - i xi)."""
    base = multiplier_h(pair, spec)
    xi = base.spec.xi
    # log Gamma(conj z) = conj log Gamma(z), so the phase is exp(2i Im)
    phase = np.exp(2j * log_gamma(0.5 + 1j * xi).imag)
    return MultiplierLine(base.spec, base.values * phase)


@dataclass(frozen=True)
class DomainRecord:
    """The half-Nyquist domain gate's reading: the fraction of the discrete
    L^2 mass beyond half the Nyquist frequency, and its verdict
    (inside <= 1e-6 < borderline <= 1e-3 < outside)."""

    tail_fraction: float
    verdict: str  # "inside" | "borderline" | "outside"


def domain_gate(values, spec: GridSpec, axis: int = 0) -> DomainRecord:
    """Gate an array whose axis lies on spec's xi grid: the discrete
    surrogate for its preimage falling outside the operator domain is its
    spectral mass beyond half Nyquist along that axis.  A spectrum that is
    not finite, or whose power overflows, reads outside."""
    with np.errstate(over="ignore"):
        power = np.abs(values) ** 2
        total = float(np.sum(power))
    if not np.isfinite(total):
        return DomainRecord(float("nan"), "outside")
    outer = np.abs(spec.xi) > 0.5 * spec.nyquist
    frac = (float(np.sum(np.compress(outer, power, axis=axis))) / total
            if total else 0.0)
    if frac <= TAIL_FRACTION_INSIDE:
        return DomainRecord(frac, "inside")
    if frac <= TAIL_FRACTION_BORDERLINE:
        return DomainRecord(frac, "borderline")
    return DomainRecord(frac, "outside")


def apply_multiplier(m: MultiplierLine, f: GridFunction,
                     invert: bool = False) -> GridFunction:
    """inverse_shifted_fft(m^{+-1} * shifted_fft(f)); linear in f.

    Emits a DomainWarning when the domain gate does not read the
    post-multiplication spectrum inside.
    """
    if f.spec != m.spec:
        raise DomainError("grid mismatch between multiplier and function")
    s = shifted_fft(f)
    vals = s.values / m.values if invert else s.values * m.values
    rec = domain_gate(vals, m.spec)
    if rec.verdict != "inside":
        warnings.warn(
            f"spectral tail fraction {rec.tail_fraction:.2e} beyond "
            f"Nyquist/2 reads {rec.verdict}: input may lie outside the "
            "discretized operator domain", DomainWarning, stacklevel=2)
    return inverse_shifted_fft(SpectrumLine(m.spec, vals))


def domain_check(m: MultiplierLine, f: GridFunction) -> DomainRecord:
    """The domain gate's reading of m * F^e_f."""
    if f.spec != m.spec:
        raise DomainError("grid mismatch")
    return domain_gate(shifted_fft(f).values * m.values, m.spec)
