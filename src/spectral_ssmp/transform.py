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
import warnings
from dataclasses import dataclass
import numpy as np

from .bernstein import default_evaluator
from .errors import DomainError, DomainWarning
from .exponents import WienerHopfPair
from .special import log_gamma

TAIL_FRACTION_INSIDE = 1e-6
TAIL_FRACTION_BORDERLINE = 1e-3


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [x_min, x_max) with n a power of two (>= 256)."""

    x_min: float = -20.0
    x_max: float = 40.0
    n: int = 4096

    def __post_init__(self):
        if self.x_min >= self.x_max:
            raise DomainError("x_min must be below x_max")
        if self.n < 256 or self.n & (self.n - 1):
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
    """Samples of a Fourier multiplier m(xi_k) on a grid."""

    spec: GridSpec
    values: np.ndarray
    kind: str = "Custom"  # "H" | "Lambda" | "Custom"
    zero_free: bool = True

    def __post_init__(self):
        v = _freeze_samples(self, None)
        if self.zero_free and np.any(np.abs(v) == 0.0):
            raise DomainError("zero_free multiplier contains zeros")


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
def multiplier_h(pair: WienerHopfPair, spec: GridSpec,
                 tol: float = 1e-10) -> MultiplierLine:
    """m(xi_k) = W_plus(1/2 - i xi_k) / W_minus(1/2 + i xi_k); zero-free.

    Uses the conjugate symmetry W(conj z) = conj W(z) to evaluate each
    Bernstein-gamma function on half the line only.  Cached per
    (pair, grid, tol) whatever the call style: the Bernstein-gamma product
    is the expensive kernel.
    """
    # lru_cache keys multiplier_h(p, s, t) and multiplier_h(p, s, tol=t)
    # apart, so the line is built and cached in _multiplier_line, called
    # positionally; this wrapper stays an lru_cache because
    # perfbench/tracing.py counts builds from multiplier_h.cache_info()
    return _multiplier_line(pair, spec, float(tol))


@functools.lru_cache(maxsize=64)
def _multiplier_line(pair: WienerHopfPair, spec: GridSpec,
                     tol: float) -> MultiplierLine:
    zmax = float(np.hypot(0.5, spec.nyquist)) + 2.0
    ev_p = default_evaluator(pair.phi_plus, tol, zmax)
    ev_m = default_evaluator(pair.phi_minus, tol, zmax)
    xi = spec.xi
    pos = np.abs(xi)
    z = 0.5 + 1j * pos
    uniq, inv = np.unique(z, return_inverse=True)
    log_wp = ev_p.log_w(uniq)[inv]
    log_wm = ev_m.log_w(uniq)[inv]
    # W_plus(1/2 - i|xi|) = conj W_plus(1/2 + i|xi|); for xi < 0 the sign of
    # the imaginary part flips back
    lw_p = np.where(xi >= 0, np.conj(log_wp), log_wp)
    lw_m = np.where(xi >= 0, log_wm, np.conj(log_wm))
    lw = lw_p - lw_m
    # the ratio is zero-free in exact arithmetic; clamp the log magnitude at
    # the double-precision exponent boundary so under/overflow cannot break
    # that contract on very wide frequency grids
    lw = np.clip(lw.real, -700.0, 700.0) + 1j * lw.imag
    return MultiplierLine(spec, np.exp(lw), kind="H", zero_free=True)


def multiplier_lambda(pair: WienerHopfPair, spec: GridSpec,
                      tol: float = 1e-10) -> MultiplierLine:
    """The H multiplier times the unimodular phase
    Gamma(1/2 + i xi)/Gamma(1/2 - i xi)."""
    base = multiplier_h(pair, spec, tol)
    xi = base.spec.xi
    phase = np.exp(log_gamma(0.5 + 1j * xi) - log_gamma(0.5 - 1j * xi))
    return MultiplierLine(base.spec, base.values * phase,
                          kind="Lambda", zero_free=True)


def tail_fraction(values, spec: GridSpec, axis: int = 0) -> float:
    """Fraction of the discrete L^2 mass beyond half the Nyquist frequency
    along one axis of an array whose axis lies on spec's xi grid."""
    power = np.abs(values) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    outer = np.abs(spec.xi) > 0.5 * spec.nyquist
    return float(np.sum(np.compress(outer, power, axis=axis))) / total


def apply_multiplier(m: MultiplierLine, f: GridFunction,
                     invert: bool = False) -> GridFunction:
    """inverse_shifted_fft(m^{+-1} * shifted_fft(f)); linear in f.

    Emits a DomainWarning when the post-multiplication spectrum carries more
    than TAIL_FRACTION_INSIDE of its mass beyond half Nyquist, the discrete
    surrogate for f falling outside the operator domain.
    """
    if f.spec != m.spec:
        raise DomainError("grid mismatch between multiplier and function")
    if invert and not m.zero_free:
        raise DomainError("cannot invert: multiplier has zeros")
    s = shifted_fft(f)
    vals = s.values / m.values if invert else s.values * m.values
    out = SpectrumLine(m.spec, vals)
    frac = tail_fraction(vals, m.spec)
    if frac > TAIL_FRACTION_INSIDE:
        warnings.warn(
            f"spectral tail fraction {frac:.2e} beyond Nyquist/2 exceeds "
            f"{TAIL_FRACTION_INSIDE:g}: input may lie outside the "
            "discretized operator domain", DomainWarning, stacklevel=2)
    return inverse_shifted_fft(out)


@dataclass(frozen=True)
class DomainRecord:
    """Diagnostic from domain_check: dyadic band masses and a verdict."""

    band_edges: tuple
    band_mass: tuple
    tail_fraction: float
    verdict: str  # "inside" | "borderline" | "outside"


def domain_check(m: MultiplierLine, f: GridFunction) -> DomainRecord:
    """Report the discrete L^2 mass of m * F^e_f in dyadic frequency bands.

    Verdict thresholds on the beyond-half-Nyquist mass fraction:
    inside <= 1e-6 < borderline <= 1e-3 < outside.
    """
    if f.spec != m.spec:
        raise DomainError("grid mismatch")
    s = shifted_fft(f)
    prod = SpectrumLine(m.spec, s.values * m.values)
    power = np.abs(prod.values) ** 2
    xi = np.abs(m.spec.xi)
    top = m.spec.nyquist
    edges = [top / 2 ** j for j in range(8)][::-1] + [top * 2]
    mass = []
    lo = 0.0
    for hi in edges:
        mass.append(float(np.sum(power[(xi >= lo) & (xi < hi)]) * m.spec.dxi))
        lo = hi
    frac = tail_fraction(prod.values, m.spec)
    if frac <= TAIL_FRACTION_INSIDE:
        verdict = "inside"
    elif frac <= TAIL_FRACTION_BORDERLINE:
        verdict = "borderline"
    else:
        verdict = "outside"
    return DomainRecord(tuple(edges), tuple(mass), frac, verdict)
