"""Gamma-family special functions in NumPy.

The library needs the principal branch of log-Gamma on the right half-plane
(and on vertical lines through it) and the log of the ratio Gamma(x + a) /
Gamma(x) to a few ulp.

- `log_gamma_long` gives log Gamma(x) for real x > 0 in np.longdouble,
  for sums whose log terms must carry more than float64.
- Complex arrays with |z| >= 8 take 8 terms of the Stirling series
  (DLMF 5.11.1, 5.11.2), whose remainder is under an ulp there, with the
  main term in np.clongdouble, rounded once; the points with |z| < 8 are
  shifted up by 8 with Gamma(z + 1) = z Gamma(z).
- The gamma ratio, for 0 < a <= 1, takes its own 16-term asymptotic
  series (DLMF 5.11.13) where |x| >= 10, and the ratio recurrence below
  that.

One table of Bernoulli numbers feeds every series here and the
Euler-Maclaurin weights of the Bernstein-gamma evaluator.  Tests pin the
contracts that matter: recurrence and reflection residuals below 1e-12,
agreement with mpmath over the range the library serves (the ratio to
1e-14), and conjugate symmetry bit for bit.

The module also holds the stand-ins that keep numpy.polynomial and numpy.ma
(a few ms each at the first call) off a CLI call's path: Gauss-Legendre
rules, and the sort-based `median` (np.median imports numpy.ma).
"""

import functools
import math

import numpy as np

from .errors import DomainError

#: the Bernoulli numbers B_0 .. B_16 (B_1 = -1/2) as (numerator, denominator)
BERNOULLI = ((1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42),
             (0, 1), (-1, 30), (0, 1), (5, 66), (0, 1), (-691, 2730), (0, 1),
             (7, 6), (0, 1), (-3617, 510))

_SHIFT = 8  # Stirling region |z| >= 8, and the upward shift that reaches it
_HALF_LOG_2PI_L = np.log(2.0 * np.arccos(np.longdouble(-1.0))) / 2
_RATIO_TERMS = 16  # terms of the asymptotic series of log_gamma_ratio
_RATIO_NEAR = 10  # its series region |x| >= 10, and the shift to it


def _coefs(values):
    """Series coefficients as complex 0-d arrays: adding one in place to a
    complex array skips the conversion a Python float needs on every call,
    which is most of the cost of a Horner step on a short array."""
    return tuple(np.array(v, dtype=complex) for v in values)


# B_2k / (2k (2k - 1)) for k = 1..8, rounded once each
_LOG_GAMMA_COEF = _coefs(n / (d * 2 * k * (2 * k - 1))
                         for k, (n, d) in enumerate(BERNOULLI[2::2], 1))


def _horner(w, coefs):
    """sum_k coefs[k] w^k for a complex array w.  Each product is formed
    out of place: NumPy 2.4 rounds an in-place complex product on a
    one-element array another way than on a longer one, so a point's bits
    would depend on its company; the in-place sums do not."""
    s = np.full_like(w, coefs[-1])
    for c in coefs[-2::-1]:
        s = s * w
        s += c
    return s


def _log(z):
    """Principal log of a complex array as log|z| + i atan2(Im z, Re z),
    the log that every series here and the Bernstein-gamma evaluator's
    log phi take: the real ufuncs cost about 10 ns a value where np.log on
    complex input costs about 47 (NumPy 2.4, Intel Xeon), and the result is
    odd in Im z bit for bit.  np.clongdouble input keeps its precision."""
    out = np.empty(np.shape(z), dtype=np.result_type(z, complex))
    np.log(np.abs(z), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


def _stirling(z):
    """log Gamma(z) for |z| >= 8, Re z >= 0: (z - 1/2) log z - z
    + log(2 pi) / 2 + sum_k B_2k / (2k (2k - 1) z^(2k - 1)).

    The main term is summed in np.clongdouble and rounded once: in float64
    its roundings of about |z log z| put log Gamma 2.3e-13 off mpmath on
    Re z = 1/2, |Im z| <= 214, where the output ulp is 2.8e-14 (2.8e-14
    off now).  The series is below 1/(12 |z|) <= 0.011 and stays in
    float64."""
    inv = 1.0 / z
    s = _horner(inv * inv, _LOG_GAMMA_COEF) * inv
    zl = z.astype(np.clongdouble)
    main = (zl - 0.5) * _log(zl) - zl + _HALF_LOG_2PI_L
    return (main + s).astype(complex)


def log_gamma(z):
    """Principal branch of log Gamma(z).

    z is taken as complex and needs Re z > -1/2: there each product of
    two adjacent shift factors (z + k)(z + k + 1) keeps |arg| < pi, so one
    log per pair stays on the principal branch.  log_gamma(conj z) is
    conj(log_gamma(z)) bit for bit.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).ravel()
    if np.any(z.real <= -0.5):
        raise DomainError("log_gamma serves Re z > -1/2")
    near = np.abs(z) < _SHIFT
    if not near.any():
        return _stirling(z).reshape(shape)
    out = _stirling(np.where(near, z + _SHIFT, z))
    t = z[near] + np.arange(_SHIFT)[:, None]
    logs = _log(t[0::2] * t[1::2])
    # row by row: .sum(axis=0) adds a one-column array in another order
    total = logs[0]
    for row in logs[1:]:
        total = total + row
    out[near] -= total
    return out.reshape(shape)


_LONG_SHIFT = 16  # long-double Stirling region x >= 16, and the shift to it


def log_gamma_long(x):
    """log Gamma(x) for real x > 0, as an np.longdouble array.

    Points below 16 are shifted up by 16 with Gamma(x + 1) = x Gamma(x),
    less one log of the product of the 16 factors.  From 16 on, the main
    term of the Stirling series is summed in np.longdouble; its 8-term
    series, below 1/192 there, stays in float64, and the first term left
    out is below 1e-21.
    """
    x = np.asarray(x, dtype=np.longdouble)
    if not np.all(x > 0):
        raise DomainError("log_gamma_long serves real x > 0")
    near = x < _LONG_SHIFT
    y = np.where(near, x + _LONG_SHIFT, x)
    inv = 1.0 / y.astype(float)
    out = (y - 0.5) * np.log(y) - y + _HALF_LOG_2PI_L
    w, series = inv * inv, 0.0
    for c in _LOG_GAMMA_COEF[::-1]:
        series = series * w + c.real
    out += series * inv
    if near.any():
        out[near] -= np.log(np.prod(x[near] + np.arange(_LONG_SHIFT)[:, None],
                                    axis=0))
    return out


@functools.lru_cache(maxsize=64)
def _ratio_coefs(a):
    """(-1)^(n+1) (B_{n+1}(a) - B_{n+1}) / (n (n + 1)) for n = 1..16."""
    b = [n / d for n, d in BERNOULLI]
    return _coefs((-1.0) ** (n + 1) / (n * (n + 1))
                  * sum(math.comb(n + 1, k) * b[k] * a ** (n + 1 - k)
                        for k in range(n + 1))
                  for n in range(1, _RATIO_TERMS + 1))


def _ratio_series(x, a):
    """a log x + sum_{n<=16} c_n / x^n, the ratio where |x| >= 10."""
    inv = 1.0 / x
    s = _horner(inv, _ratio_coefs(a)) * inv
    s += a * _log(x)
    return s


def log_gamma_ratio(x, a):
    """log Gamma(x + a) - log Gamma(x) for Re x >= 0 and 0 < a <= 1, each
    log Gamma on its principal branch; any other a raises DomainError.

    Where |x| >= 10, the asymptotic series a log x + sum_{n<=16}
    (-1)^{n+1} (B_{n+1}(a) - B_{n+1}) / (n (n+1) x^n) keeps it to a few ulp,
    where two log_gamma values would carry 1e-16 |x| log|x| of rounding.
    Nearer the origin the ratio recurrence moves x out to x + 10 and
    subtracts the log of the product of 1 + a / (x + k), k < 10.  Each
    factor lies in the disk about 1 + a / 2k of radius a / 2k, so its |arg|
    is at most arcsin(a / (2k + a)); for a <= 1 these sum to at most
    2.71 < pi, and one log of the product stays on the principal branch.
    In these factors the rounding of x + k is scaled down by a / |x + k|;
    a product of (x + k + a) over a product of (x + k) would keep it whole,
    with a bias that the Bernstein-gamma evaluator's sums accumulate.
    """
    if not 0.0 < a <= 1.0:
        raise DomainError("log_gamma_ratio serves 0 < a <= 1")
    shape = np.shape(x)
    x, a = np.asarray(x, dtype=complex).ravel(), float(a)
    near = np.abs(x) < _RATIO_NEAR
    if not near.any():
        return _ratio_series(x, a).reshape(shape)
    out = _ratio_series(np.where(near, x + _RATIO_NEAR, x), a)
    factors = x[near] + np.arange(_RATIO_NEAR)[:, None]
    np.divide(a, factors, out=factors)
    factors += 1.0
    # not .prod(axis=0) nor *=: both round a one-point product another way
    # (NumPy 2.4), so a point's bits would depend on its company
    prod = factors[0]
    for row in factors[1:]:
        prod = prod * row
    out[near] -= _log(prod)
    return out.reshape(shape)


def _legval(x, c):
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, in the order of
    numpy.polynomial.legendre.legval, so that its bits are the same."""
    if len(c) == 1:
        return c[0] + 0.0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = (c[nd - 2] - c1 * ((nd - 1) / nd),
                  c0 + c1 * x * ((2 * nd - 1) / nd))
    return c0 + c1 * x


@functools.lru_cache(maxsize=64)
def gauss_legendre(n):
    """Nodes and weights on [0, 1], read-only and shared between calls.

    numpy.polynomial.legendre.leggauss(n), bit for bit, without importing
    numpy.polynomial (a few ms at the first call): Golub-Welsch, the nodes
    on [-1, 1] are the eigenvalues of the symmetric Jacobi matrix of the
    Legendre recurrence, polished by one Newton step on P_n, and the
    weights are proportional to 1 / (P_{n-1}(x) P_n'(x)), P_n' =
    sum (2k + 1) P_k over k = n-1, n-3, ...; both are symmetrized and the
    weights scaled to sum 2.
    """
    k = np.arange(1.0, n)
    scl = 1.0 / np.sqrt(2.0 * np.arange(n) + 1.0)
    x = np.linalg.eigvalsh(np.diag(k * scl[:-1] * scl[1:], -1))
    pn = np.zeros(n + 1)
    pn[n] = 1.0
    dpn = np.zeros(n)
    dpn[n - 1::-2] = np.arange(2 * n - 1, 0, -4)
    df = _legval(x, dpn)
    x -= _legval(x, pn) / df
    fm = _legval(x, pn[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1.0 / (fm * df)
    w = 0.5 * (w + w[::-1])
    x = 0.5 * (x - x[::-1])
    w *= 2.0 / w.sum()
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def median(x):
    """np.median(x) of a non-empty array without NaN, which np.median
    would take through numpy.ma."""
    x = np.sort(x, axis=None)
    h = x.size // 2
    return x[h] if x.size % 2 else (x[h - 1] + x[h]) / 2
