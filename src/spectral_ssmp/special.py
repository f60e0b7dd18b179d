"""Complex special-function primitives.

The library needs the principal branch of log-Gamma on the right half-plane
(and on vertical lines through it), the log of the ratio Gamma(x + a) /
Gamma(x) to a few ulp, and digamma for derivative formulas.
scipy's implementations are used behind a thin facade; the contracts that
matter here (recurrence and reflection residuals below 1e-12) are pinned by
tests rather than by the choice of algorithm.
"""

import functools

import numpy as np
import scipy.special as sc

_RATIO_TERMS = 16  # terms of the asymptotic series of log_gamma_ratio


def log_gamma(z):
    """Principal branch of log Gamma(z), vectorized over complex input."""
    return sc.loggamma(z)


@functools.lru_cache(maxsize=64)
def _ratio_coefs(a):
    b = sc.bernoulli(_RATIO_TERMS + 1)
    n = np.arange(1, _RATIO_TERMS + 1)
    poly = [sum(sc.comb(m, k) * b[k] * a ** (m - k) for k in range(m))
            for m in n + 1]  # B_m(a) - B_m(0)
    return (-1.0) ** (n + 1) * np.array(poly) / (n * (n + 1))


def log_gamma_ratio(x, a):
    """log Gamma(x + a) - log Gamma(x) (mod 2 pi i) for Re x >= 0, a > 0.

    Where |x| >= 10 max(1, a), the asymptotic series a log x + sum_{n<=16}
    (-1)^{n+1} (B_{n+1}(a) - B_{n+1}) / (n (n+1) x^n) keeps it to a few ulp,
    where two log_gamma values would carry 1e-16 |x| log|x| of rounding."""
    x = np.asarray(x, dtype=complex)
    far = np.abs(x) >= 10.0 * max(1.0, a)
    out = np.empty_like(x)
    out[~far] = log_gamma(x[~far] + a) - log_gamma(x[~far])
    inv = 1.0 / x[far]
    series = np.zeros_like(inv)
    for c in _ratio_coefs(float(a))[::-1]:
        series = (series + c) * inv
    out[far] = series - a * np.log(inv)
    return out


def gamma_fn(z):
    """Gamma(z) evaluated as exp(log_gamma), safe for moderate |z|."""
    return np.exp(sc.loggamma(z))


def digamma(z):
    """Digamma function, complex capable."""
    return sc.digamma(z)


def gauss_legendre(n):
    """Nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w
