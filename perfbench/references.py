"""Independent references for the benchmark's checks.

Nothing here imports spectral_ssmp: every value comes from a closed form
evaluated with scipy or mpmath, or from the theory that decides a
classification verdict.  No value is a stored copy of library output.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import j1, loggamma

# ---------------------------------------------------------------------------
# Bernstein-gamma closed forms, W(z + 1) = phi(z) W(z), W(1) = 1
# ---------------------------------------------------------------------------


def log_w(family: dict, z):
    """log W(z) for the families whose W has a log-Gamma closed form."""
    z = np.asarray(z, dtype=complex)
    kind = family["family"]
    if kind == "drift":                       # phi(z) = d z
        d = family.get("d", 1.0)
        return (z - 1.0) * math.log(d) + loggamma(z)
    if kind == "affine":                      # phi(z) = d (z + c/d)
        d, c = family.get("d", 1.0), family.get("c", 0.0)
        s = c / d
        return (z - 1.0) * math.log(d) + loggamma(z + s) - loggamma(1.0 + s)
    if kind == "gamma-ratio-plus":            # phi(z) = G(at(1+z))/G(at z)
        at = family["alpha_tilde"]
        return loggamma(at * z) - loggamma(at)
    if kind == "gamma-ratio-minus":           # phi(z) = G(r+a+az)/G(r+az)-c
        a, rho = family["alpha"], family["rho"]
        return loggamma(rho + a * z) - loggamma(a + rho)
    if kind == "stable-table":                # phi(z) = z^beta, tabulated
        return family["beta"] * loggamma(z)
    raise ValueError(f"no closed form for {kind!r}")


def log_phi_gamma_plus(alpha_tilde: float, z):
    """log phi(z) for the gamma-ratio-plus family."""
    z = np.asarray(z, dtype=complex)
    return loggamma(alpha_tilde * (1.0 + z)) - loggamma(alpha_tilde * z)


def log_multiplier(pair: dict, xi, kind: str = "H"):
    """log m(xi) = log W_+(1/2 - i xi) - log W_-(1/2 + i xi); Lambda adds
    the unimodular phase log Gamma(1/2 + i xi) - log Gamma(1/2 - i xi)."""
    xi = np.asarray(xi, dtype=float)
    out = log_w(pair["plus"], 0.5 - 1j * xi) - log_w(pair["minus"], 0.5 + 1j * xi)
    if kind == "Lambda":
        out = out + loggamma(0.5 + 1j * xi) - loggamma(0.5 - 1j * xi)
    return out


def line_error(values, log_ref, clamp: float = 700.0, margin: float = 10.0):
    """max |m / m_ref - 1| over the samples whose |log|m_ref|| stays
    `margin` inside the library's +-clamp on log|m| (beyond it the line is
    clamped on purpose and has no closed form to meet)."""
    values = np.asarray(values, dtype=complex)
    inside = np.abs(log_ref.real) < clamp - margin
    rel = np.abs(values[inside] * np.exp(-log_ref[inside]) - 1.0)
    return float(rel.max()), int(inside.sum())


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


def bessel_eigenfunction(x):
    """J for the pair (id, u + 1): e^{-x/2} J_1(2 e^{x/2})."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x / 2.0) * j1(2.0 * np.exp(x / 2.0))


@functools.lru_cache(maxsize=4096)
def wright_mp(lam: float, mu: float, z: float, dps: int = 40) -> float:
    """The Wright function sum_n z^n / (n! Gamma(lam n + mu)) in mpmath
    arithmetic, summed until the terms stop mattering at `dps` digits."""
    import mpmath

    with mpmath.workdps(dps):
        z = mpmath.mpf(z)
        total = mpmath.mpf(0)
        term_z = mpmath.mpf(1)
        n = 0
        small = 0
        while True:
            term = term_z * mpmath.rgamma(lam * n + mu) / mpmath.factorial(n)
            total += term
            if n > 2 and abs(term) < mpmath.mpf(10) ** (-dps) * max(abs(total), 1):
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
            n += 1
            term_z *= z
        return float(total)


def gamma_pair_eigenfunction(alpha_tilde, alpha, rho, x):
    """Closed form W(alpha/alpha_tilde, alpha + rho; -e^{x/alpha_tilde})."""
    return np.array([wright_mp(alpha / alpha_tilde, alpha + rho,
                               -math.exp(v / alpha_tilde))
                     for v in np.atleast_1d(x)])


def scale_fit_error(got, ref):
    """Relative L2 error of `got` against c * ref with c fitted once."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    c = float(np.dot(got, ref) / np.dot(ref, ref))
    return float(np.linalg.norm(got - c * ref) / np.linalg.norm(got))


# ---------------------------------------------------------------------------
# semigroups and expectations
# ---------------------------------------------------------------------------


def squared_bessel_moment(r, t, c: float = 1.0):
    """E_r[X_t^2 e^{-c X_t}] for the self-similar process of (id, id),
    whose Lamperti exponent is psi(xi) = xi^2 (Brownian motion, sigma^2 = 1).

    With u = 1/(1+t): E_r[X_t^2 e^{-X_t}] = e^{-r(1-u)/t}
    (2 t^2 u^3 + 4 r t u^4 + r^2 u^5); self-similarity of index 1 gives
    the factor c^{-2} and the arguments (c r, c t)."""
    r = np.asarray(r, dtype=float) * c
    t = float(t) * c
    u = 1.0 / (1.0 + t)
    val = np.exp(-r * (1.0 - u) / t) * (2 * t * t * u ** 3 + 4 * r * t * u ** 4
                                        + r * r * u ** 5)
    return val / (c * c)


def psi_at_minus_i(quadruplet: dict) -> float:
    """psi(-i) for a quadruplet given as JSON with atoms only: E e^{Z_s} =
    e^{-s psi(-i)}, so Dynkin's formula gives E_x X_t = x - psi(-i) t."""
    out = quadruplet.get("psi0", 0.0) - quadruplet.get("b", 0.0) \
        - quadruplet.get("sigma2", 0.0)
    for y, m in quadruplet.get("mu", {}).get("atoms", ()):
        comp = y if abs(y) <= 1.0 else 0.0
        out += m * (1.0 - math.exp(y) + comp)
    return out


def h_transform(xi, eps: float, beta: float):
    """Shifted transform of e^{-(1/2+eps)x - beta e^{-x}}:
    beta^{-eps - i xi} Gamma(eps + i xi) / sqrt(2 pi)."""
    xi = np.asarray(xi, dtype=float)
    return np.exp((-eps - 1j * xi) * math.log(beta)
                  + loggamma(eps + 1j * xi)) / math.sqrt(2.0 * math.pi)


def inner_e(x, f, g):
    """<f, g> in L^2(R, e^x dx) on a uniform grid."""
    dx = x[1] - x[0]
    return complex(dx * np.sum(f * np.conj(g) * np.exp(x)))


def norm_e(x, f):
    return math.sqrt(abs(inner_e(x, f, f)))


# ---------------------------------------------------------------------------
# classification theory
# ---------------------------------------------------------------------------


def expected_verdict(pair: dict) -> str:
    """The verdict the theory gives for the pairs the benchmark classifies.

    Gamma-ratio pairs have |m(xi)| ~ |xi|^p e^{-pi (at - a)|xi| / 2} with
    p = at/2 - rho - a/2 (Stirling on the closed forms above): a Theta gap
    at != a decides Point or Residual, and with at == a the power p decides
    square integrability (Point iff p < -1/2).  (id, id) has |m| = 1:
    bounded both ways, Continuous; (id, affine) has |m| ~ |xi|^{-c/d}.  A plus factor with drift and finite
    activity against a driftless regularly varying minus factor is the
    table row that certifies m in L^2: Point.
    """
    p, m = pair["plus"], pair["minus"]
    if p["family"] == "gamma-ratio-plus" and m["family"] == "gamma-ratio-minus":
        at, a, rho = p["alpha_tilde"], m["alpha"], m["rho"]
        if at > a:
            return "Point"
        if at < a:
            return "Residual"
        power = at / 2.0 - rho - a / 2.0
        return "Point" if power < -0.5 else "Continuous"
    if p["family"] == "drift" and m["family"] == "drift":
        return "Continuous"
    if p["family"] == "drift" and m["family"] == "affine":
        # |m| ~ |xi|^{-c/d}: square integrable iff c/d > 1/2
        return "Point" if m["c"] / m["d"] > 0.5 else "Continuous"
    if (p["family"] == "compound-poisson" and p.get("d", 0.0) > 0
            and m["family"] == "stable"):
        return "Point"
    raise ValueError(f"no theory row for pair {pair!r}")
