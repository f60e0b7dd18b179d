"""Eigenfunction routes: power series, Wright forms, transform inversion."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import i0, i1, j0, j1

from spectral_ssmp.errors import DomainError, OverflowGuard, ResolutionError
from spectral_ssmp.exponents import WienerHopfPair
from spectral_ssmp.families import make_bernstein
from spectral_ssmp.eigenfunctions import (
    EIGEN_GRID,
    SeriesEigenfunction,
    approx_eigenfunction,
    eigenfunction_fft,
    eigenfunction_series,
    standard_bump,
    translated_eigenfunction_fft,
    wright,
    wright_eigenfunction,
)
from spectral_ssmp import transform
from spectral_ssmp.semigroup import EvolutionPlan, evolve, mult_semigroup
from spectral_ssmp.spectrum import classify, spectrum_values
from spectral_ssmp.transform import GridFunction, GridSpec, h_fixture, inner_e

PHI_ID = make_bernstein("drift", d=1.0)
PHI_AFF = make_bernstein("affine", d=1.0, c=1.0)
PAIR_B = WienerHopfPair(PHI_ID, PHI_AFF)


def gamma_pair(at, al, rho):
    return WienerHopfPair(
        make_bernstein("gamma-ratio-plus", alpha_tilde=at),
        make_bernstein("gamma-ratio-minus", alpha=al, rho=rho))


# ---------------------------------------------------------------------------
# power series
# ---------------------------------------------------------------------------

def test_series_bessel_value_at_zero():
    s = SeriesEigenfunction(PHI_ID)
    assert eigenfunction_series(s, 0.0) == pytest.approx(j0(2.0), abs=1e-12)


def test_series_limit_at_minus_infinity():
    s = SeriesEigenfunction(PHI_ID)
    assert eigenfunction_series(s, -30.0) == pytest.approx(1.0, abs=1e-12)


def test_series_is_bessel_pointwise():
    s = SeriesEigenfunction(PHI_ID)
    for x in (-6.0, -2.0, 0.0, 1.5, 3.0):
        assert eigenfunction_series(s, x, tol=1e-9) == pytest.approx(
            j0(2.0 * np.exp(x / 2.0)), abs=1e-8)


def test_series_affine_is_order_one_bessel():
    s = SeriesEigenfunction(PHI_AFF)
    for x in (-4.0, 0.0, 2.0):
        ref = np.exp(-x / 2.0) * j1(2.0 * np.exp(x / 2.0))
        assert eigenfunction_series(s, x, tol=1e-9) == pytest.approx(
            ref, abs=1e-8)


def test_series_coefficient_bound():
    # |c_n| <= 1 / (phi(1)^n n!)
    s = SeriesEigenfunction(PHI_AFF, order=60)
    logs = s.log_coefficient_magnitudes()
    n = np.arange(len(logs))
    bound = -(n * np.log(2.0) + np.cumsum(np.concatenate(
        [[0.0], np.log(np.arange(1, len(logs)))])))
    assert np.all(logs <= bound + 1e-12)


def test_series_overflow_guard():
    s = SeriesEigenfunction(PHI_ID)
    with pytest.raises(OverflowGuard):
        eigenfunction_series(s, 14.0, tol=1e-9)


# ---------------------------------------------------------------------------
# Wright function
# ---------------------------------------------------------------------------

def test_wright_at_zero_is_reciprocal_gamma():
    assert wright(0.5, 1.0, 0.0) == pytest.approx(1.0)
    assert wright(0.5, 2.0, 0.0) == pytest.approx(1.0)
    assert wright(0.5, 3.0, 0.0) == pytest.approx(0.5)


def test_wright_modified_bessel_identities():
    assert wright(1.0, 1.0, 1.0) == pytest.approx(i0(2.0), rel=1e-12)
    assert wright(1.0, 2.0, 1.0) == pytest.approx(i1(2.0), rel=1e-12)


def test_wright_needs_gamma_above_minus_one():
    with pytest.raises(DomainError):
        wright(-1.5, 1.0, 0.3)


def test_wright_overflow_guard_deep_cancellation():
    with pytest.raises(OverflowGuard):
        wright(3.0 / 7.0, 1.3, -np.exp(20.0))


def test_wright_domain_is_gamma_nonnegative_beta_positive():
    # below zero 1/Gamma changes sign and vanishes at poles, which the
    # log-magnitude terms and the ratio test do not carry: summed that way,
    # the first input gives 0.3032 (mpmath: 0.13267) and the second does
    # not settle (the Mainardi function, e^{-1/4}/sqrt(pi) = 0.43939)
    for gamma, beta, z in ((-0.3, 0.2, 0.5), (-0.5, 0.5, -1.0),
                           (0.5, 0.0, 0.3), (0.5, -0.5, 0.3)):
        with pytest.raises(DomainError):
            wright(gamma, beta, z)


def test_wright_gamma_zero_is_exponential():
    # W(0, beta; z) = e^z / Gamma(beta)
    for beta in (0.3, 1.0, 2.5):
        for z in (-5.0, -0.7, 0.4, 3.0):
            ref = np.exp(z) / math.gamma(beta)
            assert wright(0.0, beta, z) == pytest.approx(ref, abs=1e-12)
    # 0-d array parameters are read as floats
    assert wright(np.array(0.5), np.array(1.0), 0.3) == wright(0.5, 1.0, 0.3)


# ---------------------------------------------------------------------------
# transform inversion
# ---------------------------------------------------------------------------

def test_fft_route_needs_point_verdict():
    pair_id = WienerHopfPair(PHI_ID, PHI_ID)
    spec = GridSpec()
    with pytest.raises(DomainError):
        eigenfunction_fft(pair_id, spec)


def test_fft_route_builds_one_multiplier_line():
    # classify and the inversion share one line, built at the caller's tol
    spec = GridSpec(-20.0, 40.0, 1024)
    before = transform._multiplier_line.cache_info().misses
    eigenfunction_fft(PAIR_B, spec)
    assert transform._multiplier_line.cache_info().misses - before == 1


def test_fft_vs_bessel_closed_form():
    J = eigenfunction_fft(PAIR_B)
    x = EIGEN_GRID.x
    ref = np.exp(-x / 2.0) * j1(2.0 * np.exp(x / 2.0))
    mask = (x >= -10.0) & (x <= 5.0)
    assert np.max(np.abs(J.values.real[mask] - ref[mask])) <= 1e-3


def test_fft_vs_series_on_overlap():
    rep = classify(PAIR_B, EIGEN_GRID)
    J = eigenfunction_fft(PAIR_B, report=rep)
    s = SeriesEigenfunction(PHI_AFF)
    x = EIGEN_GRID.x
    mask = (x >= -10.0) & (x <= 2.0)
    xs = x[mask][::64]
    series_vals = np.array([eigenfunction_series(s, float(v), tol=1e-8)
                            for v in xs])
    fft_vals = np.interp(xs, x, J.values.real)
    assert np.max(np.abs(series_vals - fft_vals)) <= 1e-3


def test_decay_at_plus_infinity():
    J = eigenfunction_fft(PAIR_B)
    x = EIGEN_GRID.x
    tail = np.abs(J.values.real[x > 30.0])
    body = np.max(np.abs(J.values.real))
    assert tail.max() <= 1e-3 * body


def test_wright_discrimination():
    # exactly one closed-form variant matches the inversion
    pair = gamma_pair(0.7, 0.3, 1.0)
    rep = classify(pair, EIGEN_GRID)
    J = eigenfunction_fft(pair, report=rep)
    x = EIGEN_GRID.x
    mask = (x >= -10.0) & (x <= 0.5)
    xs = x[mask][::128]
    jf = np.interp(xs, x, J.values.real)
    errs = {}
    for variant in ("statement", "proof"):
        jv = np.array([wright_eigenfunction(0.7, 0.3, 1.0, float(v), variant)
                       for v in xs])
        c = float(np.dot(jf, jv) / np.dot(jv, jv))
        errs[variant] = float(np.linalg.norm(jf - c * jv)
                              / np.linalg.norm(jf))
    assert errs["statement"] <= 1e-3
    assert errs["proof"] > 1e-3


def test_eigen_relation_under_evolution():
    rep = classify(PAIR_B, EIGEN_GRID)
    plan = EvolutionPlan(PAIR_B, EIGEN_GRID)
    J = eigenfunction_fft(PAIR_B, report=rep)
    nj = J.norm_e()
    for y in (-1.0, 0.0, 1.0):
        tau = translated_eigenfunction_fft(PAIR_B, y, report=rep)
        for t in (0.1, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = evolve(plan, t, tau, force=True)
            lam = float(spectrum_values(t, np.array([y]))[0])
            resid = GridFunction(EIGEN_GRID,
                                 out.values - lam * tau.values).norm_e() / nj
            assert resid <= 1e-3, (y, t, resid)


def test_co_eigenfunction_pairing():
    # Residual pair: <P_t f, tau J_conj> = e^{-t q} <f, tau J_conj>
    pair = gamma_pair(0.3, 0.7, 1.0)
    conj_pair = WienerHopfPair(pair.phi_minus, pair.phi_plus)
    spec = GridSpec(-20.0, 40.0, 512)
    rep_conj = classify(conj_pair, spec)
    assert rep_conj.verdict == "Point"
    plan = EvolutionPlan(pair, spec)
    f = h_fixture(spec, 1.0, 1.0)
    t = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ptf = evolve(plan, t, f, force=True)
    for q in (0.5, 1.0, 2.0):
        # tau_{ln q} J(x) = J(x + ln q), i.e. the translate at y = -ln q
        tau = translated_eigenfunction_fft(conj_pair, float(-np.log(q)), spec,
                                           report=rep_conj)
        lhs = inner_e(ptf, tau)
        rhs = np.exp(-t * q) * inner_e(f, tau)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-3, q


# ---------------------------------------------------------------------------
# approximate eigenfunctions
# ---------------------------------------------------------------------------

FINE = GridSpec(-20.0, 40.0, 32768)


def test_approx_eigenfunction_normalization():
    for n in (1, 4, 16):
        g = approx_eigenfunction(FINE, 0.5, n)
        assert g.norm_e() == pytest.approx(1.0, rel=1e-12)


def test_approx_eigenfunction_n1_is_bump():
    g = approx_eigenfunction(FINE, 0.0, 1)
    b = standard_bump(FINE)
    ref = b.values / b.norm_e()
    assert np.max(np.abs(g.values - ref)) <= 1e-10


def test_approx_eigenfunction_resolution_error():
    coarse = GridSpec(-20.0, 40.0, 256)
    with pytest.raises(ResolutionError):
        approx_eigenfunction(coarse, 0.0, 64)


def test_approx_eigenfunction_residual_decreases():
    t = 1.0
    for y in (0.0, 1.0):
        lam = float(spectrum_values(t, np.array([y]))[0])
        resids = []
        for n in (4, 8, 16, 32):
            g = approx_eigenfunction(FINE, y, n)
            r = GridFunction(FINE, mult_semigroup(t, g).values
                             - lam * g.values).norm_e()
            resids.append(r)
        for prev, nxt in zip(resids, resids[1:]):
            assert nxt <= 1.1 * prev
        assert resids[-1] < resids[0]
