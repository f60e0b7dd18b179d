"""Shifted Fourier transform, multipliers, and domain diagnostics."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import loggamma

from spectral_ssmp.bernstein import default_evaluator
from spectral_ssmp.errors import DomainError, DomainWarning
from spectral_ssmp.exponents import Exponent, WienerHopfPair, eval_psi
from spectral_ssmp.families import make_bernstein
from spectral_ssmp.transform import (
    GridFunction,
    GridSpec,
    MultiplierLine,
    SpectrumLine,
    _multiplier_line,
    apply_multiplier,
    domain_check,
    gaussian_fixture,
    h_fixture,
    h_transform_exact,
    inner_e,
    inverse_shifted_fft,
    multiplier_h,
    multiplier_lambda,
    shifted_fft,
)

SPEC = GridSpec()
PHI_ID = make_bernstein("drift", d=1.0)
PHI_AFF = make_bernstein("affine", d=1.0, c=1.0)
PAIR_ID = WienerHopfPair(PHI_ID, PHI_ID)
PAIR_B = WienerHopfPair(PHI_ID, PHI_AFF)


def gamma_pair(at=0.7, al=0.3, rho=1.0):
    return WienerHopfPair(
        make_bernstein("gamma-ratio-plus", alpha_tilde=at),
        make_bernstein("gamma-ratio-minus", alpha=al, rho=rho))


# ---------------------------------------------------------------------------
# grid and transform basics
# ---------------------------------------------------------------------------

def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(0.0, -1.0, 4096)
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 1000)  # not a power of two
    with pytest.raises(DomainError):
        GridSpec(0.0, 1.0, 128)  # below 2**8


def test_round_trip_random():
    # identity in the natural L^2(e) norm (the weighted transform is
    # unitary there; pointwise comparison across 26 decades of weight is
    # not meaningful in doubles)
    rng = np.random.default_rng(0)
    f = GridFunction(SPEC, rng.standard_normal(SPEC.n)
                     + 1j * rng.standard_normal(SPEC.n))
    back = inverse_shifted_fft(shifted_fft(f))
    diff = GridFunction(SPEC, back.values - f.values)
    assert diff.norm_e() <= 1e-12 * f.norm_e()


def test_round_trip_fixture_pointwise():
    f = h_fixture(SPEC, 1.0, 1.0)
    back = inverse_shifted_fft(shifted_fft(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


def test_transform_of_zero():
    f = GridFunction(SPEC, np.zeros(SPEC.n))
    assert np.all(shifted_fft(f).values == 0.0)


def test_h_fixture_closed_form():
    f = h_fixture(SPEC, 1.0, 1.0)
    s = shifted_fft(f)
    exact = h_transform_exact(SPEC, 1.0, 1.0)
    mask = np.abs(SPEC.xi) <= SPEC.nyquist / 4
    num = np.sqrt(np.sum(np.abs(s.values[mask] - exact.values[mask]) ** 2))
    den = np.sqrt(np.sum(np.abs(exact.values[mask]) ** 2))
    assert num / den <= 1e-6


def test_parseval():
    for eps, beta in ((1.0, 1.0), (0.5, 2.0)):
        f = h_fixture(SPEC, eps, beta)
        assert abs(shifted_fft(f).norm() - f.norm_e()) <= 1e-10 * f.norm_e()


def test_gaussian_closed_form():
    f = gaussian_fixture(SPEC, 0.0)
    s = shifted_fft(f)
    ref = (np.exp(1.0 / 16.0) * np.exp(-1j * SPEC.xi / 4.0)
           * np.exp(-SPEC.xi ** 2 / 4.0) / np.sqrt(2.0))
    mask = np.abs(SPEC.xi) <= 12.0
    assert np.max(np.abs(s.values[mask] - ref[mask])) <= 1e-12


def test_inverse_of_closed_form_recovers_fixture():
    exact = h_transform_exact(SPEC, 1.0, 1.0)
    back = inverse_shifted_fft(exact)
    f = h_fixture(SPEC, 1.0, 1.0)
    mask = (SPEC.x > -15) & (SPEC.x < 30)
    assert np.max(np.abs(back.values[mask] - f.values[mask])) <= 1e-6


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------

def test_multiplier_h_builds_once_whatever_the_call_style():
    pair = WienerHopfPair(PHI_AFF, PHI_AFF)
    spec = GridSpec(-20.0, 40.0, 512)
    before = _multiplier_line.cache_info()
    lines = [multiplier_h(pair, spec, 1e-10), multiplier_h(pair, spec),
             multiplier_h(pair, spec, tol=1e-10),
             multiplier_lambda(pair, spec, 1e-10)]
    after = _multiplier_line.cache_info()
    assert after.misses - before.misses == 1
    assert all(line is lines[0] for line in lines[:3])


def test_multiplier_h_identity_pair_unimodular():
    m = multiplier_h(PAIR_ID, SPEC)
    assert np.max(np.abs(np.abs(m.values) - 1.0)) <= 1e-10
    ref = np.exp(loggamma(0.5 - 1j * SPEC.xi) - loggamma(0.5 + 1j * SPEC.xi))
    assert np.max(np.abs(m.values - ref)) <= 1e-9


def test_multiplier_h_affine_closed_form():
    m = multiplier_h(PAIR_B, SPEC)
    ref = np.exp(loggamma(0.5 - 1j * SPEC.xi) - loggamma(1.5 + 1j * SPEC.xi))
    assert np.max(np.abs(m.values - ref) / np.abs(ref)) <= 1e-9
    assert_allclose(np.abs(m.values), 1.0 / np.abs(0.5 + 1j * SPEC.xi),
                    rtol=1e-9)


def test_multiplier_h_gamma_closed_form():
    at, al, rho = 0.7, 0.3, 1.0
    m = multiplier_h(gamma_pair(at, al, rho), SPEC)
    xi = SPEC.xi
    ref = np.exp(loggamma(at * (0.5 - 1j * xi)) - loggamma(at)
                 - loggamma(rho + al * (0.5 + 1j * xi)) + loggamma(al + rho))
    assert np.max(np.abs(m.values / ref - 1.0)) <= 1e-7


def test_multiplier_lambda_phase_only():
    m_h = multiplier_h(PAIR_B, SPEC)
    m_l = multiplier_lambda(PAIR_B, SPEC)
    assert_allclose(np.abs(m_l.values), np.abs(m_h.values), rtol=1e-12)
    # identity pair: Lambda multiplier is exactly 1
    m_id = multiplier_lambda(PAIR_ID, SPEC)
    assert np.max(np.abs(m_id.values - 1.0)) <= 1e-9


def test_multiplier_gamma_decay_rate():
    # |m| for alpha_tilde > alpha decays like e^{-(at-al) pi |xi| / 2}
    m = multiplier_h(gamma_pair(0.7, 0.3, 1.0), SPEC)
    xi = SPEC.xi
    sel = (xi > 30) & (xi < 120)
    slope = np.polyfit(xi[sel], np.log(np.abs(m.values[sel])), 1)[0]
    assert slope == pytest.approx(-(0.7 - 0.3) * np.pi / 2, rel=0.05)


def test_functional_identity_five_pairs():
    # m(xi + i) = psi(xi) m(xi) with m(z) = W_+(-iz)/W_-(1 + iz)
    pairs = [PAIR_ID, PAIR_B, gamma_pair(0.7, 0.3, 1.0),
             gamma_pair(0.3, 0.7, 0.75),
             WienerHopfPair(make_bernstein("stable", beta=0.5),
                            make_bernstein("compound-poisson",
                                           atoms=[[1.0, 1.0],
                                                  [np.sqrt(2.0), 0.5]],
                                           c=0.1))]
    xi = np.linspace(-20.0, 20.0, 81)
    xi = xi[xi != 0.0]
    for pair in pairs:
        zmax = 40.0
        evp = default_evaluator(pair.phi_plus, 1e-10, zmax)
        evm = default_evaluator(pair.phi_minus, 1e-10, zmax)

        def m_h(zline):
            return np.exp(evp.log_w(-1j * zline) - evm.log_w(1.0 + 1j * zline))

        lhs = m_h(xi + 1j)
        rhs = eval_psi(Exponent(pair=pair), xi) * m_h(xi + 0j)
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) <= 1e-6, pair


def test_inverse_multiplier_duality():
    pair = gamma_pair(0.7, 0.3, 1.0)
    conj_pair = WienerHopfPair(pair.phi_minus, pair.phi_plus)
    m = multiplier_h(pair, SPEC)
    m_c = multiplier_h(conj_pair, SPEC)
    assert_allclose(m_c.values, 1.0 / np.conj(m.values), rtol=1e-8)


# ---------------------------------------------------------------------------
# application and domain diagnostics
# ---------------------------------------------------------------------------

def test_apply_identity_multiplier():
    m = MultiplierLine(SPEC, np.ones(SPEC.n))
    f = h_fixture(SPEC, 1.0, 1.0)
    out = apply_multiplier(m, f)
    assert np.max(np.abs(out.values - f.values)) <= 1e-12


def test_apply_unimodular_preserves_norm():
    m = multiplier_h(PAIR_ID, SPEC)
    f = h_fixture(SPEC, 1.0, 1.0)
    out = apply_multiplier(m, f)
    assert abs(out.norm_e() - f.norm_e()) <= 1e-10 * f.norm_e()


def test_apply_then_invert_round_trip():
    m = multiplier_h(PAIR_B, SPEC)
    f = h_fixture(SPEC, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)
        out = apply_multiplier(m, apply_multiplier(m, f), invert=True)
    # undo once more to compare against the original
    assert np.max(np.abs(out.values - f.values)) <= 1e-8


def test_apply_linearity():
    m = multiplier_h(PAIR_B, SPEC)
    f = h_fixture(SPEC, 1.0, 1.0)
    g = gaussian_fixture(SPEC, 1.0)
    a, b = 1.7, -0.4 + 0.2j
    combo = GridFunction(SPEC, a * f.values + b * g.values)
    lhs = apply_multiplier(m, combo)
    rhs = (a * apply_multiplier(m, f).values
           + b * apply_multiplier(m, g).values)
    diff = GridFunction(SPEC, lhs.values - rhs)
    scale = abs(a) * f.norm_e() + abs(b) * g.norm_e()
    assert diff.norm_e() <= 1e-13 * scale


def test_apply_invert_requires_zero_free():
    vals = np.ones(SPEC.n, dtype=complex)
    vals[10] = 0.0
    m = MultiplierLine(SPEC, vals, zero_free=False)
    f = h_fixture(SPEC, 1.0, 1.0)
    with pytest.raises(DomainError):
        apply_multiplier(m, f, invert=True)


def test_domain_check_identity_inside():
    m = MultiplierLine(SPEC, np.ones(SPEC.n))
    rec = domain_check(m, h_fixture(SPEC, 1.0, 1.0))
    assert rec.verdict == "inside"
    assert rec.tail_fraction <= 1e-6


def test_domain_check_growing_multiplier_outside():
    vals = np.exp(0.5 * np.pi * np.abs(SPEC.xi) / 2.0)
    m = MultiplierLine(SPEC, vals)
    rec = domain_check(m, h_fixture(SPEC, 1.0, 1.0))
    assert rec.verdict == "outside"


def test_domain_check_decaying_product_inside():
    m = multiplier_h(gamma_pair(0.7, 0.3, 1.0), SPEC)
    rec = domain_check(m, h_fixture(SPEC, 1.0, 1.0))
    assert rec.verdict == "inside"


def test_domain_warning_emitted():
    vals = np.exp(0.5 * np.pi * np.abs(SPEC.xi) / 2.0)
    m = MultiplierLine(SPEC, vals)
    with pytest.warns(DomainWarning):
        apply_multiplier(m, h_fixture(SPEC, 1.0, 1.0))


def test_inner_product_conjugate_symmetry():
    f = h_fixture(SPEC, 1.0, 1.0)
    g = gaussian_fixture(SPEC, -1.0)
    assert inner_e(f, g) == pytest.approx(np.conj(inner_e(g, f)))
