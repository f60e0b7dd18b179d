"""Shifted Fourier transform, multipliers, and domain diagnostics."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import loggamma

from spectral_ssmp.bernstein import default_evaluator
from spectral_ssmp.errors import DomainError, DomainWarning
from spectral_ssmp.exponents import Exponent, WienerHopfPair, eval_psi
from spectral_ssmp.families import make_bernstein, stable_density_table
from spectral_ssmp.transform import (
    DomainRecord,
    GridFunction,
    GridSpec,
    MultiplierLine,
    SpectrumLine,
    _lambda_multiplier_line0,
    apply_multiplier,
    domain_check,
    domain_gate,
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
    for x_min, x_max in ((np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0),
                         (0.0, np.inf)):
        with pytest.raises(DomainError):
            GridSpec(x_min, x_max, 4096)  # a window that is not finite


def test_grid_spec_n_must_be_an_integer():
    # a float n is refused as a domain error, even when it is integral;
    # NumPy integers are integers
    for bad in (256.0, 4096.0, 300.5, "256", None):
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, bad)
    for n in (np.int64(256), np.int32(4096), np.uint16(512)):
        spec = GridSpec(0.0, 1.0, n)
        assert spec.x.shape == (int(n),)


def test_grid_nodes_are_computed_once_and_read_only():
    spec = GridSpec(-10.0, 30.0, 512)
    for name, want in (("x", -10.0 + spec.dx * np.arange(512)),
                       ("xi", 2.0 * np.pi * (np.arange(512) - 256)
                        / (512 * spec.dx))):
        first = getattr(spec, name)
        assert getattr(spec, name) is first
        assert not first.flags.writeable
        assert np.array_equal(first, want)
        with pytest.raises(ValueError):
            first[0] = 0.0
    # the cached arrays are not fields: equality and hash ignore them
    assert spec == GridSpec(-10.0, 30.0, 512)
    assert hash(spec) == hash(GridSpec(-10.0, 30.0, 512))


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
    # the arguments are positional-only, so no call keys a second entry;
    # one miss serves every layer above the line on one (pair, grid)
    from spectral_ssmp.eigenfunctions import eigenfunction_fft
    from spectral_ssmp.semigroup import EvolutionPlan
    from spectral_ssmp.spectrum import classify
    pair = WienerHopfPair(PHI_ID, PHI_AFF)
    spec = GridSpec(-20.0, 40.0, 512)
    with pytest.raises(TypeError):
        multiplier_h(pair=pair, spec=spec)
    with pytest.raises(TypeError):
        multiplier_h(pair, spec=spec)
    multiplier_h.cache_clear()
    line = multiplier_h(pair, spec)
    multiplier_lambda(pair, spec)
    assert EvolutionPlan(pair, spec).m is line
    classify(pair, spec)
    eigenfunction_fft(pair, spec)
    assert multiplier_h.cache_info().misses == 1
    assert multiplier_h(pair, spec) is line


def test_multiplier_line_takes_one_log_w_for_equal_factors(monkeypatch):
    # (id, id): both factors share one evaluator, so one log W serves both
    from spectral_ssmp.bernstein import BernsteinGammaEvaluator
    calls = []
    log_w = BernsteinGammaEvaluator.log_w

    def counted(self, z):
        calls.append(self)
        return log_w(self, z)

    monkeypatch.setattr(BernsteinGammaEvaluator, "log_w", counted)
    spec = GridSpec(-20.0, 40.0, 256)
    line = multiplier_h.__wrapped__(PAIR_ID, spec)
    assert len(calls) == 1
    # W(1/2 - i xi) / W(1/2 + i xi) = Gamma(1/2 - i xi) / Gamma(1/2 + i xi)
    want = np.exp(-2j * loggamma(0.5 + 1j * spec.xi).imag)
    assert_allclose(line.values, want, rtol=0.0, atol=1e-10)
    multiplier_h.__wrapped__(PAIR_B, spec)
    assert len(calls) == 3


def test_multiplier_h_builds_density_factor_at_the_default_tol(monkeypatch):
    # a tabulated density gets the Bernstein-gamma evaluator at the
    # evaluator's default tol 1e-10, not a relaxed one
    from spectral_ssmp import transform
    table = make_bernstein(**stable_density_table(0.5))
    built = []

    def recording(phi, **kw):
        ev = default_evaluator(phi, **kw)
        built.append(ev)
        return ev

    monkeypatch.setattr(transform, "default_evaluator", recording)
    line = multiplier_h.__wrapped__(WienerHopfPair(PHI_ID, table),
                                    GridSpec(-20.0, 40.0, 1024))
    assert [ev.tol for ev in built if ev.phi == table] == [1e-10]
    assert np.all(np.isfinite(line.values))


_TABLE = stable_density_table(0.5)
MARGIN_FACTORS = {
    "drift": PHI_ID,
    "affine": PHI_AFF,
    "stable": make_bernstein("stable", beta=0.5),
    "gamma-ratio-plus": make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
    "gamma-ratio-minus": make_bernstein("gamma-ratio-minus", alpha=0.3,
                                        rho=1.0),
    "cp-d1": make_bernstein("compound-poisson", atoms=[[1.0, 1.0]], d=1.0),
    "cp-d0": make_bernstein("compound-poisson", atoms=[[1.0, 1.0]], d=0.0),
    "table-d0": make_bernstein(**_TABLE, d=0.0),
    "table-d1": make_bernstein(**_TABLE, d=1.0),
}


@pytest.mark.parametrize("n", [512, 4096, 32768])
@pytest.mark.parametrize("name", list(MARGIN_FACTORS))
def test_multiplier_evaluators_meet_the_fixed_tol_with_margin(monkeypatch,
                                                             name, n):
    # the multiplier layers take no tol: their W evaluators check at the
    # default 1e-10, and the functional-equation residuals of every factor
    # kind stay below 1e-11 up to the 32768-point horizon (1.9e-12 the
    # largest reading), so no served grid comes near the check
    from spectral_ssmp import transform
    built = []

    def recording(phi, **kw):
        built.append(default_evaluator(phi, **kw))
        return built[-1]

    monkeypatch.setattr(transform, "default_evaluator", recording)
    phi = MARGIN_FACTORS[name]
    transform._log_w_lines(WienerHopfPair(phi, phi),
                           GridSpec(-20.0, 40.0, n), 0.5, np.zeros(1))
    (ev,) = set(built)
    assert ev.zmax > GridSpec(-20.0, 40.0, n).nyquist
    assert ev.tol == 1e-10
    assert ev.residual <= 1e-11 and ev.horizon_residual <= 1e-11


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
        # 1/m undoes m: the inverse is a multiplier line of its own
        out = apply_multiplier(MultiplierLine(SPEC, 1 / m.values),
                               apply_multiplier(m, f))
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


def test_multiplier_line_with_a_zero_sample_rejected():
    vals = np.ones(SPEC.n, dtype=complex)
    vals[10] = 0.0
    with pytest.raises(DomainError):
        MultiplierLine(SPEC, vals)


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


def test_domain_gate_reads_a_non_finite_spectrum_outside():
    vals = np.ones(SPEC.n, dtype=complex)
    vals[SPEC.n // 2] = np.inf
    assert domain_gate(vals, SPEC).verdict == "outside"
    vals[SPEC.n // 2] = np.nan
    assert domain_gate(vals, SPEC).verdict == "outside"
    assert domain_gate(np.zeros(SPEC.n), SPEC) == DomainRecord(0.0, "inside")


def test_domain_warning_emitted():
    vals = np.exp(0.5 * np.pi * np.abs(SPEC.xi) / 2.0)
    m = MultiplierLine(SPEC, vals)
    with pytest.warns(DomainWarning):
        apply_multiplier(m, h_fixture(SPEC, 1.0, 1.0))


def test_multiplier_clamp_warns():
    # the gamma pair's log|m| reaches -1084 on 32768 points, and is clamped
    # at -700 with a DomainWarning that counts the samples; on 4096 points
    # its minimum is -139, and nothing is said
    pair = gamma_pair()
    wide = GridSpec(-20.0, 40.0, 32768)
    with pytest.warns(DomainWarning, match="extreme log\\|m\\| = -108") as rec:
        m = multiplier_h.__wrapped__(pair, wide)
    clamped = np.abs(np.log(np.abs(m.values))) >= 700.0 - 1e-9
    assert f"{np.count_nonzero(clamped)} of 32768" in str(rec[0].message)
    # the warning points at the caller of multiplier_h
    assert rec[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error", DomainWarning)
        multiplier_h.__wrapped__(pair, SPEC)


def test_lambda_line0_clamp_warns():
    # the similarity multiplier on the unshifted line takes the H line's
    # clamp: on 32768 points the gamma pair's exponent reaches -1087, and
    # the samples beyond -700, which e^x would flush to 0, are clamped with
    # a DomainWarning; on 4096 points nothing is said
    pair = gamma_pair()
    wide = GridSpec(-20.0, 40.0, 32768)
    with pytest.warns(DomainWarning, match="of 32767 multiplier samples "
                      "have \\|log m\\| > 700") as rec:
        vals = _lambda_multiplier_line0(pair, wide)
    assert len(rec) == 1 and np.all(vals != 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DomainWarning)
        _lambda_multiplier_line0(pair, SPEC)


def test_inner_product_conjugate_symmetry():
    f = h_fixture(SPEC, 1.0, 1.0)
    g = gaussian_fixture(SPEC, -1.0)
    assert inner_e(f, g) == pytest.approx(np.conj(inner_e(g, f)))


COARSE = GridSpec(-20.0, 40.0, 512)


@pytest.mark.parametrize("call, match", (
    pytest.param(lambda: inner_e(h_fixture(SPEC, 1.0, 1.0),
                                 h_fixture(COARSE, 1.0, 1.0)),
                 "grid mismatch", id="inner-e"),
    pytest.param(lambda: apply_multiplier(multiplier_h(PAIR_ID, SPEC),
                                          h_fixture(COARSE, 1.0, 1.0)),
                 "grid mismatch", id="apply-multiplier"),
    pytest.param(lambda: domain_check(multiplier_h(PAIR_ID, SPEC),
                                      h_fixture(COARSE, 1.0, 1.0)),
                 "grid mismatch", id="domain-check"),
    pytest.param(lambda: GridFunction(SPEC, np.ones(SPEC.n - 1)),
                 "grid length", id="samples-length"),
    pytest.param(lambda: GridFunction(SPEC, np.full(SPEC.n, np.nan)),
                 "grid samples must be finite", id="grid-samples-finite"),
    pytest.param(lambda: SpectrumLine(SPEC, np.full(SPEC.n, np.inf)),
                 "spectrum samples must be finite",
                 id="spectrum-samples-finite"),
    pytest.param(lambda: h_fixture(SPEC, 0.0, 1.0), "eps > 0",
                 id="h-fixture-eps"),
    pytest.param(lambda: h_fixture(SPEC, 1.0, -1.0), "beta > 0",
                 id="h-fixture-beta")))
def test_transform_input_checks(call, match):
    with pytest.raises(DomainError, match=match):
        call()
