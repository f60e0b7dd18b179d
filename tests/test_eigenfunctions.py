"""Eigenfunction routes: power series, Wright forms, transform inversion."""

import math

import numpy as np
import pytest
from scipy.special import i0, i1, j0, j1

from spectral_ssmp.bernstein import BernsteinFunction
from spectral_ssmp.errors import ConvergenceError, DomainError, ResolutionError
from spectral_ssmp.exponents import WienerHopfPair
from spectral_ssmp.families import make_bernstein
from spectral_ssmp.eigenfunctions import (
    EIGEN_GRID,
    SeriesEigenfunction,
    approx_eigenfunction,
    eigenfunction_fft,
    eigenfunction_series,
    standard_bump,
    wright,
    wright_eigenfunction,
)
from spectral_ssmp import eigenfunctions as eig
from spectral_ssmp import transform
from spectral_ssmp.semigroup import EvolutionPlan, evolve, mult_semigroup
from spectral_ssmp.spectrum import classify, spectrum_values
from spectral_ssmp.transform import GridFunction, GridSpec, h_fixture, inner_e

PHI_ID = make_bernstein("drift", d=1.0)
PHI_AFF = make_bernstein("affine", d=1.0, c=1.0)
PAIR_ID = WienerHopfPair(PHI_ID, PHI_ID)
PAIR_B = WienerHopfPair(PHI_ID, PHI_AFF)


def gamma_pair(at, al, rho):
    return WienerHopfPair(
        make_bernstein("gamma-ratio-plus", alpha_tilde=at),
        make_bernstein("gamma-ratio-minus", alpha=al, rho=rho))


# ---------------------------------------------------------------------------
# power series
# ---------------------------------------------------------------------------

def test_series_bessel_value_at_zero():
    assert eigenfunction_series(PAIR_ID, 0.0) == pytest.approx(j0(2.0), abs=1e-12)


def test_series_limit_at_minus_infinity():
    assert eigenfunction_series(PAIR_ID, -30.0) == pytest.approx(1.0, abs=1e-12)


def test_series_is_bessel_pointwise():
    x = np.array([-6.0, -2.0, 0.0, 1.5, 3.0])
    assert eigenfunction_series(PAIR_ID, x, tol=1e-9) == pytest.approx(
        j0(2.0 * np.exp(x / 2.0)), abs=1e-8)


def test_series_affine_is_order_one_bessel():
    x = np.array([-4.0, 0.0, 2.0])
    ref = np.exp(-x / 2.0) * j1(2.0 * np.exp(x / 2.0))
    assert eigenfunction_series(PAIR_B, x, tol=1e-9) == pytest.approx(
        ref, abs=1e-8)


def test_series_coefficient_bound(monkeypatch):
    # |c_n| <= 1 / (phi(1)^n n!)
    monkeypatch.setattr(eig, "_SERIES_ORDER", 60)
    logs = SeriesEigenfunction(PHI_AFF)._log_c
    assert logs.size == 61
    n = np.arange(len(logs))
    bound = -(n * np.log(2.0) + np.cumsum(np.concatenate(
        [[0.0], np.log(np.arange(1, len(logs)))])))
    assert np.all(logs <= bound + 1e-12)


def test_series_overflow_guard():
    with pytest.raises(ConvergenceError):
        eigenfunction_series(PAIR_ID, 14.0, tol=1e-9)
    # on a grid, the message names the first failing point in grid order
    with pytest.raises(ConvergenceError, match="at x=14 "):
        eigenfunction_series(PAIR_ID, np.array([0.0, 14.0, -3.0, 20.0]), tol=1e-9)


def test_series_log_terms_in_extended_precision():
    # log terms of size ~30 in float64 would put 3e-15 relative into each
    # term, which the 80-bit audit does not count: 1.6e-9 relative off
    # J0(2 e^2) at x = 4
    import mpmath as mp
    for x in (2.0, 3.0, 4.0):
        got = eigenfunction_series(PAIR_ID, x, tol=1e-12)
        ref = float(mp.besselj(0, 2 * mp.exp(mp.mpf(x) / 2)))
        assert abs(got - ref) <= 1e-12 * abs(ref), x


# ---------------------------------------------------------------------------
# the batched kernel against a loop over one series' terms
# ---------------------------------------------------------------------------

def _reference_paired_sum(log_terms, alternating, tail_ok, tol):
    """The scalar loop the batched kernel replaces: pairs consecutive
    terms in np.longdouble, stops at the first m >= 2 that tail_ok
    certifies, then audits the cancellation."""
    total, held, peak = np.longdouble(0.0), None, -np.inf
    for m, lt in enumerate(log_terms):
        if lt > 11000.0:
            raise ConvergenceError("overflow")
        peak = max(peak, lt)
        sign = -1.0 if alternating and m % 2 else 1.0
        term = np.longdouble(sign) * np.exp(np.longdouble(lt))
        if held is None:
            held = term
        else:
            total += held + term
            held = None
        partial = total if held is None else total + held
        if m >= 2 and tail_ok(m, abs(float(partial)) + 1e-300):
            break
    else:
        raise ConvergenceError("did not settle")
    if held is not None:
        total += held
    budget = np.log10(tol * (abs(float(total)) + 1e-300))
    if alternating and peak / np.log(10.0) - eig._LONG_EPS_DIGITS > budget:
        raise ConvergenceError("cancellation")
    return float(total)


def _reference_series(s, x, tol):
    log_terms = (s._log_c + np.arange(s._log_c.size).astype(np.longdouble)
                 * np.longdouble(x))
    r_log = x - s._log_phi1

    def tail_ok(m, scale):
        ratio = np.exp(r_log) / (m + 2)
        if ratio >= 0.5:
            return False
        log_tail = ((m + 1) * r_log - math.lgamma(m + 2.0)
                    - np.log(1 - ratio))
        bound = np.log(tol * scale)
        return log_terms[m] < bound and log_tail < bound

    return _reference_paired_sum(log_terms, True, tail_ok, tol)


def _reference_wright(gamma, beta, z, tol):
    if z == 0.0:
        return math.exp(-math.lgamma(beta))
    log_terms = (np.arange(eig._WRIGHT_TERMS) * np.log(np.longdouble(abs(z)))
                 - eig._wright_log_denominators(float(gamma), float(beta),
                                                eig._WRIGHT_TERMS))

    def tail_ok(m, scale):
        lt = float(log_terms[m])
        ratio = np.exp(lt - float(log_terms[m - 1]))
        return ratio < 0.5 and np.exp(lt) / (1 - ratio) < tol * scale

    return _reference_paired_sum(log_terms, z < 0, tail_ok, tol)


@pytest.mark.parametrize("phi, x, tol", (
    (PHI_AFF, GridSpec(-10.0, 5.0, 256).x, 1e-8),
    (PHI_ID, np.arange(-30.0, 4.25, 0.25), 1e-9)))
def test_series_kernel_matches_the_reference_loop(phi, x, tol,
                                                  monkeypatch):
    pair = WienerHopfPair(PHI_ID, phi)
    s = SeriesEigenfunction(phi)
    got = eigenfunction_series(pair, x, tol=tol)
    want = np.array([_reference_series(s, float(v), tol) for v in x])
    assert np.array_equal(got, want)
    # chunks of two terms for a whole grid give the same bits
    monkeypatch.setattr(eig, "_CHUNK_CELLS", 1)
    assert np.array_equal(eigenfunction_series(pair, x, tol=tol), want)
    one = [eigenfunction_series(pair, float(v), tol=tol) for v in x[::17]]
    assert np.array_equal(one, got[::17])
    assert isinstance(one[0], float)


@pytest.mark.parametrize("gamma, beta, z, tol", (
    # the gamma-pair grid of the CLI's wright route
    (0.3 / 0.7, 1.3, -np.exp(GridSpec(-10.0, 0.5, 256).x / 0.7), 1e-10),
    (0.0, 2.5, np.linspace(-5.0, 3.0, 41), 1e-12),
    (0.5, 2.0, np.array([0.3, 0.0, -0.3, 0.0]), 1e-12)))
def test_wright_kernel_matches_the_reference_loop(gamma, beta, z, tol,
                                                  monkeypatch):
    got = wright(gamma, beta, z, tol=tol)
    want = np.array([_reference_wright(gamma, beta, float(v), tol)
                     for v in z])
    assert np.array_equal(got, want)
    monkeypatch.setattr(eig, "_CHUNK_CELLS", 1)
    assert np.array_equal(wright(gamma, beta, z, tol=tol), want)
    one = [wright(gamma, beta, float(v), tol=tol) for v in z[::7]]
    assert np.array_equal(one, got[::7])
    assert isinstance(one[0], float)
    assert wright(gamma, beta, z.reshape(-1, 1), tol=tol).shape == (
        z.size, 1)


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
    with pytest.raises(ConvergenceError):
        wright(3.0 / 7.0, 1.3, -np.exp(20.0))
    with pytest.raises(ConvergenceError, match="z=-4.85165e"):
        wright(3.0 / 7.0, 1.3, np.array([-1.0, -np.exp(20.0), 0.0]))


def test_wright_domain_is_gamma_nonnegative_beta_positive():
    # below zero 1/Gamma changes sign and vanishes at poles, which the
    # log-magnitude terms and the ratio test do not carry: summed that way,
    # the first input gives 0.3032 (mpmath: 0.13267) and the second does
    # not settle (the Mainardi function, e^{-1/4}/sqrt(pi) = 0.43939)
    for gamma, beta, z in ((-0.3, 0.2, 0.5), (-0.5, 0.5, -1.0),
                           (0.5, 0.0, 0.3), (0.5, -0.5, 0.3)):
        with pytest.raises(DomainError):
            wright(gamma, beta, z)


def test_series_refuse_non_finite_or_non_positive_tol():
    # an infinite tol accepted the first terms (13.397 for e^-10), and a
    # NaN, zero or negative one ran the series out as a ConvergenceError
    for tol in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(DomainError):
            wright(0.0, 1.0, -10.0, tol=tol)
        with pytest.raises(DomainError):
            eigenfunction_series(PAIR_ID, 0.5, tol=tol)


def test_wright_gamma_zero_is_exponential():
    # W(0, beta; z) = e^z / Gamma(beta)
    z = np.array([-5.0, -0.7, 0.4, 3.0])
    for beta in (0.3, 1.0, 2.5):
        assert wright(0.0, beta, z) == pytest.approx(
            np.exp(z) / math.gamma(beta), abs=1e-12)
    # 0-d array parameters are read as floats
    assert wright(np.array(0.5), np.array(1.0), 0.3) == wright(0.5, 1.0, 0.3)


def test_wright_log_terms_carry_extended_precision():
    # the alternating series of e^z cancels its largest term, 10^10/10!, by
    # a factor 6e7 at z = -10: float64 log terms put it 8.0e-8 off e^-10,
    # and 6.6e-12 (beta = 0.3) and 2.9e-12 (beta = 1) off at z = -5
    assert abs(wright(0.0, 1.0, -10.0, tol=1e-9) / math.exp(-10.0) - 1.0) \
        <= 1e-9
    for beta in (0.3, 1.0):
        want = math.exp(-5.0) / math.gamma(beta)
        assert abs(wright(0.0, beta, -5.0) / want - 1.0) <= 1e-12, beta
    # the denominators of a short run are those of the full length
    full = eig._wright_log_denominators(0.3 / 0.7, 1.3, eig._WRIGHT_TERMS)
    assert np.array_equal(
        eig._wright_log_denominators(0.3 / 0.7, 1.3, 64), full[:64])


# ---------------------------------------------------------------------------
# transform inversion
# ---------------------------------------------------------------------------

def test_fft_route_needs_point_verdict():
    pair_id = WienerHopfPair(PHI_ID, PHI_ID)
    spec = GridSpec()
    with pytest.raises(DomainError):
        eigenfunction_fft(pair_id, spec)
    # the Residual gamma pair, untranslated and translated: each call
    # classifies its own pair, so no caller can hand it the Point pair's
    # verdict
    residual = gamma_pair(0.3, 0.7, 1.0)
    spec = GridSpec(-20.0, 40.0, 4096)
    point_report = classify(gamma_pair(0.7, 0.3, 1.0), spec)
    assert point_report.verdict == "Point"
    for route in (eigenfunction_fft,
                  lambda pair, spec, **kw: eigenfunction_fft(
                      pair, spec, y=0.5, **kw)):
        with pytest.raises(DomainError):
            route(residual, spec)
        with pytest.raises(TypeError):
            route(residual, spec, report=point_report)


def test_fft_route_builds_one_multiplier_line():
    # classify and the inversion share one line; the cache is emptied
    # first, as another test may have built it
    transform.multiplier_h.cache_clear()
    spec = GridSpec(-20.0, 40.0, 1024)
    eigenfunction_fft(PAIR_B, spec)
    assert transform.multiplier_h.cache_info().misses == 1


def test_fft_vs_bessel_closed_form():
    J = eigenfunction_fft(PAIR_B)
    x = EIGEN_GRID.x
    ref = np.exp(-x / 2.0) * j1(2.0 * np.exp(x / 2.0))
    mask = (x >= -10.0) & (x <= 5.0)
    assert np.max(np.abs(J.values.real[mask] - ref[mask])) <= 1e-3


def test_fft_vs_series_on_overlap():
    J = eigenfunction_fft(PAIR_B)
    x = EIGEN_GRID.x
    mask = (x >= -10.0) & (x <= 2.0)
    xs = x[mask][::64]
    series_vals = eigenfunction_series(PAIR_B, xs, tol=1e-8)
    fft_vals = np.interp(xs, x, J.values.real)
    assert np.max(np.abs(series_vals - fft_vals)) <= 1e-3


def test_decay_at_plus_infinity():
    J = eigenfunction_fft(PAIR_B)
    x = EIGEN_GRID.x
    tail = np.abs(J.values.real[x > 30.0])
    body = np.max(np.abs(J.values.real))
    assert tail.max() <= 1e-3 * body


def _fit_error(jf, jv):
    """||jf - c jv|| / ||jf|| for the least-squares c."""
    c = float(np.dot(jf, jv) / np.dot(jv, jv))
    return float(np.linalg.norm(jf - c * jv) / np.linalg.norm(jf))


def test_wright_discrimination():
    # on every Point gamma pair the inversion confirms the route's
    # W(alpha/alpha_tilde, alpha + rho; -e^{x/alpha_tilde}) (at most 2.3e-13
    # measured) and refutes the e^{x/alpha} candidate (at least 4.1e-2)
    x = EIGEN_GRID.x
    mask = (x >= -10.0) & (x <= 0.5)
    xs = x[mask][::128]
    for at, al, rho in ((0.7, 0.3, 1.0), (0.6, 0.2, 0.5), (0.9, 0.5, 2.0)):
        pair = gamma_pair(at, al, rho)
        assert classify(pair, EIGEN_GRID).verdict == "Point"
        jf = eigenfunction_fft(pair).values.real[mask][::128]
        candidate = wright(al / at, al + rho, -np.exp(xs / al), tol=1e-10)
        assert _fit_error(jf, wright_eigenfunction(pair, xs)) <= 1e-11
        assert _fit_error(jf, candidate) > 1e-2


def test_eigen_relation_under_evolution():
    plan = EvolutionPlan(PAIR_B, EIGEN_GRID)
    J = eigenfunction_fft(PAIR_B)
    nj = J.norm_e()
    for y in (-1.0, 0.0, 1.0):
        tau = eigenfunction_fft(PAIR_B, y=y)
        for t in (0.1, 1.0):
            out = evolve(plan, t, tau)
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
    ptf = evolve(plan, t, f)
    for q in (0.5, 1.0, 2.0):
        # tau_{ln q} J(x) = J(x + ln q), i.e. the translate at y = -ln q
        tau = eigenfunction_fft(conj_pair, spec, y=float(-np.log(q)))
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
    # a translate beyond the window meets no grid point
    with pytest.raises(ResolutionError, match="does not intersect"):
        approx_eigenfunction(FINE, 100.0, 4)


def test_approx_eigenfunction_samples_the_formula():
    # n * bump(n (x - y)) at the grid points, not an interpolant of the
    # bump's own samples (off by up to 8.5e-4 on 4096 points)
    for spec, y, n in ((GridSpec(-20.0, 40.0, 4096), 0.5, 4),
                       (FINE, 0.5, 32)):
        u = n * (spec.x - y)
        inside = np.abs(u) < 1.0
        vals = np.zeros(spec.n)
        vals[inside] = n * np.exp(-1.0 / (1.0 - u[inside] ** 2))
        ref = vals / GridFunction(spec, vals).norm_e()
        g = approx_eigenfunction(spec, y, n)
        assert np.max(np.abs(g.values - ref)) <= 1e-12


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


# ---------------------------------------------------------------------------
# the pairs each route serves, and the two kernels tied together
# ---------------------------------------------------------------------------

PAIR_GAMMA = gamma_pair(0.7, 0.3, 1.0)


@pytest.mark.parametrize("route, pair", (
    # the series: the plus factor must be the unit drift itself
    pytest.param(eigenfunction_series, PAIR_GAMMA, id="series-gamma"),
    pytest.param(eigenfunction_series, WienerHopfPair(PHI_AFF, PHI_AFF),
                 id="series-affine-plus"),
    pytest.param(eigenfunction_series,
                 WienerHopfPair(make_bernstein("drift", d=2.0), PHI_AFF),
                 id="series-drift-2-plus"),
    # Wright: a gamma ratio with rho = 0 over one with rho > 0
    pytest.param(wright_eigenfunction, PAIR_B, id="wright-drift-affine"),
    pytest.param(wright_eigenfunction,
                 WienerHopfPair(PAIR_GAMMA.phi_plus, PHI_AFF),
                 id="wright-gamma-affine"),
    pytest.param(wright_eigenfunction,
                 WienerHopfPair(PAIR_GAMMA.phi_minus, PAIR_GAMMA.phi_minus),
                 id="wright-minus-minus"),
    pytest.param(wright_eigenfunction,
                 WienerHopfPair(PAIR_GAMMA.phi_plus, PAIR_GAMMA.phi_plus),
                 id="wright-plus-plus"),
    pytest.param(wright_eigenfunction, WienerHopfPair(
        BernsteinFunction(drift=1.0, measure=PAIR_GAMMA.phi_plus.measure),
        PAIR_GAMMA.phi_minus), id="wright-ratio-plus-drift")))
def test_routes_refuse_a_pair_they_do_not_serve(route, pair):
    with pytest.raises(DomainError, match="serves"):
        route(pair, np.array([-1.0, 0.0]))


@pytest.mark.parametrize("a", (0.3, 0.5, 0.7))
@pytest.mark.parametrize("rho", (0.5, 1.0, 1.3, 2.0))
def test_a_hand_built_gamma_ratio_is_served_as_one(a, rho):
    # phi(0) = Gamma(rho + a) / Gamma(rho) as math.gamma rounds it, up to
    # 4 ulp off the constant `families` takes: still the gamma ratio, so
    # its W has the closed form and the Wright route serves its pair
    from spectral_ssmp.bernstein import (
        ClosedFormMeasure,
        _ClosedFormEvaluator,
        default_evaluator,
    )
    phi = BernsteinFunction(
        phi0=math.gamma(rho + a) / math.gamma(rho),
        measure=ClosedFormMeasure("gamma-ratio", (a, rho)))
    assert type(default_evaluator(phi)) is _ClosedFormEvaluator
    plus = make_bernstein("gamma-ratio-plus", alpha_tilde=0.7)
    xs = np.array([-1.0, 0.0, 1.0])
    assert np.array_equal(
        wright_eigenfunction(WienerHopfPair(plus, phi), xs),
        wright_eigenfunction(gamma_pair(0.7, a, rho), xs))


def test_series_tables_are_cached_per_factor():
    eig._series_table.cache_clear()
    eigenfunction_series(PAIR_B, 0.0)
    eigenfunction_series(WienerHopfPair(make_bernstein("drift", d=1.0),
                                        make_bernstein("affine", d=1.0,
                                                       c=1.0)), 1.0)
    assert eig._series_table.cache_info()[:2] == (1, 1)


@pytest.mark.parametrize("gamma, beta, lo, hi", (
    (3.0 / 7.0, 1.3, -10.0, 0.5),
    (0.5, 1.0, -8.0, 2.0),
    (0.2, 0.9, -8.0, 2.0),
    (0.9, 1.5, -8.0, 2.0)))
def test_series_of_a_gamma_ratio_is_a_wright_function(gamma, beta, lo, hi):
    # the factor Gamma(rho + a + a z) / Gamma(rho + a z) with a = gamma and
    # rho = beta - gamma has W(n+1) = Gamma(gamma n + beta) / Gamma(beta),
    # so its series is Gamma(beta) W(gamma, beta; -e^x); the two kernels
    # agree to 6.5e-14 at most on these grids
    pair = WienerHopfPair(PHI_ID, make_bernstein(
        "gamma-ratio-minus", alpha=gamma, rho=beta - gamma))
    x = GridSpec(lo, hi, 512).x
    series = eigenfunction_series(pair, x, tol=1e-12)
    closed = math.gamma(beta) * wright(gamma, beta, -np.exp(x), tol=1e-12)
    assert np.max(np.abs(series - closed)) <= 2e-13


@pytest.mark.parametrize("n", (0, -1, 0.5))
def test_approx_eigenfunction_needs_a_positive_n(n):
    with pytest.raises(DomainError, match="positive integer"):
        approx_eigenfunction(FINE, 0.0, n)
