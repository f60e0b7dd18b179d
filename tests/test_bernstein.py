"""Bernstein functions, Bernstein-gamma evaluation, Theta functionals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import digamma as sc_digamma, loggamma

from spectral_ssmp.bernstein import (
    AtomMeasure,
    BernsteinFunction,
    BernsteinGammaEvaluator,
    ClosedFormMeasure,
    DensityMeasure,
    TailMetadata,
    _density_nodes,
    _density_small_tail,
    asymptotic_magnitude,
    default_evaluator,
    eval_phi,
    phi_derivative,
    theta_integral,
    theta_limits,
)
from spectral_ssmp.eigenfunctions import EIGEN_GRID
from spectral_ssmp.errors import ConvergenceError, DomainError, MetadataError
from spectral_ssmp.families import make_bernstein, stable_density_table

PHI_ID = BernsteinFunction(drift=1.0)
PHI_AFF = BernsteinFunction(phi0=1.0, drift=1.0)


def validation_grid(xi_max=30.0, n=21):
    a = np.array([0.5, 1.0, 2.0])
    xi = np.linspace(-xi_max, xi_max, n)
    return (a[:, None] + 1j * xi[None, :]).ravel()


# ---------------------------------------------------------------------------
# eval_phi
# ---------------------------------------------------------------------------

def test_eval_phi_pure_drift():
    assert complex(eval_phi(PHI_ID, 3.0)) == pytest.approx(3.0)


def test_eval_phi_single_atom():
    phi = BernsteinFunction(measure=AtomMeasure(((1.0, 1.0),)))
    val = complex(eval_phi(phi, 1j * np.pi))
    assert val == pytest.approx(1.0 - np.exp(-1j * np.pi))
    assert val == pytest.approx(2.0)


def test_eval_phi_gamma_ratio_plus():
    phi = make_bernstein("gamma-ratio-plus", alpha_tilde=0.5)
    assert complex(eval_phi(phi, 1.0)) == pytest.approx(1.0 / np.sqrt(np.pi))


def test_eval_phi_domain_error():
    with pytest.raises(DomainError):
        eval_phi(PHI_ID, -1.0)


def test_degenerate_phi_rejected():
    with pytest.raises(DomainError):
        BernsteinFunction()


def test_eval_phi_monotone_concave_on_reals():
    for phi in (PHI_ID, make_bernstein("stable", beta=0.5),
                make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
                make_bernstein("compound-poisson", atoms=[[1.0, 2.0]], d=0.5)):
        u = np.linspace(0.05, 20.0, 400)
        v = eval_phi(phi, u).real
        d1 = np.diff(v)
        d2 = np.diff(v, 2)
        assert np.all(d1 >= -1e-12)
        assert np.all(d2 <= 1e-12)


def test_modulus_dominates_real_value():
    # |phi(a + i xi)| >= phi(a) > 0 on the open half-plane
    for phi in (PHI_ID, PHI_AFF, make_bernstein("stable", beta=0.3)):
        a = np.array([0.3, 1.0, 4.0])
        xi = np.linspace(-25.0, 25.0, 41)
        z = a[:, None] + 1j * xi[None, :]
        vals = np.abs(eval_phi(phi, z))
        floor = eval_phi(phi, a).real[:, None]
        assert np.all(vals >= floor - 1e-12)


def test_vertical_lipschitz_bound():
    # |phi(a+i xi) - phi(b+i xi)| <= phi(|a-b|) - phi(0)
    phi = make_bernstein("compound-poisson", atoms=[[0.5, 1.0], [2.0, 0.3]],
                         d=0.2, c=0.1)
    xi = np.linspace(-20.0, 20.0, 31)
    for a, b in ((0.5, 2.0), (1.0, 1.5), (0.1, 3.0)):
        lhs = np.abs(eval_phi(phi, a + 1j * xi) - eval_phi(phi, b + 1j * xi))
        bound = eval_phi(phi, abs(a - b)).real - phi.phi0
        assert np.all(lhs <= bound + 1e-12)


# ---------------------------------------------------------------------------
# phi_derivative
# ---------------------------------------------------------------------------

def test_derivative_drift():
    assert float(np.asarray(phi_derivative(PHI_ID, 5.0))) == pytest.approx(1.0)


def test_derivative_affine():
    assert float(np.asarray(phi_derivative(PHI_AFF, 2.0))) == pytest.approx(1.0)


def test_derivative_gamma_ratio_matches_digamma_and_fd():
    phi = make_bernstein("gamma-ratio-minus", alpha=0.5, rho=1.0)
    u = 1.0
    analytic = float(np.asarray(phi_derivative(phi, u)))
    # independent central difference of the gamma ratio
    h = 1e-6
    fd = (eval_phi(phi, u + h).real - eval_phi(phi, u - h).real) / (2 * h)
    assert analytic == pytest.approx(float(fd), rel=1e-6)
    ratio = np.exp(loggamma(1.5 + 0.5 * u) - loggamma(1.0 + 0.5 * u))
    digamma_form = 0.5 * ratio * (sc_digamma(1.5 + 0.5 * u)
                                  - sc_digamma(1.0 + 0.5 * u))
    assert analytic == pytest.approx(float(digamma_form), rel=1e-12)


def test_derivative_tabulated_density_matches_fd():
    phi = make_bernstein(**stable_density_table(0.5))
    for u in (0.5, 3.0, 40.0):
        h = 1e-5 * u
        fd = (eval_phi(phi, u + h).real - eval_phi(phi, u - h).real) / (2 * h)
        analytic = float(np.asarray(phi_derivative(phi, u)))
        assert analytic == pytest.approx(float(fd), rel=1e-6)


def test_eval_phi_tabulated_density_far_right():
    # nodes with Re(z) y > 40 are dropped from the Laplace sum; compare
    # with the sum over every node
    phi = make_bernstein(**stable_density_table(0.5))
    nodes, wts, rem = _density_nodes(phi.measure)
    z = np.array([40.0 + 3.0j, 400.0 - 50.0j, 2000.0 + 1700.0j])
    full = (np.sum(wts) + rem - np.exp(-z[:, None] * nodes) @ wts
            + _density_small_tail(phi.measure, z))
    assert_allclose(eval_phi(phi, z), full, rtol=1e-15)


def test_density_small_tail_at_the_guard():
    # integral_0^{y_min} (1 - e^{-zy}) c0 y^{-1-a0} dy up to |z| y_min = 10,
    # against its closed form in the lower incomplete gamma function:
    # c0 y_min^{-a0} [(w^a0 gamma(1 - a0, w) - 1 + e^{-w}) / a0], w = z y_min
    import mpmath as mp
    phi = make_bernstein(**stable_density_table(0.5))
    meas = phi.measure
    y0, a0 = meas.y[0], meas.tail_exponent_zero
    c0 = meas.density[0] * y0 ** (1.0 + a0)
    for w in (0.5, 5.0, 10.0, 10.0j, 7.0 + 7.0j):
        with mp.workdps(30):
            wm = mp.mpc(w)
            closed = (wm ** a0 * mp.gammainc(1 - a0, 0, wm) - 1
                      + mp.exp(-wm)) / a0
            ref = complex(c0 * y0 ** (-a0) * closed)
        got = complex(_density_small_tail(meas, np.array([w / y0]))[0])
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_derivative_user_supplied_wins():
    phi = BernsteinFunction(drift=1.0, derivative=lambda u: 42.0)
    assert phi_derivative(phi, 1.0) == 42.0


def test_derivative_unknown_measure_raises():
    phi = BernsteinFunction(drift=1.0, measure=object())
    with pytest.raises(DomainError):
        phi_derivative(phi, 1.0)


# ---------------------------------------------------------------------------
# Bernstein-gamma
# ---------------------------------------------------------------------------

def test_gamma_oracle():
    ev = default_evaluator(PHI_ID, 1e-10, 40.0)
    z = validation_grid()
    err = np.abs(np.exp(ev.log_w(z) - loggamma(z)) - 1.0)
    assert err.max() <= 1e-8


def test_w_trivial_values():
    ev = default_evaluator(PHI_ID, 1e-10, 40.0)
    assert ev.w(3.5).real == pytest.approx(1.875 * np.sqrt(np.pi), rel=1e-10)
    ev_aff = default_evaluator(PHI_AFF, 1e-10, 40.0)
    assert ev_aff.w(2.0).real == pytest.approx(2.0, rel=1e-9)


def test_w_gamma_ratio_closed_forms():
    for at in (0.3, 0.7):
        phi = make_bernstein("gamma-ratio-plus", alpha_tilde=at)
        ev = default_evaluator(phi, 1e-10, 40.0)
        z = validation_grid()
        ref = loggamma(at * z) - loggamma(at)
        assert np.abs(np.exp(ev.log_w(z) - ref) - 1.0).max() <= 1e-7
    for al, rho in ((0.3, 1.0), (0.7, 0.75)):
        phi = make_bernstein("gamma-ratio-minus", alpha=al, rho=rho)
        ev = default_evaluator(phi, 1e-10, 40.0)
        z = validation_grid()
        ref = loggamma(rho + al * z) - loggamma(al + rho)
        assert np.abs(np.exp(ev.log_w(z) - ref) - 1.0).max() <= 1e-7
    # one functional-equation step of the minus factor:
    # W(2) = phi(1) W(1) = Gamma(2)/Gamma(1.5)
    phi = make_bernstein("gamma-ratio-minus", alpha=0.5, rho=1.0)
    ev = default_evaluator(phi, 1e-10, 40.0)
    assert ev.w(2.0).real == pytest.approx(2.0 / np.sqrt(np.pi), rel=1e-9)


def test_w_constant_phi():
    phi = BernsteinFunction(phi0=3.0)
    ev = default_evaluator(phi, 1e-10, 40.0)
    z = np.array([0.5, 1.0, 2.5 + 3j])
    assert_allclose(ev.w(z), 3.0 ** (z - 1.0), rtol=1e-10)


def test_w_normalization_and_positivity():
    for fam in (PHI_ID, make_bernstein("stable", beta=0.5),
                make_bernstein("compound-poisson", atoms=[[1.0, 1.0]], c=0.5)):
        ev = default_evaluator(fam, 1e-10, 40.0)
        assert ev.w(1.0).real == pytest.approx(1.0, abs=1e-13)
        u = np.linspace(0.2, 8.0, 15)
        vals = ev.w(u + 0j)
        assert np.all(vals.real > 0)
        assert np.abs(vals.imag).max() <= 1e-10 * np.abs(vals.real).max()


def test_w_conjugate_symmetry():
    ev = default_evaluator(make_bernstein("stable", beta=0.5), 1e-10, 40.0)
    z = validation_grid()
    assert_allclose(ev.w(np.conj(z)), np.conj(ev.w(z)), rtol=1e-12)


def test_functional_equation_all_families():
    fams = [PHI_ID, PHI_AFF, make_bernstein("stable", beta=0.5),
            make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
            make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0),
            make_bernstein("compound-poisson", atoms=[[1.0, 1.0], [2.5, 0.5]],
                           c=0.2, d=0.3)]
    z = validation_grid()
    for phi in fams:
        ev = default_evaluator(phi, 1e-10, 40.0)
        lw, lw1 = ev.log_w(z), ev.log_w(z + 1.0)
        res = np.abs(1.0 - np.exp(np.log(eval_phi(phi, z)) + lw - lw1))
        assert res.max() <= 1e-10, phi


def test_functional_equation_tabulated_density():
    phi = make_bernstein(**stable_density_table(0.5))
    ev = default_evaluator(phi, 1e-7, 40.0)
    z = validation_grid()
    lw, lw1 = ev.log_w(z), ev.log_w(z + 1.0)
    res = np.abs(1.0 - np.exp(np.log(eval_phi(phi, z)) + lw - lw1))
    assert res.max() <= 1e-6
    # cross-oracle: the tabulated route reproduces the closed-form family
    ev_cf = default_evaluator(make_bernstein("stable", beta=0.5), 1e-10, 40.0)
    zz = np.array([0.5 + 1j, 1 + 10j, 2 + 30j, 1.5 + 0j])
    assert np.abs(np.exp(ev.log_w(zz) - ev_cf.log_w(zz)) - 1).max() <= 1e-5


@settings(max_examples=10, deadline=None)
@given(
    phi0=st.floats(0.0, 1.0),
    drift=st.floats(0.0, 2.0),
    y1=st.floats(0.2, 3.0),
    m1=st.floats(0.1, 2.0),
    y2=st.floats(0.05, 6.0),
    m2=st.floats(0.1, 1.0),
)
def test_functional_equation_random_triplets(phi0, drift, y1, m1, y2, m2):
    phi = BernsteinFunction(phi0=phi0, drift=drift,
                            measure=AtomMeasure(((y1, m1), (y2, m2))))
    ev = BernsteinGammaEvaluator(phi, tol=1e-8, zmax=35.0)
    z = validation_grid(n=9)
    res = np.abs(1.0 - np.exp(np.log(eval_phi(phi, z))
                              + ev.log_w(z) - ev.log_w(z + 1.0)))
    assert res.max() <= 1e-7


def _eigen_zmax():
    # the horizon multiplier_h builds its evaluators with on EIGEN_GRID
    return float(np.hypot(0.5, EIGEN_GRID.nyquist)) + 2.0


def test_w_gamma_ratio_closed_forms_up_to_horizon():
    zmax = _eigen_zmax()
    assert zmax > 1700.0
    xi = np.concatenate([np.linspace(0.0, 30.0, 31),
                         np.geomspace(30.0, zmax - 1.0, 60)])
    z = np.concatenate([0.5 + 1j * xi, 0.5 - 1j * xi, 2.0 + 1j * xi[:-1]])
    cases = ((make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
              loggamma(0.7 * z) - loggamma(0.7)),
             (make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0),
              loggamma(1.0 + 0.3 * z) - loggamma(1.3)))
    for phi, ref in cases:
        ev = default_evaluator(phi, 1e-10, zmax)
        assert ev.truncation <= 64
        assert np.abs(np.exp(ev.log_w(z) - ref) - 1.0).max() <= 1e-9
        assert ev.horizon_residual <= 1e-9


def test_functional_equation_atoms_at_horizon():
    # an atom at y ~ 1/K makes phi oscillate along vertical lines with
    # amplitude e^{-Ky}; the segment integral must resolve it up to zmax
    zmax = _eigen_zmax()
    for atoms in ([[0.03, 1.0]], [[0.2, 2.0]]):
        phi = make_bernstein("compound-poisson", atoms=atoms, d=0.1)
        ev = BernsteinGammaEvaluator(phi, tol=1e-10, zmax=zmax)
        z = 0.5 + 1j * np.linspace(zmax - 60.0, zmax - 2.0, 30)
        res = np.abs(1.0 - np.exp(np.log(eval_phi(phi, z))
                                  + ev.log_w(z) - ev.log_w(z + 1.0)))
        assert res.max() <= 1e-10
        assert ev.horizon_residual <= 1e-10


def test_w_gamma_ratio_closed_forms_to_tol_up_to_horizon():
    zmax = _eigen_zmax()
    xi = np.concatenate([np.linspace(0.0, 30.0, 31),
                         np.geomspace(30.0, zmax - 1.0, 60)])
    z = np.concatenate([0.5 + 1j * xi, 0.5 - 1j * xi, 2.0 + 1j * xi[:-1]])
    cases = ((make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
              loggamma(0.7 * z) - loggamma(0.7)),
             (make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0),
              loggamma(1.0 + 0.3 * z) - loggamma(1.3)))
    for phi, ref in cases:
        ev = default_evaluator(phi, 1e-10, zmax)
        assert np.abs(np.exp(ev.log_w(z) - ref) - 1.0).max() <= 1e-10
        assert max(ev.residual, ev.horizon_residual) <= 1e-10


def test_evaluator_gates_on_horizon_residual():
    # at |z| ~ 1718, |log W| ~ 1e4 for drift, and its float64 rounding alone
    # puts the horizon residual near 2e-12, while the validation grid
    # (|Im z| <= 30) reads 2e-14
    zmax = _eigen_zmax()
    ev = BernsteinGammaEvaluator(PHI_ID, tol=1e-10, zmax=zmax)
    assert ev.residual <= 1e-12 < ev.horizon_residual
    with pytest.raises(ConvergenceError, match="horizon"):
        BernsteinGammaEvaluator(PHI_ID, tol=1e-12, zmax=zmax)


def test_log_w_phi_evaluations_per_point(monkeypatch):
    # per point: K shifts, the circle and phi(z) itself; per line: one pass
    # whose grid panels cost O(zmax)
    import spectral_ssmp.bernstein as bmod
    count = [0]

    def counted(phi, z):
        count[0] += np.size(z)
        return eval_phi(phi, z)

    n = 2000
    z = 0.5 + 1j * np.linspace(-299.0, 299.0, n)
    for phi in (PHI_ID, make_bernstein("compound-poisson",
                                       atoms=[[0.03, 1.0]], d=0.1)):
        ev = BernsteinGammaEvaluator(phi, tol=1e-10, zmax=300.0)
        count[0] = 0
        with monkeypatch.context() as m:
            m.setattr(bmod, "eval_phi", counted)
            ev.log_w(z)
        per_point = bmod._K + bmod._CIRCLE_N + 1
        assert count[0] <= (per_point + 8) * n + 8 * ev.zmax


def test_log_w_groups_points_by_real_part():
    # points sharing a vertical pass agree with one-point calls
    rng = np.random.default_rng(7)
    re = np.linspace(0.0, 3.0, 20)
    z = (re[:, None] + 1j * rng.uniform(-200.0, 200.0, (20, 6))).ravel()
    for phi in (PHI_AFF, make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
                make_bernstein("compound-poisson", atoms=[[0.03, 1.0]],
                               d=0.1)):
        ev = default_evaluator(phi, 1e-10, 300.0)
        one = np.array([ev.log_w(complex(v)) for v in z])
        assert_allclose(ev.log_w(z), one, rtol=1e-13, atol=0.0)


def test_vertical_leg_rule_converges(monkeypatch):
    # halving the panel width moves log W by less than tol/100: for atoms
    # that oscillate along the line (y = 0.03) or not (y = 1), the gamma
    # pair up to the horizon, and the stable(1/2) table
    import spectral_ssmp.bernstein as bmod
    tol = 1e-10
    zmax = _eigen_zmax()
    xi = np.geomspace(1.0, zmax - 3.0, 40)
    line = np.concatenate([0.5 + 1j * xi, 1.5 - 1j * xi])
    cases = [(make_bernstein("compound-poisson", atoms=[[y, 1.0]], d=0.1),
              zmax, line) for y in (0.03, 1.0)]
    cases += [(make_bernstein("gamma-ratio-plus", alpha_tilde=0.7), zmax, line),
              (make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0),
               zmax, line),
              (make_bernstein(**stable_density_table(0.5)), 216.0,
               0.5 + 1j * np.linspace(-214.0, 214.0, 241))]
    for phi, zm, z in cases:
        ev = BernsteinGammaEvaluator(phi, tol=tol, zmax=zm)
        lw = ev.log_w(z)
        with monkeypatch.context() as m:
            m.setattr(bmod, "_PANEL_H", bmod._PANEL_H / 2)
            finer = ev.log_w(z)
        assert np.abs(finer - lw).max() < tol / 100, phi


def test_w_domain_and_horizon_errors():
    ev = default_evaluator(PHI_ID, 1e-10, 40.0)
    with pytest.raises(DomainError):
        ev.log_w(-0.5 + 1j)
    with pytest.raises(ConvergenceError):
        ev.log_w(0.5 + 100j)


def test_evaluator_builds_once_when_tol_is_out_of_reach(monkeypatch):
    # a larger K does not lower the residual, so a missed tol raises after
    # one table build instead of doubling K
    import spectral_ssmp.bernstein as bmod
    calls = []

    def counted(phi, u):
        calls.append(u)
        return phi_derivative(phi, u)

    monkeypatch.setattr(bmod, "phi_derivative", counted)
    with pytest.raises(ConvergenceError):
        BernsteinGammaEvaluator(PHI_ID, tol=1e-30, zmax=40.0)
    assert len(calls) == 1


def test_w_boundary_pole_detected():
    # phi(0) = 0 puts a pole of W at the origin
    ev = default_evaluator(PHI_ID, 1e-10, 40.0)
    with pytest.raises(DomainError):
        ev.log_w(0.0 + 0j)


# ---------------------------------------------------------------------------
# Theta functionals
# ---------------------------------------------------------------------------

def test_theta_zero_frequency():
    assert theta_integral(PHI_ID, 1.0, 0.0) == 0.0


def test_theta_constant_phi():
    phi = BernsteinFunction(phi0=2.0)
    assert theta_integral(phi, 1.0, 10.0) == pytest.approx(0.0, abs=1e-14)
    assert theta_limits(phi, 500.0, 8) == (0.0, 0.0)


def test_theta_drift_closed_form():
    # integral_0^1 arctan(w) dw = pi/4 - ln(2)/2
    val = theta_integral(PHI_ID, 1.0, 1.0)
    assert val == pytest.approx(np.pi / 4 - np.log(2.0) / 2, abs=1e-10)


def test_theta_alternative_form():
    # xi * Theta(a, xi) also equals integral_a^inf log(|phi(u+i xi)|/phi(u)) du
    for phi, a, xi in ((PHI_ID, 1.0, 3.0), (PHI_AFF, 0.7, 5.0)):
        direct = theta_integral(phi, a, xi)
        integrand = lambda u: float(np.log(
            abs(complex(eval_phi(phi, u + 1j * xi)))
            / eval_phi(phi, u).real))
        alt, err = quad(integrand, a, np.inf, limit=400)
        assert direct == pytest.approx(alt, abs=1e-6 + 10 * err)


def test_theta_integral_array_matches_scalar_calls():
    # one cumulative pass over an unsorted array with a repeat and a zero
    xs = np.array([40.0, 0.0, 3.5, 200.0, 3.5, 0.25])
    for phi in (make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
                make_bernstein("compound-poisson", atoms=[[1.0, 2.0]], d=1.0)):
        got = theta_integral(phi, 0.5, xs)
        ref = np.array([theta_integral(phi, 0.5, x) for x in xs])
        assert got.shape == xs.shape
        assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_theta_limits_drift_and_gamma():
    lo, hi = theta_limits(PHI_ID, 800.0, 8)
    assert 0.0 <= lo <= hi <= np.pi / 2 + 1e-12
    assert hi == pytest.approx(np.pi / 2, abs=0.01)
    at = 0.7
    phi = make_bernstein("gamma-ratio-plus", alpha_tilde=at)
    lo_g, hi_g = theta_limits(phi, 2000.0, 6)
    assert hi_g == pytest.approx(at * np.pi / 2, abs=0.02)
    assert 0.0 <= lo_g <= hi_g <= np.pi / 2 + 1e-12


# ---------------------------------------------------------------------------
# asymptotic magnitude
# ---------------------------------------------------------------------------

def test_magnitude_estimate_vs_gamma():
    # ratio |W| / estimate bounded above and below, stable under refinement
    ev = default_evaluator(PHI_ID, 1e-10, 250.0)
    for xis in (np.geomspace(10, 200, 7), np.geomspace(10, 200, 13)):
        ratios = []
        for xi in xis:
            est = asymptotic_magnitude(PHI_ID, 0.5, xi, evaluator=ev)
            ratios.append(abs(ev.w(0.5 + 1j * xi)) / est)
        ratios = np.asarray(ratios)
        c = max(ratios.max(), 1.0 / ratios.min())
        assert np.isfinite(c) and c < 10.0


def test_magnitude_constant_phi_no_decay():
    phi = BernsteinFunction(phi0=2.0)
    e1 = asymptotic_magnitude(phi, 1.0, 10.0)
    e2 = asymptotic_magnitude(phi, 1.0, 200.0)
    assert e1 == pytest.approx(e2, rel=1e-9)  # Theta == 0: no decay


def test_magnitude_power_form():
    phi = BernsteinFunction(
        drift=1.0, measure=AtomMeasure(((1.0, 1.0),)),
        metadata=TailMetadata(nu_bar_at_zero=1.0, mass_m=1.0))
    # exponent at a = 1/2 is a + m/d - 1/2 = 1
    v1 = asymptotic_magnitude(phi, 0.5, 50.0, form="power")
    v2 = asymptotic_magnitude(phi, 0.5, 100.0, form="power")
    power = np.log(v2 / v1) / np.log(2.0) + 0.5 * np.pi * 50.0 / np.log(2.0)
    assert power == pytest.approx(1.0, abs=1e-9)


def test_magnitude_metadata_error():
    with pytest.raises(MetadataError):
        asymptotic_magnitude(PHI_ID, 0.5, 10.0, form="power")


def test_tail_metadata_validation():
    with pytest.raises(DomainError):
        TailMetadata(rv_index=1.5)
