"""Bernstein functions, Bernstein-gamma evaluation, Theta functionals."""

import functools
import math

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
    _measure_rule,
    _tails,
    default_evaluator,
    eval_phi,
    phi_derivative,
    theta_integral,
    theta_limits,
)
from spectral_ssmp.eigenfunctions import EIGEN_GRID
from spectral_ssmp.errors import ConvergenceError, DomainError
from spectral_ssmp.families import make_bernstein, stable_density_table

PHI_ID = BernsteinFunction(drift=1.0)
PHI_AFF = BernsteinFunction(phi0=1.0, drift=1.0)

# the line evaluator for any factor, closed forms included, shared between
# tests as default_evaluator shares its evaluators
line_evaluator = functools.lru_cache(maxsize=32)(BernsteinGammaEvaluator)


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


def test_atom_measure_needs_an_atom():
    with pytest.raises(DomainError):
        AtomMeasure(())


NAN, INF = math.nan, math.inf
TABLE_Y = tuple(np.geomspace(1e-3, 1e2, 11))
TABLE_D = tuple(np.asarray(TABLE_Y) ** -1.5)


@pytest.mark.parametrize("build", [
    # a closed form: its kind, its parameter count, each index in (0, 1)
    # and a finite rho >= 0
    lambda: ClosedFormMeasure("stable", (1.5,)),
    lambda: ClosedFormMeasure("stable", (NAN,)),
    lambda: ClosedFormMeasure("stable", (0.5, 1.0)),
    lambda: ClosedFormMeasure("gamma-ratio", (-0.5, 0.0)),
    lambda: ClosedFormMeasure("gamma-ratio", (1.0, 0.0)),
    lambda: ClosedFormMeasure("gamma-ratio", (0.3,)),
    lambda: ClosedFormMeasure("gamma-ratio", (0.3, -1.0)),
    lambda: ClosedFormMeasure("gamma-ratio", (0.3, INF)),
    lambda: ClosedFormMeasure("gamma-ratio", (0.3, NAN)),
    lambda: ClosedFormMeasure("gamma-ratio", (NAN, 1.0)),
    lambda: ClosedFormMeasure("beta", (0.5,)),
    # the two gamma families build the one kind "gamma-ratio"
    lambda: ClosedFormMeasure("gamma-ratio-minus", (0.3, 1.0)),
    lambda: ClosedFormMeasure("gamma-ratio-plus", (0.7,)),
    # atoms: finite positive locations and masses
    lambda: AtomMeasure(((NAN, 1.0),)),
    lambda: AtomMeasure(((INF, 1.0),)),
    lambda: AtomMeasure(((1.0, NAN),)),
    lambda: AtomMeasure(((1.0, 2.0), (3.0, INF))),
    # a table: finite nodes, values and tail exponents
    lambda: DensityMeasure(TABLE_Y[:-1] + (INF,), TABLE_D, 0.5, 0.5),
    lambda: DensityMeasure((NAN,) + TABLE_Y[1:], TABLE_D, 0.5, 0.5),
    lambda: DensityMeasure(TABLE_Y, TABLE_D[:-1] + (NAN,), 0.5, 0.5),
    lambda: DensityMeasure(TABLE_Y, (INF,) + TABLE_D[1:], 0.5, 0.5),
    lambda: DensityMeasure(TABLE_Y, TABLE_D[:-1], 0.5, 0.5),
    lambda: DensityMeasure(TABLE_Y, TABLE_D, NAN, 0.5),
    lambda: DensityMeasure(TABLE_Y, TABLE_D, -INF, 0.5),
    lambda: DensityMeasure(TABLE_Y, TABLE_D, 0.5, INF),
    lambda: DensityMeasure(TABLE_Y, TABLE_D, 0.5, 0.0),
    # the triplet: finite phi(0) and drift, and a0 < 1 for a density
    lambda: BernsteinFunction(phi0=NAN, drift=1.0),
    lambda: BernsteinFunction(phi0=INF),
    lambda: BernsteinFunction(drift=NAN),
    lambda: BernsteinFunction(phi0=1.0, drift=INF),
    lambda: BernsteinFunction(
        measure=DensityMeasure(TABLE_Y, TABLE_D, 1.0, 0.5)),
    lambda: BernsteinFunction(
        measure=DensityMeasure(TABLE_Y, TABLE_D, 1.5, 0.5)),
    # an all-zero table, which built a factor with phi = 0 at z = 1 and 2
    # that only the W evaluator's build refused
    lambda: DensityMeasure(TABLE_Y, (0.0,) * len(TABLE_Y), 0.5, 0.5),
])
def test_descriptor_rejects_out_of_range_fields(build):
    # each descriptor checks its own fields, so a hand-built factor meets
    # the checks of its family; unchecked, ("gamma-ratio", (0.3,)) fails
    # later with a bare ValueError and ("gamma-ratio", (-0.5, 0.0)) gives
    # an inf/nan phi
    with pytest.raises(DomainError):
        build()


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


def _mp_laplace_sum(rule, z):
    """sum_q w_q e^{-z y_q} over every node of a rule, in mpmath."""
    import mpmath as mp
    with mp.workdps(30):
        return np.array([complex(mp.fsum(
            mp.mpf(w) * mp.exp(-mp.mpc(v) * mp.mpf(y))
            for y, w in zip(rule.nodes, rule.weights))) for v in z])


def test_eval_phi_tabulated_density_far_right():
    # nodes with Re(z) y > 40 are dropped from the Laplace sum; the sum that
    # eval_phi takes matches an mpmath sum over every node of the same rule
    phi = make_bernstein(**stable_density_table(0.5))
    r = _measure_rule(phi.measure)
    z = np.array([40.0 + 3.0j, 400.0 - 50.0j, 2000.0 + 1700.0j])
    lap = np.sum(r.weights) + r.rem - r.series(z, 1) - eval_phi(phi, z)
    assert_allclose(lap, _mp_laplace_sum(r, z), rtol=1e-15)


def test_eval_phi_tabulated_density_matches_mpmath():
    # phi cancels the mass sum (about 564) against the Laplace sum; a
    # pairwise sum of the Laplace terms keeps phi within 2e-14 of the same
    # rule summed in mpmath
    import mpmath as mp
    phi = make_bernstein(**stable_density_table(0.5))
    r = _measure_rule(phi.measure)
    z = np.array([1.0, 0.5 + 2.0j, 40.0 + 3.0j])
    with mp.workdps(30):
        mass = float(mp.fsum(mp.mpf(w) for w in r.weights) + r.rem)
    ref = mass - _mp_laplace_sum(r, z) - r.series(z, 1)
    assert_allclose(eval_phi(phi, z), ref, rtol=2e-14)


def test_phi_derivative_of_gamma_ratios_matches_mpmath():
    # the complex step keeps phi' as accurate as the gamma ratio itself,
    # with no difference of two digamma values
    import mpmath as mp
    u = np.geomspace(1e-6, 300.0, 40)
    for phi, a, rho in ((make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
                         0.7, 0.0),
                        (make_bernstein("gamma-ratio-minus", alpha=0.3,
                                        rho=1.0), 0.3, 1.0)):
        with mp.workdps(30):
            ref = np.array([float(a * mp.gamma(x + a) / mp.gamma(x)
                                  * (mp.digamma(x + a) - mp.digamma(x)))
                            for x in (rho + a * mp.mpf(v) for v in u)])
        assert_allclose(phi_derivative(phi, u), ref, rtol=1e-14)


def test_phi_derivative_at_zero_for_every_kind():
    # phi'(0+) = drift + integral y nu(dy), inf when nu has no first moment
    import mpmath as mp
    assert phi_derivative(PHI_ID, 0.0) == 1.0
    assert phi_derivative(PHI_AFF, 0.0) == 1.0
    assert phi_derivative(make_bernstein("stable", beta=0.5), 0.0) == np.inf
    plus = make_bernstein("gamma-ratio-plus", alpha_tilde=0.7)
    assert phi_derivative(plus, 0.0) == pytest.approx(math.gamma(1.7),
                                                      rel=1e-15)
    minus = make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0)
    with mp.workdps(30):
        ref = float(0.3 * mp.gamma(1.3) * (mp.digamma(1.3) - mp.digamma(1)))
    assert phi_derivative(minus, 0.0) == pytest.approx(ref, rel=1e-14)
    atoms = BernsteinFunction(measure=AtomMeasure(((1.0, 2.0), (3.0, 0.5))))
    assert_allclose(phi_derivative(atoms, np.array([0.0, 1.0])),
                    [3.5, 2.0 * np.exp(-1.0) + 1.5 * np.exp(-3.0)],
                    rtol=1e-15)
    # a table with infinity tail exponent 1/2 has no first moment; one with
    # y^{-1.5} min(1, 1/y) has moment 2 + 2, the part beyond the nodes
    # included
    table = make_bernstein(**stable_density_table(0.5))
    assert phi_derivative(table, 0.0) == np.inf
    ys = np.geomspace(1e-3, 100.0, 51)
    dens = ys ** -1.5 * np.minimum(1.0, 1.0 / ys)
    phi = BernsteinFunction(drift=0.5, measure=DensityMeasure(
        tuple(ys), tuple(dens), 0.5, 1.5))
    assert phi_derivative(phi, 0.0) == pytest.approx(4.5, rel=1e-14)
    with pytest.raises(DomainError):
        phi_derivative(PHI_ID, -1e-3)


def test_density_small_tail_at_the_guard():
    # the head c0 y^{-1-a0} on (0, y_min] up to |z| y_min = 10, against the
    # closed form of phi's part in the lower incomplete gamma function,
    # w = z y_min:
    #   integral (1 - e^{-zy}) = c0 y_min^{-a0}
    #       * (w^a0 gamma(1 - a0, w) - 1 + e^{-w}) / a0
    import mpmath as mp
    phi = make_bernstein(**stable_density_table(0.5))
    meas = phi.measure
    rule = _measure_rule(meas)
    y0, a0 = meas.y[0], meas.tail_exponent_zero
    c0 = meas.density[0] * y0 ** (1.0 + a0)
    for w in (0.5, 5.0, 10.0, 10.0j, 7.0 + 7.0j):
        z = np.array([w / y0])
        with mp.workdps(30):
            wm = mp.mpc(w)
            lower = mp.gammainc(1 - a0, 0, wm)
            closed = (wm ** a0 * lower - 1 + mp.exp(-wm)) / a0
            ref = complex(c0 * y0 ** (-a0) * closed)
        got = -complex(rule.series(z, 1)[0])
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_phi_derivative_raises_beyond_the_guard():
    # density y^{-1.9} tabulated on [2, 4]: phi'(u) = integral y e^{-uy}
    # nu(dy) goes through the head series up to u y_min = 10 and raises
    # beyond it, where the alternating series loses every digit
    ys = np.geomspace(2.0, 4.0, 8)
    phi = BernsteinFunction(measure=DensityMeasure(
        tuple(ys), tuple(ys ** -1.9), 0.9, 4.0))
    u = 5.0
    ref, _ = quad(lambda y: y ** -0.9 * np.exp(-u * y), 0.0, 2.0)
    ref += quad(lambda y: y ** -0.9 * np.exp(-u * y), 2.0, 4.0)[0]
    ref += quad(lambda y: 4.0 ** 3.1 * y ** -4.0 * np.exp(-u * y),
                4.0, np.inf)[0]
    assert float(phi_derivative(phi, u)) == pytest.approx(ref, rel=1e-9)
    for u in (20.0, 32.0):
        with pytest.raises(ConvergenceError):
            phi_derivative(phi, u)


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
    for make in (line_evaluator, default_evaluator):
        for phi, ref in cases:
            ev = make(phi, 1e-10, zmax)
            assert ev.truncation <= 64
            assert np.abs(np.exp(ev.log_w(z) - ref) - 1.0).max() <= 1e-9
            assert ev.horizon_residual <= 1e-9


def test_affine_log_w_up_to_horizon():
    # phi(z) = 1 + z, W(z) = Gamma(z + 1), up to the horizon: the terms
    # linear in z cancel in the evaluator, so no rounding grows with |z|;
    # the same for drift, W = Gamma, and both gamma-ratio kinds
    import mpmath as mp
    zmax = _eigen_zmax()
    z = 0.5 + 1j * np.linspace(0.0, zmax - 2.0, 400)
    cases = (
        (PHI_AFF, lambda v: mp.loggamma(v + 1)),
        (PHI_ID, mp.loggamma),
        (make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
         lambda v: mp.loggamma(0.7 * v) - mp.loggamma(0.7)),
        (make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0),
         lambda v: mp.loggamma(1 + 0.3 * v) - mp.loggamma(1.3)))
    for phi, log_w in cases:
        with mp.workdps(30):
            ref = np.array([complex(log_w(mp.mpc(v))) for v in z])
        for make in (line_evaluator, default_evaluator):
            ev = make(phi, 1e-10, zmax)
            assert np.abs(ev.log_w(z) - ref).max() <= 2.5e-12, (make, phi)


def test_functional_equation_atoms_on_the_whole_line():
    # an atom at 1 with drift 1: |1 - phi(z) W(z) / W(z + 1)| on Re z = 1/2
    # for |Im z| up to 1716 (3.7e-12 measured)
    phi = make_bernstein("compound-poisson", atoms=[[1.0, 2.0]], d=1.0)
    ev = default_evaluator(phi, 1e-10, _eigen_zmax())
    z = 0.5 + 1j * np.linspace(-1716.0, 1716.0, 801)
    res = np.abs(1.0 - np.exp(np.log(eval_phi(phi, z)) + ev.log_w(z)
                              - ev.log_w(z + 1.0)))
    assert res.max() <= 1e-11


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


@pytest.mark.parametrize("atoms,c,d", [
    ([[1.0, 1.0]], 0.0, 1.0),
    ([[0.5, 2.0], [2.0, 0.7]], 0.3, 0.5),
], ids=["one-atom", "two-atoms-killed"])
def test_w_of_atoms_matches_the_gauss_product(atoms, c, d):
    # an independent reference that needs no functional equation: the
    # Gauss product log W(z) = -log phi(z) + z log phi(1)
    #   + sum_{k>=1} [z log(phi(k+1)/phi(k)) - log(phi(z+k)/phi(k))],
    # its terms k < K0 = 200 summed in mpmath at 30 digits; beyond them
    # phi(k) = d (k + s) to e^{-100}, with s = (phi(0) + M)/d and M the
    # total mass, so the tail is -z log(K0 + s) + log Gamma(z + K0 + s)
    # - log Gamma(K0 + s) (1.6e-14 measured; mpmath.nsum's default
    # extrapolation was 1e-4 off)
    import mpmath as mp
    phi = make_bernstein("compound-poisson", atoms=atoms, c=c, d=d)
    zs = (0.5, 1.5 + 2j, 3 + 10j, 0.25 - 5j, 2 + 30j, 0.7 + 100j)
    k0 = 200
    with mp.workdps(30):
        def phi_mp(z):
            return c + d * z + mp.fsum(m * (1 - mp.exp(-z * y))
                                       for y, m in atoms)

        shift = (c + sum(m for _, m in atoms)) / mp.mpf(d)
        head = [phi_mp(k) for k in range(1, k0 + 1)]
        log_steps = mp.fsum(mp.log(head[k] / head[k - 1])
                            for k in range(1, k0))
        ref = []
        for z in map(mp.mpc, zs):
            total = -mp.log(phi_mp(z)) + z * mp.log(head[0]) + z * log_steps
            total -= mp.fsum(mp.log(phi_mp(z + k) / head[k - 1])
                             for k in range(1, k0))
            total += (-z * mp.log(k0 + shift) + mp.loggamma(z + k0 + shift)
                      - mp.loggamma(k0 + shift))
            ref.append(complex(total))
    got = default_evaluator(phi).log_w(np.array(zs))
    assert np.max(np.abs(got - np.array(ref))) <= 1e-12


def test_w_gamma_ratio_closed_forms_to_tol_up_to_horizon():
    zmax = _eigen_zmax()
    xi = np.concatenate([np.linspace(0.0, 30.0, 31),
                         np.geomspace(30.0, zmax - 1.0, 60)])
    z = np.concatenate([0.5 + 1j * xi, 0.5 - 1j * xi, 2.0 + 1j * xi[:-1]])
    cases = ((make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
              loggamma(0.7 * z) - loggamma(0.7)),
             (make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0),
              loggamma(1.0 + 0.3 * z) - loggamma(1.3)))
    for make in (line_evaluator, default_evaluator):
        for phi, ref in cases:
            ev = make(phi, 1e-10, zmax)
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


# the half line of a 4096-point multiplier grid on the window [-20, 40]
HALF_LINE = 0.5 + 1j * np.arange(2049) * (2.0 * np.pi / 60.0)


def test_log_w_phi_evaluations_per_point(monkeypatch):
    # a dense line: k0 near columns per point, and the n Chebyshev points of
    # each panel with the far columns (K - k0 + 1 shifts and the circle);
    # a sparse line: the K + 21 columns per point, and the n points of each
    # panel for the vertical leg; one real leg per line
    import spectral_ssmp.bernstein as bmod
    count = [0]
    kernel = bmod._log_phi

    def counted(phi, z, c=None):
        count[0] += np.size(z) * (1 if c is None else np.size(c))
        return kernel(phi, z, c)

    n, far = bmod._CHEB_N, bmod._K - bmod._NEAR + 1 + bmod._CIRCLE_N
    sparse = 0.5 + 1j * np.random.default_rng(2).uniform(-299.0, 299.0, 50)
    panels = math.ceil(np.abs(sparse.imag).max() / bmod._PANEL_L)
    dense_panels = math.ceil(HALF_LINE.imag[-1] / bmod._PANEL_L)  # 27
    for phi in (PHI_ID, make_bernstein("compound-poisson",
                                       atoms=[[0.03, 1.0]], d=0.1)):
        ev = BernsteinGammaEvaluator(phi, tol=1e-10, zmax=300.0)
        with monkeypatch.context() as m:
            m.setattr(bmod, "_log_phi", counted)
            count[0] = 0
            ev.log_w(HALF_LINE)
            assert count[0] == (bmod._NEAR * HALF_LINE.size
                                + n * far * dense_panels + bmod._SIDE_N)
            assert count[0] <= 19 * HALF_LINE.size
            count[0] = 0
            ev.log_w(sparse)
            assert count[0] == ((bmod._K + bmod._CIRCLE_N + 1) * sparse.size
                                + n * panels + bmod._SIDE_N)


ALL_KINDS = (
    PHI_ID,
    PHI_AFF,
    make_bernstein("stable", beta=0.5),
    make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
    make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0),
    make_bernstein("compound-poisson", atoms=[[0.03, 1.0], [2.0, 0.5]],
                   d=0.1),
    make_bernstein(**stable_density_table(0.5)),
    # a gamma ratio plus drift is not the ratio itself: the generic path
    BernsteinFunction(drift=0.5,
                      measure=ClosedFormMeasure("gamma-ratio", (0.7, 0.0))),
)

# every kind of factor whose W has a log-Gamma closed form: drift, affine
# (unit and general drift), a constant, pure stable and both gamma ratios
CLOSED_KINDS = (PHI_ID, PHI_AFF, BernsteinFunction(phi0=0.5, drift=2.0),
                BernsteinFunction(phi0=3.0), ALL_KINDS[2], ALL_KINDS[3],
                ALL_KINDS[4])


@pytest.mark.parametrize("phi", ALL_KINDS)
def test_log_phi_matches_log_of_eval_phi(phi):
    # the kernel's direct gamma-ratio log and its real-ufunc logs agree with
    # np.log(eval_phi) to 4 ulp of max(1, |L|)
    from spectral_ssmp.bernstein import _log_phi
    t = np.concatenate([-np.geomspace(1e-3, 1700.0, 40),
                        np.geomspace(1e-3, 1700.0, 40)])
    z = (np.array([0.0, 0.5, 2.0, 33.0])[:, None] + 1j * t).ravel()
    z = np.concatenate([z, [0.5, 1.0, 7.0, 40.0]])
    ref = np.log(eval_phi(phi, z))
    got = _log_phi(phi, z)
    ulp = np.spacing(np.maximum(1.0, np.abs(ref)))
    assert np.all(np.abs(got - ref) <= 4.0 * ulp)


def test_log_phi_takes_the_ratio_only_for_the_ratio_itself(monkeypatch):
    import spectral_ssmp.bernstein as bmod
    calls = []

    def counted(x, a):
        calls.append(a)
        return np.zeros_like(x)

    monkeypatch.setattr(bmod, "log_gamma_ratio", counted)
    z = np.array([0.5 + 3j])
    assert bmod._log_phi(ALL_KINDS[3], z) == 0.0  # no exp, no log
    assert bmod._log_phi(ALL_KINDS[4], z) == 0.0
    assert calls == [0.7, 0.3]
    for phi in (ALL_KINDS[-1],
                BernsteinFunction(phi0=2.0, measure=ClosedFormMeasure(
                    "gamma-ratio", (0.3, 1.0)))):
        assert bmod._ratio_form(phi) is None


def test_log_w_blocks_are_bit_identical_to_one_block(monkeypatch):
    # the work is row by row: blocks of 7 points (and of one panel) give
    # the bits of one block, across real parts for closed forms, on one
    # line for atoms, and on a dense line whose panels are interpolated;
    # under the line evaluator, and under default_evaluator, which serves
    # the closed forms from log Gamma
    import spectral_ssmp.bernstein as bmod
    rng = np.random.default_rng(5)
    t = rng.uniform(-250.0, 250.0, 400)
    mixed = rng.choice([0.0, 0.5, 1.25, 3.0], 400) + 1j * t
    dense = 0.5 + 1j * np.concatenate([HALF_LINE.imag, -HALF_LINE.imag])
    cases = ((PHI_AFF, mixed), (ALL_KINDS[3], mixed),
             (ALL_KINDS[4], mixed), (ALL_KINDS[5], 0.5 + 1j * t),
             (ALL_KINDS[4], dense), (ALL_KINDS[5], dense),
             (ALL_KINDS[6], dense))
    cases = ([(line_evaluator, phi, z) for phi, z in cases]
             + [(default_evaluator, phi, z) for phi in CLOSED_KINDS
                for z in (mixed, dense)])
    for make, phi, z in cases:
        ev = make(phi, 1e-10, 300.0)
        with monkeypatch.context() as m:
            m.setattr(bmod, "_BLOCK", 10 ** 9)
            one = ev.log_w(z)
        with monkeypatch.context() as m:
            m.setattr(bmod, "_BLOCK", 7)
            assert np.array_equal(ev.log_w(z), one)


def test_laplace_product_bits_do_not_depend_on_the_rows():
    # chunks of _PRODUCT_DEPTH nodes, and one row doubled: a row's product
    # has the bits it has among 1024 rows (gemv and gemm sum in other
    # orders, and OpenBLAS cuts deep products by its thread count)
    import spectral_ssmp.bernstein as bmod
    rng = np.random.default_rng(4)
    ezw = rng.standard_normal((1024, 700)) * np.exp(1j * rng.uniform(
        -np.pi, np.pi, (1024, 700)))
    nodes = np.geomspace(1e-3, 40.0, 700)
    c = np.concatenate([np.arange(1.0, 17.0), 16.0 + 2.0j * np.arange(21)])
    full = bmod._laplace_product(ezw, nodes, c)
    for lo, rows in ((0, 1), (5, 1), (3, 2), (100, 36)):
        assert np.array_equal(
            bmod._laplace_product(ezw[lo:lo + rows], nodes, c),
            full[lo:lo + rows])
    assert_allclose(full, ezw @ np.exp(-np.outer(nodes, c)), rtol=1e-13)


def test_laplace_product_of_an_outer_sum_of_offsets():
    # a dense panel's offsets, Chebyshev points times the far columns, as
    # a 2-d outer sum: e^{-yc} from the exps of the two factors, with the
    # bits of any row count, and the values of the 1-d offsets
    import spectral_ssmp.bernstein as bmod
    rng = np.random.default_rng(6)
    ezw = rng.standard_normal((300, 700)) * np.exp(1j * rng.uniform(
        -np.pi, np.pi, (300, 700)))
    nodes = np.geomspace(1e-3, 40.0, 700)
    circle = 2.0 * np.exp(2j * np.pi * np.arange(20) / 20)
    far = np.concatenate([np.arange(8.0, 17.0), 16.0 + circle])
    c = 8j * bmod._chebyshev_rule(bmod._CHEB_N)[0][:, None] + far
    full = bmod._laplace_product(ezw, nodes, c)
    for lo, rows in ((0, 1), (7, 1), (3, 2), (100, 36)):
        assert np.array_equal(
            bmod._laplace_product(ezw[lo:lo + rows], nodes, c),
            full[lo:lo + rows])
    assert_allclose(full, bmod._laplace_product(ezw, nodes, c.ravel()),
                    rtol=0.0, atol=1e-13 * np.abs(full).max())


@pytest.mark.parametrize("phi", (PHI_ID, ALL_KINDS[4]))
def test_log_w_peak_memory_is_bounded_by_the_blocks(phi):
    # 16385 points on Re z = 1/2: the per-point matrix is walked in blocks,
    # so no elementwise pass writes a line-sized temporary
    import tracemalloc
    z = 0.5 + 1j * np.linspace(-1000.0, 1000.0, 16385)
    for make in (line_evaluator, default_evaluator):
        ev = make(phi, 1e-10, 1002.0)
        tracemalloc.start()
        try:
            ev.log_w(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20, make


def test_build_batches_its_log_phi_calls(monkeypatch):
    # tables, real legs, pass nodes (per block) and the validation and
    # horizon points with their +1 shifts: 28 calls before batching
    import spectral_ssmp.bernstein as bmod
    calls = []
    ratio = bmod.log_gamma_ratio

    def counted(x, a):
        calls.append(np.size(x))
        return ratio(x, a)

    monkeypatch.setattr(bmod, "log_gamma_ratio", counted)
    BernsteinGammaEvaluator(ALL_KINDS[3], tol=1e-10, zmax=216.0)
    assert len(calls) <= 8


def test_log_w_groups_points_by_real_part():
    # points sharing a vertical pass agree with one-point calls
    rng = np.random.default_rng(7)
    re = np.linspace(0.0, 3.0, 20)
    z = (re[:, None] + 1j * rng.uniform(-200.0, 200.0, (20, 6))).ravel()
    for phi in (PHI_AFF, make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
                make_bernstein("compound-poisson", atoms=[[0.03, 1.0]],
                               d=0.1)):
        ev = line_evaluator(phi, 1e-10, 300.0)
        one = np.array([ev.log_w(complex(v)) for v in z])
        assert_allclose(ev.log_w(z), one, rtol=1e-13, atol=0.0)


def test_vertical_leg_rule_converges(monkeypatch):
    # halving the panel length and raising the Chebyshev points per panel
    # moves log W by less than tol/100: for atoms that oscillate along the
    # line (y = 0.03) or not (y = 1), the gamma pair up to the horizon, the
    # stable(1/2) table, and dense lines whose far terms are interpolated
    # under both rules (38 points per panel of length 4)
    import spectral_ssmp.bernstein as bmod
    tol = 1e-10
    zmax = _eigen_zmax()
    xi = np.geomspace(1.0, zmax - 3.0, 40)
    line = np.concatenate([0.5 + 1j * xi, 1.5 - 1j * xi])
    atoms = [make_bernstein("compound-poisson", atoms=[[y, 1.0]], d=0.1)
             for y in (0.03, 1.0)]
    cases = [(phi, zmax, line) for phi in atoms]
    cases += [(make_bernstein("gamma-ratio-plus", alpha_tilde=0.7), zmax, line),
              (make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0),
               zmax, line),
              (make_bernstein(**stable_density_table(0.5)), 216.0,
               0.5 + 1j * np.linspace(-214.0, 214.0, 241))]
    cases += [(phi, 216.0, HALF_LINE) for phi in (atoms[0], ALL_KINDS[3])]
    for phi, zm, z in cases:
        ev = BernsteinGammaEvaluator(phi, tol=tol, zmax=zm)
        lw = ev.log_w(z)
        with monkeypatch.context() as m:
            m.setattr(bmod, "_PANEL_L", bmod._PANEL_L / 2)
            m.setattr(bmod, "_CHEB_N", bmod._CHEB_N + 8)
            finer = ev.log_w(z)
        assert np.abs(finer - lw).max() < tol / 100, phi


@pytest.mark.parametrize("phi", ALL_KINDS)
def test_interpolated_panels_agree_with_direct_points(phi):
    # dense lines at four real parts, with points on panel edges and on
    # Chebyshev points: the interpolated far terms and partial legs agree
    # with one-point calls, which take every column directly.  The table's
    # phi cancels its mass sum (564) against its Laplace sum, and its
    # rounding depends on the smallest Re of a batch: one-point and line
    # calls differed by up to 1.7e-12 before any interpolation, hence atol
    import spectral_ssmp.bernstein as bmod
    nodes = bmod._chebyshev_rule(bmod._CHEB_N)[0]
    ell = bmod._PANEL_L
    t = np.concatenate([np.linspace(0.05, 100.0, 600),
                        ell * np.arange(1, 13),
                        ell * (3 + nodes), ell * (11 + nodes[1:-1])])
    z = (np.array([0.0, 0.5, 1.25, 3.0])[:, None]
         + 1j * np.concatenate([t, -t[::5]])).ravel()
    ev = line_evaluator(phi, 1e-10, 300.0)
    lw = ev.log_w(z)
    pick = np.concatenate([np.arange(0, z.size, 23),
                           np.flatnonzero(np.isin(np.abs(z.imag), t[600:]))])
    one = np.array([ev.log_w(complex(v)) for v in z[pick]])
    atol = 2e-12 if isinstance(phi.measure, DensityMeasure) else 0.0
    assert_allclose(lw[pick], one, rtol=1e-13, atol=atol)


def test_chebyshev_rule_integrates_polynomials():
    # S integrates every polynomial of degree < n exactly (to rounding),
    # and the Clenshaw-Curtis weights sum to 1 in extended precision: in
    # float64 they summed to 1 + 1.5e-16, a bias that grows with the height
    # of a line
    import spectral_ssmp.bernstein as bmod
    x, w, s, cc = bmod._chebyshev_rule(bmod._CHEB_N)
    assert x[0] == 0.0 and x[-1] == 1.0 and np.all(np.diff(x) > 0)
    for k in range(x.size):
        assert_allclose(s @ x ** k, x ** (k + 1) / (k + 1), rtol=0, atol=1e-15)
    assert cc.dtype == np.longdouble and abs(cc.sum() - 1) <= 1e-18
    assert_allclose(bmod._barycentric(np.array([0.3, x[5]]), x, w) @ x ** 7,
                    [0.3 ** 7, x[5] ** 7], rtol=1e-14)


def test_log_w_on_the_multiplier_half_line_matches_mpmath():
    # the 4096-point grid's half line, 0 <= xi <= 214.4, against log-Gamma
    # closed forms, for the line evaluator and for default_evaluator's
    # closed form; the error is the rounding of |log W| up to 1.1e3
    import mpmath as mp
    cases = (
        (PHI_ID, mp.loggamma),
        (PHI_AFF, lambda v: mp.loggamma(v + 1)),
        (ALL_KINDS[3], lambda v: mp.loggamma(0.7 * v) - mp.loggamma(0.7)),
        (ALL_KINDS[4],
         lambda v: mp.loggamma(1 + 0.3 * v) - mp.loggamma(1.3)))
    zmax = float(np.abs(HALF_LINE[-1])) + 2.0
    for phi, log_w in cases:
        with mp.workdps(30):
            ref = np.array([complex(log_w(mp.mpc(v))) for v in HALF_LINE])
        for make in (line_evaluator, default_evaluator):
            lw = make(phi, 1e-10, zmax).log_w(HALF_LINE)
            assert np.abs(lw - ref).max() <= 2.5e-13, (make, phi)


def test_default_evaluator_takes_the_closed_form_where_one_exists():
    from spectral_ssmp.bernstein import _ClosedFormEvaluator
    for phi in CLOSED_KINDS:
        assert type(default_evaluator(phi, 1e-10, 40.0)) is \
            _ClosedFormEvaluator, phi
    # a ratio plus drift, stable with phi(0) > 0, gamma-ratio-minus with
    # phi(0) other than its ratio constant, atoms and a table: the line
    line = (ALL_KINDS[7],
            BernsteinFunction(phi0=1.0, measure=ALL_KINDS[2].measure),
            BernsteinFunction(phi0=2.0, measure=ALL_KINDS[4].measure),
            ALL_KINDS[5], ALL_KINDS[6])
    for phi in line:
        assert type(default_evaluator(phi, 1e-7, 40.0)) is \
            BernsteinGammaEvaluator, phi


def test_closed_form_evaluator_raises_as_the_line_evaluator():
    # tol out of reach, beyond zmax, Re z < 0, and the pole at z = 0 of
    # the kinds with phi(0) = 0.  A constant's W = phi0^{z-1} meets the
    # functional equation exactly (residuals 0), so no tol is out of reach
    for phi in CLOSED_KINDS:
        if phi.drift == 0.0 and phi.measure is None:
            ev = default_evaluator(phi, 1e-30, 40.0)
            assert ev.residual == ev.horizon_residual == 0.0
        else:
            with pytest.raises(ConvergenceError):
                default_evaluator(phi, 1e-30, 40.0)
        ev = default_evaluator(phi, 1e-10, 40.0)
        with pytest.raises(ConvergenceError):
            ev.log_w(0.5 + 100j)
        with pytest.raises(DomainError):
            ev.log_w(-0.5 + 1j)
        if phi.phi0 == 0.0:
            with pytest.raises(DomainError):
                ev.log_w(0.0 + 0j)


def test_closed_form_log_w_one_point_calls_are_bit_identical():
    # one-point calls against array calls across real parts: the closed
    # form is elementwise, and so is log_gamma to the bit
    rng = np.random.default_rng(3)
    z = rng.choice([0.0, 0.5, 1.25, 3.0], 300) + 1j * rng.uniform(
        -290.0, 290.0, 300)
    for phi in CLOSED_KINDS:
        ev = default_evaluator(phi, 1e-10, 300.0)
        one = np.array([ev.log_w(complex(v)) for v in z])
        assert np.array_equal(ev.log_w(z), one), phi


def test_closed_form_and_line_evaluators_agree_on_the_eigen_half_line():
    # the half line of the 32768-point eigenfunction grid, |Im z| <= 1716,
    # where |log W| reaches 1.3e4 and both evaluators round near its ulp:
    # they differ by 5.1e-15 of max(1, |log W|) at most (gamma-ratio-minus)
    n = EIGEN_GRID.n // 2
    z = 0.5 + 1j * np.arange(n + 1) * (EIGEN_GRID.nyquist / n)
    zmax = _eigen_zmax()
    for phi in CLOSED_KINDS:
        closed = default_evaluator(phi, 1e-10, zmax).log_w(z)
        line = line_evaluator(phi, 1e-10, zmax).log_w(z)
        scale = np.maximum(1.0, np.abs(closed))
        assert np.max(np.abs(closed - line) / scale) <= 1e-14, phi


def test_w_domain_and_horizon_errors():
    ev = default_evaluator(PHI_ID, 1e-10, 40.0)
    with pytest.raises(DomainError):
        ev.log_w(-0.5 + 1j)
    with pytest.raises(ConvergenceError):
        ev.log_w(0.5 + 100j)


def test_evaluator_builds_once_when_tol_is_out_of_reach(monkeypatch):
    # a larger K does not lower the residual, so a missed tol raises after
    # one table build instead of doubling K
    calls = []
    build = BernsteinGammaEvaluator._build_tables

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(BernsteinGammaEvaluator, "_build_tables", counted)
    with pytest.raises(ConvergenceError):
        BernsteinGammaEvaluator(PHI_ID, tol=1e-30, zmax=40.0)
    assert len(calls) == 1


def test_evaluator_refuses_non_finite_or_non_positive_tol_and_zmax():
    # NaN compares false and inf accepts every residual, so each is refused
    # with 0 before any table is built, by the line and the closed form
    bad = [(np.nan, 40.0), (np.inf, 40.0), (0.0, 40.0),
           (1e-10, np.nan), (1e-10, np.inf), (1e-10, 0.0)]
    for tol, zmax in bad:
        with pytest.raises(DomainError):
            BernsteinGammaEvaluator(PHI_ID, tol=tol, zmax=zmax)
        with pytest.raises(DomainError):
            default_evaluator(PHI_ID, tol, zmax)


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
    assert theta_limits(phi, 500.0) == (0.0, 0.0)


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
    lo, hi = theta_limits(PHI_ID, 800.0)
    assert 0.0 <= lo <= hi <= np.pi / 2 + 1e-12
    assert hi == pytest.approx(np.pi / 2, abs=0.01)
    at = 0.7
    phi = make_bernstein("gamma-ratio-plus", alpha_tilde=at)
    lo_g, hi_g = theta_limits(phi, 2000.0)
    assert hi_g == pytest.approx(at * np.pi / 2, abs=0.02)
    assert 0.0 <= lo_g <= hi_g <= np.pi / 2 + 1e-12


def test_theta_refuses_non_finite_or_out_of_range_arguments():
    # a NaN frequency would read as 0 and a NaN or infinite real part would
    # run the quadrature to its panel cap; theta_limits divides by xi_max
    for a in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(DomainError):
            theta_integral(PHI_ID, a, 1.0)
    for xi in (np.nan, np.inf, -1.0, [1.0, np.nan], [1.0, np.inf]):
        with pytest.raises(DomainError):
            theta_integral(PHI_ID, 0.5, xi)
    for xi_max in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(DomainError):
            theta_limits(PHI_ID, xi_max)


# ---------------------------------------------------------------------------
# tail facts
# ---------------------------------------------------------------------------

_TABLE = stable_density_table(0.5)


@pytest.mark.parametrize("family,params,want", [
    # (nu_bar(0+), rv_index, quasi_monotone) as the families declared them
    # before the facts were derived from the measure
    ("drift", {"d": 2.0}, (0.0, None, None)),
    ("affine", {"d": 1.0, "c": 0.5}, (0.0, None, None)),
    ("stable", {"beta": 0.3}, (math.inf, 0.3, True)),
    ("gamma-ratio-plus", {"alpha_tilde": 0.7}, (math.inf, 0.7, True)),
    ("gamma-ratio-minus", {"alpha": 0.4, "rho": 1.5}, (math.inf, 0.4, True)),
    ("compound-poisson",
     {"atoms": [[1.0, 0.1], [2.0, 0.2], [0.5, 0.3]], "c": 0.25, "d": 1.0},
     (0.1 + 0.2 + 0.3, None, None)),
    ("tabulated-density",
     {k: v for k, v in _TABLE.items() if k != "family"} | {"c": 0.5},
     (math.inf, 0.5, None)),
])
def test_tails_match_the_declared_family_facts(family, params, want):
    assert _tails(make_bernstein(family, **params)) == want


def test_tails_of_a_finite_activity_table():
    # head y^{-1/2} (a0 = -1/2) on (0, 1], y^{-2} beyond: mass 2 + 1 = 3
    y = np.geomspace(1e-4, 1e4, 161)
    dens = np.where(y <= 1.0, y ** -0.5, y ** -2.0)
    phi = make_bernstein("tabulated-density", y=list(y), density=list(dens),
                         tail_exponent_zero=-0.5, tail_exponent_inf=1.0,
                         c=0.25)
    nu_bar, rv, qm = _tails(phi)
    assert nu_bar == pytest.approx(3.0, rel=1e-10)
    assert (rv, qm) == (None, None)


def test_tails_of_a_table_without_head_mass():
    # a zero first density value makes the head c0 y^{-1-a0} vanish, so
    # the activity is finite whatever a0 declares
    y = np.geomspace(1e-3, 1e2, 51)
    dens = np.where(y < 1e-2, 0.0, np.exp(-y))
    phi = make_bernstein("tabulated-density", y=list(y), density=list(dens),
                         tail_exponent_zero=0.5, tail_exponent_inf=1.0)
    nu_bar, rv, _ = _tails(phi)
    assert math.isfinite(nu_bar) and rv is None


@pytest.mark.parametrize("phi, a", (
    pytest.param(PHI_ID, 0.5, id="converging"),
    # 1 - e^{-z} swings its arg through almost pi near w = 2 pi at
    # a = 1e-3, so the last pass still sees a jump above pi/2
    pytest.param(BernsteinFunction(measure=AtomMeasure(((1.0, 1.0),))),
                 1e-3, id="arg-jump")))
def test_theta_raises_quadrature_error_when_the_panels_run_out(
        phi, a, monkeypatch):
    import spectral_ssmp.bernstein as bmod
    monkeypatch.setattr(bmod, "_THETA_MAX_PANELS", 16)
    with pytest.raises(ConvergenceError, match="did not converge"):
        theta_integral(phi, a, 10.0)

