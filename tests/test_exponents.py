"""Levy-Khintchine exponents: evaluation, conjugation, representations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from spectral_ssmp import exponents
from spectral_ssmp.bernstein import (
    BernsteinFunction,
    DensityMeasure,
    _MeasureRule,
)
from spectral_ssmp.errors import DomainError
from spectral_ssmp.exponents import (
    Exponent,
    LevyQuadruplet,
    SignedMeasure,
    WienerHopfPair,
    conjugate,
    eval_psi,
    weak_nonlattice_check,
)
from spectral_ssmp.families import make_bernstein, stable_density_table

PHI_ID = make_bernstein("drift", d=1.0)
PAIR_ID = WienerHopfPair(PHI_ID, PHI_ID)
Q_BM = LevyQuadruplet(sigma2=1.0)


def test_eval_psi_quadruplet_gaussian():
    e = Exponent(quadruplet=Q_BM)
    assert eval_psi(e, 1.0) == pytest.approx(1.0)
    assert eval_psi(e, -3.0) == pytest.approx(9.0)


def test_eval_psi_pair_id():
    e = Exponent(pair=PAIR_ID)
    assert eval_psi(e, 2.0) == pytest.approx(4.0)


def test_gamma_pair_vanishes_at_zero():
    pair = WienerHopfPair(
        make_bernstein("gamma-ratio-plus", alpha_tilde=0.6),
        make_bernstein("gamma-ratio-minus", alpha=0.4, rho=1.0))
    assert abs(eval_psi(Exponent(pair=pair), 0.0)) <= 1e-14


def test_cross_representation_agreement():
    e = Exponent(quadruplet=Q_BM, pair=PAIR_ID)
    xi = np.linspace(-10.0, 10.0, 41)
    quad_vals = eval_psi(Exponent(quadruplet=Q_BM), xi)
    pair_vals = eval_psi(Exponent(pair=PAIR_ID), xi)
    assert np.abs(quad_vals - pair_vals).max() <= 1e-10


def test_quadruplet_with_atoms_and_density():
    mu = SignedMeasure(atoms=((1.0, 0.5), (-2.0, 0.25)))
    q = LevyQuadruplet(psi0=0.1, b=-0.3, sigma2=0.2, mu=mu)
    xi = np.linspace(-8.0, 8.0, 33)
    vals = eval_psi(Exponent(quadruplet=q), xi)
    # direct reimplementation
    ref = (0.1 + 0.3j * xi + 0.2 * xi ** 2
           + 0.5 * (1 - np.exp(1j * xi) + 1j * xi)
           + 0.25 * (1 - np.exp(-2j * xi)))
    assert_allclose(vals, ref, atol=1e-13)


def test_quadruplet_density_psi_matches_stable_symbol():
    # one-sided stable density: psi(xi) = phi(-i xi) + i xi c for the
    # compensator constant c = integral_0^1 y nu(dy) = 2 beta/Gamma(1-beta).
    # Log-panel quadrature of the oscillatory kernel over the heavy tail is
    # accurate to about half a percent here; that regime is documented.
    tab = stable_density_table(0.5)
    dens = make_bernstein(**tab).measure
    q = LevyQuadruplet(mu=SignedMeasure(density_pos=dens))
    xi = np.linspace(0.5, 20.0, 16)
    vals = eval_psi(Exponent(quadruplet=q), xi)
    comp = 2.0 * 0.5 / np.sqrt(np.pi)
    ref = np.exp(0.5 * np.log(-1j * xi + 0j)) + 1j * xi * comp
    assert np.abs(vals - ref).max() <= 2e-2 * np.abs(ref).max()


@pytest.mark.parametrize("psi0", [0.0, 0.3])
def test_density_remainder_vanishes_at_zero(monkeypatch, psi0):
    # the remainder mass lies beyond the last node, where e^{i xi y}
    # averages out, so it adds its mass to psi at every xi != 0; at xi = 0
    # every jump term vanishes
    dens = make_bernstein(**stable_density_table(0.5)).measure
    e = Exponent(quadruplet=LevyQuadruplet(
        psi0=psi0, mu=SignedMeasure(density_pos=dens, density_neg=dens)))
    xi = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    vals = eval_psi(e, xi)
    assert eval_psi(e, 0.0) == psi0
    assert vals[2] == psi0
    rem = exponents._measure_rule(dens).rem
    assert rem > 0.0
    r = exponents._measure_rule(dens)
    rule = _MeasureRule(r.nodes, r.weights, 0.0, r.y_min, r.a0, r.c0)
    monkeypatch.setattr(exponents, "_measure_rule", lambda d: rule)
    bare = eval_psi(e, xi)
    assert bare[2] == psi0
    nonzero = xi != 0
    assert np.all(np.abs(vals[nonzero] - bare[nonzero] - 2.0 * rem) <= 1e-15)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("xy", [1e-3, 1.0, 10.0])
def test_density_near_zero_piece_matches_mpmath(monkeypatch, xy, sign):
    # with the node table emptied, psi of a one-density quadruplet is the
    # analytic piece below y_min alone,
    #   -c0 y0^{-a0} sum_{k >= 2} (i xi s y0)^k / k! / (k - a0),
    # s = +-1 the side; |xi| y0 = 10 is the largest the series guard admits
    import mpmath as mp
    from spectral_ssmp import exponents
    rule = exponents._measure_rule

    def emptied(dens):
        r = rule(dens)
        return _MeasureRule(np.empty(0), np.empty(0), 0.0, r.y_min, r.a0, r.c0)

    monkeypatch.setattr(exponents, "_measure_rule", emptied)
    dens = make_bernstein(**stable_density_table(0.5)).measure
    y0, a0 = dens.y[0], dens.tail_exponent_zero
    c0 = dens.density[0] * y0 ** (1.0 + a0)
    mu = (SignedMeasure(density_pos=dens) if sign > 0
          else SignedMeasure(density_neg=dens))
    got = eval_psi(Exponent(quadruplet=LevyQuadruplet(mu=mu)), xy / y0)
    with mp.workdps(30):
        zy = mp.mpc(0, sign * xy)
        series = mp.fsum(zy ** k / mp.factorial(k) / (k - a0)
                         for k in range(2, 120))
        ref = complex(-c0 * y0 ** (-a0) * series)
    assert abs(got - ref) <= 1e-13 * abs(ref)


@settings(max_examples=20, deadline=None)
@given(xi=st.floats(-50.0, 50.0))
def test_hermitian_symmetry(xi):
    for e in (Exponent(quadruplet=LevyQuadruplet(
            psi0=0.2, b=0.7, sigma2=0.3,
            mu=SignedMeasure(atoms=((0.5, 1.0), (-1.5, 0.5))))),
            Exponent(pair=WienerHopfPair(
                make_bernstein("stable", beta=0.5),
                make_bernstein("affine", d=1.0, c=0.5)))):
        assert eval_psi(e, -xi) == pytest.approx(
            np.conj(eval_psi(e, xi)), rel=1e-12, abs=1e-12)


def test_nonnegative_real_part():
    q = LevyQuadruplet(psi0=0.3, sigma2=0.5,
                       mu=SignedMeasure(atoms=((1.0, 1.0), (-0.7, 2.0))))
    xi = np.linspace(-30.0, 30.0, 101)
    vals = eval_psi(Exponent(quadruplet=q), xi)
    assert np.all(vals.real >= 0.3 - 1e-12)


def test_conjugate_involution_and_swap():
    pair = WienerHopfPair(make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
                          make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0))
    mu = SignedMeasure(atoms=((1.0, 0.5), (-2.0, 0.25)))
    e = Exponent(quadruplet=LevyQuadruplet(0.1, -0.4, 0.2, mu), pair=pair)
    c = conjugate(e)
    assert c.pair.phi_plus == pair.phi_minus
    assert c.pair.phi_minus == pair.phi_plus
    assert c.quadruplet.b == 0.4
    cc = conjugate(c)
    assert cc == e
    # conjugation means complex conjugation of psi
    xi = np.linspace(-5.0, 5.0, 11)
    assert_allclose(eval_psi(Exponent(pair=c.pair), xi),
                    np.conj(eval_psi(Exponent(pair=pair), xi)), rtol=1e-10)


def test_self_conjugate_identity_pair():
    c = conjugate(Exponent(pair=PAIR_ID))
    xi = np.linspace(-5.0, 5.0, 11)
    assert_allclose(eval_psi(c, xi), eval_psi(Exponent(pair=PAIR_ID), xi),
                    rtol=1e-14)


def test_exponent_needs_one_representation():
    with pytest.raises(DomainError):
        Exponent()


def _levy_table(a0):
    """A density c y^{-1-a0} tabulated on [1e-3, 1e2], declared with a0."""
    y = np.geomspace(1e-3, 1e2, 11)
    return DensityMeasure(tuple(y), tuple(y ** (-1.0 - a0)), a0, 0.5)


@pytest.mark.parametrize("build", [
    lambda: SignedMeasure(atoms=((np.nan, 1.0),)),
    lambda: SignedMeasure(atoms=((-np.inf, 1.0),)),
    lambda: SignedMeasure(atoms=((0.0, 1.0),)),
    lambda: SignedMeasure(atoms=((1.0, np.inf),)),
    lambda: SignedMeasure(atoms=((1.0, np.nan),)),
    lambda: SignedMeasure(density_pos=_levy_table(2.0)),
    lambda: SignedMeasure(density_neg=_levy_table(2.5)),
    lambda: LevyQuadruplet(b=np.nan),
    lambda: LevyQuadruplet(b=-np.inf),
    lambda: LevyQuadruplet(psi0=np.inf),
    lambda: LevyQuadruplet(sigma2=np.nan),
    lambda: LevyQuadruplet(psi0=-1.0),
])
def test_levy_descriptor_rejects_out_of_range_fields(build):
    # finite atoms and coefficients, and integral (y^2 ^ 1) mu(dy) < inf:
    # a near-zero exponent below 2, checked by the Levy measure itself
    with pytest.raises(DomainError):
        build()


def test_levy_density_head_between_one_and_two_matches_mpmath():
    # a0 = 1.5 is a Levy density but not a Bernstein one.  The compensated
    # head below the table, integral_0^{y_min} (e^{-zy} - 1 + zy) c0
    # y^{-1-a0} dy, integrated by parts twice (w = z y_min):
    #   c0 y_min^{-a0} [-(e^{-w} - 1 + w) / a0
    #                   + (w (1 - e^{-w}) - w^a0 gamma(2 - a0, w))
    #                     / (a0 (1 - a0))],
    # and its second moment up to lo <= y_min by mpmath quadrature
    import mpmath as mp
    dens = _levy_table(1.5)
    mu = SignedMeasure(density_pos=dens, density_neg=dens)
    with pytest.raises(DomainError):
        BernsteinFunction(measure=dens)
    rule = exponents._measure_rule(dens)
    y0, c0, a0 = rule.y_min, rule.c0, 1.5
    assert c0 == pytest.approx(1.0, rel=1e-14)
    for z in (0.5 / y0, 5.0j / y0, (7.0 - 7.0j) / y0, -10.0j / y0):
        got = complex(rule.series(np.array([z]), 2)[0])
        with mp.workdps(30):
            w = mp.mpc(z) * y0
            parts = (-(mp.exp(-w) - 1 + w) / a0
                     + (w * (1 - mp.exp(-w))
                        - w ** a0 * mp.gammainc(2 - a0, 0, w))
                     / (a0 * (1 - a0)))
            ref = complex(c0 * mp.mpf(y0) ** -a0 * parts)
        assert abs(got - ref) <= 1e-13 * abs(ref)
    for lo in (y0, y0 / 10.0):
        with mp.workdps(30):
            ref = float(mp.quad(lambda y: y ** 2 * c0 * y ** (-1 - a0),
                                [0, lo]))
        assert rule.moment(lo) == pytest.approx(ref, rel=1e-14)
    # and psi of the quadruplet takes that head: finite, real part >= 0
    vals = eval_psi(Exponent(quadruplet=LevyQuadruplet(mu=mu)),
                    np.array([0.5, 5.0]))
    assert np.all(np.isfinite(vals)) and np.all(vals.real >= 0.0)


def test_weak_nonlattice_drift():
    kappa, ok = weak_nonlattice_check(PHI_ID, 1000.0)
    assert ok
    assert kappa == pytest.approx(-1.0, abs=0.05)


def test_weak_nonlattice_stable():
    kappa, ok = weak_nonlattice_check(make_bernstein("stable", beta=0.5), 1000.0)
    assert ok
    assert kappa == pytest.approx(-0.5, abs=0.05)


def test_weak_nonlattice_lattice_case():
    # phi(u) = 1 - e^{-u} vanishes at 2 pi k on the imaginary axis
    from spectral_ssmp.bernstein import AtomMeasure
    phi = BernsteinFunction(measure=AtomMeasure(((1.0, 1.0),)))
    kappa, ok = weak_nonlattice_check(phi, 1000.0)
    assert not ok


@pytest.mark.parametrize("xi_max", (np.nan, np.inf, 10.0, -np.inf))
def test_weak_nonlattice_needs_a_finite_xi_max_above_ten(xi_max):
    # NaN read as "not <= 10" and failed later with a TypeError from the
    # fit, inf with a LinAlgError after LAPACK complained
    with pytest.raises(DomainError, match="xi_max"):
        weak_nonlattice_check(PHI_ID, xi_max)
