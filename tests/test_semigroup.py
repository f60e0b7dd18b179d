"""Semigroup evolution, generators, weak similarity, tensorization."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import loggamma

from spectral_ssmp.errors import (
    ConditionError,
    DomainError,
    InterpolationError,
)
from spectral_ssmp.exponents import (
    Exponent,
    LevyQuadruplet,
    SignedMeasure,
    WienerHopfPair,
)
from spectral_ssmp.families import make_bernstein
from spectral_ssmp.semigroup import (
    EvolutionPlan,
    TensorPlan,
    _evolve_axes,
    evolve,
    evolve_tensor,
    generator_ido,
    generator_pdo,
    mult_semigroup,
    ws_residual,
)
from spectral_ssmp.transform import (
    GridFunction,
    GridSpec,
    MultiplierLine,
    apply_multiplier,
    gaussian_fixture,
    h_fixture,
    inner_e,
)

SPEC = GridSpec()
COARSE = GridSpec(-20.0, 40.0, 512)
PHI_ID = make_bernstein("drift", d=1.0)
PHI_AFF = make_bernstein("affine", d=1.0, c=1.0)
PAIR_ID = WienerHopfPair(PHI_ID, PHI_ID)
PAIR_B = WienerHopfPair(PHI_ID, PHI_AFF)


def gamma_pair(at, al, rho):
    return WienerHopfPair(
        make_bernstein("gamma-ratio-plus", alpha_tilde=at),
        make_bernstein("gamma-ratio-minus", alpha=al, rho=rho))


# ---------------------------------------------------------------------------
# multiplication semigroup
# ---------------------------------------------------------------------------

def test_mult_semigroup_t0():
    f = h_fixture(SPEC, 1.0, 1.0)
    assert np.all(mult_semigroup(0.0, f).values == f.values)


def test_mult_semigroup_translates_fixture():
    f = h_fixture(SPEC, 1.0, 1.0)
    out = mult_semigroup(0.7, f)
    ref = h_fixture(SPEC, 1.0, 1.7)
    assert np.max(np.abs(out.values - ref.values)) <= 1e-15


def test_mult_semigroup_contraction():
    f = h_fixture(SPEC, 0.5, 2.0)
    assert mult_semigroup(2.0, f).norm_e() <= f.norm_e()


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_evolve_t0_round_trip():
    plan = EvolutionPlan(PAIR_B, SPEC)
    f = h_fixture(SPEC, 1.0, 1.0)
    out = evolve(plan, 0.0, f)
    assert np.max(np.abs(out.values - f.values)) <= 1e-8


def test_evolve_constant_pair_is_mult_semigroup():
    phi_c = make_bernstein("affine", d=0.0, c=1.0)
    plan = EvolutionPlan(WienerHopfPair(phi_c, phi_c), SPEC)
    f = h_fixture(SPEC, 1.0, 1.0)
    out = evolve(plan, 0.8, f)
    ref = mult_semigroup(0.8, f)
    assert np.max(np.abs(out.values - ref.values)) <= 1e-10


@pytest.mark.parametrize("pair,spec,tol", [
    (PAIR_B, SPEC, 1e-6),
    (gamma_pair(0.7, 0.3, 1.0), COARSE, 1e-6),
])
def test_evolve_h_composition_law(pair, spec, tol):
    # f = H h_{1,1}  evolves to  H h_{1,1+t}
    plan = EvolutionPlan(pair, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = apply_multiplier(plan.m, h_fixture(spec, 1.0, 1.0))
        out = evolve(plan, 0.5, f)
        ref = apply_multiplier(plan.m, h_fixture(spec, 1.0, 1.5))
    assert np.max(np.abs(out.values - ref.values)) / ref.norm_e() <= tol


def test_evolve_composition_law_above_the_rounding_floor():
    # H^{-1} divides by |m| down to 5e-9 on this grid: the transform's
    # rounding noise must not be amplified into the result, whatever the
    # last bits of m (the library's line and the closed-form one)
    xi = COARSE.xi
    exact = np.exp(loggamma(0.7 * (0.5 - 1j * xi)) - loggamma(0.7)
                   - loggamma(1.0 + 0.3 * (0.5 + 1j * xi)) + loggamma(1.3))
    lines = (EvolutionPlan(gamma_pair(0.7, 0.3, 1.0), COARSE).m.values, exact)
    for values in lines:
        m = MultiplierLine(COARSE, values, kind="H", zero_free=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = apply_multiplier(m, h_fixture(COARSE, 1.0, 1.0))
            ref = apply_multiplier(m, h_fixture(COARSE, 1.0, 1.5))
        plan = SimpleNamespace(spec=COARSE, m=m)
        out = _evolve_axes((plan,), 0.5, f.values)
        assert np.max(np.abs(out - ref.values)) / ref.norm_e() <= 1e-8


def test_evolve_semigroup_law():
    plan = EvolutionPlan(PAIR_B, SPEC)
    f = h_fixture(SPEC, 1.0, 1.0)
    a = evolve(plan, 0.3, evolve(plan, 0.2, f))
    b = evolve(plan, 0.5, f)
    diff = GridFunction(SPEC, a.values - b.values)
    assert diff.norm_e() <= 1e-8 * f.norm_e()


def test_evolve_contraction():
    for pair, spec in ((PAIR_ID, SPEC), (PAIR_B, SPEC),
                       (gamma_pair(0.7, 0.3, 1.0), COARSE)):
        plan = EvolutionPlan(pair, spec)
        f = h_fixture(spec, 1.0, 2.0)
        assert evolve(plan, 1.0, f).norm_e() <= (1 + 1e-8) * f.norm_e()


def test_evolve_positivity():
    for pair, spec in ((PAIR_B, SPEC), (gamma_pair(0.7, 0.3, 1.0), COARSE)):
        plan = EvolutionPlan(pair, spec)
        f = h_fixture(spec, 0.5, 1.0)
        out = evolve(plan, 1.0, f)
        assert np.min(out.values.real[2:-2]) >= -1e-6 * np.max(f.values.real)


def test_evolve_self_adjoint_symmetric_pair():
    plan = EvolutionPlan(PAIR_ID, SPEC)
    f = h_fixture(SPEC, 1.0, 2.0)
    g = gaussian_fixture(SPEC, 1.0)
    lhs = inner_e(evolve(plan, 0.5, f), g)
    rhs = inner_e(f, evolve(plan, 0.5, g))
    assert abs(lhs - rhs) / abs(lhs) <= 1e-8


def test_evolve_adjoint_duality_asymmetric_pair():
    pair = gamma_pair(0.7, 0.3, 1.0)
    conj_pair = WienerHopfPair(pair.phi_minus, pair.phi_plus)
    plan = EvolutionPlan(pair, COARSE)
    plan_c = EvolutionPlan(conj_pair, COARSE)
    f = h_fixture(COARSE, 1.0, 2.0)
    g = gaussian_fixture(COARSE, 1.0)
    lhs = inner_e(evolve(plan, 0.5, f), g)
    rhs = inner_e(f, evolve(plan_c, 0.5, g))
    assert abs(lhs - rhs) / abs(lhs) <= 1e-6


def test_evolve_domain_gate():
    # the identity spectrum (an eigenfunction input) trips the tail gate on
    # a wide grid unless forced
    pair = gamma_pair(0.7, 0.3, 1.0)
    plan = EvolutionPlan(pair, SPEC)
    f = h_fixture(SPEC, 1.0, 2.0)
    with pytest.raises(DomainError):
        evolve(plan, 0.5, f)  # noise-floor amplification past the gate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        evolve(plan, 0.5, f, force=True)  # override is recorded by caller


def test_evolve_makes_two_forward_and_two_inverse_ffts(monkeypatch):
    # one forward transform per pass feeds both the gate and the inverse
    plan = EvolutionPlan(PAIR_B, COARSE)
    f = h_fixture(COARSE, 1.0, 1.0)
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    evolve(plan, 0.5, f)
    assert calls == {"fft": 2, "ifft": 2}


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

INTERIOR = slice(2, -2)

# the plain-transform symbol application carries a roundoff floor of about
# eps * max|psi| * e^{-x}; this window keeps that floor below the pointwise
# tolerances being asserted
GEN_SPEC = GridSpec(-10.0, 30.0, 4096)


def test_generator_pdo_second_derivative_symbol():
    f = gaussian_fixture(GEN_SPEC, 0.0)
    out = generator_pdo(Exponent(quadruplet=LevyQuadruplet(sigma2=1.0)), f)
    x = GEN_SPEC.x
    ref = np.exp(-x) * (4.0 * x ** 2 - 2.0) * np.exp(-x ** 2)
    assert np.max(np.abs(out.values.real[INTERIOR] - ref[INTERIOR])) <= 1e-6


def test_generator_pdo_first_derivative_symbol():
    f = gaussian_fixture(GEN_SPEC, 0.0)
    b = 2.0
    out = generator_pdo(Exponent(quadruplet=LevyQuadruplet(b=b)), f)
    x = GEN_SPEC.x
    ref = b * np.exp(-x) * (-2.0 * x) * np.exp(-x ** 2)
    assert np.max(np.abs(out.values.real[INTERIOR] - ref[INTERIOR])) <= 1e-6


def test_generator_ido_gaussian_component():
    q = LevyQuadruplet(sigma2=1.0)
    out = generator_ido(q, lambda x: np.exp(-x), SPEC)
    ref = np.exp(-2.0 * SPEC.x)
    sel = (SPEC.x > -5) & (SPEC.x < 30)  # avoid e^{-x} overflow window
    # the centered second difference at h = 1e-4 has a 4 eps / h^2 floor
    assert np.max(np.abs(out.values.real[sel] - ref[sel])
                  / np.abs(ref[sel])) <= 1e-6


def test_generator_ido_drift():
    q = LevyQuadruplet(b=2.0)
    out = generator_ido(q, lambda x: np.exp(-x ** 2), GEN_SPEC)
    x = GEN_SPEC.x
    ref = 2.0 * np.exp(-x) * (-2.0 * x) * np.exp(-x ** 2)
    assert np.max(np.abs(out.values.real[INTERIOR] - ref[INTERIOR])) <= 1e-6


def test_generator_ido_atom():
    lam = 0.5
    q = LevyQuadruplet(mu=SignedMeasure(atoms=((1.0, lam),)))
    out = generator_ido(q, lambda x: np.exp(-x ** 2), GEN_SPEC)
    x = GEN_SPEC.x
    ref = lam * np.exp(-x) * (np.exp(-(x + 1.0) ** 2) - np.exp(-x ** 2)
                              + 2.0 * x * np.exp(-x ** 2))
    assert np.max(np.abs(out.values.real[INTERIOR] - ref[INTERIOR])) <= 1e-8


def test_generator_pdo_vs_ido_three_fixtures():
    fn = lambda x: np.exp(-x ** 2)
    f = GridFunction(GEN_SPEC, fn(GEN_SPEC.x))
    quads = [LevyQuadruplet(sigma2=1.0),
             LevyQuadruplet(b=1.5),
             LevyQuadruplet(mu=SignedMeasure(atoms=((1.0, 0.5),)))]
    for q in quads:
        a1 = generator_pdo(Exponent(quadruplet=q), f)
        a2 = generator_ido(q, fn, GEN_SPEC)
        sup = np.max(np.abs(a1.values[INTERIOR] - a2.values[INTERIOR]))
        assert sup <= 1e-4, q


def test_generator_ido_from_grid_samples():
    q = LevyQuadruplet(sigma2=1.0)
    f = gaussian_fixture(SPEC, 0.0)
    out = generator_ido(q, f)
    ref = generator_ido(q, lambda x: np.exp(-x ** 2), SPEC)
    sel = (SPEC.x > -10) & (SPEC.x < 10)
    assert np.max(np.abs(out.values[sel] - ref.values[sel])) <= 1e-3


def test_generator_ido_condition_error():
    from spectral_ssmp.bernstein import DensityMeasure
    y = tuple(np.exp(np.linspace(np.log(1e-4), np.log(100.0), 60)))
    dens = tuple(vv ** (-1.8) for vv in y)
    heavy = DensityMeasure(y, dens, 0.8, 0.8)  # tail exponent <= 1
    q = LevyQuadruplet(mu=SignedMeasure(density_pos=heavy))
    with pytest.raises(ConditionError):
        generator_ido(q, lambda x: np.exp(-x ** 2), SPEC)


def test_semigroup_derivative_matches_generator():
    plan = EvolutionPlan(PAIR_ID, GridSpec(-20.0, 40.0, 2048))
    spec = plan.spec
    f = h_fixture(spec, 1.0, 1.0)
    af = generator_pdo(Exponent(pair=PAIR_ID), f)
    errs = []
    for h in (1e-2, 5e-3):
        d = evolve(plan, h, f)
        fd = GridFunction(spec, (d.values - f.values) / h - af.values)
        errs.append(fd.norm_e())
    ratio = errs[1] / errs[0]
    assert 0.35 <= ratio <= 0.75


# ---------------------------------------------------------------------------
# weak similarity
# ---------------------------------------------------------------------------

def test_ws_residual_identity_pair():
    assert ws_residual(PAIR_ID, SPEC) <= 1e-10


def test_ws_residual_affine_pair():
    assert ws_residual(PAIR_B, SPEC) <= 1e-5


def test_ws_residual_gamma_pair():
    assert ws_residual(gamma_pair(0.7, 0.3, 1.0), SPEC) <= 1e-4


# ---------------------------------------------------------------------------
# tensor evolution
# ---------------------------------------------------------------------------

def test_tensor_d1_equals_evolve():
    plan = EvolutionPlan(PAIR_B, COARSE)
    tp = TensorPlan((plan,))
    f = h_fixture(COARSE, 1.0, 1.0)
    out = evolve_tensor(tp, 0.4, f.values)
    ref = evolve(plan, 0.4, f)
    assert np.max(np.abs(out - ref.values)) <= 1e-12


def test_tensor_d2_factorization():
    p1 = EvolutionPlan(PAIR_ID, COARSE)
    p2 = EvolutionPlan(PAIR_B, COARSE)
    tp = TensorPlan((p1, p2))
    fa = h_fixture(COARSE, 1.0, 1.0)
    fb = h_fixture(COARSE, 0.7, 2.0)
    F = np.outer(fa.values, fb.values)
    out = evolve_tensor(tp, 0.4, F)
    ref = np.outer(evolve(p1, 0.4, fa).values, evolve(p2, 0.4, fb).values)
    assert np.max(np.abs(out - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_tensor_d2_adjoint_identity():
    # <P_t F, G>_e = <F, P_t[conj] G>_e with the identity similarity matrix
    pair = gamma_pair(0.7, 0.3, 1.0)
    conj_pair = WienerHopfPair(pair.phi_minus, pair.phi_plus)
    p = EvolutionPlan(pair, COARSE)
    pc = EvolutionPlan(conj_pair, COARSE)
    p_id = EvolutionPlan(PAIR_ID, COARSE)
    tp = TensorPlan((p, p_id))
    tpc = TensorPlan((pc, p_id))
    fa, fb = h_fixture(COARSE, 1.0, 1.0), h_fixture(COARSE, 0.5, 1.5)
    ga, gb = gaussian_fixture(COARSE, 0.5), gaussian_fixture(COARSE, -0.5)
    F = np.outer(fa.values, fb.values)
    G = np.outer(ga.values, gb.values)
    w = np.exp(COARSE.x)
    weight = np.outer(w, w) * COARSE.dx ** 2
    lhs = np.sum(evolve_tensor(tp, 0.5, F) * np.conj(G) * weight)
    rhs = np.sum(F * np.conj(evolve_tensor(tpc, 0.5, G)) * weight)
    assert abs(lhs - rhs) / abs(lhs) <= 1e-6


def test_tensor_domain_gate_runs_on_every_axis():
    # (G, G) on 512^2: the first axis reads inside (tail fraction 9e-9),
    # the second outside (1.00); the conditioning budget adds up over axes
    p = EvolutionPlan(gamma_pair(0.7, 0.3, 1.0), COARSE)
    h = h_fixture(COARSE, 1.0, 1.0).values
    with pytest.raises(DomainError, match="axis 1"):
        evolve_tensor(TensorPlan((p, p)), 0.5, np.outer(h, h))


def test_tensor_similarity_matrix_round_trip():
    # a mild shear: resampling in and out costs only interpolation error
    p1 = EvolutionPlan(PAIR_ID, COARSE)
    p2 = EvolutionPlan(PAIR_ID, COARSE)
    m = np.array([[1.0, 0.01], [0.0, 1.0]])
    tp = TensorPlan((p1, p2), matrix_m=m)
    fa = h_fixture(COARSE, 1.0, 1.0)
    fb = h_fixture(COARSE, 1.0, 2.0)
    F = np.outer(fa.values, fb.values)
    out = evolve_tensor(tp, 0.0, F)  # t = 0: only the two resamplings act
    assert np.max(np.abs(out - F)) <= 5e-3 * np.max(np.abs(F))


def test_tensor_interpolation_error_for_wild_matrix():
    p1 = EvolutionPlan(PAIR_ID, COARSE)
    p2 = EvolutionPlan(PAIR_ID, COARSE)
    tp = TensorPlan((p1, p2), matrix_m=np.array([[3.0, 0.0], [0.0, 1.0]]))
    F = np.outer(h_fixture(COARSE, 1.0, 1.0).values,
                 h_fixture(COARSE, 1.0, 1.0).values)
    with pytest.raises(InterpolationError):
        evolve_tensor(tp, 0.1, F)


def test_tensor_plan_validation():
    p1 = EvolutionPlan(PAIR_ID, COARSE)
    with pytest.raises(DomainError):
        TensorPlan((p1,) * 4)
    with pytest.raises(DomainError):
        TensorPlan((p1, p1), matrix_m=np.zeros((2, 2)))
