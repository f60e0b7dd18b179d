"""Semigroup evolution, generators, weak similarity, tensorization."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import ive, k0

from spectral_ssmp.errors import DomainError, DomainWarning, ResolutionError
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
    _resample,
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
    SpectrumLine,
    apply_multiplier,
    gaussian_fixture,
    h_fixture,
    h_transform_exact,
    inner_e,
    inverse_shifted_fft,
    multiplier_h,
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
    # a NaN t is refused as t, not as a non-finite grid sample
    for t in (-0.5, math.nan):
        with pytest.raises(DomainError, match="t must be nonnegative"):
            mult_semigroup(t, f)


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


def test_evolve_needs_e_t_to_rise_inside_the_window():
    # e_t rises from 0 to 1 around x = log t, and the split of e_t into
    # q + s needs the whole rise inside the window: at t = 1e-5 on -10:30
    # (e_t(x_min) = 0.80) it read 2.8e-2 off f + t A f, and is refused
    spec = GridSpec(-10.0, 30.0, 1024)
    f = gaussian_fixture(spec, 0.0)
    plan = EvolutionPlan(PAIR_B, spec)
    for t in (1e-5, 1e4, math.inf):
        with pytest.raises(DomainError, match="e_t must rise from 0 to 1"):
            evolve(plan, t, f)
    for t in (-0.5, math.nan):
        with pytest.raises(DomainError, match="t must be nonnegative"):
            evolve(plan, t, f)
    # at log t = x_min + 3 (e_t(x_min) = 1.9e-9) it agrees with a window
    # 20 wider on the left, at the same nodes, to 6.4e-12 (measured)
    wide = GridSpec(-30.0, 50.0, 2048)
    t = math.exp(spec.x_min + 3.0)
    got = evolve(plan, t, f).values
    want = evolve(EvolutionPlan(PAIR_B, wide), t,
                  gaussian_fixture(wide, 0.0)).values[512:1536]
    assert np.max(np.abs(got - want)) <= 3e-11


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


def _h_image(pair, spec, beta):
    """H g_beta for g_beta = e^{-(3/2)x} e^{-beta e^{-x}}, synthesized from
    m times its closed-form shifted transform."""
    return inverse_shifted_fft(SpectrumLine(
        spec, multiplier_h(pair, spec).values
        * h_transform_exact(spec, 1.0, beta).values))


@pytest.mark.parametrize("pair", [PAIR_B, gamma_pair(0.7, 0.3, 1.0),
                                  gamma_pair(0.3, 0.7, 1.0)],
                         ids=["id-u1", "point", "residual"])
@pytest.mark.parametrize("spec,bound", [
    # the left plateau of H g, about e^{x_min/2} |f(x_min)|, wraps to
    # the right end, where the weight e^x magnifies it: the default
    # window's bound pins that image (measured 7.7e-6 to 1.5e-4), and
    # wider windows push it out (3.5e-10 to 7.0e-9, 1.8e-13 to 6.1e-13)
    (GridSpec(-20.0, 40.0, 2048), 3e-4),
    (GridSpec(-40.0, 40.0, 2048), 2e-8),
    (GridSpec(-60.0, 40.0, 4096), 2e-12),
], ids=["x-20", "x-40", "x-60"])
def test_evolve_h_image_identity_in_l2e(pair, spec, bound):
    # P_t H = H e_t and e_t g_beta = g_{beta+t}: P_t (H g_1) = H g_{1+t},
    # relative in L^2(e^x dx); neither side uses the split, band or slope
    plan = EvolutionPlan(pair, spec)
    f = _h_image(pair, spec, 1.0)
    for t in (0.1, 0.5, 2.0):
        ref = _h_image(pair, spec, 1.0 + t)
        diff = GridFunction(spec, evolve(plan, t, f).values - ref.values)
        assert diff.norm_e() <= bound * ref.norm_e(), t


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
    # the conjugate pair's H grows where this pair's decays; the split
    # step applies neither to data (measured: 7.6e-14)
    lhs = inner_e(evolve(plan, 0.5, f), g)
    rhs = inner_e(f, evolve(plan_c, 0.5, g))
    assert abs(lhs - rhs) / abs(lhs) <= 1e-6


RESIDUAL = gamma_pair(0.3, 0.7, 1.0)
REAL_INPUTS = {
    "h": lambda spec: h_fixture(spec, 1.0, 1.0),
    "gauss": lambda spec: gaussian_fixture(spec, 0.0),
    "step": lambda spec: GridFunction(spec, (np.abs(spec.x) < 1.0) * 1.0),
}


def test_evolve_domain_gate():
    # the gate reads the input's own spectrum: e^{-(x/0.3)^2} reads
    # borderline (tail fraction 5.4e-5) and evolves, a sampled step reads
    # outside (2.5e-2) and is refused
    plan = EvolutionPlan(gamma_pair(0.7, 0.3, 1.0), COARSE)
    narrow = GridFunction(COARSE, np.exp(-(COARSE.x / 0.3) ** 2))
    assert evolve(plan, 0.5, narrow).norm_e() <= narrow.norm_e()
    with pytest.raises(DomainError, match="the input is not resolved on "
                                          "axis 0: its spectral tail "
                                          "fraction beyond half Nyquist is "
                                          "2.53e-02"):
        evolve(plan, 0.5, REAL_INPUTS["step"](COARSE))


def test_evolve_residual_pair_on_32768_points_is_real_and_contracted():
    # |m| reaches the e^700 clamp on this grid (the plan's DomainWarning);
    # the split step applies no H to data, so nothing overflows.  Measured:
    # imaginary part 2.4e-16 of the output, norm ratio 0.8813
    spec = GridSpec(-20.0, 40.0, 32768)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainWarning)  # the clamp's notice
        plan = EvolutionPlan(RESIDUAL, spec)
    f = h_fixture(spec, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evolve(plan, 0.5, f)
    assert GridFunction(spec, out.values.imag).norm_e() <= 1e-12 * out.norm_e()
    assert out.norm_e() <= f.norm_e()


@pytest.mark.parametrize("name", ("h", "gauss"))
def test_evolve_residual_pair_converges_from_512_to_1024(name):
    # measured: imaginary part 1.6e-13 (h) and 2.7e-14 (gauss) of the
    # output in L^2(e), the two grids 3.2e-12 and 8.4e-14 apart
    fine = GridSpec(-20.0, 40.0, 1024)
    coarse = evolve(EvolutionPlan(RESIDUAL, COARSE), 0.5,
                    REAL_INPUTS[name](COARSE))
    out = evolve(EvolutionPlan(RESIDUAL, fine), 0.5, REAL_INPUTS[name](fine))
    assert GridFunction(fine, out.values.imag).norm_e() <= 1e-12 * out.norm_e()
    diff = GridFunction(COARSE, out.values[::2] - coarse.values)
    assert diff.norm_e() <= 2e-11 * coarse.norm_e()


@pytest.mark.parametrize("n", (512, 1024, 2048, 4096))
@pytest.mark.parametrize("name", tuple(REAL_INPUTS))
@pytest.mark.parametrize("label", ("Point", "Residual"))
def test_evolve_real_input_gives_real_output_or_is_refused(label, name, n):
    pair = gamma_pair(0.7, 0.3, 1.0) if label == "Point" else RESIDUAL
    spec = GridSpec(-20.0, 40.0, n)
    plan = EvolutionPlan(pair, spec)
    f = REAL_INPUTS[name](spec)
    if name == "step":
        # its tail fraction reads 2.5e-2 (512 points) to 3.1e-3 (4096)
        with pytest.raises(DomainError, match="the input is not resolved"):
            evolve(plan, 0.5, f)
        return
    # measured: imaginary part at most 1.5e-15 of the output in L^2(e),
    # norm ratios 0.86-0.93, the same on every grid
    out = evolve(plan, 0.5, f)
    assert GridFunction(spec, out.values.imag).norm_e() <= 1e-12 * out.norm_e()
    assert out.norm_e() <= f.norm_e()


def test_evolve_point_pair_is_conditioned():
    # a 1e-16 relative perturbation of the input moves the output by
    # 1.6e-12 of sup f (measured)
    plan = EvolutionPlan(gamma_pair(0.7, 0.3, 1.0), COARSE)
    f = h_fixture(COARSE, 0.7, 2.0)
    noise = np.random.default_rng(0).standard_normal(COARSE.n)
    g = GridFunction(COARSE, f.values * (1.0 + 1e-16 * noise))
    assert np.count_nonzero(g.values != f.values) > 100
    move = np.max(np.abs(evolve(plan, 0.5, g).values
                         - evolve(plan, 0.5, f).values))
    assert move <= 1e-10 * np.max(np.abs(f.values))


def test_evolve_makes_one_forward_and_one_inverse_fft_per_axis(monkeypatch):
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
    assert calls == {"fft": 1, "ifft": 1}
    evolve_tensor(TensorPlan((plan, plan)), 0.5, np.outer(f.values, f.values))
    assert calls == {"fft": 3, "ifft": 3}


# ---------------------------------------------------------------------------
# exact kernels: (id, id) is BESQ^2 and (id, u+1) BESQ^4, both at time t/2
# (Revuz and Yor, ch. XI), in the variable x = log r
# ---------------------------------------------------------------------------

def _besq_expectation(nu, t, x, fn):
    """E_r[fn(log R_{t/2})], r = e^x, for BESQ of index nu, from the kernel
    p_s(r, y) = (1/2s) (y/r)^{nu/2} e^{-(r+y)/2s} I_nu(sqrt(ry)/s)."""
    s, r = t / 2.0, math.exp(x)

    def integrand(u):
        y = math.exp(u)
        return ((y / r) ** (nu / 2.0) / (2.0 * s) * y * fn(u)
                * math.exp(-(math.sqrt(r) - math.sqrt(y)) ** 2 / (2.0 * s))
                * ive(nu, math.sqrt(r * y) / s))

    return quad(integrand, -40.0, 12.0, points=[x], limit=500,
                epsabs=1e-16, epsrel=1e-13)[0]


# (pair, index nu, bound): each bound about 2.5 times the largest error
# measured over t and n
KERNEL_CASES = {
    "id-id-h": (PAIR_ID, 0, 1e-10),
    "id-id-gauss": (PAIR_ID, 0, 1e-11),
    "id-u1-h": (PAIR_B, 1, 4e-11),
    "id-u1-gauss": (PAIR_B, 1, 1e-11),
}
KERNEL_INPUTS = {
    "h": (lambda spec: h_fixture(spec, 0.5, 1.0),
          lambda u: math.exp(-u - math.exp(-u))),
    "gauss": (lambda spec: gaussian_fixture(spec, 0.0),
              lambda u: math.exp(-u * u)),
}


@pytest.mark.parametrize("t", (0.1, 0.5, 2.0))
@pytest.mark.parametrize("case", tuple(KERNEL_CASES))
def test_evolve_matches_the_squared_bessel_kernel(case, t):
    # measured, max over x and n: (id, id) 4.1e-11 (h) and 4.2e-12 (gauss),
    # (id, u+1) 1.7e-11 (h, 512 points) and 4.5e-12 (gauss)
    pair, nu, bound = KERNEL_CASES[case]
    sample, fn = KERNEL_INPUTS[case.rsplit("-", 1)[1]]
    # the nodes of the 512-point grid nearest to -8, ..., 3 lie on every
    # finer grid of the same window
    x = COARSE.x[np.argmin(np.abs(COARSE.x[:, None] - np.arange(-8, 4)),
                           axis=0)]
    want = np.array([_besq_expectation(nu, t, v, fn) for v in x])
    for n in (512, 1024, 2048, 4096):
        spec = GridSpec(-20.0, 40.0, n)
        out = evolve(EvolutionPlan(pair, spec), t, sample(spec))
        got = out.values[np.round((x - spec.x_min) / spec.dx).astype(int)]
        assert np.max(np.abs(got - want)) <= bound, n


@pytest.mark.parametrize("n", (512, 1024, 2048, 4096))
def test_evolve_left_plateau_of_the_identity_pair(n):
    # P_t h(-inf) = E_0[h(log R_{t/2})] = 4 K_0(2 sqrt 2) for h(1/2, 1) at
    # t = 1/2; measured at x = -20: at most 1.0e-9 off (512 points)
    spec = GridSpec(-20.0, 40.0, n)
    out = evolve(EvolutionPlan(PAIR_ID, spec), 0.5, h_fixture(spec, 0.5, 1.0))
    assert abs(out.values[0] - 4.0 * k0(2.0 * math.sqrt(2.0))) <= 3e-9


@pytest.mark.parametrize("n", (512, 1024, 4096))
def test_evolve_input_with_a_left_plateau(n):
    # e^{-lambda r} under BESQ^2 at time t/2 has the closed form
    # e^{-lambda r / (1 + lambda t)} / (1 + lambda t).  The input tends to 1
    # at -inf, so its weighted samples jump by e^{x_min/2} at the seam;
    # measured: 2.8e-5 (512), 8.6e-6 (1024) and 6.4e-7 (4096) at x = -20,
    # at most 5.1e-7 on x >= -10
    spec = GridSpec(-20.0, 40.0, n)
    f = GridFunction(spec, np.exp(-np.exp(spec.x)))
    out = evolve(EvolutionPlan(PAIR_ID, spec), 0.5, f).values
    err = np.abs(out - np.exp(-np.exp(spec.x) / 1.5) / 1.5)
    assert np.max(err) <= 1e-4
    assert np.max(err[spec.x >= -10.0]) <= 2e-6


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


def test_generator_pdo_vs_ido_tempered_density():
    # one-sided y^{-1.5} e^{-y}, tabulated on [1e-4, 100]: the integral
    # form needs the head below the table (its second-order Taylor term)
    # to meet the symbol to 1e-7
    from spectral_ssmp.bernstein import DensityMeasure
    y = np.exp(np.linspace(np.log(1e-4), np.log(100.0), 121))
    dens = DensityMeasure(tuple(y), tuple(y ** -1.5 * np.exp(-y)), 0.5, 1.5)
    q = LevyQuadruplet(mu=SignedMeasure(density_pos=dens))
    spec = GridSpec(-10.0, 30.0, 2048)
    fn = lambda x: np.exp(-x ** 2)
    a1 = generator_pdo(Exponent(quadruplet=q), GridFunction(spec, fn(spec.x)))
    a2 = generator_ido(q, fn, spec)
    assert np.max(np.abs(a1.values[INTERIOR] - a2.values[INTERIOR])) <= 1e-7


def test_generator_ido_refuses_grid_samples():
    # grid samples have one exact interpolant, the trigonometric one, under
    # which the integro-differential form is the pseudo-differential one
    q = LevyQuadruplet(sigma2=1.0)
    with pytest.raises(DomainError, match="generator_pdo"):
        generator_ido(q, gaussian_fixture(SPEC, 0.0), SPEC)


def test_generator_ido_condition_error():
    from spectral_ssmp.bernstein import DensityMeasure
    y = tuple(np.exp(np.linspace(np.log(1e-4), np.log(100.0), 60)))
    dens = tuple(vv ** (-1.8) for vv in y)
    heavy = DensityMeasure(y, dens, 0.8, 0.8)  # tail exponent <= 1
    q = LevyQuadruplet(mu=SignedMeasure(density_pos=heavy))
    with pytest.raises(DomainError):
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


def test_lambda_line0_limit_is_zero_for_infinite_phi_prime():
    # phi_+ = stable(1/2) has phi_+'(0+) = inf, so the xi = 0 sample of the
    # similarity multiplier on the unshifted line is 1/inf = 0 exactly
    from spectral_ssmp.transform import _lambda_multiplier_line0
    pair = WienerHopfPair(make_bernstein("stable", beta=0.5), PHI_ID)
    vals = _lambda_multiplier_line0(pair, SPEC)
    assert SPEC.xi[SPEC.n // 2] == 0.0
    assert vals[SPEC.n // 2] == 0.0
    # and 1/phi_+'(0+) where it is finite: Gamma(a + az) / Gamma(az) has
    # phi'(0+) = Gamma(1 + a)
    pair = WienerHopfPair(make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
                          PHI_ID)
    vals = _lambda_multiplier_line0(pair, SPEC)
    assert vals[SPEC.n // 2] == pytest.approx(1.0 / math.gamma(1.7),
                                              rel=1e-15)
    # phi_+(0) > 0: the limit is 0 whatever phi_+'(0+), and the pair keeps
    # the affine pair's similarity bound
    pair = WienerHopfPair(PHI_AFF, PHI_ID)
    vals = _lambda_multiplier_line0(pair, SPEC)
    assert vals[SPEC.n // 2] == 0.0
    assert ws_residual(pair, SPEC) <= 1e-5


def test_ws_residual_builds_one_evaluator_per_factor():
    # the H multiplier and the similarity multiplier on the unshifted line
    # share one evaluator horizon, so W_+ and W_- are built once each
    from spectral_ssmp.bernstein import default_evaluator
    before = default_evaluator.cache_info().misses
    ws_residual(gamma_pair(0.7, 0.3, 1.0), GridSpec(-10.0, 30.0, 512))
    assert default_evaluator.cache_info().misses - before == 2


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


def test_tensor_evolution_is_the_product_of_1d_evolutions():
    # e^{-t sum_k e^{-x_k}} = prod_k e^{-t e^{-x_k}} and H acts per axis;
    # measured: 1.9e-10 (id, G) and 2.7e-10 (G, G), at the x = -20 edge
    # of the G axis
    p_id = EvolutionPlan(PAIR_ID, COARSE)
    p_g = EvolutionPlan(gamma_pair(0.7, 0.3, 1.0), COARSE)
    fa, fb = h_fixture(COARSE, 1.0, 1.0), h_fixture(COARSE, 0.7, 2.0)
    F = np.outer(fa.values, fb.values)
    for p1, p2 in ((p_id, p_g), (p_g, p_g)):
        ref = np.outer(evolve(p1, 0.5, fa).values, evolve(p2, 0.5, fb).values)
        out = evolve_tensor(TensorPlan((p1, p2)), 0.5, F)
        assert np.max(np.abs(out - ref)) <= 1e-9 * np.max(np.abs(ref))


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


def _axis(x0, dx, n):
    # a plan stand-in: _resample reads only spec.x and spec.dx, and GridSpec
    # takes n >= 256, which makes a 3-d grid 16.8M points
    return SimpleNamespace(spec=SimpleNamespace(x=x0 + dx * np.arange(n),
                                                dx=dx))


@pytest.mark.parametrize("axes, mat", [
    # 512^2 on [-20, 40): the shear carries the first coordinate up to 3.4
    # cells beyond the box; the second stays on its nodes, edges included
    ((SimpleNamespace(spec=COARSE),) * 2, [[1.0, 0.01], [0.0, 1.0]]),
    # 3-d with a node at 0 on every axis, so that on each axis some points
    # land exactly on the box edges and others up to 5.6 cells beyond them
    ((_axis(-2.0, 0.125, 33), _axis(-1.5, 0.125, 41), _axis(-3.0, 0.25, 25)),
     [[1.0, 0.2, 0.0], [0.0, 1.0, -0.1], [0.3, 0.0, 1.0]]),
])
def test_resample_matches_scipy_interpn(axes, mat):
    from scipy.interpolate import interpn
    rng = np.random.default_rng(3)
    shape = tuple(len(a.spec.x) for a in axes)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mat = np.array(mat)
    got = _resample(values, axes, mat)
    grids = tuple(a.spec.x for a in axes)
    pts = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1) @ mat.T
    ref = interpn(grids, values, pts, method="linear", bounds_error=False,
                  fill_value=0.0)
    assert 0 < np.count_nonzero(ref == 0) < ref.size
    assert np.array_equal(got == 0, ref == 0)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(values))


def test_tensor_interpolation_error_for_wild_matrix():
    p1 = EvolutionPlan(PAIR_ID, COARSE)
    p2 = EvolutionPlan(PAIR_ID, COARSE)
    tp = TensorPlan((p1, p2), matrix_m=np.array([[3.0, 0.0], [0.0, 1.0]]))
    F = np.outer(h_fixture(COARSE, 1.0, 1.0).values,
                 h_fixture(COARSE, 1.0, 1.0).values)
    with pytest.raises(ResolutionError):
        evolve_tensor(tp, 0.1, F)


def test_tensor_plan_validation():
    p1 = EvolutionPlan(PAIR_ID, COARSE)
    with pytest.raises(DomainError):
        TensorPlan((p1,) * 4)
    with pytest.raises(DomainError):
        TensorPlan((p1, p1), matrix_m=np.zeros((2, 2)))
    # abs(det) of a NaN matrix is NaN, which passed the invertibility
    # test: evolve_tensor then returned all zeros for h(x) h(y)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            TensorPlan((p1, p1), matrix_m=[[bad, 0.0], [0.0, 1.0]])


def test_tensor_plan_near_identity_matrix_is_not_the_identity():
    # a relative change of 5e-6 is within np.allclose's default rtol, but
    # the similarity it describes is not the identity
    p1 = EvolutionPlan(PAIR_ID, COARSE)
    assert TensorPlan((p1, p1)).is_identity
    assert not TensorPlan((p1, p1),
                          matrix_m=np.diag([1.0 + 5e-6, 1.0])).is_identity


def _checkerboard(spec):
    # all of its spectrum sits at the Nyquist frequency
    return GridFunction(spec, (-1.0) ** np.arange(spec.n)
                        * np.exp(-spec.x ** 2 / 50.0))


@pytest.mark.parametrize("call, expect", (
    pytest.param(lambda: evolve(EvolutionPlan(PAIR_ID, COARSE), 0.5,
                                h_fixture(SPEC, 1.0, 1.0)),
                 lambda: pytest.raises(DomainError, match="grid mismatch"),
                 id="evolve-grid-mismatch"),
    pytest.param(lambda: evolve_tensor(
                     TensorPlan((EvolutionPlan(PAIR_ID, COARSE),) * 2), 0.5,
                     np.ones((COARSE.n, COARSE.n - 1))),
                 lambda: pytest.raises(DomainError, match="product grid"),
                 id="evolve-tensor-shape"),
    pytest.param(lambda: generator_pdo(
                     Exponent(quadruplet=LevyQuadruplet(sigma2=1.0)),
                     _checkerboard(COARSE)),
                 lambda: pytest.warns(DomainWarning, match="half Nyquist"),
                 id="generator-pdo-under-resolved")))
def test_semigroup_input_checks(call, expect):
    with expect():
        call()
