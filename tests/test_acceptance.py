"""Acceptance suite: one test per criterion, tolerances pinned.

Run with -s to see one PASS line per criterion with the measured numbers.
"""

import json
import time

import numpy as np
import pytest
from scipy.special import j1, loggamma

from spectral_ssmp.bernstein import (
    BernsteinGammaEvaluator,
    default_evaluator,
    eval_phi,
)
from spectral_ssmp.eigenfunctions import (
    EIGEN_GRID,
    approx_eigenfunction,
    eigenfunction_fft,
    wright_eigenfunction,
)
from spectral_ssmp.exponents import (
    Exponent,
    LevyQuadruplet,
    WienerHopfPair,
    eval_psi,
)
from spectral_ssmp.families import make_bernstein, stable_density_table
from spectral_ssmp.lamperti import SimConfig, mc_expectation
from spectral_ssmp.semigroup import (
    EvolutionPlan,
    evolve,
    generator_ido,
    generator_pdo,
    mult_semigroup,
    ws_residual,
)
from spectral_ssmp.spectrum import classify, spectrum_values, table_rule
from spectral_ssmp.transform import (
    GridFunction,
    GridSpec,
    gaussian_fixture,
    h_fixture,
    h_transform_exact,
    inner_e,
    shifted_fft,
)

PHI_ID = make_bernstein("drift", d=1.0)
PHI_AFF = make_bernstein("affine", d=1.0, c=1.0)
PAIR_ID = WienerHopfPair(PHI_ID, PHI_ID)
PAIR_B = WienerHopfPair(PHI_ID, PHI_AFF)
SPEC = GridSpec()                      # [-20, 40], n = 2**12
COARSE = GridSpec(-20.0, 40.0, 512)    # range-matched for exponential ratios
GEN_SPEC = GridSpec(-10.0, 30.0, 4096)
FINE = GridSpec(-20.0, 40.0, 32768)


def gamma_pair(at, al, rho):
    return WienerHopfPair(
        make_bernstein("gamma-ratio-plus", alpha_tilde=at),
        make_bernstein("gamma-ratio-minus", alpha=al, rho=rho))


def vgrid(xi_max=30.0, n=41):
    a = np.array([0.5, 1.0, 2.0])
    xi = np.linspace(-xi_max, xi_max, n)
    return (a[:, None] + 1j * xi[None, :]).ravel()


def report(num, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[ACC-{num:02d}] {marker}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_gamma_oracle():
    t0 = time.monotonic()
    ev = BernsteinGammaEvaluator(PHI_ID, tol=1e-10, zmax=40.0)
    z = vgrid()
    err = float(np.abs(np.exp(ev.log_w(z) - loggamma(z)) - 1.0).max())
    elapsed = time.monotonic() - t0
    report(1, err <= 1e-8 and elapsed < 1.0,
           f"max |W/Gamma - 1| = {err:.2e} (<= 1e-8), {elapsed:.2f} s (< 1 s)")


def test_criterion_02_functional_equation():
    t0 = time.monotonic()
    built_ins = [
        ("drift", PHI_ID, 1e-7),
        ("affine", PHI_AFF, 1e-7),
        ("stable", make_bernstein("stable", beta=0.5), 1e-7),
        ("gamma-ratio-plus", make_bernstein("gamma-ratio-plus",
                                            alpha_tilde=0.7), 1e-7),
        ("gamma-ratio-minus", make_bernstein("gamma-ratio-minus",
                                             alpha=0.3, rho=1.0), 1e-7),
        ("compound-poisson", make_bernstein(
            "compound-poisson", atoms=[[1.0, 1.0], [2.5, 0.5]], c=0.2,
            d=0.3), 1e-7),
        ("tabulated-density", make_bernstein(**stable_density_table(0.5)),
         1e-6),
    ]
    z = vgrid()
    worst = {}
    for name, phi, tol in built_ins:
        ev = BernsteinGammaEvaluator(
            phi, tol=min(tol, 1e-8), zmax=40.0)
        res = np.abs(1.0 - np.exp(np.log(eval_phi(phi, z))
                                  + ev.log_w(z) - ev.log_w(z + 1.0)))
        worst[name] = float(res.max())
        assert worst[name] <= tol, (name, worst[name])
    elapsed = time.monotonic() - t0
    top = max(worst.values())
    report(2, top <= 1e-6 and elapsed < 10.0,
           f"worst residual {top:.2e} across {len(worst)} families, "
           f"{elapsed:.1f} s (< 10 s)")


def test_criterion_03_gamma_ratio_closed_forms():
    worst = 0.0
    z = vgrid()
    for at in (0.3, 0.7):
        phi = make_bernstein("gamma-ratio-plus", alpha_tilde=at)
        ev = default_evaluator(phi, 1e-10, 40.0)
        ref = loggamma(at * z) - loggamma(at)
        worst = max(worst, float(
            np.abs(np.exp(ev.log_w(z) - ref) - 1.0).max()))
    for al, rho in ((0.3, 1.0), (0.7, 0.75)):
        phi = make_bernstein("gamma-ratio-minus", alpha=al, rho=rho)
        ev = default_evaluator(phi, 1e-10, 40.0)
        ref = loggamma(rho + al * z) - loggamma(al + rho)
        worst = max(worst, float(
            np.abs(np.exp(ev.log_w(z) - ref) - 1.0).max()))
    report(3, worst <= 1e-7,
           f"max closed-form error {worst:.2e} (<= 1e-7)")


def test_criterion_04_multiplier_functional_identity():
    pairs = [PAIR_ID, PAIR_B, gamma_pair(0.7, 0.3, 1.0),
             gamma_pair(0.3, 0.7, 0.75),
             WienerHopfPair(make_bernstein("stable", beta=0.5),
                            make_bernstein("compound-poisson",
                                           atoms=[[1.0, 1.0],
                                                  [np.sqrt(2.0), 0.5]],
                                           c=0.1))]
    xi = np.linspace(-20.0, 20.0, 81)
    xi = xi[xi != 0.0]
    worst = 0.0
    for pair in pairs:
        evp = default_evaluator(pair.phi_plus, 1e-10, 40.0)
        evm = default_evaluator(pair.phi_minus, 1e-10, 40.0)

        def m_h(zline):
            return np.exp(evp.log_w(-1j * zline)
                          - evm.log_w(1.0 + 1j * zline))

        lhs = m_h(xi + 1j)
        rhs = eval_psi(Exponent(pair=pair), xi) * m_h(xi + 0j)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(lhs))))
    report(4, worst <= 1e-6,
           f"worst identity residual {worst:.2e} over 5 pairs (<= 1e-6)")


def test_criterion_05_shifted_fft_closed_form():
    f = h_fixture(SPEC, 1.0, 1.0)
    s = shifted_fft(f)
    exact = h_transform_exact(SPEC, 1.0, 1.0)
    mask = np.abs(SPEC.xi) <= SPEC.nyquist / 4.0
    rel = float(np.sqrt(np.sum(np.abs(s.values[mask] - exact.values[mask]) ** 2)
                        / np.sum(np.abs(exact.values[mask]) ** 2)))
    parseval = abs(s.norm() - f.norm_e()) / f.norm_e()
    report(5, rel <= 1e-6 and parseval <= 1e-10,
           f"rel L2 error {rel:.2e} (<= 1e-6), Parseval {parseval:.2e} "
           f"(<= 1e-10)")


def test_criterion_06_classification_golden_set():
    table2_pair = WienerHopfPair(
        make_bernstein("compound-poisson", atoms=[[1.0, 2.0]], d=1.0),
        make_bernstein("stable", beta=0.5))
    cases = [
        (PAIR_ID, "Continuous"),
        (gamma_pair(0.7, 0.3, 1.0), "Point"),
        (gamma_pair(0.3, 0.7, 1.0), "Residual"),
        (gamma_pair(0.5, 0.5, 0.75), "Point"),
        (table2_pair, "Point"),
    ]
    fine = GridSpec(-20.0, 40.0, 8192)
    verdicts = []
    ok = True
    for pair, want in cases:
        got = classify(pair, SPEC).verdict
        got2 = classify(pair, fine).verdict
        verdicts.append(got)
        ok = ok and got == want and got2 == want
    # the symbolic rule behind the table case
    rule = table_rule(table2_pair.phi_plus, table2_pair.phi_minus)
    ok = ok and rule == "Point"
    report(6, ok, f"verdicts {verdicts} stable under grid doubling; "
                  f"table rule fires {rule}")


def test_criterion_07_eigenfunction_cross_validation():
    J = eigenfunction_fft(PAIR_B)
    x = EIGEN_GRID.x
    ref = np.exp(-x / 2.0) * j1(2.0 * np.exp(x / 2.0))
    mask = (x >= -10.0) & (x <= 5.0)
    sup = float(np.max(np.abs(J.values.real[mask] - ref[mask])))
    plan = EvolutionPlan(PAIR_B, EIGEN_GRID)
    nj = J.norm_e()
    worst_rel = 0.0
    for y in (-1.0, 0.0, 1.0):
        tau = eigenfunction_fft(PAIR_B, y=y)
        for t in (0.1, 1.0):
            out = evolve(plan, t, tau)
            lam = float(spectrum_values(t, np.array([y]))[0])
            resid = GridFunction(EIGEN_GRID,
                                 out.values - lam * tau.values).norm_e() / nj
            worst_rel = max(worst_rel, resid)
    report(7, sup <= 1e-3 and worst_rel <= 1e-3,
           f"sup error vs Bessel form {sup:.2e} (<= 1e-3), worst eigen "
           f"residual {worst_rel:.2e} (<= 1e-3)")


def test_criterion_08_wright_discrimination():
    pair = gamma_pair(0.7, 0.3, 1.0)
    J = eigenfunction_fft(pair)
    x = EIGEN_GRID.x
    mask = (x >= -10.0) & (x <= 0.5)
    xs = x[mask][::128]
    jf = np.interp(xs, x, J.values.real)
    errs = {}
    for variant in ("statement", "proof"):
        jv = wright_eigenfunction(pair, xs, variant)
        c = float(np.dot(jf, jv) / np.dot(jv, jv))
        errs[variant] = float(np.linalg.norm(jf - c * jv)
                              / np.linalg.norm(jf))
    matching = [k for k, v in errs.items() if v <= 1e-3]
    report(8, matching == ["statement"],
           f"matching variant: {matching} (statement {errs['statement']:.2e},"
           f" proof {errs['proof']:.2e}); the e^(x/alpha_tilde) argument wins")


def test_criterion_09_semigroup_laws():
    plan_b = EvolutionPlan(PAIR_B, SPEC)
    f = h_fixture(SPEC, 1.0, 1.0)
    ab = evolve(plan_b, 0.3, evolve(plan_b, 0.2, f))
    b = evolve(plan_b, 0.5, f)
    semi = GridFunction(SPEC, ab.values - b.values).norm_e() / f.norm_e()

    gp = gamma_pair(0.7, 0.3, 1.0)
    plan_g = EvolutionPlan(gp, COARSE)
    f2 = h_fixture(COARSE, 1.0, 2.0)
    contraction = max(
        evolve(plan_b, 1.0, h_fixture(SPEC, 1.0, 2.0)).norm_e()
        / h_fixture(SPEC, 1.0, 2.0).norm_e(),
        evolve(plan_g, 1.0, f2).norm_e() / f2.norm_e())

    pos_in = h_fixture(COARSE, 0.5, 1.0)
    pos_out = evolve(plan_g, 1.0, pos_in)
    positivity = float(np.min(pos_out.values.real[2:-2]))
    pos_floor = -1e-6 * float(np.max(pos_in.values.real))

    plan_id = EvolutionPlan(PAIR_ID, SPEC)
    fsa = h_fixture(SPEC, 1.0, 2.0)
    gsa = gaussian_fixture(SPEC, 1.0)
    lhs = inner_e(evolve(plan_id, 0.5, fsa), gsa)
    rhs = inner_e(fsa, evolve(plan_id, 0.5, gsa))
    self_adj = abs(lhs - rhs) / abs(lhs)

    conj_pair = WienerHopfPair(gp.phi_minus, gp.phi_plus)
    plan_gc = EvolutionPlan(conj_pair, COARSE)
    fda = h_fixture(COARSE, 1.0, 2.0)
    gda = gaussian_fixture(COARSE, 1.0)
    lhs2 = inner_e(evolve(plan_g, 0.5, fda), gda)
    rhs2 = inner_e(fda, evolve(plan_gc, 0.5, gda))
    duality = abs(lhs2 - rhs2) / abs(lhs2)

    ok = (semi <= 1e-8 and contraction <= 1.0 + 1e-8
          and positivity >= pos_floor and self_adj <= 1e-8
          and duality <= 1e-6)
    report(9, ok,
           f"semigroup {semi:.1e} (<=1e-8), contraction {contraction:.10f} "
           f"(<=1+1e-8), positivity min {positivity:.1e} (>= {pos_floor:.1e}),"
           f" self-adjoint {self_adj:.1e} (<=1e-8), duality {duality:.1e} "
           "(<=1e-6)")


def test_criterion_10_monte_carlo_vs_spectral():
    t0 = time.monotonic()
    plan = EvolutionPlan(PAIR_ID, SPEC)
    f = h_fixture(SPEC, 0.5, 1.0)
    t = 0.5
    spectral = evolve(plan, t, f)
    cfg = SimConfig(dt=1e-3, n_paths=100_000, seed=2024)
    e_bm = Exponent(quadruplet=LevyQuadruplet(sigma2=1.0))
    sup_f = float(np.max(np.abs(f.values.real)))
    obs = lambda r: np.interp(np.log(r), SPEC.x, f.values.real,
                              left=0.0, right=0.0)
    ok = True
    details = []
    for x0 in (0.0, 0.5):
        est = mc_expectation(e_bm, obs, float(np.exp(x0)), t, cfg)
        grid_val = float(np.interp(x0, SPEC.x, spectral.values.real))
        gap = abs(grid_val - est.mean)
        budget = 3.0 * est.stderr + 0.01 * sup_f
        ok = ok and gap <= budget
        details.append(f"x={x0}: |evolve-MC| = {gap:.4f} <= {budget:.4f}")
    est_d = mc_expectation(Exponent(quadruplet=LevyQuadruplet(b=2.0)),
                           lambda r: r, 1.5, 0.75,
                           SimConfig(dt=1e-3, n_paths=64, seed=5))
    drift_exact = abs(est_d.mean - 3.0) <= 1e-12 and est_d.stderr <= 1e-12
    elapsed = time.monotonic() - t0
    report(10, ok and drift_exact and elapsed < 60.0,
           "; ".join(details) + f"; drift exact {drift_exact}; "
           f"{elapsed:.0f} s (< 60 s)")


def test_criterion_11_generator_consistency():
    from spectral_ssmp.exponents import SignedMeasure
    fn = lambda x: np.exp(-x ** 2)
    f = GridFunction(GEN_SPEC, fn(GEN_SPEC.x))
    quads = [LevyQuadruplet(sigma2=1.0), LevyQuadruplet(b=1.5),
             LevyQuadruplet(mu=SignedMeasure(atoms=((1.0, 0.5),)))]
    interior = slice(2, -2)
    worst = 0.0
    for q in quads:
        a1 = generator_pdo(Exponent(quadruplet=q), f)
        a2 = generator_ido(q, fn, GEN_SPEC)
        worst = max(worst, float(np.max(np.abs(
            a1.values[interior] - a2.values[interior]))))

    spec_d = GridSpec(-20.0, 40.0, 2048)
    plan = EvolutionPlan(PAIR_ID, spec_d)
    hfix = h_fixture(spec_d, 1.0, 1.0)
    af = generator_pdo(Exponent(pair=PAIR_ID), hfix)
    errs = []
    for h in (1e-2, 5e-3):
        d = evolve(plan, h, hfix)
        errs.append(GridFunction(spec_d, (d.values - hfix.values) / h
                                 - af.values).norm_e())
    ratio = errs[1] / errs[0]
    report(11, worst <= 1e-4 and 0.35 <= ratio <= 0.75,
           f"PDO-IDO sup {worst:.2e} (<= 1e-4) over 3 fixtures; derivative "
           f"halving ratio {ratio:.2f} in [0.35, 0.75]")


def test_criterion_12_weak_similarity_residual():
    r_id = ws_residual(PAIR_ID, SPEC)
    r_b = ws_residual(PAIR_B, SPEC)
    r_g = ws_residual(gamma_pair(0.7, 0.3, 1.0), SPEC)
    ok = r_id <= 1e-10 and r_b <= 1e-5 and r_g <= 1e-4
    report(12, ok, f"(id,id) {r_id:.1e} (<=1e-10); (id,u+1) {r_b:.1e} "
                   f"(<=1e-5); gamma pair {r_g:.1e} (<=1e-4)")


def test_criterion_13_approximate_eigenfunctions():
    t = 1.0
    ok = True
    details = []
    for y in (0.0, 1.0):
        lam = float(spectrum_values(t, np.array([y]))[0])
        resids = []
        for n in (4, 8, 16, 32):
            g = approx_eigenfunction(FINE, y, n)
            r = GridFunction(FINE, mult_semigroup(t, g).values
                             - lam * g.values).norm_e()
            resids.append(r)
        mono = all(nxt <= 1.1 * prev for prev, nxt in zip(resids, resids[1:]))
        ok = ok and mono and resids[-1] < resids[0]
        details.append(f"y={y}: " + " > ".join(f"{r:.2e}" for r in resids))
    report(13, ok, "; ".join(details) + " (monotone within 10%)")
