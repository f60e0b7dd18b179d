"""Spectrum classification: golden verdicts, table rules, duality."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spectral_ssmp.spectrum as spectrum_mod
from spectral_ssmp.errors import DomainError
from spectral_ssmp.exponents import WienerHopfPair
from spectral_ssmp.families import make_bernstein, stable_density_table
from spectral_ssmp.spectrum import (
    SpectrumReport,
    _table_row,
    classify,
    spectrum_values,
    table_rule,
)
from spectral_ssmp.transform import GridSpec, multiplier_h

SPEC = GridSpec()
PHI_ID = make_bernstein("drift", d=1.0)
PHI_AFF = make_bernstein("affine", d=1.0, c=1.0)


def gamma_pair(at, al, rho):
    return WienerHopfPair(
        make_bernstein("gamma-ratio-plus", alpha_tilde=at),
        make_bernstein("gamma-ratio-minus", alpha=al, rho=rho))


GOLDEN = [
    (WienerHopfPair(PHI_ID, PHI_ID), "Continuous"),
    (gamma_pair(0.7, 0.3, 1.0), "Point"),
    (gamma_pair(0.3, 0.7, 1.0), "Residual"),
    (gamma_pair(0.5, 0.5, 0.75), "Point"),
]


@pytest.mark.parametrize("pair,want", GOLDEN)
def test_golden_verdicts(pair, want):
    rep = classify(pair, SPEC)
    assert rep.verdict == want


def test_verdict_stable_under_grid_doubling():
    fine = GridSpec(-20.0, 40.0, 8192)
    for pair, want in GOLDEN:
        assert classify(pair, fine).verdict == want


def test_point_residual_duality():
    for pair, want in GOLDEN:
        if want not in ("Point", "Residual"):
            continue
        swapped = WienerHopfPair(pair.phi_minus, pair.phi_plus)
        got = classify(swapped, SPEC).verdict
        assert got == ("Residual" if want == "Point" else "Point")


def test_theta_gap_soundness():
    # a theta-gap Point verdict implies a 10x drop of |m| between
    # xi_max/4 and xi_max
    pair = gamma_pair(0.7, 0.3, 1.0)
    rep = classify(pair, SPEC, xi_max=200.0)
    assert rep.verdict == "Point" and rep.branch == "theta-gap"
    m = multiplier_h(pair, SPEC)
    xi = np.abs(SPEC.xi)
    lvl = lambda c: np.median(np.abs(m.values[(xi > 0.9 * c) & (xi < 1.1 * c)]))
    assert lvl(50.0) / lvl(200.0) >= 10.0


def test_affine_pair_is_point_via_bands():
    rep = classify(WienerHopfPair(PHI_ID, PHI_AFF), SPEC)
    assert rep.verdict == "Point"
    assert rep.branch == "band-decay"
    assert rep.l2_mass_m_finite and not rep.l2_mass_inv_finite


def test_approximate_only_polynomial_ratio():
    # both factors share the exponential rate; the ratio decays like
    # |xi|^{rho_plus - rho_minus} = |xi|^{-0.45}: slow enough to miss the
    # square-integrability fit, fast enough to lose two-sided boundedness
    p_plus = make_bernstein("gamma-ratio-minus", alpha=0.5, rho=0.3)
    p_minus = make_bernstein("gamma-ratio-minus", alpha=0.5, rho=0.75)
    rep = classify(WienerHopfPair(p_plus, p_minus), SPEC)
    assert rep.verdict == "ApproximateOnly"
    assert rep.bounded_above and not rep.bounded_below


def test_report_invariants():
    rep = classify(gamma_pair(0.7, 0.3, 1.0), SPEC)
    assert rep.l2_mass_m_finite
    assert not rep.l2_mass_inv_finite
    d = rep.to_dict()
    assert d["verdict"] == "Point"
    assert set(d) >= {"verdict", "theta_plus", "theta_minus", "branch"}


def test_report_rejects_unknown_verdict():
    with pytest.raises(DomainError, match="unknown verdict"):
        SpectrumReport("Bogus", (0, 1), (0, 1), 1.0, 1.0, True, True, None,
                       SPEC, "none")


def test_report_invariants_raise_domain_error():
    # raised, not asserted, so the check survives python -O
    with pytest.raises(DomainError, match="bounded both ways"):
        SpectrumReport("Continuous", (0, 1), (0, 1), 1.0, 1.0, False, False,
                       None, SPEC, "band-bounded")


# ---------------------------------------------------------------------------
# the verdict chain
# ---------------------------------------------------------------------------

TABLE_D1 = make_bernstein(**stable_density_table(0.5), d=1.0)
GAMMA_MINUS_PAIR = WienerHopfPair(
    make_bernstein("gamma-ratio-minus", alpha=0.5, rho=0.3),
    make_bernstein("gamma-ratio-minus", alpha=0.5, rho=0.75))


def _check_report(rep, verdict, branch, fired, m_l2, inv_l2):
    d = rep.to_dict()
    want = {"verdict": verdict, "branch": branch, "table_rule_fired": fired,
            "l2_mass_m_finite": m_l2, "l2_mass_inv_finite": inv_l2}
    assert {k: getattr(rep, k) for k in want} == want
    assert {k: d[k] for k in want} == want


@pytest.mark.parametrize("pair,verdict,branch,fired,m_l2,inv_l2", [
    (gamma_pair(0.7, 0.3, 1.0), "Point", "theta-gap", None, True, False),
    (gamma_pair(0.3, 0.7, 1.0), "Residual", "theta-gap", None, False, True),
    (WienerHopfPair(PHI_AFF, TABLE_D1), "Point", "table", "T2r2", True, False),
    (WienerHopfPair(TABLE_D1, PHI_AFF), "Residual", "table", "T2r2", False,
     True),
    (WienerHopfPair(PHI_ID, PHI_AFF), "Point", "band-decay", None, True,
     False),
    (WienerHopfPair(PHI_AFF, PHI_ID), "Residual", "band-decay", None, False,
     True),
    (WienerHopfPair(PHI_ID, PHI_ID), "Continuous", "band-bounded", None,
     False, False),
    (GAMMA_MINUS_PAIR, "ApproximateOnly", "band-bounded", None, False,
     False),
])
def test_classify_chain_on_real_pairs(pair, verdict, branch, fired, m_l2,
                                      inv_l2):
    _check_report(classify(pair, SPEC), verdict, branch, fired, m_l2, inv_l2)


def _side(bounded, square_integrable, drop=1.0):
    return spectrum_mod._Side(bounded, square_integrable, 1.0, drop)


@pytest.mark.parametrize("pair,m,inv,verdict,branch,fired", [
    # no bound either way and no decay: the last link of the chain
    (WienerHopfPair(PHI_ID, PHI_ID), _side(False, False), _side(False, False),
     "Inconclusive", "none", None),
    # a Theta gap without the 10x drop of |m| leaves the verdict to the
    # table row
    (gamma_pair(0.7, 0.3, 1.0), _side(True, True, drop=5.0),
     _side(False, False), "Point", "table", "T1r1"),
    # m and 1/m both square integrable is refused as band-decay evidence
    (WienerHopfPair(PHI_ID, PHI_ID), _side(True, True), _side(True, True),
     "Continuous", "band-bounded", None),
])
def test_classify_chain_on_set_evidence(monkeypatch, pair, m, inv, verdict,
                                        branch, fired):
    sides = iter((m, inv))  # classify reads m first, then 1/m
    monkeypatch.setattr(spectrum_mod, "_side_evidence",
                        lambda spec, values, hi: next(sides))
    rep = classify(pair, SPEC)
    _check_report(rep, verdict, branch, fired, verdict == "Point",
                  verdict == "Residual")
    assert (rep.bounded_above, rep.bounded_below) == (m.bounded, inv.bounded)


# ---------------------------------------------------------------------------
# table rules
# ---------------------------------------------------------------------------

def test_table2_row1():
    # drift with finite activity against a driftless table: infinite
    # activity, no quasi-monotone regular variation, so T1r2 stays silent
    mp = make_bernstein("compound-poisson", atoms=[[1.0, 2.0]], d=1.0)
    mm = make_bernstein(**stable_density_table(0.5))
    assert _table_row(mp, mm) == ("Point", "T2r1")
    assert _table_row(mm, mp) == ("Residual", "T2r1")
    assert table_rule(mp, mm) == "Point"
    assert table_rule(mm, mp) == "Residual"


def test_table1_row1():
    mp = make_bernstein("stable", beta=0.8)
    mm = make_bernstein("stable", beta=0.3)
    assert _table_row(mp, mm) == ("Point", "T1r1")
    assert table_rule(mp, mm) == "Point"
    assert table_rule(mm, mp) == "Residual"


def test_table1_row2():
    mp = make_bernstein(**stable_density_table(0.5), d=0.5)
    mm = make_bernstein("stable", beta=0.4)
    assert _table_row(mp, mm) == ("Point", "T1r2")
    assert table_rule(mp, mm) == "Point"


def test_table2_row2():
    mp = make_bernstein("compound-poisson", atoms=[[1.0, 3.0]], d=1.0)
    mm = make_bernstein(**stable_density_table(0.5), d=0.5)
    assert _table_row(mp, mm) == ("Point", "T2r2")
    assert table_rule(mp, mm) == "Point"


def test_table_no_match():
    assert table_rule(PHI_ID, PHI_ID) is None
    # equal regular-variation indices never fire the strict inequality row
    eq = make_bernstein("stable", beta=0.5)
    assert _table_row(eq, eq) == (None, None)


def test_table_reads_infinite_activity_of_a_table_with_a0_zero():
    # a density with head c0/y below its table has infinite activity, so
    # T2r1 (finite activity of the plus factor) must not fire
    y = np.geomspace(1e-6, 1e3, 181)
    plus = make_bernstein("tabulated-density", y=list(y),
                          density=list(1.0 / (y * (1.0 + y))),
                          tail_exponent_zero=0.0, tail_exponent_inf=1.0,
                          d=1.0)
    minus = make_bernstein(**stable_density_table(0.5))
    assert table_rule(plus, minus) is None


def test_table_rule_consistency_with_bands():
    # when the symbolic rule would fire, the direct band diagnostic agrees
    pair = WienerHopfPair(
        make_bernstein("compound-poisson", atoms=[[1.0, 2.0]], d=1.0),
        make_bernstein("stable", beta=0.5))
    assert table_rule(pair.phi_plus, pair.phi_minus) == "Point"
    rep = classify(pair, SPEC)
    assert rep.verdict == "Point"


def test_classify_decides_by_the_table():
    # affine plus factor (drift, finite activity) against a tabulated
    # stable(1/2) density with drift (infinite activity): no Theta gap
    # decides, so Table 2 row 2 gives the verdict
    minus = make_bernstein(**stable_density_table(0.5), d=1.0)
    rep = classify(WienerHopfPair(PHI_AFF, minus), SPEC)
    assert rep.branch == "table"
    assert rep.table_rule_fired == "T2r2"
    assert rep.verdict == "Point"


# ---------------------------------------------------------------------------
# spectral ray
# ---------------------------------------------------------------------------

def test_spectrum_values():
    y = np.array([-1.0, 0.0, 1.0, 50.0])
    vals = spectrum_values(0.0, y)
    assert_allclose(vals, 1.0)
    assert spectrum_values(1.0, np.array([0.0]))[0] == pytest.approx(
        np.exp(-1.0))
    assert spectrum_values(1.0, np.array([60.0]))[0] == pytest.approx(1.0)
    assert np.all(np.diff(spectrum_values(2.0, np.linspace(-3, 3, 20))) >= 0)
    # a NaN t is refused, not returned as NaN values
    for t in (-0.5, np.nan):
        with pytest.raises(DomainError, match="t must be nonnegative"):
            spectrum_values(t, y)
