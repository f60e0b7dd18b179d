"""Command-line interface: schemas, exit codes, output formats."""

import json

import numpy as np
import pytest
from scipy.special import loggamma

from spectral_ssmp.cli import emit_csv, run
from spectral_ssmp.eigenfunctions import wright_eigenfunction
from spectral_ssmp.errors import ValidationError
from spectral_ssmp.families import (
    bernstein_from_json,
    exponent_from_json,
    make_bernstein,
)
from spectral_ssmp.lamperti import SimConfig, mc_expectation
from spectral_ssmp.semigroup import EvolutionPlan, evolve
from spectral_ssmp.transform import GridSpec, gaussian_fixture, h_fixture

PAIR_ID = json.dumps({"plus": {"family": "drift", "d": 1.0},
                      "minus": {"family": "drift", "d": 1.0}})
PAIR_GAMMA = json.dumps({
    "plus": {"family": "gamma-ratio-plus", "alpha_tilde": 0.7},
    "minus": {"family": "gamma-ratio-minus", "alpha": 0.3, "rho": 1.0}})


# ---------------------------------------------------------------------------
# families / JSON schema
# ---------------------------------------------------------------------------

def test_family_roundtrip():
    phi = bernstein_from_json({"family": "affine", "d": 1.0, "c": 0.5})
    assert phi.drift == 1.0 and phi.phi0 == 0.5


def test_unknown_family_rejected():
    with pytest.raises(ValidationError):
        make_bernstein("nonsense")


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError):
        bernstein_from_json({"family": "drift", "d": 1.0, "bogus": 2})
    with pytest.raises(ValidationError):
        exponent_from_json({"pair": {"plus": {"family": "drift"},
                                     "minus": {"family": "drift"},
                                     "extra": 1}})
    with pytest.raises(ValidationError):
        exponent_from_json({"wrong_top": {}})


def test_exponent_json_both_forms():
    e = exponent_from_json({"quadruplet": {"psi0": 0.0, "b": 0.5,
                                           "sigma2": 1.0,
                                           "mu": {"atoms": [[1.0, 0.5]]}}})
    assert e.quadruplet.b == 0.5
    e2 = exponent_from_json(json.loads('{"pair": ' + PAIR_ID + '}'))
    assert e2.pair is not None


def test_stable_family_range_checked():
    with pytest.raises(ValidationError):
        make_bernstein("stable", beta=1.5)


# ---------------------------------------------------------------------------
# emit_csv
# ---------------------------------------------------------------------------

def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv((["a", "b"], [[], []]), str(path))
    assert path.read_bytes() == b"a,b\n"


def test_emit_csv_roundtrip_bits(tmp_path):
    rng = np.random.default_rng(3)
    col = rng.standard_normal(64) * 10.0 ** rng.integers(-12, 12, 64)
    path = tmp_path / "t.csv"
    emit_csv((["v"], [col]), str(path))
    lines = path.read_text().splitlines()[1:]
    back = np.array([float(s) for s in lines])
    assert np.array_equal(back, col)  # 17 significant digits round-trip


def _per_cell_csv(header, columns):
    # the format emit_csv keeps: strings as is, %.17g of float(v) otherwise
    fmt = lambda v: v if isinstance(v, str) else "%.17g" % float(v)
    rows = [",".join(header)] + [",".join(fmt(c[i]) for c in columns)
                                 for i in range(len(columns[0]))]
    return ("\n".join(rows) + "\n").encode()


@pytest.mark.parametrize("header,columns", [
    (["v", "w"], [np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300]),
                  [1.0 / 3.0, -2.5e17, 5e-324, 1.7976931348623157e308,
                   -1.0, 2.0 ** 60]]),
    (["i", "name"], [np.arange(-3, 3), ["a", "b c", "d", "nan", "-0", ""]]),
    (["n", "x"], [[7, -1, 2 ** 53 + 1], np.array([0.1, 0.2, 0.3])]),
    (["a", "b"], [np.array([]), []]),
])
def test_emit_csv_matches_per_cell_format(tmp_path, header, columns):
    path = tmp_path / "t.csv"
    emit_csv((header, columns), str(path))
    assert path.read_bytes() == _per_cell_csv(header, columns)


def test_emit_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValidationError):
        emit_csv((["a", "b"], [np.arange(3.0), np.arange(2.0)]),
                 str(tmp_path / "t.csv"))


# ---------------------------------------------------------------------------
# subcommands and exit codes
# ---------------------------------------------------------------------------

def test_malformed_json_exits_2(capsys):
    assert run(["classify", "--pair", "not json"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "JSONDecodeError"


def test_classify_definite_exit_0(capsys):
    code = run(["classify", "--pair", PAIR_ID])
    out = capsys.readouterr().out
    assert code == 0
    assert "Continuous" in out


def test_classify_json_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = run(["classify", "--pair", PAIR_GAMMA, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "Point"


def test_bgamma_matches_loggamma(tmp_path):
    out = tmp_path / "bg.csv"
    code = run(["bgamma", "--phi", '{"family": "drift", "d": 1.0}',
                "--a", "0.5", "--xi-max", "20", "--points", "81",
                "--out", str(out)])
    assert code == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    ref = np.abs(np.exp(loggamma(0.5 + 1j * data["xi"])))
    assert np.max(np.abs(data["abs"] - ref) / ref) <= 1e-8


def test_multiplier_csv(tmp_path):
    out = tmp_path / "m.csv"
    code = run(["multiplier", "--pair", PAIR_ID, "--grid=-20:40:512",
                "--out", str(out)])
    assert code == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert np.max(np.abs(data["abs"] - 1.0)) <= 1e-9


def test_evolve_and_csv_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "e1.csv"
    base = ["evolve", "--pair", PAIR_ID, "--t", "0.5", "--f", "h:1:1",
            "--grid=-20:40:512", "--out", str(out1)]
    assert run(base) == 0
    # re-ingest the emitted CSV: bit-for-bit round trip through --f csv:
    out2 = tmp_path / "e2.csv"
    assert run(["evolve", "--pair", PAIR_ID, "--t", "0.0",
                "--f", f"csv:{out1}", "--grid=-20:40:512",
                "--out", str(out2)]) == 0
    d1 = np.genfromtxt(out1, delimiter=",", names=True)
    d2 = np.genfromtxt(out2, delimiter=",", names=True)
    assert np.max(np.abs(d1["re"] - d2["re"])) <= 1e-8


def test_evolve_gauss_fixture_matches_library(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["evolve", "--pair", PAIR_ID, "--t", "0.5", "--f", "gauss:0",
                "--grid=-20:40:512", "--out", str(out)]) == 0
    spec = GridSpec(-20.0, 40.0, 512)
    pair = exponent_from_json({"pair": json.loads(PAIR_ID)}).pair
    ref = evolve(EvolutionPlan(pair, spec, tol=1e-8), 0.5,
                 gaussian_fixture(spec, 0.0))
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert np.array_equal(data["re"], ref.values.real)
    assert np.array_equal(data["im"], ref.values.imag)


def test_evolve_residual_pair_on_2048_points_exits_2(tmp_path, capsys):
    # H's product of the Residual pair carries all its mass beyond half
    # Nyquist on this grid: refused, where it used to write values up to 2e13
    pair = json.dumps({
        "plus": {"family": "gamma-ratio-plus", "alpha_tilde": 0.3},
        "minus": {"family": "gamma-ratio-minus", "alpha": 0.7, "rho": 1.0}})
    out = tmp_path / "out.csv"
    code = run(["evolve", "--pair", pair, "--t", "0.5", "--f", "h:1:1",
                "--grid=-20:40:2048", "--out", str(out)])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "DomainError"
    assert "domain of H on axis 0" in err["message"]
    assert not out.exists()


def test_evolve_without_pair_is_validation_error(capsys):
    code = run(["evolve", "--quadruplet",
                '{"psi0": 0, "b": 0, "sigma2": 1.0}',
                "--t", "0.5", "--f", "h:1:1", "--out", "/tmp/x.csv"])
    capsys.readouterr()
    assert code == 2


def test_eigenfn_methods_agree(tmp_path):
    pair_b = json.dumps({"plus": {"family": "drift", "d": 1.0},
                         "minus": {"family": "affine", "d": 1.0, "c": 1.0}})
    out_s = tmp_path / "series.csv"
    out_f = tmp_path / "fft.csv"
    grid = "--grid=-20:40:16384"
    assert run(["eigenfn", "--pair", pair_b, "--method", "series",
                "--grid=-10:2:512", "--out", str(out_s)]) == 0
    assert run(["eigenfn", "--pair", pair_b, "--method", "fft",
                grid, "--out", str(out_f)]) == 0
    ds = np.genfromtxt(out_s, delimiter=",", names=True)
    df = np.genfromtxt(out_f, delimiter=",", names=True)
    interp = np.interp(ds["x"], df["x"], df["J"])
    assert np.max(np.abs(ds["J"] - interp)) <= 2e-3


def test_eigenfn_wright_route_matches_library(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert run(["eigenfn", "--pair", PAIR_GAMMA, "--method", "wright",
                "--grid=-6:2:256", "--out", str(out)]) == 0
    x = GridSpec(-6.0, 2.0, 256).x
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert np.array_equal(data["x"], x)
    assert np.array_equal(data["J"], wright_eigenfunction(0.7, 0.3, 1.0, x))
    assert run(["eigenfn", "--pair", PAIR_ID, "--method", "wright",
                "--grid=-6:2:256", "--out", str(out)]) == 2
    capsys.readouterr()


def test_simulate_json_output(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code = run(["simulate", "--quadruplet", '{"b": 2.0}',
                "--x", "1.0", "--t", "0.5", "--paths", "64",
                "--dt", "0.001", "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mean"] == pytest.approx(2.0, abs=1e-12)
    assert payload["absorbed_fraction"] == 0.0


def test_simulate_composes_the_fixture_with_log(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert run(["simulate", "--quadruplet", '{"sigma2": 1.0}', "--x", "1.0",
                "--t", "0.2", "--f", "h:1:1", "--paths", "200",
                "--dt", "0.005", "--jump-eps", "0.001", "--seed", "3",
                "--t-max", "64", "--out", str(out)]) == 0
    capsys.readouterr()
    spec = GridSpec()
    h = h_fixture(spec, 1.0, 1.0).values.real
    est = mc_expectation(
        exponent_from_json({"quadruplet": {"sigma2": 1.0}}),
        lambda r: np.interp(np.log(r), spec.x, h, left=0.0, right=0.0),
        1.0, 0.2, SimConfig(dt=0.005, jump_eps=1e-3, n_paths=200, seed=3,
                            t_max=64.0))
    assert json.loads(out.read_text()) == {
        "mean": est.mean, "stderr": est.stderr, "n": est.n_effective,
        "absorbed_fraction": est.absorbed_fraction,
        "unresolved_fraction": est.unresolved_fraction}


def test_simulate_reports_unresolved_fraction(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code = run(["simulate", "--quadruplet", '{"sigma2": 1.0}',
                "--x", "1.0", "--t", "0.5", "--paths", "400", "--dt", "0.001",
                "--t-max", "0.6", "--seed", "2", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["unresolved_fraction"] == (400 - payload["n"]) / 400
    assert payload["unresolved_fraction"] > 0.0


def test_simulate_determinism_bytes(tmp_path, capsys):
    args = ["simulate", "--quadruplet", '{"sigma2": 1.0}', "--x", "1.0",
            "--t", "0.2", "--paths", "500", "--dt", "0.005", "--seed", "9"]
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(o1)]) == 0
    assert run(args + ["--out", str(o2)]) == 0
    capsys.readouterr()
    assert o1.read_bytes() == o2.read_bytes()


def test_simulate_negative_seed_exits_2(capsys):
    assert run(["simulate", "--quadruplet", '{"sigma2": 1.0}', "--x", "1.0",
                "--t", "0.5", "--paths", "10", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "ConfigError"


@pytest.mark.parametrize("flag, value, error", [
    ("--t-max", "inf", "ConfigError"),
    ("--dt", "nan", "ConfigError"),
    ("--x", "nan", "DomainError"),
    ("--t", "nan", "DomainError"),
    ("--x", "inf", "DomainError"),
])
def test_simulate_non_finite_input_exits_2(capsys, flag, value, error):
    # a repeated flag overrides its first value
    assert run(["simulate", "--quadruplet", '{"sigma2": 1.0}', "--x", "1.0",
                "--t", "0.5", "--paths", "100", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == error


def test_generator_check_csv(tmp_path, capsys):
    out = tmp_path / "gen.csv"
    code = run(["generator-check", "--quadruplet", '{"sigma2": 1.0}',
                "--grid=-10:30:2048", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "fixture,sup_error"
    assert len(rows) == 4
    sups = [float(r.split(",")[1]) for r in rows[1:]]
    assert max(sups) <= 1e-4


def test_inconclusive_exit_3(monkeypatch, capsys):
    # exit-code mapping for the Inconclusive verdict, independent of how
    # hard such a pair is to build from the built-in families
    import spectral_ssmp.cli as cli_mod
    from spectral_ssmp.spectrum import SpectrumReport
    from spectral_ssmp.transform import GridSpec

    def fake_classify(pair, spec, xi_max=200.0):
        return SpectrumReport(
            verdict="Inconclusive", theta_plus=(0.1, 0.2),
            theta_minus=(0.1, 0.2), l2_mass_m=1.0, l2_mass_m_finite=False,
            l2_mass_inv=1.0, l2_mass_inv_finite=False, bounded_above=False,
            bounded_below=False, table_rule_fired=None,
            evidence_grid=GridSpec(), branch="none")

    monkeypatch.setattr(cli_mod, "classify", fake_classify)
    code = run(["classify", "--pair", PAIR_ID])
    capsys.readouterr()
    assert code == 3


def test_numerical_failure_exit_4(capsys):
    # an evaluator horizon violation surfaces as a convergence failure
    code = run(["bgamma", "--phi", '{"family": "drift", "d": 1.0}',
                "--a", "0.5", "--xi-max", "30", "--points", "11",
                "--tol-w", "1e-30", "--out", "/tmp/never.csv"])
    capsys.readouterr()
    assert code == 4
