"""Command-line interface: schemas, exit codes, output formats."""

import inspect
import json

import numpy as np
import pytest
from scipy.special import loggamma

from spectral_ssmp import errors
from spectral_ssmp.cli import build_parser, emit_csv, run
from spectral_ssmp.eigenfunctions import wright_eigenfunction
from spectral_ssmp.errors import ValidationError
from spectral_ssmp.families import (
    FAMILY_IDS,
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


NAN = float("nan")
TABLE = {"y": [0.01, 0.1, 1.0, 10.0], "density": [1e3, 31.6, 1.0, 0.0316],
         "tail_exponent_inf": 0.5}


@pytest.mark.parametrize("family,params", [
    ("stable", {"beta": NAN}),
    ("stable", {"beta": 0.5, "alpha": 0.5}),
    ("stable", {}),
    ("gamma-ratio-plus", {"alpha_tilde": -0.5}),
    ("gamma-ratio-minus", {"alpha": 0.3, "rho": 0.0}),
    ("gamma-ratio-minus", {"alpha": 1.0, "rho": 1.0}),
    ("affine", {"d": 1.0, "c": NAN}),
    ("drift", {"d": float("inf")}),
    ("compound-poisson", {"atoms": [[NAN, 1.0]], "d": 1.0}),
    ("compound-poisson", {"atoms": [[1.0]]}),
    ("tabulated-density", {**TABLE, "tail_exponent_zero": 1.5}),
    ("tabulated-density", {**TABLE, "tail_exponent_zero": NAN}),
    ("tabulated-density", {**TABLE, "tail_exponent_zero": 0.5, "d": NAN}),
])
def test_family_and_json_routes_reject_bad_parameters(family, params):
    # the descriptors check the values and the builders' signatures the
    # names; both routes report either as ValidationError
    with pytest.raises(ValidationError):
        make_bernstein(family, **params)
    with pytest.raises(ValidationError):
        bernstein_from_json({"family": family, **params})


@pytest.mark.parametrize("quad", [
    {"b": NAN}, {"psi0": float("inf")}, {"sigma2": -1.0}, {"bb": 1.0},
    {"mu": {"atoms": [[1.0, NAN]]}},
    {"mu": {"density_pos": {**TABLE, "tail_exponent_zero": 2.0}}},
    {"mu": {"density_neg": {**TABLE, "tail_exponent_zero": 0.5, "x": 1}}},
])
def test_quadruplet_json_rejects_bad_parameters(quad):
    with pytest.raises(ValidationError):
        exponent_from_json({"quadruplet": quad})


def test_levy_density_json_takes_a0_up_to_two():
    # a near-zero exponent in [1, 2) is a Levy density, not a Bernstein one
    quad = {"mu": {"density_pos": {**TABLE, "tail_exponent_zero": 1.5}}}
    exp = exponent_from_json({"quadruplet": quad})
    assert exp.quadruplet.mu.density_pos.tail_exponent_zero == 1.5


def test_family_ids_are_the_builders():
    assert FAMILY_IDS == ("drift", "affine", "stable", "gamma-ratio-plus",
                          "gamma-ratio-minus", "compound-poisson",
                          "tabulated-density")
    for family in FAMILY_IDS:
        with pytest.raises(ValidationError):
            make_bernstein(family, no_such_parameter=1.0)


@pytest.mark.parametrize("argv", [
    ["bgamma", "--phi",
     '{"family": "compound-poisson", "atoms": [[NaN, 1.0]], "d": 1.0}'],
    ["classify", "--pair",
     '{"plus": {"family": "compound-poisson", "atoms": [[NaN, 1.0]]}, '
     '"minus": {"family": "drift"}}'],
    ["simulate", "--quadruplet", '{"b": NaN}', "--x", "1.0", "--t", "0.5",
     "--paths", "100"],
    ["bgamma", "--phi", '{"family": "affine", "d": 1.0, "c": NaN}'],
    ["multiplier", "--pair",
     '{"plus": {"family": "stable", "beta": 1.5}, "minus": {"family": "drift"}}'],
    ["multiplier", "--pair", "5"],
    ["simulate", "--quadruplet", "[1.0]", "--x", "1.0", "--t", "0.5"],
])
def test_bad_factors_exit_2_and_write_nothing(argv, tmp_path, capsys):
    # unchecked, the atom at NaN is served as phi(z) = 1 + z, the NaN
    # drift of simulate gives a mean of NaN, the NaN phi(0) fails as a
    # numerical error (exit 4), and a bare number for an exponent raises
    # a TypeError
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ValidationError"
    assert not out.exists()


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
    # longer than one chunk of rows, and not a multiple of it
    (["x", "y"], [np.linspace(-3.0, 7.0, 2048), np.arange(2048.0) / 7.0]),
    (["k", "name", "v"], [np.arange(2500), [str(i % 7) for i in range(2500)],
                          np.geomspace(1e-300, 1e300, 2500)]),
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


SUBCOMMANDS = ("bgamma", "multiplier", "classify", "eigenfn", "evolve",
               "simulate", "generator-check")


def test_help_names_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in SUBCOMMANDS:
        assert f"\n    {name} " in out, name


#: each subcommand's required arguments, with placeholder values
REQUIRED = {
    "bgamma": ["--phi", "{}", "--out", "w.csv"],
    "multiplier": ["--pair", "{}", "--out", "m.csv"],
    "classify": ["--pair", "{}"],
    "eigenfn": ["--pair", "{}", "--method", "series", "--out", "J.csv"],
    "evolve": ["--pair", "{}", "--t", "1", "--f", "gauss:1", "--out", "u.csv"],
    "simulate": ["--quadruplet", "{}", "--x", "1", "--t", "1"],
    "generator-check": ["--quadruplet", "{}", "--out", "g.csv"],
}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_parser_matches_the_full_parser(name, capsys):
    # run parses a known subcommand with a parser of its own: its help and
    # its usage errors read as those of the full parser, which reports a
    # missing argument with the subparser's usage and an argument left
    # over on a complete command line with the top-level usage
    texts = []
    for argv in ([name, "--help"], [name, "--no-such-flag"],
                 [name, *REQUIRED[name], "--no-such-flag"]):
        for parse in (run, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == (0 if argv[1] == "--help" else 2)
            texts.append(capsys.readouterr())
    assert texts[0] == texts[1] and texts[2] == texts[3]
    assert texts[4] == texts[5]
    assert texts[0].out.startswith(f"usage: spectral-ssmp {name} ")
    assert f"spectral-ssmp {name}: error: " in texts[2].err
    assert ("spectral-ssmp: error: unrecognized arguments: --no-such-flag"
            in texts[4].err)


@pytest.mark.parametrize("argv", (
    ["no-such-command"], [],
    ["multiplier", "--pair", PAIR_ID],  # no --out
    ["eigenfn", "--pair", PAIR_ID, "--method", "taylor", "--out", "J.csv"],
    ["evolve", "--t", "1", "--f", "h:1:1", "--out", "x.csv"],  # no --pair
    ["evolve", "--pair", PAIR_ID, "--t", "1", "--f", "h:1:1", "--force",
     "--out", "x.csv"],  # evolve has no override
    ["multiplier", "--pair", PAIR_ID, "--out", "m.csv", "--no-such-flag"]))
def test_usage_errors_exit_2(argv, capsys):
    # the usage text stays, and the last line of stderr is the JSON error
    # object every other error writes
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: spectral-ssmp")
    report = json.loads(err[-1])
    assert report == {"error": "UsageError", "message": report["message"]}
    assert report["message"] and err[-2].endswith(report["message"])


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
    ref = evolve(EvolutionPlan(pair, spec), 0.5,
                 gaussian_fixture(spec, 0.0))
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert np.array_equal(data["re"], ref.values.real)
    assert np.array_equal(data["im"], ref.values.imag)


def test_evolve_residual_pair_on_2048_points_is_real(tmp_path):
    # evolve applies no H to data, so the Residual pair, whose |m| reaches
    # 4.2e26 on this grid, evolves a real input into a real output
    pair = json.dumps({
        "plus": {"family": "gamma-ratio-plus", "alpha_tilde": 0.3},
        "minus": {"family": "gamma-ratio-minus", "alpha": 0.7, "rho": 1.0}})
    out = tmp_path / "out.csv"
    code = run(["evolve", "--pair", pair, "--t", "0.5", "--f", "h:1:1",
                "--grid=-20:40:2048", "--out", str(out)])
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert code == 0
    assert np.max(np.abs(data["im"])) <= 1e-10 * np.max(np.abs(data["re"]))


def test_evolve_without_pair_is_validation_error(capsys, tmp_path):
    # evolution runs through the Wiener-Hopf diagonalization, so --pair is
    # required and evolve takes no --quadruplet: a usage error, exit 2
    out = tmp_path / "x.csv"
    for extra in ([], ["--quadruplet", '{"psi0": 0, "b": 0, "sigma2": 1.0}']):
        with pytest.raises(SystemExit) as exc:
            run(["evolve", *extra, "--t", "0.5", "--f", "h:1:1",
                 "--out", str(out)])
        assert exc.value.code == 2
        assert "--pair" in capsys.readouterr().err
    assert not out.exists()


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
    pair = exponent_from_json({"pair": json.loads(PAIR_GAMMA)}).pair
    assert np.array_equal(data["J"], wright_eigenfunction(pair, x))
    assert run(["eigenfn", "--pair", PAIR_ID, "--method", "wright",
                "--grid=-6:2:256", "--out", str(out)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("method, pair", (
    ("series", PAIR_GAMMA), ("wright", PAIR_ID), ("fft", PAIR_ID)))
def test_eigenfn_refuses_a_pair_the_route_does_not_serve(method, pair,
                                                         tmp_path, capsys):
    # each route refuses the pair itself, so the CLI reports the library's
    # DomainError: exit code 2, no output file, the error object on stderr
    out = tmp_path / "J.csv"
    assert run(["eigenfn", "--pair", pair, "--method", method,
                "--grid=-20:40:512", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert json.loads(err[-1])["error"] == "DomainError"


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


def test_simulate_builds_a_grid_only_for_a_fixture(monkeypatch, capsys):
    from spectral_ssmp import cli
    built = []

    def recording_grid(*args):
        built.append(args)
        return GridSpec(*args)

    monkeypatch.setattr(cli, "GridSpec", recording_grid)
    args = ["simulate", "--quadruplet", '{"b": 2.0}', "--x", "1.0", "--t",
            "0.5", "--paths", "64"]
    assert run(args) == 0
    assert built == []
    assert run(args + ["--f", "gauss:1"]) == 0
    capsys.readouterr()
    assert built == [()]


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
    assert json.loads(err.strip())["error"] == "DomainError"


@pytest.mark.parametrize("flag, value, error", [
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


DRIFT = json.dumps({"family": "drift", "d": 1.0})


@pytest.mark.parametrize("args", [
    ["classify", "--pair", PAIR_GAMMA, "--xi-max", "nan"],
    ["classify", "--pair", PAIR_GAMMA, "--xi-max", "0"],
    ["classify", "--pair", PAIR_GAMMA, "--xi-max", "inf"],
    ["bgamma", "--phi", DRIFT, "--tol-w", "nan"],
    ["bgamma", "--phi", DRIFT, "--tol-w", "inf"],
    ["bgamma", "--phi", DRIFT, "--a", "nan"],
    ["bgamma", "--phi", DRIFT, "--a", "inf"],
    ["bgamma", "--phi", DRIFT, "--xi-max", "nan"],
    ["bgamma", "--phi", DRIFT, "--xi-max", "inf"],
    ["multiplier", "--pair", PAIR_GAMMA, "--grid", "nan:40:512"],
    ["multiplier", "--pair", PAIR_GAMMA, "--grid", "0:inf:512"],
], ids=lambda args: f"{args[0]}{args[-2]}={args[-1]}")
def test_non_finite_tolerance_horizon_or_frequency_exits_2(tmp_path, capsys,
                                                           args):
    # the W evaluator's tol and horizon, the Theta frequency and the window
    # edges are checked where they are used, so each call exits 2 and
    # writes no file
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "DomainError"
    assert not out.exists()


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
            theta_minus=(0.1, 0.2), l2_mass_m=1.0, l2_mass_inv=1.0,
            bounded_above=False, bounded_below=False, table_rule_fired=None,
            evidence_grid=GridSpec(), branch="none")

    monkeypatch.setattr(cli_mod, "classify", fake_classify)
    code = run(["classify", "--pair", PAIR_ID])
    capsys.readouterr()
    assert code == 3


_SIM = ["simulate", "--quadruplet", '{"sigma2": 1.0}', "--x", "1.0",
        "--t", "0.5", "--paths", "100"]
# a table whose head series trips its |z| * y_min guard
_HEAVY_TABLE = json.dumps({"mu": {"density_pos": {
    "y": [0.1, 1, 10, 100], "density": [1, 1, 0.1, 0.01],
    "tail_exponent_zero": 0.5, "tail_exponent_inf": 0.5}}})


@pytest.mark.parametrize("argv, code, error", [
    pytest.param(_SIM + ["--dt", "nan"], 2, "DomainError",
                 id="simulate-dt-nan"),
    pytest.param(_SIM + ["--t-max", "inf"], 2, "DomainError",
                 id="simulate-t-max-inf"),
    pytest.param(["bgamma", "--phi", DRIFT, "--tol-w", "1e-30"], 4,
                 "ConvergenceError", id="bgamma-tol-w"),
    pytest.param(["generator-check", "--quadruplet", _HEAVY_TABLE], 4,
                 "ConvergenceError", id="generator-check-head-guard"),
])
def test_each_error_class_exits_with_its_code(argv, code, error, tmp_path,
                                              capsys):
    # a real library failure: the exit code of its class, the class name
    # last on stderr, and no output
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err.splitlines()[-1])["error"] == error


def test_errors_defines_one_class_per_remedy():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert defined == {"SpectralError", "DomainError", "ValidationError",
                       "ConvergenceError", "ResolutionError", "DomainWarning"}


def test_numerical_failure_exit_4(capsys):
    # an evaluator horizon violation surfaces as a convergence failure
    code = run(["bgamma", "--phi", '{"family": "drift", "d": 1.0}',
                "--a", "0.5", "--xi-max", "30", "--points", "11",
                "--tol-w", "1e-30", "--out", "/tmp/never.csv"])
    capsys.readouterr()
    assert code == 4
