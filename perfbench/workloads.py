"""The three workloads: inputs drawn from the seed, and for cold-calls the
operation list with the check of each call's output.

This module does not import spectral_ssmp.  The library receives only the
JSON and numbers generated here.
"""

from __future__ import annotations

import json
import math

import numpy as np

import references as ref

WORKLOADS = ("cold-calls", "warm-sweep", "mc-oracle")

DRIFT = {"family": "drift", "d": 1.0}
AFFINE_1 = {"family": "affine", "d": 1.0, "c": 1.0}
GAMMA_PLUS = {"family": "gamma-ratio-plus", "alpha_tilde": 0.7}
GAMMA_MINUS = {"family": "gamma-ratio-minus", "alpha": 0.3, "rho": 1.0}
PAIR_ID = {"plus": DRIFT, "minus": DRIFT}
PAIR_B = {"plus": DRIFT, "minus": AFFINE_1}          # (id, u + 1)
PAIR_G = {"plus": GAMMA_PLUS, "minus": GAMMA_MINUS}  # gamma pair (0.7, 0.3, 1)


def gamma_pair(at, a, rho):
    return {"plus": {"family": "gamma-ratio-plus", "alpha_tilde": at},
            "minus": {"family": "gamma-ratio-minus", "alpha": a, "rho": rho}}


# the classification golden set of the acceptance suite (ACC-06)
GOLDEN = (
    PAIR_ID,
    PAIR_G,
    gamma_pair(0.3, 0.7, 1.0),
    gamma_pair(0.5, 0.5, 0.75),
    {"plus": {"family": "compound-poisson", "atoms": [[1.0, 2.0]], "d": 1.0},
     "minus": {"family": "stable", "beta": 0.5}},
)


def stable_table(beta: float, y_min=1e-6, y_max=1e3, points_per_decade=20):
    """The tabulated stable(beta) density, laid out as the library's
    stable_density_table lays it out, built here from its formula."""
    n = int(points_per_decade * np.log10(y_max / y_min)) + 1
    y = np.exp(np.linspace(np.log(y_min), np.log(y_max), n))
    c = beta / math.gamma(1.0 - beta)
    return {"family": "tabulated-density", "y": list(y),
            "density": list(c * y ** (-1.0 - beta)),
            "tail_exponent_zero": beta, "tail_exponent_inf": beta}


def inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Everything a run needs, drawn from the seed; JSON-serializable."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cold-calls":
        return {"ops": cold_ops(rng, tiny)}
    if workload == "warm-sweep":
        return warm_params(rng, tiny)
    if workload == "mc-oracle":
        return mc_params(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# cold-calls: one fresh process per operation
# ---------------------------------------------------------------------------

EIGEN_WINDOW = (-20.0, 40.0, 32768)   # the library's EIGEN_GRID
GRID_4096 = (-20.0, 40.0, 4096)


def _grid(g):
    return f"--grid={g[0]:g}:{g[1]:g}:{g[2]}"


def _cli(name, argv, check, parse, out="csv"):
    """A CLI operation; `parse` lists the JSON inputs built in set-up."""
    return {"name": name, "kind": "cli", "argv": argv, "check": check,
            "parse": parse, "out": out}


def cold_ops(rng, tiny=False):
    ops = []
    phis = [("drift", DRIFT, 1e-8), ("gamma-plus", GAMMA_PLUS, 1e-7),
            ("gamma-minus", GAMMA_MINUS, 1e-7)]
    if not tiny:
        # closed form Gamma(z)^(1/2); the tolerance is set by the table's
        # resolution of 20 points per decade (up to 3.0e-6 measured, on
        # some lines Re z = a; 2e-11 on others)
        phis.append(("stable-table", stable_table(0.5), 1e-5))
    for label, phi, tol in phis:
        a = _u(rng, 0.5, 2.0)
        closed = ({"family": "stable-table", "beta": 0.5}
                  if phi["family"] == "tabulated-density" else phi)
        ops.append(_cli(f"bgamma-{label}",
                        ["bgamma", "--phi", json.dumps(phi), "--a", repr(a),
                         "--xi-max", "30", "--points", "241"],
                        {"type": "bgamma", "family": closed, "a": a,
                         "tol": tol, "w_err": closed is phi},
                        [("phi", phi)]))
    pairs = [("id-id", PAIR_ID), ("id-u1", PAIR_B)]
    if not tiny:
        pairs.append(("gamma", PAIR_G))
    for label, pair in pairs:
        for kind in ("H", "Lambda"):
            ops.append(_cli(f"multiplier-{kind}-{label}",
                            ["multiplier", "--pair", json.dumps(pair),
                             "--kind", kind, _grid(GRID_4096)],
                            {"type": "multiplier", "pair": pair, "kind": kind,
                             "tol": 1e-7, "w_err": True},
                            [("pair", pair)]))
    for i, pair in enumerate(GOLDEN[:1] if tiny else GOLDEN):
        ops.append(_cli(f"classify-golden-{i}",
                        ["classify", "--pair", json.dumps(pair)],
                        {"type": "verdict", "want": ref.expected_verdict(pair)},
                        [("pair", pair)], out="json"))
    if not tiny:
        ops.append(_cli("eigenfn-fft-id-u1",
                        ["eigenfn", "--pair", json.dumps(PAIR_B), "--method",
                         "fft", _grid(EIGEN_WINDOW)],
                        {"type": "bessel", "tol": 1e-3}, [("pair", PAIR_B)]))
    ops.append(_cli("eigenfn-series-id-u1",
                    ["eigenfn", "--pair", json.dumps(PAIR_B), "--method",
                     "series", "--grid=-10:5:256"],
                    {"type": "bessel", "tol": 1e-3}, [("pair", PAIR_B)]))
    ops.append(_cli("eigenfn-wright-gamma",
                    ["eigenfn", "--pair", json.dumps(PAIR_G), "--method",
                     "wright", "--grid=-10:0.5:256"],
                    {"type": "wright", "alpha_tilde": 0.7, "alpha": 0.3,
                     "rho": 1.0, "tol": 1e-3}, [("pair", PAIR_G)]))
    t, eps, beta = _u(rng, 0.2, 1.0), _u(rng, 0.5, 1.5), _u(rng, 0.5, 2.0)
    ops.append(_cli("evolve-gamma-512",
                    ["evolve", "--pair", json.dumps(PAIR_G), "--t", repr(t),
                     "--f", f"h:{eps!r}:{beta!r}", "--grid=-20:40:512"],
                    {"type": "contraction", "eps": eps, "beta": beta,
                     "tol": 1e-8}, [("pair", PAIR_G)]))
    b, x, t = _u(rng, 0.5, 3.0), _u(rng, 0.5, 2.0), _u(rng, 0.25, 1.0)
    quad = {"b": b}
    ops.append(_cli("simulate-drift",
                    ["simulate", "--quadruplet", json.dumps(quad), "--x",
                     repr(x), "--t", repr(t), "--paths", "64", "--seed",
                     str(int(rng.integers(1, 2 ** 31)))],
                    {"type": "drift-exact", "want": x + b * t, "tol": 1e-12},
                    [("quadruplet", quad)], out="json"))
    bm = {"sigma2": 1.0}
    ops.append(_cli("generator-check-bm",
                    ["generator-check", "--quadruplet", json.dumps(bm),
                     "--grid=-10:30:2048"],
                    {"type": "generator", "tol": 1e-4},
                    [("quadruplet", bm)]))
    if not tiny:
        ops.append({"name": "eigenfunction-fft-defaults-id-u1", "kind": "py",
                    "fn": "eigenfunction_fft_defaults", "parse": [("pair", PAIR_B)],
                    "check": {"type": "bessel", "tol": 1e-3}, "out": "npy"})
    ops.append({"name": "w-horizon", "kind": "py", "fn": "w_horizon",
                "parse": [("phi", GAMMA_PLUS)], "check": {"type": "contract"},
                "out": "npy",
                "fault": "the construction-time check samples |Im z| <= 30 "
                         "only (_VALIDATION_XI), while the evaluator serves "
                         "|z| up to zmax ~ 1718"})
    return ops


def _read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def check_cold(op, path):
    """(value, limit, ok) for one cold call's output file."""
    c = op["check"]
    kind = c["type"]
    if kind == "bgamma":
        d = _read_csv(path)
        z = c["a"] + 1j * d["xi"]
        err = float(np.max(np.abs((d["re"] + 1j * d["im"])
                                  * np.exp(-ref.log_w(c["family"], z)) - 1.0)))
        return err, c["tol"], err <= c["tol"]
    if kind == "multiplier":
        d = _read_csv(path)
        vals = d["re"] + 1j * d["im"]
        logm = ref.log_multiplier(c["pair"], d["xi"], c["kind"])
        err, _ = ref.line_error(vals, logm)
        return err, c["tol"], err <= c["tol"]
    if kind == "verdict":
        with open(path, encoding="utf-8") as fh:
            got = json.load(fh)["verdict"]
        return got, c["want"], got == c["want"]
    if kind == "bessel":
        if path.endswith(".npy"):
            x, j = np.load(path)
        else:
            d = _read_csv(path)
            x, j = d["x"], d["J"]
        sel = (x >= -10.0) & (x <= 5.0)
        err = float(np.max(np.abs(j[sel] - ref.bessel_eigenfunction(x[sel]))))
        return err, c["tol"], err <= c["tol"]
    if kind == "wright":
        d = _read_csv(path)
        want = ref.gamma_pair_eigenfunction(c["alpha_tilde"], c["alpha"],
                                            c["rho"], d["x"])
        err = ref.scale_fit_error(d["J"], want)
        return err, c["tol"], err <= c["tol"]
    if kind == "contraction":
        d = _read_csv(path)
        x = d["x"]
        with np.errstate(over="ignore"):
            f = np.nan_to_num(np.exp(-(0.5 + c["eps"]) * x
                                     - c["beta"] * np.exp(-x)))
        ratio = ref.norm_e(x, d["re"] + 1j * d["im"]) / ref.norm_e(x, f)
        ok = bool(np.all(np.isfinite(d["re"]))) and ratio <= 1.0 + c["tol"]
        return ratio, 1.0 + c["tol"], ok
    if kind == "drift-exact":
        with open(path, encoding="utf-8") as fh:
            est = json.load(fh)
        err = abs(est["mean"] - c["want"]) / c["want"] + est["stderr"]
        return err, c["tol"], err <= c["tol"]
    if kind == "generator":
        d = np.genfromtxt(path, delimiter=",", names=True, dtype=None,
                          encoding="utf-8")
        err = float(np.max(d["sup_error"]))
        return err, c["tol"], err <= c["tol"]
    if kind == "contract":
        # residual |1 - phi(z) W(z) / W(z+1)| against phi's closed form
        z, lw, lw1, tol = np.load(path)
        res = float(np.max(np.abs(1.0 - np.exp(
            ref.log_phi_gamma_plus(GAMMA_PLUS["alpha_tilde"], z) + lw - lw1))))
        return res, float(tol[0].real), res <= float(tol[0].real)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# warm-sweep and mc-oracle: one process per round
# ---------------------------------------------------------------------------


def warm_params(rng, tiny=False):
    n_times = 2 if tiny else 16
    times = sorted(_u(rng, 0.05, 2.0) for _ in range(n_times))
    return {
        "times": times,
        "h": [_u(rng, 0.5, 1.5), _u(rng, 0.5, 2.0)],
        "gauss": _u(rng, -1.0, 2.0),
        "bessel_c": _u(rng, 0.5, 2.0),
        "gen_center": _u(rng, -1.0, 1.0),
        "tiny": tiny,
    }


# Every case fixes its quadruplet and its clock target t / x = 0.5, so each
# seed asks for the same work; the seed draws the starting point x (the
# scale of the observable, by self-similarity) and the Monte Carlo seed.
# A case's cost is set by its slowest path, whose step count moves with
# the seed; killing at rate a c = 2 and the atoms' upward drift of 1.1 keep
# those tails short (the seed moves the summed step count of the killed and
# atoms cases by about 6%, against 18% at rate 0.5 and drift 0.35).  The
# Brownian case always runs to t_max through its unresolved paths.
A_KILL, C_KILL = 1.0, 2.0
ATOMS = [[1.5, 1.0], [-0.4, 1.0]]
CLOCK_TARGET = 0.5
MC_CASES = (("bm", 1, 10_000), ("killed", 3, 6_000), ("atoms", 5, 5_000),
            ("drift", 3, 64))


def mc_params(rng, tiny=False):
    grid = GRID_4096
    dx = (grid[1] - grid[0]) / grid[2]
    quads = {
        "bm": {"sigma2": 1.0},
        "killed": {"psi0": A_KILL * C_KILL, "b": C_KILL - A_KILL,
                   "sigma2": 1.0},
        "atoms": {"mu": {"atoms": ATOMS}},
        "drift": {"b": _u(rng, 0.5, 3.0)},
    }
    cases = []
    for kind, count, paths in MC_CASES:
        for i in range(count):
            case = {"name": f"{kind}-{i}", "kind": kind, "quad": quads[kind],
                    "seed": int(rng.integers(1, 2 ** 31)),
                    "paths": 500 if tiny and kind != "drift" else paths,
                    # the smoke test only needs every path through the
                    # code, not the horizon unresolved Brownian paths run to
                    "t_max": 4.0 if tiny else 64.0}
            if kind == "killed":
                # start on a grid point of the reference evolution
                j = int(rng.integers(round((-0.7 - grid[0]) / dx),
                                     round((0.7 - grid[0]) / dx)))
                case["grid_index"] = j
                case["x"] = math.exp(grid[0] + dx * j)
                case["pair"] = {
                    "plus": {"family": "affine", "d": 1.0, "c": A_KILL},
                    "minus": {"family": "affine", "d": 1.0, "c": C_KILL}}
            else:
                case["x"] = _u(rng, 0.5, 2.0)
            case["t"] = CLOCK_TARGET * case["x"]
            cases.append(case)
    return {"cases": cases, "grid": list(grid)}
