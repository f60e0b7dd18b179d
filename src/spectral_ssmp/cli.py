"""Command-line front end.

Subcommands: bgamma, multiplier, classify, eigenfn, evolve, simulate,
generator-check.  Exponents and Bernstein families are passed as inline
JSON (see spectral_ssmp.families for the schema); outputs are CSV with a
header row, 17 significant digits and LF line endings, or flat JSON for
classification reports and simulation estimates.

Exit codes: 0 success (any definite classification verdict), 2 validation
error (DomainError, ValidationError), 3 Inconclusive classification, 4
numerical failure (ConvergenceError, ResolutionError).
All errors are also emitted as one JSON object on stderr; for a usage
error it is the last line, after argparse's usage text.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import errors
from .bernstein import default_evaluator
from .eigenfunctions import (
    eigenfunction_fft,
    eigenfunction_series,
    wright_eigenfunction,
)
from .exponents import Exponent
from .families import bernstein_from_json, exponent_from_json
from .lamperti import SimConfig, mc_expectation
from .semigroup import EvolutionPlan, evolve, generator_ido, generator_pdo
from .spectrum import classify
from .transform import (
    GridFunction,
    GridSpec,
    gaussian_fixture,
    h_fixture,
    multiplier_h,
    multiplier_lambda,
)

_VALIDATION_ERRORS = (errors.ValidationError, errors.DomainError,
                      json.JSONDecodeError, KeyError, ValueError)
_NUMERICAL_ERRORS = (errors.ConvergenceError, errors.ResolutionError)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

_CSV_CHUNK = 1024  # rows per % operation of emit_csv


def emit_csv(table, path):
    """Write (header, columns) as UTF-8 CSV, 17 significant digits, LF.

    A column of strings is written as is, any other column as %.17g of
    each value; _CSV_CHUNK rows at a time are formatted by one % operation,
    the row format repeated over the columns' values interleaved."""
    header, columns = table
    if len(columns) != len(header):
        raise errors.ValidationError("header/column mismatch")
    cols = [np.asarray(col) for col in columns]
    if len({col.size for col in cols}) > 1:
        raise errors.ValidationError("CSV columns differ in length")
    row = ",".join("%s" if col.dtype.kind == "U" else "%.17g"
                   for col in cols) + "\n"
    values = [col.tolist() for col in cols]
    rows = len(values[0]) if values else 0
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for lo in range(0, rows, _CSV_CHUNK):
                chunk = [v[lo:lo + _CSV_CHUNK] for v in values]
                cells = [None] * (len(chunk[0]) * len(chunk))
                for j, v in enumerate(chunk):
                    cells[j::len(chunk)] = v
                fh.write(row * len(chunk[0]) % tuple(cells))
    except OSError as exc:
        raise errors.ValidationError(f"cannot write {path!r}: {exc}")


def _emit_json(obj, path):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise errors.ValidationError(f"cannot write {path!r}: {exc}")


def _grid_from_arg(arg):
    if arg is None:
        return GridSpec()
    parts = arg.split(":")
    if len(parts) != 3:
        raise errors.ValidationError("--grid expects xmin:xmax:n")
    return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))


def _fixture_from_arg(arg, spec):
    kind, _, rest = arg.partition(":")
    if kind == "h":
        eps_s, _, beta_s = rest.partition(":")
        return h_fixture(spec, float(eps_s), float(beta_s))
    if kind == "gauss":
        return gaussian_fixture(spec, float(rest))
    if kind == "csv":
        data = np.genfromtxt(rest, delimiter=",", names=True)
        x = np.asarray(data["x"], dtype=float)
        if x.shape != (spec.n,) or not np.allclose(x, spec.x, atol=0, rtol=0):
            raise errors.ValidationError(
                "csv grid does not match --grid exactly")
        return GridFunction(spec, data["re"] + 1j * data["im"])
    raise errors.ValidationError(
        f"unknown fixture {arg!r}; use h:eps:beta, gauss:a or csv:path")


_REQUIRED = {"pair": "a Wiener-Hopf pair", "quadruplet": "a quadruplet"}


def _exponent_from_args(text, key):
    """The Exponent of a --pair or --quadruplet JSON argument, given bare or
    wrapped in its key; ValidationError when it lacks that part."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or key not in obj:
        obj = {key: obj}
    exp = exponent_from_json(obj)
    if getattr(exp, key) is None:
        raise errors.ValidationError(f"{_REQUIRED[key]} is required here")
    return exp


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_bgamma(args):
    phi = bernstein_from_json(json.loads(args.phi))
    a = args.a
    ev = default_evaluator(phi, args.tol_w,
                           float(np.hypot(a, args.xi_max)) + 3.0)
    xi = np.linspace(-args.xi_max, args.xi_max, args.points)
    vals = ev.w(a + 1j * xi)
    emit_csv((["xi", "re", "im", "abs"],
              [xi, vals.real, vals.imag, np.abs(vals)]), args.out)
    return 0


def _cmd_multiplier(args):
    pair = _exponent_from_args(args.pair, "pair").pair
    spec = _grid_from_arg(args.grid)
    line = (multiplier_h if args.kind == "H" else multiplier_lambda)(
        pair, spec)
    emit_csv((["xi", "re", "im", "abs"],
              [spec.xi, line.values.real, line.values.imag,
               np.abs(line.values)]), args.out)
    return 0


def _cmd_classify(args):
    pair = _exponent_from_args(args.pair, "pair").pair
    spec = _grid_from_arg(args.grid)
    report = classify(pair, spec, xi_max=args.xi_max)
    payload = report.to_dict()
    if args.out:
        _emit_json(payload, args.out)
    print(json.dumps(payload, indent=2, sort_keys=True))
    print()
    rows = [("verdict", report.verdict), ("branch", report.branch),
            ("theta_plus", f"[{report.theta_plus[0]:.6f}, {report.theta_plus[1]:.6f}]"),
            ("theta_minus", f"[{report.theta_minus[0]:.6f}, {report.theta_minus[1]:.6f}]"),
            ("bounded above / below", f"{report.bounded_above} / {report.bounded_below}"),
            ("table rule", report.table_rule_fired or "-")]
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}")
    return 3 if report.verdict == "Inconclusive" else 0


def _cmd_eigenfn(args):
    pair = _exponent_from_args(args.pair, "pair").pair
    spec = _grid_from_arg(args.grid)
    if args.method == "fft":
        vals = eigenfunction_fft(pair, spec).values.real
    elif args.method == "series":
        vals = eigenfunction_series(pair, spec.x, tol=1e-8)
    else:
        vals = wright_eigenfunction(pair, spec.x, args.variant)
    emit_csv((["x", "J"], [spec.x, vals]), args.out)
    return 0


def _cmd_evolve(args):
    pair = _exponent_from_args(args.pair, "pair").pair
    spec = _grid_from_arg(args.grid)
    f = _fixture_from_arg(args.f, spec)
    plan = EvolutionPlan(pair, spec)
    out = evolve(plan, args.t, f)
    emit_csv((["x", "re", "im"],
              [spec.x, out.values.real, out.values.imag]), args.out)
    return 0


def _cmd_simulate(args):
    exp = _exponent_from_args(args.quadruplet, "quadruplet")
    cfg = SimConfig(dt=args.dt, jump_eps=args.jump_eps, n_paths=args.paths,
                    seed=args.seed, t_max=args.t_max)
    if args.f == "identity":
        fn = lambda r: r
    else:
        spec = GridSpec()
        nodes, values = spec.x, _fixture_from_arg(args.f, spec).values.real
        fn = lambda r: np.interp(np.log(r), nodes, values, left=0.0,
                                 right=0.0)
    est = mc_expectation(exp, fn, args.x, args.t, cfg)
    payload = {"mean": est.mean, "stderr": est.stderr,
               "n": est.n_effective, "absorbed_fraction": est.absorbed_fraction,
               "unresolved_fraction": est.unresolved_fraction}
    if args.out:
        _emit_json(payload, args.out)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_generator_check(args):
    exp = _exponent_from_args(args.quadruplet, "quadruplet")
    spec = _grid_from_arg(args.grid)
    fixtures = [("gauss_0", lambda x: np.exp(-x ** 2)),
                ("gauss_2", lambda x: np.exp(-(x - 2.0) ** 2)),
                ("h_1_1", lambda x: np.exp(-1.5 * x - np.exp(-x)))]
    names, sups = [], []
    for name, fn in fixtures:
        f = GridFunction(spec, fn(spec.x))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", errors.DomainWarning)
            a_pdo = generator_pdo(exp, f)
            a_ido = generator_ido(exp.quadruplet, fn, spec)
        interior = slice(2, -2)
        names.append(name)
        sups.append(float(np.max(np.abs(a_pdo.values[interior]
                                        - a_ido.values[interior]))))
    emit_csv((["fixture", "sup_error"], [names, sups]), args.out)
    for n, s in zip(names, sups):
        print(f"{n}: {s:.3e}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_PROG = "spectral-ssmp"


def _add_common(sp, grid=True):
    if grid:
        sp.add_argument("--grid", default=None,
                        help="xmin:xmax:n (default -20:40:4096)")
    sp.add_argument("--out", required=True, help="output path")


def _args_bgamma(sp):
    sp.add_argument("--phi", required=True, help="Bernstein family JSON")
    sp.add_argument("--a", type=float, default=0.5, help="Re of the line")
    sp.add_argument("--xi-max", type=float, default=30.0)
    sp.add_argument("--points", type=int, default=241)
    sp.add_argument("--tol-w", type=float, default=1e-8,
                    help="Bernstein-gamma tolerance (default 1e-8)")
    _add_common(sp, grid=False)


def _args_multiplier(sp):
    sp.add_argument("--pair", required=True, help="Wiener-Hopf pair JSON")
    sp.add_argument("--kind", choices=("H", "Lambda"), default="H")
    _add_common(sp)


def _args_classify(sp):
    sp.add_argument("--pair", required=True)
    sp.add_argument("--xi-max", type=float, default=200.0)
    sp.add_argument("--grid", default=None)
    sp.add_argument("--out", default=None, help="optional JSON report path")


def _args_eigenfn(sp):
    sp.add_argument("--pair", required=True)
    sp.add_argument("--method", choices=("series", "wright", "fft"),
                    required=True)
    sp.add_argument("--variant", choices=("statement", "proof"),
                    default="statement")
    _add_common(sp)


def _args_evolve(sp):
    sp.add_argument("--pair", required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--f", required=True,
                    help="h:eps:beta | gauss:a | csv:path")
    _add_common(sp)


def _args_simulate(sp):
    sp.add_argument("--quadruplet", required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--f", default="identity",
                    help="identity | h:eps:beta | gauss:a (log-composed)")
    sp.add_argument("--paths", type=int, default=10000)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--jump-eps", type=float, default=1e-3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--t-max", type=float, default=64.0)
    sp.add_argument("--out", default=None)


def _args_generator_check(sp):
    sp.add_argument("--quadruplet", required=True)
    _add_common(sp)


#: each subcommand's help line, arguments and handler, in --help order
_COMMANDS = {
    "bgamma": ("Bernstein-gamma W on a vertical line", _args_bgamma,
               _cmd_bgamma),
    "multiplier": ("diagonalizing multiplier on a grid", _args_multiplier,
                   _cmd_multiplier),
    "classify": ("spectrum classification report", _args_classify,
                 _cmd_classify),
    "eigenfn": ("eigenfunction by series/wright/fft", _args_eigenfn,
                _cmd_eigenfn),
    "evolve": ("semigroup evolution of a fixture", _args_evolve,
               _cmd_evolve),
    "simulate": ("Monte Carlo oracle estimate", _args_simulate,
                 _cmd_simulate),
    "generator-check": ("PDO vs IDO generator residual table",
                        _args_generator_check, _cmd_generator_check),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors (exit code 2) also end with the
    JSON error object; its subparsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        _report("UsageError", message)
        self.exit(2)


def build_parser():
    """The parser of the whole command line, every subcommand included."""
    p = _Parser(
        prog=_PROG,
        description="Spectral computations for self-similar Markov "
                    "semigroups: Bernstein-gamma functions, Wiener-Hopf "
                    "multipliers, spectrum classification, eigenfunctions, "
                    "semigroup evolution and a Monte Carlo oracle.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, add_args, fn) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        add_args(sp)
        sp.set_defaults(fn=fn)
    return p


def run(argv=None) -> int:
    """Parse, dispatch and map failures to documented exit codes.

    A known subcommand is parsed by a parser of its own, with the prog,
    usage and messages its subparser in build_parser has: one
    ArgumentParser where build_parser sets up eight, which cost a cold
    call about 2 ms.  Anything else (--help, an unknown subcommand, no
    arguments) goes to build_parser, and so does a command line with
    arguments left over, whose error the full parser reports with its
    own usage.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    extra = True
    if argv and argv[0] in _COMMANDS:
        _, add_args, fn = _COMMANDS[argv[0]]
        parser = _Parser(prog=f"{_PROG} {argv[0]}")
        add_args(parser)
        args, extra = parser.parse_known_args(argv[1:])
    if extra:
        args = build_parser().parse_args(argv)
        fn = args.fn
    try:
        return fn(args)
    except _NUMERICAL_ERRORS as exc:
        _report(type(exc).__name__, str(exc))
        return 4
    except _VALIDATION_ERRORS as exc:
        _report(type(exc).__name__, str(exc))
        return 2


def _report(error, message):
    sys.stderr.write(json.dumps({"error": error, "message": message}) + "\n")


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
