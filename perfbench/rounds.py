"""Workload bodies that run inside a worker process and call the library.

A round of warm-sweep or mc-oracle is one process: `setup` parses the
inputs and builds the fixtures, then the round function times each
operation through the Recorder and checks its output outside the timed
region.  The two Python operations of cold-calls are here too.
"""

from __future__ import annotations

import time

import numpy as np
from spectral_ssmp import (
    EvolutionPlan,
    GridFunction,
    GridSpec,
    SimConfig,
    TensorPlan,
    classify,
    eigenfunction_fft,
    evolve,
    evolve_tensor,
    gaussian_fixture,
    generator_ido,
    generator_pdo,
    h_fixture,
    mc_expectation,
    multiplier_h,
    shifted_fft,
)
from spectral_ssmp.bernstein import BernsteinGammaEvaluator
from spectral_ssmp.families import exponent_from_json

import calib
import workloads as wl


class Recorder:
    """Times operations and collects checks; tracing only inside ops.
    Untraced, each operation is followed by one run of the speed gauge."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []
        self.checks = []
        self.kernel_s = []

    def op(self, name, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.enabled = True
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ops.append({"name": name, "s": time.perf_counter() - t,
                             "ok": True})
            if self.tracer is not None:
                self.tracer.enabled = False
            else:
                self.kernel_s.append(calib.gauge())

    def check(self, name, value, limit, ok, w_err=False):
        self.checks.append({"name": name, "value": value, "limit": limit,
                            "ok": bool(ok), "w_err": w_err})


def _pair(obj):
    return exponent_from_json({"pair": obj}).pair


def _conj(obj):
    return {"plus": obj["minus"], "minus": obj["plus"]}


# ---------------------------------------------------------------------------
# cold-calls: the two operations that are not CLI subcommands
# ---------------------------------------------------------------------------


def eigenfunction_fft_defaults(exponent):
    """eigenfunction_fft with its library defaults, as ACC-07 calls it."""
    J = eigenfunction_fft(exponent.pair)
    return np.array([J.spec.x, J.values.real])


def w_horizon(phi, n=32768, tol=1e-10):
    """Build the evaluator the way multiplier_h builds it for an n-point
    grid on [-20, 40] and sample the functional equation near Im z = zmax."""
    spec = GridSpec(-20.0, 40.0, n)
    zmax = float(np.hypot(0.5, spec.nyquist)) + 2.0
    ev = BernsteinGammaEvaluator(phi, tol=tol, zmax=zmax)
    z = 0.5 + 1j * np.linspace(zmax - 40.0, zmax - 2.0, 8)
    return np.array([z, ev.log_w(z), ev.log_w(z + 1.0), np.full(z.shape, tol)])


# ---------------------------------------------------------------------------
# warm-sweep
# ---------------------------------------------------------------------------

S512 = GridSpec(-20.0, 40.0, 512)
S4096 = GridSpec(-20.0, 40.0, 4096)
S8192 = GridSpec(-20.0, 40.0, 8192)
GEN = GridSpec(-10.0, 30.0, 4096)


def _density_quadruplet():
    """A one-sided tabulated density y^{-1.5} e^{-y}, declared with tail
    exponent 1.5 at infinity (above 1, as generator_ido requires).  It is
    tempered: a power tail reaching past the window is wrapped around by
    the periodic transform of generator_pdo (see README)."""
    y = np.exp(np.linspace(np.log(1e-4), np.log(1e2), 121))
    dens = y ** -1.5 * np.exp(-y)
    return {"mu": {"density_pos": {
        "y": list(y), "density": list(dens),
        "tail_exponent_zero": 0.5, "tail_exponent_inf": 1.5}}}


GEN_QUADS = (("bm", {"sigma2": 1.0}), ("drift", {"b": 1.5}),
             ("atoms", {"mu": {"atoms": [[1.0, 0.5]]}}),
             ("density", _density_quadruplet()))


def _fixtures(spec, p):
    eps, beta = p["h"]
    c = p["bessel_c"]
    return {"h": h_fixture(spec, eps, beta),
            "gauss": gaussian_fixture(spec, p["gauss"]),
            "bessel": GridFunction(spec, np.exp(2.0 * spec.x
                                                - c * np.exp(spec.x)))}


def setup(workload, p):
    if workload == "warm-sweep":
        quads = GEN_QUADS[:1] if p["tiny"] else GEN_QUADS
        return {
            "pairs": {k: _pair(v) for k, v in (
                ("id", wl.PAIR_ID), ("b", wl.PAIR_B), ("g", wl.PAIR_G),
                ("gc", _conj(wl.PAIR_G)))},
            "quads": [(k, exponent_from_json({"quadruplet": q}))
                      for k, q in quads],
            "fixtures": {S512: _fixtures(S512, p), S4096: _fixtures(S4096, p)},
            "gen_f": gaussian_fixture(GEN, p["gen_center"]),
        }
    if workload == "mc-oracle":
        return {"cases": [
            (exponent_from_json({"quadruplet": c["quad"]}),
             _pair(c["pair"]) if "pair" in c else None)
            for c in p["cases"]]}
    raise ValueError(workload)


def _sweep(plan, f, ts):
    return [evolve(plan, t, f) for t in ts]


def _semigroup_law(plan, s, u, f):
    """(P_s P_u f, P_{s+u} f)."""
    return evolve(plan, s, evolve(plan, u, f)), evolve(plan, s + u, f)


def warm_round(p, st, rec):
    import references as ref

    pairs, fx = st["pairs"], st["fixtures"]
    layout = [("id-512", "id", S512), ("g-512", "g", S512),
              ("gc-512", "gc", S512), ("id-4096", "id", S4096),
              ("b-4096", "b", S4096)]
    if p["tiny"]:
        layout = [entry for entry in layout if entry[0] != "id-4096"]
    plans = {key: rec.op(f"plan-{key}", EvolutionPlan, pairs[pk], spec)
             for key, pk, spec in layout}

    # one operation evolves one fixture over the plan's time grid, as a
    # notebook cell would; sub-millisecond single calls read mostly the
    # machine's flicker
    times = p["times"]
    out = {}
    for key, _, spec in layout:
        ts = times if spec.n == 512 else times[::4]
        for fname, f in fx[spec].items():
            outs = rec.op(f"evolve-sweep-{key}", _sweep, plans[key], f, ts)
            out.update(((key, fname, t), g) for t, g in zip(ts, outs))

    # squared-Bessel closed form for (id, id); contraction for the pairs the
    # acceptance suite holds to it (the conjugate gamma pair exceeds 1 by
    # 1.3% for some h fixtures on n = 512, see README)
    c = p["bessel_c"]
    for (key, fname, t), g in out.items():
        spec = g.spec
        x = spec.x
        f = fx[spec][fname].values
        if not key.startswith("gc"):
            ratio = ref.norm_e(x, g.values) / ref.norm_e(x, f)
            rec.check(f"contraction-{key}-{fname}", ratio, 1.0 + 1e-8,
                      ratio <= 1.0 + 1e-8)
        if key.startswith("id") and fname == "bessel":
            sel = (x >= -5.0) & (x <= 3.0)
            want = ref.squared_bessel_moment(np.exp(x[sel]), t, c)
            err = float(np.max(np.abs(g.values[sel] - want)))
            rec.check(f"bessel-closed-form-{key}", err, 1e-6, err <= 1e-6)

    # semigroup law P_s P_u = P_{s+u}, on (id, u+1) as in the acceptance
    # suite (the conjugate gamma pair on n = 512 misses 1e-8, see README)
    key = "b-4096"
    spec = plans[key].spec
    s, u = times[0], times[1]
    h = fx[spec]["h"]
    twice, once = rec.op("semigroup-law", _semigroup_law, plans[key], s, u, h)
    err = ref.norm_e(spec.x, twice.values - once.values) / ref.norm_e(spec.x, h.values)
    rec.check("semigroup-law", err, 1e-8, err <= 1e-8)

    # self-adjointness of (id, id), duality of the gamma pair and its conjugate
    for key, other, tol in (("id-4096", "id-4096", 1e-8),
                            ("g-512", "gc-512", 1e-6)):
        if key not in plans:
            continue
        spec = plans[key].spec
        ts = times if spec.n == 512 else times[::4]
        worst = 0.0
        for t in ts:
            lhs = ref.inner_e(spec.x, out[key, "h", t].values,
                              fx[spec]["gauss"].values)
            rhs = ref.inner_e(spec.x, fx[spec]["h"].values,
                              out[other, "gauss", t].values)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
        rec.check(f"adjoint-{key}-{other}", worst, tol, worst <= tol)

    # tensor evolution of h (x) gauss on 512^2 separates into 1-d evolutions;
    # (id, id) on both axes, since a gamma-pair axis loses all accuracy
    # (see README)
    tplan = rec.op("tensor-plan", TensorPlan, (plans["id-512"],) * 2)
    vals = np.multiply.outer(fx[S512]["h"].values, fx[S512]["gauss"].values)
    for t in (times[0], times[-1]):
        got = rec.op("evolve-tensor-512x512", evolve_tensor, tplan, t, vals)
        want = np.multiply.outer(out["id-512", "h", t].values,
                                 out["id-512", "gauss", t].values)
        err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        rec.check("tensor-separability", err, 1e-8, err <= 1e-8)

    # shifted transform of the h fixture: closed form and Parseval
    eps, beta = p["h"]
    hf = fx[S512 if p["tiny"] else S4096]["h"]
    sp = hf.spec
    line = rec.op("shifted-fft", shifted_fft, hf)
    sel = np.abs(sp.xi) <= sp.nyquist / 4.0
    want = ref.h_transform(sp.xi[sel], eps, beta)
    err = float(np.linalg.norm(line.values[sel] - want) / np.linalg.norm(want))
    rec.check("shifted-fft-closed-form", err, 1e-6, err <= 1e-6)
    parseval = abs(np.sqrt(sp.dxi * np.sum(np.abs(line.values) ** 2))
                   - ref.norm_e(sp.x, hf.values)) / ref.norm_e(sp.x, hf.values)
    rec.check("parseval", parseval, 1e-10, parseval <= 1e-10)

    # pseudo-differential against integro-differential generator
    center = p["gen_center"]
    fn = lambda v: np.exp(-(v - center) ** 2)  # noqa: E731
    for name, e in st["quads"]:
        a_pdo = rec.op(f"generator-pdo-{name}", generator_pdo, e, st["gen_f"])
        a_ido = rec.op(f"generator-ido-{name}", generator_ido, e.quadruplet,
                       fn, GEN)
        err = float(np.max(np.abs(a_pdo.values[2:-2] - a_ido.values[2:-2])))
        rec.check(f"generator-{name}", err, 1e-4, err <= 1e-4)

    # the multiplier and classification of the sweep's closed-form pair
    # (id, u+1) on n = 4096, then on 8192 over the same window
    if not p["tiny"]:
        want_verdict = ref.expected_verdict(wl.PAIR_B)
        for spec in (S4096, S8192):
            m = rec.op(f"multiplier-id-u1-{spec.n}", multiplier_h,
                       pairs["b"], spec)
            err, _ = ref.line_error(m.values,
                                    ref.log_multiplier(wl.PAIR_B, spec.xi))
            rec.check(f"multiplier-closed-form-{spec.n}", err, 1e-7,
                      err <= 1e-7, w_err=True)
            report = rec.op(f"classify-id-u1-{spec.n}", classify, pairs["b"],
                            spec)
            rec.check(f"verdict-id-u1-{spec.n}", report.verdict, want_verdict,
                      report.verdict == want_verdict)


# ---------------------------------------------------------------------------
# mc-oracle
# ---------------------------------------------------------------------------


def _moment(r):
    return r * r * np.exp(-r)


def _identity(r):
    return r


def mc_round(p, st, rec):
    import references as ref

    grid = GridSpec(*p["grid"][:2], int(p["grid"][2]))
    refs = {}
    # references that need the library run before any timed operation
    for case, (_, pair) in zip(p["cases"], st["cases"]):
        if case["kind"] == "killed":
            f = GridFunction(grid, _moment(np.exp(grid.x)))
            out = evolve(EvolutionPlan(pair, grid), case["t"], f)
            refs[case["name"]] = float(out.values.real[case["grid_index"]])

    sup_f = 4.0 * np.exp(-2.0)       # max of r^2 e^{-r}
    for case, (e, _) in zip(p["cases"], st["cases"]):
        kind, x, t = case["kind"], case["x"], case["t"]
        f = _moment if kind in ("bm", "killed") else _identity
        cfg = SimConfig(n_paths=case["paths"], seed=case["seed"],
                        t_max=case["t_max"])
        est = rec.op(f"mc-{case['name']}", mc_expectation, e, f, x, t, cfg)
        unresolved = (cfg.n_paths - est.n_effective) / cfg.n_paths
        if kind == "bm":
            want = float(ref.squared_bessel_moment(x, t))
        elif kind == "killed":
            want = refs[case["name"]]
        elif kind == "atoms":
            want = x - ref.psi_at_minus_i(case["quad"]) * t
        else:
            want = x + case["quad"]["b"] * t
        gap = abs(est.mean - want)
        if kind == "drift":
            limit = 1e-12 * want
            ok = gap <= limit and est.stderr <= limit
        elif kind == "atoms":
            # f is unbounded: every path must resolve
            limit = 5.0 * est.stderr
            ok = gap <= limit and unresolved == 0.0
        else:
            # paths that never reach the clock target leave the mean; their
            # share times sup|f| bounds the bias that causes
            limit = 5.0 * est.stderr + unresolved * sup_f
            ok = gap <= limit
        rec.check(f"mc-{case['name']}", gap, limit, ok)


ROUNDS = {"warm-sweep": warm_round, "mc-oracle": mc_round}
