"""Spans around the library's public functions, and the per-layer metrics
derived from them.

The tracer is installed from outside: it wraps every public function in
every spectral_ssmp module namespace that binds it (modules import names
directly, so each binding is replaced), the few public methods the metrics
need, and numpy.fft.fft/ifft.  Each call records a span [name, start, end,
parent, attrs]; spans stay in memory and the worker writes them out when
it ends.

A span's layer is the first part of its name (the spectral_ssmp module,
or "numpy" for the FFTs).  Its self time is its duration minus the time
covered by its nearest descendants of another layer; calls inside the same
layer count as its own work.  Where several names make up one metric only
the outermost of nested spans counts, so nothing is counted twice.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import time
import types

import numpy as np

LAYERS = ("bernstein", "exponents", "transform", "spectrum", "eigenfunctions",
          "semigroup", "lamperti", "families", "cli")

METHODS = (
    ("bernstein", "BernsteinGammaEvaluator", "__init__"),
    ("bernstein", "BernsteinGammaEvaluator", "log_w"),
    ("semigroup", "EvolutionPlan", "__init__"),
    ("semigroup", "TensorPlan", "__init__"),
    ("eigenfunctions", "SeriesEigenfunction", "__init__"),
)

# (name, unit, better): the per-layer metrics, in print order
PER_LAYER = (
    ("bernstein.evaluator.builds", "count", "lower"),
    ("bernstein.evaluator.build_s", "s", "lower"),
    ("bernstein.evaluator.K_max", "count", "lower"),
    ("bernstein.log_w.points", "count", "lower"),
    ("bernstein.log_w.s", "s", "lower"),
    ("bernstein.log_w.us_per_point", "us", "lower"),
    ("bernstein.theta.s", "s", "lower"),
    ("bernstein.w.closed_form_err", "ratio", "lower"),
    ("exponents.eval_psi.points", "count", "lower"),
    ("exponents.eval_psi.s", "s", "lower"),
    ("transform.multiplier.builds", "count", "lower"),
    ("transform.multiplier.useful_ratio", "ratio", "higher"),
    ("transform.multiplier.s", "s", "lower"),
    ("transform.multiplier.clamped_samples", "count", "lower"),
    ("transform.fft.calls", "count", "lower"),
    ("transform.fft.points", "count", "lower"),
    ("transform.fft.s", "s", "lower"),
    ("spectrum.classify.self_s", "s", "lower"),
    ("eigenfunctions.fft_route.self_s", "s", "lower"),
    ("eigenfunctions.series_route.s", "s", "lower"),
    ("eigenfunctions.wright_route.s", "s", "lower"),
    ("semigroup.plan.s", "s", "lower"),
    ("semigroup.evolve.calls", "count", "lower"),
    ("semigroup.evolve.us_p50", "us", "lower"),
    ("semigroup.evolve.self_s", "s", "lower"),
    ("semigroup.evolve_tensor.s", "s", "lower"),
    ("semigroup.generator.s", "s", "lower"),
    ("lamperti.mc.s", "s", "lower"),
    ("lamperti.mc.paths", "count", "higher"),
    ("lamperti.mc.us_per_path", "us", "lower"),
    ("lamperti.mc.unresolved_paths", "count", "lower"),
    ("lamperti.mc.work_variance", "var.s", "lower"),
    ("families.parse.s", "s", "lower"),
    ("cli.emit_csv.rows", "count", "higher"),
    ("cli.emit_csv.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

CLAMP_LOG = 700.0


# ---------------------------------------------------------------------------
# recording (runs inside the worker process)
# ---------------------------------------------------------------------------


def _size(v):
    return int(np.size(v))


def _attrs_log_w(args, kwargs, out, pre):
    return {"points": _size(args[1] if len(args) > 1 else kwargs["z"])}


def _attrs_eval_psi(args, kwargs, out, pre):
    return {"points": _size(args[1] if len(args) > 1 else kwargs["xi"])}


def _attrs_evaluator(args, kwargs, out, pre):
    return {"K": int(args[0].truncation)}


def _attrs_mc(args, kwargs, out, pre):
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    return {"paths": int(cfg.n_paths), "n_eff": int(out.n_effective),
            "stderr": float(out.stderr)}


def _attrs_emit_csv(args, kwargs, out, pre):
    table = args[0] if args else kwargs["table"]
    columns = table[1]
    return {"rows": len(columns[0]) if columns else 0}


def _attrs_fft(args, kwargs, out, pre):
    return {"points": _size(args[0] if args else kwargs["a"])}


def _cache_misses(fn):
    return fn.cache_info().misses


def _attrs_multiplier(fn):
    def attrs(args, kwargs, out, pre):
        if _cache_misses(fn) == pre:
            return {"miss": False}
        v = np.ascontiguousarray(out.values)
        with np.errstate(divide="ignore"):
            logmag = np.abs(np.log(np.abs(v)))
        return {"miss": True,
                "hash": hashlib.sha1(v.tobytes()).hexdigest(),
                "clamped": int(np.sum(logmag >= CLAMP_LOG - 1e-9))}
    return attrs


ATTRS = {
    "bernstein.BernsteinGammaEvaluator.log_w": _attrs_log_w,
    "bernstein.BernsteinGammaEvaluator.__init__": _attrs_evaluator,
    "exponents.eval_psi": _attrs_eval_psi,
    "lamperti.mc_expectation": _attrs_mc,
    "cli.emit_csv": _attrs_emit_csv,
    "numpy.fft.fft": _attrs_fft,
    "numpy.fft.ifft": _attrs_fft,
}


class Tracer:
    """Wraps the library from outside; spans are recorded while enabled."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self._stack = []
        self._wrapped = {}

    def wrap(self, name, fn, attrs=None, pre=None):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            before = pre() if pre is not None else None
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out, before)
            return out

        return wrapper

    def _wrap_function(self, fn):
        if id(fn) not in self._wrapped:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
            attrs, pre = ATTRS.get(name), None
            if isinstance(fn, functools._lru_cache_wrapper):
                pre = functools.partial(_cache_misses, fn)
                if name == "transform.multiplier_h":
                    attrs = _attrs_multiplier(fn)
            self._wrapped[id(fn)] = self.wrap(name, fn, attrs, pre)
        return self._wrapped[id(fn)]

    def install(self):
        import importlib

        package = importlib.import_module("spectral_ssmp")
        modules = [importlib.import_module(f"spectral_ssmp.{m}")
                   for m in LAYERS]
        for ns in [package] + modules:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_"):
                    continue
                if not isinstance(obj, (types.FunctionType,
                                        functools._lru_cache_wrapper)):
                    continue
                mod = getattr(obj, "__module__", "") or ""
                if mod.startswith("spectral_ssmp.") and \
                        mod.rsplit(".", 1)[-1] in LAYERS:
                    setattr(ns, attr, self._wrap_function(obj))
        for mod, cls, meth in METHODS:
            klass = getattr(importlib.import_module(f"spectral_ssmp.{mod}"), cls)
            name = f"{mod}.{cls}.{meth}"
            setattr(klass, meth, self.wrap(name, getattr(klass, meth),
                                           ATTRS.get(name)))
        for fname in ("fft", "ifft"):
            name = f"numpy.fft.{fname}"
            setattr(np.fft, fname, self.wrap(name, getattr(np.fft, fname),
                                             ATTRS[name]))


# ---------------------------------------------------------------------------
# per-layer metrics (runs in the benchmark's parent process)
# ---------------------------------------------------------------------------


def _layer(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Self time of each span: duration minus nearest other-layer children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        parent = s[3]
        if parent < 0 or _layer(spans[parent][0]) == _layer(s[0]):
            continue
        dur = s[2] - s[1]
        a = parent
        while True:
            own[a] -= dur
            up = spans[a][3]
            if up < 0 or _layer(spans[up][0]) != _layer(spans[a][0]):
                break
            a = up
    return own


def _outermost(spans, names):
    """Indices of spans named in `names` with no ancestor named in `names`."""
    out = []
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        a = s[3]
        while a >= 0 and spans[a][0] not in names:
            a = spans[a][3]
        if a < 0:
            out.append(i)
    return out


GROUPS = {
    "evaluator": {"bernstein.BernsteinGammaEvaluator.__init__"},
    "log_w": {"bernstein.BernsteinGammaEvaluator.log_w"},
    "theta": {"bernstein.theta_samples", "bernstein.theta_integral",
              "bernstein.theta_limits"},
    "eval_psi": {"exponents.eval_psi"},
    "multiplier": {"transform.multiplier_h", "transform.multiplier_lambda"},
    "fft": {"numpy.fft.fft", "numpy.fft.ifft"},
    "classify": {"spectrum.classify"},
    "fft_route": {"eigenfunctions.eigenfunction_fft",
                  "eigenfunctions.translated_eigenfunction_fft"},
    "series_route": {"eigenfunctions.SeriesEigenfunction.__init__",
                     "eigenfunctions.eigenfunction_series"},
    "wright_route": {"eigenfunctions.wright_eigenfunction",
                     "eigenfunctions.wright"},
    "plan": {"semigroup.EvolutionPlan.__init__",
             "semigroup.TensorPlan.__init__"},
    "evolve": {"semigroup.evolve"},
    "evolve_tensor": {"semigroup.evolve_tensor"},
    "generator": {"semigroup.generator_pdo", "semigroup.generator_ido"},
    "mc": {"lamperti.mc_expectation"},
    "parse": {"families.bernstein_from_json", "families.exponent_from_json",
              "families.make_bernstein"},
    "emit_csv": {"cli.emit_csv"},
}


def round_metrics(processes, closed_form_err):
    """Per-layer metrics of one round from the span lists of its processes."""
    tot = {}
    builds = distinct = 0
    evolve_us = []
    k_max = 0

    def add(key, v):
        tot[key] = tot.get(key, 0.0) + v

    for spans in processes:
        own = self_times(spans)
        sel = {g: _outermost(spans, names) for g, names in GROUPS.items()}
        for g, idx in sel.items():
            add(g + ".s", sum(own[i] for i in idx))
            add(g + ".n", len(idx))
        for i in sel["evaluator"]:
            k_max = max(k_max, spans[i][4]["K"])
        for g in ("log_w", "eval_psi", "fft"):
            add(g + ".points", sum(spans[i][4]["points"] for i in sel[g]))
        hashes = set()
        for i, s in enumerate(spans):
            if s[0] == "transform.multiplier_h" and s[4]["miss"]:
                builds += 1
                hashes.add(s[4]["hash"])
                add("clamped", s[4]["clamped"])
        distinct += len(hashes)
        evolve_us += [1e6 * (spans[i][2] - spans[i][1]) for i in sel["evolve"]]
        for i in sel["mc"]:
            a = spans[i][4]
            add("mc.paths", a["paths"])
            add("mc.unresolved", a["paths"] - a["n_eff"])
            add("mc.workvar", a["stderr"] ** 2 * own[i])
        add("rows", sum(spans[i][4]["rows"] for i in sel["emit_csv"]))

    g = tot.get
    return {
        "bernstein.evaluator.builds": g("evaluator.n", 0),
        "bernstein.evaluator.build_s": g("evaluator.s", 0.0),
        "bernstein.evaluator.K_max": k_max,
        "bernstein.log_w.points": g("log_w.points", 0),
        "bernstein.log_w.s": g("log_w.s", 0.0),
        "bernstein.log_w.us_per_point":
            1e6 * g("log_w.s", 0.0) / max(1, g("log_w.points", 0)),
        "bernstein.theta.s": g("theta.s", 0.0),
        "bernstein.w.closed_form_err": closed_form_err,
        "exponents.eval_psi.points": g("eval_psi.points", 0),
        "exponents.eval_psi.s": g("eval_psi.s", 0.0),
        "transform.multiplier.builds": builds,
        # with no build there is nothing wasted
        "transform.multiplier.useful_ratio": distinct / builds if builds else 1.0,
        "transform.multiplier.s": g("multiplier.s", 0.0),
        "transform.multiplier.clamped_samples": g("clamped", 0),
        "transform.fft.calls": g("fft.n", 0),
        "transform.fft.points": g("fft.points", 0),
        "transform.fft.s": g("fft.s", 0.0),
        "spectrum.classify.self_s": g("classify.s", 0.0),
        "eigenfunctions.fft_route.self_s": g("fft_route.s", 0.0),
        "eigenfunctions.series_route.s": g("series_route.s", 0.0),
        "eigenfunctions.wright_route.s": g("wright_route.s", 0.0),
        "semigroup.plan.s": g("plan.s", 0.0),
        "semigroup.evolve.calls": g("evolve.n", 0),
        "semigroup.evolve.us_p50":
            statistics.median(evolve_us) if evolve_us else 0.0,
        "semigroup.evolve.self_s": g("evolve.s", 0.0),
        "semigroup.evolve_tensor.s": g("evolve_tensor.s", 0.0),
        "semigroup.generator.s": g("generator.s", 0.0),
        "lamperti.mc.s": g("mc.s", 0.0),
        "lamperti.mc.paths": g("mc.paths", 0),
        "lamperti.mc.us_per_path":
            1e6 * g("mc.s", 0.0) / max(1, g("mc.paths", 0)),
        "lamperti.mc.unresolved_paths": g("mc.unresolved", 0),
        "lamperti.mc.work_variance": g("mc.workvar", 0.0),
        "families.parse.s": g("parse.s", 0.0),
        "cli.emit_csv.rows": g("rows", 0),
        "cli.emit_csv.s": g("emit_csv.s", 0.0),
    }
