"""Benchmark of spectral_ssmp: cold CLI calls, warm sweeps and the Monte
Carlo oracle, each checked against independent references.

    python3 perfbench/run.py --workload cold-calls --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its src/
directory and nowhere else.  Every operation of a workload runs in a fresh
worker process (one per call for cold-calls, one per round otherwise), and
rounds repeat until --seconds have passed.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics from traced rounds
interleaved with untraced ones.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (("wall_s", "s"), ("op_p50_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))
# the speed gauge's time (calib.kernel) on this 2-core machine in its fast
# state: times are reported at this speed (README, "Reference speed");
# `python3 perfbench/calib.py` prints the current one
KERNEL_REFERENCE_S = 0.02
MIN_SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 150


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # one thread: the library's BLAS calls are matrix-vector sized, and
    # spinning BLAS threads on a small shared machine only add noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload, params, tmp):
        self.workload = workload
        self.params = params
        self.tmp = tmp
        self.env = _env()
        self._jobs = 0

    def spawn(self, mode, trace, **extra):
        """Run one worker process to completion and return its result."""
        self._jobs += 1
        job_path = self.tmp / f"job{self._jobs}.json"
        result_path = self.tmp / f"result{self._jobs}.json"
        job = {"mode": mode, "trace": trace, "workload": self.workload,
               "src": str(SRC), "tmp": str(self.tmp),
               "result": str(result_path), **extra}
        job_path.write_text(json.dumps(job), encoding="utf-8")
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                               str(job_path)], cwd=ROOT, env=self.env,
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"worker ({mode}) exited with code "
                               f"{proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def round(self, trace):
        """One pass over the workload's fixed list of operations."""
        if self.workload != "cold-calls":
            res = self.spawn("round", trace, params=self.params)
            return {"ops": res["ops"], "checks": res["checks"],
                    "setup": [_at_reference(res)], "rss": [res["rss_mib"]],
                    "spans": [res.get("spans", [])],
                    "kernel": res["kernel_s"]}
        out = {"ops": [], "checks": [], "setup": [], "rss": [], "spans": [],
               "kernel": []}
        for op in self.params["ops"]:
            res = self.spawn("call", trace, op=op)
            rec = res["ops"][0]
            out["kernel"] += res["kernel_s"]
            out["setup"].append(_at_reference(res))
            out["rss"].append(res["rss_mib"])
            out["spans"].append(res.get("spans", []))
            if rec["ok"]:
                value, limit, ok = workloads.check_cold(op, rec["out"])
                if op["check"]["type"] == "contract":
                    # the operation is the contract check itself
                    rec["ok"] = bool(ok)
                    if not ok:
                        rec["error"] = (f"residual {value:.3g} > tol "
                                        f"{limit:.3g}: {op['fault']}")
                else:
                    out["checks"].append({
                        "name": op["name"], "value": value, "limit": limit,
                        "ok": bool(ok), "w_err": op["check"].get("w_err")})
            out["ops"].append(rec)
        return out


def _at_reference(res):
    """A worker's set-up time at the gauge's reference speed, scaled by the
    gauge sample taken right after set-up in the same process (None for
    traced workers, which run no gauge)."""
    if "setup_gauge_s" not in res:
        return None
    return KERNEL_REFERENCE_S * res["setup_s"] / res["setup_gauge_s"]


def _closed_form_err(checks):
    errs = [c["value"] for c in checks if c.get("w_err")]
    return max(errs) if errs else 0.0


def _worse(a, b):
    """Whether check a is closer to its limit than check b."""
    if isinstance(a["value"], str):
        return False
    return a["value"] / (a["limit"] or 1.0) > b["value"] / (b["limit"] or 1.0)


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cold-calls", "warm-sweep", "mc-oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small sizes, for the benchmark's own smoke test")
    args = p.parse_args(argv)

    if not (SRC / "spectral_ssmp" / "__init__.py").is_file():
        sys.stderr.write(f"no library source under {SRC}; run from the root "
                         "of a spectral-ssmp checkout\n")
        return 2

    params = workloads.inputs(args.workload, args.seed, args.tiny)
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, params, tmp)
        rounds = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append((traced, runner.round(traced)))
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or len(rounds) % 2 == 0):
                break
        setup = [s for tr, r in rounds if not tr for s in r["setup"]]
        while not args.trace and len(setup) < MIN_SETUP_SAMPLES:
            setup.append(_at_reference(runner.spawn("setup", False,
                                                    params=params)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    plain = [r for tr, r in rounds if not tr]
    traced = [r for tr, r in rounds if tr]
    all_ops = [op for _, r in rounds for op in r["ops"]]
    failed = [op for op in all_ops if not op["ok"]]
    checks = [c for _, r in rounds for c in r["checks"]]
    bad = [c for c in checks if not c["ok"]]

    # Times are put on the gauge's reference speed (README, "Reference
    # speed"): the operation list's total by the mean gauge time of the
    # run, each single operation by the gauge run right after it in its
    # process; each operation is taken at its mean over the run's rounds.
    gauge = [k for r in plain for k in r["kernel"]]
    scale = KERNEL_REFERENCE_S / statistics.fmean(gauge)
    mean_s = [statistics.fmean(times) for times in zip(
        *([op["s"] for op in r["ops"]] for r in plain))]
    per_op = [KERNEL_REFERENCE_S * statistics.fmean(ratios)
              for ratios in zip(*([op["s"] / k for op, k in
                                   zip(r["ops"], r["kernel"])]
                                  for r in plain))]
    walls = [sum(op["s"] for op in r["ops"]) for r in plain]
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds "
          f"({len(traced)} traced), {len(all_ops)} operations attempted, "
          f"{len(failed)} failed; {len(checks)} checks, {len(bad)} failed")
    print("  operation list per round, unscaled: "
          + ", ".join(f"{w:.4g} s" for w in walls)
          + f"; speed gauge mean {1e3 * statistics.fmean(gauge):.4g} ms "
          f"over {len(gauge)} samples, scale {scale:.4g}")
    at_round_gauge = [KERNEL_REFERENCE_S * w / statistics.fmean(r["kernel"])
                      for w, r in zip(walls, plain)]
    print("  operation list per round, each at its round's mean gauge: "
          + ", ".join(f"{w:.4g} s" for w in at_round_gauge))
    for name in sorted({op["name"] for op in failed}):
        err = next(op["error"] for op in failed if op["name"] == name)
        print(f"  FAILED operation {name}: {err}")
    worst = {}
    for c in checks:
        key = c["name"]
        if key not in worst or not c["ok"] or (
                worst[key]["ok"] and _worse(c, worst[key])):
            worst[key] = c
    for name, c in worst.items():
        mark = "ok    " if c["ok"] else "FAILED"
        print(f"  check {mark} {name}: {_fmt(c['value'])} "
              f"(limit {_fmt(c['limit'])})")

    if args.trace:
        per_round = [tracing.round_metrics(r["spans"],
                                           _closed_form_err(r["checks"]))
                     for r in traced]
        values = {k: statistics.median(m[k] for m in per_round)
                  for k in per_round[0]}
        traced_walls = [sum(op["s"] for op in r["ops"]) for r in traced]
        # unscaled, like the other per-layer times
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        units = {n: u for n, u, _ in tracing.PER_LAYER}
        metrics = {n: {"value": values[n], "unit": units[n]}
                   for n, _, _ in tracing.PER_LAYER}
        print("per-layer metrics (median of traced rounds):")
    else:
        values = {
            "wall_s": scale * sum(mean_s),
            "op_p50_s": statistics.median(per_op),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(max(r["rss"]) for r in plain),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        print("end-to-end metrics:")
    for name, m in metrics.items():
        print(f"  {name:<40} {_fmt(m['value']):>14} {m['unit']}")
    print(json.dumps({"correct": not bad, "attempted": len(all_ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
