"""Steadiness of the benchmark: repeated runs, quartiles, and comparison
of two sets of runs against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py run --workload mc-oracle --runs 10 --out a.json
    python3 perfbench/steady.py summary a.json
    python3 perfbench/steady.py compare a.json b.json

`run` calls the benchmark command of BENCHMARK.json once per seed (seeds
first-seed, first-seed + 1, ...) and stores the final JSON line of each
run.  `summary` prints each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) beside a third
of its bound.  `compare` prints, per metric, how far the second set's
median moved from the first's against the bound, and whether the share of
failed operations is the same in both sets.  Use it to set the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _bounds(bench):
    return {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}


def cmd_run(args):
    bench = _bench()
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"run with seed {seed} failed")
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["log"] = lines[:-1]
        runs.append(result)
        vals = ", ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} {vals}",
              flush=True)
    data = {"workload": args.workload, "trace": args.trace, "runs": runs}
    Path(args.out).write_text(json.dumps(data, indent=1), encoding="utf-8")
    summarize(data, _bounds(bench))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(data, bounds):
    runs = data["runs"]
    print(f"{data['workload']}: {len(runs)} runs, all correct: "
          f"{all(r['correct'] for r in runs)}, failed share: "
          f"{sorted({(r['failed'], r['attempted']) for r in runs})}")
    print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = _quartiles(vals)
        spread = (q3 - q1) / med if med else float("nan")
        third = bounds.get(name, (float("nan"),))[0] / 3.0
        flag = "" if not spread > third else "  WIDE"
        print(f"  {name:<36} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {third:8.4f}{flag}")


def cmd_summary(args):
    bounds = _bounds(_bench())
    for path in args.files:
        summarize(json.loads(Path(path).read_text(encoding="utf-8")), bounds)


def cmd_compare(args):
    bounds = _bounds(_bench())
    a, b = (json.loads(Path(p).read_text(encoding="utf-8"))
            for p in (args.first, args.second))
    ok = True
    print(f"{a['workload']}: first {len(a['runs'])} runs, second "
          f"{len(b['runs'])} runs")
    for name in a["runs"][0]["metrics"]:
        va = [r["metrics"][name]["value"] for r in a["runs"]]
        vb = [r["metrics"][name]["value"] for r in b["runs"]]
        ma, mb = statistics.median(va), statistics.median(vb)
        bound, better = bounds.get(name, (None, "lower"))
        worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
        verdict = "-" if bound is None else (
            "ok" if worse <= bound else "WORSE")
        ok = ok and verdict != "WORSE"
        print(f"  {name:<36} {ma:12.6g} -> {mb:12.6g}  worse by "
              f"{worse:+.4f} (bound {bound})  {verdict}")
    share_a = {r["failed"] / r["attempted"] for r in a["runs"]}
    share_b = {r["failed"] / r["attempted"] for r in b["runs"]}
    same = len(share_a | share_b) == 1
    ok = ok and same and all(r["correct"] for r in a["runs"] + b["runs"])
    print(f"  failed share {sorted(share_a)} vs {sorted(share_b)}: "
          f"{'same' if same else 'DIFFERENT'}")
    print("agree within bounds" if ok else "DO NOT AGREE")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--tiny", action="store_true")
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("files", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args)
    if args.cmd == "summary":
        return cmd_summary(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
