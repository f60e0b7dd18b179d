"""Smoke test of the benchmark itself, in tiny mode.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced at tiny sizes and
checks the shape of the result line: the keys, every end-to-end or
per-layer metric of BENCHMARK.json with its unit, correct = true, and on
cold-calls exactly the one known failing operation.  Then copies only
BENCHMARK.json and the benchmark directory into a scratch directory inside
the checkout and checks that the benchmark refuses to run there.  Exits
non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    # every workload the command knows, warm-sweep too (not in BENCHMARK.json)
    for w in ({"name": name} for name in WORKLOADS):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, w["name"], trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{w['name']} trace={trace}: exit "
                                f"{proc.returncode} {proc.stderr[-500:]}")
                continue
            res = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w['name']}: keys {sorted(res)}")
            if got != want:
                problems.append(f"{w['name']} trace={trace}: metrics differ "
                                f"from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"{w['name']} trace={trace}: {lines[-1][:200]}")
            # cold-calls fails w-horizon once per round, nothing else fails
            if w["name"] == "cold-calls":
                bad = (res["failed"] < 1
                       or res["attempted"] % res["failed"]
                       or "FAILED operation w-horizon" not in proc.stdout)
            else:
                bad = res["failed"] != 0
            if bad:
                problems.append(f"{w['name']} trace={trace}: failed="
                                f"{res['failed']}")
            print(f"{w['name']} trace={trace}: attempted {res['attempted']}, "
                  f"failed {res['failed']}, correct {res['correct']}",
                  flush=True)

    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, WORKLOADS[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("the benchmark ran without the library source")
        print(f"without the library source: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for p in problems:
        print("PROBLEM:", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
