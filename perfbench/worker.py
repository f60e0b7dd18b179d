"""One fresh process of a workload: set-up, then one cold call or one round.

    python3 perfbench/worker.py JOB.json

The job names the mode ("setup", "call" or "round"), the inputs and where
to write the result.  Set-up is timed from the top of this file: importing
spectral_ssmp and parsing the JSON inputs through its families module.
In untraced workers set-up and every timed operation are followed by one
run of the speed gauge (calib.gauge), whose times run.py uses to put the
run's times on the machine's reference speed.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _parse(families, inputs):
    out = []
    for kind, obj in inputs:
        if kind == "phi":
            out.append(families.bernstein_from_json(obj))
        else:
            out.append(families.exponent_from_json({kind: obj}))
    return out


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import spectral_ssmp
    from spectral_ssmp import families
    if job["workload"] == "cold-calls":
        import spectral_ssmp.cli  # noqa: F401
    here = os.path.dirname(os.path.abspath(spectral_ssmp.__file__))
    if os.path.realpath(here) != os.path.realpath(
            os.path.join(job["src"], "spectral_ssmp")):
        sys.stderr.write(f"spectral_ssmp imported from {here}, "
                         f"not from {job['src']}\n")
        return 3

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
    if job["workload"] != "cold-calls":
        import rounds
        state = rounds.setup(job["workload"], job["params"])
    else:
        parsed = _parse(families, job["op"]["parse"] if job["mode"] == "call"
                        else [])
    setup_s = time.perf_counter() - T0
    import calib
    if tracer is not None:
        tracer.enabled = False

    result = {"setup_s": setup_s, "ops": [], "checks": [], "kernel_s": []}
    if job["mode"] == "call":
        result["ops"].append(_call(job["op"], job["tmp"], tracer, parsed))
        if tracer is None:
            # a cold call is short: the sample after it also scales set-up
            result["kernel_s"].append(calib.gauge())
            result["setup_gauge_s"] = result["kernel_s"][0]
    elif tracer is None:
        result["setup_gauge_s"] = calib.gauge()
    if job["mode"] == "round":
        rec = rounds.Recorder(tracer)
        rounds.ROUNDS[job["workload"]](job["params"], state, rec)
        result["ops"], result["checks"] = rec.ops, rec.checks
        result["kernel_s"] = rec.kernel_s
    result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _call(op, tmp, tracer, parsed):
    """Run one cold-calls operation, timed, writing its output under tmp."""
    out = os.path.join(tmp, f"{op['name']}.{op['out']}")
    rec = {"name": op["name"], "out": out, "ok": True, "error": None}
    if op["kind"] == "cli":
        from spectral_ssmp import cli
        argv = op["argv"] + ["--out", out]
        if tracer is not None:
            tracer.enabled = True
        t = time.perf_counter()
        code = cli.run(argv)
        rec["s"] = time.perf_counter() - t
        if code != 0:
            rec["ok"], rec["error"] = False, f"exit code {code}"
    else:
        import rounds
        fn = getattr(rounds, op["fn"])
        if tracer is not None:
            tracer.enabled = True
        t = time.perf_counter()
        try:
            arrays = fn(*parsed)
        except Exception as exc:  # the operation failed; report, do not crash
            rec["s"] = time.perf_counter() - t
            rec["ok"], rec["error"] = False, f"{type(exc).__name__}: {exc}"
        else:
            rec["s"] = time.perf_counter() - t
            import numpy as np
            np.save(out, arrays)
    if tracer is not None:
        tracer.enabled = False
    return rec


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
