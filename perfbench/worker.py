"""One fresh interpreter of the benchmark: set-up, or one pass of a job list.

    python3 perfbench/worker.py setup WORKLOAD SEED INPUT_DIR
    python3 perfbench/worker.py pass INPUT_DIR OUT_DIR RESULT_JSON [--trace]

``setup`` imports ``dioph`` and writes the workload's inputs; run.py times
the whole process as the set-up time.  ``pass`` imports ``dioph``, then runs
every job of INPUT_DIR/jobs.json once, in order, one after the other (a
closed loop with one client), and writes the timings to RESULT_JSON.  With
``--trace`` the layer functions are wrapped first and the per-layer figures
are written too.  ``dioph`` must be importable (run.py puts ``src`` on
PYTHONPATH).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import mpmath as mp

from dioph import analytic, cli, ec_core, heights

import spans
import workloads


def _load_curve(path: str):
    with open(path, encoding="utf-8") as f:
        return ec_core.curve_from_json(json.load(f))


def api_roundtrip(doc: dict) -> dict:
    """exp_E then elliptic_log at t = u * omega, for each seeded u."""
    curve = _load_curve(doc["curve"])
    omega = analytic.real_period(curve).omega
    rows = []
    for u in doc["u"]:
        t = mp.mpf(u) * omega
        x, y = analytic.exp_E(curve, t)
        back = analytic.elliptic_log(curve, (x, y)).t
        rows.append({"u": u, "t_back": mp.nstr(back, 40)})
    return {"omega": mp.nstr(omega, 40), "rows": rows}


def api_multiples(doc: dict) -> dict:
    """canonical_height_local of [n]P for the curve's generator P."""
    curve = _load_curve(doc["curve"])
    rows = []
    for n in doc["n"]:
        pt = ec_core.scalar_mul(curve, n, curve.generator_hint)
        h = heights.canonical_height_local(curve, pt).value
        rows.append({"n": n, "point": str(pt), "hhat": mp.nstr(h, 40)})
    return {"rows": rows}


API = {"roundtrip": api_roundtrip, "multiples": api_multiples}


def run_job(job: dict, out_dir: str) -> int:
    base = os.path.join(out_dir, job["id"])
    if job["kind"] == "cli":
        argv = [base if a == "{OUT}" else a for a in job["argv"]]
        return cli.parse_and_dispatch(argv)
    with open(job["input"], encoding="utf-8") as f:
        doc = json.load(f)
    result = API[job["fn"]](doc)
    with open(base + ".json", "w", encoding="utf-8") as f:
        json.dump(result, f, sort_keys=True, indent=1)
        f.write("\n")
    return 0


def run_pass(input_dir: str, out_dir: str, tracer=None) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(input_dir)
    with open("jobs.json", encoding="utf-8") as f:
        jobs = json.load(f)
    records = []
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        error = None
        try:
            rc = run_job(job, out_dir)
        except Exception:  # a crashing job is counted as failed; the pass goes on
            rc, error = -1, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        if tracer is not None and job["kind"] == "cli":
            tracer.command_busy[workloads.command_name(job["argv"])] += seconds
        records.append({"id": job["id"], "rc": rc, "seconds": seconds, "error": error})
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"wall_s": wall, "peak_rss_mb": rss_kb / 1024.0, "jobs": records}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


def main(argv) -> int:
    if argv[0] == "setup":
        workloads.generate(argv[1], int(argv[2]), argv[3])
        return 0
    input_dir, out_dir, result_path = (os.path.abspath(a) for a in argv[1:4])
    tracer = None
    if "--trace" in argv[4:]:
        tracer = spans.Tracer()
        tracer.install()
    result = run_pass(input_dir, out_dir, tracer)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
