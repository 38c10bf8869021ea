"""The dioph benchmark: one workload per run, or both with --all.

    python3 perfbench/run.py --workload heights --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 45]

Run from the root of a checkout; ``dioph`` is imported from ``src``.  A run
times set-up in fresh interpreters, then runs whole passes of the
workload's job list, each in a fresh interpreter, while another pass still
fits in ``--seconds`` (at least two, so that every run checks determinism).
It then checks the outputs of the first pass against oracles and compares
the output bytes of every later pass with the first.  Standard output ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
passes.  With ``--trace 1`` the run makes one untraced and one traced pass
and reports the per-layer metrics of spans.py; their wall-time ratio gives
``trace.overhead_frac``.  The line before it holds the machine facts.
``--all`` also prints the wall time of each part of a workload.

``attempted`` counts job runs (jobs times passes).  ``failed`` counts job
runs that exited nonzero, crashed, wrote bytes different from the first
pass, or failed a check other than the known tie-order defect.
``passed_frac`` counts every failed check, the known defect included.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import mpmath
import numpy

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 9
MIN_PASSES = 2
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("passed_frac", "ratio"), ("min_digits", "digits"),
)


class BenchError(Exception):
    """A run that cannot produce a result."""


def machine_facts() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "blas_threads": int(_env()["OPENBLAS_NUM_THREADS"]),
    }


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: List[str], deadline: float) -> float:
    """Run worker.py in a fresh interpreter; return its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return seconds


def _digest(out_dir: str, job_id: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if os.path.splitext(name)[0] == job_id:
            with open(os.path.join(out_dir, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.dir = os.path.join(WORK, f"{workload}-s{seed}-p{os.getpid()}")
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.passes: List[dict] = []

    def setup(self) -> List[float]:
        times, tags = [], set()
        for k in range(SETUP_REPS):
            d = os.path.join(self.dir, f"in{k}")
            times.append(_worker(["setup", self.workload, str(self.seed), d], self.deadline))
            tags.add(tuple(_digest(d, os.path.splitext(n)[0]) for n in sorted(os.listdir(d))))
        if len(tags) != 1:
            raise BenchError("input generation is not deterministic")
        with open(os.path.join(self.dir, "in0", "jobs.json"), encoding="utf-8") as f:
            self.jobs = json.load(f)
        return times

    def one_pass(self, trace: bool) -> dict:
        k = len(self.passes)
        out_dir = os.path.join(self.dir, f"out{k}")
        result = os.path.join(self.dir, f"pass{k}.json")
        args = ["pass", os.path.join(self.dir, "in0"), out_dir, result]
        _worker(args + (["--trace"] if trace else []), self.deadline)
        with open(result, encoding="utf-8") as f:
            res = json.load(f)
        res["out_dir"] = out_dir
        self.passes.append(res)
        return res

    def run_passes(self, trace: bool) -> None:
        if trace:
            self.one_pass(False)
            self.one_pass(True)
            return
        start = time.perf_counter()
        while True:
            self.one_pass(False)
            if len(self.passes) < MIN_PASSES:
                continue
            if time.perf_counter() - start + job_list_wall(self.passes) > self.seconds:
                break

    def judge(self) -> dict:
        """Check the first pass, compare later passes byte for byte, count failures."""
        first = self.passes[0]["out_dir"]
        job_checks = {job["id"]: checks.check_job(job, first) for job in self.jobs}
        digests = {job["id"]: _digest(first, job["id"]) for job in self.jobs}
        attempted = failed = not_passed = 0
        notes = []
        for p in self.passes:
            for rec in p["jobs"]:
                jid = rec["id"]
                c = job_checks[jid]
                hard = rec["rc"] != 0 or _digest(p["out_dir"], jid) != digests[jid]
                hard = hard or not (c.ok or c.known_defect)
                attempted += 1
                failed += hard
                not_passed += hard or not c.ok
                if p is self.passes[0] and (hard or not c.ok):
                    kind = "known defect" if c.known_defect else "FAILED"
                    notes.append(f"{kind} {jid}: rc={rec['rc']} {'; '.join(c.notes)}"
                                 f"{rec['error'] or ''}")
        return {"attempted": attempted, "failed": failed, "not_passed": not_passed,
                "min_digits": checks.min_digits(job_checks), "notes": notes}

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still works there
            pass


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def job_medians(passes: List[dict]) -> Dict[str, float]:
    """Each job's median time over the passes."""
    per_job = zip(*([rec["seconds"] for rec in p["jobs"]] for p in passes))
    return {rec["id"]: statistics.median(t) for rec, t in zip(passes[0]["jobs"], per_job)}


def job_list_wall(passes: List[dict]) -> float:
    """Wall time of the job list: the sum over jobs of each job's median pass time.

    Equal to the median pass for one or two passes; from three on, a burst of
    load from outside that slows one job in one pass does not count.
    """
    return sum(job_medians(passes).values())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result line plus what --all reports beside it."""
    run = Run(workload, seed, seconds)
    try:
        setup_times = run.setup()
        run.run_passes(trace)
        verdict = run.judge()
    finally:
        run.cleanup()
    untraced = [p for p in run.passes if "layers" not in p]
    wall = job_list_wall(untraced)
    if trace:
        traced = next(p for p in run.passes if "layers" in p)
        metrics = dict(traced["layers"])
        overhead = job_list_wall([traced]) / wall - 1.0
        metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "passed_frac": 1.0 - verdict["not_passed"] / verdict["attempted"],
            "min_digits": verdict["min_digits"],
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    line = {"correct": verdict["failed"] == 0, "attempted": verdict["attempted"],
            "failed": verdict["failed"], "metrics": metrics}
    medians = job_medians(untraced)
    part_wall = {part: 0.0 for part in workloads.PARTS[workload]}
    for job in run.jobs:
        part_wall[job["part"]] += medians[job["id"]]
    extra = {"notes": verdict["notes"], "passes": len(run.passes), "part_wall_s": part_wall,
             "failed_frac": verdict["not_passed"] / verdict["attempted"],
             "traced_wall_s": run.passes[-1]["wall_s"] if trace else None}
    return {"line": line, "extra": extra}


def _layer_shares(metrics: Dict[str, dict], wall: float) -> Dict[str, float]:
    return {layer: metrics[f"{layer}.self_s"]["value"] / wall for layer in spans.LAYERS}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced; prints the table, writes the trace file."""
    os.makedirs(OUT, exist_ok=True)
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    report = {"machine": facts, "seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for w in workloads.WORKLOADS:
        e2e = run_workload(w, seed, seconds, trace=False)
        tr = run_workload(w, seed, seconds, trace=True)
        layers = tr["line"]["metrics"]
        shares = _layer_shares(layers, tr["extra"]["traced_wall_s"])
        m = e2e["line"]["metrics"]
        print(f"\n[{w}] correct={e2e['line']['correct']} attempted={e2e['line']['attempted']} "
              f"failed={e2e['line']['failed']} passes={e2e['extra']['passes']}")
        for name, unit in END_TO_END:
            print(f"  {name:<12} {m[name]['value']:>12.6g} {unit}")
        print(f"  {'failed_frac':<12} {e2e['extra']['failed_frac']:>12.6g} ratio")
        print("  wall_s by part: " + ", ".join(
            f"{k} {v:.4g} s" for k, v in e2e["extra"]["part_wall_s"].items()))
        print("  self-time share of traced wall: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v >= 0.005))
        print(f"  trace.overhead_frac {layers['trace.overhead_frac']['value']:.4f}")
        for note in e2e["extra"]["notes"]:
            print("  " + note.splitlines()[0])
        ok = ok and e2e["line"]["correct"] and tr["line"]["correct"]
        report["workloads"][w] = {
            "end_to_end": m, "failed_frac": e2e["extra"]["failed_frac"],
            "part_wall_s": e2e["extra"]["part_wall_s"],
            "correct": e2e["line"]["correct"], "notes": e2e["extra"]["notes"],
            "per_layer": layers, "self_share_of_wall": shares,
            "computed_counts": list(spans.COMPUTED),
        }
    path = os.path.join(OUT, f"all-s{seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(f"\nper-layer metrics written to {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, both modes")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dioph", "__init__.py")):
        print(f"perfbench: no dioph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the checkers use dioph at 512 bits
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload or --all is required")
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for note in res["extra"]["notes"]:
        print(note.splitlines()[0], file=sys.stderr)
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(json.dumps(res["line"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
