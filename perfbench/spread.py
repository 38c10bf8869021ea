"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload search --seeds 1-10 [--seconds 45]

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median and its quartile spread (Q3 - Q1) / median,
with the quartiles of ``statistics.quantiles(values, n=4)``.  Each run's
result line is appended to .perfbench_out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=bench.workloads.WORKLOADS)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", help="run length; run.py's default when left out")
    args = ap.parse_args()
    os.makedirs(bench.OUT, exist_ok=True)
    log = os.path.join(bench.OUT, f"spread-{args.workload}.jsonl")
    values = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--trace", "0"]
        if args.seconds:
            cmd += ["--seconds", args.seconds]
        proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps({"seed": seed, **line}, sort_keys=True) + "\n")
        print(f"seed {seed}: correct={line['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(line["metrics"].items())), flush=True)
        for k, v in line["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{k:<12} median {med:.6g}  spread {(q3 - q1) / med:.4f}  n={len(vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
