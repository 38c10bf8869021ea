"""Self-tests of the benchmark's checkers and tracer.

    python3 perfbench/selftest.py

1. The exact oracle flags A = [5/11, -1/11] at Q = 51 as the known
   tie-order defect: the library returns q = (5, -8), the oracle (2, -1).
2. A window champion whose error is perturbed by 1% lowers min_digits.
3. Two traced runs of search give identical per-layer call counts and
   computed work counts.

Exits 0 when all pass.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys

import run as bench
import workloads

sys.path.insert(0, bench.SRC)

import checks  # noqa: E402
from dioph import cli  # noqa: E402

SCRATCH = os.path.join(bench.WORK, f"selftest-p{os.getpid()}")


def _cli(argv, out):
    rc = cli.parse_and_dispatch(argv + ["--out", out])
    if rc != 0:
        raise RuntimeError(f"dioph {' '.join(argv)} exited {rc}")


def test_tie_defect_flagged() -> str:
    path = os.path.join(SCRATCH, "rat.json")
    workloads.write_matrix(SCRATCH, "rat.json", 1, 2, ["5/11", "-1/11"])
    job = {"id": "rat", "kind": "cli", "argv": ["dirichlet"],
           "meta": {"m": 1, "n": 2, "Q": 51, "entries": ["5/11", "-1/11"], "rational": True}}
    out = os.path.join(SCRATCH, "rat")
    _cli(["dirichlet", "--matrix", path, "--Q", "51"], out)
    c = checks.check_dirichlet(job, out)
    best = checks.ExactMatrix(1, 2, ["5/11", "-1/11"]).best(51)
    assert best[1:] == ((2, -1), (-1,)), best
    assert not c.ok and c.known_defect, c
    return "; ".join(c.notes)


def test_perturbed_champion() -> str:
    path = os.path.join(SCRATCH, "phi.json")
    workloads.write_matrix(SCRATCH, "phi.json", 1, 1, [workloads.PHI])
    job = {"id": "phi", "kind": "cli", "argv": ["exponent"],
           "meta": {"m": 1, "n": 1, "entries": [workloads.PHI]}}
    out = os.path.join(SCRATCH, "phi")
    _cli(["exponent", "--matrix", path, "--qmax", "100000"], out)
    clean = checks.check_exponent(job, out)
    with open(out + ".csv", encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    rows[-1]["error"] = repr(float(rows[-1]["error"]) * 1.01)
    with open(out + ".csv", "w", encoding="utf-8", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    bad = checks.check_exponent(job, out)
    before, after = min(clean.digits), min(bad.digits)
    assert clean.ok and before >= 12 and after < 3 and not bad.ok, (before, after)
    return f"min_digits {before:.2f} -> {after:.2f}"


def test_trace_counts_repeat(workload: str) -> str:
    firsts = []
    for _ in range(2):
        res = bench.run_workload(workload, 1, 1.0, trace=True)
        firsts.append({k: v["value"] for k, v in res["line"]["metrics"].items()
                       if k.endswith(".calls") or k in bench.spans.COMPUTED})
    diff = {k: (firsts[0][k], firsts[1][k]) for k in firsts[0] if firsts[0][k] != firsts[1][k]}
    assert not diff, diff
    return f"{len(firsts[0])} counts identical, {sum(firsts[0].values())} in total"


def main() -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    tests = (test_tie_defect_flagged, test_perturbed_champion,
             lambda: test_trace_counts_repeat("search"))
    names = ("tie defect flagged", "perturbed champion", "trace counts repeat")
    failed = 0
    try:
        for name, test in zip(names, tests):
            try:
                print(f"PASS {name}: {test()}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
