"""Seeded inputs and job lists for the two benchmark workloads.

A workload is made of parts, run in order in every pass: ``heights`` has
one, ``search`` has three (``box-scan``, ``orbit-scan``, ``flow-game``).
``generate(workload, seed, directory)`` writes the input files a workload
needs into ``directory`` and returns its job list.  Each job is a dict:

    id     unique name, also the base name of its output files
    part   the part of the workload the job belongs to
    kind   "cli" (argv for ``dioph``) or "api" (a library call, see worker.py)
    argv   for cli jobs; "{OUT}" stands for the output base path
    meta   what the checkers need to know about the job's inputs

Only this module decides what a workload contains.  The same seed always
gives byte-identical files and the same job list.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Dict, List

PARTS = {"heights": ("heights",), "search": ("box-scan", "orbit-scan", "flow-game")}
WORKLOADS = tuple(PARTS)

# label, a, b, generator.  37a1 is the short model y^2 = x^3 - x + 1/4: not
# integral, and its generator (0, 1/2) lies off the identity component.
CURVES = {
    "c110160": ("110160.cd1", "-12", "-1", ("5", "8")),
    "x3m2": ("x^3-2", "0", "-2", ("3", "5")),
    "c37a1": ("37a1", "-1", "1/4", ("0", "1/2")),
}
SQRT2 = "1.41421356237309504880168872420969807856967187537694807317667973799"
PHI = "1.61803398874989484820458683436563811772030917980576286213544862271"

# Small p/q matrices whose boxes the exact oracle can scan (ROADMAP item 2).
# Fixed rather than seeded, so the count of tie-order defects they expose,
# and with it passed_frac, does not change from seed to seed.
RATIONAL_SLICE = (
    ("rat-5_11", 1, 2, ["5/11", "-1/11"], 51),
    ("rat-3_7", 1, 1, ["3/7"], 100),
    ("rat-2_9", 1, 2, ["2/9", "5/12"], 40),
    ("rat-col", 2, 1, ["1/3", "2/5"], 200),
    ("rat-2x2", 2, 2, ["1/4", "2/7", "3/5", "-1/6"], 20),
    ("rat-1_6", 1, 2, ["1/6", "1/10"], 30),
)


def double_point(a: str, x: str, y: str):
    """[2](x, y) on y^2 = x^3 + a x + b, in exact rationals."""
    A, X, Y = Fraction(a), Fraction(x), Fraction(y)
    lam = (3 * X * X + A) / (2 * Y)
    x2 = lam * lam - 2 * X
    y2 = lam * (X - x2) - Y
    return str(x2), str(y2)


def _write(directory: str, name: str, doc) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")
    return name


def _curve_doc(key: str) -> dict:
    label, a, b, gen = CURVES[key]
    return {"label": label, "a": a, "b": b, "generator": list(gen), "rank": 1}


def _real(rng: random.Random, lo: float, hi: float) -> str:
    return repr(rng.uniform(lo, hi))


def write_matrix(directory: str, name: str, m: int, n: int, entries: List[str]) -> str:
    return _write(directory, name, {"m": m, "n": n, "entries": entries})


def command_name(argv: List[str]) -> str:
    """The CLI command of a job's argv: "curve-height", "dirichlet", ..."""
    return "-".join(argv[:2]) if argv[0] == "curve" else argv[0]


def _cli(job_id: str, argv: List[str], **meta) -> dict:
    return {"id": job_id, "kind": "cli", "argv": argv + ["--out", "{OUT}"], "meta": meta}


def _heights(directory: str, rng: random.Random) -> List[dict]:
    jobs = []
    for key in CURVES:
        path = _write(directory, key + ".json", _curve_doc(key))
        jobs.append(_cli(f"verify-{key}", ["curve", "verify", "--curve", path], curve=key))
        jobs.append(_cli(f"height-{key}", ["curve", "height", "--curve", path], curve=key))
        log_argv = ["curve", "log", "--curve", path]
        point = CURVES[key][3]
        if key == "c37a1":
            point = double_point(CURVES[key][1], *point)
            log_argv += ["--point", ",".join(point)]
        jobs.append(_cli(f"log-{key}", log_argv, curve=key, point=list(point)))
    us = [rng.uniform(0.05, 0.95) for _ in range(100)]
    path = _write(directory, "roundtrip.json", {"curve": "c110160.json", "u": us})
    jobs.append({"id": "roundtrip-c110160", "kind": "api", "fn": "roundtrip",
                 "input": path, "meta": {"curve": "c110160"}})
    for key in ("c110160", "x3m2"):
        path = _write(directory, f"multiples-{key}.json",
                      {"curve": key + ".json", "n": list(range(1, 11))})
        jobs.append({"id": f"multiples-{key}", "kind": "api", "fn": "multiples",
                     "input": path, "meta": {"curve": key}})
    return jobs


def _box_scan(directory: str, rng: random.Random) -> List[dict]:
    jobs = []
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for Q in (10, 50, 100):
                ent = [_real(rng, -3, 3) for _ in range(m * n)]
                name = f"A{m}x{n}-Q{Q}"
                path = write_matrix(directory, name + ".json", m, n, ent)
                jobs.append(_cli(name, ["dirichlet", "--matrix", path, "--Q", str(Q)],
                                 m=m, n=n, Q=Q, entries=ent))
    ent = [_real(rng, -3, 3) for _ in range(4)]
    path = write_matrix(directory, "B2x2.json", 2, 2, ent)
    jobs.append(_cli("B2x2-Q2000", ["dirichlet", "--matrix", path, "--Q", "2000"],
                     m=2, n=2, Q=2000, entries=ent))
    ent = [_real(rng, -3, 3) for _ in range(4)]
    path = write_matrix(directory, "E2x2.json", 2, 2, ent)
    jobs.append(_cli("E2x2-exponent", ["exponent", "--matrix", path, "--qmax", "1000"],
                     m=2, n=2, entries=ent))
    J = [_real(rng, -3, 3) for _ in range(4)]
    H = [_real(rng, -3, 3) for _ in range(6)]
    jp = write_matrix(directory, "J2x2.json", 2, 2, J)
    hp = write_matrix(directory, "H2x3.json", 2, 3, H)
    jobs.append(_cli("probe", ["probe", "--H", hp, "--J", jp, "--xi-samples", "3",
                               "--qmax", "100"], H=H, J=J, g=2, r=3))
    for name, m, n, ent, Q in RATIONAL_SLICE:
        path = write_matrix(directory, name + ".json", m, n, ent)
        jobs.append(_cli(name, ["dirichlet", "--matrix", path, "--Q", str(Q)],
                         m=m, n=n, Q=Q, entries=ent, rational=True))
    return jobs


def _orbit_scan(directory: str, rng: random.Random) -> List[dict]:
    jobs = []
    for key, seeds in (("c110160", (0, 1)), ("x3m2", (0,))):
        path = _write(directory, key + ".json", _curve_doc(key))
        for s in seeds:
            jobs.append(_cli(f"weak-{key}-s{s}",
                             ["weakdirichlet", "--curve", path, "--qmax", "10000000",
                              "--seed", str(s)], curve=key))
    jobs.append(_cli("minkowski-sqrt2", ["minkowski", "--alpha", SQRT2, "--gamma", "3/10",
                                         "--qmax", "10000000"], alpha=SQRT2, gamma="3/10"))
    path = write_matrix(directory, "phi.json", 1, 1, [PHI])
    jobs.append(_cli("exponent-phi", ["exponent", "--matrix", path, "--qmax", "10000000"],
                     m=1, n=1, entries=[PHI]))
    return jobs


# Fractional parts of sqrt(2), sqrt(3), sqrt(5), sqrt(7).  Fixed rather than
# seeded: the cost of a flow profile depends on the matrix (seeded 1x3
# matrices took from 2.5 s to 5 s), which would measure the draw, not the code.
_SURDS = ("0.41421356237309515", "0.7320508075688772", "0.2360679774997898",
          "0.6457513110645907")
FLOW_SHAPES = (("phi", 1, 1, [PHI], None),
               ("F1x2", 1, 2, list(_SURDS[:2]), "1.5"),
               ("F2x2", 2, 2, list(_SURDS), None),
               ("F1x3", 1, 3, list(_SURDS[:3]), None))


def _flow_game(directory: str, rng: random.Random) -> List[dict]:
    jobs = []
    for name, m, n, ent, sigma in FLOW_SHAPES:
        path = write_matrix(directory, f"flow-{name}.json", m, n, ent)
        argv = ["flow", "--matrix", path, "--tmax", "10", "--dt", "0.02"]
        if sigma is not None:
            argv += ["--sigma", sigma]
        jobs.append(_cli(f"flow-{name}", argv, m=m, n=n))
    for bob in ("random", "greedy"):
        for s in range(4):
            argv = ["haw", "--liouville", "--sigma", "3", "--rounds", "16",
                    "--seed", str(s), "--bob", bob]
            if bob == "greedy":
                argv += ["--target", "0.015625"]
            jobs.append(_cli(f"haw-{bob}-s{s}", argv))
    return jobs


_GENERATORS = {"heights": _heights, "box-scan": _box_scan,
             "orbit-scan": _orbit_scan, "flow-game": _flow_game}


def generate(workload: str, seed: int, directory: str) -> List[Dict]:
    """Write the workload's inputs for ``seed`` into ``directory``; return its jobs.

    Each part draws from its own stream, so a part's inputs for a seed do not
    depend on the parts before it.
    """
    os.makedirs(directory, exist_ok=True)
    jobs = []
    for part in PARTS[workload]:
        for job in _GENERATORS[part](directory, random.Random(f"{part}:{seed}")):
            jobs.append({"part": part, **job})
    _write(directory, "jobs.json", jobs)
    return jobs
