"""Acceptance gates: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here, not configurable.
"""

import itertools
import json
import math
import sys
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from dioph import analytic, ec_core, experiments, haw_game, heights
from dioph import lattice_dyn as ld
from dioph.cli import parse_and_dispatch
from dioph.dioph_matrix import (RealMatrix, best_approx, dirichlet_check,
                                exponent_estimate, liouville_number)
from dioph.ec_core import CurvePoint

from conftest import PHI_STR


def _report(capsys, num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    line = (f"[{status}] criterion {num} ({name}): {detail} "
            f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    with capsys.disabled():
        print(line, file=sys.stderr, flush=True)


def test_criterion_1_curve_example(capsys):
    t0 = time.time()
    curve = ec_core.curve_from_json(json.dumps(
        {"label": "110160.cd1", "a": "-12", "b": "-1",
         "generator": ["5", "8"], "rank": 1}))
    gen = curve.generator_hint
    ok = (ec_core.on_curve(curve, gen)
          and curve.discriminant > 0
          and ec_core.real_components(curve) == "two"
          and ec_core.on_identity_component(curve, gen))
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report(capsys, 1, "curve example", ok,
            f"(5,8) on curve, disc={curve.discriminant}, two components, "
            "generator on identity component", elapsed, 1)
    assert ok


def test_criterion_2_height_quadraticity(capsys, curve_110160, curve_mordell):
    t0 = time.time()
    worst_quad = 0.0
    worst_cross = 0.0
    for cur in (curve_110160, curve_mordell):
        P = cur.generator_hint
        h1 = heights.canonical_height_local(cur, P, 256).value
        for n in range(2, 11):
            hn = heights.canonical_height_local(cur, ec_core.scalar_mul(cur, n, P), 256).value
            worst_quad = max(worst_quad, abs(float(hn / h1) - n * n))
        lim = heights.canonical_height_limit(cur, P, n_max=11, precision_bits=256)
        worst_cross = max(worst_cross, abs(float(h1 - lim.value)))
    elapsed = time.time() - t0
    ok = worst_quad < 1e-6 and worst_cross < 1e-6 and elapsed < 30
    _report(capsys, 2, "height quadraticity", ok,
            f"max |hhat([n]Q)/hhat(Q) - n^2| = {worst_quad:.2e}, "
            f"max |limit - local| = {worst_cross:.2e}", elapsed, 30)
    assert ok


def test_criterion_3_analytic_roundtrip(capsys, curve_110160):
    t0 = time.time()
    prec = 256
    tol = mp.mpf(2) ** -128
    om = analytic.real_period(curve_110160, prec).omega
    rnd = np.random.default_rng(123)
    worst = mp.mpf(0)
    for _ in range(100):
        t = om * mp.mpf(float(rnd.uniform(0.01, 0.99)))
        pt = analytic.exp_E(curve_110160, t, prec)
        back = analytic.elliptic_log(curve_110160, pt, prec).t
        worst = max(worst, abs(back - t))
    round_ok = worst < tol
    # homomorphism vs the exact group law on 100 rational multiples
    P = curve_110160.generator_hint
    tP = analytic.elliptic_log(curve_110160, P, prec).t
    hom_worst = mp.mpf(0)
    count = 0
    for n in range(-25, 26):
        if n == 0:
            continue
        Q = ec_core.scalar_mul(curve_110160, n, P)
        if not ec_core.on_identity_component(curve_110160, Q):
            continue
        tQ = analytic.elliptic_log(curve_110160, Q, prec).t
        diff = (tQ - n * tP) % om
        hom_worst = max(hom_worst, min(diff, om - diff))
        count += 1
        for m_ in (2, 3):
            R = ec_core.scalar_mul(curve_110160, n + m_, P)
            if not ec_core.on_identity_component(curve_110160, R):
                continue
            tR = analytic.elliptic_log(curve_110160, R, prec).t
            diff = (tR - tQ - m_ * tP) % om
            hom_worst = max(hom_worst, min(diff, om - diff))
            count += 1
    elapsed = time.time() - t0
    ok = round_ok and hom_worst < mp.mpf(2) ** -100 and count >= 100 and elapsed < 60
    _report(capsys, 3, "analytic roundtrip", ok,
            f"roundtrip worst = {mp.nstr(worst, 3)} (< 2^-128), "
            f"homomorphism worst = {mp.nstr(hom_worst, 3)} on {count} multiples",
            elapsed, 60)
    assert ok


def test_criterion_4_dirichlet_floor(capsys):
    t0 = time.time()
    rng = np.random.default_rng(2026)
    failures = 0
    for _ in range(500):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        Q = int(rng.choice([10, 50, 100]))
        if (2 * Q + 1) ** n > 9_000_000:
            Q = 50 if n == 3 else Q
        A = RealMatrix.from_rows(
            [[float(rng.uniform(-3, 3)) for _ in range(n)] for _ in range(m)], 128)
        ok_one, _, _ = dirichlet_check(A, Q)
        failures += 0 if ok_one else 1
    phi_fit = exponent_estimate(RealMatrix.scalar(PHI_STR, 192), 10**6)
    liou = RealMatrix.scalar(liouville_number(precision_bits=192), 192)
    liou_fit = exponent_estimate(liou, 10**3)
    elapsed = time.time() - t0
    ok = (failures == 0 and 0.95 <= phi_fit.estimate <= 1.05
          and liou_fit.estimate > 2 and elapsed < 120)
    _report(capsys, 4, "Dirichlet floor", ok,
            f"500 matrices, {failures} failures; phi exponent = "
            f"{phi_fit.estimate:.4f}; Liouville exponent = {liou_fit.estimate:.2f}",
            elapsed, 120)
    assert ok


def test_criterion_5_lattice_dynamics(capsys):
    t0 = time.time()
    A = RealMatrix.scalar(PHI_STR, 128)
    prof = ld.flow_profile(A, 10.0, 0.02)
    slopes = ld.segment_slopes(prof)
    slope_ok = len(slopes) >= 10 and all(
        min(abs(s - 1.0), abs(s + 1.0)) < 0.02 for s in slopes)
    coincide_ok = True
    for sigma in (1.5, 2.0):  # m/n + 0.5 and m/n + 1
        p2 = ld.flow_profile(A, 10.0, 0.05, sigma=sigma)
        if len(p2.weighted_minima_times) != len(p2.minima_times):
            coincide_ok = False
            continue
        coincide_ok = coincide_ok and all(
            abs(a - b) <= 0.05 for a, b in zip(p2.weighted_minima_times, p2.minima_times))
    rng = np.random.default_rng(55)
    mahler_ok = True
    worst_lo, worst_hi = math.inf, 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        U = np.eye(d)
        for _ in range(4):
            i, j = rng.integers(0, d, size=2)
            if i != j:
                S = np.eye(d)
                S[i, j] = float(rng.integers(-2, 3))
                U = U @ S
        scales = np.exp(rng.uniform(-0.6, 0.6, size=d))
        scales /= scales.prod() ** (1.0 / d)
        L = ld.LatticeBasis.from_columns(U * scales[None, :])
        prod = ld.mahler_duality_check(L)
        worst_lo, worst_hi = min(worst_lo, prod), max(worst_hi, prod / math.factorial(d))
        mahler_ok = mahler_ok and 1.0 - 1e-9 <= prod <= math.factorial(d) + 1e-9
    # shortest vector vs exhaustive oracle on every small instance
    oracle_ok = True
    checked = 0
    for trial in range(60):
        d = int(rng.integers(2, 4))
        U = np.eye(d)
        for _ in range(3):
            i, j = rng.integers(0, d, size=2)
            if i != j:
                S = np.eye(d)
                S[i, j] = float(rng.integers(-2, 3))
                U = U @ S
        B = U * np.exp(rng.uniform(-0.5, 0.5, size=d))[None, :]
        inv = np.linalg.inv(B)
        radius = float(np.abs(B).max(axis=0).min())
        bounds = np.floor(np.abs(inv).sum(axis=1) * radius + 1e-9).astype(int)
        if np.prod(2.0 * bounds + 1) > 1e5:
            continue
        best = None
        for c in itertools.product(*[range(-b, b + 1) for b in bounds]):
            if all(v == 0 for v in c):
                continue
            nv = float(np.abs(B @ np.array(c, float)).max())
            best = nv if best is None or nv < best else best
        got = ld.shortest_vector(ld.LatticeBasis.from_columns(B))[2]
        oracle_ok = oracle_ok and abs(got - best) <= 1e-9 * max(1.0, best)
        checked += 1
    elapsed = time.time() - t0
    ok = slope_ok and coincide_ok and mahler_ok and oracle_ok and checked >= 25 \
        and elapsed < 120
    _report(capsys, 5, "lattice dynamics", ok,
            f"slopes ok ({len(slopes)} segments), minima coincide for 2 sigmas, "
            f"Mahler in [1, d!] (min {worst_lo:.3f}), oracle x{checked}",
            elapsed, 120)
    assert ok


def test_criterion_6_haw_simulation(capsys):
    t0 = time.time()
    A = RealMatrix.scalar(liouville_number(precision_bits=256), 256)
    params = haw_game.derive_strategy(A, sigma=3.0, t_max=30.0)
    games = certs = 0
    all_ok = True
    for seed in range(10):
        for policy in ("random", "greedy"):
            out = haw_game.run_game(A, sigma=3.0, rounds=12, bob_policy=policy,
                                    seed=seed, params=params,
                                    target=1.0 / 64 if policy == "greedy" else None)
            games += 1
            certs += len(out.triggered)
            all_ok = all_ok and out.all_certificates_pass and len(out.triggered) >= 1
    # exit code 0 through the CLI
    import tempfile
    with tempfile.TemporaryDirectory() as td:
        code = parse_and_dispatch(["haw", "--liouville", "--sigma", "3",
                                   "--rounds", "12", "--seed", "0",
                                   "--out", td + "/haw"])
    elapsed = time.time() - t0
    ok = all_ok and code == 0 and games == 20 and elapsed < 120
    _report(capsys, 6, "HAW simulation", ok,
            f"{games} games, {certs} triggered-stage certificates all pass, "
            f"CLI exit {code}", elapsed, 120)
    assert ok


def test_criterion_7_weak_dirichlet(capsys, curve_110160):
    t0 = time.time()
    results = []
    for seed in range(5):
        cfg = experiments.CurveExperimentConfig(curve=curve_110160, q_max=10**5,
                                                seed=seed)
        rep = experiments.weak_dirichlet_experiment(cfg)
        results.append((rep.sigma_fit.estimate, rep.minkowski_count,
                        rep.running_C_final, rep.running_C_at_100))
    band_ok = all(0.45 <= r[0] <= 0.8 for r in results)
    mink_ok = all(r[1] >= 5 for r in results)
    bounded_ok = all(r[2] < 10 * r[3] for r in results)
    elapsed = time.time() - t0
    ok = band_ok and mink_ok and bounded_ok and elapsed < 300
    _report(capsys, 7, "weak Dirichlet sigma = 1/2", ok,
            "sigma estimates " + ", ".join(f"{r[0]:.3f}" for r in results)
            + f"; witnesses >= 5 each ({[r[1] for r in results]})", elapsed, 300)
    assert ok


def test_criterion_8_oracle_equivalence(capsys):
    t0 = time.time()
    rng = np.random.default_rng(808)
    bad = 0
    for trial in range(200):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        Q = int(rng.integers(2, 150 if n == 1 else 15))
        rows = [[float(rng.uniform(-2, 2)) for _ in range(n)] for _ in range(m)]
        gamma = ([float(rng.uniform(-1, 1)) for _ in range(m)]
                 if rng.random() < 0.5 else None)
        A = RealMatrix.from_rows(rows, 128)
        rec = best_approx(A, gamma, Q)
        g = gamma if gamma is not None else [0.0] * m
        best = None
        for qv in itertools.product(range(-Q, Q + 1), repeat=n):
            if all(v == 0 for v in qv):
                continue
            worst = 0.0
            for i in range(m):
                r = sum(rows[i][j] * qv[j] for j in range(n)) - g[i]
                worst = max(worst, abs(r - round(r)))
            if best is None or worst < best:
                best = worst
        if abs(float(rec.error) - best) > 1e-10:
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 60
    _report(capsys, 8, "oracle equivalence", ok,
            f"200 instances, {bad} disagreements with the naive double loop",
            elapsed, 60)
    assert ok


def test_criterion_9_cli_determinism(capsys, curve_file_110160, tmp_path):
    t0 = time.time()
    cases = [
        ["weakdirichlet", "--curve", curve_file_110160, "--qmax", "20000", "--seed", "6"],
        ["haw", "--liouville", "--sigma", "3", "--rounds", "12", "--seed", "3"],
        ["exponent", "--liouville", "--qmax", "1000"],
        ["flow", "--matrix", None, "--tmax", "5", "--dt", "0.05"],
        ["minkowski", "--alpha", "1.41421356237309504880168872420969808",
         "--gamma", "0.3", "--qmax", "2000"],
    ]
    mat = tmp_path / "phi.json"
    mat.write_text(json.dumps({"m": 1, "n": 1,
                               "entries": ["1.6180339887498948482045868343656381177"]}))
    identical = True
    for i, args in enumerate(cases):
        args = [str(mat) if a is None else a for a in args]
        o1, o2 = str(tmp_path / f"a{i}"), str(tmp_path / f"b{i}")
        assert parse_and_dispatch(args + ["--out", o1]) == 0
        assert parse_and_dispatch(args + ["--out", o2]) == 0
        for ext in (".json", ".csv"):
            p1, p2 = o1 + ext, o2 + ext
            try:
                with open(p1, "rb") as f1, open(p2, "rb") as f2:
                    identical = identical and f1.read() == f2.read()
            except FileNotFoundError:
                pass
    elapsed = time.time() - t0
    ok = identical
    _report(capsys, 9, "CLI determinism", ok,
            f"{len(cases)} commands re-run byte-identical", elapsed, 60)
    assert ok
