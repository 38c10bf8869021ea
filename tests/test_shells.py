"""The shell search against exact brute force, and its call sites against mpf scans.

The property tests compare both modes of `_Shells` with an integer brute
force over a common denominator on small shells.  The call-site gates rebuild
each circle search (weak Dirichlet champions, running_C and witnesses,
Minkowski lists, exponent champions, HAW certificates) as a scan of every q
at twice the working precision, for q_max <= 2 * 10^4.
"""

import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dioph import dioph_matrix, experiments, haw_game, reduction
from dioph.cli import parse_and_dispatch
from dioph.dioph_matrix import (RealMatrix, _Shells, exponent_estimate,
                                liouville_number)
from dioph.errors import BudgetExceededError

from conftest import PHI_STR

PREC = 128
SQRT2 = "1.41421356237309504880168872420969807856967187537694807317667973799"


# ---------------------------------------------------------------------------
# exact brute force over a shell


def _order(q):
    """The documented order within one error: sup-norm, then 0, 1, -1, 2, -2, ..."""
    return (max(abs(v) for v in q), tuple((abs(v), v < 0) for v in q))


def _brute_shell(rows, gamma, lo, hi):
    """(D, [(D err, q, p)]) for every q with lo <= ||q|| <= hi, in integers."""
    A = [[Fraction(v) for v in row] for row in rows]
    g = [Fraction(0)] * len(A) if gamma is None else [Fraction(v) for v in gamma]
    D = math.lcm(*(v.denominator for v in itertools.chain(*A, g)))
    N = [[int(v * D) for v in row] for row in A]
    G = [int(v * D) for v in g]
    out = []
    for q in itertools.product(range(-hi, hi + 1), repeat=len(A[0])):
        if not lo <= max(abs(v) for v in q) <= hi:
            continue
        err, p = 0, []
        for row, gi in zip(N, G):
            fl, r = divmod(sum(a * b for a, b in zip(row, q)) - gi, D)
            p.append(-fl if 2 * r < D else -fl - 1)
            err = max(err, min(r, D - r))
        out.append((err, q, tuple(p)))
    return D, out


_ENTRY = st.one_of(
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-13, 13), st.integers(1, 12)),
    st.builds(lambda a: f"{a / 10**6:.6f}", st.integers(-3 * 10**6, 3 * 10**6)),
)


@st.composite
def _shell_instances(draw):
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    hi = draw(st.integers(1, 300 if n == 1 else 25))
    lo = draw(st.integers(1, hi))
    rows = [[draw(_ENTRY) for _ in range(n)] for _ in range(m)]
    gamma = draw(st.one_of(st.none(), st.lists(_ENTRY, min_size=m, max_size=m)))
    return rows, gamma, lo, hi, draw(st.integers(0, 10**6))


def _check_against_brute_force(rows, gamma, lo, hi, pick):
    shells = _Shells(RealMatrix.from_rows(rows, PREC), gamma, hi)
    D, table = _brute_shell(rows, gamma, lo, hi)
    assert shells.D == D
    # min mode: the minimiser in the documented order
    best = min(table, key=lambda t: (t[0],) + _order(t[1]))
    assert shells.min(lo, hi) == best
    # list mode at the exact error of a drawn q: the boundary is inclusive
    radius = Fraction(table[pick % len(table)][0], D)
    listed = sorted((t for t in table if Fraction(t[0], D) <= radius),
                    key=lambda t: _order(t[1]))
    assert shells.within(lo, hi, radius) == listed
    exact = sorted((t for t in table if t[0] == 0), key=lambda t: _order(t[1]))
    assert shells.within(lo, hi, Fraction(0)) == exact


@given(_shell_instances())
def test_shell_search_matches_exact_brute_force(inst):
    _check_against_brute_force(*inst)


@pytest.mark.parametrize("rows, radius", [([["1/3", "1/3"]], Fraction(1, 3)),
                                          ([["1/4", "1/2"]], Fraction(1, 4))])
def test_within_keeps_the_errors_on_the_balls_edge(rows, radius):
    # every error here is 0 or at least the radius, and float(1/3) < 1/3: the
    # ball of eps = float(radius) would miss the q whose error is the radius
    D, table = _brute_shell(rows, None, 1, 12)
    listed = sorted((t for t in table if Fraction(t[0], D) <= radius), key=lambda t: _order(t[1]))
    assert any(Fraction(t[0], D) == radius for t in listed)
    assert _Shells(RealMatrix.from_rows(rows, PREC), None, 12).within(1, 12, radius) == listed


@given(_ENTRY, st.one_of(st.none(), st.lists(_ENTRY, min_size=1, max_size=1)),
       st.integers(1, 300), st.integers(0, 10**6), st.integers(0, 12))
def test_gauss_reduction_of_circle_lattices(alpha, gamma, hi, pick, doublings):
    # the scaled integer columns of `_ball_lattice` at one eps of a min search
    x = Fraction(alpha)
    eps = min(float(hi) ** -1 * 2**doublings, 1.0)
    a, b = eps.as_integer_ratio()
    u, v = (x.denominator * b * hi, 0), (x.numerator * b * hi, x.denominator * a)
    T = reduction._gauss_reduce(u, v)
    assert T[0][0] * T[1][1] - T[0][1] * T[1][0] in (1, -1)
    b1, b2 = ([u[i] * T[0][j] + v[i] * T[1][j] for i in range(2)] for j in range(2))
    n1, n2, dot = (sum(s * t for s, t in zip(*w)) for w in ((b1, b1), (b2, b2), (b1, b2)))
    assert n1 <= n2 and 2 * abs(dot) <= n1
    # both search modes on the reduced lattice
    _check_against_brute_force([[alpha]], gamma, 1 + pick % hi, hi, pick)


@st.composite
def _skewed_circles(draw):
    """alpha = a/b + -2^-k (or a/b: ties), gamma None, a half-integer over 2b or near the orbit."""
    a, b = draw(st.integers(-13, 13)), draw(st.integers(1, 12))
    alpha = Fraction(a, b)
    k = draw(st.one_of(st.none(), st.integers(4, 80)))
    if k is not None:
        alpha += draw(st.sampled_from([1, -1])) * Fraction(1, 2**k)
    hi = draw(st.integers(1, 5000))
    lo = draw(st.integers(1, hi))
    kind = draw(st.sampled_from(["none", "half", "orbit"]))
    if kind == "none":
        gamma = None
    elif kind == "half":
        gamma = [f"{2 * draw(st.integers(-b, b)) + 1}/{2 * b}"]
    else:  # j alpha + i, nudged by 0 or +-2^-e: exact hits and near-ties
        j, i = draw(st.integers(-hi, hi)), draw(st.integers(-3, 3))
        e = draw(st.integers(1, 90))
        gamma = [str(j * alpha + i + draw(st.sampled_from([0, 1, -1])) * Fraction(1, 2**e))]
    return [[str(alpha)]], gamma, lo, hi, draw(st.integers(0, 10**6))


@given(_skewed_circles())
@example(([["-0.000002"]], ["0.000005"], 1, 3, 0))  # the least |X| of a run at ceil(root)
@example(([["-1/2"]], ["1/2"], 2, 2, 1))  # X = D/2: the nearest p is the smaller one
def test_circle_kernel_on_skewed_lattices(inst):
    rows, gamma, lo, hi, pick = inst
    _check_against_brute_force(rows, gamma, lo, hi, pick)
    # radius 1/2 lists the whole shell, each q once with its nearest p
    shells = _Shells(RealMatrix.from_rows(rows, PREC), gamma, hi)
    _, table = _brute_shell(rows, gamma, lo, hi)
    assert shells.within(lo, hi, Fraction(1, 2)) == sorted(table, key=lambda t: _order(t[1]))


# ---------------------------------------------------------------------------
# the run kernel against an exact walk of the q-box


def _ball_points(form, radius, lo, hi):
    """{(p, q)} with lo <= ||q|| <= hi and ||D p + N q - G|| <= D radius: every q walked, p solved."""
    D, N, G = form
    out = set()
    for q in itertools.product(range(-hi, hi + 1), repeat=len(N[0])):
        if lo <= max(map(abs, q)) <= hi:
            c = [sum(a * b for a, b in zip(row, q)) - g for row, g in zip(N, G)]  # X = D p + c
            out.update((p, q) for p in itertools.product(*(
                range(math.ceil(-radius - Fraction(x, D)), math.floor(radius - Fraction(x, D)) + 1)
                for x in c)))
    return out


def _kernel_points(form, T, Tinv, radius, lo, hi):
    """[(p, q)] of every point of every run of `reduction._shell_runs`, p from X = D p + N q - G."""
    D, N, G = form
    n = len(T) - len(N)
    out = []
    for Y, dY, u, v in reduction._shell_runs(form, T, Tinv, radius, lo, hi)[1]:
        for t in range(u, v + 1):
            pt = [y + t * dy for y, dy in zip(Y, dY)]
            q, X = pt[:n], pt[n:]
            p = [divmod(x + g - sum(a * b for a, b in zip(row, q)), D) for x, g, row in zip(X, G, N)]
            assert all(r == 0 for _, r in p)
            out.append((tuple(k for k, _ in p), tuple(q)))
    return out


_RUN_ENTRY = st.one_of(
    st.builds(Fraction, st.integers(-13, 13), st.integers(1, 6)),  # rational: long runs
    st.builds(lambda a, b, k: Fraction(a, b) + Fraction(1, 2**k),
              st.integers(-13, 13), st.integers(1, 6), st.integers(3, 60)),
    st.builds(lambda a: Fraction(a, 10**6), st.integers(-3 * 10**6, 3 * 10**6)),
)


@st.composite
def _run_instances(draw):
    """(rows, gamma, lo, hi, doublings, radius) of a shell with 2 <= m + n <= 6."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6 - m))
    hi = draw(st.integers(1, {1: 40, 2: 10, 3: 4, 4: 2, 5: 2}[n]))
    rows = [[str(draw(_RUN_ENTRY)) for _ in range(n)] for _ in range(m)]
    gamma = draw(st.one_of(st.none(), st.lists(_RUN_ENTRY.map(str), min_size=m, max_size=m)))
    radius = draw(st.one_of(st.just(Fraction(0)), st.just(Fraction(1, 2)),
                            st.fractions(0, Fraction(1, 2), max_denominator=60)))
    return rows, gamma, draw(st.integers(1, hi)), hi, draw(st.integers(0, 12)), radius


@given(_run_instances())
@example(([["1/2", "1/2"]], None, 1, 20, 0, Fraction(1, 7)))
@example(([["2", "6"]], ["3/10"], 1, 12, 3, Fraction(0)))
@example(([[0.3141, -1.25], [0.77, 2.5]], [0.1, -0.45], 1, 15, 2, Fraction(1, 5)))
@example(([[1.618033988749895, 0.4142135623730951, 0.7320508075688772]], None, 1, 6, 0,
          Fraction(1, 2)))
@example(([["1/2", "1/2"], ["0", "1"]], ["1/2", "1/2"], 1, 3, 12, Fraction(1, 2)))  # X_2 = D/2
def test_run_kernel_matches_exact_box_walk(inst):
    rows, gamma, lo, hi, doublings, radius = inst
    A = RealMatrix.from_rows(rows, PREC)
    shells = _Shells(A, gamma, hi)
    D, N, G = form = shells.form
    eps = min(float(hi) ** (-A.n / A.m) * 2.0**doublings, 0.99)
    T, Tinv = shells._lattice(form, hi, eps)
    for r in (Fraction(eps), radius):
        # the runs hold each point of the ball once, and nothing else
        points = _kernel_points(form, T, Tinv, r, lo, hi)
        assert len(points) == len(set(points)) and set(points) == _ball_points(form, r, lo, hi)
    # min: the least (D err, ||q||, _canon(q)) of the ball, its p the nearest
    _, table = _brute_shell(rows, gamma, lo, hi)
    ball = [t for t in table if t[0] <= Fraction(eps) * D]
    best = min(ball, key=lambda t: (t[0],) + _order(t[1])) if ball else None
    assert reduction._shell_best(form, T, Tinv, Fraction(eps), lo, hi) == best
    # list: every q of the ball once, with its nearest p
    listed = reduction._shell_points(form, T, Tinv, radius, lo, hi)
    assert sorted(listed) == sorted(t for t in table if t[0] <= radius * D)
    # the whole search, eps doubling included
    assert shells.min(lo, hi) == min(table, key=lambda t: (t[0],) + _order(t[1]))


@given(st.integers(1, 2**40), st.integers(1, 2**200), st.integers(0, 400),
       st.sampled_from([(1, 1, 1), ("6.0983", "0.0511", 2), ("0.37", "3.5", 2)]))
def test_log_score_estimate_and_radius_bounds(qn, err, bits, chk):
    c, h, k = chk
    D = 2 * err + (1 << bits)  # err <= D / 2
    shells = _Shells(RealMatrix.from_rows([[f"1/{D}"]], 256), None, 1)
    score = dioph_matrix._LogScore(shells, mp.mpf(c), mp.mpf(h), k)
    exact = score(qn, err)
    v, bound = score.estimate(qn, err)
    assert bound == math.inf or abs(mp.mpf(v) - exact) <= bound
    if mp.mpf(h) * qn**k > 1 and exact > 0:
        # every q with ||q|| >= qn scoring >= exact has err <= radius, and so does this one
        radius = score.radius_for(v - bound, qn)
        assert Fraction(err, D) <= radius
        with mp.workprec(512):
            assert mp.mpf(radius.numerator) / radius.denominator >= \
                (mp.mpf(h) * qn**k) ** (-exact) / mp.mpf(c)


def test_float_ties_are_ranked_at_working_precision():
    # err(1000) = 1/3 + 2^-220 and err(-1000) = 1/3 - 2^-220 have one float
    # score; -1000 wins at working precision, +1000 would win a tie
    shells = _Shells(RealMatrix.from_rows([["1/3"]], 256), [-Fraction(1, 2**220)], 1000)
    score = dioph_matrix._LogScore(shells)
    listed = shells.within(1000, 1000, Fraction(1, 2))
    (e_pos, q_pos, _), (e_neg, q_neg, _) = listed
    assert (q_pos, q_neg) == ((1000,), (-1000,))
    assert score.estimate(1000, e_pos)[0] == score.estimate(1000, e_neg)[0]
    assert score(1000, e_neg) > score(1000, e_pos)
    every = min(((score(1000, e), e, q, p) for e, q, p in listed), key=dioph_matrix._champion_rank)
    best = dioph_matrix._shell_argmax(shells, 1000, 1000, score, score.radius_for)
    assert best == every and best[2] == (-1000,)


@given(_ENTRY, st.one_of(_ENTRY, st.just("1/2")), st.integers(1, 400), st.integers(0, 10**6))
def test_running_constant_from_witnesses(alpha, gamma, q_max, pick):
    shells = _Shells(RealMatrix.from_rows([[alpha]], PREC), gamma, q_max)
    found = experiments._witnesses(shells, q_max)
    # points at, just below and above the first witnesses, and two drawn ones
    points = {1, q_max, 1 + pick % q_max, 1 + (pick // 7) % q_max}
    points |= {min(max(abs(q) + d, 1), q_max) for q, _, _ in found[:3] for d in (-1, 0, 1)}
    points = sorted(points)
    got = experiments._running_from_witnesses(shells, found, points)
    want = experiments._running_products(shells, points)
    assert {x: got[x] for x in points} == {x: want[x] for x in points}


def test_running_constant_without_witnesses():
    # err(q) = 1/2 for every q: no witness, and M(x) = 1/2 (at q = 1) comes from the shells alone
    shells = _Shells(RealMatrix.from_rows([["0"]], PREC), "1/2", 50)
    assert experiments._witnesses(shells, 50) == []
    got = experiments._running_from_witnesses(shells, [], [1, 7, 50])
    assert [Fraction(got[x], shells.D) for x in (1, 7, 50)] == [Fraction(1, 2)] * 3


# ---------------------------------------------------------------------------
# call sites against mpf scans at twice the working precision


def _circle_scan(alpha, gamma, q_max, prec):
    """{q: (d, p)} over 0 < |q| <= q_max, d = |q alpha + p - gamma| at 2 prec."""
    out = {}
    with mp.workprec(2 * prec):
        a, g = mp.mpf(alpha), mp.mpf(gamma)
        for q in range(1, q_max + 1):
            for s in (q, -q):
                r = s * a - g
                p = -int(mp.nint(r))
                out[s] = (abs(r + p), p)
    return out


def test_weak_dirichlet_matches_mpf_scan(curve_110160):
    prec, q_max = 192, 20_000
    rep = experiments.weak_dirichlet_experiment(experiments.CurveExperimentConfig(
        curve=curve_110160, q_max=q_max, precision_bits=prec, seed=3))
    with mp.workprec(2 * prec):
        g_norm = rep.gamma / rep.omega
        scan = _circle_scan(rep.alpha, g_norm, q_max, prec)
        # per |q|: the better sign (+q on a tie), then the best sample per window
        best = {}
        for q in range(1, q_max + 1):
            s = q if scan[q][0] <= scan[-q][0] else -q
            d = scan[s][0] * rep.omega
            best[q] = (s, d, -mp.log(d) / mp.log(rep.hhat_Q * q * q))
        run, at = mp.inf, {}
        for q in range(1, q_max + 1):
            run = min(run, best[q][1] * mp.sqrt(rep.hhat_Q * q * q))
            at[q] = run
        k, champs = 0, []
        while 2**k <= q_max:
            window = range(2**k, min(2 ** (k + 1) - 1, q_max) + 1)
            champs.append(best[max(window, key=lambda q: (best[q][2], -q))])
            k += 1
        witnesses = sorted((s, -scan[s][1]) for s in scan if abs(s) * scan[s][0] < 0.25)
    assert [r.q[0] for r in rep.records] == [c[0] for c in champs]
    for r, (s, d, _) in zip(rep.records, champs):
        assert abs(r.error - d) <= d * mp.mpf(2) ** (-prec + 8)
    assert rep.running_C == [float(at[abs(r.q[0])]) for r in rep.records]
    assert rep.running_C_at_100 == float(at[100])
    assert rep.running_C_final == float(at[q_max])
    assert rep.minkowski_count == len(witnesses) <= 64
    assert sorted((q, p) for q, p, _ in rep.minkowski_witnesses) == witnesses


def test_running_products_match_brute_force():
    # many cut points make pieces whose |q| err minimiser is not the err minimiser
    rows, gamma, q_max = [["0.414214"]], ["3/10"], 3000
    shells = _Shells(RealMatrix.from_rows(rows, PREC), gamma, q_max)
    D, table = _brute_shell(rows, gamma, 1, q_max)
    points = sorted({1 + (37 * i * i) % q_max for i in range(120)} | {q_max})
    got = experiments._running_products(shells, points)
    best, expect = None, {}
    for qn in range(1, q_max + 1):
        prods = [abs(q[0]) * err for err, q, _ in table if abs(q[0]) == qn]
        best = min(prods) if best is None else min(best, min(prods))
        expect[qn] = best
    assert {x: got[x] for x in points} == {x: expect[x] for x in points}
    # each piece on its own, where the |q| err minimiser often differs
    for lo in range(1, q_max // 2, 7):
        hi = min(2 * lo - 1, q_max) if lo > 1 else 1
        piece = min(abs(q[0]) * err for err, q, _ in table if lo <= abs(q[0]) <= hi)
        assert experiments._min_product(shells, lo, hi) == piece


def test_minkowski_matches_mpf_scan():
    q_max = 20_000
    sols = experiments.minkowski_solutions(SQRT2, "3/10", q_max, PREC)
    with mp.workprec(2 * PREC):
        scan = _circle_scan(mp.mpf(SQRT2), mp.mpf(3) / 10, q_max, PREC)
        expect = sorted(((q, p, float(abs(q) * d)) for q, (d, p) in scan.items()
                         if abs(q) * d < mp.mpf(1) / 4),
                        key=lambda t: (abs(t[0]), t[0] > 0))
    assert sols == expect


@pytest.mark.parametrize("rows,Q_max", [([[PHI_STR]], 20_000), ([["0.3183098861837907"]], 20_000),
                                        ([[0.7071067811865476, -1.2599210498948732]], 60)])
def test_exponent_champions_match_mpf_scan(rows, Q_max):
    A = RealMatrix.from_rows(rows, PREC)
    fit = exponent_estimate(A, Q_max)
    n = A.n
    with mp.workprec(2 * PREC):
        a = [mp.mpf(v) for v in rows[0]]
        champs = {}
        for q in itertools.product(range(-Q_max, Q_max + 1), repeat=n):
            qn = max(abs(v) for v in q)
            if qn < (1 if n == 1 else 2):
                continue
            r = mp.fsum(x * v for x, v in zip(a, q))
            err = abs(r - mp.nint(r))
            score = -mp.inf if qn == 1 else -mp.log(err) / mp.log(qn)
            k = qn.bit_length() - 1
            key = (-score, _order(q))
            if k not in champs or key < champs[k][0]:
                champs[k] = (key, q, err)
    got = [(c["q"], c["error"]) for c in fit.champions]
    assert [q for q, _ in got] == [champs[k][1] for k in sorted(champs)]
    assert [e for _, e in got] == [float(champs[k][2]) for k in sorted(champs)]


def test_haw_certificate_matches_mpf_scan():
    A = RealMatrix.scalar(liouville_number(precision_bits=256), 256)
    for Qk, gamma in ((37.5, 0.2718281828), (1000.0, 0.015625), (20_000.0, 0.6180339887)):
        stage = haw_game.Stage(index=0, t=1.0, a_norm=1.0, grid_denominator=1.0,
                               halfwidth=0.0, band_lo=0.0, band_hi=0.0, Q=Qk,
                               threshold=1e-9, spacing=1.0)
        cert = haw_game._certificate(A, gamma, stage)
        top = math.ceil(Qk) - 1
        scan = _circle_scan(A.entry(0, 0), gamma, top, 256)
        assert cert["checked"] == 2 * top
        assert cert["min_error"] == float(min(d for d, _ in scan.values()))


# ---------------------------------------------------------------------------
# memory and budgets


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_circle_searches_hold_no_q_max_arrays(curve_110160):
    cfg = experiments.CurveExperimentConfig(curve=curve_110160, q_max=10**7, seed=0)
    assert _peak_mb(lambda: experiments.minkowski_solutions(SQRT2, "3/10", 10**7)) < 16
    assert _peak_mb(lambda: experiments.weak_dirichlet_experiment(cfg)) < 16


def _witnesses_hold(sols, alpha, gamma, q_max):
    """Every (q, p) has |q| <= q_max and |q| |q alpha + p - gamma| < 1/4, in Fractions."""
    alpha, gamma = Fraction(alpha), Fraction(gamma)
    return all(0 < abs(q) <= q_max and abs(q) * abs(q * alpha + p - gamma) < Fraction(1, 4)
               for q, p in sols)


def test_enumeration_budget_fails_fast(tmp_path):
    # the exact 1 x 1 kernel has no float centre, so the witnesses reach q_max = 10^15
    for q_max in (10**9, 10**12, 10**13, 10**15):
        t0 = time.time()
        sols = experiments.minkowski_solutions(SQRT2, "3/10", q_max)
        assert time.time() - t0 < 2
        assert len(sols) >= 5 and max(abs(q) for q, _, _ in sols) > q_max // 10
        assert _witnesses_hold([(q, p) for q, p, _ in sols], SQRT2, "3/10", q_max)
    out = tmp_path / "m"
    assert parse_and_dispatch(["minkowski", "--alpha", SQRT2, "--gamma", "3/10",
                               "--qmax", str(10**15), "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["count"] == len(sols) == len(doc["solutions"])
    assert _witnesses_hold([(s["q"], s["p"]) for s in doc["solutions"]], SQRT2, "3/10", 10**15)
    # a radius-1/2 listing of a shell of 2^23 points still exceeds the budget, at once
    shells = _Shells(RealMatrix.from_rows([[SQRT2]], PREC), "3/10", 2**22)
    t0 = time.time()
    with pytest.raises(BudgetExceededError, match="exceeds budget"):
        shells.within(1, 2**22, Fraction(1, 2))
    assert time.time() - t0 < 2


def test_weak_dirichlet_reaches_1e13(curve_110160, curve_file_110160, tmp_path):
    q_max = 10**13
    rep = experiments.weak_dirichlet_experiment(experiments.CurveExperimentConfig(
        curve=curve_110160, q_max=q_max, seed=0))
    assert len(rep.records) == q_max.bit_length() and rep.minkowski_count >= 20
    with mp.workprec(rep.precision_bits + 16):
        g_norm = +(rep.gamma / rep.omega)  # the target the circle search was given
    with mp.workprec(2 * rep.precision_bits):
        for r in rep.records:  # each d is |gamma - q theta + p omega| at working precision
            d = abs(g_norm - r.q[0] * rep.alpha + r.p[0]) * rep.omega
            assert abs(r.error - d) <= d * mp.mpf(2) ** (8 - rep.precision_bits)
    alpha, gamma = (Fraction(*mp.libmp.to_rational(x._mpf_)) for x in (rep.alpha, g_norm))
    assert _witnesses_hold([(q, -p) for q, p, _ in rep.minkowski_witnesses], alpha, gamma, q_max)
    assert parse_and_dispatch(["weakdirichlet", "--curve", curve_file_110160, "--qmax", str(q_max),
                               "--seed", "0", "--out", str(tmp_path / "w")]) == 0
