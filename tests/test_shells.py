"""The shell search against exact brute force, and its call sites against mpf scans.

The property tests compare both modes of `_Shells` with an integer brute
force over a common denominator on small shells.  The call-site gates rebuild
each circle search (weak Dirichlet champions, running_C and witnesses,
Minkowski lists, exponent champions, HAW certificates) as a scan of every q
at twice the working precision, for q_max <= 2 * 10^4.
"""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dioph import experiments, haw_game, reduction
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


def test_enumeration_budget_fails_fast(tmp_path):
    t0 = time.time()
    assert len(experiments.minkowski_solutions(SQRT2, "3/10", 10**9)) >= 5
    assert time.time() - t0 < 2
    # the exact 2-D reduction reaches q_max = 10^12; every witness holds exactly
    sols = experiments.minkowski_solutions(SQRT2, "3/10", 10**12)
    alpha, gamma = Fraction(SQRT2), Fraction(3, 10)
    assert len(sols) >= 5 and max(abs(q) for q, _, _ in sols) > 10**11
    assert all(abs(q) * abs(q * alpha + p - gamma) < Fraction(1, 4) for q, p, _ in sols)
    t0 = time.time()
    with pytest.raises(BudgetExceededError):
        experiments.minkowski_solutions(SQRT2, "3/10", 10**15)
    assert time.time() - t0 < 2
    code = parse_and_dispatch(["minkowski", "--alpha", SQRT2, "--gamma", "3/10",
                               "--qmax", str(10**15), "--out", str(tmp_path / "m")])
    assert code == 2
