"""best_approx by lattice enumeration against the q-box scan and an exact oracle."""

import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dioph import dioph_matrix, reduction
from dioph.dioph_matrix import RealMatrix, _canon, _exact_form, best_approx
from dioph.errors import ValidationError

PREC = 128


# ---------------------------------------------------------------------------
# reference: the q-box scan best_approx used before the lattice kernel


def _reference_exact_error(A, q, gamma, prec):
    """(error, p) for one q from the mpf entries at prec + 16 bits."""
    with mp.workprec(prec + 16):
        best_p = []
        worst = mp.mpf(0)
        for i in range(A.m):
            r = mp.fsum(A.entry(i, j) * q[j] for j in range(A.n)) - gamma[i]
            fl = mp.floor(r)
            frac = r - fl
            p_i = -int(fl) if frac < mp.mpf(1) / 2 else -int(fl) - 1
            best_p.append(p_i)
            worst = max(worst, abs(r + p_i))
        return +worst, tuple(best_p)


def _reference_best_approx(A, gamma, Q):
    """Scan of every q in [-Q, Q]^n (the upper half when gamma = 0).

    A float64 pass, then exact rescoring of every q within 2^-44 * scale of
    the float minimum, ranked by (error, sup norm, _canon(q), _canon(p)).
    Unlike the old library scan, the shortlist is not truncated.
    """
    m, n = A.m, A.n
    with mp.workprec(PREC):
        g = [mp.mpf(0)] * m if gamma is None else [mp.mpf(v) for v in gamma]
    Af = np.array([[float(A.entry(i, j)) for j in range(n)] for i in range(m)])
    gf = np.array([float(v) for v in g])
    scale = float(np.abs(Af).sum(axis=1).max()) * Q + float(np.abs(gf).max()) + 1.0
    guard = scale * 2.0**-44
    grid = np.array(list(itertools.product(range(-Q, Q + 1), repeat=n)), dtype=np.int64)
    if gamma is None:
        grid = grid[(len(grid) - 1) // 2 + 1:]
    norms = np.abs(grid).max(axis=1)
    grid, norms = grid[norms > 0], norms[norms > 0]
    R = grid.astype(np.float64) @ Af.T - gf
    E = np.abs(R - np.rint(R)).max(axis=1)
    best = None
    for i in np.nonzero(E <= E.min() + guard)[0]:
        q = tuple(int(v) for v in grid[i])
        err, p = _reference_exact_error(A, q, g, A.precision_bits)
        key = (err, int(norms[i]), _canon(q), _canon(p))
        if best is None or key < best[0]:
            best = (key, q, p, err)
    return best[1], best[2], best[3]


# ---------------------------------------------------------------------------
# exact oracle over Fractions, in the documented tie order


def _exact_oracle(rows, gamma, Q):
    """Brute force over 0 < ||q|| <= Q in integers over one common denominator."""
    A = [[Fraction(v) for v in row] for row in rows]
    g = [Fraction(0)] * len(A) if gamma is None else [Fraction(v) for v in gamma]
    D = math.lcm(*(v.denominator for v in itertools.chain(*A, g)))
    N = [[int(v * D) for v in row] for row in A]
    G = [int(v * D) for v in g]
    best_key, best_q = None, None
    for q in itertools.product(range(-Q, Q + 1), repeat=len(A[0])):
        if not any(q):
            continue
        err = 0
        for row, gi in zip(N, G):
            r = (sum(a * b for a, b in zip(row, q)) - gi) % D
            err = max(err, min(r, D - r))
        key = (err, max(abs(v) for v in q), _canon(q))
        if best_key is None or key < best_key:
            best_key, best_q = key, q
    p = []
    for row, gi in zip(N, G):
        fl, r = divmod(sum(a * b for a, b in zip(row, best_q)) - gi, D)
        p.append(-fl if 2 * r < D else -fl - 1)
    return best_q, tuple(p), Fraction(best_key[0], D)


def _check_exact(rows, gamma, Q):
    A = RealMatrix.from_rows(rows, PREC)
    rec = best_approx(A, gamma, Q)
    q, p, err = _exact_oracle(rows, gamma, Q)
    assert (rec.q, rec.p) == (q, p), (rows, gamma, Q)
    with mp.workprec(PREC):
        assert rec.error == mp.mpf(err.numerator) / err.denominator


# ---------------------------------------------------------------------------


# Floats of magnitude >= 1e-9 keep every error exact in PREC bits, so the
# scan's mpf rescoring is exact too and (q, p, error) must agree exactly.
_FLOAT = st.floats(-3, 3, allow_nan=False).filter(lambda x: x == 0 or abs(x) >= 1e-9)
_ENTRY = st.one_of(
    _FLOAT,
    # near-rational entries: a/b plus nothing, a rounding-level or a small offset
    st.builds(lambda a, b, d: a / b + d, st.integers(-6, 6), st.integers(1, 7),
              st.sampled_from([0.0, 1e-15, -1e-12, 1e-9, -3e-7])),
)


@st.composite
def _float_instances(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    Q = draw(st.integers(1, {1: 40, 2: 10, 3: 4}[n]))
    rows = [[draw(_ENTRY) for _ in range(n)] for _ in range(m)]
    gamma = draw(st.one_of(st.none(), st.lists(_FLOAT.filter(lambda x: abs(x) <= 1),
                                               min_size=m, max_size=m)))
    return rows, gamma, Q


@given(_float_instances())
def test_kernel_matches_reference_scan(inst):
    rows, gamma, Q = inst
    A = RealMatrix.from_rows(rows, PREC)
    rec = best_approx(A, gamma, Q)
    q, p, err = _reference_best_approx(A, gamma, Q)
    assert (rec.q, rec.p, rec.error) == (q, p, err)
    assert rec.q_norm == max(abs(v) for v in q)


def test_rational_matrices_against_exact_oracle():
    rng = random.Random(2024)
    for trial in range(60):
        m = 1 if trial % 2 == 0 else 2
        Q = rng.randint(1, 25 if m == 1 else 10)
        rows = [[f"{rng.randint(-13, 13)}/{rng.randint(1, 12)}" for _ in range(2)]
                for _ in range(m)]
        gamma = None
        if trial % 4 >= 2:
            gamma = [f"{rng.randint(-9, 9)}/{rng.randint(1, 10)}" for _ in range(m)]
        _check_exact(rows, gamma, Q)


def test_roadmap_tie_example():
    # parsed to mpf, rounding noise used to pick q = (1, -6) or (5, -8) here
    A = RealMatrix.from_rows([["5/11", "-1/11"]], PREC)
    rec = best_approx(A, None, 51)
    assert (rec.q, rec.p, rec.error) == ((2, -1), (-1,), 0)


def _count_reductions(monkeypatch):
    """Count the lattice reductions: exact Gauss for 1 x 1, float LLL otherwise."""
    calls = []
    for module, name in ((reduction, "_lll"), (reduction, "_gauss_reduce")):
        def counting(*args, _real=getattr(module, name), _name=name, **kw):
            calls.append(_name)
            return _real(*args, **kw)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_eps_doubling_cases(monkeypatch):
    calls = _count_reductions(monkeypatch)
    # every q is at distance exactly 1/2: eps doubles from 1/10 up to 1/2
    rec = best_approx(RealMatrix.from_rows([["0"]], PREC), "1/2", 10)
    assert (rec.q, rec.p, rec.error) == ((1,), (0,), mp.mpf(1) / 2)
    assert calls == ["_gauss_reduce"] * 4  # eps = 0.1, 0.2, 0.4, 0.8
    calls.clear()
    _check_exact([["2", "6"]], ["3/10"], 30)
    assert len(calls) > 1 and set(calls) == {"_lll"}


def test_tie_heavy_inputs_against_exact_oracle():
    _check_exact([["1/2", "1/2"]], None, 200)
    _check_exact([["2", "6"]], ["3/10"], 100)
    _check_exact([["0", "0"]], None, 100)
    # the old 256-candidate shortlist returned q = (-64, -64) here
    rec = best_approx(RealMatrix.from_rows([["2", "6"]], PREC), "0.3", 100)
    assert (rec.q, rec.p) == ((0, 1), (-6,))


def _last_convergent(x: Fraction, Q: int):
    """(p_k, q_k): the last continued-fraction convergent of x with q_k <= Q.

    Computed from the exact rational x, independently of any lattice (Cassels,
    *An Introduction to Diophantine Approximation*, ch. I).
    """
    (p0, q0), (p1, q1) = (0, 1), (1, 0)  # p_(k-2)/q_(k-2), p_(k-1)/q_(k-1)
    while True:
        a = math.floor(x)
        p, q = a * p1 + p0, a * q1 + q0
        if q > Q:
            return p1, q1
        (p0, q0), (p1, q1) = (p1, q1), (p, q)
        if x == a:
            return p1, q1
        x = 1 / (x - a)


@pytest.mark.parametrize("alpha", [
    "1.41421356237309504880168872420969807856967187537694807317667973799",
    "1.6180339887498948482045868343656381177203091798057628621354486227",
    "0.318309886183790671537767526745028724068919291480912897495334"])
@pytest.mark.parametrize("Q", [10**10, 10**11, 10**12, 10**15])
def test_homogeneous_best_approx_is_the_last_convergent(alpha, Q):
    # q <= Q < q_(k+1) has |q alpha - p| > |q_k alpha - p_k| unless q = q_k, and +q wins the tie
    x = Fraction(alpha)
    p_k, q_k = _last_convergent(x, Q)
    # at the default budget: the exact 2-D reduction keeps each enumeration box tiny
    rec = best_approx(RealMatrix.from_rows([[alpha]], PREC), None, Q)
    err = abs(q_k * x - p_k)
    assert (rec.q, rec.p) == ((q_k,), (-p_k,))
    assert rec.error == dioph_matrix._error_mpf(err.numerator, err.denominator, PREC)


def test_surd_pair_meets_dirichlet_past_the_old_q_box():
    # (2Q+1)^2 = 4e10 q-vectors, far beyond the default budget of 3e7; the
    # per-box budget is the only one, and each box here is small
    x = (Fraction("1.41421356237309504880168872420969807856967187537694807317667973799"),
         Fraction("1.73205080756887729352744634150587236694280525381038062805580697945"))
    Q = 10**5
    rec = best_approx(RealMatrix.from_rows([[str(v) for v in x]], PREC), None, Q)
    err = abs(x[0] * rec.q[0] + x[1] * rec.q[1] + rec.p[0])
    assert 0 < rec.q_norm <= Q and err <= Fraction(1, Q**2)
    assert rec.error == dioph_matrix._error_mpf(err.numerator, err.denominator, PREC)


_SQUAREFREE = [k for k in range(2, 500) if all(k % (p * p) for p in range(2, 23))]


def _surd(draw, k: int, digits: int = 60) -> str:
    """+-sqrt(k) / j to `digits` digits: for distinct squarefree k, entries that
    are linearly independent over Q together with 1."""
    j, sign = draw(st.integers(1, 7)), draw(st.sampled_from([1, -1]))
    with mp.workprec(4 * digits):
        return mp.nstr(sign * mp.sqrt(k) / j, digits)


_LADDER_Q = st.one_of(st.integers(1, 10**12), st.integers(3, 12).map(lambda e: 10**e))


# targets: floats (subnormals too, whose common denominator is ~2^1074) and fractions
_GAMMA = st.one_of(st.floats(-1, 1, allow_nan=False), st.fractions(-1, 1, max_denominator=10**6))


@given(st.data(), _LADDER_Q, st.one_of(st.none(), st.tuples(_GAMMA, _GAMMA)))
def test_ladder_diagonal_matches_two_circle_searches(data, Q, gamma):
    # err(q1, q2) = max(||alpha q1 - g1||, ||beta q2 - g2||) on diag(alpha, beta),
    # where q_i = 0 is allowed (error ||g_i||) but q = 0 is not: with e_i the
    # exact 1 x 1 minimum over 1 <= |q_i| <= Q and f_i = min(e_i, ||g_i||), the
    # least error is E = min(max(e1, f2), max(f1, e2)), and every q of the 1 x 1
    # lists of error <= E (0 where ||g_i|| <= E), but q = 0, reaches it
    alpha, beta = (_surd(data.draw, data.draw(st.sampled_from(_SQUAREFREE))) for _ in "ab")
    rec = best_approx(RealMatrix.from_rows([[alpha, "0"], ["0", beta]], PREC), gamma, Q)
    lists, e, f = [], [], []
    for x, g in zip((alpha, beta), gamma or (None, None)):
        shells = dioph_matrix._Shells(RealMatrix.scalar(x, PREC), g, Q)
        D, _, (G,) = shells.form
        fl, rem = divmod(-G, D)  # q = 0: the nearest p to gamma, the smaller at a half
        err0, p0 = (rem, -fl) if 2 * rem < D else (D - rem, -fl - 1)
        lists.append((shells, Fraction(err0, D), p0))
        e.append(Fraction(shells.min(1, Q)[0], shells.D))
        f.append(min(e[-1], lists[-1][1]))
    E = min(max(e[0], f[1]), max(f[0], e[1]))
    sides = [[(q[0], p[0]) for _err, q, p in shells.within(1, Q, E)]
             + ([(0, p0)] if err0 <= E else []) for shells, err0, p0 in lists]
    q, p = min((((q1, q2), (p1, p2)) for q1, p1 in sides[0] for q2, p2 in sides[1] if q1 or q2),
               key=lambda qp: (max(map(abs, qp[0])), _canon(qp[0])))
    assert (rec.q, rec.p) == (q, p)
    assert rec.error == dioph_matrix._error_mpf(E.numerator, E.denominator, PREC)


def _exact_inverse(M):
    """The inverse of a square integer matrix in Fractions, by Gauss-Jordan."""
    d = len(M)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
            for i, row in enumerate(M)]
    for c in range(d):
        pivot = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[d:] for row in rows]


@given(st.data(), st.sampled_from([(m, n) for m in (1, 2, 3) for n in (1, 2, 3) if m + n >= 3]),
       _LADDER_Q, st.integers(0, 40))
def test_ladder_box_holds_the_exact_dual_box(data, shape, Q, doublings):
    # the shell lattice B = diag(1/eps, 1/Q) B0 T reached along the flow:
    # every coefficient c of a point within r = 1 of the target (gamma/eps, 0),
    # whose coefficients are c0 = T^-1 (gamma, 0), has
    # |c_i - c0_i| <= ||row_i(B^-1)||_1 r, exactly in Fractions.  The integer
    # box the shell search walks around c0 is exactly that box
    m, n = shape
    ks = data.draw(st.lists(st.sampled_from(_SQUAREFREE), min_size=m * n, max_size=m * n,
                            unique=True))
    A = RealMatrix.from_rows([[_surd(data.draw, k, 40) for k in ks[i * n:(i + 1) * n]]
                              for i in range(m)], PREC)
    gamma = data.draw(st.one_of(st.none(), st.lists(_GAMMA, min_size=m, max_size=m)))
    eps = min(float(Q) ** (-n / m) * 2.0**doublings, 1.0)
    shells = dioph_matrix._Shells(A, gamma, Q)
    D, _, G = shells.form
    T, kernel_Tinv = dioph_matrix._ball_lattice(shells.form, Q, eps)
    Tinv = _exact_inverse(T)
    assert kernel_Tinv == Tinv  # the inverse carried up the ladder is exact
    c0 = [sum(t * g for t, g in zip(trow, G)) / D for trow in Tinv]  # (G, 0): first m
    box = reduction._shell_box(shells.form, kernel_Tinv, Fraction(eps), Q)
    # B0^-1 = [[I, -A], [0, I]], scaled on the right by diag(eps, Q)
    B0inv = [[Fraction(int(i == j)) for j in range(m + n)] for i in range(m + n)]
    for i in range(m):
        B0inv[i][m:] = [-x for x in A.exact[i * n:(i + 1) * n]]
    scale = [Fraction(eps)] * m + [Fraction(Q)] * n
    for i, trow in enumerate(Tinv):
        row = [sum(t * B0inv[k][j] for k, t in enumerate(trow)) * scale[j]
               for j in range(m + n)]
        half = sum(abs(x) for x in row)
        exact = (math.ceil(c0[i] - half), math.floor(c0[i] + half))
        walked = box[i]
        assert walked == exact, (i, exact, walked)


def test_ball_keeps_its_edge_points():
    # (p, q) = +-(10328364, -6383280) lies at scaled distance 0.99999926 from 0
    # in the ball of phi at Q = 1.4e7, eps = 4096/Q; float LLL columns
    # (error about 6e-8 here) lost both, the exact runs keep them
    phi = "1.6180339887498948482045868343656381177203091798057628621354486227"
    A = RealMatrix.from_rows([[phi]], PREC)
    Q, eps = 14_000_000, 4096 / 14_000_000
    for p, q in ((10328364, -6383280), (-10328364, 6383280)):
        assert abs(A.exact[0] * q + p) <= Fraction(eps) and abs(q) <= Q
    form = _exact_form(A, (Fraction(0),))
    _, runs = reduction._shell_runs(form, *reduction._circle_lattice(form, Q, eps),
                                    Fraction(eps), 1, Q)
    found = set()
    for Y, dY, u, v in runs:
        for t in range(u, v + 1):
            _, (q,), (p,) = reduction._point(form, [y + t * dy for y, dy in zip(Y, dY)])
            found.add((p, q))
    assert {(10328364, -6383280), (-10328364, 6383280)} <= found


def test_run_kernel_scores_big_entries_exactly():
    # the common denominator is about 2^81, so D (A q - gamma) passes 2^62 and
    # 2^64: every (D err, p) the kernel reports agrees with Fractions, and an
    # exact half (q = (0, 3), (0, 6), (0, 9) in the first row) goes to the smaller p
    A = RealMatrix.from_rows([[Fraction(5, 11) + Fraction(1, 2**70), "-7/3"],
                              ["0.125", -2 + Fraction(1, 2**66)]], PREC)
    gamma = (Fraction(1, 2), Fraction(-3, 7))
    shells = dioph_matrix._Shells(A, gamma, 10)
    assert max(abs(v) for row in shells.form[1] for v in row) > 2**64
    halves = 0
    listed = shells.within(1, 10, Fraction(1, 2))
    assert len(listed) == 21**2 - 1  # radius 1/2 lists the whole shell, each q once
    for err, q, p in listed + [shells.min(1, 10)]:
        r = [sum(A.exact[2 * i + j] * q[j] for j in range(2)) - gamma[i] + p[i] for i in range(2)]
        assert all(abs(x) <= Fraction(1, 2) for x in r)
        assert Fraction(1, 2) not in r  # the smaller of the two p
        halves += Fraction(-1, 2) in r
        assert Fraction(err, shells.D) == max(map(abs, r))
    assert halves > 0


def test_exact_entry_values():
    with mp.workprec(200):
        x = mp.mpf(-2) / 3
    A = RealMatrix.from_rows([["1/3", "-0.1", 7, -0.75, Fraction(-5, 9), x]], PREC)
    assert A.exact[:5] == (Fraction(1, 3), Fraction(-1, 10), Fraction(7),
                           Fraction(-3, 4), Fraction(-5, 9))
    assert A.exact[5] < 0 and abs(A.exact[5] + Fraction(2, 3)) < Fraction(1, 2**190)
    # a matrix built from mpf entries alone keeps their dyadic values
    B = RealMatrix(m=1, n=2, entries=(mp.mpf(-0.375), mp.mpf(3)))
    assert B.exact == (Fraction(-3, 8), Fraction(3))
    with pytest.raises(ValidationError):
        RealMatrix.from_rows([[float("inf")]], PREC)
    with pytest.raises(ValidationError):
        best_approx(RealMatrix.scalar("1/3", PREC), [float("nan")], 5)
