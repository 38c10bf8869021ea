import itertools
import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from dioph import dioph_matrix, reduction
from dioph import lattice_dyn as ld
from dioph.dioph_matrix import RealMatrix
from dioph.errors import BudgetExceededError, SingularMatrixError, ValidationError

from conftest import PHI_STR

PHI = float(np.float64(1.6180339887498949))


def brute_shortest(basis, radius=None):
    """Independent oracle: complete coefficient box straight off the raw basis
    (|c_i| <= ||row_i(B^-1)||_1 * R), no reduction step anywhere."""
    d = basis.shape[0]
    if radius is None:
        radius = float(np.abs(basis).max(axis=0).min())  # a column's sup norm
    inv = np.linalg.inv(basis)
    bounds = np.floor(np.abs(inv).sum(axis=1) * radius + 1e-9).astype(int)
    best = None
    for c in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if all(v == 0 for v in c):
            continue
        v = basis @ np.array(c, dtype=float)
        n = np.abs(v).max()
        if best is None or n < best:
            best = n
    return best


def random_unimodular(rng, d):
    """Integer shear products (det = 1) times a det-1 diagonal."""
    U = np.eye(d)
    for _ in range(4):
        i, j = rng.integers(0, d, size=2)
        if i != j:
            S = np.eye(d)
            S[i, j] = float(rng.integers(-2, 3))
            U = U @ S
    scales = np.exp(rng.uniform(-0.6, 0.6, size=d))
    scales /= scales.prod() ** (1.0 / d)
    return (U * scales[None, :])


def _reference_lll(cols, delta=0.75):
    """LLL that recomputes all of Gram-Schmidt after every step: the oracle
    for the in-place updates of `reduction._lll`."""
    B = cols.astype(np.float64).copy()
    d = B.shape[1]
    T = np.eye(d, dtype=np.int64)

    def gram_schmidt():
        Bs = np.zeros_like(B)
        mu = np.zeros((d, d))
        norms = np.zeros(d)
        for i in range(d):
            Bs[:, i] = B[:, i]
            for j in range(i):
                mu[i, j] = 0.0 if norms[j] == 0 else float(B[:, i] @ Bs[:, j]) / norms[j]
                Bs[:, i] -= mu[i, j] * Bs[:, j]
            norms[i] = float(Bs[:, i] @ Bs[:, i])
        return mu, norms

    mu, norms = gram_schmidt()
    k = 1
    iters = 0
    while k < d:
        iters += 1
        if iters > 10000:
            break
        for j in range(k - 1, -1, -1):
            r = round(mu[k, j])
            if r != 0:
                B[:, k] -= r * B[:, j]
                T[:, k] -= r * T[:, j]
                mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            B[:, [k - 1, k]] = B[:, [k, k - 1]]
            T[:, [k - 1, k]] = T[:, [k, k - 1]]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return B, T


def _fraction_rank(rows):
    """Rank over Q by Gaussian elimination in Fractions: the oracle for
    the fraction-free `ld._exact_rank`."""
    mat = [[Fraction(int(v)) for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c]
        for r in range(rank + 1, len(mat)):
            if mat[r][c] != 0:
                f = mat[r][c] * inv
                for cc in range(c, ncols):
                    mat[r][cc] -= f * mat[rank][cc]
        rank += 1
    return rank


def test_from_matrix_structure():
    A = RealMatrix.scalar(PHI_STR, 64)
    L = ld.from_matrix(A)
    assert np.allclose(L.basis, np.array([[1.0, float(A.entry(0, 0))], [0.0, 1.0]]))
    assert abs(L.det_abs - 1.0) < 1e-12
    Z = ld.from_matrix(np.zeros((2, 1)))
    assert np.allclose(Z.basis, np.eye(3))


@pytest.mark.parametrize("rows", [[[0.0, 1.0], [7.9e-274, 1.0]],
                                  [[0.0, 7.9e-274], [2.27e6, 0.469]]])
def test_from_columns_rejects_underflowing_gram_schmidt(rows):
    # |det| is 7.9e-274 and 1.8e-267, both accepted by the determinant test,
    # but a squared Gram-Schmidt norm is 0.0 in floats and LLL has no answer
    cols = np.array(rows)
    assert float(abs(np.linalg.det(cols))) >= 1e-300
    assert min(reduction._gram_schmidt(cols.T.tolist())[1]) == 0.0
    with pytest.raises(SingularMatrixError):
        ld.LatticeBasis.from_columns(cols)


def test_apply_flow():
    Z = ld.from_matrix(np.zeros((1, 1)))
    assert np.allclose(ld.apply_flow(Z, 0.0, 1, 1).basis, Z.basis)
    back = ld.apply_flow(ld.apply_flow(Z, 1.7, 1, 1), -1.7, 1, 1)
    assert np.allclose(back.basis, Z.basis, atol=1e-13)
    g = ld.apply_flow(Z, math.log(2), 1, 1)
    assert np.allclose(g.basis, np.diag([2.0, 0.5]))


def test_shortest_vector_examples():
    for d in (2, 3, 4):
        L = ld.LatticeBasis.from_columns(np.eye(d))
        v, c, n = ld.shortest_vector(L)
        assert n == pytest.approx(1.0)
    Lphi = ld.from_matrix(RealMatrix.scalar(PHI_STR, 64))
    assert ld.shortest_vector(Lphi)[2] == pytest.approx(1.0)
    D = ld.LatticeBasis.from_columns(np.diag([2.0, 0.5]))
    assert ld.shortest_vector(D)[2] == pytest.approx(0.5)


def test_shortest_vector_against_oracle():
    rng = np.random.default_rng(8)
    checked = 0
    for trial in range(60):
        d = int(rng.integers(2, 5))
        B = random_unimodular(rng, d)
        inv = np.linalg.inv(B)
        radius = float(np.abs(B).max(axis=0).min())
        box = np.prod(2 * np.floor(np.abs(inv).sum(axis=1) * radius) + 1)
        if box > 2e5:
            continue  # keep the pure-python oracle honest but affordable
        L = ld.LatticeBasis.from_columns(B)
        n = ld.shortest_vector(L)[2]
        oracle = brute_shortest(B)
        assert n == pytest.approx(oracle, rel=1e-9), trial
        checked += 1
    assert checked >= 30


def test_successive_minima_examples():
    for d in (2, 3):
        L = ld.LatticeBasis.from_columns(np.eye(d))
        lengths, _, _ = ld.successive_minima(L, d)
        assert np.allclose(lengths, 1.0)
    D = ld.LatticeBasis.from_columns(np.diag([2.0, 0.5]))
    lengths, _, _ = ld.successive_minima(D, 2)
    assert lengths == pytest.approx([0.5, 2.0])


def test_successive_minima_independence():
    # lambda_2 must be linearly independent from lambda_1's vector
    rng = np.random.default_rng(21)
    for _ in range(20):
        B = random_unimodular(rng, 3)
        L = ld.LatticeBasis.from_columns(B)
        lengths, vecs, coeffs = ld.successive_minima(L, 3)
        assert lengths[0] <= lengths[1] <= lengths[2]
        assert ld._exact_rank([c for c in coeffs]) == 3


def test_lll_matches_reference():
    rng = np.random.default_rng(12)
    bases = []
    for _ in range(150):
        d = int(rng.integers(2, 5))
        bases.append(random_unimodular(rng, d))
        bases.append(rng.normal(size=(d, d)) * np.exp(rng.uniform(-3, 3, size=d))[:, None])
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3)):
        L0 = ld.from_matrix(rng.uniform(-1, 1, size=(m, n)))
        for t in np.linspace(0.0, 12.0, 25):
            bases.append(ld.apply_flow(L0, float(t), m, n).basis)
    # d = 5 and 6, where a swap's O(d) update of mu runs longest between
    # recomputations in the reference
    for _ in range(100):
        d = int(rng.integers(5, 7))
        bases.append(random_unimodular(rng, d))
        bases.append(rng.normal(size=(d, d)) * np.exp(rng.uniform(-3, 3, size=d))[:, None])
    for m, n in ((2, 3), (3, 2), (3, 3), (1, 4)):
        L0 = ld.from_matrix(rng.uniform(-1, 1, size=(m, n)))
        for t in np.linspace(0.0, 12.0, 25):
            bases.append(ld.apply_flow(L0, float(t), m, n).basis)
    for B in bases:
        got, want = reduction._lll(B), _reference_lll(B)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.allclose(B @ got[1], got[0], rtol=1e-9, atol=1e-9 * np.abs(B).max())


@pytest.mark.parametrize("cols, T", [
    ([[1, 2], [2, 4]], [[-2, 1], [1, 0]]),
    ([[1, 0, 1], [0, 0, 1], [0, 0, 1]], [[0, 1, -1], [1, 0, 0], [0, 0, 1]]),
    ([[0, 1], [0, 1]], [[1, 0], [0, 1]]),
])
def test_lll_dependent_columns(cols, T):
    # a column with b*_k = 0 depends on the ones before it; the swap's update
    # would divide by zero, so Gram-Schmidt is recomputed there instead
    cols = np.array(cols, dtype=np.float64)
    B, got = reduction._lll(cols)
    assert got.dtype == np.int64 and got.tolist() == T
    assert np.array_equal(B, cols @ np.array(T, dtype=np.float64))
    want = _reference_lll(cols)
    assert np.array_equal(B, want[0]) and np.array_equal(got, want[1])


def _fraction_det(rows):
    """Exact determinant of a square matrix of ints or floats (Gaussian
    elimination in Fractions)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(mat)):
        piv = next((r for r in range(c, len(mat)) if mat[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        for r in range(c + 1, len(mat)):
            f = mat[r][c] / mat[c][c]
            for cc in range(c, len(mat)):
                mat[r][cc] -= f * mat[c][cc]
    return det


def _fraction_gram_schmidt(cols):
    """(mu, squared norms) of the columns, exactly, from their float values."""
    b = [[Fraction(float(x)) for x in col] for col in cols.T]
    bs, norms = [], []
    mu = [[Fraction(0)] * len(b) for _ in b]
    for i, v in enumerate(b):
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(b[i], bs[j])) / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, bs[j])]
        bs.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


@st.composite
def _scaled_bases(draw):
    """(columns, spread): entries in [-1, 1], column j scaled by 2^e_j, spread = max e - min e.

    Nonzero entries are at least 2^-20 in size: float Gram-Schmidt has no
    answer where squared norms underflow (entries near 1e-270).
    """
    d = draw(st.integers(2, 6))
    entry = st.floats(-1, 1).filter(lambda x: x == 0 or abs(x) >= 2.0**-20)
    cols = np.array(draw(st.lists(entry, min_size=d * d, max_size=d * d))).reshape(d, d)
    exps = draw(st.lists(st.integers(0, 30), min_size=d, max_size=d))
    return cols * np.exp2(exps)[None, :], max(exps) - min(exps)


@given(_scaled_bases())
def test_lll_properties(basis):
    cols, spread = basis
    assume(_fraction_det(cols.tolist()) != 0)
    B, T = reduction._lll(cols)
    d = len(cols)
    assert T.dtype == np.int64 and abs(_fraction_det(T.tolist())) == 1
    # B is cols @ T up to the rounding of the column operations that built it:
    # row i of every column passes through combinations of row i of cols
    exact = [[sum(Fraction(float(cols[i, l])) * int(T[l, j]) for l in range(d))
              for j in range(d)] for i in range(d)]
    scale = np.abs(cols).max(axis=1) * float(np.abs(T).sum(axis=0).max())
    for i, j in itertools.product(range(d), repeat=2):
        assert abs(Fraction(float(B[i, j])) - exact[i][j]) <= 2.0**-40 * scale[i]
    if spread <= 20:
        # size-reduced and Lovasz-reduced, up to the float error of mu and norms
        mu, norms = _fraction_gram_schmidt(B)
        tol = Fraction(1, 2**20)
        assert all(abs(mu[i][j]) <= Fraction(1, 2) + tol for i in range(d) for j in range(i))
        for k in range(1, d):
            assert norms[k] >= (Fraction(3, 4) - tol - mu[k][k - 1] ** 2) * norms[k - 1]


# (rows, Q) with rational entries: exact ties, and errors of 0 at small q
_RATIONAL_CASES = [([["5/11", "-1/11"]], 51), ([["3/7"]], 100), ([["2/9", "5/12"]], 40),
                   ([["1/3"], ["2/5"]], 200), ([["1/4", "2/7"], ["3/5", "-1/6"]], 20),
                   ([["1/6", "1/10"]], 30), ([["1/2", "1/3", "1/5"]], 12)]


def test_reports_match_reference_reduction(monkeypatch):
    # the searches use a reduction only to shrink a box that is complete for
    # any basis, so their records are those of the reference reduction
    from dioph.dioph_matrix import best_approx
    from dioph.experiments import conjecture_probe
    rng = np.random.default_rng(9)
    cases = []
    for m, n in itertools.product((1, 2, 3), repeat=2):
        rows = rng.uniform(-3, 3, size=(m, n)).tolist()
        Q = {1: 100, 2: 50, 3: 20}[n]
        cases += [(rows, None, Q), (rows, rng.uniform(-1, 1, size=m).tolist(), Q)]
    cases += [(rows, None, Q) for rows, Q in _RATIONAL_CASES]
    H = RealMatrix.from_rows(rng.uniform(-3, 3, size=(2, 3)).tolist(), 128)
    J = RealMatrix.from_rows(rng.uniform(-3, 3, size=(2, 2)).tolist(), 128)

    def reports():
        recs = [repr(best_approx(RealMatrix.from_rows(rows, 128), gamma, Q))
                for rows, gamma, Q in cases]
        return recs, repr(conjecture_probe(H, J, xi_samples=3, Q_schedule=(10, 20, 50, 100)))

    fast = reports()
    calls = []

    def reference(cols):
        calls.append(len(cols))
        return _reference_lll(cols)

    for module in (dioph_matrix, ld):
        monkeypatch.setattr(module, "_lll", reference)
    assert reports() == fast
    assert set(calls) == {3, 4, 5, 6}  # the d >= 3 shells, the probe's at d = 5


@pytest.mark.parametrize("X, Z", [(2**40, 2**23 - 1), (2**40, 2**23)])
def test_lll_transform_stays_in_int64(X, Z):
    # columns e0, (X, 1, 0), (0, Z, 1) reduce to e0, e1, e2 with T[0, 2] = X Z.
    # 2^63 - 2^40 fits int64 though the running bound (X + 1)(Z + 1) on |T|
    # does not, so that step is done exactly; 2^63 would wrap in int64
    cols = np.array([[1.0, X, 0.0], [0.0, 1.0, Z], [0.0, 0.0, 1.0]])
    if X * Z > np.iinfo(np.int64).max:
        with pytest.raises(BudgetExceededError):
            reduction._lll(cols)
        return
    B, T = reduction._lll(cols)
    assert T.dtype == np.int64 and int(T[0, 2]) == X * Z
    assert np.array_equal(B, np.eye(3)) and np.array_equal(cols @ T.astype(np.float64), B)


def test_exact_rank_matches_fraction_oracle():
    rng = np.random.default_rng(5)
    ranks = set()
    for _ in range(300):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        r = int(rng.integers(0, min(rows, cols) + 1))
        # a product of rows x r and r x cols factors has rank <= r
        M = rng.integers(-9, 10, size=(rows, r)) @ rng.integers(-9, 10, size=(r, cols))
        if rng.random() < 0.3:
            M = rng.integers(-(10**12), 10**12, size=(rows, cols))
        got = ld._exact_rank(M.tolist())
        assert got == _fraction_rank(M.tolist())
        ranks.add(got)
    assert ranks == {0, 1, 2, 3, 4, 5}


def _loop_minima(lengths, grid, k):
    """Greedy minima with one Python step per candidate in (length, index)
    order and Fraction ranks: None at a sample with fewer than k independent."""
    want = []
    for s in range(lengths.shape[1]):
        chosen = []
        for i in sorted(range(len(grid)), key=lambda i: (lengths[i, s], i)):
            if _fraction_rank(grid[chosen + [i]].tolist()) > len(chosen):
                chosen.append(i)
            if len(chosen) == k:
                break
        want.append(chosen if len(chosen) == k else None)
    return want


def test_minima_matches_loop_reference():
    # the vectorized greedy of `ld._minima` against one Python step per
    # candidate in (length, index) order, with Fraction ranks
    rng = np.random.default_rng(17)
    outcomes = set()
    for trial in range(150):
        d = int(rng.integers(2, 5))
        C, S = int(rng.integers(1, 300)), int(rng.integers(1, 6))
        k = int(rng.integers(1, d + 1))
        # few base directions and their multiples: many dependent candidates
        base = rng.integers(-3, 4, size=(int(rng.integers(1, d + 1)), d))
        grid = rng.integers(-3, 4, size=(C, base.shape[0])) @ base
        grid[np.abs(grid).max(axis=1) == 0, 0] = 1
        # five lengths only: ties straddle the edge of the searched prefix
        lengths = rng.integers(1, 6, size=(C, S)) / 2.0
        got = ld._minima(lengths, grid, k)
        want = _loop_minima(lengths, grid, k)
        if any(w is None for w in want):
            assert got is None, trial
            outcomes.add("none")
        else:
            assert got.tolist() == want, trial
            outcomes.add(k)
    assert outcomes == {"none", 1, 2, 3, 4}
    # one sample among up to 50 whose shortest candidates are hundreds of
    # multiples of one vector: only its head grows past the first 8 k
    for trial in range(30):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, d + 1))
        many, C = int(rng.integers(100, 700)), int(rng.integers(800, 1500))
        S = int(rng.integers(2, 51))
        grid = rng.integers(-3, 4, size=(C, d))
        grid[:many] = rng.integers(1, 40, size=(many, 1)) * rng.integers(-3, 4, size=d)
        grid[np.abs(grid).max(axis=1) == 0, 0] = 1
        lengths = rng.integers(4, 12, size=(C, S)) / 2.0
        hard = int(rng.integers(0, S))
        lengths[:many, hard] = rng.integers(1, 4, size=many) / 2.0
        got = ld._minima(lengths, grid, k)
        want = _loop_minima(lengths, grid, k)
        assert all(w is not None for w in want)
        assert got.tolist() == want, trial
        # the hard sample's lambda_2 lies beyond all the multiples
        assert max(want[hard]) >= many > 8 * k


def test_minima_exact_rank_overrides_float_test(monkeypatch):
    # a float test that takes two dependent candidates is caught by the exact
    # rank, and that sample is redone with exact tests throughout
    grid = np.array([[1, 0], [2, 0], [0, 1]])
    lengths = np.array([[1.0], [2.0], [3.0]])
    assert ld._minima(lengths, grid, 2).tolist() == [[0, 2]]
    monkeypatch.setattr(ld, "_independent",
                        lambda X, k: (np.array([[0, 1]]), np.array([True])))
    assert ld._minima(lengths, grid, 2).tolist() == [[0, 2]]


def test_polar_lattice():
    for d in (2, 3):
        L = ld.LatticeBasis.from_columns(np.eye(d))
        assert np.allclose(ld.polar_lattice(L).basis, np.eye(d))
    D = ld.LatticeBasis.from_columns(np.diag([2.0, 0.5]))
    assert np.allclose(ld.polar_lattice(D).basis, np.diag([0.5, 2.0]))
    rng = np.random.default_rng(4)
    B = random_unimodular(rng, 3)
    L = ld.LatticeBasis.from_columns(B)
    assert np.allclose(ld.polar_lattice(ld.polar_lattice(L)).basis, L.basis, atol=1e-10)


def test_mahler_band():
    assert ld.mahler_duality_check(ld.LatticeBasis.from_columns(np.eye(3))) == pytest.approx(1.0)
    D = ld.LatticeBasis.from_columns(np.diag([2.0, 0.5]))
    assert ld.mahler_duality_check(D) == pytest.approx(1.0)
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        L = ld.LatticeBasis.from_columns(random_unimodular(rng, d))
        prod = ld.mahler_duality_check(L)
        assert 1.0 - 1e-9 <= prod <= math.factorial(d) + 1e-9


def test_flow_profile_zero_matrix():
    # A = 0: the contracting block vector e_{m+1} rules, Delta(t) = t/n
    prof = ld.flow_profile(np.zeros((1, 1)), 3.0, 0.05)
    expect = prof.times / 1.0
    assert np.allclose(prof.delta_values, expect, atol=1e-9)
    assert prof.minima_times == []


def test_flow_profile_phi_balance_points():
    A = RealMatrix.scalar(PHI_STR, 64)
    prof = ld.flow_profile(A, 10.0, 0.05)
    # oracle: balance times (1/2) log(q / |q phi - p|) of the convergents
    fib = [(1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21), (21, 34), (34, 55),
           (55, 89), (89, 144), (144, 233), (233, 377), (377, 610), (610, 987),
           (987, 1597), (1597, 2584), (2584, 4181), (4181, 6765), (6765, 10946),
           (10946, 17711)]
    oracle = [0.5 * math.log(q / abs(q * PHI - p)) for q, p in fib]
    oracle = [t for t in oracle if 0.2 < t < 9.95]
    assert len(prof.minima_times) == len(oracle)
    for t_flag, t_oracle in zip(prof.minima_times, oracle):
        assert abs(t_flag - t_oracle) <= 0.05


def test_flow_profile_slopes():
    A = RealMatrix.scalar(PHI_STR, 64)
    prof = ld.flow_profile(A, 10.0, 0.02)
    slopes = ld.segment_slopes(prof)
    assert len(slopes) >= 10
    for s in slopes:
        assert min(abs(s - 1.0), abs(s + 1.0)) < 0.02
    # m=2, n=1 flow: slopes in {-1/2, +1}
    A2 = RealMatrix.from_rows([["0.7548776662466927"], ["0.5698402909980532"]], 64)
    prof2 = ld.flow_profile(A2, 8.0, 0.02)
    for s in ld.segment_slopes(prof2):
        assert min(abs(s - 1.0), abs(s + 0.5)) < 0.02


def test_flow_weighted_minima_coincide():
    A = RealMatrix.scalar(PHI_STR, 64)
    m = n = 1
    for sigma in (m / n + 0.5, m / n + 1.0):
        prof = ld.flow_profile(A, 10.0, 0.05, sigma=sigma)
        assert prof.r_slope == pytest.approx(ld.theta_sigma(sigma, m, n))
        assert len(prof.weighted_minima_times) == len(prof.minima_times)
        for a, b in zip(prof.weighted_minima_times, prof.minima_times):
            assert abs(a - b) <= 0.05


def test_badly_approximable_vs_liouville_growth():
    # Dani correspondence sanity: Delta bounded for phi, growing for Liouville
    from dioph.dioph_matrix import liouville_number
    A = RealMatrix.scalar(PHI_STR, 64)
    prof = ld.flow_profile(A, 12.0, 0.05, minima_count=1)
    assert prof.delta_values.max() < 1.0
    L = RealMatrix.scalar(liouville_number(precision_bits=128), 128)
    prof2 = ld.flow_profile(L, 12.0, 0.1, minima_count=1, max_enum=8_000_000)
    assert prof2.delta_values.max() > 2.0


def test_flow_sweep_halves_windows_over_budget(monkeypatch):
    # a near-rational entry makes each window's ball long and thin: with a
    # budget below the largest window's box, that window is halved and the
    # minima are unchanged (m + n = 3: 1 x 1 sweeps have no windows)
    from dioph.dioph_matrix import liouville_number
    A = RealMatrix.from_rows([[liouville_number(precision_bits=128), "0.41421356237309515"]], 128)
    boxes = []
    enumerate_in_radius = reduction._enumerate_in_radius

    def spy(reduced, radius, *args):
        boxes.append(float(np.prod(2 * np.floor(reduced[2] * radius) + 1)))
        return enumerate_in_radius(reduced, radius, *args)

    monkeypatch.setattr(ld, "_enumerate_in_radius", spy)
    whole = ld.flow_profile(A, 9.0, 0.1)
    windows, budget = len(boxes), int(0.99 * max(boxes))
    boxes.clear()
    split = ld.flow_profile(A, 9.0, 0.1, max_enum=budget)
    assert len(boxes) > windows
    assert np.array_equal(split.lambdas, whole.lambdas)


def test_flow_windows_enumerate_once_in_the_balanced_box(monkeypatch):
    # the benchmark's 1 x 3 surd profile to t = 10: one enumeration per
    # window, at its balance time, and 23,602 box points over the ten windows
    A = RealMatrix.from_rows([["0.41421356237309515", "0.7320508075688772",
                               "0.2360679774997898"]], 256)
    boxes, windows = [], []
    enumerate_in_radius, window = reduction._enumerate_in_radius, ld._window

    def spy(reduced, radius, *args):
        boxes.append(float(np.prod(2 * np.floor(reduced[2] * radius) + 1)))
        return enumerate_in_radius(reduced, radius, *args)

    def count(*args):
        windows.append(len(args[3]))  # the window's sample times
        return window(*args)

    monkeypatch.setattr(ld, "_enumerate_in_radius", spy)
    monkeypatch.setattr(ld, "_window", count)
    ld.flow_profile(A, 10.0, 0.02)
    assert len(windows) == 10 and sum(windows) == 501  # no window was halved
    assert len(boxes) == len(windows)
    assert sum(boxes) <= 40_000, sum(boxes)


def _same_sweep(a, b):
    return (np.array_equal(a.lambdas, b.lambdas) and np.array_equal(a.u, b.u)
            and np.array_equal(a.w, b.w)
            and [[int(v) for v in row] for row in a.coeffs]
            == [[int(v) for v in row] for row in b.coeffs])


def _liouville_dual():
    from dioph.dioph_matrix import liouville_number
    alpha = RealMatrix.scalar(liouville_number(precision_bits=128), 128)
    return RealMatrix(m=1, n=1, entries=(-alpha.entries[0],), precision_bits=128,
                      exact=(-alpha.exact[0],))


@st.composite
def _one_by_one(draw):
    """(A, t_max) for a 1 x 1 sweep: surds, floats, small rationals, the Liouville dual.

    t_max stays where the windowed oracle fits its default budget: lambda_2 /
    lambda_1 grows like e^(2t) on rationals and floats near them, and on the
    Liouville dual from t = 10 a windowed k = 2 sweep takes seconds (and
    exceeds its budget past t = 25), so k = 2 stops at t = 8.
    """
    kind = draw(st.sampled_from(("surd", "float", "rational", "liouville")))
    if kind == "float":  # a dyadic rational whose continued fraction ends near q = 2^52
        # (the windowed oracle overflows int64 on subnormal entries)
        return RealMatrix.scalar(draw(st.floats(-4.0, 4.0, allow_subnormal=False)), 64), 4.0
    if kind == "surd":
        k = draw(st.sampled_from(_SQUAREFREE))
        sign = draw(st.sampled_from((1, -1)))
        shift = draw(st.one_of(st.integers(-2, 2), st.integers(-10**12, 10**12)))
        return RealMatrix.scalar(repr(sign * (math.sqrt(k) % 1.0) + shift), 64), 10.0
    if kind == "rational":
        num = draw(st.integers(-12, 12))
        den = draw(st.integers(1, 12))
        return RealMatrix.scalar(Fraction(num, den), 64), 5.0
    return _liouville_dual(), 38.5


@given(case=_one_by_one(), k=st.sampled_from([1, 2]), frac=st.floats(0.1, 1.0),
       dt=st.sampled_from([0.02, 0.05, 0.1]), start_at_dt=st.booleans())
def test_continued_fraction_sweep_matches_windowed(case, k, frac, dt, start_at_dt):
    # the continued-fraction sweep of 1 x 1 matrices against the windowed
    # sweep it replaced, bit for bit: lambda_1..lambda_k, the lambda_1
    # coefficients and their exact u and w
    A, t_cap = case
    t_max = t_cap * frac if k == 1 else min(t_cap * frac, 8.0)
    times = np.arange(dt if start_at_dt else 0.0, t_max + dt / 2, dt)
    got = ld._flow_sweep(A, times, k, ld.DEFAULT_MAX_ENUM)
    want = ld._windowed_sweep(A, times, k, ld.DEFAULT_MAX_ENUM)
    assert _same_sweep(got, want)


def test_continued_fraction_sweep_on_fixed_cases():
    # the Liouville dual to the depth of a 16-round game for k = 1; phi to
    # t = 16, where its coefficients (p, q) pass 10^6 and lambda_1, lambda_2
    # are nearly parallel in them; every rational in [-2, 2] with
    # denominator <= 4, and entries far from 0, whose p are about |A| q, for
    # k = 1 and 2
    dual = _liouville_dual()
    times = np.arange(0.05, 38.5, 0.05)
    assert _same_sweep(ld._flow_sweep(dual, times, 1, ld.DEFAULT_MAX_ENUM),
                       ld._windowed_sweep(dual, times, 1, ld.DEFAULT_MAX_ENUM))
    phi, times = RealMatrix.scalar(PHI_STR, 64), np.arange(0.0, 16.0, 0.05)
    assert _same_sweep(ld._flow_sweep(phi, times, 2, ld.DEFAULT_MAX_ENUM),
                       ld._windowed_sweep(phi, times, 2, ld.DEFAULT_MAX_ENUM))
    times = np.arange(0.0, 4.0, 0.05)
    rationals = {Fraction(p, q) for q in range(1, 5) for p in range(-2 * q, 2 * q + 1)}
    for r in sorted(rationals) + ["12345678.9", "-3e12", "1e15"]:
        A = RealMatrix.scalar(r, 64)
        for k in (1, 2):
            assert _same_sweep(ld._flow_sweep(A, times, k, ld.DEFAULT_MAX_ENUM),
                               ld._windowed_sweep(A, times, k, ld.DEFAULT_MAX_ENUM)), (r, k)


def test_one_by_one_sweeps_reduce_and_enumerate_nothing(monkeypatch):
    # flow profiles and the HAW dual flow of 1 x 1 matrices read their minima
    # off the continued fraction: no LLL, no enumeration, and no window
    from dioph import haw_game
    from dioph.dioph_matrix import liouville_number

    def forbidden(*args, **kwargs):
        raise AssertionError("the lattice kernel was called")

    monkeypatch.setattr(ld, "_lll", forbidden)
    monkeypatch.setattr(ld, "_enumerate_in_radius", forbidden)
    ld.flow_profile(RealMatrix.scalar(PHI_STR, 64), 10.0, 0.02)
    ld.flow_profile(RealMatrix.scalar("355/113", 64), 6.0, 0.05)
    haw_game.derive_strategy(RealMatrix.scalar(liouville_number(precision_bits=128), 128),
                             sigma=3.0, t_max=38.5, dt=0.05)
    with pytest.raises(AssertionError, match="kernel"):  # the spies do see m + n = 3
        ld.flow_profile(RealMatrix.from_rows([["0.5", "0.25"]], 64), 1.0, 0.1)


# Fractional parts of sqrt(k), k squarefree: {1, sqrt(k1), sqrt(k2)} are
# independent over Q.  Near-rational entries would make lambda_d grow like
# e^t and the reference successive_minima enumerate ~e^(2t) points per sample.
_SQUAREFREE = [k for k in range(2, 200) if all(k % (p * p) for p in range(2, 15))]


@given(shape=st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]),
       ks=st.lists(st.sampled_from(_SQUAREFREE), min_size=4, max_size=4, unique=True),
       signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=4, max_size=4),
       t_max=st.floats(0.5, 6.0), dt=st.sampled_from([0.02, 0.05, 0.1]))
@example(shape=(1, 3), ks=[2, 3, 5, 7], signs=[1.0, -1.0, 1.0, -1.0], t_max=3.0, dt=0.02)
@example(shape=(2, 2), ks=[3, 11, 6, 19], signs=[-1.0, 1.0, 1.0, 1.0], t_max=3.0, dt=0.05)
@example(shape=(3, 1), ks=[13, 2, 17, 10], signs=[1.0, 1.0, -1.0, 1.0], t_max=3.0, dt=0.05)
def test_carried_flow_matches_cold_reduction(shape, ks, signs, t_max, dt):
    # the windowed sweep behind flow_profile against one cold reduction and
    # enumeration of each flowed lattice; d = 4 stops at t = 3, where the
    # cold oracle's balls are still small
    m, n = shape
    if m + n == 4:
        t_max = min(t_max, 3.0)
    entries = [s * (math.sqrt(k) % 1.0) for s, k in zip(signs, ks)]
    A = np.array(entries[:m * n]).reshape(m, n)
    prof = ld.flow_profile(A, t_max, dt)
    L0 = ld.from_matrix(A)
    cold = np.array([ld.successive_minima(ld.apply_flow(L0, float(t), m, n), m + n)[0]
                     for t in prof.times])
    assert np.allclose(prof.lambdas, cold, rtol=1e-9, atol=0.0)
    flags = np.zeros(len(prof.times), dtype=bool)
    flags[ld._local_minima_indices(cold[:, 0])] = True
    assert np.array_equal(prof.is_minimum, flags)


def test_flow_profile_phi_against_fibonacci_oracle():
    # lambda_1(g_t Lambda_phi) = min over (q, p) = (F_k, F_{k+1}) and (0, 1)
    # of max(e^t |q phi - p|, e^-t q), with phi the exact entry of A
    A = RealMatrix.scalar(PHI_STR, 64)
    prof = ld.flow_profile(A, 10.0, 0.02)
    with mp.workprec(200):
        phi = mp.mpf(A.exact[0].numerator) / A.exact[0].denominator
        pairs = [(0, 1)]
        a, b = 1, 1
        while a < 10**6:
            pairs.append((a, b))
            a, b = b, a + b
        for t, lam1 in zip(prof.times, prof.lambdas[:, 0]):
            et = mp.exp(mp.mpf(float(t)))
            oracle = min(max(et * abs(q * phi - p), q / et) for q, p in pairs)
            assert abs(lam1 - oracle) <= 1e-12 * oracle, t


def test_successive_minima_many_dependent_candidates():
    # A = 2 at t = 6: lambda_1 = e^-6 from (p, q) = (2, -1), and the ~1.6e5
    # multiples of it shorter than lambda_2 = e^6 are all dependent
    L = ld.apply_flow(ld.from_matrix(np.array([[2.0]])), 6.0, 1, 1)
    t0 = time.perf_counter()
    lengths, _vecs, coeffs = ld.successive_minima(L, 2)
    assert time.perf_counter() - t0 < 1.0
    assert lengths[1] / lengths[0] == pytest.approx(math.exp(12), rel=1e-9)
    assert [int(v) for v in coeffs[0]] == [2, -1]  # +v before -v


def test_theta_sigma_formula():
    assert ld.theta_sigma(3.0, 1, 1) == pytest.approx((3 - 1) / (4 * 1 * 1))
    assert ld.theta_sigma(2.0, 2, 3) == pytest.approx((3 * 2 - 2) / (3 * 2 * 3))


def test_validation():
    with pytest.raises(ValidationError):
        ld.LatticeBasis.from_columns(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        ld.flow_profile(np.zeros((1, 1)), -1.0, 0.1)
    Z = ld.from_matrix(np.zeros((1, 1)))
    with pytest.raises(ValidationError):
        ld.apply_flow(Z, 1.0, 2, 2)
