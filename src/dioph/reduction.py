"""Lattice reduction and enumeration: the one kernel of every lattice search.

All norms are sup-norms.  Apart from float64 LLL (`_lll`, Cohen, GTM 138,
Alg. 2.6.3, O(d) updates per swap) the module is exact integer code.
`_enumerate_in_radius` walks the box |c_i - t_i| <= ||row_i(B^-1)||_1 * r
around a target's coefficients t, its ends exact; that dual bound holds
for every basis B, so completeness comes from it and not from the
reduction, which only shrinks the box.  The bound and t come from one
fraction-free inverse (`_int_inverse`): of the transform T of a basis of
Lambda_A, which `_lattice_basis` builds from the exact entries and T in
Python ints (`_dual_l1`), or of a dyadic float basis.  The box is walked
whole; the shell search keeps points by exact error, `lattice_dyn` by
float length.  A box over its caller's budget, counted in ints, raises
SizeBudgetError; a transform entry beyond int64, or a basis or matrix
entry beyond float64, raises BudgetExceededError.

Two integer columns have their own kernel, exact in Python ints:
`_circle_runs` reduces them by Lagrange-Gauss (`_gauss_reduce`) and solves
each line of the reduced basis for its run of points by floor division, so
a 1 x 1 search has no box, no float centre and no float margin.  Its
budget, `CIRCLE_MAX_ENUM`, holds the lines walked and the points listed.

The callers are `lattice_dyn` (shortest vectors, minima, flow windows) and
the shell search of `dioph_matrix` (`best_approx`, the exponent windows and
the circle searches of `experiments` and `haw_game`).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .errors import BudgetExceededError, SingularMatrixError, SizeBudgetError

_INT64_MAX = int(np.iinfo(np.int64).max)
CIRCLE_MAX_ENUM = 1 << 22  # lines walked, and points listed, by one 1 x 1 search


def _int_dtype(bound: int):
    """The dtype of exact integer arithmetic whose partial sums stay below `bound`.

    int64 when bound < 2^62, Python ints (object) otherwise.
    """
    return np.int64 if bound < 2**62 else object


def _as_int64(T: List[List[int]], what: str) -> np.ndarray:
    """The integers T (nested lists) as an int64 array; raises beyond int64."""
    big = max(abs(x) for row in T for x in row)
    if big > _INT64_MAX:
        raise BudgetExceededError(f"{what} leaves int64 (an entry of {big.bit_length()} bits)")
    return np.array(T, dtype=np.int64)


def _gram_schmidt(B: List[List[float]]):
    """(mu rows, squared norms) of the Gram-Schmidt vectors b*_i of the columns B.

    mu[i][j] = <b_i, b*_j> / ||b*_j||^2 for j < i, and 0 where b*_j = 0.
    """
    d = len(B)
    mu, norms, Bs = [[0.0] * d for _ in B], [0.0] * d, []
    for i, v in enumerate(B):
        for j, w in enumerate(Bs):
            if norms[j]:
                mu[i][j] = c = sum(map(float.__mul__, B[i], w)) / norms[j]
                v = [x - c * y for x, y in zip(v, w)]
        Bs.append(v)
        norms[i] = sum(map(float.__mul__, v, v))
    return mu, norms


def _lll(cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LLL on columns; returns (reduced columns, integer transform T), reduced = cols @ T.

    Cohen, GTM 138, Alg. 2.6.3, Lovasz constant 3/4: only mu and the squared
    Gram-Schmidt norms N_i are kept.  Size reduction changes row k of mu; a
    swap of columns k-1 and k updates N_(k-1), N_k and O(d) entries of mu in
    place.  If N_k = 0 (dependent columns, or an underflow) the swap
    recomputes Gram-Schmidt.  Columns are Python lists, of floats for the
    basis and of ints for T, so T is checked once, on exit: an entry beyond
    int64 raises BudgetExceededError.  After 10000 iterations
    (ill-conditioned input) the current basis is returned.  A basis entry
    beyond the float64 range raises BudgetExceededError.
    """
    B = np.asarray(cols, dtype=np.float64)
    if not np.isfinite(B).all():
        raise BudgetExceededError("basis entry beyond the float64 range")
    B, d = B.T.tolist(), len(B)
    T = np.eye(d, dtype=np.int64).tolist()
    mu, norms = _gram_schmidt(B)
    k, iters = 1, 0
    while k < d and iters < 10000:
        iters += 1
        row = mu[k]
        for j in range(k - 1, -1, -1):
            r = round(row[j])
            if r:
                T[k] = [x - r * y for x, y in zip(T[k], T[j])]
                B[k] = [x - r * y for x, y in zip(B[k], B[j])]
                row[:j] = [x - r * y for x, y in zip(row, mu[j][:j])]
                row[j] -= r
        c = row[k - 1]
        if norms[k] >= (0.75 - c * c) * norms[k - 1]:
            k += 1
            continue
        B[k - 1], B[k] = B[k], B[k - 1]
        T[k - 1], T[k] = T[k], T[k - 1]
        if norms[k] == 0:
            mu, norms = _gram_schmidt(B)
        else:
            nb = norms[k] + c * c * norms[k - 1]
            mu[k - 1], mu[k] = row, mu[k - 1]  # their entries left of column k-1 trade places
            mu[k][k - 1] = e = c * norms[k - 1] / nb
            norms[k - 1], norms[k] = nb, norms[k - 1] * norms[k] / nb
            for r_i in mu[k + 1:]:
                t = r_i[k]
                r_i[k] = r_i[k - 1] - c * t
                r_i[k - 1] = t + e * r_i[k]
        k = max(k - 1, 1)
    return np.array(B).T.copy(), _as_int64(T, "LLL transform").T.copy()


def _gauss_reduce(u: Tuple[int, int], v: Tuple[int, int]) -> List[List[int]]:
    """Lagrange-Gauss reduction of the integer columns u, v: the transform T.

    Exact in Python ints.  The reduced columns are (u v) T, the first a
    shortest vector of the lattice, with |b1| <= |b2| and 2 |<b1, b2>| <= |b1|^2.
    """
    tu, tv = (1, 0), (0, 1)  # u and v in the input basis
    nu, nv = u[0] * u[0] + u[1] * u[1], v[0] * v[0] + v[1] * v[1]
    if nu > nv:
        u, v, tu, tv, nu, nv = v, u, tv, tu, nv, nu
    while True:
        r = (2 * (u[0] * v[0] + u[1] * v[1]) + nu) // (2 * nu)  # nearest integer to <u,v>/|u|^2
        if r:
            v = (v[0] - r * u[0], v[1] - r * u[1])
            tv = (tv[0] - r * tu[0], tv[1] - r * tu[1])
            nv = v[0] * v[0] + v[1] * v[1]
        if nv >= nu:
            return [[tu[0], tv[0]], [tu[1], tv[1]]]
        u, v, tu, tv, nu, nv = v, u, tv, tu, nv, nu


def _solve(k: int, lo: int, hi: int) -> Optional[Tuple[int, int]]:
    """(first, last): the integers t with lo <= k t <= hi; None: every t (k = 0, lo <= 0 <= hi)."""
    if k > 0:
        return -(-lo // k), hi // k
    if k < 0:
        return -(-hi // k), lo // k
    return None if lo <= 0 <= hi else (1, 0)


def _circle_runs(D: int, N: int, G: int, eps: float, rn: int, rd: int, lo: int, hi: int):
    """The integer points (p, q) with rd |X| <= D rn, X = D p + N q - G, and lo <= |q| <= hi.

    Yields runs (p0, q0, X0, dp, dq, dX, first, last): the points
    (p0 + t dp, q0 + t dq), first <= t <= last, with X = X0 + t dX.  The
    basis is the Gauss-reduced transform T of the columns (D b hi, 0) and
    (N b hi, D a), eps = a/b, the ball |X| <= D eps, |q| <= hi scaled to
    integers.  In T's coordinates c the region is a parallelogram around
    the centre T^-1 (G/D, 0), and c_j ranges over an exact interval; the
    coefficient with fewer values is walked and, for each value, the other
    is solved from both constraints by floor division.  Each value gives
    at most two runs, split by the cut |q| >= lo.  More than
    `CIRCLE_MAX_ENUM` values to walk raise BudgetExceededError, and so does
    T beyond int64.
    """
    a, b = eps.as_integer_ratio()
    T = _as_int64(_gauss_reduce((D * b * hi, 0), (N * b * hi, D * a)),
                  "Gauss-reduced transform").tolist()
    cols = [(T[0][j], T[1][j], D * T[0][j] + N * T[1][j]) for j in (0, 1)]  # (p, q, X + G)
    sign = T[0][0] * T[1][1] - T[0][1] * T[1][0]  # det T = +-1
    spans = []
    for w, s in ((0, sign), (1, -sign)):
        # c_w = s (q_o (X + G) - x_o q) / D over |X| <= D rn / rd, |q| <= hi, o the other column
        _, qo, xo = cols[1 - w]
        mid, half, den = s * qo * G * rd, abs(qo) * D * rn + abs(xo) * hi * rd, D * rd
        first, last = -(-(mid - half) // den), (mid + half) // den
        spans.append((last - first, w, first, last))
    count, w, first, last = min(spans)
    if count + 1 > CIRCLE_MAX_ENUM:
        raise BudgetExceededError(
            f"shell search of {count + 1} lines exceeds budget {CIRCLE_MAX_ENUM}")
    (pw, qw, xw), (dp, dq, dX) = cols[w], cols[1 - w]
    for c in range(first, last + 1):
        p0, q0, X0 = c * pw, c * qw, c * xw - G
        box = _solve(dq, -hi - q0, hi - q0)
        near = _solve(rd * dX, -D * rn - rd * X0, D * rn - rd * X0)
        ends = [r for r in (box, near) if r is not None]  # det T != 0: one of them bounds t
        t0, t1 = max(r[0] for r in ends), min(r[1] for r in ends)
        cut = _solve(dq, 1 - lo - q0, lo - 1 - q0)  # the t with |q| < lo
        if cut is None:
            continue
        for u, v in ((t0, min(t1, cut[0] - 1)), (max(t0, cut[1] + 1), t1)):
            if u <= v:
                yield p0, q0, X0, dp, dq, dX, u, v


def _circle_points(D: int, N: int, G: int, eps: float, rn: int, rd: int, lo: int,
                   hi: int) -> dict:
    """{(q,): (|X|, (p,))} over the points of `_circle_runs`.

    X = D/2 is left out: its q is listed at X = -D/2, with the smaller p.
    The runs are counted before any point is listed: more than
    `CIRCLE_MAX_ENUM` points raise BudgetExceededError.
    """
    runs, total = [], 0
    for run in _circle_runs(D, N, G, eps, rn, rd, lo, hi):
        total += run[-1] - run[-2] + 1
        if total > CIRCLE_MAX_ENUM:
            raise BudgetExceededError(
                f"shell search of more than {CIRCLE_MAX_ENUM} points exceeds budget")
        runs.append(run)
    return {(q0 + t * dq,): (abs(X0 + t * dX), (p0 + t * dp,))
            for p0, q0, X0, dp, dq, dX, u, v in runs for t in range(u, v + 1)
            if 2 * (X0 + t * dX) != D}


def _lattice_basis(D: int, N: np.ndarray, T: np.ndarray, a, b) -> np.ndarray:
    """The columns diag(a I_m, b I_n) B0 T, each entry exact until one rounding to float64.

    B0 has columns (e_i, 0) for p and (A e_j, e_j) for q, A = N / D
    (`_exact_form`); T is any integer transform, and a, b (floats, ints or
    Fractions) are taken exactly.  An entry beyond float64 raises BudgetExceededError.
    """
    m = len(N)
    T = np.asarray(T, dtype=object)
    top = D * T[:m] + np.asarray(N, dtype=object) @ T[m:]  # D (T_p + A T_q)
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    try:  # int / int rounds once, or overflows
        return np.vstack([top * an / (D * ad), T[m:] * bn / bd]).astype(np.float64)
    except OverflowError as e:
        raise BudgetExceededError("lattice basis entry beyond the float64 range") from e


def _iter_box_chunks(lo, hi, chunk_rows: Optional[int] = None):
    """Integer grids (rows, d) of lo <= c <= hi in lex order, `chunk_rows` rows (or all) at once."""
    sides = [h - l + 1 for l, h in zip(lo, hi)]
    total = math.prod(sides) if min(sides) > 0 else 0
    pows = [math.prod(sides[j + 1:]) for j in range(len(sides))]
    step = chunk_rows or max(total, 1)
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.int64)
        grid = np.empty((len(idx), len(sides)), dtype=np.int64)
        for j, (pw, side) in enumerate(zip(pows, sides)):
            np.add((idx // pw) % side, lo[j], out=grid[:, j])
        yield grid


def _int_inverse(K) -> Tuple[List[List[int]], int]:
    """(adj K, det K) of a square integer matrix K, exactly in Python ints: adj K K = det K I.

    Fraction-free (Bareiss) elimination of (K | I), all d right-hand sides at
    once: every division is exact, back substitution too, as det K K^-1 is
    integral.  A singular K raises SingularMatrixError.
    """
    d = len(K)
    M = [[int(x) for x in row] + [int(i == j) for j in range(d)] for i, row in enumerate(K)]
    prev, sign = 1, 1
    for k in range(d):
        pivot = next((i for i in range(k, d) if M[i][k]), None)
        if pivot is None:
            raise SingularMatrixError("integer matrix is singular")
        M[k], M[pivot], sign = M[pivot], M[k], sign if pivot == k else -sign
        for i in range(k + 1, d):
            M[i] = [(M[k][k] * u - M[i][k] * v) // prev for u, v in zip(M[i], M[k])]
        prev = M[k][k]  # finally det of the row-swapped K
    Y = [None] * d  # prev K^-1, from the last row up
    for i in range(d - 1, -1, -1):
        Y[i] = [(prev * v - sum(M[i][j] * Y[j][c] for j in range(i + 1, d))) // M[i][i]
                for c, v in enumerate(M[i][d:])]
    return [[sign * y for y in row] for row in Y], sign * prev


def _dual_l1(D: int, N, T, a, b):
    """T^-1 and the dual norms (l, e), ||row_i(B^-1)||_1 = l_i / e, of B = `_lattice_basis`'s.

    B = diag(a I_m, b I_n) B0 T has B^-1 = T^-1 [[I/a, -N/(D b)], [0, I/b]], so
    only the unimodular T is inverted (`_int_inverse`); a, b are taken exactly.
    """
    m, cols = len(N), [[int(v) for v in c] for c in zip(*N)]  # the columns of N
    adj, det = _int_inverse(T)
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    pl = [sum(map(abs, r[:m])) for r in adj]  # the sign of det T drops out of the norms
    ql = [sum(abs(D * t - sum(map(int.__mul__, r, c))) for t, c in zip(r[m:], cols)) for r in adj]
    return ([[det * x for x in r] for r in adj],  # det T = +-1
            ([p * ad * D * bn + q * bd * an for p, q in zip(pl, ql)], an * D * bn))


def _enumerate_in_radius(l1, radius, max_enum, centre=None, chunk_rows: Optional[int] = None):
    """Integer grids (rows, d) walking the box |c_i - y_i / f| <= radius l_i / e, in lex order.

    With l1 = (l, e) the dual norms ||row_i(B^-1)||_1 = l_i / e of a basis B
    and centre = (y, f) the target's coefficients (0 when None), the box
    holds the coefficients of every point within radius of the target; its
    ends are exact in ints, so it needs no margin.  The caller keeps the
    points it wants.  A box of more than max_enum points raises SizeBudgetError.
    """
    (ls, e), (rn, rd) = l1, radius.as_integer_ratio()
    y, f = centre or ([0] * len(ls), 1)
    den = e * rd * f  # the ends are (y_i e rd -+ rn l_i f) / den
    lo = [-((rn * h * f - c * e * rd) // den) for c, h in zip(y, ls)]
    hi = [(c * e * rd + rn * h * f) // den for c, h in zip(y, ls)]
    total = math.prod(max(b - a + 1, 0) for a, b in zip(lo, hi))
    if total > max_enum:
        raise SizeBudgetError(f"enumeration box of {total} points exceeds budget {max_enum}")
    yield from _iter_box_chunks(lo, hi, chunk_rows)
