"""Lattice reduction and enumeration: the one kernel of every lattice search.

All norms are sup-norms, and every matrix is nested lists of Python ints or
floats, by rows (no numpy).  Apart from float64 LLL (`_lll`, Cohen, GTM 138,
Alg. 2.6.3, O(d) updates per swap) the module is exact integer code; LLL
returns T^-1 beside its transform T, from the inverses of its steps.  Every
step along the diagonal flow, of a shell ladder (`dioph_matrix._ball_lattice`)
or a flow window (`lattice_dyn._window`), is `_reduce_at`: LLL on the basis
`_lattice_basis` builds from the carried T, then (T, T^-1) carried on.

Every enumeration is one walk, `_runs`, of the integer points c of an exact
box whose integer linear forms satisfy |F_j(c)| <= b_j: depth first in
Python ints, in every coordinate but the longest, whose runs of points are
solved by floor division, so no float decides membership.  The searches
over q (`dioph_matrix._Shells`) and the flow windows of `lattice_dyn` walk
it through `_shell_runs`, in the box `_shell_box` from T^-1 of a transform
reduced by Lagrange-Gauss (`_circle_lattice`, 1 x 1) or by LLL along the
flow; `lattice_dyn`'s minima of a float basis walk it on the basis's dyadic
integers.  Each caller holds the walk to its budget of outer box points
plus points scored or listed: `SHELL_MAX_ENUM` for a search,
`lattice_dyn.DEFAULT_MAX_ENUM` for a listed ball.  A
transform entry beyond int64, or a basis or matrix entry beyond float64,
raises BudgetExceededError; a walk over its budget raises SizeBudgetError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import BudgetExceededError, SingularMatrixError, SizeBudgetError

_INT64_MAX = 2**63 - 1
SHELL_MAX_ENUM = 1 << 22  # outer box points, and points scored or listed, by one shell search


def _int64(T: List[List[int]], what: str) -> List[List[int]]:
    """The integers T (nested lists), checked: an entry beyond int64 raises BudgetExceededError."""
    big = max(abs(x) for row in T for x in row)
    if big > _INT64_MAX:
        raise BudgetExceededError(f"{what} leaves int64 (an entry of {big.bit_length()} bits)")
    return T


def _canon(vec: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Coordinatewise order 0 < 1 < -1 < 2 < -2 ... for lexicographic ties."""
    return tuple((abs(v), 0 if v >= 0 else 1) for v in vec)


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


def _lll(rows) -> Tuple[List[List[float]], List[List[int]], List[List[int]]]:
    """LLL on the columns of rows; returns (reduced, T, T^-1) as rows, reduced = rows T.

    Cohen, GTM 138, Alg. 2.6.3, Lovasz constant 3/4: only mu and the squared
    Gram-Schmidt norms N_i are kept.  Size reduction changes row k of mu; a
    swap of columns k-1 and k updates N_(k-1), N_k and O(d) entries of mu in
    place.  If N_k = 0 (dependent columns, or an underflow) the swap
    recomputes Gram-Schmidt.  Columns are Python lists, of floats for the
    basis and of ints for T, so T is checked once, on exit: an entry beyond
    int64 raises BudgetExceededError.  T^-1 is built beside T, each step's
    inverse a row operation.  After 10000 iterations (ill-conditioned input)
    the current basis is returned.  A basis entry beyond the float64 range
    raises BudgetExceededError.
    """
    B, d = [list(map(float, col)) for col in zip(*rows)], len(rows)
    if not all(map(math.isfinite, (x for col in B for x in col))):
        raise BudgetExceededError("basis entry beyond the float64 range")
    T, U = _eye(d), _eye(d)
    mu, norms = _gram_schmidt(B)
    k, iters = 1, 0
    while k < d and iters < 10000:
        iters += 1
        row = mu[k]
        for j in range(k - 1, -1, -1):
            r = round(row[j])
            if r:
                T[k] = [x - r * y for x, y in zip(T[k], T[j])]
                U[j] = [x + r * y for x, y in zip(U[j], U[k])]
                B[k] = [x - r * y for x, y in zip(B[k], B[j])]
                row[:j] = [x - r * y for x, y in zip(row, mu[j][:j])]
                row[j] -= r
        c = row[k - 1]
        if norms[k] >= (0.75 - c * c) * norms[k - 1]:
            k += 1
            continue
        B[k - 1], B[k] = B[k], B[k - 1]
        T[k - 1], T[k] = T[k], T[k - 1]
        U[k - 1], U[k] = U[k], U[k - 1]
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
    return [list(r) for r in zip(*B)], [list(r) for r in zip(*_int64(T, "LLL transform"))], U


def _eye(d: int) -> List[List[int]]:
    return [[int(i == j) for j in range(d)] for i in range(d)]


def _matmul(X, Y) -> List[List[int]]:
    """X Y of integer matrices, by rows."""
    cols = list(zip(*Y))
    return [[sum(map(int.__mul__, row, col)) for col in cols] for row in X]


def _reduce_at(D: int, N, transform, a, b):
    """(T S, S^-1 T^-1) for transform = (T, T^-1): S reduces `_lattice_basis`(D, N, T, a, b)."""
    T, Tinv = transform
    _, S, Sinv = _lll(_lattice_basis(D, N, T, a, b))
    return _matmul(T, S), _matmul(Sinv, Tinv)


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


def _circle_lattice(form, hi: int, eps: float):
    """(T, T^-1) in ints, Gauss-reducing the 1 x 1 shell lattice of one eps and |q| <= hi.

    Its columns scaled to integers are (D b hi, 0) and (N b hi, D a), eps = a/b; T past int64 raises.
    """
    D, ((N,),), _ = form
    a, b = eps.as_integer_ratio()
    (t, u), (v, w) = T = _int64(_gauss_reduce((D * b * hi, 0), (N * b * hi, D * a)),
                                "Gauss-reduced transform")
    det = t * w - u * v  # +-1
    return T, [[det * w, -det * u], [-det * v, det * t]]


def _shell_box(form, Tinv, radius: Fraction, hi: int) -> List[Tuple[int, int]]:
    """(first, last) of each c_i over the points (p, q) = T c with ||X|| <= D radius, ||q|| <= hi.

    X = D p + N q - G for form = (D, N, G).  The box is exact: the dual bound
    l_i / e = ||row_i(B^-1)||_1 of B = diag(I_m / radius, I_n / hi) B0 T,
    B^-1 = T^-1 [[radius I, -hi N / D], [0, hi I]], around the target's
    coefficients c0 = T^-1 (G, 0) / D.
    """
    D, N, G = form
    m, cols = len(N), list(zip(*N))  # the columns of N
    un, ud = radius.as_integer_ratio()
    pl = [sum(map(abs, r[:m])) for r in Tinv]
    ql = [sum(abs(D * t - sum(map(int.__mul__, r, c))) for t, c in zip(r[m:], cols)) for r in Tinv]
    ls, e = [p * un * D + q * hi * ud for p, q in zip(pl, ql)], ud * D
    ys = [sum(map(int.__mul__, row, G)) * ud for row in Tinv]  # c0_i e
    return [(-((l - y) // e), (y + l) // e) for y, l in zip(ys, ls)]


def _cut(first: int, last: int, cuts, S) -> Tuple[int, int]:
    """[first, last] narrowed to [ceil((x - S_j) / a), floor((y - S_j) / a)] for each (j, a, x, y) of cuts."""
    for j, a, x, y in cuts:
        lo, hi = (S[j] - x) // a, (y - S[j]) // a  # lo = -ceil((x - S_j) / a)
        if -lo > first:
            first = -lo
        if hi < last:
            last = hi
    return first, last


def _runs(cols, S, box, most, lo: int = 0, n: int = 0):
    """(outer, runs): the points c of box with |F_j(c)| <= most_j for each j < len(most).

    The forms F(c) = S + sum_i c_i cols[i] are integers; the forms past
    len(most) are carried along, not bounded.  box [(first, last)] of c must
    hold every such point.  A run (Y, dY, first, last) is the points
    c + t e_w, first <= t <= last, whose forms are Y + t dY.  The box is
    walked depth first, shortest side first, in every coordinate but w, its
    longest, carrying the forms' partial sums; each range is cut (`_cut`) to
    what can still meet every bound.  Each line along w is solved from the
    bounds and, for lo > 0, split by ||(F_0 .. F_(n-1))|| >= lo.  outer, the
    count of the box without w, is known before any point is walked.
    """
    d, bounded = len(box), len(most)
    sides = [b - a + 1 for a, b in box]
    if min(sides) <= 0:
        return 0, iter(())
    w = sides.index(max(sides))
    order = sorted((i for i in range(d) if i != w), key=sides.__getitem__) + [w]
    cols = [cols[i] for i in order]
    least = [-h for h in most]
    # per coordinate in walk order, the cuts least_j <= S_j + x c <= most_j, less what later
    # coordinates can add, swapped where x < 0
    levels = []
    for k in range(d - 1, -1, -1):
        levels.append([(j, x, least[j], most[j]) if x > 0 else (j, x, most[j], least[j])
                       for j, x in enumerate(cols[k][:bounded]) if x])
        a, b = box[order[k]]
        least = [y - x * (b if x > 0 else a) for y, x in zip(least, cols[k])]
        most = [y - x * (a if x > 0 else b) for y, x in zip(most, cols[k])]
    levels.reverse()
    dY = cols[-1]
    inner = [(j, x, 1 - lo, lo - 1) if x > 0 else (j, x, lo - 1, 1 - lo)  # ||F_(<n)|| < lo
             for j, x in enumerate(dY[:n]) if x]
    flat = [j for j in range(n) if not dY[j]]

    def line(S):  # its runs, split around [a, b], where ||F_(<n)|| < lo
        first, last = _cut(*box[w], levels[-1], S)
        a, b = (_cut(first, last, inner, S)
                if lo > 0 and (not flat or max(abs(S[j]) for j in flat) < lo) else (last + 1, last))
        return [(S, dY, u, v) for u, v in ((first, min(last, a - 1)), (max(a, b + 1), last))
                if u <= v]

    def walk(k, S):
        first, last = _cut(*box[order[k]], levels[k], S)
        for c in range(first, last + 1):
            S1 = [s + c * x for s, x in zip(S, cols[k])]
            yield from walk(k + 1, S1) if k + 2 < d else line(S1)

    return math.prod(sides[i] for i in order[:-1]), walk(0, S) if d > 1 else iter(line(S))


def _shell_runs(form, T, Tinv, radius: Fraction, lo: int, hi: int):
    """`_runs` over the points (p, q) = T c with ||X|| <= D radius and lo <= ||q|| <= hi.

    X = D p + N q - G for form = (D, N, G); T, Tinv hold Python ints.  The
    forms are (q, X, p): q and X bounded, p carried, so no point needs N q.
    The box is `_shell_box`.  The caller spends outer from its budget.
    """
    D, N, G = form
    Tp, Tq = T[:len(N)], T[len(N):]
    cols = [[r[i] for r in Tq] + [D * t[i] + sum(x * r[i] for x, r in zip(row, Tq))
                                  for row, t in zip(N, Tp)] + [t[i] for t in Tp]
            for i in range(len(T))]
    most = [hi] * len(Tq) + [D * radius.numerator // radius.denominator] * len(N)
    return _runs(cols, [0] * len(Tq) + [-g for g in G] + [0] * len(N),
                 _shell_box(form, Tinv, radius, hi), most, lo, len(Tq))


def _spend(total: int) -> int:
    """total, a search's points so far (outer box, then each point scored or listed), in budget."""
    if total > SHELL_MAX_ENUM:
        raise SizeBudgetError(f"shell search of {total} points exceeds budget {SHELL_MAX_ENUM}")
    return total


def _near(Y, dY, forms: range, u: int, v: int) -> List[int]:
    """The t of [u, v] where max |Y_i + t dY_i| over forms, or a tie-break on them, can be least.

    The ends, and the integers next to each t where some |Y_i + t dY_i| turns
    or two of them cross: every other t is inside a stretch where all are linear.
    """
    ts = {u, v}
    for i in forms if v - u > 1 else ():
        cuts = [(-Y[i], dY[i])] + [(s * Y[k] - Y[i], dY[i] - s * dY[k])
                                   for k in range(i + 1, forms.stop) for s in (1, -1)]
        for num, den in cuts:
            if den:
                t = num // den
                ts.update(x for x in (t, t + 1) if u <= x <= v)
    return list(ts)


def _point(form, Y):
    """(D err, q, p) of the point with forms Y = (q, X, p); p_i is the smaller where X_i = D/2."""
    D, m = form[0], len(form[1])
    n = len(Y) - 2 * m
    X = Y[n:n + m]
    return max(map(abs, X)), tuple(Y[:n]), tuple(p - (2 * x == D) for x, p in zip(X, Y[n + m:]))


def _shell_best(form, T, Tinv, radius: Fraction, lo: int, hi: int):
    """(D err, q, p) least in (D err, ||q||, _canon(q)) over the points of `_shell_runs`, or None.

    Along a run max |X_i| is convex and piecewise linear in t: its least
    integers are an interval whose ends are among O(1) candidates (`_near`),
    searched the same way for (||q||, _canon(q)) where two tie.  The least
    max |X| is D err(q) of its q, whose nearest p is in the ball too (`_point`).
    """
    n, d = len(T) - len(form[1]), len(T)
    X, Q = range(n, d), range(n)
    best, at = None, None
    total, runs = _shell_runs(form, T, Tinv, radius, lo, hi)
    total = _spend(total)
    for Y, dY, u, v in runs:
        ts = _near(Y, dY, X, u, v)
        total = _spend(total + len(ts))
        errs = [max(abs(Y[j] + t * dY[j]) for j in X) for t in ts]
        e = min(errs)
        if best is not None and e > best[0]:
            continue
        ties = [t for t, x in zip(ts, errs) if x == e]
        if len(ties) > 1:  # max |X| = e on all of [min(ties), max(ties)]
            ties = _near(Y, dY, Q, min(ties), max(ties))
            total = _spend(total + len(ties))
        for t in ties:
            q = [Y[j] + t * dY[j] for j in Q]
            key = (e, max(map(abs, q)), _canon(q))
            if best is None or key < best:
                best, at = key, [y + t * dy for y, dy in zip(Y, dY)]
    return None if best is None else _point(form, at)


def _shell_points(form, T, Tinv, radius: Fraction, lo: int, hi: int) -> list:
    """[(D err, q, p)] over the points of `_shell_runs`, each q once; radius <= 1/2.

    A point with some X_i = D/2 is left out: its q is listed where X_i = -D/2,
    with the smaller p.  Every run is counted (`_spend`) before any is listed.
    """
    D, n, d = form[0], len(T) - len(form[1]), len(T)
    total, runs = _shell_runs(form, T, Tinv, radius, lo, hi)
    total, kept = _spend(total), []
    for run in runs:
        total = _spend(total + run[3] - run[2] + 1)
        kept.append(run)
    pts = ([y + t * dy for y, dy in zip(Y, dY)] for Y, dY, u, v in kept for t in range(u, v + 1))
    return [_point(form, pt) for pt in pts if D not in [2 * x for x in pt[n:d]]]


def _lattice_basis(D: int, N, T, a, b) -> List[List[float]]:
    """The rows of diag(a I_m, b I_n) B0 T, each entry exact until one rounding to float64.

    B0 has columns (e_i, 0) for p and (A e_j, e_j) for q, A = N / D
    (`_exact_form`); T is any integer transform, and a, b (floats, ints or
    Fractions) are taken exactly.  An entry beyond float64 raises BudgetExceededError.
    """
    Tq = T[len(N):]
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    # a ad D (T_p + A T_q), from the rows of T_p and of N T_q
    top = [[(D * t + x) * an for t, x in zip(*rows)] for rows in zip(T, _matmul(N, Tq))]
    try:  # int / int rounds once, or overflows
        return ([[x / (D * ad) for x in row] for row in top]
                + [[x * bn / bd for x in row] for row in Tq])
    except OverflowError as e:
        raise BudgetExceededError("lattice basis entry beyond the float64 range") from e


def _int_inverse(K) -> Tuple[List[List[int]], int]:
    """(adj K, det K) of a square integer matrix K, exactly in Python ints: adj K K = det K I.

    Fraction-free (Bareiss) elimination of (K | I), all d right-hand sides at
    once: every division is exact, back substitution too, as det K K^-1 is
    integral.  A singular K raises SingularMatrixError.
    """
    d = len(K)
    M = [[int(x) for x in row] + e for row, e in zip(K, _eye(d))]
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
