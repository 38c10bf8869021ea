"""Lattice diagnostics: Lambda_A, the diagonal flow, minima, and flow profiles.

All norms are sup-norms.  Shortest vectors and minima are found by complete
enumeration of an LLL-reduced basis; the reduction and the enumerator are
those of `reduction`, whose module docstring describes them.

Minima are picked from a scored candidate set by one rule (`_minima`):
lambda_i is the shortest candidate independent of lambda_1..lambda_(i-1),
ties in the documented order (`dioph_matrix._canon`).  Only the half of the
set with a positive first coefficient is kept, since -v never wins a tie
against v.  The independence test is a float Gram-Schmidt over the shortest
candidates of all samples at once, k numpy steps in all, and each chosen set
is confirmed by an exact rank.  `successive_minima` and `shortest_vector`
are one sample of it, over the float norms of one reduced lattice.

Along the flow (`flow_profile`, and the dual flow behind
`haw_game.derive_strategy`) a vector (A q + p, q) has length
max(e^(t/m) u, e^(-t/n) w), u = ||A q + p||, w = ||q||, so log lambda_i(t)
is a lower envelope of tents.  `_flow_sweep` scores one candidate set per
stretch of samples: each candidate once, u and w exactly from its integer
coefficients, and its lengths at all the samples are one numpy expression,
from which `_minima` picks.  No sample is reduced or enumerated on its own.
For m = n = 1 the candidates are read off the exact continued fraction of A
(`_cf_sweep`): (1, 0), the convergents of -A with their second-nearest p,
and for lambda_2 the intermediate fractions at each sample's balance index,
one set for all samples, with no reduction or enumeration.  For m + n >= 3
(`_windowed_sweep`) the samples are cut into windows of span `SWEEP_SPAN`.
The integer transform T of the reduction is carried from window to window
in Python ints; each basis g_t B0 T is rebuilt from the exact entries at
working precision, rounded once per entry, and LLL touches it up.  The
basis at a window's end bounds lambda_k at each of its samples, and so the
(u, w) box of every vector that can be a minimum anywhere in the window.
That box is a sup-norm cube at one time, the window's balance time, and one
enumeration there holds every candidate of the window.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Union

import mpmath as mp
import numpy as np

from .dioph_matrix import RealMatrix, _canon_keys, _exact_form
from .errors import BudgetExceededError, SingularMatrixError, ValidationError
from .reduction import _enumerate_in_radius, _finite, _gram_schmidt, _lll, _with_dual_bound

DEFAULT_MAX_ENUM = 2_000_000
# t-span of one window of `_windowed_sweep` (m + n >= 3).  Longer windows
# mean fewer reductions but a box of about e^span times the volume of one
# sample's.  Timed on a 2-core VM over the benchmark's three m + n >= 3
# profiles (t <= 10, dt = 0.02), median of 7 runs: 0.105 s at span 0.5,
# 0.094 s at 0.75, 0.068-0.076 s for spans 1-2, 0.106 s at 3, 2.5 s at 5.
SWEEP_SPAN = 1.0


@dataclass(frozen=True)
class LatticeBasis:
    """Columns of `basis` generate the lattice."""

    basis: np.ndarray
    det_abs: float

    @staticmethod
    def from_columns(cols: np.ndarray) -> "LatticeBasis":
        cols = np.asarray(cols, dtype=np.float64)
        if cols.ndim != 2 or cols.shape[0] != cols.shape[1]:
            raise ValidationError("basis must be square")
        det = float(abs(np.linalg.det(cols)))
        if det < 1e-300:
            raise SingularMatrixError("basis is numerically singular")
        if min(_gram_schmidt(cols.T.tolist())[1]) < sys.float_info.min:
            raise SingularMatrixError("a squared Gram-Schmidt norm underflows: LLL cannot reduce it")
        return LatticeBasis(basis=cols, det_abs=det)

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


def from_matrix(A: Union[RealMatrix, np.ndarray]) -> LatticeBasis:
    """Unimodular lattice with identity blocks and A in the upper right."""
    arr = A.as_array() if isinstance(A, RealMatrix) else np.asarray(A, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError("A must be a 2-d array")
    m, n = arr.shape
    d = m + n
    B = np.eye(d)
    B[:m, m:] = arr
    return LatticeBasis(basis=B, det_abs=1.0)


def apply_flow(L: LatticeBasis, t: float, m: int, n: int) -> LatticeBasis:
    """Scale the first m rows by e^(t/m) and the last n by e^(-t/n)."""
    if m + n != L.dimension:
        raise ValidationError("m + n must equal the lattice dimension")
    scale = np.concatenate([np.full(m, math.exp(t / m)), np.full(n, math.exp(-t / n))])
    return LatticeBasis(basis=L.basis * scale[:, None], det_abs=L.det_abs)


def polar_lattice(L: LatticeBasis) -> LatticeBasis:
    """Inverse-transpose basis: vectors pairing integrally with all of L."""
    try:
        inv = np.linalg.inv(L.basis)
    except np.linalg.LinAlgError as e:
        raise SingularMatrixError("basis not invertible") from e
    return LatticeBasis.from_columns(inv.T)


def _int_matmul(X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """X @ T.T for integer arrays: int64 when no entry can overflow, Python ints otherwise."""
    bound = int(np.abs(X).max(initial=0)) * max(abs(int(v)) for v in T.flat) * T.shape[1]
    if bound < 2**62:
        return X.astype(np.int64) @ np.asarray(T, dtype=np.int64).T
    return X.astype(object) @ np.asarray(T, dtype=object).T


def _canonical(coeffs: np.ndarray) -> np.ndarray:
    """Rows whose first nonzero entry is positive, as indices in `_canon` order.

    Of v and -v only that one can win a tie, and -v is never independent of
    v, so this half of a candidate set decides every minimum.
    """
    first = (coeffs != 0).argmax(axis=1)
    keep = np.nonzero(coeffs[np.arange(len(coeffs)), first] > 0)[0]
    return keep[np.lexsort(_canon_keys(coeffs[keep]))]


def _independent(X: np.ndarray, k: int):
    """Greedy independence over each column of X (P, S, d): (positions (S, k), found (S,)).

    Step j takes, in every column at once, the first row whose residual
    against the rows taken so far is nonzero (relative 1e-9), then projects
    that direction out of all residuals: k numpy steps for all columns.
    """
    P, S, _ = X.shape
    cols = np.arange(S)
    R = X.copy()
    tol = 1e-9 * (1 + np.sqrt((X * X).sum(axis=2)))
    pos = np.zeros((S, k), dtype=np.int64)
    found = np.ones(S, dtype=bool)
    for j in range(k):
        rn = np.sqrt((R * R).sum(axis=2))
        ok = rn > tol
        p = ok.argmax(axis=0)
        found &= ok[p, cols]
        pos[:, j] = p
        direction = R[p, cols] / np.where(found, rn[p, cols], 1.0)[:, None]
        R -= np.einsum("ps,sd->psd", np.einsum("psd,sd->ps", R, direction), direction)
    return pos, found


def _exact_greedy(order: np.ndarray, grid: np.ndarray, k: int) -> Optional[List[int]]:
    """Greedy minima along `order` with every independence test exact."""
    chosen: List[int] = []
    for i in order.tolist():
        if _exact_rank([grid[j] for j in chosen] + [grid[i]]) > len(chosen):
            chosen.append(i)
            if len(chosen) == k:
                return chosen
    return None


def _minima(lengths: np.ndarray, grid: np.ndarray, k: int) -> Optional[np.ndarray]:
    """Greedy successive minima at each sample: (S, k) candidate indices, or None.

    lengths (C, S) holds each candidate's length at each sample and grid
    (C, d) its integer coordinates in any basis; candidates come in `_canon`
    order, so (length, index) is the documented tie order.  lambda_i takes the
    first candidate independent of lambda_1..lambda_(i-1).  The test runs on
    the shortest P candidates of each sample, P growing only for the samples
    that need more, and each chosen set is confirmed by an exact rank.
    None when some sample has fewer than k independent candidates.
    """
    C, S = lengths.shape
    if k == 1:
        return lengths.argmin(axis=0)[:, None]  # the first of equal minima
    coords = grid.astype(np.float64)
    rows = np.empty((S, k), dtype=np.int64)
    todo, P = np.arange(S), min(C, 8 * k)
    while todo.size:
        sub, cols = lengths[:, todo], np.arange(todo.size)
        if P < C:
            head = np.argpartition(sub, P, axis=0)
            head, edge = head[:P], sub[head[P], cols]
            head = np.take_along_axis(head, np.lexsort((head, sub[head, cols]), axis=0), axis=0)
        else:
            head, edge = np.argsort(sub, axis=0, kind="stable"), np.full(todo.size, np.inf)
        pos, found = _independent(coords[head], k)
        picked = head[pos, cols[:, None]]
        # every candidate as short as lambda_k must be in the head
        done = found & (sub[picked[:, -1], cols] < edge)
        if P == C and not done.all():
            return None
        rows[todo[done]] = picked[done]
        todo, P = todo[~done], min(C, 16 * P)
    # each distinct set once, as a list: a tuple would index grid one axis per entry
    for chosen in map(list, {tuple(r) for r in rows.tolist()}):
        if _exact_rank(grid[chosen]) < k:  # the float test was fooled: redo these exactly
            for s in np.nonzero((rows == chosen).all(axis=1))[0]:
                redo = _exact_greedy(np.lexsort((np.arange(C), lengths[:, s])), grid, k)
                if redo is None:
                    return None
                rows[s] = redo
    return rows


def _lattice_minima(L: LatticeBasis, k: int, max_enum: int):
    """(lengths, vecs, coeffs) of the first k greedy minima of one lattice.

    One sample of `_minima` over the float norms.  The reduced basis has k
    independent columns, so the k-th shortest bounds lambda_k and is the
    first radius; the radius doubles while the ball holds fewer than k
    independent vectors.  Only primitive vectors are candidates: a multiple
    c v, |c| >= 2, is independent of the picks exactly when v is, and v is
    shorter, so c v is never a greedy minimum.
    """
    Bred, T = _lll(L.basis)
    radius = float(np.sort(np.abs(Bred).max(axis=0))[k - 1]) * (1 + 1e-9)
    own = _with_dual_bound(Bred, np.eye(L.dimension, dtype=np.int64))  # coordinates in Bred
    for _ in range(64):
        grid, vecs, norms = next(_enumerate_in_radius(own, radius, max_enum))
        prim = np.nonzero(np.gcd.reduce(grid, axis=1) == 1)[0]
        idx = prim[_canonical(grid[prim] @ T.T)]
        rows = _minima(norms[idx][:, None], grid[idx], k) if idx.size else None
        if rows is not None:
            pick = idx[rows[0]]
            return [float(v) for v in norms[pick]], vecs[pick].copy(), grid[pick] @ T.T
        radius *= 2
    raise BudgetExceededError("successive minima search exceeded radius doublings")


def shortest_vector(L: LatticeBasis, max_enum: int = DEFAULT_MAX_ENUM):
    """Sup-norm shortest nonzero vector.

    Returns (vector, coeffs, length).  Ties go to the coefficient vector that
    comes first lexicographically in the coordinatewise order 0, 1, -1, 2, -2,
    ... (`dioph_matrix._canon`).  The search starts at the shortest reduced
    basis column and doubles until a nonzero vector is inside.
    """
    lengths, vecs, coeffs = _lattice_minima(L, 1, max_enum)
    return vecs[0], coeffs[0], lengths[0]


def _exact_rank(rows: List[Sequence[int]]) -> int:
    """Rank over Q of integer vectors (fraction-free Bareiss elimination).

    After each pivot every entry below it is a minor of the matrix, so the
    division by the previous pivot is exact.
    """
    mat = [[int(v) for v in row] for row in rows]
    rank, prev = 0, 1
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        p = top[c]
        for r in range(rank + 1, len(mat)):
            row, f = mat[r], mat[r][c]
            mat[r] = [0] * (c + 1) + [(p * row[cc] - f * top[cc]) // prev
                                      for cc in range(c + 1, ncols)]
        prev = p
        rank += 1
    return rank


def successive_minima(L: LatticeBasis, k: int, max_enum: int = DEFAULT_MAX_ENUM):
    """Greedy Minkowski minima: lambda_i = min length independent of previous picks.

    Returns (lengths, vectors, coeffs).
    """
    if not 1 <= k <= L.dimension:
        raise ValidationError("need 1 <= k <= dimension")
    return _lattice_minima(L, k, max_enum)


def shortest_vector_l1(L: LatticeBasis, max_enum: int = DEFAULT_MAX_ENUM) -> float:
    """Shortest nonzero vector in the l1 gauge (the polar of the sup ball).

    Complete because the l1 ball of radius R sits inside the sup ball of
    radius R, so enumerating the sup ball and growing R until the best l1
    length is at most R cannot miss anything.
    """
    radius = L.det_abs ** (1.0 / L.dimension) * 1.0000001
    reduced = _with_dual_bound(*_lll(L.basis))
    for _ in range(64):
        _coeffs, vecs, _norms = next(_enumerate_in_radius(reduced, radius, max_enum))
        if vecs.shape[0]:
            best = float(np.abs(vecs).sum(axis=1).min())
            if best <= radius * (1 + 1e-12):
                return best
        radius *= 2
    raise BudgetExceededError("l1 shortest vector search exceeded radius doublings")


def mahler_duality_check(L: LatticeBasis, max_enum: int = DEFAULT_MAX_ENUM) -> float:
    """lambda_d(L) in sup norm times lambda_1(L*) in the polar (l1) gauge.

    The pairing bound |<v, w>| <= ||v||_inf ||w||_1 pins the product >= 1;
    measuring the dual in the sup norm instead admits products down to 1/d.
    """
    d = L.dimension
    lengths, _, _ = successive_minima(L, d, max_enum)
    lam1_dual = shortest_vector_l1(polar_lattice(L), max_enum=max_enum)
    return lengths[-1] * lam1_dual


def theta_sigma(sigma: float, m: int, n: int) -> float:
    """Slope (n*sigma - m) / ((sigma + 1) m n) of the eligibility line r(t)."""
    return (n * sigma - m) / ((sigma + 1) * m * n)


@dataclass
class FlowProfile:
    times: np.ndarray
    delta_values: np.ndarray
    lambdas: np.ndarray  # (T, d) successive minima per sample
    minima_times: List[float]
    minima_indices: List[int]
    is_minimum: np.ndarray
    m: int
    n: int
    r_slope: Optional[float] = None
    weighted_minima_times: List[float] = field(default_factory=list)
    minima_vectors: List[np.ndarray] = field(default_factory=list)  # base-frame components


def _local_minima_indices(vals: np.ndarray) -> List[int]:
    out = []
    for i in range(1, len(vals) - 1):
        if vals[i] < vals[i - 1] and vals[i] <= vals[i + 1]:
            out.append(i)
    return out


def _balance_time(base_vec: np.ndarray, m: int, n: int) -> Optional[float]:
    u = np.abs(base_vec[:m]).max()
    w = np.abs(base_vec[m:]).max()
    if u <= 0 or w <= 0:
        return None
    return math.log(w / u) * m * n / (m + n)


def _as_real_matrix(A: Union[RealMatrix, np.ndarray]) -> RealMatrix:
    if isinstance(A, RealMatrix):
        return A
    arr = np.asarray(A, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError("A must be a 2-d array")
    return RealMatrix.from_rows(arr.tolist())


@dataclass
class _Sweep:
    lambdas: np.ndarray  # (S, k) successive minima at each sample
    coeffs: np.ndarray  # (S, m + n) coefficients (p, q) of the lambda_1 vector
    u: np.ndarray  # (S,) ||A q + p|| of that vector, rounded once
    w: np.ndarray  # (S,) ||q|| of that vector


def _exact_uw(D: int, N: np.ndarray, coeffs: np.ndarray):
    """u = ||A q + p|| and w = ||q|| of each row (p, q) of coeffs, each rounded once.

    A = N / D, with N an (m, n) array of Python ints (`_exact_form`).
    """
    m = N.shape[0]
    p, q = coeffs[:, :m], coeffs[:, m:]
    bound = (int(np.abs(N).sum(axis=1).max()) * max(int(np.abs(q).max(initial=0)), 1)
             + D * max(int(np.abs(p).max(initial=0)), 1))  # D itself must stay below 2^53
    if coeffs.dtype == object or bound >= 2**53:
        r = q.astype(object) @ N.T + D * p.astype(object)
        u = (np.abs(r).max(axis=1) / D).astype(np.float64)  # int / int rounds once
    else:
        u = np.abs(q @ N.T.astype(np.int64) + D * p).max(axis=1) / D  # below 2^53: one rounding
    return u, np.abs(q).max(axis=1).astype(np.float64)


def _flowed_basis(D: int, N: np.ndarray, T: np.ndarray, t: float, prec: int) -> np.ndarray:
    """g_t B0 T for the unimodular basis B0 of Lambda_A, A = N / D, and integer T.

    Each entry is formed at working precision from the exact entries of A
    and rounded once to float, however large T has grown.
    """
    m, n = N.shape
    top = D * T[:m] + N @ T[m:]  # D (T_p + A T_q)
    with mp.workprec(prec):
        up = mp.exp(mp.mpf(t) / m) / D
        down = mp.exp(-mp.mpf(t) / n)
        rows = [[float(up * int(x)) for x in row] for row in top]
        rows += [[float(down * int(x)) for x in row] for row in T[m:]]
    return np.array(rows, dtype=np.float64)


def _window(D: int, N: np.ndarray, T: np.ndarray, ts: np.ndarray, k: int,
            carried, max_enum: int, prec: int):
    """The minima of one window of `_flow_sweep` at its sample times ts.

    Returns (T, lengths, rows, coeffs, u, w): the transform reduced at the
    window's balance time tau, the (C, S) lengths of the scored candidates,
    the (S, k) rows `_minima` picked, and the candidates' coefficients and
    exact u, w.
    """
    m, n = N.shape
    grow, shrink = np.exp(ts / m), np.exp(-ts / n)
    _, Tl = _lll(_flowed_basis(D, N, T, float(ts[-1]), prec))
    T = T @ Tl.astype(object)
    # lambda_k(t_s) <= the k-th shortest column of that basis at t_s (they are
    # independent), and <= the longest of the k minima carried from the last window
    bu, bw = _exact_uw(D, N, T.T)
    bound = np.sort(np.maximum(np.outer(bu, grow), np.outer(bw, shrink)), axis=0)[k - 1]
    if carried is not None:
        bound = np.minimum(bound, np.maximum(np.outer(carried[0], grow),
                                             np.outer(carried[1], shrink)).max(axis=0))
    bound *= 1 + 1e-9
    u_max, w_max = float((bound / grow).max()), float((bound / shrink).max())
    tau = m * n / (m + n) * math.log(w_max / u_max)
    R = math.exp(tau / m) * u_max
    Bred, Tl = _lll(_flowed_basis(D, N, T, tau, prec))
    T = T @ Tl.astype(object)
    own = _with_dual_bound(Bred, np.eye(m + n, dtype=np.int64))  # coordinates in Bred
    reach = np.maximum(np.exp((tau - ts) / m), np.exp((ts - tau) / n))
    cols = np.arange(len(ts))
    while True:
        grid, _vecs, _norms = next(_enumerate_in_radius(own, R * (1 + 1e-9), max_enum))
        coeffs = _int_matmul(grid, T)
        idx = _canonical(coeffs)
        if idx.size:
            grid, coeffs = grid[idx], coeffs[idx]
            u, w = _exact_uw(D, N, coeffs)
            lengths = np.maximum(np.outer(u, grow), np.outer(w, shrink))
            rows = _minima(lengths, grid, k)
            if rows is not None and np.all(lengths[rows[:, -1], cols] * reach <= R):
                return T, lengths, rows, coeffs, u, w
        R *= 2


def _flow_sweep(A: RealMatrix, times: np.ndarray, k: int, max_enum: int) -> _Sweep:
    """lambda_1..lambda_k of g_t Lambda_A at increasing sample times t >= 0.

    1 x 1 matrices read their minima off the continued fraction of A
    (`_cf_sweep`); every other shape is swept window by window
    (`_windowed_sweep`), and only there does max_enum apply.  A matrix
    entry beyond the float64 range raises BudgetExceededError.
    """
    _finite(A.as_array(), "matrix")
    if A.m == A.n == 1:
        D, N, _ = _exact_form(A, (Fraction(0),), 1)
        return _cf_sweep(D, int(N[0, 0]), np.asarray(times, dtype=np.float64), k)
    return _windowed_sweep(A, times, k, max_enum)


def _convergents(num: int, den: int, bound: float):
    """Partial quotients a_j and convergents (p_j, q_j) of num/den, den > 0.

    Returns (quotients, vectors) with vectors[0] = (0, 1) = v_(-2),
    vectors[1] = (1, 0) = v_(-1) and vectors[j + 2] = v_j = a_j v_(j-1) +
    v_(j-2), up to the first two with q_j > bound or to the last.
    """
    quotients, vectors = [], [(0, 1), (1, 0)]
    beyond = 0
    while den and beyond < 2:
        a, (num, den) = num // den, (den, num % den)
        (p0, q0), (p1, q1) = vectors[-2:]
        vectors.append((a * p1 + p0, a * q1 + q0))
        quotients.append(a)
        beyond += vectors[-1][1] > bound
    return quotients, vectors


def _sign_canon(v) -> tuple:
    """v or -v, whichever has a positive first nonzero entry."""
    return v if v[0] > 0 or (v[0] == 0 and v[1] > 0) else (-v[0], -v[1])


def _cf_sweep(D: int, a: int, times: np.ndarray, k: int) -> _Sweep:
    """`_flow_sweep` for A = a / D, from the continued fraction of -A.

    A vector with coefficients (p, q) has u = |A q + p| and w = |q|.  By
    Lagrange's best-approximation theorem (Cassels, ch. I) the shortest
    vector at every t is (1, 0) or a convergent v_j of -A; lambda_1 <= 1
    (covolume 1) bounds its q by e^t, so the convergents run to the first
    two with q > e^(t_max).  Each v_j -+ (1, 0), the second-nearest p at q_j,
    covers the ties of equal length at small t.  For k = 2, lambda_2 at a
    sample whose shortest vector is v_j is one of the intermediate fractions
    v_(j-1) + i v_j, 0 <= i <= a_(j+1) (`_intermediates`), or one of the
    candidates above: apart from multiples of v_j, these are the only
    lattice points that v_j alone dominates.

    All samples share one candidate set.  It is scored as the windows score
    theirs (`_canonical`, `_exact_uw`, one length expression, `_minima`), so
    each sample picks the vectors the windows pick, ties included.
    Candidates with q > 2 (|A| + 1) e^(2 t_max) are left out: (1, 0) and
    (0, 1) are shorter at every sample.
    """
    t_max = float(times.max(initial=0.0))
    quotients, V = _convergents(-a, D, math.exp(t_max))
    cap = 2 * (abs(a) // D + 1) * math.ceil(math.exp(2 * t_max)) if t_max < 350 else math.inf
    V = [v for v in V if v[1] <= cap]
    # sign-canonical candidate -> index in V of the convergent it comes from;
    # the convergents go first, so that (0, 1) maps to v_j when it is one
    source = {}
    near = [((p + d, q), idx) for idx, (p, q) in enumerate(V[2:], 2) for d in (-1, 1)]
    for v, idx in [(v, idx) for idx, v in reversed(list(enumerate(V)))] + near:
        source.setdefault(_sign_canon(v), idx)
    grow, shrink = np.exp(times), np.exp(-times)

    def score(cands):
        coeffs = np.array(cands, dtype=object).reshape(-1, 2)
        coeffs = coeffs[_canonical(coeffs)]
        u, w = _exact_uw(D, np.array([[a]], dtype=object), coeffs)
        return coeffs, u, w, np.maximum(np.outer(u, grow), np.outer(w, shrink))

    coeffs, u, w, lengths = score(list(source))
    if k == 1:
        rows = _minima(lengths, coeffs, 1)
    else:
        at = np.array([source[(int(p), int(q))] for p, q in coeffs])[lengths.argmin(axis=0)]
        extra, base = _intermediates(D, a, V, quotients, at, grow, shrink)
        coeffs, u, w, lengths = score(list(source) + [v for v in extra - source.keys()
                                                      if abs(v[1]) <= cap])
        rows = _local_minima(coeffs, lengths, V, at, base, k)
    lam = lengths[rows, np.arange(len(times))[:, None]]
    return _Sweep(lambdas=lam, coeffs=coeffs[rows[:, 0]], u=u[rows[:, 0]], w=w[rows[:, 0]])


def _intermediates(D: int, a: int, V, quotients, at: np.ndarray, grow: np.ndarray,
                   shrink: np.ndarray):
    """The intermediate fractions v_(j-1) + i v_j near balance at each sample.

    v_j = V[at[s]] is the shortest vector at sample s.  Along i the length
    max(e^t u, e^-t w) of v_(j-1) + i v_j is least at the balance index
    i* = (e^t u_(j-1) - e^-t q_(j-1)) / (e^t u_j + e^-t q_j), and i runs
    over floor(i*) - 1 .. ceil(i*) + 1, clipped to [0, a_(j+1)].  i* is
    taken in float where its error is far below 1 (and the range widened
    by one each side), else exactly from the float e^(+-t) the lengths use.
    Returns the set of sign-canonical candidates and, per sample, the base
    of its local basis for `_local_minima`: floor(i*) clipped and rounded
    down to a multiple of 16, 0 at (1, 0) and (0, 1).
    """
    Us = [abs(a * q + D * p) for p, q in V]  # D u of each convergent
    uV = np.array([U / D for U in Us])
    qV = np.array([float(q) for _, q in V])
    # a_(j+1) for v_j = V[idx], or no bound after the last convergent
    tops = [quotients[idx - 1] if idx - 1 < len(quotients) else math.inf for idx in range(len(V))]
    base = [0] * len(at)
    spans = set()  # (index of v_j, least i, greatest i)
    ss = np.nonzero(at >= 2)[0]
    j1 = at[ss]
    g, h = grow[ss], shrink[ss]
    est = (g * uV[j1 - 1] - h * qV[j1 - 1]) / (g * uV[j1] + h * qV[j1])
    spread = (g * uV[j1 - 1] + h * qV[j1 - 1]) / (g * uV[j1] + h * qV[j1])
    in_float = np.maximum(np.abs(est), spread) < 2**40
    fl = np.floor(np.where(in_float, est, 0)).astype(np.int64)
    spans.update(zip(j1[in_float].tolist(), (fl[in_float] - 2).tolist(),
                     (fl[in_float] + 3).tolist()))
    for s, idx, f in zip(ss[in_float].tolist(), j1[in_float].tolist(), fl[in_float].tolist()):
        base[s] = (min(max(f, 0), tops[idx]) >> 4) << 4
    for s, idx in zip(ss[~in_float].tolist(), j1[~in_float].tolist()):
        gn, gd = float(grow[s]).as_integer_ratio()
        hn, hd = float(shrink[s]).as_integer_ratio()
        num = gn * hd * Us[idx - 1] - hn * gd * D * V[idx - 1][1]
        den = gn * hd * Us[idx] + hn * gd * D * V[idx][1]
        spans.add((idx, num // den - 1, -(-num // den) + 1))
        base[s] = (min(max(num // den, 0), tops[idx]) >> 4) << 4
    extra = set()
    for idx, lo, hi in spans:
        (p0, q0), (p1, q1) = V[idx - 1], V[idx]
        extra.update(_sign_canon((p0 + i * p1, q0 + i * q1))
                     for i in range(max(lo, 0), min(hi, tops[idx]) + 1))
    return extra, base


def _local_minima(coeffs: np.ndarray, lengths: np.ndarray, V, at: np.ndarray, base, k: int):
    """`_minima` over the samples, in groups that share a well-conditioned basis.

    `_minima`'s float independence test needs integer coordinates in which
    lambda_1 and lambda_2 are far from parallel; the coefficients (p, q)
    themselves grow like e^t.  A sample with shortest vector v_j = V[at] and
    base c > 0 uses the basis (v_(j-1) + c v_j, v_j): both minima then have
    coordinates below 20.  The others are grouped by the bit length of q_j
    over 8, with the basis (v_(B-1), v_B) of the least convergent B >= 0 of
    the group, where their minima have coordinates below 2^14.
    """
    bits = [q.bit_length() // 8 for _, q in V]
    groups = {}
    for s, (idx, c) in enumerate(zip(at.tolist(), base)):
        groups.setdefault((idx, c) if c else (None, bits[idx]), []).append(s)
    rows = np.empty((lengths.shape[1], k), dtype=np.int64)
    P, Q = coeffs[:, 0], coeffs[:, 1]
    for (idx, c), members in groups.items():
        if idx is None:  # not (v_(-2), v_(-1)), the identity: p grows like |A| q there
            idx = max(2, int(at[members].min()))
        (p0, q0), (p1, q1) = V[idx - 1], V[idx]
        e = (p0 + c * p1, q0 + c * q1)
        sign = e[0] * q1 - e[1] * p1  # det(e, v_j) = +-1
        grid = np.stack([sign * (P * q1 - Q * p1), sign * (e[0] * Q - e[1] * P)], axis=1)
        picked = _minima(lengths[:, members], grid, k)
        if picked is None:
            raise BudgetExceededError(f"continued-fraction candidates hold fewer than {k} "
                                      "independent vectors")
        rows[members] = picked
    return rows


def _windowed_sweep(A: RealMatrix, times: np.ndarray, k: int, max_enum: int) -> _Sweep:
    """`_flow_sweep` for any shape, one enumeration per window.

    Along g_t a lattice vector (A q + p, q) has length
    max(e^(t/m) u, e^(-t/n) w) with u = ||A q + p|| and w = ||q||.  The
    samples are cut into windows of span `SWEEP_SPAN`.  In a window the
    transform T, kept in Python ints, gives the basis at its last sample
    (`_flowed_basis`), and LLL touches it up.  At each sample t_s the k-th
    shortest of its columns, and the longest of the k minima carried from
    the last window, bound lambda_k(t_s) by B_s, with u and w exact.  A
    vector that short at t_s has u <= B_s e^(-t_s/m) and w <= B_s e^(t_s/n).
    With u_max and w_max the largest of these over the window, the box
    u <= u_max, w <= w_max is the sup-norm ball of radius R = e^(tau/m) u_max
    at tau = mn/(m + n) log(w_max/u_max), the time that makes R least.  So
    the basis is rebuilt and reduced again at tau, and one enumeration of
    radius R there holds every candidate of the window; T is carried on from
    tau.  Each candidate is scored once, u and w exactly, and its lengths at
    all the window's samples are one numpy expression; `_minima` picks the
    minima.  The window is checked afterwards,
    lambda_k(t_s) max(e^((tau - t_s)/m), e^((t_s - tau)/n)) <= R at every
    sample, and enumerated again at twice the radius if it fails.  A window
    whose ball outgrows max_enum points is halved, down to one sample.
    """
    m, n = A.m, A.n
    S = len(times)
    D, N, _ = _exact_form(A, (Fraction(0),) * m, 1)
    N = N.astype(object)
    T = np.eye(m + n, dtype=np.int64).astype(object)
    lam = np.empty((S, k))
    first = np.empty((S, m + n), dtype=object)
    u1, w1 = np.empty(S), np.empty(S)
    carried = None  # (u, w) of the k minima at the last sample
    i0 = 0
    while i0 < S:
        i1 = int(np.searchsorted(times, times[i0] + SWEEP_SPAN, side="right"))
        while True:
            ts = np.asarray(times[i0:i1], dtype=np.float64)
            try:
                T, lengths, rows, coeffs, u, w = _window(D, N, T, ts, k, carried, max_enum,
                                                         A.precision_bits)
                break
            except BudgetExceededError:
                if i1 - i0 == 1:
                    raise
                i1 = i0 + (i1 - i0) // 2
        lam[i0:i1] = lengths[rows, np.arange(len(ts))[:, None]]
        first[i0:i1] = coeffs[rows[:, 0]]
        u1[i0:i1], w1[i0:i1] = u[rows[:, 0]], w[rows[:, 0]]
        carried = (u[rows[-1]], w[rows[-1]])
        i0 = i1
    return _Sweep(lambdas=lam, coeffs=first, u=u1, w=w1)


def flow_profile(A: Union[RealMatrix, np.ndarray], t_max: float, dt: float,
                 sigma: Optional[float] = None, max_enum: int = DEFAULT_MAX_ENUM,
                 minima_count: Optional[int] = None) -> FlowProfile:
    """Sample Delta(t) = -log lambda_1(g_t Lambda_A) and flag its local maxima.

    Flagged times (local minima of the shortest length) are refined to the
    exact balance time of the winning vector, where its expanding and
    contracting block norms agree; the same refinement serves the weighted
    profile e^(r(t)) lambda_1 since the linear weight shifts no vertex.
    max_enum bounds each window's enumeration when m + n >= 3; a 1 x 1
    profile enumerates nothing and ignores it.
    """
    A = _as_real_matrix(A)
    m, n = A.m, A.n
    if dt <= 0 or t_max <= 0:
        raise ValidationError("need positive dt and t_max")
    d = m + n
    k = d if minima_count is None else max(1, min(d, minima_count))
    times = np.arange(0.0, t_max + dt / 2, dt)
    sweep = _flow_sweep(A, times, k, max_enum)
    lam = sweep.lambdas
    L0 = from_matrix(A)
    base_vecs = [L0.basis @ c.astype(np.float64) for c in sweep.coeffs]
    lam1 = lam[:, 0]
    delta = -np.log(lam1)
    idxs = _local_minima_indices(lam1)
    minima_times, kept, vectors = [], [], []
    for i in idxs:
        bt = _balance_time(base_vecs[i], m, n)
        t_ref = bt if bt is not None and abs(bt - times[i]) <= dt else float(times[i])
        minima_times.append(float(t_ref))
        kept.append(i)
        vectors.append(base_vecs[i])
    flags = np.zeros(len(times), dtype=bool)
    flags[kept] = True
    slope = theta_sigma(sigma, m, n) if sigma is not None else None
    weighted_minima = []
    if sigma is not None:
        weighted = np.exp(slope * times) * lam1
        for i in _local_minima_indices(weighted):
            bt = _balance_time(base_vecs[i], m, n)
            weighted_minima.append(float(bt) if bt is not None and abs(bt - times[i]) <= dt
                                   else float(times[i]))
    return FlowProfile(times=times, delta_values=delta, lambdas=lam,
                       minima_times=minima_times, minima_indices=kept,
                       is_minimum=flags, m=m, n=n, r_slope=slope,
                       weighted_minima_times=weighted_minima, minima_vectors=vectors)


def segment_slopes(profile: FlowProfile, min_samples: int = 3) -> List[float]:
    """Least-squares slopes of Delta between consecutive piecewise-linear vertices."""
    delta, times = profile.delta_values, profile.times
    verts = {0, len(times) - 1}
    for i in range(1, len(times) - 1):
        if (delta[i] > delta[i - 1] and delta[i] >= delta[i + 1]) or \
           (delta[i] < delta[i - 1] and delta[i] <= delta[i + 1]):
            verts.add(i)
    vs = sorted(verts)
    slopes = []
    for a, b in zip(vs[:-1], vs[1:]):
        # interior samples only: the vertex samples straddle two linear pieces
        lo, hi = a + 1, b
        if hi - lo >= min_samples:
            t, y = times[lo:hi], delta[lo:hi]
            slope = float(np.polyfit(t, y, 1)[0])
            slopes.append(slope)
    return slopes
