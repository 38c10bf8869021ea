"""Lattice diagnostics: Lambda_A, the diagonal flow, minima, and flow profiles.

All norms are sup-norms.  Shortest vectors and minima are found by complete
enumeration of an LLL-reduced basis: `reduction`'s kernel walks an exact box,
and the ball is kept by the float lengths computed here (`_float_ball`).

Minima are picked from a scored candidate set by one rule (`_minima`):
lambda_i is the shortest candidate independent of lambda_1..lambda_(i-1),
ties in the documented order (`reduction._canon`).  Only the half of the
set with a positive first coefficient is kept, since -v never wins a tie
against v.  Each sample walks its candidates in that order and picks each
one independent of the picks so far, decided exactly in Python ints by
fraction-free elimination against echelon rows kept per pick prefix.
`successive_minima` and `shortest_vector` are one sample of it, over the
float norms of one reduced lattice.

Along the flow (`flow_profile`, and the dual flow behind
`haw_game.derive_strategy`) a vector (A q + p, q) has length
max(e^(t/m) u, e^(-t/n) w), u = ||A q + p||, w = ||q||, so log lambda_i(t)
is a lower envelope of tents.  `_flow_sweep` scores one candidate set per
stretch of samples: each candidate once, u and w exactly from its integer
coefficients, and its lengths at all the samples are one numpy array
(`_lengths`, held to `MAX_LENGTHS` entries), from which `_minima` picks.
No sample is reduced or enumerated on its own.
For m = n = 1 the candidates are read off the exact continued fraction of A
(`_cf_sweep`): (1, 0), the convergents of -A with their second-nearest p,
and for lambda_2 the intermediate fractions at each sample's balance index,
one set for all samples, with no reduction or enumeration.  For m + n >= 3
(`_windowed_sweep`) the samples are cut into windows, each enumerated once
at its balance time on a basis built from the exact entries and the integer
transform carried from window to window (`reduction._lattice_basis`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Union

import numpy as np

from .dioph_matrix import RealMatrix, _exact_form, _ls_slope
from .errors import BudgetExceededError, SingularMatrixError, SizeBudgetError, ValidationError
from .reduction import (_dual_l1, _enumerate_in_radius, _gram_schmidt, _int_dtype, _int_inverse,
                        _lattice_basis, _lll)

# points per enumeration box of a minima search or flow window; the box is
# held in memory whole, and a flow window whose box is over budget is halved
DEFAULT_MAX_ENUM = 2_000_000
# t-span of one window of `_windowed_sweep` (m + n >= 3).  Longer windows
# mean fewer reductions but a box of about e^span times the volume of one
# sample's.  Timed on a 2-core VM over the benchmark's three m + n >= 3
# profiles (t <= 10, dt = 0.02), median of 7 runs: 0.105 s at span 0.5,
# 0.094 s at 0.75, 0.068-0.076 s for spans 1-2, 0.106 s at 3, 2.5 s at 5.
SWEEP_SPAN = 1.0
# samples per flow profile; a profile past it ends as a budget error before
# any sample is taken
MAX_SAMPLES = 100_000
# candidates x samples one sweep array may hold: a window over it is halved,
# a 1 x 1 sweep over it is a budget error.  A = 3/10 to t = 10 at dt 0.005
# (1.2e7 lengths) peaks at 313 MB in 1.7 s (2-core VM); at dt 0.001, 2.5e8
# lengths took 14 s and 5.8 GB with no budget
MAX_LENGTHS = 1 << 24
# the sweeps scale by e^t in float64, which overflows past t = 709
MAX_T = 700.0


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
    A = _as_real_matrix(A)
    D, N, _ = _exact_form(A, (Fraction(0),) * A.m)
    return LatticeBasis(basis=_lattice_basis(D, N, np.eye(A.m + A.n, dtype=object), 1, 1),
                        det_abs=1.0)


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
    dtype = _int_dtype(int(np.abs(X).max(initial=0)) * max(abs(int(v)) for v in T.flat)
                       * T.shape[1])
    return X.astype(dtype) @ np.asarray(T, dtype=dtype).T


def _canon_keys(vecs: np.ndarray) -> tuple:
    """np.lexsort keys for `reduction._canon`'s order over the rows of an integer array."""
    keys = []
    for j in range(vecs.shape[1] - 1, -1, -1):
        keys.append((vecs[:, j] < 0).astype(np.int8))
        keys.append(np.abs(vecs[:, j]))
    return tuple(keys)


def _canonical(coeffs: np.ndarray) -> np.ndarray:
    """Rows whose first nonzero entry is positive, as indices in `_canon` order.

    Of v and -v only that one can win a tie, and -v is never independent of
    v, so this half of a candidate set decides every minimum.
    """
    first = (coeffs != 0).argmax(axis=1)
    keep = np.nonzero(coeffs[np.arange(len(coeffs)), first] > 0)[0]
    return keep[np.lexsort(_canon_keys(coeffs[keep]))]


def _reduce(c: list, echelon: list) -> Optional[tuple]:
    """c reduced fraction-free against echelon rows (pivot, row): (pivot, row), or None.

    Each row is zero at the pivots before its own, so c ends zero at all of
    them, and is nonzero (not None) exactly when it is independent of them.
    """
    for p, row in echelon:
        if c[p]:
            c = [row[p] * x - c[p] * y for x, y in zip(c, row)]
    g = math.gcd(*c)
    return (next(j for j, x in enumerate(c) if x), [x // g for x in c]) if g else None


def _minima(lengths: np.ndarray, grid: np.ndarray, k: int) -> Optional[np.ndarray]:
    """Greedy successive minima at each sample: (S, k) candidate indices, or None.

    lengths (C, S) holds each candidate's length at each sample and grid
    (C, d) its integer coordinates in any basis; candidates come in `_canon`
    order, so (length, index) is the documented tie order.  Each sample walks
    its candidates in that order and picks each one independent of the
    picks so far (`_reduce`, exact), until it has k.  Each (pick prefix,
    candidate) test is made once per call, and a sample whose order matches
    the last walked sample's up to its k-th pick takes its picks.  Orders
    open with the rows of an argpartition head shorter than its longest; a
    walk past them goes on in its sample's whole order, one stable sort,
    which is quick on a column of ties.  None when some sample has fewer
    than k independent candidates.
    """
    C, S = lengths.shape
    if k == 1:
        return lengths.argmin(axis=0)[:, None]  # the first of equal minima
    cols, P = np.arange(S), min(C, 8 * k)
    head = np.argpartition(lengths, P - 1, axis=0)[:P]
    head = np.take_along_axis(head, np.lexsort((head, lengths[head, cols]), axis=0), axis=0)
    known = (lengths[head, cols] < lengths[head[-1], cols]).sum(axis=0)
    # leading rows known at sample s that sample s - 1 opens with too
    same = np.minimum.accumulate(head[:, 1:] == head[:, :-1], axis=0).sum(axis=0)
    shared = [0] + np.minimum(same, np.minimum(known[1:], known[:-1])).tolist()
    prefixes = {(): ([], {})}  # picks -> (their echelon rows, {candidate: _reduce of it})
    out = np.empty((S, k), dtype=np.int64)
    end = C + 1  # the position after the last walked sample's k-th pick
    for s in range(S):
        if shared[s] < end:  # else sample s takes the last walked sample's picks
            order, picks, end = head[:known[s], s], (), 0
            echelon, tested = prefixes[picks]
            while len(picks) < k:
                if end == len(order):
                    if end == C:
                        return None
                    order = np.argsort(lengths[:, s], kind="stable")
                c = order.item(end)
                end += 1
                if c not in tested:
                    tested[c] = _reduce(grid[c].tolist(), echelon)
                if tested[c] is not None:
                    picks += (c,)
                    echelon, tested = prefixes.setdefault(picks, (echelon + [tested[c]], {}))
        out[s] = picks
    return out


def _float_ball(B: np.ndarray, radius: float, l1=None):
    """(grid, vecs, norms) of the nonzero points of float length <= radius in the exact box.

    l1 = (l, e), ||row_i(B^-1)||_1 = l_i / e, are by default exact from the
    columns B = K / s, K integral; vecs = B grid in float64, the ball widened by 1 + 1e-12.
    """
    if l1 is None:
        s = max(x.as_integer_ratio()[1] for x in B.flat)
        adj, det = _int_inverse([[x * s // d for x, d in map(float.as_integer_ratio, row)]
                                 for row in B.tolist()])
        l1 = [s * sum(map(abs, row)) for row in adj], abs(det)
    grid = _enumerate_in_radius(l1, radius, DEFAULT_MAX_ENUM)
    vecs = grid.astype(np.float64) @ B.T
    norms = np.abs(vecs).max(axis=1)
    keep = (norms <= radius * (1 + 1e-12)) & (np.abs(grid).max(axis=1) > 0)
    return grid[keep], vecs[keep], norms[keep]


def _lattice_minima(L: LatticeBasis, k: int):
    """(lengths, vecs, coeffs) of the first k greedy minima of one lattice.

    One sample of `_minima` over the float norms; a ball whose norms nearly
    all tie at lambda_k, as on A = 2 at t = 6, costs its walk one quick
    stable sort.  The reduced basis has k
    independent columns, so the k-th shortest bounds lambda_k and is the
    first radius; the radius doubles while the ball holds fewer than k
    independent vectors.  Only primitive vectors are candidates: a multiple
    c v, |c| >= 2, is independent of the picks exactly when v is, and v is
    shorter, so c v is never a greedy minimum.
    """
    Bred, T, _ = _lll(L.basis)
    radius = float(np.sort(np.abs(Bred).max(axis=0))[k - 1]) * (1 + 1e-9)
    for _ in range(64):
        grid, vecs, norms = _float_ball(Bred, radius)  # coordinates in Bred
        prim = np.nonzero(np.gcd.reduce(grid, axis=1) == 1)[0]
        idx = prim[_canonical(grid[prim] @ T.T)]
        rows = _minima(norms[idx][:, None], grid[idx], k) if idx.size else None
        if rows is not None:
            pick = idx[rows[0]]
            return [float(v) for v in norms[pick]], vecs[pick].copy(), grid[pick] @ T.T
        radius *= 2
    raise BudgetExceededError("successive minima search exceeded radius doublings")


def shortest_vector(L: LatticeBasis):
    """Sup-norm shortest nonzero vector.

    Returns (vector, coeffs, length).  Ties go to the coefficient vector that
    comes first lexicographically in the coordinatewise order 0, 1, -1, 2, -2,
    ... (`dioph_matrix._canon`).  The search starts at the shortest reduced
    basis column and doubles until a nonzero vector is inside.
    """
    lengths, vecs, coeffs = _lattice_minima(L, 1)
    return vecs[0], coeffs[0], lengths[0]


def successive_minima(L: LatticeBasis, k: int):
    """Greedy Minkowski minima: lambda_i = min length independent of previous picks.

    Returns (lengths, vectors, coeffs).
    """
    if not 1 <= k <= L.dimension:
        raise ValidationError("need 1 <= k <= dimension")
    return _lattice_minima(L, k)


def shortest_vector_l1(L: LatticeBasis) -> float:
    """Shortest nonzero vector in the l1 gauge (the polar of the sup ball).

    Complete because the l1 ball of radius R sits inside the sup ball of
    radius R, so enumerating the sup ball and growing R until the best l1
    length is at most R cannot miss anything.
    """
    radius = L.det_abs ** (1.0 / L.dimension) * 1.0000001
    Bred = _lll(L.basis)[0]
    for _ in range(64):
        _grid, vecs, _norms = _float_ball(Bred, radius)
        if vecs.shape[0]:
            best = float(np.abs(vecs).sum(axis=1).min())
            if best <= radius * (1 + 1e-12):
                return best
        radius *= 2
    raise BudgetExceededError("l1 shortest vector search exceeded radius doublings")


def mahler_duality_check(L: LatticeBasis) -> float:
    """lambda_d(L) in sup norm times lambda_1(L*) in the polar (l1) gauge.

    The pairing bound |<v, w>| <= ||v||_inf ||w||_1 pins the product >= 1;
    measuring the dual in the sup norm instead admits products down to 1/d.
    """
    d = L.dimension
    lengths, _, _ = successive_minima(L, d)
    lam1_dual = shortest_vector_l1(polar_lattice(L))
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


def _local_minima_indices(vals: np.ndarray) -> List[int]:
    out = []
    for i in range(1, len(vals) - 1):
        if vals[i] < vals[i - 1] and vals[i] <= vals[i + 1]:
            out.append(i)
    return out


def balance_time(u: float, w: float, m: int, n: int) -> float:
    """log(w/u) mn/(m + n), u, w > 0: the t where e^(t/m) u = e^(-t/n) w along g_t."""
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


def _exact_uw(D: int, N, coeffs: np.ndarray):
    """u = ||A q + p|| and w = ||q|| of each row (p, q) of coeffs, A = N / D, each rounded once."""
    m = len(N)
    p, q = coeffs[:, :m], coeffs[:, m:]
    bound = (max(sum(map(abs, row)) for row in N) * max(int(np.abs(q).max(initial=0)), 1)
             + D * max(int(np.abs(p).max(initial=0)), 1))  # D itself must stay below 2^53
    if coeffs.dtype == object or bound >= 2**53:
        u = np.abs(_lattice_basis(D, N, coeffs.T, 1, 1)[:m]).max(axis=0)
    else:
        u = np.abs(q @ np.array(N, dtype=np.int64).T + D * p).max(axis=1) / D  # one rounding
    return u, np.abs(q).max(axis=1).astype(np.float64)


def _lengths(u: np.ndarray, w: np.ndarray, grow: np.ndarray, shrink: np.ndarray) -> np.ndarray:
    """(C, S) lengths max(e^(t/m) u, e^(-t/n) w), at most `MAX_LENGTHS` of them."""
    if len(u) * len(grow) > MAX_LENGTHS:
        raise SizeBudgetError(f"{len(u)} candidates at {len(grow)} samples exceed "
                              f"the budget of {MAX_LENGTHS} lengths")
    out = np.outer(u, grow)
    return np.maximum(out, np.outer(w, shrink), out=out)


def _window(D: int, N, transform, ts: np.ndarray, k: int, carried):
    """The minima of one window of `_flow_sweep` at its sample times ts.

    transform is (T, T^-1), carried from the last window.  Returns
    (transform, lengths, rows, coeffs, u, w): the transform reduced at the
    window's balance time tau, the (C, S) lengths of the scored candidates,
    the (S, k) rows `_minima` picked, and the candidates' coefficients and
    exact u, w.
    """
    m, n = len(N), len(N[0])
    grow, shrink = np.exp(ts / m), np.exp(-ts / n)
    T, Tinv = transform
    _, S, Sinv = _lll(_lattice_basis(D, N, T, grow[-1], shrink[-1]))
    T, Tinv = T @ S.astype(object), Sinv @ Tinv
    # lambda_k(t_s) <= the k-th shortest column of that basis at t_s (they are
    # independent), and <= the longest of the k minima carried from the last window
    bound = np.sort(_lengths(*_exact_uw(D, N, T.T), grow, shrink), axis=0)[k - 1]
    if carried is not None:
        bound = np.minimum(bound, _lengths(*carried, grow, shrink).max(axis=0))
    bound *= 1 + 1e-9
    u_max, w_max = float((bound / grow).max()), float((bound / shrink).max())
    tau = m * n / (m + n) * math.log(w_max / u_max)
    a, b = math.exp(tau / m), math.exp(-tau / n)
    R = a * u_max
    _, S, Sinv = _lll(_lattice_basis(D, N, T, a, b))
    T, Tinv = T @ S.astype(object), Sinv @ Tinv
    B = _lattice_basis(D, N, T, a, b)  # coordinates in B, whose unit ball is (1/a, 1/b)
    l1 = _dual_l1(D, N, Tinv, 1 / Fraction(a), 1 / Fraction(b))
    reach = np.maximum(np.exp((tau - ts) / m), np.exp((ts - tau) / n))
    cols = np.arange(len(ts))
    while True:
        grid, _vecs, _norms = _float_ball(B, R * (1 + 1e-9), l1)
        coeffs = _int_matmul(grid, T)
        idx = _canonical(coeffs)
        if idx.size:
            grid, coeffs = grid[idx], coeffs[idx]
            u, w = _exact_uw(D, N, coeffs)
            lengths = _lengths(u, w, grow, shrink)
            rows = _minima(lengths, grid, k)
            if rows is not None and np.all(lengths[rows[:, -1], cols] * reach <= R):
                return (T, Tinv), lengths, rows, coeffs, u, w
        R *= 2


def _flow_sweep(A: RealMatrix, times: np.ndarray, k: int) -> _Sweep:
    """lambda_1..lambda_k of g_t Lambda_A at increasing sample times t >= 0.

    1 x 1 matrices read their minima off the continued fraction of A
    (`_cf_sweep`); every other shape is swept window by window
    (`_windowed_sweep`).  A matrix entry beyond the float64 range raises
    BudgetExceededError (`reduction._lattice_basis`).
    """
    if A.m == A.n == 1:
        D, N, _ = _exact_form(A, (Fraction(0),))
        return _cf_sweep(D, N[0][0], np.asarray(times, dtype=np.float64), k)
    return _windowed_sweep(A, times, k)


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
    each sample picks the vectors the windows pick, ties included; `_minima`
    tests independence exactly on the coefficients (p, q) themselves.
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
        u, w = _exact_uw(D, [[a]], coeffs)
        return coeffs, u, w, _lengths(u, w, grow, shrink)

    coeffs, u, w, lengths = score(list(source))
    if k == 2:
        at = np.array([source[(int(p), int(q))] for p, q in coeffs])[lengths.argmin(axis=0)]
        extra = _intermediates(D, a, V, quotients, at, grow, shrink)
        coeffs, u, w, lengths = score(list(source) + [v for v in extra - source.keys()
                                                      if abs(v[1]) <= cap])
    rows = _minima(lengths, coeffs, k)
    if rows is None:
        raise BudgetExceededError(f"continued-fraction candidates hold fewer than {k} "
                                  "independent vectors")
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
    Returns the set of sign-canonical candidates.
    """
    Us = [abs(a * q + D * p) for p, q in V]  # D u of each convergent
    uV = np.array([U / D for U in Us])
    qV = np.array([float(q) for _, q in V])
    # a_(j+1) for v_j = V[idx], or no bound after the last convergent
    tops = [quotients[idx - 1] if idx - 1 < len(quotients) else math.inf for idx in range(len(V))]
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
    for s, idx in zip(ss[~in_float].tolist(), j1[~in_float].tolist()):
        gn, gd = float(grow[s]).as_integer_ratio()
        hn, hd = float(shrink[s]).as_integer_ratio()
        num = gn * hd * Us[idx - 1] - hn * gd * D * V[idx - 1][1]
        den = gn * hd * Us[idx] + hn * gd * D * V[idx][1]
        spans.add((idx, num // den - 1, -(-num // den) + 1))
    extra = set()
    for idx, lo, hi in spans:
        (p0, q0), (p1, q1) = V[idx - 1], V[idx]
        extra.update(_sign_canon((p0 + i * p1, q0 + i * q1))
                     for i in range(max(lo, 0), min(hi, tops[idx]) + 1))
    return extra


def _windowed_sweep(A: RealMatrix, times: np.ndarray, k: int) -> _Sweep:
    """`_flow_sweep` for any shape, one enumeration per window.

    Along g_t a lattice vector (A q + p, q) has length
    max(e^(t/m) u, e^(-t/n) w) with u = ||A q + p|| and w = ||q||.  The
    samples are cut into windows of span `SWEEP_SPAN`.  In a window the
    transform T, kept in Python ints with T^-1, gives the basis at its last sample
    (`reduction._lattice_basis`), and LLL touches it up.  At each sample t_s
    the k-th shortest of its columns, and the longest of the k minima
    carried from the last window, bound lambda_k(t_s) by B_s, with u and w
    exact.  A vector that short at t_s has u <= B_s e^(-t_s/m) and
    w <= B_s e^(t_s/n).  With u_max and w_max the largest of these over the
    window, the box u <= u_max, w <= w_max is the sup-norm ball of radius
    R = e^(tau/m) u_max at tau = mn/(m + n) log(w_max/u_max), the time that
    makes R least.  So the basis is rebuilt and reduced again at tau, and
    one enumeration of radius R on the basis rebuilt from that T holds every
    candidate of the window; T and T^-1 are carried on from tau.  Each candidate is
    scored once, u and w exactly, and its lengths at all the window's
    samples are one numpy expression (`_lengths`); `_minima` walks the
    minima, and a sample whose order agrees with the last one's up to its
    k-th pick, as most of a window's do, takes that sample's picks.  The
    window is checked afterwards,
    lambda_k(t_s) max(e^((tau - t_s)/m), e^((t_s - tau)/n)) <= R at every
    sample, and enumerated again at twice the radius if it fails.  A window
    whose box outgrows `DEFAULT_MAX_ENUM` points, or whose lengths outgrow
    `MAX_LENGTHS` (`SizeBudgetError`), is halved, to one sample; any other
    budget error is raised at once.
    """
    m, n = A.m, A.n
    S = len(times)
    D, N, _ = _exact_form(A, (Fraction(0),) * m)
    transform = (np.eye(m + n, dtype=object),) * 2
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
                transform, lengths, rows, coeffs, u, w = _window(D, N, transform, ts, k, carried)
                break
            except SizeBudgetError:
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
                 sigma: Optional[float] = None) -> FlowProfile:
    """Sample Delta(t) = -log lambda_1(g_t Lambda_A) and flag its local maxima.

    Flagged times (local minima of the shortest length) are refined to the
    balance time of the winning vector, from its exact u and w, where its
    expanding and contracting block norms agree; the same refinement serves
    the weighted profile e^(r(t)) lambda_1 since the linear weight shifts no
    vertex.  A balance time more than dt from its sample is not used.
    More than `MAX_SAMPLES` samples raise BudgetExceededError, and a t_max
    past `MAX_T` or a sigma below m/n raise ValidationError, before any
    sample is taken.
    """
    A = _as_real_matrix(A)
    m, n = A.m, A.n
    if not (0 < dt < math.inf and 0 < t_max < math.inf):
        raise ValidationError("need finite positive dt and t_max")
    if sigma is not None and not m / n <= sigma < math.inf:
        raise ValidationError("sigma must be a finite number >= m/n")
    # numpy.arange's length is the ceiling of this quotient
    if not (t_max + dt / 2) / dt <= MAX_SAMPLES:
        raise BudgetExceededError(f"a flow sampled every {dt:g} up to t = {t_max:g} has "
                                  f"more than {MAX_SAMPLES} samples")
    if t_max > MAX_T:
        raise ValidationError(f"the float flow runs to t = {MAX_T:g}, not to {t_max:g}")
    times = np.arange(0.0, t_max + dt / 2, dt)
    sweep = _flow_sweep(A, times, m + n)
    lam1 = sweep.lambdas[:, 0]

    def vertex(i: int) -> float:
        u, w = float(sweep.u[i]), float(sweep.w[i])
        bt = balance_time(u, w, m, n) if u > 0 and w > 0 else math.inf
        return bt if abs(bt - times[i]) <= dt else float(times[i])

    kept = _local_minima_indices(lam1)
    flags = np.zeros(len(times), dtype=bool)
    flags[kept] = True
    slope = theta_sigma(sigma, m, n) if sigma is not None else None
    weighted_minima = []
    if sigma is not None:
        weighted_minima = [vertex(i) for i in _local_minima_indices(np.exp(slope * times) * lam1)]
    return FlowProfile(times=times, delta_values=-np.log(lam1), lambdas=sweep.lambdas,
                       minima_times=[vertex(i) for i in kept], minima_indices=kept,
                       is_minimum=flags, m=m, n=n, r_slope=slope,
                       weighted_minima_times=weighted_minima)


def segment_slopes(profile: FlowProfile) -> List[float]:
    """Least-squares slopes of Delta between consecutive piecewise-linear vertices.

    A piece needs at least three interior samples to get a slope.
    """
    delta, times = profile.delta_values, profile.times
    # the local maxima of Delta are the local minima of -Delta
    vs = sorted({0, len(times) - 1, *_local_minima_indices(delta), *_local_minima_indices(-delta)})
    # interior samples only: the vertex samples straddle two linear pieces
    return [_ls_slope(times[a + 1:b].tolist(), delta[a + 1:b].tolist())
            for a, b in zip(vs, vs[1:]) if b - a > 3]
