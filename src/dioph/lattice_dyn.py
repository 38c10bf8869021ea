"""Lattice diagnostics: Lambda_A, the diagonal flow, minima, and flow profiles.

All norms are sup-norms.  Shortest vectors are found by complete enumeration
over the coefficient box |c_i| <= ||row_i(B^-1)||_1 * radius of a basis B.
That dual bound holds for every basis, so completeness comes from it and not
from the reduction: LLL only shrinks the box.  Each call reduces its lattice
once and reuses the reduction on every radius doubling.  Along a flow
(`flow_profile`, and the dual flow behind `haw_game.derive_strategy`) the
reduction is carried from sample to sample: g_dt times the last reduced
basis starts the next LLL, which then only touches it up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .dioph_matrix import RealMatrix, _canon_keys
from .errors import BudgetExceededError, SingularMatrixError, ValidationError

DEFAULT_MAX_ENUM = 2_000_000


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
        return LatticeBasis(basis=cols, det_abs=det)

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


def from_matrix(A: Union[RealMatrix, np.ndarray], m: Optional[int] = None,
                n: Optional[int] = None) -> LatticeBasis:
    """Unimodular lattice with identity blocks and A in the upper right."""
    if isinstance(A, RealMatrix):
        arr, m, n = A.as_array(), A.m, A.n
    else:
        arr = np.asarray(A, dtype=np.float64)
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


def _lll(cols: np.ndarray, delta: float = 0.75) -> Tuple[np.ndarray, np.ndarray]:
    """LLL on columns; returns (reduced columns, integer transform T), reduced = cols @ T.

    Gram-Schmidt data is updated in place (Cohen, Alg. 2.6.3): a size-reduction
    step changes only row k of mu, and a swap recomputes columns k-1 onward.
    """
    B = cols.astype(np.float64).copy()
    d = B.shape[1]
    T = np.eye(d, dtype=np.int64)
    Bs = np.zeros_like(B)
    mu = np.zeros((d, d))
    norms = np.zeros(d)

    def gram_schmidt(start: int) -> None:
        for i in range(start, d):
            Bs[:, i] = B[:, i]
            for j in range(i):
                mu[i, j] = 0.0 if norms[j] == 0 else float(B[:, i] @ Bs[:, j]) / norms[j]
                Bs[:, i] -= mu[i, j] * Bs[:, j]
            norms[i] = float(Bs[:, i] @ Bs[:, i])

    gram_schmidt(0)
    k = 1
    iters = 0
    while k < d:
        iters += 1
        if iters > 10000:
            break  # ill-conditioned input: fall back to current basis
        for j in range(k - 1, -1, -1):
            r = round(mu[k, j])
            if r != 0:
                B[:, k] -= r * B[:, j]
                T[:, k] -= r * T[:, j]
                mu[k, :j] -= r * mu[j, :j]
                mu[k, j] -= r
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            B[:, [k - 1, k]] = B[:, [k, k - 1]]
            T[:, [k - 1, k]] = T[:, [k, k - 1]]
            gram_schmidt(k - 1)
            k = max(k - 1, 1)
    return B, T


class _FlowCarry:
    """The last reduction along a diagonal flow, handed on to the next sample.

    The next lattice is g L_prev for a diagonal g, and g times the last
    reduced basis is a basis of it that is almost reduced, so LLL only
    touches it up.  The integer transform T is kept as a running product.
    """

    def __init__(self):
        self.lattice: Optional[np.ndarray] = None  # basis of the last lattice reduced
        self.reduced: Optional[np.ndarray] = None
        self.T: Optional[np.ndarray] = None

    def start(self, L: LatticeBasis) -> Optional[np.ndarray]:
        """g times the last reduced basis if L = g L_prev, g diagonal; else None."""
        prev = self.lattice
        if prev is None:
            return None
        rows = np.arange(prev.shape[0])
        cols = np.abs(prev).argmax(axis=1)
        g = L.basis[rows, cols] / prev[rows, cols]
        if not np.allclose(prev * g[:, None], L.basis, rtol=1e-12, atol=0.0):
            return None
        return self.reduced * g[:, None]


def _reduce(L: LatticeBasis, carry: Optional[_FlowCarry] = None):
    """One LLL reduction of L: (reduced basis, T, ||row_i(reduced^-1)||_1).

    With a carry, LLL starts from the carried basis when L is a flow of the
    last lattice, and the carry moves on to L.
    """
    start = None if carry is None else carry.start(L)
    if start is None:
        Bred, T = _lll(L.basis)
    else:
        Bred, T = _lll(start)
        T = carry.T @ T
    if carry is not None:
        carry.lattice, carry.reduced, carry.T = L.basis, Bred, T
    try:
        inv = np.linalg.inv(Bred)
    except np.linalg.LinAlgError as e:
        raise SingularMatrixError("reduced basis not invertible") from e
    return Bred, T, np.abs(inv).sum(axis=1)


def _enumerate_in_radius(reduced, radius: float, max_enum: int):
    """All (coeffs-in-original-basis, vector) with 0 < sup-norm <= radius.

    `reduced` is `_reduce`'s result; the box |c_i| <= ||row_i(B^-1)||_1 * radius
    is complete for any basis B, so the reduction only shrinks it.
    """
    Bred, T, inv_l1 = reduced
    bounds = np.floor(inv_l1 * radius + 1e-9).astype(np.int64)
    total = int(np.prod(2 * bounds.astype(np.float64) + 1))
    if total > max_enum:
        raise BudgetExceededError(
            f"enumeration box of {total} points exceeds budget {max_enum}")
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, Bred.shape[0])
    vecs = grid.astype(np.float64) @ Bred.T
    norms = np.abs(vecs).max(axis=1)
    keep = (norms <= radius * (1 + 1e-12)) & (np.abs(grid).max(axis=1) > 0)
    coeffs = grid[keep] @ T.T  # back to original-basis coefficients
    return coeffs, vecs[keep], norms[keep]


def shortest_vector(L: LatticeBasis, search_radius: Optional[float] = None,
                    max_enum: int = DEFAULT_MAX_ENUM, *,
                    _carry: Optional[_FlowCarry] = None):
    """Sup-norm shortest nonzero vector; ties broken by lexicographic coefficients.

    Returns (vector, coeffs, length).  The radius auto-doubles until a
    nonzero vector is inside; Minkowski gives det^(1/d) as a sound start.
    """
    d = L.dimension
    radius = search_radius if search_radius else L.det_abs ** (1.0 / d) * 1.0000001
    reduced = _reduce(L, _carry)
    for _ in range(64):
        coeffs, vecs, norms = _enumerate_in_radius(reduced, radius, max_enum)
        if norms.size:
            best = norms.min()
            cand = np.nonzero(norms <= best * (1 + 1e-12))[0]
            order = np.lexsort(_canon_keys(coeffs[cand]))
            i = cand[order[0]]
            return vecs[i].copy(), coeffs[i].copy(), float(norms[i])
        radius *= 2
    raise BudgetExceededError("no lattice vector found within doubled radii")


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


def successive_minima(L: LatticeBasis, k: int, max_enum: int = DEFAULT_MAX_ENUM, *,
                      _carry: Optional[_FlowCarry] = None):
    """Greedy Minkowski minima: lambda_i = min length independent of previous picks.

    Returns (lengths, vectors, coeffs).
    """
    d = L.dimension
    if not 1 <= k <= d:
        raise ValidationError("need 1 <= k <= dimension")
    radius = L.det_abs ** (1.0 / d) * 1.0000001
    reduced = _reduce(L, _carry)
    for _ in range(64):
        coeffs, vecs, norms = _enumerate_in_radius(reduced, radius, max_enum)
        if norms.size:
            order = np.lexsort(_canon_keys(coeffs) + (norms,))
            chosen: List[int] = []
            # float orthogonal-residual prescreen; exact rank only to confirm
            basis_q = np.zeros((k, d))
            nq = 0
            for i in order:
                c = coeffs[i].astype(np.float64)
                r = c - basis_q[:nq].T @ (basis_q[:nq] @ c)
                rn = float(np.linalg.norm(r))
                if rn <= 1e-9 * (1 + float(np.linalg.norm(c))):
                    continue
                if chosen and _exact_rank([coeffs[j] for j in chosen] + [coeffs[i]]) <= len(chosen):
                    continue
                chosen.append(i)
                basis_q[nq] = r / rn
                nq += 1
                if len(chosen) == k:
                    lengths = [float(norms[i]) for i in chosen]
                    return lengths, vecs[chosen].copy(), coeffs[chosen].copy()
        radius *= 2
    raise BudgetExceededError("successive minima search exceeded radius doublings")


def shortest_vector_l1(L: LatticeBasis, max_enum: int = DEFAULT_MAX_ENUM) -> float:
    """Shortest nonzero vector in the l1 gauge (the polar of the sup ball).

    Complete because the l1 ball of radius R sits inside the sup ball of
    radius R, so enumerating the sup ball and growing R until the best l1
    length is at most R cannot miss anything.
    """
    radius = L.det_abs ** (1.0 / L.dimension) * 1.0000001
    reduced = _reduce(L)
    for _ in range(64):
        _coeffs, vecs, _norms = _enumerate_in_radius(reduced, radius, max_enum)
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


def flow_profile(A: Union[RealMatrix, np.ndarray], t_max: float, dt: float,
                 sigma: Optional[float] = None, max_enum: int = DEFAULT_MAX_ENUM,
                 minima_count: Optional[int] = None) -> FlowProfile:
    """Sample Delta(t) = -log lambda_1(g_t Lambda_A) and flag its local maxima.

    Flagged times (local minima of the shortest length) are refined to the
    exact balance time of the winning vector, where its expanding and
    contracting block norms agree; the same refinement serves the weighted
    profile e^(r(t)) lambda_1 since the linear weight shifts no vertex.
    """
    if isinstance(A, RealMatrix):
        m, n = A.m, A.n
    else:
        m, n = np.asarray(A).shape
    if dt <= 0 or t_max <= 0:
        raise ValidationError("need positive dt and t_max")
    L0 = from_matrix(A)
    d = m + n
    k = d if minima_count is None else max(1, min(d, minima_count))
    times = np.arange(0.0, t_max + dt / 2, dt)
    lam = np.zeros((len(times), k))
    base_vecs = []
    carry = _FlowCarry()
    for i, t in enumerate(times):
        Lt = apply_flow(L0, float(t), m, n)
        lengths, _vecs, coeffs = successive_minima(Lt, k, max_enum, _carry=carry)
        lam[i] = lengths
        base_vecs.append(L0.basis @ coeffs[0])
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
