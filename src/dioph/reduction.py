"""Lattice reduction and enumeration: the one kernel of every lattice search.

All norms are sup-norms.  `_enumerate_in_radius` walks the coefficient box
|c_i - (B^-1 t)_i| <= ||row_i(B^-1)||_1 * r of a basis B around a target t.
That dual bound holds for every basis, so completeness comes from it and not
from the reduction, which only shrinks the box: float64 LLL (`_lll`, Cohen,
GTM 138, Alg. 2.6.3, O(d) updates per swap) or exact Lagrange-Gauss for two
integer columns (`_gauss_reduce`).  A box of more than the caller's budget
of points, a transform entry beyond int64, or a float basis or matrix entry
beyond float64 (`_finite`) raises BudgetExceededError.
The float slack of the box grows with the target's centre, so a 1 x 1 shell
search with a target meets a budget of 2^22 points from q_max about 1e13.

The callers are `lattice_dyn` (shortest vectors, minima, flow windows) and
the shell search of `dioph_matrix` (`best_approx`, the exponent windows and
the circle searches of `experiments` and `haw_game`).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .errors import BudgetExceededError, SingularMatrixError

_INT64_MAX = int(np.iinfo(np.int64).max)


def _int64_transform(T: List[List[int]], name: str) -> np.ndarray:
    """The integer transform T (nested lists) as an int64 array; raises beyond int64."""
    big = max(abs(x) for row in T for x in row)
    if big > _INT64_MAX:
        raise BudgetExceededError(
            f"{name} transform leaves int64 (an entry of {big.bit_length()} bits)")
    return np.array(T, dtype=np.int64)


def _finite(X: np.ndarray, what: str) -> np.ndarray:
    """X, or BudgetExceededError when an entry is beyond the float64 range (inf or nan)."""
    if not np.isfinite(X).all():
        raise BudgetExceededError(f"{what} entry beyond the float64 range")
    return X


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


def _lll(cols: np.ndarray, delta: float = 0.75) -> Tuple[np.ndarray, np.ndarray]:
    """LLL on columns; returns (reduced columns, integer transform T), reduced = cols @ T.

    Cohen, GTM 138, Alg. 2.6.3: only mu and the squared Gram-Schmidt norms
    N_i are kept.  Size reduction changes row k of mu; a swap of columns k-1
    and k updates N_(k-1), N_k and O(d) entries of mu in place.  If N_k = 0
    (dependent columns, or an underflow) the swap recomputes Gram-Schmidt.
    Columns are Python lists, of floats for the basis and of ints for T, so
    T is checked once, on exit: an entry beyond int64 raises
    BudgetExceededError.  After 10000 iterations (ill-conditioned input) the
    current basis is returned.  A basis entry beyond the float64 range
    raises BudgetExceededError.
    """
    B = _finite(np.asarray(cols, dtype=np.float64), "basis").T.tolist()
    d = len(B)
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
        if norms[k] >= (delta - c * c) * norms[k - 1]:
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
    return np.array(B).T.copy(), _int64_transform(T, "LLL").T.copy()


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


def _with_dual_bound(Bred: np.ndarray, T: np.ndarray):
    """(Bred, T, ||row_i(Bred^-1)||_1): the form `_enumerate_in_radius` takes."""
    try:
        inv = np.linalg.inv(Bred)
    except np.linalg.LinAlgError as e:
        raise SingularMatrixError("reduced basis not invertible") from e
    return Bred, T, np.abs(inv).sum(axis=1)


def _iter_box_chunks(lo, hi, chunk_rows: Optional[int] = None):
    """Yield integer grids (rows, d) covering the box lo <= c <= hi in lex order.

    `chunk_rows` rows at a time, or the whole box at once when None.
    """
    lo = [int(v) for v in lo]
    sides = [int(h) - l + 1 for l, h in zip(lo, hi)]
    if min(sides) < 1:
        return
    total = math.prod(sides)
    pows = [math.prod(sides[j + 1:]) for j in range(len(sides))]
    start = 0
    step = total if chunk_rows is None else chunk_rows
    while start < total:
        stop = min(start + step, total)
        idx = np.arange(start, stop, dtype=np.int64)
        grid = np.empty((stop - start, len(sides)), dtype=np.int64)
        for j, (pw, side) in enumerate(zip(pows, sides)):
            np.add((idx // pw) % side, lo[j], out=grid[:, j])
        yield grid
        start = stop


def _enumerate_in_radius(reduced, radius: float, max_enum: Optional[int] = None,
                         target: Optional[np.ndarray] = None,
                         chunk_rows: Optional[int] = None):
    """Chunks (coeffs, vecs, norms) of the lattice points v with ||v - target|| <= radius.

    `reduced` is `_with_dual_bound`'s result.  coeffs are in the original
    basis, vecs are v - target.  Without a target the zero vector is left
    out.  The box |c_i - (B^-1 target)_i| <= ||row_i(B^-1)||_1 * radius is
    complete for any basis B, so the reduction only shrinks it; each side is
    widened by 1e-9 (1 + |centre_i|) to cover float error.  The box is walked
    in lex order, `chunk_rows` points at a time (the whole box in one chunk
    when None).  A box of more than max_enum points raises.
    """
    Bred, T, inv_l1 = reduced
    half = inv_l1 * radius
    center = np.zeros(len(inv_l1)) if target is None else np.linalg.solve(Bred, target)
    slack = 1e-9 * (1 + np.abs(center))
    lo = np.ceil(center - half - slack)
    hi = np.floor(center + half + slack)
    total = float(np.prod(hi - lo + 1))  # in floats: an unreduced basis can overflow int64
    if max_enum is not None and not total <= max_enum:
        raise BudgetExceededError(
            f"enumeration box of {total:.0f} points exceeds budget {max_enum}")
    for grid in _iter_box_chunks(lo.astype(np.int64), hi.astype(np.int64), chunk_rows):
        vecs = grid.astype(np.float64) @ Bred.T
        if target is not None:
            vecs -= target
        norms = np.abs(vecs).max(axis=1)
        keep = norms <= radius * (1 + 1e-12)
        if target is None:
            keep &= np.abs(grid).max(axis=1) > 0
        coeffs = grid[keep] @ T.T  # back to original-basis coefficients
        yield coeffs, vecs[keep], norms[keep]
