"""Matrix Diophantine approximation by exhaustive enumeration.

Enumeration is exact in outcome: a float64 pass scans q-boxes in chunks,
then every candidate within a conservative error band of the float minimum
is rescored at full precision, and ties are broken deterministically
(smallest sup-norm, then lexicographically smallest q, then p).  Chunks are
independent work units with a fixed merge order, so the result is the same
for any worker count.

Error convention (matches the inhomogeneous problems downstream):

    err(q) = min_p || A q + p - gamma ||_inf,  p the per-coordinate nearest
    integer to gamma - A q (ties toward the smaller p).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import mpmath as mp
import numpy as np

from .errors import BudgetExceededError, SingularMatrixError, ValidationError

DEFAULT_PRECISION = 256
DEFAULT_MAX_ENUM = 30_000_000
_CHUNK_ROWS = 1 << 17
_SHORTLIST_CAP = 256

EntryLike = Union[str, float, int, Fraction, mp.mpf]


def _to_mpf(v: EntryLike, prec: int) -> mp.mpf:
    with mp.workprec(prec):
        if isinstance(v, Fraction):
            return mp.mpf(v.numerator) / v.denominator
        if isinstance(v, str):
            return mp.mpf(v.strip())
        return mp.mpf(v)


@dataclass(frozen=True)
class RealMatrix:
    m: int
    n: int
    entries: Tuple[mp.mpf, ...]  # row-major
    precision_bits: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValidationError("matrix dimensions must be >= 1")
        if len(self.entries) != self.m * self.n:
            raise ValidationError("entry count does not match dimensions")
        if any(not mp.isfinite(e) for e in self.entries):
            raise ValidationError("matrix entries must be finite")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[EntryLike]],
                  precision_bits: int = DEFAULT_PRECISION) -> "RealMatrix":
        m = len(rows)
        n = len(rows[0]) if m else 0
        ent = []
        for row in rows:
            if len(row) != n:
                raise ValidationError("ragged matrix rows")
            ent.extend(_to_mpf(v, precision_bits) for v in row)
        return RealMatrix(m=m, n=n, entries=tuple(ent), precision_bits=precision_bits)

    @staticmethod
    def scalar(value: EntryLike, precision_bits: int = DEFAULT_PRECISION) -> "RealMatrix":
        return RealMatrix.from_rows([[value]], precision_bits)

    @staticmethod
    def from_json(doc: dict, precision_bits: int = DEFAULT_PRECISION) -> "RealMatrix":
        try:
            m, n, entries = int(doc["m"]), int(doc["n"]), doc["entries"]
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"matrix JSON needs m, n, entries: {e}") from e
        if len(entries) != m * n:
            raise ValidationError("matrix JSON entries length mismatch")
        rows = [entries[i * n:(i + 1) * n] for i in range(m)]
        return RealMatrix.from_rows(rows, precision_bits)

    def entry(self, i: int, j: int) -> mp.mpf:
        return self.entries[i * self.n + j]

    def as_array(self) -> np.ndarray:
        return np.array([float(e) for e in self.entries], dtype=np.float64).reshape(self.m, self.n)

    def row(self, i: int) -> Tuple[mp.mpf, ...]:
        return self.entries[i * self.n:(i + 1) * self.n]


@dataclass(frozen=True)
class ApproxRecord:
    q: Tuple[int, ...]
    p: Tuple[int, ...]
    error: mp.mpf
    q_norm: int
    exponent_sample: float
    height_proxy: Optional[float] = None


@dataclass
class ExponentFit:
    estimate: float
    window_maxima: List[Tuple[int, float]] = field(default_factory=list)
    method: str = "running_limsup"
    observed_max: Optional[float] = None
    exact_hit: Optional[Tuple[int, ...]] = None
    champions: List[dict] = field(default_factory=list)  # per-window detail rows


def _exponent_sample(error: float, q_norm: int) -> float:
    if error == 0:
        return math.inf
    if q_norm <= 1:
        return math.nan
    return -math.log(error) / math.log(q_norm)


def _canon(vec: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Coordinatewise order 0 < 1 < -1 < 2 < -2 ... for lexicographic ties."""
    return tuple((abs(v), 0 if v >= 0 else 1) for v in vec)


def _canon_keys(vecs: np.ndarray) -> tuple:
    """np.lexsort keys for `_canon`'s order over the rows of an integer array."""
    keys = []
    for j in range(vecs.shape[1] - 1, -1, -1):
        keys.append((vecs[:, j] < 0).astype(np.int8))
        keys.append(np.abs(vecs[:, j]))
    return tuple(keys)


def _parse_gamma(gamma, m: int, prec: int) -> Tuple[mp.mpf, ...]:
    if gamma is None or (isinstance(gamma, (int, float)) and gamma == 0):
        return tuple(mp.mpf(0) for _ in range(m))
    if isinstance(gamma, (str, mp.mpf, Fraction)) or not isinstance(gamma, Iterable):
        gamma = [gamma]
    vals = tuple(_to_mpf(v, prec) for v in gamma)
    if len(vals) != m:
        raise ValidationError(f"gamma must have {m} coordinates")
    return vals


def _exact_error(A: RealMatrix, q: Sequence[int], gamma: Tuple[mp.mpf, ...], prec: int):
    """Exact (error, p) for one q at working precision."""
    with mp.workprec(prec + 16):
        best_p = []
        worst = mp.mpf(0)
        for i in range(A.m):
            r = mp.fsum(A.entry(i, j) * q[j] for j in range(A.n)) - gamma[i]
            fl = mp.floor(r)
            frac = r - fl
            # nearest integer to -r; tie (frac exactly 1/2) -> smaller p
            if frac > mp.mpf(1) / 2:
                p_i = -int(fl) - 1
            elif frac < mp.mpf(1) / 2:
                p_i = -int(fl)
            else:
                p_i = -int(fl) - 1
            dev = abs(r + p_i)
            best_p.append(p_i)
            if dev > worst:
                worst = dev
        return +worst, tuple(best_p)


def _iter_q_chunks(n: int, Q: int, chunk_rows: int, half: bool = False):
    """Yield integer q-grids (chunk, n) covering [-Q, Q]^n in lex order.

    With half=True only vectors whose first nonzero coordinate is positive
    are produced (the upper half of the lex order); for gamma = 0 the error
    is symmetric under q -> -q and every canonical tie-break winner lies in
    that half.
    """
    side = 2 * Q + 1
    total = side**n
    start = (total - 1) // 2 + 1 if half else 0
    pows = [side**(n - 1 - j) for j in range(n)]
    while start < total:
        stop = min(start + chunk_rows, total)
        idx = np.arange(start, stop, dtype=np.int64)
        grid = np.empty((stop - start, n), dtype=np.int64)
        for j, pw in enumerate(pows):
            np.subtract((idx // pw) % side, Q, out=grid[:, j])
        yield grid
        start = stop


def _chunk_champion(A: RealMatrix, Af: np.ndarray, gf: np.ndarray, grid: np.ndarray,
                    gamma_exact, guard: float, prec: int):
    """Best record in one chunk: float pass then exact rescoring of a shortlist."""
    norms = np.abs(grid).max(axis=1)
    keep = norms > 0
    if not keep.all():
        grid = grid[keep]
        norms = norms[keep]
    if grid.shape[0] == 0:
        return None
    R = grid.astype(np.float64) @ Af.T - gf
    E = np.abs(R - np.rint(R)).max(axis=1)
    emin = E.min()
    cand = np.nonzero(E <= emin + guard)[0]
    if cand.size > _SHORTLIST_CAP:
        order = np.lexsort(_canon_keys(grid[cand]) + (norms[cand], E[cand]))
        cand = cand[order[:_SHORTLIST_CAP]]
    best = None
    for i in cand:
        q = tuple(int(v) for v in grid[i])
        err, p = _exact_error(A, q, gamma_exact, prec)
        key = (err, int(norms[i]), _canon(q), _canon(p))
        if best is None or key < best[0]:
            best = (key, q, p, err, int(norms[i]))
    return best


def best_approx(A: RealMatrix, gamma=None, Q: int = 1,
                max_enum: int = DEFAULT_MAX_ENUM, workers: int = 1) -> ApproxRecord:
    """Exhaustive minimizer of ||Aq + p - gamma||_inf over 0 < ||q||_inf <= Q."""
    if Q < 1:
        raise ValidationError("Q must be >= 1")
    count = (2 * Q + 1) ** A.n
    if count > max_enum:
        raise BudgetExceededError(
            f"enumeration of {count} q-vectors exceeds budget {max_enum}; "
            "split the window into smaller Q ranges")
    prec = A.precision_bits
    gamma_exact = _parse_gamma(gamma, A.m, prec)
    Af = A.as_array()
    gf = np.array([float(g) for g in gamma_exact], dtype=np.float64)
    scale = float(np.abs(Af).sum(axis=1).max()) * Q + float(np.abs(gf).max() if gf.size else 0) + 1.0
    guard = scale * 2.0**-44
    half = all(g == 0 for g in gamma_exact)
    chunk_iter = _iter_q_chunks(A.n, Q, _CHUNK_ROWS, half=half)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            champs = list(pool.map(
                lambda g: _chunk_champion(A, Af, gf, g, gamma_exact, guard, prec),
                chunk_iter))
    else:
        champs = [_chunk_champion(A, Af, gf, g, gamma_exact, guard, prec)
                  for g in chunk_iter]
    best = None
    for ch in champs:  # fixed merge order
        if ch is not None and (best is None or ch[0] < best[0]):
            best = ch
    _, q, p, err, qn = best
    return ApproxRecord(q=q, p=p, error=err, q_norm=qn,
                        exponent_sample=_exponent_sample(float(err), qn))


def dirichlet_check(A: RealMatrix, Q: int, **kw) -> Tuple[bool, ApproxRecord]:
    """Best record plus the unconditional test err < Q^(-n/m)."""
    rec = best_approx(A, None, Q, **kw)
    with mp.workprec(A.precision_bits):
        thresh = mp.mpf(Q) ** (-mp.mpf(A.n) / A.m)
        return bool(rec.error < thresh), rec


def vwa_solver(A: RealMatrix, gamma, Q: int, epsilon: float = 0.1, c: float = 1.0,
               **kw) -> Tuple[ApproxRecord, bool]:
    """Best inhomogeneous record and whether err < c * Q^(-n/m + epsilon)."""
    rec = best_approx(A, gamma, Q, **kw)
    with mp.workprec(A.precision_bits):
        thresh = mp.mpf(c) * mp.mpf(Q) ** (-mp.mpf(A.n) / A.m + mp.mpf(epsilon))
        return rec, bool(rec.error < thresh)


# ---------------------------------------------------------------------------
# exponent estimation


def _anchored_slope_estimate(xs: List[float], ys: List[float], log_base: float,
                             samples: List[float]) -> float:
    """Running limsup via anchored window slopes.

    A raw max of per-window samples overstates the limit at desk scale by
    the approximation constant (already ~0.06 for the golden ratio at
    q ~ 8e5), so the estimator returns the largest slope (y_j - y_i) /
    (x_j - x_i) over window champions whose gap is at least two thirds of
    the span from the first eligible window; this has the same limsup and
    converges at rate O(1/log Q_max).  The pair set only grows as windows
    extend, so the estimate is monotone nondecreasing in Q_max.
    """
    if not xs:
        return math.nan
    if len(xs) == 1:
        return samples[0]
    x0 = xs[0]
    best = -math.inf
    for j in range(1, len(xs)):
        min_gap = max(1.5 * log_base, (xs[j] - x0) * 2 / 3)
        for i in range(j):
            dx = xs[j] - xs[i]
            if dx >= min_gap and dx > 0:
                best = max(best, (ys[j] - ys[i]) / dx)
    if best == -math.inf:
        best = max(samples)
    return best


def _ls_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of y against x; nan with fewer than two points."""
    k = len(xs)
    if k < 2:
        return math.nan
    mx = sum(xs) / k
    my = sum(ys) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return math.nan
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def exponent_estimate(A: RealMatrix, Q_max: int, window_base: float = 2.0,
                      burn_in: int = 2, max_enum: int = DEFAULT_MAX_ENUM,
                      workers: int = 1) -> ExponentFit:
    """Windowed homogeneous exponent scan over ||q|| in [B^k, B^(k+1)).

    Negative q mirror positive ones when gamma = 0, so for n = 1 only
    q > 0 is scanned.  An exact rational hit reports the +inf sentinel.
    """
    if window_base <= 1:
        raise ValidationError("window_base must be > 1")
    if Q_max < window_base**2:
        raise ValidationError("Q_max must be at least window_base^2")
    prec = A.precision_bits
    B = float(window_base)
    k_top = int(math.floor(math.log(Q_max) / math.log(B)))
    gamma_exact = _parse_gamma(None, A.m, prec)

    champions = {}  # k -> (sample, q_norm, q tuple, err_float)
    if A.n == 1:
        Af = A.as_array()
        q = np.arange(1, Q_max + 1, dtype=np.float64)
        R = np.outer(q, Af[:, 0])
        E = np.abs(R - np.rint(R)).max(axis=1)
        ks = np.floor(np.log(q) / math.log(B)).astype(np.int64)
        with np.errstate(divide="ignore"):
            S = np.where(E > 0, -np.log(np.maximum(E, 1e-300)) / np.log(q), np.inf)
        S[0] = -np.inf  # q = 1 has log-norm 0
        for k in range(k_top + 1):
            mask = ks == k
            if not mask.any():
                continue
            idx = np.nonzero(mask)[0]
            j = idx[np.argmax(S[idx])]
            champions[k] = (float(S[j]), int(q[j]), (int(q[j]),), float(E[j]))
    else:
        count = (2 * Q_max + 1) ** A.n
        if count > max_enum:
            raise BudgetExceededError(
                f"exponent scan of {count} q-vectors exceeds budget {max_enum}")
        Af = A.as_array()
        gf = np.zeros(A.m)
        for grid in _iter_q_chunks(A.n, Q_max, _CHUNK_ROWS, half=True):
            norms = np.abs(grid).max(axis=1)
            keep = norms > 1
            grid2, norms2 = grid[keep], norms[keep]
            if grid2.shape[0] == 0:
                continue
            R = grid2.astype(np.float64) @ Af.T - gf
            E = np.abs(R - np.rint(R)).max(axis=1)
            with np.errstate(divide="ignore"):
                S = np.where(E > 0, -np.log(np.maximum(E, 1e-300)) / np.log(norms2), np.inf)
            ks = np.floor(np.log(norms2) / math.log(B)).astype(np.int64)
            for k in range(k_top + 1):
                mask = ks == k
                if not mask.any():
                    continue
                idx = np.nonzero(mask)[0]
                j = idx[np.argmax(S[idx])]
                cand = (float(S[j]), int(norms2[j]), tuple(int(v) for v in grid2[j]), float(E[j]))
                if k not in champions or cand[0] > champions[k][0]:
                    champions[k] = cand

    window_maxima: List[Tuple[int, float]] = []
    detail_rows: List[dict] = []
    xs, ys, samples = [], [], []
    exact_hit = None
    for k in sorted(champions):
        sample, qn, qv, efloat = champions[k]
        err_exact, p_exact = _exact_error(A, qv, gamma_exact, prec)
        if err_exact == 0:
            exact_hit = qv
            sample = math.inf
        else:
            sample = _exponent_sample(float(err_exact), qn) if qn > 1 else sample
        q_window = int(math.floor(B ** (k + 1)))
        window_maxima.append((q_window, sample))
        detail_rows.append({"Q_window": q_window, "q": qv, "p": p_exact,
                            "error": float(err_exact), "exponent_sample": sample})
        if k >= burn_in:
            if err_exact == 0:
                continue
            xs.append(math.log(qn))
            ys.append(float(-mp.log(err_exact)))
            samples.append(sample)
    if exact_hit is not None:
        return ExponentFit(estimate=math.inf, window_maxima=window_maxima,
                           observed_max=math.inf, exact_hit=exact_hit,
                           champions=detail_rows)
    estimate = _anchored_slope_estimate(xs, ys, math.log(B), samples)
    return ExponentFit(estimate=estimate, window_maxima=window_maxima,
                       observed_max=max(samples) if samples else math.nan,
                       champions=detail_rows)


# ---------------------------------------------------------------------------


def build_A_from_HJ(H: RealMatrix, J: RealMatrix) -> RealMatrix:
    """J^-1 H at working precision; raises on numerically singular J."""
    if J.m != J.n:
        raise ValidationError("J must be square")
    if H.m != J.m:
        raise ValidationError("H and J must have matching row count")
    prec = max(H.precision_bits, J.precision_bits)
    with mp.workprec(prec + 32):
        Jm = mp.matrix([[J.entry(i, j) for j in range(J.n)] for i in range(J.m)])
        Hm = mp.matrix([[H.entry(i, j) for j in range(H.n)] for i in range(H.m)])
        try:
            Jinv = Jm**-1
        except ZeroDivisionError as e:
            raise SingularMatrixError("J is singular") from e
        cond = mp.mnorm(Jm, 1) * mp.mnorm(Jinv, 1)
        if not mp.isfinite(cond) or cond > mp.ldexp(1, prec // 2):
            raise SingularMatrixError(f"J numerically singular: condition ~ {mp.nstr(cond, 5)}")
        Am = Jinv * Hm
        rows = [[Am[i, j] for j in range(H.n)] for i in range(H.m)]
    return RealMatrix.from_rows(rows, prec)


def liouville_number(exponents: Sequence[int] = (2, 6, 30, 150), base: int = 2,
                     precision_bits: int = DEFAULT_PRECISION) -> mp.mpf:
    """Super-fast converging sum base^-e over the exponent ladder.

    The default ladder (2, 6, 30, 150) gives a 4-very-well-approximable
    number whose quality-4 convergent q = 2^6 sits at desk scale, which a
    base-10 factorial ladder does not (its first usable convergent beyond
    q = 100 is already 10^6).
    """
    if sorted(exponents) != list(exponents) or len(set(exponents)) != len(exponents):
        raise ValidationError("exponents must be strictly increasing")
    with mp.workprec(precision_bits + 16):
        return +mp.fsum(mp.mpf(base) ** -e for e in exponents)
