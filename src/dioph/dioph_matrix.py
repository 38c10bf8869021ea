"""Matrix Diophantine approximation by lattice enumeration.

Every search over q in this package, the 1-D circle searches of
`experiments` and `haw_game` included, is one shell search (`_Shells`) over
lo <= ||q||_inf <= hi.  It searches the lattice with basis columns
(e_i/eps, 0) for p and (A e_j/eps, e_j/hi) for q, whose points within
sup-distance 1 of the target (gamma/eps, 0) are exactly the (p, q) with
||q|| <= hi and ||A q + p - gamma|| <= eps.  Only its reduction depends on
the shape: exact Lagrange-Gauss for m = n = 1, the circle problem
(`reduction._circle_lattice`), the diagonal flow for m + n >= 3
(`_ball_lattice`).  The ball is then solved in runs of points in Python ints
by `reduction`'s one kernel, with no float deciding membership, within its
budget `reduction.SHELL_MAX_ENUM` (see that module's docstring).

The search has two modes:

* min: the exact minimiser of err(q) over the shell.  eps starts at
  hi^(-n/m), where Dirichlet guarantees a homogeneous hit in the ball, and
  doubles until the best error found is at most eps: then every q that
  could beat it was inside the ball, and once eps >= 1/2 every q is.
  `best_approx` is the min search over 1 <= ||q|| <= Q.
* list: every q of the shell whose exact error is at most a given radius.

A score that falls as err grows at fixed ||q|| (-log err / log ||q||,
or -||q|| err) is maximised over a shell in two steps (`_shell_argmax`):
the err-minimiser's score is turned into a bound on the error of every q
that can match it, and that radius is listed and rescored exactly.  A log
score (`_LogScore`) ranks the list in float with a stated error bound
first, and only the candidates the floats cannot rank are scored at
working precision.  The memory of every search is O(1) in q_max.

Outcomes are exact.  Every entry and gamma keep their exact rational value
next to the mpf: p/q and decimal strings, ints, floats and Fractions as
given, an mpf as its dyadic value, and errors are compared in integer
arithmetic over one common denominator.  Ties break by smallest sup-norm,
then by q lexicographically in the coordinatewise order 0, 1, -1, 2, -2,
... (p is a function of q); for n = 1 that is +q before -q.

Error convention (matches the inhomogeneous problems downstream):

    err(q) = min_p || A q + p - gamma ||_inf,  p the per-coordinate nearest
    integer to gamma - A q (ties toward the smaller p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import mpmath as mp

from .ec_core import _fraction
from .errors import DEFAULT_PRECISION, BudgetExceededError, SingularMatrixError, ValidationError
from .reduction import (_INT64_MAX, _canon, _circle_lattice, _eye, _int64, _reduce_at,
                        _shell_best, _shell_points)

# bits the two blocks of `_ball_lattice`'s basis scale apart per step of t,
# a third of float64's mantissa.  Homogeneous `best_approx` on seven surd
# shapes, 1 x 2 to 3 x 3, reaches Q = 1e14 with 9 to 26 bits; with 30, 3 x 3
# and 2 x 3 stop at 1e7 and 1e6, with 34, 2 x 2 and 1 x 3 at 1e4
LADDER_BITS = 17
# windows [B^k, B^(k+1)) a windowed fit may open: base 1.01 up to q_max = 1e15
# opens 3,472, and a base at or below 1 would open windows without end
MAX_WINDOWS = 4096

EntryLike = Union[str, float, int, Fraction, mp.mpf]


def _to_mpf(v: EntryLike, prec: int) -> mp.mpf:
    """v at prec bits; anything but a number or a numeric string raises ValidationError."""
    with mp.workprec(prec):
        try:
            if isinstance(v, bool):
                raise TypeError("a boolean")
            if isinstance(v, Fraction):
                return mp.mpf(v.numerator) / v.denominator
            return mp.mpf(v.strip() if isinstance(v, str) else v)
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"not a real number: {v!r}") from e


def _to_fraction(v: EntryLike, value: mp.mpf) -> Optional[Fraction]:
    """Exact value of an entry whose working-precision mpf is `value`.

    p/q and decimal strings, ints, floats and Fractions are taken as given,
    an mpf as its dyadic value at the precision it came with, anything else
    as the dyadic value of `value`.  None when the entry is not finite.
    """
    if not mp.isfinite(value):
        return None
    if isinstance(v, (Fraction, int, float)):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return _fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raw = v if isinstance(v, mp.mpf) else value
    return Fraction(*mp.libmp.to_rational(raw._mpf_))


@dataclass(frozen=True)
class RealMatrix:
    m: int
    n: int
    entries: Tuple[mp.mpf, ...]  # row-major, at working precision
    precision_bits: int = DEFAULT_PRECISION
    exact: Optional[Tuple[Fraction, ...]] = None  # row-major exact values

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValidationError("matrix dimensions must be >= 1")
        if len(self.entries) != self.m * self.n:
            raise ValidationError("entry count does not match dimensions")
        if any(not mp.isfinite(e) for e in self.entries):
            raise ValidationError("matrix entries must be finite")
        if self.exact is None:
            object.__setattr__(self, "exact", tuple(_to_fraction(e, e) for e in self.entries))
        elif len(self.exact) != len(self.entries):
            raise ValidationError("exact entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[EntryLike]],
                  precision_bits: int = DEFAULT_PRECISION) -> "RealMatrix":
        m = len(rows)
        n = len(rows[0]) if m else 0
        ent, exact = [], []
        for row in rows:
            if len(row) != n:
                raise ValidationError("ragged matrix rows")
            for v in row:
                ent.append(_to_mpf(v, precision_bits))
                exact.append(_to_fraction(v, ent[-1]))
        return RealMatrix(m=m, n=n, entries=tuple(ent), precision_bits=precision_bits,
                          exact=tuple(exact))

    @staticmethod
    def scalar(value: EntryLike, precision_bits: int = DEFAULT_PRECISION) -> "RealMatrix":
        return RealMatrix.from_rows([[value]], precision_bits)

    @staticmethod
    def from_json(doc: dict, precision_bits: int = DEFAULT_PRECISION) -> "RealMatrix":
        try:
            m, n, entries = int(doc["m"]), int(doc["n"]), list(doc["entries"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"matrix JSON needs m, n, entries: {e}") from e
        if len(entries) != m * n:
            raise ValidationError("matrix JSON entries length mismatch")
        rows = [entries[i * n:(i + 1) * n] for i in range(m)]
        return RealMatrix.from_rows(rows, precision_bits)

    def entry(self, i: int, j: int) -> mp.mpf:
        return self.entries[i * self.n + j]


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


def _parse_gamma(gamma, m: int, prec: int) -> Tuple[Fraction, ...]:
    """Exact values of the m coordinates of gamma (None or 0 for the origin)."""
    if gamma is None or (isinstance(gamma, (int, float)) and gamma == 0):
        return (Fraction(0),) * m
    if isinstance(gamma, (str, mp.mpf, Fraction)) or not isinstance(gamma, Iterable):
        gamma = [gamma]
    vals = tuple(_to_fraction(v, _to_mpf(v, prec)) for v in gamma)
    if len(vals) != m:
        raise ValidationError(f"gamma must have {m} coordinates")
    if any(v is None for v in vals):
        raise ValidationError("gamma must be finite")
    return vals


def _exact_form(A: RealMatrix, gamma: Tuple[Fraction, ...]):
    """(D, N, G) with A = N / D and gamma = G / D over one common denominator D.

    In Python ints: N is m rows of n entries, G a list of m.
    """
    vals = A.exact + tuple(gamma)
    D = math.lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (D // v.denominator) for v in vals]
    return D, [nums[i * A.n:(i + 1) * A.n] for i in range(A.m)], nums[A.m * A.n:]


def _error_mpf(err: int, D: int, prec: int) -> mp.mpf:
    """err / D correctly rounded to prec bits."""
    with mp.workprec(prec):
        return mp.mpf(mp.libmp.from_rational(int(err), D, prec, mp.libmp.round_nearest))


def _ball_lattice(form, Q: int, eps: float):
    """(T, T^-1) reducing the shell lattice of one eps and ||q|| <= Q, m + n >= 3, in Python ints.

    Columns (e_i/eps, 0) for p and (A e_j/eps, e_j/Q) for q, reduced to
    diag(1/eps, 1/Q) B0 T.  Up to scale this is g_t Lambda_A at
    t = log(Q/eps) / (1/m + 1/n) (Dani's correspondence), reached in steps
    of t from 0, the last at the exact scaling (1/eps, 1/Q): each step is
    `reduction._reduce_at`, float64 LLL on the basis built from T, with
    (T, T^-1) carried.  T beyond int64 raises.
    """
    D, N, _ = form
    m, n = len(N), len(N[0])
    rate = 1 / m + 1 / n  # the blocks scale apart by e^(rate t)
    step = LADDER_BITS * math.log(2) / rate
    # t = step, 2 step, ... below log(Q/eps) / rate, as numpy.arange(step, stop, step) spaces them
    ts = [step + i * step for i in range(math.ceil((math.log(Q / eps) / rate - step) / step))]
    scales = [(math.exp(t / m), math.exp(-t / n)) for t in ts]
    transform = (_eye(m + n),) * 2
    for a, b in scales + [(1 / Fraction(eps), Fraction(1, Q))]:
        transform = _reduce_at(D, N, transform, a, b)
    return _int64(transform[0], "shell transform"), transform[1]


def _sup_norm(q: Sequence[int]) -> int:
    return max(abs(int(v)) for v in q)


class _Shells:
    """Exact searches of err(q) over shells lo <= ||q||_inf <= hi for one (A, gamma).

    `min` and `within` are the two modes of the module docstring.  Results
    are (D err, q, p) with D the common denominator of `_exact_form`, so
    errors compare exactly as integers.  Shells lie in ||q|| <= q_max, and
    q_max must fit int64.
    """

    def __init__(self, A: RealMatrix, gamma=None, q_max: int = 1):
        if q_max > _INT64_MAX:
            raise BudgetExceededError(f"q_max of {int(q_max).bit_length()} bits leaves int64")
        self.form = _exact_form(A, _parse_gamma(gamma, A.m, A.precision_bits))
        self.D = self.form[0]
        self.m, self.n = A.m, A.n
        self.prec = A.precision_bits
        self._lattice = _circle_lattice if A.m == A.n == 1 else _ball_lattice  # (T, T^-1)

    def error(self, err: int) -> mp.mpf:
        """err / D correctly rounded to the working precision."""
        return _error_mpf(err, self.D, self.prec)

    def min(self, lo: int, hi: int):
        """The exact minimiser (D err, q, p) over lo <= ||q|| <= hi, None for an empty shell."""
        lo = max(int(lo), 1)
        if lo > hi:
            return None
        eps = float(hi) ** (-self.n / self.m)
        while True:
            T, Tinv = self._lattice(self.form, hi, eps)
            best = _shell_best(self.form, T, Tinv, Fraction(eps), lo, hi)
            # every q with err <= eps was in the ball; at eps >= 1/2 every q was
            if eps >= 0.5 or (best is not None and Fraction(best[0], self.D) <= Fraction(eps)):
                return best
            eps *= 2

    def within(self, lo: int, hi: int, radius: Fraction):
        """Every (D err, q, p) with lo <= ||q|| <= hi and err(q) <= radius, by (||q||, _canon(q))."""
        lo = max(int(lo), 1)
        if lo > hi:
            return []
        radius = min(radius, Fraction(1, 2))  # no error exceeds 1/2
        # eps only shapes the reduction: the radius, or a positive one for radius 0
        eps = max(float(radius), float(hi) ** (-self.n / self.m) / 1024)
        found = _shell_points(self.form, *self._lattice(self.form, hi, eps), radius, lo, hi)
        return sorted(found, key=lambda f: (_sup_norm(f[1]), _canon(f[1])))


def _shell_argmax(shells: _Shells, lo: int, hi: int, score, radius_for):
    """Exact argmax (score, D err, q, p) of score(||q||, D err) over lo <= ||q|| <= hi.

    Ties go to the smaller ||q||, then to `_canon(q)` (+q before -q).  score
    must not grow with err at fixed ||q||, and radius_for(s, lo) must bound
    err(q) for every q of the shell scoring at least s (1/2 or more lists
    the whole shell).  Two steps: the err-minimiser's score s* gives the
    radius, which is listed and rescored.  For a `_LogScore` s* is the lower
    end of its float estimate, and only the listed q whose float interval
    reaches the highest lower end are scored at working precision.  None
    for an empty shell.
    """
    found = shells.min(lo, hi)
    if found is None:
        return None
    err, q, _ = found
    fast = isinstance(score, _LogScore)
    if fast:
        v, bound = score.estimate(_sup_norm(q), err)
        s = v - bound
    else:
        s = score(_sup_norm(q), err)
    listed = shells.within(lo, hi, radius_for(s, max(int(lo), 1)))
    if fast:
        est = [score.estimate(_sup_norm(q), err) for err, q, _ in listed]
        floor = max(v - bound for v, bound in est)
        listed = [c for c, (v, bound) in zip(listed, est) if v + bound >= floor]
    return min(((score(_sup_norm(q), err), err, q, p) for err, q, p in listed),
               key=_champion_rank)


def _champion_rank(champ) -> tuple:
    """Sort key of a (score, D err, q, p) champion: higher score, smaller ||q||, `_canon(q)`."""
    return (-champ[0], _sup_norm(champ[2]), _canon(champ[2]))


def _radius_above(x: mp.mpf) -> Fraction:
    """x >= 0 widened by 2^-20 as an exact Fraction (1/2, all of a shell, for +inf).

    The widening covers the rounding of the score the radius came from.
    """
    if not mp.isfinite(x):
        return Fraction(1, 2)
    return Fraction(*mp.libmp.to_rational(x._mpf_)) * (1 + Fraction(1, 2**20))


# A float log of an int or a float is within a few units in the last place,
# so a short sum of them is within _FLOAT_SLACK (1 + the sum of their sizes).
_FLOAT_SLACK = 2.0**-40


class _LogScore:
    """The champion score -log(c err) / log(h ||q||^k), err = D err / D, of one shell search.

    Called, it gives the score at working precision: +inf for an exact hit
    and -inf where h ||q||^k = 1 (q = 1 of the homogeneous exponent).
    `estimate` gives it in float with a bound on the distance between the
    two, so `_shell_argmax` needs working precision only where the floats
    cannot rank, and `radius_for` bounds err from float logs widened
    upward.
    """

    def __init__(self, shells: _Shells, c: EntryLike = 1, h: EntryLike = 1, k: int = 1):
        self.shells, self.c, self.h, self.k = shells, c, h, k
        with mp.workprec(shells.prec):
            self._log_c, self._log_h = float(mp.log(c)), float(mp.log(h))
        self._log_D = math.log(shells.D)

    def __call__(self, qn: int, err: int):
        if err == 0:
            return mp.inf
        with mp.workprec(self.shells.prec):
            hq = self.h
            for _ in range(self.k):
                hq = hq * qn
            den = mp.log(hq)
            if den == 0:
                return -mp.inf
            return -mp.log(self.c * self.shells.error(err)) / den

    def estimate(self, qn: int, err: int) -> Tuple[float, float]:
        """(float score, bound on its distance from the working-precision score).

        The bound is inf where the float denominator cannot be told from 0.
        """
        if err == 0:
            return math.inf, 0.0
        log_err, log_q = math.log(err), math.log(qn)
        num = log_err - self._log_D + self._log_c
        den = self._log_h + self.k * log_q
        d_num = _FLOAT_SLACK * (1 + abs(log_err) + self._log_D + abs(self._log_c))
        d_den = _FLOAT_SLACK * (1 + abs(self._log_h) + self.k * log_q)
        if abs(den) <= 2 * d_den:
            return 0.0, math.inf
        v = -num / den
        return v, (d_num + abs(v) * d_den) / (abs(den) - d_den) + _FLOAT_SLACK * abs(v)

    def radius_for(self, s: float, lo: int) -> Fraction:
        """A bound on err(q) over ||q|| >= lo and scores >= s, on shells where h ||q||^k >= 1.

        err <= (h lo^k)^(-s) / c for s > 0: the exponent is evaluated in
        float, widened by its error bound, and split into a power of two
        and a mantissa, so nothing under- or overflows.
        """
        if not s > 0:
            return Fraction(1, 2)
        if s == math.inf:
            return Fraction(0)
        log_lo = math.log(lo)
        x = -s * (self._log_h + self.k * log_lo) - self._log_c
        x += _FLOAT_SLACK * (1 + s * (1 + abs(self._log_h) + self.k * log_lo) + abs(self._log_c))
        if x >= -math.log(2):
            return Fraction(1, 2)
        e2 = x / math.log(2)
        e2 += _FLOAT_SLACK * (1 + abs(e2))
        n = math.floor(e2)
        return _radius_above(mp.ldexp(mp.mpf(2.0 ** (e2 - n) * (1 + _FLOAT_SLACK)), n))


def best_approx(A: RealMatrix, gamma=None, Q: int = 1) -> ApproxRecord:
    """Exact minimizer of ||Aq + p - gamma||_inf over 0 < ||q||_inf <= Q.

    The min mode of the shell search over 1 <= ||q|| <= Q.  A search over
    its kernel's budget raises BudgetExceededError, and so does Q above
    int64.
    """
    if Q < 1:
        raise ValidationError("Q must be >= 1")
    shells = _Shells(A, gamma, Q)
    err, q, p = shells.min(1, Q)
    error = shells.error(err)
    qn = _sup_norm(q)
    return ApproxRecord(q=q, p=p, error=error, q_norm=qn,
                        exponent_sample=_exponent_sample(float(error), qn))


def dirichlet_check(A: RealMatrix, Q: int) -> Tuple[bool, ApproxRecord, mp.mpf]:
    """(ok, record, threshold): the best record and the unconditional test err < Q^(-n/m).

    The threshold Q^(-n/m) is taken once, at working precision, and returned
    with the verdict it decided.
    """
    rec = best_approx(A, None, Q)
    with mp.workprec(A.precision_bits):
        thresh = mp.mpf(Q) ** (-mp.mpf(A.n) / A.m)
        return bool(rec.error < thresh), rec, thresh


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
    slopes = [(ys[j] - ys[i]) / (xs[j] - xs[i]) for j in range(1, len(xs)) for i in range(j)
              if xs[j] - xs[i] >= max(1.5 * log_base, (xs[j] - xs[0]) * 2 / 3)]
    return max(slopes) if slopes else max(samples, default=math.nan)


def _ls_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of y against x; nan with fewer than two points."""
    k = len(xs)
    if k < 2:
        return math.nan
    mx, my = sum(xs) / k, sum(ys) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return math.nan
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _windows(base: float, q_max: int):
    """(k, lo, hi) for each k with base^k <= q_max: the integers of [base^k, base^(k+1)) up to q_max.

    In exact integer arithmetic (base^k = num^k / den^k), so a power of the
    base opens its own window; lo > hi when the window holds no integer.
    Raises BudgetExceededError past `MAX_WINDOWS` windows, which is also how
    a base at or below 1, whose powers never pass q_max, ends.
    """
    num, den = float(base).as_integer_ratio()
    pk, dk, k = 1, 1, 0
    while pk <= q_max * dk:
        if k == MAX_WINDOWS:
            raise BudgetExceededError(
                f"window base {base} opens more than {MAX_WINDOWS} windows up to {q_max}")
        pn, dn = pk * num, dk * den
        yield k, -(-pk // dk), min(-(-pn // dn) - 1, q_max)
        pk, dk, k = pn, dn, k + 1


def exponent_estimate(A: RealMatrix, Q_max: int, window_base: float = 2.0) -> ExponentFit:
    """Windowed homogeneous exponent over the shells ||q|| in [B^k, B^(k+1)).

    Each window champion maximises -log err(q) / log ||q|| exactly, ties to
    the smaller ||q|| and then `_canon(q)`: one `_shell_argmax` per window.
    For n >= 2 the windows start at ||q|| = 2; for n = 1 window 0 keeps
    q = 1 with sample -inf.  An exact rational hit reports the +inf
    sentinel.  The budget is that of `best_approx`.
    """
    if not 1 < window_base < math.inf:
        raise ValidationError("window_base must be a finite number > 1")
    if Q_max < window_base * window_base:
        raise ValidationError("Q_max must be at least window_base^2")
    B = float(window_base)
    shells = _Shells(A, None, Q_max)
    score = _LogScore(shells)
    champions = {}  # k -> (D err, q, p)
    for k, lo, hi in _windows(B, Q_max):
        best = _shell_argmax(shells, max(lo, 1 if A.n == 1 else 2), hi, score, score.radius_for)
        if best is not None:
            champions[k] = best[1:]

    window_maxima: List[Tuple[int, float]] = []
    detail_rows: List[dict] = []
    xs, ys, samples = [], [], []
    exact_hit = None
    for k in sorted(champions):
        err, qv, p_exact = champions[k]
        qn = _sup_norm(qv)
        err_exact = shells.error(err)
        if err == 0:
            exact_hit = qv
            sample = math.inf
        else:
            sample = _exponent_sample(float(err_exact), qn) if qn > 1 else -math.inf
        q_window = int(math.floor(B ** (k + 1)))
        window_maxima.append((q_window, sample))
        detail_rows.append({"Q_window": q_window, "q": qv, "p": p_exact,
                            "error": float(err_exact), "exponent_sample": sample})
        if k >= 2:  # windows 0 and 1 are burn-in
            if err_exact == 0:
                continue
            xs.append(math.log(qn))
            ys.append(float(-mp.log(err_exact)))
            samples.append(sample)
    if exact_hit is not None:
        return ExponentFit(estimate=math.inf, window_maxima=window_maxima, observed_max=math.inf,
                           exact_hit=exact_hit, champions=detail_rows)
    return ExponentFit(estimate=_anchored_slope_estimate(xs, ys, math.log(B), samples),
                       window_maxima=window_maxima, observed_max=max(samples, default=math.nan),
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
