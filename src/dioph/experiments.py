"""End-to-end pipelines: weak Dirichlet runs, Minkowski witnesses, exponent probes.

The weak Dirichlet experiment reduces approximation of a target P by the
multiples [q]Q of a rank-1 generator to the circle problem
min_p |gamma - q theta + p omega|, tabulates per-window champions with
hhat([q]Q) = q^2 hhat(Q) by construction, and fits the point exponent
sigma(P) with the shared windowed-limsup estimator.

Every circle search is the shell search of `dioph_matrix` on the 1 x 1
matrix alpha = theta / omega with target gamma / omega, both kept at their
exact dyadic values: one shell per window for the champions, and dyadic
shells |q| in [2^j, 2^(j+1)) listed at radius 2^-j / 4 for the Minkowski
witnesses.  The running constant M(x) = min over 0 < |q| <= x of |q| d is
read off that witness list: the list holds every q with |q| d < 1/4, so
from the first witness's |q| on the minimiser is a witness.  Only points x
below the first witness take shell minima of |q| d.  So every reported d,
product and error is exact at working precision, the cost is O(log q_max)
small lattice searches, each solved exactly in integers on a Lagrange-Gauss
basis with no float centre or margin, and memory is O(1) in q_max; q_max
is limited by int64 and by the shell search's budget
(`reduction.SHELL_MAX_ENUM`, outer box points and points scored per search),
not by memory: `minkowski` and `weakdirichlet` run at q_max = 1e15.

Seeded targets (a random t for `weak_dirichlet_experiment`, the xi of
`conjecture_probe`) are drawn from `pcg64._Generator(seed)`, the stream of
`numpy.random.default_rng(seed)` in Python ints: the draws, and so the
reports, are numpy's, and no run imports `numpy.random`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import mpmath as mp

from . import analytic, ec_core, heights, pcg64
from .dioph_matrix import (ApproxRecord, ExponentFit, RealMatrix, _champion_rank,
                           _exponent_sample, _LogScore, _ls_slope, _Shells, _shell_argmax,
                           _to_mpf, _windows, best_approx, build_A_from_HJ)
from .ec_core import CurvePoint, RationalCurve
from .errors import (DEFAULT_PRECISION, BudgetExceededError, CertificateError,
                     DegenerateTargetError, SingularMatrixError, ValidationError)

# targets xi one `conjecture_probe` samples, each searched at every Q of its schedule
MAX_XI_SAMPLES = 10_000


@dataclass
class CurveExperimentConfig:
    curve: RationalCurve
    target_P: Union[CurvePoint, float, mp.mpf, None] = None  # None: seeded random t
    q_max: int = 100_000
    precision_bits: int = DEFAULT_PRECISION
    windows_base: float = 2.0
    seed: int = 0


@dataclass
class WeakDirichletReport:
    curve_label: Optional[str]
    omega: mp.mpf
    theta: mp.mpf
    alpha: mp.mpf  # theta / omega
    gamma: mp.mpf  # elliptic log of the target
    hhat_Q: mp.mpf
    substituted_generator: bool
    q_max: int
    seed: int
    precision_bits: int
    records: List[ApproxRecord] = field(default_factory=list)
    running_C: List[float] = field(default_factory=list)  # aligned with records
    running_C_final: float = math.inf
    running_C_at_100: float = math.inf
    sigma_fit: Optional[ExponentFit] = None
    minkowski_witnesses: List[Tuple[int, int, float]] = field(default_factory=list)
    minkowski_count: int = 0
    chain_check_ok: bool = True
    height_convention: str = "x-height/2, natural log (hhat([n]P) = n^2 hhat(P))"
    period_route: str = ""


def _witnesses(shells: _Shells, q_max: int) -> List[Tuple[int, int, int]]:
    """(q, p, D err) for every 0 < |q| <= q_max with |q| err(q) < 1/4, by (|q|, +q first).

    One list search per dyadic shell |q| in [2^j, 2^(j+1)), at radius 2^-j / 4,
    in increasing |q|; each shell comes out in that order from `within`.
    """
    D, out, j = shells.D, [], 0
    while 2**j <= q_max:
        for err, q, p in shells.within(2**j, min(2 ** (j + 1) - 1, q_max),
                                       Fraction(1, 2 ** (j + 2))):
            if 4 * abs(q[0]) * err < D:
                out.append((q[0], p[0], err))
        j += 1
    return out


def minkowski_solutions(alpha, gamma, q_max: int,
                        precision_bits: int = DEFAULT_PRECISION) -> List[Tuple[int, int, float]]:
    """All (q, p) with |q| <= q_max and |q| |q alpha + p - gamma| < 1/4, by |q|.

    alpha and gamma keep their exact values (p/q and decimal strings as
    given, an mpf as its dyadic value), and each product is that exact value
    rounded to a float.  gamma must not be congruent to a*alpha + b for small
    integers; exact or near hits below the search resolution raise
    DegenerateTargetError.
    """
    if q_max < 1:
        raise ValidationError("q_max must be >= 1")
    with mp.workprec(precision_bits + 16):
        a_mp = _to_mpf(alpha, precision_bits)
        g_mp = _to_mpf(gamma, precision_bits)
        # preconditions: alpha not rational at resolution, gamma not a * alpha + b
        # for small integers; both checked well below the search scale
        tol = mp.mpf(2) ** (-min(precision_bits, 48))
        for a in range(-32, 33):
            r = a * a_mp - g_mp
            if abs(r - mp.nint(r)) < tol:
                raise DegenerateTargetError(
                    f"gamma = {a}*alpha + b within {mp.nstr(tol, 3)}: orbit-degenerate")
        for qq in range(1, min(q_max, 64) + 1):
            r = qq * a_mp
            if abs(r - mp.nint(r)) < tol:
                raise DegenerateTargetError("alpha rational at working resolution")
    shells = _Shells(RealMatrix.from_rows([[alpha]], precision_bits), gamma, q_max)
    return [(q, p, float(shells.error(abs(q) * err)))
            for q, p, err in _witnesses(shells, q_max)]


def _effective_generator(curve: RationalCurve) -> Tuple[CurvePoint, bool]:
    if curve.rank_hint != 1 or curve.generator_hint is None:
        raise ValidationError("weak Dirichlet experiment needs rank_hint = 1 and a generator")
    gen = curve.generator_hint
    if ec_core.on_identity_component(curve, gen):
        return gen, False
    return ec_core.scalar_mul(curve, 2, gen), True


def _orbit_distance(shells: _Shells, q_max: int) -> Fraction:
    """Exact min over 0 < |q| <= q_max of dist(q alpha - gamma, Z): one min search."""
    return Fraction(shells.min(1, q_max)[0], shells.D)


def _resolve_target_log(config: CurveExperimentConfig, omega: mp.mpf,
                        alpha: RealMatrix, rng: pcg64._Generator) -> mp.mpf:
    """Target's elliptic log; seeded random draws re-sample degenerate hits."""
    prec = config.precision_bits
    tp = config.target_P
    if isinstance(tp, CurvePoint):
        return analytic.elliptic_log(config.curve, tp, prec).t
    if tp is not None:
        with mp.workprec(prec + 16):
            t = mp.mpf(tp) % omega
        if t == 0:
            raise DegenerateTargetError("target t reduces to 0 mod omega")
        return t
    res = Fraction(1, config.q_max**2)
    for _ in range(64):
        u = float(rng.uniform(0.02, 0.98))  # normalized gamma/omega; q = 0 is >= 0.02 away
        if _orbit_distance(_Shells(alpha, u, config.q_max), config.q_max) >= res:
            with mp.workprec(prec + 16):
                return +(mp.mpf(u) * omega)
    raise DegenerateTargetError("could not sample a non-orbit target")


def _min_product(shells: _Shells, lo: int, hi: int) -> int:
    """D min |q| err(q) over lo <= |q| <= hi: every q with |q| err <= M has err <= M / lo."""
    return -_shell_argmax(shells, lo, hi, lambda qn, err: -qn * err,
                          lambda s, lo_: Fraction(-s, lo_ * shells.D))[0]


def _running_products(shells: _Shells, points: Sequence[int]) -> dict:
    """D M(x), M(x) = min over 0 < |q| <= x of |q| err(q), exactly, at each x of `points`.

    The range is cut at every point and at every 2^j - 1, so each piece
    [lo, hi] has hi < 2 lo and lists O(1) points in `_min_product`.
    """
    top = max(points)
    cuts = sorted(set(points) | {2**j - 1 for j in range(1, top.bit_length() + 1)} - {0})
    out, best, lo = {}, None, 1
    for hi in (c for c in cuts if c <= top):
        piece = _min_product(shells, lo, hi)
        best = piece if best is None else min(best, piece)
        out[hi] = best
        lo = hi + 1
    return out


def _running_from_witnesses(shells: _Shells, witnesses: List[Tuple[int, int, int]],
                            points: Sequence[int]) -> dict:
    """`_running_products` at `points`, read off the complete witness list where it can be.

    Every q with |q| err(q) < 1/4 is a witness, so from the first witness's
    |q| on M(x) < 1/4 and its minimiser is a witness: M(x) is the least
    |q| D err over the witnesses with |q| <= x.  Only the points below the
    first witness run the shell searches of `_running_products`.
    """
    first = abs(witnesses[0][0]) if witnesses else math.inf
    below = [x for x in points if x < first]
    out = _running_products(shells, below) if below else {}
    sizes = [abs(q) for q, _, _ in witnesses]  # sorted
    prefix = list(itertools.accumulate((abs(q) * err for q, _, err in witnesses), min))
    for x in points:
        if x >= first:
            out[x] = prefix[bisect.bisect_right(sizes, x) - 1]
    return out


def weak_dirichlet_experiment(config: CurveExperimentConfig) -> WeakDirichletReport:
    """Circle searches over 0 < |q| <= q_max, both signs of the generator orbit, against the target.

    Champions maximise -log d / log hhat([q]Q) over each window [B^k, B^(k+1))
    exactly, ties to the smaller |q| and then +q; d is min_p |gamma - q theta
    + p omega| at working precision and each record's p is that p.
    """
    prec = config.precision_bits
    curve = config.curve
    q_max = config.q_max
    if q_max < 16:
        raise ValidationError("q_max too small for windowed fits")
    if not 1 < config.windows_base < math.inf:
        raise ValidationError("windows_base must be a finite number > 1")
    gen, substituted = _effective_generator(curve)
    period = analytic.real_period(curve, prec)
    omega = period.omega
    theta = analytic.elliptic_log(curve, gen, prec).t
    hhat_Q = heights.canonical_height_local(curve, gen, prec).value
    rng = pcg64._Generator(config.seed)
    with mp.workprec(prec + 16):
        alpha = +(theta / omega)
    alpha_m = RealMatrix(m=1, n=1, entries=(alpha,), precision_bits=prec)
    gamma = _resolve_target_log(config, omega, alpha_m, rng)
    with mp.workprec(prec + 16):
        g_norm = +(gamma / omega)
    shells = _Shells(alpha_m, g_norm, q_max)
    if _orbit_distance(shells, q_max) < Fraction(1, q_max**2):
        raise DegenerateTargetError("target lies in the orbit at search resolution")
    hq_f = float(hhat_Q)

    def d_of(err: int) -> mp.mpf:  # the circle distance, omega times the normalized one
        with mp.workprec(prec):
            return shells.error(err) * omega

    score = _LogScore(shells, omega, hhat_Q, 2)  # -log d / log hhat([q]Q)

    # Below q_c, hhat([q]Q) <= 1 and the sample grows with d: there, as the
    # reports always did, each |q| takes its better sign and then competes.
    q_c = 1
    with mp.workprec(prec):
        while hhat_Q * q_c * q_c <= 1:
            q_c += 1

    def champion(lo: int, hi: int):
        cands = []
        for qn in range(lo, min(hi, q_c - 1) + 1):
            err, q, p = shells.min(qn, qn)
            cands.append((score(qn, err), err, q, p))
        if max(lo, q_c) <= hi:
            cands.append(_shell_argmax(shells, max(lo, q_c), hi, score, score.radius_for))
        return min(cands, key=_champion_rank) if cands else None

    # per-window champions in |q|
    B = float(config.windows_base)
    champions = []
    for _k, lo, hi in _windows(B, q_max):
        best = champion(lo, hi)
        if best is not None:
            champions.append(best)
    # running min of d sqrt(hhat([q]Q)) = |q| d_norm omega sqrt(hhat(Q))
    found = _witnesses(shells, q_max)
    at = _running_from_witnesses(
        shells, found, [abs(c[2][0]) for c in champions] + [min(100, q_max), q_max])
    with mp.workprec(prec):
        c_unit = omega * mp.sqrt(hhat_Q)
        running = {x: float(shells.error(v) * c_unit) for x, v in at.items()}

    records: List[ApproxRecord] = []
    running_at_records: List[float] = []
    xs, ys, fit_samples = [], [], []
    for s, err, q, p in champions:
        qn = abs(q[0])
        d = d_of(err)
        hh = hq_f * float(qn) * float(qn)  # hhat([q]Q) = q^2 hhat(Q) by construction
        records.append(ApproxRecord(q=q, p=(-p[0],), error=d, q_norm=qn,
                                    exponent_sample=float(s), height_proxy=hh))
        running_at_records.append(running[qn])
        if hh > math.e and d > 0:  # burn-in: window maxima with hhat > e
            xs.append(math.log(hh))
            ys.append(float(-mp.log(d)))
            fit_samples.append(float(s))
    # sigma is the slope of -log d against log hhat along the window champions;
    # a raw running max of the samples overstates the limsup by the constant C
    # at every desk scale, so the fit regresses the champions instead.
    window_maxima = [(int(r.q_norm), r.exponent_sample) for r in records]
    estimate = _ls_slope(xs, ys) if xs else math.nan
    fit = ExponentFit(estimate=estimate, window_maxima=window_maxima,
                      method="window_regression",
                      observed_max=max(fit_samples) if fit_samples else math.nan)

    # Minkowski witnesses in normalized units: |q| * dist(q alpha - gamma', Z) < 1/4
    witnesses = [(q, -p, float(shells.error(abs(q) * err))) for q, p, err in found]
    # chain check: for witnesses, d * sqrt(hhat([q]Q)) <= (omega/4) sqrt(hhat(Q)) (1 + 1e-6)
    om_f = float(omega)
    chain_ok = all(
        (w[2] * om_f) * math.sqrt(hq_f) <= (om_f / 4) * math.sqrt(hq_f) * (1 + 1e-6)
        for w in witnesses)

    final, at100 = running[q_max], running[min(100, q_max)]
    report = WeakDirichletReport(
        curve_label=curve.label, omega=omega, theta=theta, alpha=alpha, gamma=gamma,
        hhat_Q=hhat_Q, substituted_generator=substituted, q_max=q_max,
        seed=config.seed, precision_bits=prec, records=records,
        running_C=running_at_records, running_C_final=final, running_C_at_100=at100,
        sigma_fit=fit, minkowski_witnesses=witnesses[:64], minkowski_count=len(witnesses),
        chain_check_ok=chain_ok, period_route=period.route)
    if not final < 10 * at100 * (1 + 1e-12):
        raise CertificateError("running_C grew: final >= 10x its value at q = 100")
    return report


def conjecture_probe(H: RealMatrix, J: RealMatrix, xi_samples: int = 3,
                     Q_schedule: Sequence[int] = (10, 20, 50, 100, 200),
                     seed: int = 0, precision_bits: int = DEFAULT_PRECISION) -> dict:
    """Uniform inhomogeneous exponents of A = J^-1 H across sampled targets.

    Reports, per sampled xi, the best errors over the Q schedule, the fitted
    uniform exponent, whether the Dirichlet floor r/g is met, and whether the
    data stay consistent with A being not very well approximable.  Finite
    data can only describe the upper direction, never certify it.
    """
    if xi_samples < 1:
        raise ValidationError("xi_samples must be >= 1")
    if xi_samples > MAX_XI_SAMPLES:
        raise BudgetExceededError(f"{xi_samples} targets exceed the budget of {MAX_XI_SAMPLES}")
    A = build_A_from_HJ(H, J)
    g, r = A.m, A.n
    if not Q_schedule or any(Q < 1 for Q in Q_schedule):
        raise ValidationError("Q_schedule must contain positive integers")
    Q_schedule = sorted(int(Q) for Q in Q_schedule)
    rng = pcg64._Generator(seed)
    floor = r / g
    prec = precision_bits
    # degenerate (rational-entry) guard: an exact hit at modest Q
    probe = best_approx(A, None, min(64, Q_schedule[-1]))
    degenerate = probe.error == 0
    out = {"g": g, "r": r, "floor": floor, "degenerate": bool(degenerate), "targets": []}
    with mp.workprec(prec + 32):
        Jm = mp.matrix([[J.entry(i, j) for j in range(J.n)] for i in range(J.m)])
    for s in range(xi_samples):
        xi = rng.uniform(0.0, 1.0, size=g)
        with mp.workprec(prec + 32):
            try:
                gam_v = mp.lu_solve(Jm, mp.matrix([mp.mpf(float(v)) for v in xi]))
            except ZeroDivisionError as e:
                raise SingularMatrixError("J is singular") from e
            gam = tuple(gam_v[i] for i in range(g))
        points = []
        us = []
        for Q in Q_schedule:
            rec = best_approx(A, gam, Q)
            err = float(rec.error)
            u = _exponent_sample(err, Q)
            points.append({"Q": Q, "error": err, "exponent": u})
            us.append(u)
        finite = [u for u in us[1:] if math.isfinite(u)]
        est = math.inf if any(math.isinf(u) for u in us) else (max(finite) if finite else math.nan)
        out["targets"].append({
            "xi": [float(v) for v in xi],
            "points": points,
            "estimate": est,
            "dirichlet_floor_ok": bool(est == math.inf or (math.isfinite(est) and est >= floor - 0.1)),
            "not_vwa_consistent": bool(math.isfinite(est) and us[-1] <= floor + 0.75),
        })
    return out
