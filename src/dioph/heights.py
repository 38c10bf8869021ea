"""Naive and canonical heights on E(Q), by two independent algorithms.

Convention: natural log throughout, and hhat is normalized off the
x-coordinate height divided by 2, so that hhat([n]P) = n^2 hhat(P) and
hhat(P) ~ (1/2) log H(x(P)) + O(1).

The two canonical-height routes cross-check each other:

  * canonical_height_limit: doubling of the projective x-coordinate,
    hhat = (1/2) lim 4^-k log H(x([2^k]P)).  The integers grow 4x in size
    per doubling, so they are never built: a certified ladder carries an
    interval enclosure of them at a fixed working precision (doubled until
    every step is decided), plus their residues modulo a power of disc^2.
    The gcd appearing at each doubling divides disc^2 (the resultant of the
    duplication quartics), so the residues give it exactly, and the result
    equals that of the exact integer ladder bit for bit.

  * canonical_height_local: archimedean Neron function plus (1/2) log
    den(x(MP)) / M^2, where M is a multiple pushing the point into the
    kernel of reduction at every bad prime.  There the
    non-archimedean local heights are pure denominator contributions, so no
    reduction-type analysis is needed.  The order at a bad prime p depends
    only on P p-adically, so once torsion is decided exactly, each order
    comes from a walk of mP on residues modulo a power of p, rerun at twice
    the digits when they run out.  MP is then built from P: the odd part of
    M by the group law, its powers of two by exact x-only doublings with the
    same disc^2 gcd as the ladder.

    The archimedean Neron function is Silverman's q-product in the real nome
    q of the period lattice, evaluated at theta = 2 pi z / omega for the
    Gauss-Landen elliptic log z of x(MP), which converges quadratically.  It
    is normalized by (1/12) log|Delta| so that lam(2P) = 4 lam(P) - log|2y(P)|
    and lam(P) ~ (1/2) log|x(P)| at O.  A point on the egg, where the elliptic
    log is not real, takes one step of that duplication relation first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import mpmath as mp
from mpmath import iv, libmp

from . import analytic, ec_core
from .ec_core import CurvePoint, RationalCurve
from .errors import BudgetExceededError, ValidationError

DEFAULT_PRECISION = 256
DEFAULT_DIGIT_BUDGET = 60_000_000
# working precision, in bits, of the first run of the doubling ladder
_START_PRECISION = 256
# p-adic digits of the first run of each kernel-of-reduction walk
_START_DIGITS = 16
# Mazur: a point of E(Q) of finite order has order at most 12
_MAX_TORSION_ORDER = 12


@dataclass(frozen=True)
class HeightValue:
    value: mp.mpf
    precision_bits: int
    method: str  # 'naive' | 'limit' | 'local_decomposition'
    tail_estimate: Optional[mp.mpf] = None

    def __float__(self) -> float:
        return float(self.value)


def naive_height(curve: RationalCurve, pt: CurvePoint,
                 precision_bits: int = DEFAULT_PRECISION) -> HeightValue:
    """log H with H = max(|p|, |q|) for x = p/q in lowest terms; identity -> 0.

    This is the place-by-place product formula over Q collapsed: only the
    archimedean place and the primes dividing q contribute, and together
    they give exactly max(|p|, |q|).
    """
    ec_core._require_on_curve(curve, pt)
    with mp.workprec(precision_bits):
        if pt.is_identity:
            return HeightValue(mp.mpf(0), precision_bits, "naive")
        h = max(abs(pt.x.numerator), pt.x.denominator)
        return HeightValue(+mp.log(h), precision_bits, "naive")


class _Undecided(Exception):
    """The current working precision cannot decide a step."""


def _top_bits(n: int) -> Tuple[int, int]:
    """(bit length, top 64 bits) of a nonnegative integer."""
    bl = n.bit_length()
    return bl, n >> max(bl - 64, 0)


def _endpoint_top_bits(v, rounding: str) -> Tuple[int, int]:
    """_top_bits of the mpf tuple v >= 0 rounded to an integer by `rounding`.

    A large endpoint is an integer already (its exponent is >= 0), and its
    top bits are read off the mantissa without building the integer.
    """
    _, man, exp, bc = v
    if exp >= 0 and bc + exp > 64:
        return bc + exp, man >> (bc - 64) if bc >= 64 else man << (64 - bc)
    return _top_bits(libmp.to_int(v, rounding))


def _height_bits(p, q) -> Tuple[int, int]:
    """_top_bits of max(|p|, |q|) for the integers enclosed by intervals p, q.

    Raises _Undecided unless every integer in the enclosure of the maximum
    has the same bit length and top 64 bits.
    """
    (lp, hp), (lq, hq) = libmp.mpi_abs(p._mpi_), libmp.mpi_abs(q._mpi_)
    lo = lp if libmp.mpf_gt(lp, lq) else lq
    hi = hp if libmp.mpf_gt(hp, hq) else hq
    bits = _endpoint_top_bits(lo, libmp.round_ceiling)
    if bits != _endpoint_top_bits(hi, libmp.round_floor):
        raise _Undecided
    return bits


def _log_of_top_bits(bl: int, top: int) -> float:
    """float log of a positive integer from its bit length and top 64 bits."""
    if bl <= 64:
        return math.log(top)
    return math.log(top) + (bl - 64) * math.log(2)


def _double_x(a, b, p, q):
    """Projective x-coordinate (fp, fq) of [2]P from x(P) = p/q, gcd not removed.

    Written once for Python ints (the residues) and intervals (the enclosures).
    """
    q2 = q * q
    q3 = q2 * q
    fp = (p * p - a * q2) ** 2 - 8 * b * p * q3
    fq = 4 * q * (p * p * p + a * p * q2 + b * q3)
    return fp, fq


def _ladder(a: int, b: int, x: Fraction, n_max: int, digit_budget: int):
    """Estimates (1/2) 4^-k log max(|p_k|, |q_k|) for k = 0..n_max, or None.

    (p_k, q_k) is the reduced projective x-coordinate of [2^k]P on the
    integral curve y^2 = x^3 + a x + b, where x(P) = x.  None means a
    doubling hit the identity: P is torsion.  Runs at the working precision
    iv.prec and raises _Undecided when an enclosure is too wide to decide.
    """
    disc = -16 * (4 * a**3 + 27 * b**2)
    gcd_bound = disc * disc
    # g_k divides gcd_bound, so after k doublings the modulus is still a
    # multiple of gcd_bound^(n_max + 1 - k) >= gcd_bound^2
    modulus = gcd_bound ** (n_max + 1)
    rp, rq = x.numerator % modulus, x.denominator % modulus
    p, q = iv.mpf(x.numerator), iv.mpf(x.denominator)
    estimates = []
    for k in range(n_max + 1):
        bl, top = _height_bits(p, q)
        estimates.append(_log_of_top_bits(bl, top) / 4**k / 2)
        if k == n_max:
            return estimates
        if bl > digit_budget:
            raise BudgetExceededError(
                f"x-coordinate exceeded {digit_budget} bits at doubling {k}")
        fp, fq = _double_x(a, b, p, q)
        lo, hi = fq._mpi_
        if lo == hi == libmp.fzero:
            return None
        if libmp.mpf_sign(lo) <= 0 <= libmp.mpf_sign(hi):
            raise _Undecided
        rfp, rfq = (r % modulus for r in _double_x(a, b, rp, rq))
        g = math.gcd(rfp, rfq, gcd_bound)
        modulus //= g
        rp, rq = rfp // g, rfq // g
        p, q = fp / g, fq / g


def canonical_height_limit(curve: RationalCurve, pt: CurvePoint, n_max: int = 11,
                           precision_bits: int = DEFAULT_PRECISION,
                           digit_budget: int = DEFAULT_DIGIT_BUDGET) -> HeightValue:
    """hhat by 4-adically accelerated doubling of the naive x-height.

    Runs k = 0..n_max doublings of the projective pair (p, q) of x(P) on the
    integral model and returns (1/2) 4^-n_max log max(|p|,|q|), with the
    error estimated from the last two iterates (the tail is geometric with
    ratio 1/4).

    The pair is never built: its bit length grows 4x per doubling, yet each
    step reads only the bit length and top 64 bits of max(|p|,|q|), and
    the gcd g with disc^2 that the doubling leaves.  So the ladder carries
    an interval enclosure of p and q at a fixed working precision, and their
    exact residues modulo disc^(2(n_max+1)), from which g is exact.  When an
    enclosure cannot decide a step (the top bits, or the sign of fq), the
    ladder reruns at twice the precision; at the size of the integers the
    intervals are exact, so the result always equals the exact ladder's.
    The point is torsion only when the enclosure of fq is exactly {0}.
    """
    ec_core._require_on_curve(curve, pt)
    if n_max < 4:
        raise ValidationError("n_max must be >= 4")
    if pt.is_identity:
        return HeightValue(mp.mpf(0), precision_bits, "limit", tail_estimate=mp.mpf(0))
    cu, pu, _ = ec_core.integral_model(curve, pt)
    saved_prec = iv.prec
    iv.prec = _START_PRECISION
    try:
        while True:
            try:
                estimates = _ladder(int(cu.a), int(cu.b), pu.x, n_max, digit_budget)
                break
            except _Undecided:
                iv.prec *= 2
    finally:
        iv.prec = saved_prec
    if estimates is None:
        # doubling hit the identity: pt is torsion
        return HeightValue(mp.mpf(0), precision_bits, "limit", tail_estimate=mp.mpf(0))
    with mp.workprec(precision_bits):
        value = mp.mpf(estimates[-1])
        tail = abs(mp.mpf(estimates[-1]) - mp.mpf(estimates[-2])) / 3
        return HeightValue(+value, precision_bits, "limit", tail_estimate=+tail)


def _lambda_archimedean(curve_int: RationalCurve, x0: mp.mpf, prec: int) -> mp.mpf:
    """Archimedean Neron function with hhat normalization, by the q-product.

    lam(P) = (1/12) log|Delta/q| - log|2 sin(theta/2)|
             - log prod_{n>=1} (1 - 2 q^n cos(theta) + q^2n),
    with theta = 2 pi z / omega for the elliptic log z of x(P) and the real
    nome q of the lattice (Silverman, Advanced Topics, VI.3.4, plus the
    (1/12) log|Delta| that makes lam(2P) = 4 lam(P) - log|2y(P)|).  A point
    on the egg first doubles onto the identity component by that relation;
    lam depends on x alone, so the sign of y never enters.
    """
    lat = analytic._lattice(curve_int, prec)
    with mp.workprec(prec + 48):
        x = mp.mpf(x0)
        s2 = x - lat.e1
        egg = lat.route == "three-real-roots" and x < (lat.e1 + lat.e2) / 2
        if egg:
            # 4 y^2 and x(2P) - e1 = ((x - e1)^2 - (e1 - e2)(e1 - e3))^2 / (4 y^2),
            # from the roots: the forms in a and b cancel when e1 and e2 are close.
            # Roundoff can graze zero at (e2, 0) and (e3, 0).
            four_y2 = abs(4 * s2 * (x - lat.e2) * (x - lat.e3))
            log_2y = mp.log(four_y2) / 2
            s2 = (s2 * s2 - (lat.e1 - lat.e2) * (lat.e1 - lat.e3)) ** 2 / four_y2
        z = analytic._landen_log(lat, max(s2, mp.mpf(0)))
        cos2, sin2 = (v * v for v in mp.cos_sin(mp.pi * z / lat.omega))
        # each factor as (1 - |q|^n)^2 + 4 |q|^n (sin or cos)^2(theta/2):
        # a sum of nonnegative terms whatever the sign of q^n
        qa = abs(lat.q)
        tol = mp.ldexp(1, -mp.mp.prec)
        prod, qn, n = mp.mpf(1), qa, 1
        while qn >= tol:
            trig = cos2 if lat.q < 0 and n % 2 else sin2
            prod *= (1 - qn) ** 2 + 4 * qn * trig
            qn *= qa
            n += 1
        disc = abs(mp.mpf(int(curve_int.discriminant)))
        lam = mp.log(disc / qa) / 12 - mp.log(4 * sin2 * prod * prod) / 2
        return +((lam + log_2y) / 4) if egg else +lam


def _walk_order(a: int, x: Fraction, y: Fraction, p: int, multiple_cap: int,
                digits: int) -> Optional[int]:
    """Least m in 2..multiple_cap with p | den x(mP), or None if there is none.

    P = (x, y) is p-integral on the integral curve y^2 = x^3 + a x + b and
    not torsion.  The walk (m+1)P = mP + P runs on the residues of x(mP) and
    y(mP) modulo p^e, where e, their absolute precision, starts at `digits`.
    Dividing by a slope denominator of valuation v leaves e - v digits.  A
    slope of negative valuation is exactly p | den x((m+1)P), so it ends the
    walk.  Raises _Undecided when a denominator is 0 modulo p^e.
    """
    pe = p**digits
    x1 = x.numerator * pow(x.denominator, -1, pe) % pe
    y1 = y.numerator * pow(y.denominator, -1, pe) % pe
    xm, ym = x1, y1
    for m in range(1, multiple_cap):
        if m == 1:
            num, den = 3 * x1 * x1 + a, 2 * y1
        else:
            num, den = ym - y1, xm - x1
        den %= pe
        if den == 0:
            raise _Undecided
        pv = 1
        while den % p == 0:
            den //= p
            pv *= p
        if num % pv:
            return m + 1
        pe //= pv
        lam = num // pv * pow(den, -1, pe) % pe
        xm = (lam * lam - xm - x1) % pe
        ym = (lam * (x1 - xm) - y1) % pe
    return None


def _order_error(multiple_cap: int, primes) -> BudgetExceededError:
    return BudgetExceededError(
        f"kernel-of-reduction order exceeds {multiple_cap} at primes {sorted(primes)}")


def _kernel_orders(curve_int: RationalCurve, pt: CurvePoint,
                   multiple_cap: int = 4000) -> Optional[dict]:
    """{p: least m >= 1 with p | den x(mP)} over the primes p | disc, or None
    when pt is torsion.

    Torsion is decided first, exactly.  A torsion point of the integral
    model is integral (Nagell-Lutz) and of order at most 12 (Mazur), so kP
    is walked by the group law while it stays integral, for k up to
    min(12, multiple_cap): O means torsion, a non-integral multiple means
    not.  Then each bad prime has its own walk on p-adic residues
    (`_walk_order`), rerun at twice the digits until every step is
    decided.  For m >= 2, x(mP) != x(P), since pt is not torsion, so every
    denominator of the walk is nonzero and the reruns end.

    Raises BudgetExceededError when an order exceeds multiple_cap, as does
    a torsion point of larger order: the primes named are those whose
    order the walk of exact multiples mP, m <= multiple_cap, would not find.
    """
    a = int(curve_int.a)
    primes = sorted(ec_core._factorize(int(curve_int.discriminant)))
    running = pt
    for _ in range(max(1, min(_MAX_TORSION_ORDER, multiple_cap))):
        if running.is_identity:
            return None
        if running.x.denominator != 1:
            break
        running = ec_core.add(curve_int, running, pt, _checked=True)
    else:
        # no O among the integral multiples: past 12, pt is not torsion;
        # within the cap, no prime divides a denominator
        if multiple_cap <= _MAX_TORSION_ORDER:
            raise _order_error(multiple_cap, primes)
    orders, pending = {}, []
    for p in primes:
        if pt.x.denominator % p == 0:
            orders[p] = 1
            continue
        digits = _START_DIGITS
        while True:
            try:
                order = _walk_order(a, pt.x, pt.y, p, multiple_cap, digits)
                break
            except _Undecided:
                digits *= 2
        if order is None:
            pending.append(p)
        else:
            orders[p] = order
    if pending:
        raise _order_error(multiple_cap, pending)
    return orders


def _kernel_multiple(curve_int: RationalCurve, pt: CurvePoint,
                     multiple_cap: int = 4000):
    """Smallest M with den(x(mP)) divisible by p for every bad prime p | disc,
    i.e. MP lies in the kernel of reduction at all bad primes.

    Returns (M, (p, q)) with x(MP) = p/q in lowest terms, q > 0, or (0, None)
    when pt turns out to be torsion.

    M is the lcm of the orders `_kernel_orders` finds on p-adic residues.
    x(MP) has about M^2 times the bits of x(P), so an estimate of them is
    held to DEFAULT_DIGIT_BUDGET before MP is built.  With M = 2^s o, o odd,
    oP comes by the group law, then s exact doublings of x alone
    (`_double_x`), each divided by its gcd with disc^2, which is the whole
    gcd (the resultant fact `_ladder` rests on).
    """
    orders = _kernel_orders(curve_int, pt, multiple_cap)
    if orders is None:
        return 0, None
    M = math.lcm(*orders.values())
    bits = M * M * max(max(abs(pt.x.numerator), pt.x.denominator).bit_length(), 8)
    if bits > DEFAULT_DIGIT_BUDGET:
        raise BudgetExceededError(
            f"x(MP) at M = {M} would have about {bits} bits, "
            f"over the {DEFAULT_DIGIT_BUDGET}-bit budget")
    a, b = int(curve_int.a), int(curve_int.b)
    gcd_bound = int(curve_int.discriminant) ** 2
    s = (M & -M).bit_length() - 1
    odd = ec_core._multiply(curve_int, M >> s, pt)
    p, q = odd.x.numerator, odd.x.denominator
    for _ in range(s):
        fp, fq = _double_x(a, b, p, q)
        g = math.gcd(fp % gcd_bound, fq % gcd_bound, gcd_bound)
        p, q = fp // g, fq // g
    return M, (p, q)


def canonical_height_local(curve: RationalCurve, pt: CurvePoint,
                           precision_bits: int = DEFAULT_PRECISION) -> HeightValue:
    """hhat by archimedean + non-archimedean local decomposition."""
    ec_core._require_on_curve(curve, pt)
    if pt.is_identity:
        return HeightValue(mp.mpf(0), precision_bits, "local_decomposition")
    cu, pu, _ = ec_core.integral_model(curve, pt)
    M, xq = _kernel_multiple(cu, pu)
    if M == 0:
        return HeightValue(mp.mpf(0), precision_bits, "local_decomposition")
    p, q = xq
    with mp.workprec(precision_bits + 64):
        x_mpf = mp.mpf(p) / mp.mpf(q)
        lam = _lambda_archimedean(cu, x_mpf, precision_bits)
        nonarch = mp.log(q) / 2
        value = (lam + nonarch) / M**2
        return HeightValue(+value, precision_bits, "local_decomposition")

