"""Naive and canonical heights on E(Q), by two independent algorithms.

Convention: natural log throughout, and hhat is normalized off the
x-coordinate height divided by 2, so that hhat([n]P) = n^2 hhat(P) and
hhat(P) ~ (1/2) log H(x(P)) + O(1).

The two canonical-height routes cross-check each other:

  * canonical_height_limit: doubling of the projective x-coordinate,
    hhat = (1/2) lim 4^-k log H(x([2^k]P)).  The integers grow 4x in size
    per doubling, so they are never built: a certified ladder carries a
    ball (m +- r) 2^e around each, m and r integers, rounded to a fixed
    working precision after every operation (doubled until every step is
    decided), plus their residues modulo a power of disc^2.  The gcd
    appearing at each doubling divides disc^2 (the resultant of the
    duplication quartics), so the residues give it exactly, and the result
    equals that of the exact integer ladder bit for bit.

  * canonical_height_local: the decomposition into local heights at P
    itself, hhat(P) = lam_inf(P) + sum_p lam_p(P) (Silverman, "Computing
    heights on elliptic curves", Math. Comp. 51, 1988; Cohen, GTM 138,
    Algorithms 7.1.3 and 7.5.7).  A prime of good reduction gives
    (1/2) max(0, v_p(den x(P))) log p.  A prime p | Delta gives a rational
    multiple of log p read off v_p of c4, Delta, psi2(P) and psi3(P) on the
    global minimal model, by reduction type.  lam_inf carries the (1/12)
    log|Delta| of the integral short model, so no lam_p carries a (1/12)
    log|Delta|_p term (they cancel by the product formula); the minimal
    model has discriminant Delta / u^12, and that scaling enters once, as
    -log u.  Torsion is decided exactly first.

    The archimedean Neron function is Silverman's q-product in the real nome
    q of the period lattice, evaluated at theta = 2 pi z / omega for the
    Gauss-Landen elliptic log z of x(P), which converges quadratically.  It
    is normalized by (1/12) log|Delta| so that lam(2P) = 4 lam(P) - log|2y(P)|
    and lam(P) ~ (1/2) log|x(P)| at O.  A point on the egg, where the elliptic
    log is not real, takes one step of that duplication relation first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import mpmath as mp
from mpmath import libmp

from . import analytic, ec_core
from .ec_core import CurvePoint, RationalCurve
from .errors import DEFAULT_PRECISION, BudgetExceededError, ValidationError

# bits of working precision the doubling ladder may rise to
DEFAULT_DIGIT_BUDGET = 60_000_000
# working precision, in bits, of the first run of the doubling ladder
_START_PRECISION = 256
# the estimates are doubles divided by 4^k, and 4^512 overflows a double
_MAX_DOUBLINGS = 511
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


class _Ball:
    """The reals (m +- r) 2^e, r >= 0, at a working precision prec.

    Every operation rounds its exact result to a midpoint of at most prec
    bits and widens the radius by the rounding error, so the ball holds
    every real its operands can give; Python int operands are exact.
    """

    __slots__ = ("m", "r", "e", "prec")

    def __init__(self, m: int, r: int, e: int, prec: int):
        s = (abs(m) | r).bit_length() - prec
        while s > 0:
            # m rounded to nearest, and the radius widened by that exact error;
            # a carry to 2^prec takes one more (exact) pass
            low = m & ((1 << s) - 1)
            up = low >> (s - 1)
            m, r, e = (m >> s) + up, -(-(r + abs(low - (up << s))) >> s), e + s
            s = (abs(m) | r).bit_length() - prec
        self.m, self.r, self.e, self.prec = m, r, e, prec

    def __add__(self, o: "_Ball") -> "_Ball":
        # an exact 0 leaves the other term as it is, however far off its exponent
        if not (o.m or o.r):
            return self
        if self.e < o.e:
            return o + self
        d = self.e - o.e
        return _Ball((self.m << d) + o.m, (self.r << d) + o.r, o.e, self.prec)

    def __sub__(self, o: "_Ball") -> "_Ball":
        return self + _Ball(-o.m, o.r, o.e, self.prec)

    def __mul__(self, o) -> "_Ball":
        if isinstance(o, _Ball):
            r = abs(self.m) * o.r + self.r * (abs(o.m) + o.r)
            return _Ball(self.m * o.m, r, self.e + o.e, self.prec)
        return _Ball(self.m * o, self.r * abs(o), self.e, self.prec)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "_Ball":
        if n != 2:
            raise ValueError("only squares are enclosed")
        return self * self

    def __truediv__(self, g: int) -> "_Ball":
        """The ball of self / g, for an integer g > 0."""
        # the quotient to prec + 2 bits, floored (off by rem / g < 1), then rounded
        f = max(0, self.prec + 2 + g.bit_length() - (abs(self.m) | self.r).bit_length())
        m, rem = divmod(self.m << f, g)
        return _Ball(m, -(-(self.r << f) // g) + (rem > 0), self.e - f, self.prec)


def _top_bits(n: int, e: int, up: bool) -> Tuple[int, int]:
    """(bit length, top 64 bits) of n 2^e rounded up or down to an integer, n >= 0.

    For e >= 0 they are read off n without building n 2^e.
    """
    if e < 0:
        n, e = (-(-n >> -e) if up else n >> -e), 0
    if not n:
        return 0, 0
    bl = n.bit_length()
    k = min(64 - bl, e)
    return bl + e, n << k if k >= 0 else n >> -k


def _height_bits(p: _Ball, q: _Ball) -> Tuple[int, int]:
    """(bit length, top 64 bits) of max(|p|, |q|) for the integers in the balls p and q.

    Raises _Undecided unless every integer in the ball of the maximum has
    the same bit length and top 64 bits.  Rounding to an integer keeps
    order, and (bit length, top bits) orders as the integers do, so it is
    enough that the least and the greatest integer the balls allow agree.
    """
    lo = max(_top_bits(max(abs(v.m) - v.r, 0), v.e, True) for v in (p, q))
    if lo != max(_top_bits(abs(v.m) + v.r, v.e, False) for v in (p, q)):
        raise _Undecided
    return lo


def _log_of_top_bits(bl: int, top: int) -> float:
    """float log of a positive integer from its bit length and top 64 bits."""
    if bl <= 64:
        return math.log(top)
    return math.log(top) + (bl - 64) * math.log(2)


def _double_x(a, b, p, q):
    """Projective x-coordinate (fp, fq) of [2]P from x(P) = p/q, gcd not removed.

    Written once for Python ints (the residues) and balls.
    """
    q2 = q * q
    q3 = q2 * q
    fp = (p * p - a * q2) ** 2 - 8 * b * p * q3
    fq = 4 * q * (p * p * p + a * p * q2 + b * q3)
    return fp, fq


def _ladder(a: int, b: int, x: Fraction, n_max: int, prec: int):
    """Estimates (1/2) 4^-k log max(|p_k|, |q_k|) for k = 0..n_max, or None.

    (p_k, q_k) is the reduced projective x-coordinate of [2^k]P on the
    integral curve y^2 = x^3 + a x + b, where x(P) = x.  None means a
    doubling hit the identity: P is torsion.  Runs at the working precision
    prec and raises _Undecided when a ball is too wide to decide.
    """
    disc = -16 * (4 * a**3 + 27 * b**2)
    gcd_bound = disc * disc
    # the gcd of doubling k is read modulo gcd_bound, which it divides; the
    # residues before doubling k are taken modulo gcd_bound^(n_max - k)
    modulus = gcd_bound ** n_max
    rp, rq = x.numerator % modulus, x.denominator % modulus
    p, q = (_Ball(n, 0, 0, prec) for n in (x.numerator, x.denominator))
    estimates = []
    for k in range(n_max + 1):
        bl, top = _height_bits(p, q)
        estimates.append(_log_of_top_bits(bl, top) / 4**k / 2)
        if k == n_max:
            return estimates
        fp, fq = _double_x(a, b, p, q)
        if not (fq.m or fq.r):
            return None
        if abs(fq.m) <= fq.r:
            raise _Undecided
        rfp, rfq = (r % modulus for r in _double_x(a, b, rp, rq))
        g = math.gcd(rfp, rfq, gcd_bound)
        # fp / g is known modulo modulus / g, a multiple of the next modulus
        modulus //= gcd_bound
        rp, rq = rfp // g % modulus, rfq // g % modulus
        p, q = fp / g, fq / g


def canonical_height_limit(curve: RationalCurve, pt: CurvePoint, n_max: int = 11,
                           precision_bits: int = DEFAULT_PRECISION) -> HeightValue:
    """hhat by 4-adically accelerated doubling of the naive x-height.

    Runs k = 0..n_max doublings of the projective pair (p, q) of x(P) on the
    integral model and returns (1/2) 4^-n_max log max(|p|,|q|), with the
    error estimated from the last two iterates (the tail is geometric with
    ratio 1/4).

    The pair is never built: its bit length grows 4x per doubling, yet each
    step reads only the bit length and top 64 bits of max(|p|,|q|), and
    the gcd g with disc^2 that the doubling leaves.  So the ladder carries
    midpoint-radius balls of p and q (_Ball), rounded to a working
    precision that is an argument of _ladder, and their exact residues
    modulo disc^(2(n_max-k)) before doubling k, from which g is exact.
    When a ball cannot decide a step (the top bits, or
    the sign of fq), the ladder reruns at twice the precision; at the size
    of the integers the balls are exact, so the result always equals the
    exact ladder's.  The point is torsion only when the ball of fq is
    exactly {0}.  No global precision is read or set.

    n_max lies in [4, 511] (about 4 s at 511).
    `DEFAULT_DIGIT_BUDGET` bounds the working precision, in bits: a run
    that would need more raises BudgetExceededError.  Once the precision
    reaches the bit length of the integers every step is decided, so the
    budget bounds the work the ladder really does.
    """
    ec_core._require_on_curve(curve, pt)
    if not 4 <= n_max <= _MAX_DOUBLINGS:
        raise ValidationError(f"n_max must lie in [4, {_MAX_DOUBLINGS}]")
    if pt.is_identity:
        return HeightValue(mp.mpf(0), precision_bits, "limit", tail_estimate=mp.mpf(0))
    cu, pu, _ = ec_core.integral_model(curve, pt)
    prec = _START_PRECISION
    while True:
        if prec > DEFAULT_DIGIT_BUDGET:
            raise BudgetExceededError(
                f"ladder working precision {prec} bits exceeds the "
                f"{DEFAULT_DIGIT_BUDGET}-bit budget")
        try:
            estimates = _ladder(int(cu.a), int(cu.b), pu.x, n_max, prec)
            break
        except _Undecided:
            prec *= 2
    if estimates is None:
        # doubling hit the identity: pt is torsion
        return HeightValue(mp.mpf(0), precision_bits, "limit", tail_estimate=mp.mpf(0))
    with mp.workprec(precision_bits):
        value = mp.mpf(estimates[-1])
        tail = abs(mp.mpf(estimates[-1]) - mp.mpf(estimates[-2])) / 3
        return HeightValue(+value, precision_bits, "limit", tail_estimate=+tail)


def _log_of_product(terms) -> mp.mpf:
    """sum c log(n / d) over terms (n, d, c), by one mp.log at the working precision.

    n and d are positive integers and c is rational.  With L the common
    denominator of the c, the sum is log(prod (n / d)^(c L)) / L.  An n or
    d longer than wp + 16 bits, wp the working precision, is cut to that
    length first, the cut kept as a power of 2, and the exact product is
    rounded once, to wp + 8 bits.  A power too long to build exactly (a
    large L) is taken in floating point at wp + 8 bits instead.  Either way
    the sum moves by under 2^-(wp + 4) (1 + sum |c|).
    """
    wp = mp.mp.prec
    rnd = libmp.round_nearest
    L = math.lcm(*(c.denominator for _, _, c in terms))
    num = den = 1
    shift = 0
    powers = libmp.fone
    for n, d, c in terms:
        k = c.numerator * (L // c.denominator)
        if k < 0:
            n, d, k = d, n, -k
        cut_n, cut_d = n.bit_length() - wp - 16, d.bit_length() - wp - 16
        if cut_n > 0:
            n, shift = n >> cut_n, shift + cut_n * k
        if cut_d > 0:
            d, shift = d >> cut_d, shift - cut_d * k
        if k * (n.bit_length() + d.bit_length()) <= 16 * wp:
            num *= n**k
            den *= d**k
        else:
            power = libmp.mpf_pow_int(libmp.from_rational(n, d, wp + 8, rnd), k, wp + 8, rnd)
            powers = libmp.mpf_mul(powers, power, wp + 8, rnd)
    f = wp + 8 + den.bit_length() - num.bit_length()
    exact = libmp.from_man_exp(analytic._ratio(num, den, f), shift - f, wp + 8, rnd)
    return mp.log(mp.make_mpf(libmp.mpf_mul(powers, exact, wp, rnd))) / L


def _archimedean_terms(curve_int: RationalCurve, x, prec: int):
    """(wp, c, terms) with lambda_inf(x) = c + sum t log(n / d) over terms (n, d, t).

    c is the lattice constant lam0 = (1/12) log|Delta / q| (over 4 on the
    egg); every term is a rational in exact numbers or the kernels'
    integers, good to the working precision wp = prec + 64 + q_guard.  See
    _lambda_archimedean.
    """
    lat = analytic._lattice(curve_int, prec)
    n, d = analytic._exact(x)
    terms = []
    e = 1
    if lat.route == "three-real-roots" and 2 * ((n << lat.scale) - lat.e1_int * d) + lat.gb2 * d < 0:
        # on the egg, x < (e1 + e2) / 2: lam(P) = (lam(2P) + (1/2) log 4y^2) / 4, with
        # 4y^2 and x(2P) exact rationals
        xq, a, b = Fraction(n, d), curve_int.a, curve_int.b
        four_y2 = abs(4 * ((xq * xq + a) * xq + b))
        terms.append((four_y2.numerator, four_y2.denominator, Fraction(1, 8)))
        x2 = ((xq * xq - a) ** 2 - 8 * b * xq) / four_y2
        n, d, e = x2.numerator, x2.denominator, 4
    k, s = analytic._landen_walk(lat, *analytic._x_walk_start(lat, n, d, prec, False))
    # theta/2 = atan2(a_N, s_N): cos^2(theta/2) = s_N^2 / h and sin^2(theta/2) =
    # a_N^2 / h, h = a_N^2 + s_N^2, in the walk's integers; sin(theta/2) = sin_g / 2^g
    an, sn = (lat.a2_end << k, s) if k >= 0 else (lat.a2_end, s << -k)
    wp = prec + 64 + lat.q_guard
    g = wp + max(0, (an + sn).bit_length() - an.bit_length()) // 2 + 1
    sin_g = math.isqrt((an << 2 * g) // (an + sn))
    sign, qm, qe, _ = lat.q._mpf_
    theta1, euler = _theta_euler(analytic._shift(-qm if sign else qm, qe + wp),
                                 ((sn - an) << wp + 1) // (an + sn), wp)
    # lam = lam0 - log|2 sin(theta/2) theta1 / euler|
    terms.append((abs(euler) << g, abs(2 * sin_g * theta1), Fraction(1, e)))
    with mp.workprec(wp):
        return wp, lat.lam0 / e, terms


def _lambda_archimedean(curve_int: RationalCurve, x, prec: int) -> mp.mpf:
    """Archimedean Neron function with hhat normalization, by the q-product.

    lam(P) = (1/12) log|Delta/q| - log|2 sin(theta/2)|
             - log prod_{n>=1} (1 - 2 q^n cos(theta) + q^2n),
    with theta = 2 pi z / omega for the elliptic log z of x(P) and the real
    nome q of the lattice (Silverman, Advanced Topics, VI.3.4, plus the
    (1/12) log|Delta| that makes lam(2P) = 4 lam(P) - log|2y(P)|).  A point
    on the egg first doubles onto the identity component by that relation;
    lam depends on x alone, so the sign of y never enters.  x is an exact
    rational, a Fraction or an mpf.

    The product is summed as Jacobi's theta_1, with the triangular exponents
    of q, over Euler's pentagonal series for prod (1 - q^n): by the triple
    product identity,
        sum_{n>=0} (-1)^n q^(n(n+1)/2) sin((2n+1) theta/2)
            = sin(theta/2) prod_{n>=1} (1 - q^n)(1 - 2 q^n cos(theta) + q^2n),
    an identity of power series in q that holds for q < 0 too.  Both series
    need O(sqrt(prec)) terms where the product needs O(prec), and both run
    on integers (_theta_euler).  theta/2 is the end angle atan2(a_N, s_N)
    of the Landen walk, whose start x - e1 is taken from the exact x
    (analytic._x_walk_start); cos^2(theta/2) is a ratio of the walk's
    integers and sin(theta/2) an isqrt of one.  (1/12) log|Delta / q| is
    the lattice constant lam0, from -log|q| = 2 pi omega' / omega, and the
    other terms, 2 sin(theta/2) theta_1 / euler and on the egg 4y^2, are
    rationals in the kernels' integers: lam takes one mp.log of their
    product (_log_of_product).
    """
    wp, c, terms = _archimedean_terms(curve_int, x, prec)
    with mp.workprec(wp):
        lam = c + _log_of_product(terms)
    with mp.workprec(wp - 16):
        return +lam


def _theta_euler(Q: int, D: int, F: int) -> Tuple[int, int]:
    """(theta_1 / sin(theta/2), prod_(n>=1) (1 - q^n)) over 2^F, for q = Q / 2^F.

    D / 2^F = 4 c^2 - 2 at c = cos(theta/2).  Both series are summed in
    integers over 2^F to 2^-(F - 16).  theta_1 over sin(theta/2) is
    sum_n (-1)^n q^(n(n+1)/2) U_2n(c), with V_n = U_2n(c) =
    sin((2n+1) theta/2) / sin(theta/2) by V_(n+1) = (4c^2 - 2) V_n - V_(n-1),
    so |V_n| <= 2n + 1; the product is Euler's pentagonal series.
    """
    tol = 1 << 16  # 2^-(F - 16), over 2^F
    one = 1 << F
    theta1, v_prev, v, qn, qt, n = one, one, D + one, Q, Q, 1
    while abs(qt) * (2 * n + 1) >= tol:
        term = qt * v >> F
        theta1 += -term if n % 2 else term
        v_prev, v = v, (D * v >> F) - v_prev
        qn = qn * Q >> F
        qt = qt * qn >> F
        n += 1
    # prod_(n>=1) (1 - q^n) = 1 + sum_k (-1)^k q^(k(3k-1)/2) (1 + q^k)
    euler, qk, qpow, step, k = one, Q, Q, Q, 1
    q3 = Q * Q * Q >> 2 * F
    while abs(qk) >= tol:
        pair = qk * (one + qpow) >> F
        euler += -pair if k % 2 else pair
        step = step * q3 >> F
        qk = qk * step >> F
        qpow = qpow * Q >> F
        k += 1
    return theta1, euler


def _valuation(q, p: int):
    """v_p of a nonzero rational q, or math.inf at q = 0."""
    if q == 0:
        return math.inf
    q = Fraction(q)
    return ec_core._padic_valuation(q.numerator, p) - ec_core._padic_valuation(q.denominator, p)


@functools.lru_cache(maxsize=64)
def _reduction_data(a: int, b: int):
    """The global minimal model of the integral short model y^2 = x^3 + a x + b.

    Returns (ainvs, u, c4, primes): the model [a1, a2, a3, a4, a6] and the
    scaling u of `ec_core.minimal_model`, c4 of the minimal model, and
    ((p, v_p(Delta')), ...) over the primes p of the short model's discriminant,
    Delta' being the minimal discriminant.  Every other prime is one of good
    reduction where the short model is already minimal.
    """
    ainvs, u = ec_core.minimal_model(a, b)
    disc = -16 * (4 * a**3 + 27 * b**2)
    primes = sorted(ec_core._factorize(disc))
    return ainvs, u, -48 * a // u**4, tuple((p, _valuation(disc // u**12, p)) for p in primes)


def _lambda_ps(ainvs, c4: int, primes, x: Fraction, y: Fraction):
    """[(p, lambda_p(P) / log p)] over (p, N = v_p(Delta)) in primes, on a minimal model.

    Cohen, GTM 138, Algorithm 7.5.7 (Silverman, Math. Comp. 51, 1988, Thm 5.2),
    halved for hhat ~ (1/2) log H(x), and without the (1/12) log|Delta|_p term,
    which lambda_infinity carries: P reducing to a non-singular point gives
    (1/2) max(0, -v(x)); multiplicative reduction -n(N - n)/(2N) with
    n = min(v(psi2), N/2); additive reduction -v(psi2)/3 when
    v(psi3) >= 3 v(psi2), else -v(psi3)/8.  A non-torsion point has psi2 and
    psi3 nonzero.  psi2 and the partial derivative that decides singular
    reduction are formed once for all the primes, psi3 only when needed.
    """
    a1, a2, a3, a4, a6 = ainvs
    psi2 = 2 * y + a1 * x + a3
    dx = 3 * x * x + 2 * a2 * x + a4 - a1 * y
    psi3 = None
    lams = []
    for p, N in primes:
        v2 = _valuation(psi2, p)
        if v2 <= 0 or _valuation(dx, p) <= 0:
            lams.append((p, Fraction(max(0, -_valuation(x, p)), 2)))
            continue
        if c4 % p:
            n = min(Fraction(v2), Fraction(N, 2))
            lams.append((p, -n * (N - n) / (2 * N)))
            continue
        if psi3 is None:
            b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
            b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
            psi3 = 3 * x**4 + b2 * x**3 + 3 * b4 * x * x + 3 * b6 * x + b8
        v3 = _valuation(psi3, p)
        lams.append((p, Fraction(-v2, 3) if v3 >= 3 * v2 else Fraction(-v3, 8)))
    return lams


def _is_torsion(curve_int: RationalCurve, pt: CurvePoint) -> bool:
    """Exact torsion test on an integral short model.

    A torsion point there is integral (Nagell-Lutz) and of order at most 12
    (Mazur), so kP is walked by the group law while it stays integral, for
    k <= 12: O means torsion, a non-integral multiple means not.
    """
    running = pt
    for _ in range(_MAX_TORSION_ORDER):
        if running.is_identity:
            return True
        if running.x.denominator != 1:
            return False
        running = ec_core.add(curve_int, running, pt, _checked=True)
    return False


def canonical_height_local(curve: RationalCurve, pt: CurvePoint,
                           precision_bits: int = DEFAULT_PRECISION) -> HeightValue:
    """hhat(P) = lambda_inf(P) + sum_p lambda_p(P), evaluated at P itself.

    lambda_inf is `_lambda_archimedean` at x(P) on the integral short model,
    which carries (1/12) log|Delta| of that model.  A prime p not dividing
    Delta gives (1/2) v_p(den x(P)) log p.  Each p | Delta gives `_lambda_ps`
    on the global minimal model (`ec_core.minimal_model`); the scaling u to
    that model, with Delta = u^12 Delta', enters once, as -log u, in place of
    the (1/12) log|Delta|_p terms, which cancel by the product formula.
    Every term but lambda_inf's lattice constant (1/12) log|Delta / q| is a
    rational multiple of the log of a rational, so one mp.log sums them
    (`_log_of_product`).
    References: Silverman, "Computing heights on elliptic curves" (Math. Comp.
    51, 1988); Cohen, GTM 138, Algorithms 7.1.3 and 7.5.7.  A torsion point,
    decided exactly first (`_is_torsion`), has height 0.
    """
    ec_core._require_on_curve(curve, pt)
    if pt.is_identity:
        return HeightValue(mp.mpf(0), precision_bits, "local_decomposition")
    cu, pu, _ = ec_core.integral_model(curve, pt)
    if _is_torsion(cu, pu):
        return HeightValue(mp.mpf(0), precision_bits, "local_decomposition")
    ainvs, u, c4, primes = _reduction_data(int(cu.a), int(cu.b))
    a1, a2, a3 = ainvs[:3]
    x = pu.x / (u * u) - Fraction(a1 * a1 + 4 * a2, 12)
    y = pu.y / u**3 - (a1 * x + a3) / 2
    den = pu.x.denominator
    wp, value, terms = _archimedean_terms(cu, pu.x, precision_bits)
    for p, lam in _lambda_ps(ainvs, c4, primes, x, y):
        terms.append((p, 1, lam))
        while den % p == 0:
            den //= p
    terms += [(den, 1, Fraction(1, 2)), (1, u, Fraction(1))]
    with mp.workprec(wp):
        value += _log_of_product(terms)
    with mp.workprec(precision_bits + 64):
        return HeightValue(+value, precision_bits, "local_decomposition")
