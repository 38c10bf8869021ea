"""Real-analytic bridge: real period, exponential map, elliptic log, circle metric.

The exponential map is z -> (wp(z), wp'(z)/2) for the Weierstrass wp of the
curve lattice (g2 = -4a, g3 = -4b), restricted to the real line.  Its kernel
is Z*omega.  Every archimedean number comes from one chain of Gauss's
arithmetic-geometric mean, (a_0, b_0) = (sqrt(e1 - e3), sqrt(e1 - e2)),
a_{k+1} = (a_k + b_k)/2, b_{k+1} = sqrt(a_k b_k), which converges
quadratically to a_N (Cohen, GTM 138, 7.4.7-7.4.8):

    omega = pi / a_N.

elliptic_log(x, y) carries s^2 = x - e1 forward along the chain
(Gauss-Landen), ending in atan(a_N / s_N) / a_N; it is reflected when y > 0.
exp_E walks the same steps backwards from s_N = a_N cot(a_N z), each step
rational and free of cancellation, and reads x = e1 + s^2 and y off the
roots (Cremona and Thongjunthug, J. Number Theory 133, 2013).  A second AGM
gives the imaginary half-period and so the real nome q of the lattice, and
-log|q| in closed form, which heights uses for the archimedean local height,
with its constant term (1/12) log|Delta / q|.  All of it is computed once
per (a, b, precision) in one cached lattice record.

On one-real-root curves e2, e3 form a complex conjugate pair, so the first
AGM step is real and is taken in closed form from beta = sqrt(3 e1^2 + a);
the chain starts after it.

The kernel runs on Python ints, not on mpf: every number of the chain and
of the walks is an integer n standing for n / 2^S.  The roots are exact:
the cubic, scaled to integer coefficients, has its real roots isolated by
bisection on its monotone pieces and refined by Newton in integers, and the
conjugate pair of the one-root route follows from e1 and the exact
discriminant.  The guard bits come from the root separation: every root
difference is at least sqrt|D| / (2R)^2 for a root bound R (Mahler's
argument for a cubic), and the smallest AGM constant is about (sep/R)^2 of
the largest, so the lattice scale S carries prec + 52 bits plus twice
log2(R / sep).  A walk rescales its constants by 2^k so that its s^2 keeps
as many bits as the largest constant; both walks are homogeneous of degree
one in (a^2, b^2, s^2), so that is exact.  The ends of the walks are
integers too, in relative precision (a mantissa and an exponent, not one
fixed scale): exp_E starts from cos and sin of phi = a_N z by a Taylor
series with angle halving, on the complement pi/2 - phi past pi/4 (pi from
libmp.pi_fixed), and elliptic_log ends in atan2(a_N, s_N) from the exact
ratio a_N^2 / s_N^2 of the walk's integers, by argument halving and a
Taylor series; x - e1 is taken in integers from x as an exact rational.
mpf enters only at the boundaries: the lattice's mpf fields, an argument
that is not an mpf already, and the returned values.  exp_E reduces t mod
omega, applies the pole guard and the flip, and forms phi = a_N z on the
exact dyadic mantissas of t, omega and a_N; x and y come out of the walk's
integers (y by math.isqrt) with one rounding each.  elliptic_log takes t =
(omega - atan2(a_N, s_N) / a_N) mod omega in integers, also with one
rounding.  As the real nome q nears +-1 the q-series of the archimedean
local height cancel, and the chain, q and the roots' mpf values carry about
6 / |log q| more bits for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

import mpmath as mp
from mpmath import libmp

from .ec_core import CurvePoint, RationalCurve, on_curve, on_identity_component
from .errors import DEFAULT_PRECISION, ComponentError, PoleProximityError, ValidationError

# guard bits of the integer trigonometric kernels over the working precision
_TRIG_GUARD = 20

PointLike = Union[CurvePoint, Tuple, None]


@dataclass(frozen=True)
class RealPeriod:
    omega: mp.mpf
    precision_bits: int
    route: str  # 'three-real-roots' | 'one-real-root'


@dataclass(frozen=True)
class EllipticLogValue:
    """Elliptic log representative reduced into [0, omega)."""

    t: mp.mpf
    omega: mp.mpf
    precision_bits: int

    def __float__(self) -> float:
        return float(self.t)


def _mpf_of(value, prec: int) -> mp.mpf:
    """value as an mpf: an mpf is kept exactly, anything else converted at prec bits."""
    if isinstance(value, EllipticLogValue):
        return value.t
    if isinstance(value, mp.mpf):
        return value
    with mp.workprec(prec):
        return mp.mpf(value)


@dataclass(frozen=True)
class _Lattice:
    """Period lattice of y^2 = x^3 + a x + b at one precision, built once.

    e1 is the real root on the identity component; on the one-real-root
    route the other two, e2 and e3, are a complex conjugate pair.  q =
    exp(2 pi i tau) is the real nome of the lattice Z omega + Z omega tau,
    negative on the one-real-root route, and lam0 = (1/12) log|Delta / q| is
    the constant term of the archimedean local height, from -log|q| =
    2 pi omega' / omega.  e1, q, lam0 and a_end carry prec + 48 + q_guard
    bits, for the q-series of that height.

    The integer fields stand for their value times 2^scale.  (ga2, gb2) is
    the first Gauss pair squared, (e1 - e3, e1 - e2) or, after the complex
    step, (ga^2, beta); steps holds (a_k^2, b_k^2, a_k b_k, a_(k+1)^2) for
    each AGM step after it, and a_end = a_N, with omega = pi / a_N; a2_end
    = a_N^2 and e1_int = e1 are integers too.  On the one-real-root route
    e1x3 = 3 e1 and v4 = 4 Im(e2)^2 give |x - e3| of the complex step.  top
    is the bit length of the largest constant; every walk rescales so that
    its s^2 has as many bits.
    """

    e1: mp.mpf
    route: str  # 'three-real-roots' | 'one-real-root'
    omega: mp.mpf
    q: mp.mpf
    lam0: mp.mpf
    q_guard: int
    a_end: mp.mpf
    scale: int
    top: int
    ga2: int
    gb2: int
    steps: Tuple[Tuple[int, int, int, int], ...]
    e1x3: int
    v4: int
    a2_end: int
    e1_int: int


def _div_round(n: int, d: int) -> int:
    """n / d rounded to the nearest integer, for d > 0."""
    return (2 * n + d) // (2 * d)


def _mpf_at(n: int, scale: int) -> mp.mpf:
    """The mpf n / 2^scale, rounded to the working precision."""
    return mp.ldexp(mp.mpf(n), -scale)


def _rounded(n: int, e: int, prec: int) -> mp.mpf:
    """The mpf n 2^e rounded to nearest at prec bits: one rounding."""
    return mp.make_mpf(libmp.from_man_exp(n, e, prec, libmp.round_nearest))


def _sqrt_rounded(n: int, e: int, prec: int, sign: int) -> mp.mpf:
    """sign sqrt(n 2^-e) for n >= 0 and sign +-1, correctly rounded to prec bits.

    The integer root carries at least prec + 2 bits; a sticky last bit
    stands for an inexact remainder, so that its one rounding is the correct
    rounding of the root.
    """
    j = max(0, 2 * prec + 4 - n.bit_length())
    j += (e + j) & 1
    r = math.isqrt(n << j)
    if r * r != n << j:
        r |= 1
    return _rounded(sign * r, -((e + j) // 2), prec)


def _man_exp(v: mp.mpf, prec: int = 0) -> Tuple[int, int]:
    """(m, e) with v = m 2^e for a finite mpf v: exactly, or rounded to prec bits."""
    sign, man, exp, _ = libmp.mpf_pos(v._mpf_, prec, libmp.round_nearest) if prec else v._mpf_
    if not man and v:
        raise ValidationError(f"{v} is not finite")
    return (-man if sign else man), exp


def _shift(n: int, k: int) -> int:
    return n << k if k >= 0 else n >> -k


def _agm_squares(a2: int, b2: int, bits):
    """Gauss AGM on squares at one integer scale, until |a - b| <= 2^(8 - bits) a.

    Returns (steps, a_N^2), steps holding (a_k^2, b_k^2, a_k b_k, a_(k+1)^2).
    Since a^2 - b^2 ~ 2a (a - b), the bound reads |a^2 - b^2| <= 2^(9 - bits) a^2.
    It is relative to the current term, not to a_0: when a_0 << b_0 the
    limit is far above a_0, and a bound scaled by a_0 would never be met.
    bits is capped 16 bits below the length of a^2, where the rounding of
    the integers lies, so math.inf runs the AGM to the last bit they carry.
    """
    steps = []
    ab = math.isqrt(a2 * b2)
    while abs(a2 - b2) > a2 >> max(0, min(bits, a2.bit_length() - 16) - 9):
        a2_next = (a2 + 2 * ab + b2 + 2) >> 2
        steps.append((a2, b2, ab, a2_next))
        a2, b2 = a2_next, ab
        ab = math.isqrt(a2 * b2)
    return tuple(steps), a2


def _cubic_real_roots(A: int, B: int, count: int, p: int, r: int):
    """floor(X 2^p) for the real roots X of X^3 + A X + B, in decreasing order.

    The cubic is monotone on (-inf, -c], [-c, c] and [c, inf), c = sqrt(-A/3);
    integer points inside each piece bracket its root by exact signs.  A root
    within 2^-p of +-c is missed, and then fewer than count roots come back.
    R = 2^(r + p) bounds every |X| 2^p.
    """
    Ap, Bp = A << 2 * p, B << 3 * p

    def g(y):
        return (y * y + Ap) * y + Bp

    R = 1 << (r + p)
    if Ap >= 0:
        pieces = [(-R, R, 1)]
    else:
        c = math.isqrt(-Ap // 3)  # c <= sqrt(-Ap/3) < c + 1
        pieces = [(c + 1, R, 1), (-c, c, -1), (-R, -c - 1, 1)]
    roots = []
    for lo, hi, sign in pieces:
        # sign * g increases on [lo, hi]: a root lies in [lo, hi) iff
        # sign * g(lo) <= 0 < sign * g(hi)
        if not sign * g(lo) <= 0 < sign * g(hi):
            continue
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if sign * g(mid) <= 0:
                lo = mid
            else:
                hi = mid
        roots.append(lo)
    return roots if len(roots) == count else None


def _newton_root(A: int, B: int, y: int, p: int, p_end: int, ls: int) -> int:
    """Refine y ~ X 2^p, within one unit of a simple root X, to the scale 2^p_end.

    Near X, Newton maps an error e to about |F''/2F'| e^2, and
    |F''/2F'| = |3X / ((X - X')(X - X''))| <= 2 / sep because
    3X = (X - X') + (X - X''); sep >= 2^-ls is the root separation.  So from
    scale p the next scale 2p - ls - 6 is again within a unit.  The result
    is certified by exact signs two units either side.
    """
    while True:
        Ap, Bp = A << 2 * p, B << 3 * p
        y -= ((y * y + Ap) * y + Bp) // (3 * y * y + Ap)
        if p == p_end:
            break
        p_next = min(p_end, 2 * p - ls - 6)
        y <<= p_next - p
        p = p_next
    below, above = ((y + e) ** 2 * (y + e) + Ap * (y + e) + Bp for e in (-2, 2))
    if (below < 0) == (above < 0):
        raise ValidationError("cubic root refinement failed")
    return y


def _lattice_roots(a_q: Fraction, b_q: Fraction, three_roots: bool, prec: int):
    """(scale, roots): the real roots, decreasing, as integers over 2^scale.

    x^3 + a x + b has the roots X/d of X^3 + A X + B, d the common
    denominator.  Fujiwara's bound puts every |X| below R = 2^r, so every
    difference is at most 2R and |D| = prod (X_i - X_j)^2 makes the smallest
    at least sep = sqrt|D| / (2R)^2 >= 2^-ls.  The scale carries prec + 52
    bits of the largest AGM constant plus 2 log2(R / sep) guard bits.
    """
    d = math.lcm(a_q.denominator, b_q.denominator)
    A, B = int(a_q * d**2), int(b_q * d**3)
    r = 1 + max(-(-abs(A).bit_length() // 2), -(-abs(B).bit_length() // 3))
    ls = 2 * r + 2 - (abs(4 * A**3 + 27 * B**2).bit_length() - 1) // 2
    guard = max(0, r + ls)
    scale = max(0, prec + 52 + 2 * guard - r + d.bit_length())
    count = 3 if three_roots else 1
    p = max(0, ls + 8)
    roots = None
    for p_iso in range(p, p + 257, 8):
        roots = _cubic_real_roots(A, B, count, p_iso, r)
        if roots is not None:
            break
    if roots is None:
        raise ValidationError("real roots of the cubic were not isolated")
    p_end = max(p_iso, scale + d.bit_length() + 2)
    unit = d << (p_end - scale)
    return scale, [_div_round(_newton_root(A, B, y, p_iso, p_end, ls), unit) for y in roots]


@lru_cache(maxsize=64)
def _lattice_cached(a_str: str, b_str: str, prec: int) -> _Lattice:
    """The lattice record of y^2 = x^3 + a x + b at prec bits.

    The roots come exact from _lattice_roots, as integers over 2^scale
    with the guard bits of the root separation.  The Gauss chain and the
    complementary AGM run on their squares with math.isqrt, from
    (e1 - e3, e1 - e2), or on the one-root route from the closed-form
    complex step.  The mpf fields are read off the integers at the end.
    """
    a_q, b_q = Fraction(a_str), Fraction(b_str)
    # the sign of the exact discriminant -16(4a^3 + 27b^2) decides the route
    disc = 4 * a_q**3 + 27 * b_q**2
    three_roots = disc < 0
    S, roots = _lattice_roots(a_q, b_q, three_roots, prec)
    E1 = roots[0]
    e1x3 = v4 = 0
    if three_roots:
        E1, E2, E3 = roots
        if not E1 > E2 > E3:
            raise ValidationError("period computation lost reality")
        ga2, gb2 = E1 - E3, E1 - E2
        dual = (E1 - E3, E2 - E3)
        sign = 1
    else:
        # beta^2 = |e1 - e2|^2 = 3 e1^2 + a = (3 e1 / 2)^2 + Im(e2)^2 loses
        # under a bit to cancellation.  Im(e2)^2 = beta^2 - (3 e1 / 2)^2 would
        # lose them all near a node, so it comes from the discriminant:
        # prod (e_i - e_j)^2 = -4 Im(e2)^2 beta^4 = -(4a^3 + 27b^2)
        beta2 = _div_round(3 * E1 * E1 * a_q.denominator + (a_q.numerator << 2 * S),
                           a_q.denominator << S)
        if beta2 <= 0:
            raise ValidationError("period computation lost reality")
        beta = math.isqrt(beta2 << S)
        v4 = _div_round(disc.numerator << 3 * S, disc.denominator * beta2 * beta2)
        # 2 beta + 3 |e1| is free of cancellation; near a node the other of
        # 2 beta +- 3 e1 is not, so it comes from their product 4 Im(e2)^2
        e1x3 = 3 * E1
        far = 2 * beta + abs(e1x3)
        near = _div_round(v4 << S, far)
        if near <= 0:
            raise ValidationError("period computation lost reality")
        plus, minus = (far, near) if E1 >= 0 else (near, far)  # 2 beta + 3 e1, 2 beta - 3 e1
        # one AGM step of (sqrt(e1 - e3), sqrt(e1 - e2)), a conjugate pair:
        # (ga, gb) = (sqrt(2 beta + 3 e1) / 2, sqrt(beta))
        ga2, gb2 = (plus + 2) >> 2, beta
        dual = (4 * beta, minus)
        sign = -1
    _, dual_end = _agm_squares(*dual, math.inf)
    # -log|q| = 2 pi omega' / omega = 2 pi a_N / a'_N for the limit a'_N of
    # the complementary AGM.  The q-series of heights lose about 6 / tau bits
    # as |q| = exp(-tau) -> 1: they cancel to prod (1 - q^n)^3 ~
    # exp(-pi^2 / (2 tau)).  So the chain, q and the roots carry that many
    # bits more than prec + 48.
    tau = 2 * math.pi * math.sqrt(_agm_squares(ga2, gb2, 32)[1] / dual_end)
    q_guard = math.ceil(6 / tau)
    steps, a2_end = _agm_squares(ga2, gb2, prec + 48 + q_guard)
    with mp.workprec(prec + 48 + q_guard):
        e1 = _mpf_at(E1, S)
        a_end = mp.sqrt(_mpf_at(a2_end, S))
        omega = mp.pi / a_end
        tau = 2 * mp.pi * mp.sqrt(mp.mpf(a2_end) / dual_end)  # -log|q|
        q = sign * mp.exp(-tau)
        lam0 = (mp.log(16 * abs(mp.mpf(disc.numerator) / disc.denominator)) + tau) / 12
    with mp.workprec(prec + 32):
        omega = +omega
    return _Lattice(e1=e1, route="three-real-roots" if three_roots
                    else "one-real-root", omega=omega, q=q, lam0=lam0, q_guard=q_guard,
                    a_end=a_end, scale=S,
                    top=max(ga2, gb2).bit_length(), ga2=ga2, gb2=gb2, steps=steps,
                    e1x3=e1x3, v4=v4, a2_end=a2_end, e1_int=E1)


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _lattice(curve: RationalCurve, prec: int) -> _Lattice:
    return _lattice_cached(_frac_str(curve.a), _frac_str(curve.b), prec)


def real_period(curve: RationalCurve, precision_bits: int = DEFAULT_PRECISION) -> RealPeriod:
    """Generator omega of the kernel of exp_E, omega = int_{e1}^inf dx/sqrt(x^3+ax+b).

    Evaluated as pi / AGM(sqrt(e1 - e3), sqrt(e1 - e2)).  exp_E(omega/2) is
    the 2-torsion point (e1, 0), so the kernel really is Z*omega.
    """
    lat = _lattice(curve, precision_bits)
    return RealPeriod(omega=lat.omega, precision_bits=precision_bits, route=lat.route)


def _ratio(n: int, d: int, t: int) -> int:
    """floor(n 2^t / d) for d > 0."""
    return (n << t) // d if t >= 0 else n // (d << -t)


def _halving_depth(w: int) -> int:
    """h such that the series of _cos_sinc and _atan run below 2^-h at w bits.

    Each halving costs a few products (an isqrt in _atan) and saves about
    w / 2h^2 series terms; sqrt(w) / 4 + 2 timed about fastest among h =
    3..24 at w = 148 to 2100 on both kernels.  _atan sums its series two
    terms per product, and there two halvings fewer timed 5-12% faster.
    """
    return math.isqrt(w) // 4 + 2


def _cos_sinc(m: int, e: int, w: int) -> Tuple[int, int]:
    """(C, G) over 2^w with cos x = C / 2^w and sin x = x G / 2^w, x = m 2^e.

    For 0 < x <= 1.  x is halved r times to y < 2^-h, where the Taylor
    series of cos y and sinc y = sin y / y need about w / 2h terms, and
    doubled back by cos 2y = 1 - 2 y^2 sinc(y)^2 and sinc 2y = sinc(y)
    cos(y).  Both stay near 1, so the fixed scale 2^w is relative for them,
    and sin x = x sinc x keeps the relative precision of x however small it
    is.  y^2 is read off m at every level, not doubled up from the smallest;
    m is first cut to w + 16 bits, all the relative precision the result
    can keep.
    """
    cut = m.bit_length() - w - 16
    if cut > 0:
        m, e = m >> cut, e + cut
    one = 1 << w
    r = max(0, m.bit_length() + e + _halving_depth(w))
    mm = m * m
    y2 = _shift(mm, 2 * (e - r) + w)
    cos = sinc = u = one
    j = 0
    while True:
        u = (u // (2 * j + 1)) * y2 >> w  # y^(2j+2) / (2j+1)!
        j += 1
        u //= 2 * j  # y^2j / (2j)!
        if not u:
            break
        v = u // (2 * j + 1)
        if j & 1:
            cos, sinc = cos - u, sinc - v
        else:
            cos, sinc = cos + u, sinc + v
    for i in range(r):
        cos, sinc = one - (y2 * sinc * sinc >> (2 * w - 1)), sinc * cos >> w
        y2 = _shift(mm, 2 * (e - r + i + 1) + w)
    return cos, sinc


def _cos_sin(m: int, e: int, w: int) -> Tuple[int, int, int, int]:
    """(c, ce, s, se) with cos x = c 2^ce and sin x = s 2^se, for x = m 2^e.

    For 0 < x <= pi/2 (rounding may put x a little past pi/2; cos x is then
    negative), both to about 2^-w relative.  Past pi/4 the kernel runs on
    the complement psi = pi/2 - x, taken in integers with pi from
    libmp.pi_fixed at as many bits as psi needs to keep w of its own, and
    cos x = sin psi, sin x = cos psi.
    """
    if m.bit_length() + e >= 0:  # x >= 1/2: past pi/4?
        F = max(w, -e) + 8
        while True:
            x = _shift(m, e + F)
            psi = (libmp.pi_fixed(F + 8) >> 9) - x  # (pi/2 - x) 2^F, to a unit
            if abs(psi) > x or abs(psi).bit_length() >= w + 2:
                break
            F += w + 10 - abs(psi).bit_length()
        if abs(psi) <= x:
            cos, sinc = _cos_sinc(abs(psi), -F, w)
            return psi * sinc, -F - w, cos, -w
    cos, sinc = _cos_sinc(m, e, w)
    return cos, -w, m * sinc, e - w


def _atan(m: int, e: int, w: int) -> Tuple[int, int]:
    """(n, f) with atan x = n 2^f to about 2^-w relative, for x = m 2^e in (0, 1].

    Above 2^-h, x is reduced r times by atan x = 2 atan(x / (1 + sqrt(1 +
    x^2))), each step at least halving it, in fixed point at 2^(w + h)
    with one isqrt; then atan y = y sum_j (-1)^j y^2j / (2j + 1), which
    needs about w / 2h terms, summed two at a time in powers of y^4.  Below
    2^-h the series takes x as it is, so a tiny x keeps its relative
    precision.
    """
    h = _halving_depth(w) - 2
    wh = w + h
    one = 1 << wh
    r = 0
    if m.bit_length() + e > -h:
        m, e = _shift(m, e + wh), -wh
        while m >> (wh - h):
            m = (m << wh) // (one + math.isqrt((one << wh) + m * m))
            r += 1
    y2 = _shift(m * m, 2 * e + wh)
    y4 = y2 * y2 >> wh
    # sum_j y^4j (1 / (4j + 1) - y^2 / (4j + 3))
    even = odd = 0
    term, j = one, 1
    while term:
        even += term // j
        odd += term // (j + 2)
        term = term * y4 >> wh
        j += 4
    return m * (even - (odd * y2 >> wh)), e + r - wh


def _walk_scale(lat: _Lattice, s2: mp.mpf):
    """(k, n): s2 = n / 2^(scale + k), with n as many bits long as lat.top."""
    if not s2:
        return 0, 0
    _, man, exp, bc = s2._mpf_
    return lat.top - lat.scale - exp - bc, _shift(man, lat.top - bc)


def _x_walk_start(lat: _Lattice, n: int, d: int, prec: int, rounded: bool):
    """_walk_scale of x - e1 for x = n / d, d > 0, in integers.

    x is e1 to rounding when it lies below e1 by at most the slack: 2^-prec,
    one unit 2^-scale of e1, and, when x was rounded to prec + 48 bits,
    |x| 2^-(prec + 47).  The slack scales with the roots, so 2-torsion on a
    curve with large roots comes back as e1.  Below e1 by more than the
    slack plus 2^-(prec/4), x is off the identity component; in between,
    the log turns complex.
    """
    S = lat.scale
    num = (n << S) - lat.e1_int * d  # (x - e1) d 2^S
    if num <= 0:
        slack = d + _shift(d, S - prec) + (_shift(abs(n), S - prec - 47) if rounded else 0)
        if -num > slack + _shift(d, S + (-prec // 4)):
            raise ComponentError("x below the largest real root: not on identity component")
        if -num > slack:
            raise ValidationError("elliptic log lost reality")
        return 0, 0
    k = lat.top - num.bit_length() + d.bit_length()
    return k, _ratio(num, d, k)


def _landen_walk(lat: _Lattice, k: int, s: int):
    """(k, s_N^2) at the end of the Gauss-Landen walk from (k, s^2); see _landen_log.

    s^2 and s_N^2 are integers over 2^(lat.scale + k), rescaled by 2^k so
    that s^2 keeps lat.top bits however small or large it is; each step
    takes one isqrt.
    """
    if lat.route == "one-real-root":
        # 2r = 2|x - e3| = sqrt((2 s^2 + 3 e1)^2 + 4 Im(e2)^2)
        t = 2 * s + _shift(lat.e1x3, k)
        r2 = math.isqrt(t * t + _shift(lat.v4, lat.scale + 2 * k))
        d = s - _shift(lat.gb2, k)
        s = (2 * d + r2) >> 2 if d >= 0 else 4 * s * _shift(lat.ga2, k) // (r2 - 2 * d)
    for a2, b2, ab, a2_next in (lat.steps if not k else _shifted_steps(lat, k)):
        r = math.isqrt((s + a2) * (s + b2))
        d = s - ab
        s = (d + r) >> 1 if d >= 0 else 2 * s * a2_next // (r - d)
    return k, s


def _shifted_steps(lat: _Lattice, k: int):
    """lat.steps with every constant times 2^k, rounded down."""
    if k > 0:
        return [(a2 << k, b2 << k, ab << k, a2n << k) for a2, b2, ab, a2n in lat.steps]
    return [(a2 >> -k, b2 >> -k, ab >> -k, a2n >> -k) for a2, b2, ab, a2n in lat.steps]


def _atan_sqrt(n: int, d: int, t: int, w: int) -> Tuple[int, int]:
    """(m, f) with atan(rho) = m 2^f in (0, pi/2], rho^2 = n 2^t / d, n > 0, d >= 0.

    rho^2 is exact, so the angle is atan(rho) when rho < 1, relative to rho
    however small, and pi/2 - atan(1 / rho) otherwise; d = 0 gives pi/2.
    """
    if not d:
        return libmp.pi_fixed(w), -w - 1
    if _ratio(n, d, t) < 1:  # rho < 1
        L = w - (n.bit_length() + t - d.bit_length()) // 2 + 1
        return _atan(math.isqrt(_ratio(n, d, t + 2 * L)), -L, w)
    L = w - (d.bit_length() - n.bit_length() - t) // 2 + 1
    m, f = _atan(math.isqrt(_ratio(d, n, 2 * L - t)), -L, w)
    return (libmp.pi_fixed(w + 8) >> 9) - _shift(m, f + w), -w


def _walk_angle(lat: _Lattice, k: int, s: int, w: int) -> Tuple[int, int]:
    """(m, f) with atan2(a_N, s_N) = m 2^f, from the start (k, s) of a Landen walk.

    The angle is a_N z for z in (0, omega/2], from rho^2 = a_N^2 / s_N^2 =
    a2_end 2^k / s_N^2 in the walk's own integers, to about 2^-w relative.
    """
    k, s = _landen_walk(lat, k, s)
    return _atan_sqrt(lat.a2_end, s, k, w)


def _landen_log(lat: _Lattice, s2: mp.mpf) -> mp.mpf:
    """z in (0, omega/2] with wp(z) = e1 + s2, for s2 >= 0, by Gauss-Landen steps.

    With a^2 = e1 - e3 and b^2 = e1 - e2,
        z = int_s^inf dw / sqrt((w^2 + a^2)(w^2 + b^2)),
    which the step (a, b, s^2) -> ((a+b)/2, sqrt(ab), (s^2 - ab + r)/2),
    r = sqrt((s^2 + a^2)(s^2 + b^2)), leaves unchanged: it is the Gauss
    map of the curve followed by halving.  Once a = b, z = atan(a/s)/a.
    Where s^2 < ab the new s^2 is taken as 2 s^2 a'^2 / (r + ab - s^2),
    the same number without cancellation.  On the one-real-root route the
    complex first step has ab = beta and r = |x - e3|.  The steps run on
    integers (_landen_walk), and so does the end angle atan2(a_N, s_N)
    (_walk_angle); only the division by a_N is an mpf.
    """
    m, f = _walk_angle(lat, *_walk_scale(lat, s2), mp.mp.prec + _TRIG_GUARD)
    return _mpf_at(m, -f) / lat.a_end


def _cot2_walk_start(lat: _Lattice, m: int, e: int, w: int):
    """(k, n): s_N^2 = a_N^2 cot^2 phi = n / 2^(scale + k), n of about lat.top bits.

    phi = m 2^e in (0, pi/2] is exact.
    """
    c, ce, s, se = _cos_sin(m, e, w)
    num, den = lat.a2_end * c * c, s * s
    t = lat.top + den.bit_length() - num.bit_length()
    return t - 2 * (ce - se), _ratio(num, den, t)


def exp_E(curve: RationalCurve, t, precision_bits: int = DEFAULT_PRECISION):
    """Numeric point on the identity component at elliptic-log coordinate t.

    Returns an (x, y) pair of mpf, with y <= 0 on (0, omega/2].  Raises
    PoleProximityError when t is within 2^(-precision/4) omega of 0 mod
    omega, a guard relative to the period so that it scales with the curve;
    callers treat that as identity.

    For z = t reduced into (0, omega/2], the Landen walk of _landen_log runs
    backwards from s_N = a_N cot(phi), phi = a_N z in (0, pi/2], with cos
    phi and sin phi from the integer kernel _cos_sin: relative to sin phi
    next to the pole, and past pi/4 on the complement pi/2 - phi, so that
    cos phi keeps its relative precision next to 2-torsion.  Solving one
    forward step for the old s^2 gives
        s_k^2 = s_{k+1}^2 (s_{k+1}^2 + a_k b_k) / (s_{k+1}^2 + a_{k+1}^2),
    a ratio of sums of positive terms; on the one-real-root route the
    complex first step is undone the same way with beta = gb^2 for a_k b_k
    and ga^2 for a_{k+1}^2.  Then x = e1 + s^2 and
    y = -sqrt(s^2 (x - e2)(x - e3)), which is -s |x - e3| when e2, e3 are
    conjugate.  The walk runs on the integers of the lattice, rescaled by
    s_N^2 as in _landen_log: near 2-torsion s^2 is tiny, and y keeps its
    relative precision.

    Up to the walk's start everything is exact: t mod omega, the pole guard,
    the flip and phi = a_N z are taken on the dyadic mantissas of t, omega
    and a_N.  y^2 is exact in the walk's integers, so x and y are each
    rounded once, to prec + 48 bits.
    """
    prec = precision_bits
    lat = _lattice(curve, prec)
    tm, te = _man_exp(_mpf_of(t, prec + 48))
    wm, we = _man_exp(lat.omega)
    e = min(te, we)
    W = wm << (we - e)
    r = (tm << (te - e)) % W  # t mod omega, over 2^-e
    z = min(r, W - r)  # in (0, omega/2] once past the guard
    if (z << (prec + 3) // 4) < W:
        with mp.workprec(prec + 48):
            raise PoleProximityError(f"t = {mp.nstr(mp.ldexp(r, e), 10)} too close to the lattice")
    am, ae = _man_exp(lat.a_end)
    k, s = _cot2_walk_start(lat, z * am, e + ae, prec + 48 + _TRIG_GUARD)
    for a2, b2, ab, a2_next in reversed(lat.steps if not k else _shifted_steps(lat, k)):
        s = s * (s + ab) // (s + a2_next)
    S = lat.scale + k
    if lat.route == "one-real-root":
        s = s * (s + _shift(lat.gb2, k)) // (s + _shift(lat.ga2, k))
        # y^2 = s^2 |x - e3|^2 = s^2 ((2 s^2 + 3 e1)^2 + 4 Im(e2)^2) / 4
        t2 = 2 * s + _shift(lat.e1x3, k)
        y2, ye = s * (t2 * t2 + _shift(lat.v4, S + k)), 3 * S + 2
    else:
        y2, ye = s * (s + _shift(lat.ga2, k)) * (s + _shift(lat.gb2, k)), 3 * S
    x = _rounded(_shift(lat.e1_int, k) + s, -S, prec + 48)
    return x, _sqrt_rounded(y2, ye, prec + 48, 1 if 2 * r > W else -1)


def _exact(v, prec: int = 0) -> Tuple[int, int]:
    """(n, d) with v = n / d, d > 0, for a Fraction or an mpf (d a power of 2).

    Exact, or with an mpf first rounded to prec bits.
    """
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    n, e = _man_exp(v, prec)
    return (n << e, 1) if e >= 0 else (n, 1 << -e)


def elliptic_log(curve: RationalCurve, pt: PointLike,
                 precision_bits: int = DEFAULT_PRECISION) -> EllipticLogValue:
    """Unique t in [0, omega) with exp_E(t) = pt.

    Accepts an exact CurvePoint on the identity component, a numeric
    (x, y) pair, or None / the identity point (t = 0).  x - e1, the start
    of the Landen walk, is taken in integers from x as an exact rational
    (a numeric x is one once rounded to prec + 48 bits); x within rounding
    of e1 is e1 (_x_walk_start).
    """
    prec = precision_bits
    lat = _lattice(curve, prec)
    om = lat.omega
    if pt is None or (isinstance(pt, CurvePoint) and pt.is_identity):
        return EllipticLogValue(t=mp.mpf(0), omega=om, precision_bits=prec)
    if isinstance(pt, CurvePoint):
        if not on_curve(curve, pt):
            raise ValidationError(f"point {pt} is not on the curve")
        if not on_identity_component(curve, pt):
            raise ComponentError(f"point {pt} lies on the non-identity component")
        n, d = pt.x.numerator, pt.x.denominator
        upper, rounded = pt.y > 0, False
    else:
        x, y = (_mpf_of(v, prec + 48) for v in pt)
        n, d = _exact(x, prec + 48)
        upper, rounded = _man_exp(y)[0] > 0, True
    k, s = _x_walk_start(lat, n, d, prec, rounded)
    # u = atan2(a_N, s_N) / a_N and t = (omega - u) mod omega over 2^-F, with
    # F such that u keeps w bits, and one rounding
    w = prec + 48 + _TRIG_GUARD
    m, f = _walk_angle(lat, k, s, w)
    am, ae = _man_exp(lat.a_end)
    wm, we = _man_exp(om)
    F = max(-we, w + am.bit_length() - m.bit_length() - f + ae)
    u = _ratio(m, am, f - ae + F)
    W = wm << (we + F)
    t = _rounded((W - u if upper else u) % W, -F, prec + 48)
    return EllipticLogValue(t=t, omega=om, precision_bits=prec)


def d_E(curve: RationalCurve, t1, t2, precision_bits: int = DEFAULT_PRECISION) -> mp.mpf:
    """Flat circle metric min_p |t1 - t2 + p*omega|; symmetric, <= omega/2."""
    om = real_period(curve, precision_bits).omega
    with mp.workprec(precision_bits + 32):
        r = (mp.mpf(_mpf_of(t1, mp.mp.prec)) - mp.mpf(_mpf_of(t2, mp.mp.prec))) % om
        return +min(r, om - r)
