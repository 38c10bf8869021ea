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
gives the imaginary half-period and so the real nome q of the lattice, which
heights uses for the archimedean local height.  All of it is computed once
per (a, b, precision) in one cached lattice record.

On one-real-root curves e2, e3 form a complex conjugate pair, so the first
AGM step is real and is taken in closed form from beta = sqrt(3 e1^2 + a);
the chain starts after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

import mpmath as mp

from .ec_core import CurvePoint, RationalCurve, on_curve, on_identity_component
from .errors import ComponentError, PoleProximityError, ValidationError

DEFAULT_PRECISION = 256

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


def _as_t(value) -> mp.mpf:
    if isinstance(value, EllipticLogValue):
        return value.t
    return mp.mpf(value)


@dataclass(frozen=True)
class _Lattice:
    """Period lattice of y^2 = x^3 + a x + b at one precision, built once.

    e1 is the real root on the identity component; on the one-real-root
    route e2 and e3 are the complex conjugate pair.  chain holds the Gauss
    AGM pairs (a_k, b_k) from the real pair (ga, gb) = chain[0] to the last
    a_N, and omega = pi / a_N; every Landen walk runs along it.
    q = exp(2 pi i tau) is the real nome of the lattice Z omega + Z omega tau,
    negative on the one-real-root route.
    """

    e1: mp.mpf
    e2: Union[mp.mpf, mp.mpc]
    e3: Union[mp.mpf, mp.mpc]
    route: str  # 'three-real-roots' | 'one-real-root'
    omega: mp.mpf
    q: mp.mpf
    chain: Tuple[Tuple[mp.mpf, mp.mpf], ...]


def _agm_chain(a, b) -> Tuple[Tuple[mp.mpf, mp.mpf], ...]:
    """Gauss AGM pairs from (a, b) until |a_N - b_N| <= 2^(8 - prec) a_N.

    The bound is relative to the current term, not to a: when a << b the
    limit is far above a, and a bound scaled by a would sit below one ulp
    of the limit and never be met.
    """
    chain = [(a, b)]
    while abs(a - b) > mp.ldexp(a, 8 - mp.mp.prec):
        a, b = (a + b) / 2, mp.sqrt(a * b)
        chain.append((a, b))
    return tuple(chain)


@lru_cache(maxsize=64)
def _lattice_cached(a_str: str, b_str: str, prec: int) -> _Lattice:
    a_q, b_q = Fraction(a_str), Fraction(b_str)
    # the sign of the exact discriminant -16(4a^3 + 27b^2) decides the route
    three_roots = 4 * a_q**3 + 27 * b_q**2 < 0
    with mp.workprec(prec + 48):
        a, b = mp.mpf(a_str), mp.mpf(b_str)
        roots = mp.polyroots([mp.mpf(1), mp.mpf(0), a, b], maxsteps=200, extraprec=64)
        if three_roots:
            e1, e2, e3 = sorted((mp.re(r) for r in roots), reverse=True)
            if not e1 > e2 > e3:
                raise ValidationError("period computation lost reality")
            ga, gb = mp.sqrt(e1 - e3), mp.sqrt(e1 - e2)
            omega2 = mp.pi / mp.agm(ga, mp.sqrt(e2 - e3))
            sign = 1
        else:
            # e1 is the root nearest the real axis; e2 takes Im > 0
            e1, e2, e3 = sorted(roots, key=lambda r: (abs(mp.im(r)), -mp.im(r)))
            e1 = mp.re(e1)
            beta = mp.sqrt(3 * e1 * e1 + a)
            # (2 beta)^2 - (3 e1)^2 = 4 Im(e2)^2 > 0, so both Gauss pairs are real
            if not (beta > 0 and 2 * beta > 3 * abs(e1)):
                raise ValidationError("period computation lost reality")
            # one AGM step of (sqrt(e1 - e3), sqrt(e1 - e2)), a conjugate pair
            ga, gb = mp.sqrt(2 * beta + 3 * e1) / 2, mp.sqrt(beta)
            omega2 = mp.pi / mp.agm(2 * gb, mp.sqrt(2 * beta - 3 * e1))
            sign = -1
        chain = _agm_chain(ga, gb)
        omega = mp.pi / chain[-1][0]
        q = sign * mp.exp(-2 * mp.pi * omega2 / omega)
    with mp.workprec(prec + 32):
        omega = +omega
    return _Lattice(e1=e1, e2=e2, e3=e3, route="three-real-roots" if three_roots
                    else "one-real-root", omega=omega, q=q, chain=chain)


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


def _landen_log(lat: _Lattice, s2) -> mp.mpf:
    """z in (0, omega/2] with wp(z) = e1 + s2, for s2 >= 0, by Gauss-Landen steps.

    With a^2 = e1 - e3 and b^2 = e1 - e2,
        z = int_s^inf dw / sqrt((w^2 + a^2)(w^2 + b^2)),
    which the step (a, b, s^2) -> ((a+b)/2, sqrt(ab), (s^2 - ab + r)/2),
    r = sqrt((s^2 + a^2)(s^2 + b^2)), leaves unchanged: it is the Gauss
    map of the curve followed by halving.  Once a = b, z = atan(a/s)/a.
    Where s^2 < ab the new s^2 is taken as 2 s^2 a'^2 / (r + ab - s^2),
    the same number without cancellation.  The pairs (a, b) come from
    lat.chain, so each step takes one square root.
    """
    chain = lat.chain
    if lat.route == "one-real-root":
        # the complex first step: ab = beta = gb^2 and r = |x - e3|
        ga, gb = chain[0]
        s2 = _landen_s2(s2, gb * gb, abs(lat.e1 + s2 - lat.e3), ga)
    for (a, b), (a_next, _) in zip(chain, chain[1:]):
        r = mp.sqrt((s2 + a * a) * (s2 + b * b))
        s2 = _landen_s2(s2, a * b, r, a_next)
    a = chain[-1][0]
    return mp.atan2(a, mp.sqrt(s2)) / a


def _landen_s2(s2, ab, r, a_next):
    """s^2 after one Gauss-Landen step; see _landen_log."""
    d = s2 - ab
    if d >= 0:
        return (d + r) / 2
    return 2 * s2 * a_next * a_next / (r - d)


def exp_E(curve: RationalCurve, t, precision_bits: int = DEFAULT_PRECISION):
    """Numeric point on the identity component at elliptic-log coordinate t.

    Returns an (x, y) pair of mpf, with y <= 0 on (0, omega/2].  Raises
    PoleProximityError when t is within 2^(-precision/4) of 0 mod omega;
    callers treat that as identity.

    For z = t reduced into (0, omega/2], the Landen walk of _landen_log runs
    backwards from s_N = a_N cot(a_N z).  Solving one forward step for the
    old s^2 gives
        s_k^2 = s_{k+1}^2 (s_{k+1}^2 + a_k b_k) / (s_{k+1}^2 + a_{k+1}^2),
    a ratio of sums of positive terms; on the one-real-root route the
    complex first step is undone the same way with beta = gb^2 for a_k b_k
    and ga^2 for a_{k+1}^2.  Then x = e1 + s^2 and
    y = -sqrt(s^2 (x - e2)(x - e3)), which is -s |x - e3| when e2, e3 are
    conjugate.
    """
    prec = precision_bits
    lat = _lattice(curve, prec)
    om = lat.omega
    with mp.workprec(prec + 48):
        tr = mp.mpf(_as_t(t)) % om
        if min(tr, om - tr) < mp.ldexp(1, -prec // 4):
            raise PoleProximityError(f"t = {mp.nstr(tr, 10)} too close to the lattice")
        flip = tr > om / 2
        z = om - tr if flip else tr
        chain = lat.chain
        a_n = chain[-1][0]
        s2 = (a_n * mp.cot(a_n * z)) ** 2
        for (a, b), (a_next, _) in reversed(tuple(zip(chain, chain[1:]))):
            s2 = s2 * (s2 + a * b) / (s2 + a_next * a_next)
        if lat.route == "one-real-root":
            ga, gb = chain[0]
            s2 = s2 * (s2 + gb * gb) / (s2 + ga * ga)
            y = -mp.sqrt(s2) * abs(lat.e1 + s2 - lat.e3)
        else:
            y = -mp.sqrt(s2 * (s2 + lat.e1 - lat.e3) * (s2 + lat.e1 - lat.e2))
        x = lat.e1 + s2
        if flip:
            y = -y
        return +x, +y


def elliptic_log(curve: RationalCurve, pt: PointLike,
                 precision_bits: int = DEFAULT_PRECISION) -> EllipticLogValue:
    """Unique t in [0, omega) with exp_E(t) = pt.

    Accepts an exact CurvePoint on the identity component, a numeric
    (x, y) pair, or None / the identity point (t = 0).
    """
    prec = precision_bits
    period = real_period(curve, prec)
    om = period.omega
    if pt is None or (isinstance(pt, CurvePoint) and pt.is_identity):
        return EllipticLogValue(t=mp.mpf(0), omega=om, precision_bits=prec)
    if isinstance(pt, CurvePoint):
        if not on_curve(curve, pt):
            raise ValidationError(f"point {pt} is not on the curve")
        if not on_identity_component(curve, pt):
            raise ComponentError(f"point {pt} lies on the non-identity component")
        with mp.workprec(prec + 48):
            x = mp.mpf(pt.x.numerator) / pt.x.denominator
            y = mp.mpf(pt.y.numerator) / pt.y.denominator
    else:
        x, y = pt
        with mp.workprec(prec + 48):
            x, y = mp.mpf(x), mp.mpf(y)
    lat = _lattice(curve, prec)
    with mp.workprec(prec + 48):
        s2 = x - lat.e1
        if s2 < -mp.ldexp(1, -prec // 4):
            raise ComponentError("x below the largest real root: not on identity component")
        if s2 < 0:
            # x within rounding of e1; beyond 2^-prec the log would turn complex
            if s2 < -mp.ldexp(1, -prec):
                raise ValidationError("elliptic log lost reality")
            s2 = mp.mpf(0)
        u = _landen_log(lat, s2)
        t = om - u if y > 0 else u
        t = t % om
        return EllipticLogValue(t=+t, omega=om, precision_bits=prec)


def d_E(curve: RationalCurve, t1, t2, precision_bits: int = DEFAULT_PRECISION) -> mp.mpf:
    """Flat circle metric min_p |t1 - t2 + p*omega|; symmetric, <= omega/2."""
    om = real_period(curve, precision_bits).omega
    with mp.workprec(precision_bits + 32):
        r = (mp.mpf(_as_t(t1)) - mp.mpf(_as_t(t2))) % om
        return +min(r, om - r)
