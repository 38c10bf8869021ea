"""Real-analytic bridge: real period, exponential map, elliptic log, circle metric.

The exponential map is z -> (wp(z), wp'(z)/2) for the Weierstrass wp of the
curve lattice (g2 = -4a, g3 = -4b), restricted to the real line.  Its kernel
is Z*omega; omega is evaluated with Carlson's quadratically convergent R_F
duplication, which also inverts the map:

    elliptic_log(x, y) = R_F(x - e1, x - e2, x - e3), reflected when y > 0.

Both formulas hold verbatim for one-real-root curves, where e2, e3 form a
complex conjugate pair and R_F returns a real value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

import mpmath as mp

from .ec_core import CurvePoint, RationalCurve, on_curve, on_identity_component
from .errors import BudgetExceededError, ComponentError, PoleProximityError, ValidationError

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


@lru_cache(maxsize=64)
def _roots_cached(a_str: str, b_str: str, prec: int):
    with mp.workprec(prec + 48):
        a, b = mp.mpf(a_str), mp.mpf(b_str)
        roots = mp.polyroots([mp.mpf(1), mp.mpf(0), a, b], maxsteps=200, extraprec=64)
        real = sorted((r.real for r in roots if abs(r.imag) < mp.mpf(2) ** (-prec // 2)),
                      reverse=True)
        if len(real) == 3:
            e1, e2, e3 = real
            return (e1, e2, e3, "three-real-roots")
        e1 = max((r.real for r in roots if abs(r.imag) < mp.ldexp(1, -8)))
        others = [r for r in roots if abs(r.real - e1) > mp.ldexp(1, -8) or abs(r.imag) > mp.ldexp(1, -8)]
        return (e1, others[0], others[1], "one-real-root")


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _curve_roots(curve: RationalCurve, prec: int):
    return _roots_cached(_frac_str(curve.a), _frac_str(curve.b), prec)


def real_period(curve: RationalCurve, precision_bits: int = DEFAULT_PRECISION) -> RealPeriod:
    """Generator omega of the kernel of exp_E, omega = int_{e*}^inf dx/sqrt(x^3+ax+b).

    Evaluated as 2*R_F(0, e1-e2, e1-e3).  exp_E(omega/2) is the 2-torsion
    point (e1, 0), so the kernel really is Z*omega.
    """
    return _period_cached(_frac_str(curve.a), _frac_str(curve.b), precision_bits)


@lru_cache(maxsize=64)
def _period_cached(a_str: str, b_str: str, prec: int) -> RealPeriod:
    e1, e2, e3, route = _roots_cached(a_str, b_str, prec)
    with mp.workprec(prec + 32):
        om = 2 * mp.elliprf(0, e1 - e2, e1 - e3)
        if abs(mp.im(om)) > mp.ldexp(1, -prec // 2):
            raise ValidationError("period computation lost reality")
        om = mp.re(om)
        if not om > 0:
            raise ValidationError("period must be positive")
        return RealPeriod(omega=+om, precision_bits=prec, route=route)


@lru_cache(maxsize=32)
def _wp_series_coeffs(a_str: str, b_str: str, prec: int, nterms: int):
    """Laurent coefficients of wp: wp(z) = z^-2 + sum_{k>=2} c_k z^{2k-2}."""
    with mp.workprec(prec + 48):
        a, b = mp.mpf(a_str), mp.mpf(b_str)
        c = [mp.mpf(0), mp.mpf(0), -a / 5, -b / 7]
        for k in range(4, nterms):
            s = mp.fsum(c[m] * c[k - m] for m in range(2, k - 1))
            c.append(3 * s / ((2 * k + 1) * (k - 3)))
        return tuple(c)


def _wp_and_derivative(curve: RationalCurve, z: mp.mpf, prec: int):
    """Series evaluation of (wp(z), wp'(z)); None if not converged at this z."""
    nterms = max(48, prec // 3)
    c = _wp_series_coeffs(_frac_str(curve.a), _frac_str(curve.b), prec, nterms)
    z2 = z * z
    eps = mp.ldexp(1, -prec - 16)
    wp = 1 / z2
    wpp = -2 / (z2 * z)
    zpow = mp.mpf(1)  # z^{2k-2} built incrementally from k=2
    scale = max(abs(wp), mp.mpf(1))
    prev = mp.inf
    small_streak = 0
    for k in range(2, nterms):
        zpow = zpow * z2 if k > 2 else z2
        term = c[k] * zpow
        wp += term
        wpp += (2 * k - 2) * c[k] * zpow / z
        mag = abs(term)
        if mag < eps * scale:
            # a = 0 or b = 0 curves have stride-3 zero coefficients, so one
            # small term proves nothing; four in a row bound the tail
            small_streak += 1
            if small_streak >= 4 and k >= 6:
                return wp, wpp
        else:
            small_streak = 0
        if k > 8 and mag > prev * 4:
            return None  # diverging: caller halves z
        prev = mag if mag > 0 else prev
    return None


def exp_E(curve: RationalCurve, t, precision_bits: int = DEFAULT_PRECISION):
    """Numeric point on the identity component at elliptic-log coordinate t.

    Returns an (x, y) pair of mpf.  Raises PoleProximityError when t is
    within 2^(-precision/4) of 0 mod omega; callers treat that as identity.
    """
    prec = precision_bits
    om = real_period(curve, prec).omega
    with mp.workprec(prec + 48):
        tr = mp.mpf(_as_t(t)) % om
        if min(tr, om - tr) < mp.ldexp(1, -prec // 4):
            raise PoleProximityError(f"t = {mp.nstr(tr, 10)} too close to the lattice")
        flip = tr > om / 2
        z = om - tr if flip else tr
        a = mp.mpf(curve.a.numerator) / curve.a.denominator
        # halve into the series radius, then double the point back
        j = 0
        while z > om / 16 and j < 8:
            z /= 2
            j += 1
        val = _wp_and_derivative(curve, z, prec)
        while val is None:
            z /= 2
            j += 1
            if j > prec:
                raise BudgetExceededError("wp series failed to converge")
            val = _wp_and_derivative(curve, z, prec)
        x, y = val[0], val[1] / 2
        for _ in range(j):
            lam = (3 * x * x + a) / (2 * y)
            x2 = lam * lam - 2 * x
            y2 = lam * (x - x2) - y
            x, y = x2, y2
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
    e1, e2, e3, _route = _curve_roots(curve, prec)
    with mp.workprec(prec + 48):
        if x < e1 - mp.ldexp(1, -prec // 4):
            raise ComponentError("x below the largest real root: not on identity component")
        u = mp.elliprf(x - e1, x - e2, x - e3)
        if abs(mp.im(mp.mpc(u))) > mp.ldexp(1, -prec // 2):
            raise ValidationError("elliptic log lost reality")
        u = mp.re(u)
        t = om - u if y > 0 else u
        t = t % om
        return EllipticLogValue(t=+t, omega=om, precision_bits=prec)


def d_E(curve: RationalCurve, t1, t2, precision_bits: int = DEFAULT_PRECISION) -> mp.mpf:
    """Flat circle metric min_p |t1 - t2 + p*omega|; symmetric, <= omega/2."""
    om = real_period(curve, precision_bits).omega
    with mp.workprec(precision_bits + 32):
        r = (mp.mpf(_as_t(t1)) - mp.mpf(_as_t(t2))) % om
        return +min(r, om - r)
