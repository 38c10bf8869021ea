"""The AGM / Gauss-Landen / q-product kernels against independent references.

The references are the linearly convergent forms the library used before:
Carlson's R_F duplication (mpmath's elliprf) for the real period and the
elliptic log, and the 4^-n weighted duplication series for the archimedean
Neron function.  They find their own roots and share no code with the
kernels under test.  Agreement is asked to 2^-(prec - 8), relative.
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dioph import analytic, ec_core, heights
from dioph.ec_core import CurvePoint, RationalCurve
from dioph.errors import BudgetExceededError

PRECISIONS = (128, 256, 512)


def _mpf(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


def reference_roots(curve, prec):
    """(e1, e2, e3): e1 the real root on the identity component."""
    with mp.workprec(prec + 48):
        roots = mp.polyroots([1, 0, _mpf(curve.a), _mpf(curve.b)], maxsteps=200, extraprec=64)
        if curve.discriminant > 0:
            return tuple(sorted((mp.re(r) for r in roots), reverse=True))
        e1 = min(roots, key=lambda r: abs(mp.im(r)))
        e2, e3 = (r for r in roots if r is not e1)
        return mp.re(e1), e2, e3


def reference_period(curve, prec):
    """omega = 2 R_F(0, e1 - e2, e1 - e3)."""
    e1, e2, e3 = reference_roots(curve, prec)
    with mp.workprec(prec + 32):
        return +mp.re(2 * mp.elliprf(0, e1 - e2, e1 - e3))


def reference_log(curve, x, prec):
    """z in (0, omega/2] with wp(z) = x: R_F(x - e1, x - e2, x - e3)."""
    e1, e2, e3 = reference_roots(curve, prec)
    with mp.workprec(prec + 48):
        return +mp.re(mp.elliprf(x - e1, x - e2, x - e3))


def reference_lambda(curve_int, x0, prec):
    """Archimedean Neron function by the duplication series.

    lam(P) = sum_{n<N} 4^-(n+1) log|2 y_n| + 4^-N (1/2) log+ |x_N|, from
    lam(2P) = 4 lam(P) - log|2y(P)|.  Doubling expands rounding error by
    about 4 per step, which the 4^-n weights cancel.
    """
    N = max(48, prec // 2 + 16)
    with mp.workprec(prec + 64):
        a, b = _mpf(curve_int.a), _mpf(curve_int.b)
        x = mp.mpf(x0)
        total = mp.mpf(0)
        w = mp.mpf(1)
        for _ in range(N):
            w /= 4
            f = abs(x**3 + a * x + b)  # roundoff can graze zero near 2-torsion x-values
            total += w * mp.log(4 * f) / 2
            x = ((x * x - a) ** 2 - 8 * b * x) / (4 * f)
        total += w * mp.log(max(mp.mpf(1), abs(x))) / 2
        return +total


def _close(got, ref, prec):
    return abs(got - ref) <= mp.ldexp(abs(ref), 8 - prec)


C110160 = RationalCurve(a=-12, b=-1, label="110160.cd1")
MORDELL = RationalCurve(a=0, b=-2, label="x3-2")
C37A1 = RationalCurve(a=-16, b=16, label="37a1 integral model")
C28 = RationalCurve(a=-1, b=28, label="x3-x+28")
# (x - 1025)(x - 1024)(x + 2049): e1 - e2 = 1 against |e3| = 2049, q = 0.16
NEAR = RationalCurve(a=-3148801, b=2150630400, label="near-node three roots")


def _near_e1(curve, prec):
    with mp.workprec(prec + 64):
        return reference_roots(curve, prec + 16)[0] + mp.ldexp(1, -100)


def _x_of_MP_10P(curve, prec):
    """x(M [10]P) for P = (5, 8) on 110160.cd1, the point the local route uses."""
    M, (p, q) = heights._kernel_multiple(curve, ec_core.scalar_mul(curve, 10, CurvePoint.affine(5, 8)))
    assert M > 0 and max(abs(p), q).bit_length() > 80_000
    with mp.workprec(prec + 64):
        return mp.mpf(p) / q


# (curve, x as a function of the precision, on the identity component?)
CASES = {
    "110160.cd1 (5,8)": (C110160, lambda prec: mp.mpf(5), True),
    "x3-2 (3,5)": (MORDELL, lambda prec: mp.mpf(3), True),
    "37a1 (4,4)": (C37A1, lambda prec: mp.mpf(4), True),
    "x3-x+28 (-3,2)": (C28, lambda prec: mp.mpf(-3), True),
    "egg (0,4) on 37a1": (C37A1, lambda prec: mp.mpf(0), False),
    "2^-100 above e1": (C110160, lambda prec: _near_e1(C110160, prec), True),
    "x(MP), [10]P on 110160.cd1": (C110160, lambda prec: _x_of_MP_10P(C110160, prec), True),
    "near-node x = 1030": (NEAR, lambda prec: mp.mpf(1030), True),
    "near-node egg x = 1023.99": (NEAR, lambda prec: mp.mpf(102399) / 100, False),
}


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("curve", (C110160, MORDELL, C37A1, C28, NEAR), ids=lambda c: c.label)
def test_period_matches_carlson_reference(curve, prec):
    assert _close(analytic.real_period(curve, prec).omega, reference_period(curve, prec), prec)


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("case", [k for k, v in CASES.items() if v[2]])
def test_elliptic_log_matches_carlson_reference(case, prec):
    curve, xf, _ = CASES[case]
    x = xf(prec)
    with mp.workprec(prec + 64):
        y = -mp.sqrt(x**3 + _mpf(curve.a) * x + _mpf(curve.b))
    # y < 0: the representative is the reference's z itself, not omega - z
    got = analytic.elliptic_log(curve, (x, y), prec).t
    assert _close(got, reference_log(curve, x, prec), prec)


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("case", list(CASES))
def test_lambda_matches_duplication_reference(case, prec):
    curve, xf, _ = CASES[case]
    x = xf(prec)
    assert _close(heights._lambda_archimedean(curve, x, prec),
                  reference_lambda(curve, x, prec), prec)


# --- property tests on random integral curves, both period routes -----------

PREC = 192
TOL = mp.ldexp(1, -PREC // 2)


@st.composite
def _integral_curves_through(draw):
    """y^2 = x^3 + a x + b through (x0, y0), b = y0^2 - x0^3 - a x0.

    a leans negative so that both period routes are drawn often.
    """
    x0 = draw(st.integers(-6, 6))
    y0 = draw(st.integers(1, 8))
    a = draw(st.integers(-12, 6))
    b = y0 * y0 - x0**3 - a * x0
    assume(4 * a**3 + 27 * b**2 != 0)
    return RationalCurve(a=a, b=b), CurvePoint.affine(x0, y0)


def _cheap_local_route(curve, pt, n):
    """Keep draws whose kernel multiple M makes x(M [n]P) small to build."""
    try:
        orders = heights._kernel_orders(curve, pt, multiple_cap=12)
    except BudgetExceededError:
        return False
    return orders is not None and math.lcm(*orders.values()) * n <= 48


# most draws have a kernel multiple too large to build x(MP) quickly
_FILTERED = settings(max_examples=30, suppress_health_check=[HealthCheck.filter_too_much])


def test_hhat_quadratic_on_random_curves():
    routes = set()

    @_FILTERED
    @given(_integral_curves_through(), st.integers(2, 4))
    def check(curve_point, n):
        curve, P = curve_point
        assume(_cheap_local_route(curve, P, n))
        routes.add(analytic.real_period(curve, PREC).route)
        h1 = heights.canonical_height_local(curve, P, PREC).value
        hn = heights.canonical_height_local(curve, ec_core.scalar_mul(curve, n, P), PREC).value
        assert abs(hn - n * n * h1) <= TOL * max(hn, 1)

    check()
    assert routes == {"three-real-roots", "one-real-root"}


def test_exp_log_round_trip_on_random_curves():
    routes = set()

    @given(_integral_curves_through())
    def check(curve_point):
        curve, P = curve_point
        if not ec_core.on_identity_component(curve, P):
            P = ec_core.scalar_mul(curve, 2, P)  # the egg doubles onto the identity component
        assume(not P.is_identity)
        routes.add(analytic.real_period(curve, PREC).route)
        t = analytic.elliptic_log(curve, P, PREC)
        x, y = analytic.exp_E(curve, t, PREC)
        assert abs(x - _mpf(P.x)) <= TOL * max(1, abs(_mpf(P.x)))
        assert abs(y - _mpf(P.y)) <= TOL * max(1, abs(_mpf(P.y)))

    check()
    assert routes == {"three-real-roots", "one-real-root"}


def test_hhat_invariant_under_non_minimal_model():
    routes = set()

    @_FILTERED
    @given(_integral_curves_through(), st.sampled_from((2, 3, 6)))
    def check(curve_point, u):
        curve, P = curve_point
        scaled = RationalCurve(a=curve.a * u**4, b=curve.b * u**6)
        Pu = CurvePoint(P.x * u * u, P.y * u**3)
        assume(_cheap_local_route(curve, P, 1) and _cheap_local_route(scaled, Pu, 1))
        routes.add(analytic.real_period(curve, PREC).route)
        h = heights.canonical_height_local(curve, P, PREC).value
        hu = heights.canonical_height_local(scaled, Pu, PREC).value
        assert abs(h - hu) <= TOL * max(h, 1)

    check()
    assert routes == {"three-real-roots", "one-real-root"}
