"""The AGM / Gauss-Landen / q-product kernels against independent references.

The references are the slower forms the library used before: Carlson's R_F
duplication (mpmath's elliprf) for the real period and the elliptic log, the
Laurent series of wp with halving and doubling for the exponential map, and
the 4^-n weighted duplication series for the archimedean Neron function.
They find their own roots and share no code with the kernels under test.
Agreement is asked to 2^-(prec - 8), relative.
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dioph import analytic, ec_core, heights
from dioph.ec_core import CurvePoint, RationalCurve

from test_heights import _reference_kernel_multiple

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


def _reference_wp_coeffs(a, b, nterms):
    """Laurent coefficients of wp: wp(z) = z^-2 + sum_{k>=2} c_k z^{2k-2}."""
    c = [mp.mpf(0), mp.mpf(0), -a / 5, -b / 7]
    for k in range(4, nterms):
        s = mp.fsum(c[m] * c[k - m] for m in range(2, k - 1))
        c.append(3 * s / ((2 * k + 1) * (k - 3)))
    return c


def _reference_wp_series(c, z, prec):
    """(wp(z), wp'(z)) from the Laurent series; None if not converged at this z."""
    z2 = z * z
    eps = mp.ldexp(1, -prec - 16)
    wp = 1 / z2
    wpp = -2 / (z2 * z)
    zpow = mp.mpf(1)  # z^{2k-2} built incrementally from k=2
    scale = max(abs(wp), mp.mpf(1))
    prev = mp.inf
    small_streak = 0
    for k in range(2, len(c)):
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
            return None  # diverging: the caller halves z
        prev = mag if mag > 0 else prev
    return None


def reference_exp(curve, t, om, prec):
    """(wp(z), wp'(z)/2) at z = t mod om, by the Laurent series of wp.

    z is reduced into (0, om/2], halved below om/16 and until the series
    converges, and the point is doubled back by the group law; y is negated
    past om/2.  The period om is an argument: near om, x(t) moves by 2^(prec/4)
    times the last bit of om, so two maps are compared on one om.
    """
    with mp.workprec(prec + 48):
        a, b = _mpf(curve.a), _mpf(curve.b)
        c = _reference_wp_coeffs(a, b, max(48, prec // 3))
        tr = mp.mpf(t) % om
        flip = tr > om / 2
        z = om - tr if flip else tr
        j = 0
        while z > om / 16 and j < 8:
            z /= 2
            j += 1
        val = _reference_wp_series(c, z, prec)
        while val is None:
            z /= 2
            j += 1
            assert j <= prec, "wp series failed to converge"
            val = _reference_wp_series(c, z, prec)
        x, y = val[0], val[1] / 2
        for _ in range(j):
            lam = (3 * x * x + a) / (2 * y)
            x2 = lam * lam - 2 * x
            y2 = lam * (x - x2) - y
            x, y = x2, y2
        if flip:
            y = -y
        return +x, +y


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
C37A1_SHORT = RationalCurve(a=-1, b=Fraction(1, 4), label="37a1 short model")
# (x + 2)((x - 1)^2 + 2^-20): the complex pair is 2^-10 off the real axis
NEAR_ONE = RationalCurve(a=Fraction(-3145727, 1048576), b=Fraction(1048577, 524288),
                         label="near-node one root")


def _one_root_node(c, sign):
    """(x + 2 sign c)((x - sign c)^2 + 1), with e1 = -2 sign c exactly.

    2 beta + 3 sign e1 cancels as c grows: sign 1 puts the cancellation in
    the first AGM step's ga, sign -1 (the mirror) in omega2's
    sqrt(2 beta - 3 e1).
    """
    return RationalCurve(a=1 - 3 * c * c, b=sign * 2 * c * (c * c + 1),
                         label=f"one-root node c = 2^{c.bit_length() - 1}"
                               + (" mirror" if sign < 0 else ""))


ONE_ROOT_NODES = {(c, sign): _one_root_node(c, sign) for c in (2**20, 2**40) for sign in (1, -1)}


def _near_e1(curve, prec):
    with mp.workprec(prec + 64):
        return reference_roots(curve, prec + 16)[0] + mp.ldexp(1, -100)


def _x_of_MP_10P(curve, prec):
    """x(M [10]P) for P = (5, 8) on 110160.cd1, from the test-only x(MP) oracle."""
    M, (p, q) = _reference_kernel_multiple(curve, ec_core.scalar_mul(curve, 10, CurvePoint.affine(5, 8)))
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


def _rational_x(x: Fraction):
    def at(prec):
        with mp.workprec(prec + 64):
            return _mpf(x)
    return at


for (_c, _sign), _curve in ONE_ROOT_NODES.items():
    for _name, _dx in (("1/7", Fraction(1, 7)), ("3c", Fraction(3 * _c)),
                       ("100c^2", Fraction(100 * _c * _c))):
        CASES[f"{_curve.label} x = e1 + {_name}"] = (_curve, _rational_x(-2 * _sign * _c + _dx),
                                                      True)


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("curve", (C110160, MORDELL, C37A1, C28, NEAR, *ONE_ROOT_NODES.values()),
                         ids=lambda c: c.label)
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


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("curve", (C110160, MORDELL, C37A1_SHORT, C28, C37A1, NEAR_ONE, NEAR),
                         ids=lambda c: c.label)
def test_exp_matches_series_reference(curve, prec):
    om = analytic.real_period(curve, prec).omega
    with mp.workprec(prec + 64):
        half = om / 2
        guard = mp.ldexp(1, -(prec // 4)) * (1 + mp.ldexp(1, -8))  # just past the pole guard
        ts = [om * mp.mpf(u) / 1000 for u in (37, 231, 618, 904)] + [guard, om - guard]
        signs = [t < half for t in ts]
    for t, below_half in zip(ts, signs):
        x, y = analytic.exp_E(curve, t, prec)
        xr, yr = reference_exp(curve, t, om, prec)
        assert _close(x, xr, prec) and _close(y, yr, prec)
        assert (y < 0) == below_half  # y <= 0 on (0, omega/2]
    # the 2-torsion point (e1, 0): y is rounding noise on both sides
    x, y = analytic.exp_E(curve, half, prec)
    xr, yr = reference_exp(curve, half, om, prec)
    assert _close(x, xr, prec) and -mp.ldexp(1, 8 - prec) <= y <= 0
    assert abs(yr) <= mp.ldexp(1, 8 - prec)


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


def test_hhat_quadratic_on_random_curves():
    routes = set()

    @given(_integral_curves_through(), st.integers(2, 4))
    def check(curve_point, n):
        curve, P = curve_point
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


@st.composite
def _lattice_curves(draw):
    """Integral curves through a small point, or within 1 of a node on either route."""
    kind = draw(st.sampled_from(("through", "near-node one root", "near-node three roots")))
    if kind == "through":
        return draw(_integral_curves_through())[0]
    c = draw(st.integers(1, 2**20))
    if kind == "near-node one root":
        d = draw(st.integers(1, 8))  # (x + 2c)((x - c)^2 + d)
        return RationalCurve(a=d - 3 * c * c, b=2 * c * (c * c + d))
    # (x - c - 1)(x - c)(x + 2c + 1)
    return RationalCurve(a=-3 * c * c - 3 * c - 1, b=c * (c + 1) * (2 * c + 1))


def test_agm_chain_ends_and_exp_inverts_log():
    routes = set()

    @given(_lattice_curves(), st.integers(64, 600), st.integers(-8, 8), st.booleans())
    def check(curve, prec, k, upper):
        lat = analytic._lattice_cached.__wrapped__(analytic._frac_str(curve.a),
                                                   analytic._frac_str(curve.b), prec)
        routes.add(lat.route)
        ga, gb = lat.chain[0]
        # quadratic convergence once a ~ b; about log2 |log(ga/gb)| steps to get there
        assert len(lat.chain) <= math.log2(prec) + math.log2(1 + abs(float(mp.log(ga / gb)))) + 6
        with mp.workprec(prec + 64):
            x = lat.e1 + mp.ldexp(1 + abs(lat.e1), k)
            y = mp.sqrt(x**3 + _mpf(curve.a) * x + _mpf(curve.b))
            y = y if upper else -y
        xe, ye = analytic.exp_E(curve, analytic.elliptic_log(curve, (x, y), prec), prec)
        tol = mp.ldexp(1, 8 - prec)
        assert abs(xe - x) <= tol * (1 + abs(x)) and abs(ye - y) <= tol * (1 + abs(y))

    check()
    assert routes == {"three-real-roots", "one-real-root"}


def test_hhat_invariant_under_non_minimal_model():
    routes = set()

    @given(_integral_curves_through(), st.sampled_from((2, 3, 6)))
    def check(curve_point, u):
        curve, P = curve_point
        scaled = RationalCurve(a=curve.a * u**4, b=curve.b * u**6)
        Pu = CurvePoint(P.x * u * u, P.y * u**3)
        routes.add(analytic.real_period(curve, PREC).route)
        h = heights.canonical_height_local(curve, P, PREC).value
        hu = heights.canonical_height_local(scaled, Pu, PREC).value
        assert abs(h - hu) <= TOL * max(h, 1)

    check()
    assert routes == {"three-real-roots", "one-real-root"}
