"""The AGM / Gauss-Landen / q-product kernels against independent references.

The references are the slower forms the library used before: Carlson's R_F
duplication (mpmath's elliprf) for the real period and the elliptic log, the
Laurent series of wp with halving and doubling for the exponential map, and
the 4^-n weighted duplication series for the archimedean Neron function.
They find their own roots and share no code with the kernels under test;
the near-node family needs no root finder, its roots being exact.  The
integer Landen walks and the integer q-series are also checked against
their mpf forms at a higher precision.  Agreement is asked to
2^-(prec - 8), relative.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dioph import analytic, cli, ec_core, heights
from dioph.ec_core import CurvePoint, RationalCurve
from dioph.errors import ComponentError, PoleProximityError, ValidationError

from test_heights import WORKLOAD_CURVES, _reference_kernel_multiple

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


@lru_cache(maxsize=32)
def _reference_wp_coeffs(a, b, nterms, bits):
    """Laurent coefficients of wp: wp(z) = z^-2 + sum_{k>=2} c_k z^{2k-2}, at bits."""
    with mp.workprec(bits):
        c = [mp.mpf(0), mp.mpf(0), -a / 5, -b / 7]
        for k in range(4, nterms):
            s = mp.fsum(c[m] * c[k - m] for m in range(2, k - 1))
            c.append(3 * s / ((2 * k + 1) * (k - 3)))
    return tuple(c)


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

    z is reduced into (0, om/2] from t as given, not from t rounded to the
    working precision, halved below om/16 and until the series
    converges, and the point is doubled back by the group law; y is negated
    past om/2.  The period om is an argument: near om, x(t) moves by 2^(prec/4)
    times the last bit of om, so two maps are compared on one om.
    """
    with mp.workprec(prec + 48):
        a, b = _mpf(curve.a), _mpf(curve.b)
        c = _reference_wp_coeffs(a, b, max(48, prec // 3), mp.mp.prec)
        with mp.workprec(4 * prec + 64):  # t mod om exactly, then z rounded once
            tr = mp.mpf(t) % om
            flip = tr > om / 2
            z = om - tr if flip else tr
        z = +z
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
    "x = 2^1000 on x3-2": (MORDELL, lambda prec: mp.ldexp(1, 1000), True),
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


def _reference_theta_euler(q, c):
    """The theta_1 and Euler series of heights._theta_euler, summed in mpf."""
    tol = mp.ldexp(1, -mp.mp.prec)
    d = 4 * c * c - 2
    theta1, v_prev, v, qn, qt, n = mp.mpf(1), mp.mpf(1), d + 1, q, q, 1
    while abs(qt) * (2 * n + 1) >= tol:
        theta1 += -qt * v if n % 2 else qt * v
        v_prev, v = v, d * v - v_prev
        qn *= q
        qt *= qn
        n += 1
    euler, qk, step, k = mp.mpf(1), q, q, 1
    while abs(qk) >= tol:
        euler += -qk * (1 + q**k) if k % 2 else qk * (1 + q**k)
        step *= q**3
        qk *= step
        k += 1
    return theta1, euler


@pytest.mark.parametrize("q", ("0.0017", "-0.0043", "0.61", "-0.852", "0.95", "-0.95"))
@pytest.mark.parametrize("c", ("0.1", "0.7", "0.99995"))
def test_theta_euler_matches_mpf_series(q, c):
    # both sums are taken to 2^-(working precision) absolute: near |q| = 1
    # they cancel far below their terms, so the comparison is absolute
    prec = 256
    F = prec + 16
    with mp.workprec(prec):
        q, c = mp.mpf(q), mp.mpf(c)
        Q, D = int(mp.ldexp(q, F)), int(mp.ldexp(4 * c * c - 2, F))
        got = [mp.ldexp(v, -F) for v in heights._theta_euler(Q, D, F)]
    with mp.workprec(4 * prec):
        ref = _reference_theta_euler(q, c)
    for g, r in zip(got, ref):
        assert abs(g - r) <= mp.ldexp(1, 8 - prec)


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("curve", (C110160, MORDELL, C37A1_SHORT, C28, C37A1, NEAR_ONE, NEAR),
                         ids=lambda c: c.label)
def test_exp_matches_series_reference(curve, prec):
    om = analytic.real_period(curve, prec).omega
    with mp.workprec(prec + 64):
        half = om / 2
        guard = mp.ldexp(om, -(prec // 4)) * (1 + mp.ldexp(1, -8))  # just past the pole guard
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


# --- the near-node family (x + 2)(x - 1 - delta)(x - 1 + delta) --------------
# Its roots 1 +- delta and -2 are exact, so the oracle needs no root finder:
# Carlson's R_F at 4 prec bits on the exact root differences.

NODE_KS = (50, 70, 90, 120, 150)


def _node_curve(k):
    d = Fraction(1, 2**k)
    return RationalCurve(a=-3 - d * d, b=2 - 2 * d * d, label=f"node delta = 2^-{k}")


def _node_roots(k):
    """(e1, e2, e3) = (1 + delta, 1 - delta, -2), exact at the working precision."""
    d = mp.ldexp(1, -k)
    return 1 + d, 1 - d, mp.mpf(-2)


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("k", NODE_KS)
def test_node_period_matches_exact_roots(k, prec):
    with mp.workprec(4 * prec):
        e1, e2, e3 = _node_roots(k)
        ref = 2 * mp.elliprf(0, e1 - e2, e1 - e3)
    per = analytic.real_period(_node_curve(k), prec)
    assert per.route == "three-real-roots" and _close(per.omega, ref, prec)


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("k", NODE_KS)
def test_node_log_and_exp_match_exact_roots(k, prec):
    curve = _node_curve(k)
    for x_of_delta in (lambda d: mp.mpf(3), lambda d: 1 + 2 * d):  # far out, and delta above e1
        with mp.workprec(4 * prec):
            e1, e2, e3 = _node_roots(k)
            x = x_of_delta(e1 - 1)
            z = mp.elliprf(x - e1, x - e2, x - e3)
            y = -mp.sqrt((x - e1) * (x - e2) * (x - e3))
        assert _close(analytic.elliptic_log(curve, (x, y), prec).t, z, prec)
        xe, ye = analytic.exp_E(curve, z, prec)
        assert _close(xe, x, prec) and _close(ye, y, prec)


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("k", NODE_KS)
def test_node_lambda_matches_duplication_reference(k, prec):
    # the integral model, scaled by u = 2^k: roots 4^k (1 +- 2^-k) and -2 4^k
    u2 = 4**k
    curve = RationalCurve(a=-3 * u2 * u2 - u2, b=2 * u2**3 - 2 * u2 * u2)
    for x in (3 * u2, u2 + 2 * 2**k):
        with mp.workprec(prec + 64):
            x = mp.mpf(x)
        assert _close(heights._lambda_archimedean(curve, x, prec),
                      reference_lambda(curve, x, 4 * prec), prec)


# --- exp_E next to 2-torsion and next to the pole ------------------------------


@pytest.mark.parametrize("prec", (128, 256))
@pytest.mark.parametrize("curve", (C110160, MORDELL, NEAR), ids=lambda c: c.label)
def test_exp_near_two_torsion_and_pole(curve, prec):
    """t = omega/2 - 2^-k and t = 2^-k against the series reference at 4 prec.

    exp_E reduces t at prec + 48 bits, so omega/2 - z carries an absolute
    error of about 2^-(prec + 48), and y, which vanishes linearly there, is
    good to about 2^-(prec + 48 - k) relative.  The round trip goes through
    x rounded to prec + 48 bits, and x - e1 = O(2^-2k) keeps 2k fewer bits,
    so t comes back to about 2^(min(k, (prec + 48)/2) - prec - 48).  Next to
    the pole the point is large and the relative errors stay at the
    working precision, up to the 2^-(prec/4) guard.
    """
    om = analytic.real_period(curve, prec).omega
    for k in list(range(20, prec, 10)) + [prec]:
        with mp.workprec(4 * prec):
            t = om / 2 - mp.ldexp(1, -k)
        x, y = analytic.exp_E(curve, t, prec)
        xr, yr = reference_exp(curve, t, om, 4 * prec)
        back = analytic.elliptic_log(curve, (x, y), prec).t
        with mp.workprec(4 * prec):
            assert abs(x - xr) <= mp.ldexp(abs(xr), -prec - 40), k
            assert abs(y - yr) <= mp.ldexp(abs(yr), k - prec - 44), k
            assert abs(back - t) <= mp.ldexp(1, min(k, (prec + 48) // 2) - prec - 44), k
    for k in range(20, prec + 1, 10):
        with mp.workprec(4 * prec):
            t = mp.ldexp(1, -k)
        if k > prec // 4:
            with pytest.raises(PoleProximityError):
                analytic.exp_E(curve, t, prec)
            continue
        x, y = analytic.exp_E(curve, t, prec)
        xr, yr = reference_exp(curve, t, om, 4 * prec)
        back = analytic.elliptic_log(curve, (x, y), prec).t
        with mp.workprec(4 * prec):
            assert abs(x - xr) <= mp.ldexp(abs(xr), -prec - 40), k
            assert abs(y - yr) <= mp.ldexp(abs(yr), -prec - 40), k
            assert abs(back - t) <= mp.ldexp(t, -prec - 40), k


@pytest.mark.parametrize("curve, prec", (
    (RationalCurve(a=10**50, b=-10**70, label="omega 1.2e-12"), 64),
    (RationalCurve(a=-3 * 2**400, b=2**601 + 1, label="omega 1.9e-28"), 256),
), ids=lambda v: getattr(v, "label", v))
def test_exp_pole_guard_scales_with_omega(curve, prec):
    """On curves whose real period is far below 2^-(prec/4), t = omega/3 is a
    point and comes back through elliptic_log; t = 2^-k omega, k > prec/4,
    still raises."""
    om = analytic.real_period(curve, prec).omega
    with mp.workprec(prec + 64):
        t = om / 3
    x, y = analytic.exp_E(curve, t, prec)
    back = analytic.elliptic_log(curve, (x, y), prec).t
    with mp.workprec(prec + 64):
        assert abs(back - t) <= mp.ldexp(om, -prec // 2)
    for k in (prec // 4 + 1, prec):
        with pytest.raises(PoleProximityError):
            analytic.exp_E(curve, mp.ldexp(om, -k), prec)


def test_log_below_e1_on_a_coarse_lattice_scale():
    """On a curve with roots near 1e20 the lattice scale is below prec, and
    x - e1 is still compared with 2^-prec and 2^-(prec/4) exactly: x below
    e1 by 2^-(prec/2) raises ValidationError, by 2^(1 - prec/4)
    ComponentError."""
    curve = RationalCurve(a=10**50, b=-10**70)
    for prec in (64, 256):
        lat = analytic._lattice(curve, prec)
        assert lat.scale < prec
        e1 = mp.ldexp(lat.e1_int, -lat.scale)
        with pytest.raises(ValidationError, match="lost reality"):
            analytic.elliptic_log(curve, (e1 - mp.ldexp(1, -prec // 2), 0), prec)
        with pytest.raises(ComponentError):
            analytic.elliptic_log(curve, (e1 - mp.ldexp(1, 1 - prec // 4), 0), prec)


@pytest.mark.parametrize("a, b, prec", (
    (-487854104816158536491965707822, -134441369496306274374997182483441187055589472, 256),
    (-311442448639714905730499776235, 329506207182215642964309507318246292072533757, 512),
))
def test_round_trip_next_to_two_torsion_with_large_roots(a, b, prec):
    """With e1 near +-8e14, x rounded to prec + 48 bits is off by more than
    2^-prec, and next to 2-torsion it may land below e1: within that rounding
    it is e1, and t comes back to about half the working precision."""
    curve = RationalCurve(a=a, b=b)
    om = analytic.real_period(curve, prec).omega
    for k in (0, 40, prec // 2, prec):
        with mp.workprec(prec + 48):
            t = om / 2 - (mp.ldexp(om, -k) if k else 0)
        x, y = analytic.exp_E(curve, t, prec)
        back = analytic.elliptic_log(curve, (x, y), prec).t
        with mp.workprec(4 * prec):
            assert abs(back - t) <= mp.ldexp(om, 8 - (prec + 48) // 2), k


# --- the integer trigonometry at the ends of the Landen walks -------------------


def _relative_bits(got, ref):
    """-log2 of the relative error of got against ref != 0."""
    err = abs(got - ref)
    return mp.inf if not err else -mp.log(err / abs(ref), 2)


@given(st.sampled_from(PRECISIONS), st.data())
def test_int_trig_kernels_match_mpmath(prec, data):
    """_cos_sin and _atan_sqrt at w = prec against mpmath at 2 prec, to 2^-(prec - 8).

    phi = a_N z is an mpf of prec + 48 bits, as exp_E makes it, from the pole
    guard 2^-(prec/4) up to pi/2, and next to pi/2 (2-torsion) down to its
    last bit, where rounding may put it past pi/2.  The atan ratio rho^2 =
    n 2^t / d spans 2^-600 <= rho <= 2^600.
    """
    with mp.workprec(prec + 48):
        if data.draw(st.booleans(), label="next to pi/2"):
            gap = data.draw(st.integers(2, prec + 48), label="gap bits")
            phi = mp.pi / 2 - mp.ldexp(data.draw(st.floats(-1, 1), label="gap"), -gap)
        else:
            k = data.draw(st.integers(0, prec // 4 - 1), label="halvings")
            phi = mp.ldexp(mp.pi / 2 * data.draw(st.floats(0.5, 1), label="fraction"), -k)
    assert phi >= mp.ldexp(1, -prec // 4)
    _, man, exp, _ = phi._mpf_
    c, ce, s, se = analytic._cos_sin(man, exp, prec)
    n = data.draw(st.integers(1, 2**prec), label="n")
    d = data.draw(st.integers(1, 2**prec), label="d")
    t = data.draw(st.integers(-1200, 1200), label="t")
    m, f = analytic._atan_sqrt(n, d, t, prec)
    with mp.workprec(2 * prec):
        assert _relative_bits(mp.ldexp(c, ce), mp.cos(phi)) >= prec - 8
        assert _relative_bits(mp.ldexp(s, se), mp.sin(phi)) >= prec - 8
        rho = mp.sqrt(mp.ldexp(mp.mpf(n) / d, t))
        assert _relative_bits(mp.ldexp(m, f), mp.atan(rho)) >= prec - 8
    assert analytic._atan_sqrt(n, 0, t, prec) == (mp.libmp.pi_fixed(prec), -prec - 1)


def test_heights_path_without_mpf_trigonometry_or_intervals(monkeypatch, tmp_path):
    """exp_E, elliptic_log, `dioph curve log` and canonical_height_limit on the
    workload curves call neither mpmath's atan, atan2 and cot nor its
    interval arithmetic."""
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath trigonometry or intervals on the heights path")

    for name in ("atan", "atan2", "cot"):
        monkeypatch.setattr(mp, name, refuse)
    monkeypatch.setattr(mp.iv, "mpf", refuse)
    for i, (curve, pt) in enumerate(WORKLOAD_CURVES):
        P = ec_core.scalar_mul(curve, 2, pt)  # on the identity component
        om = analytic.real_period(curve).omega
        for u in ("0.001", "0.3", "0.4999", "0.5", "0.77"):
            x, y = analytic.exp_E(curve, mp.mpf(u) * om)
            analytic.elliptic_log(curve, (x, y))
        analytic.elliptic_log(curve, P)
        heights.canonical_height_limit(curve, pt, 11)
        path = tmp_path / f"curve{i}.json"
        path.write_text(f'{{"a": "{curve.a}", "b": "{curve.b}"}}', encoding="utf-8")
        argv = ["curve", "log", "--curve", str(path), "--point", f"{P.x},{P.y}",
                "--out", str(tmp_path / f"log{i}")]
        assert cli.parse_and_dispatch(argv) == 0


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
        log_ratio = float(mp.log(mp.mpf(lat.ga2) / lat.gb2)) / 2  # log(ga / gb)
        # quadratic convergence once a ~ b; about log2 |log(ga/gb)| steps to get there
        assert len(lat.steps) + 1 <= math.log2(prec) + math.log2(1 + abs(log_ratio)) + 6
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


def _reference_walk(curve, prec):
    """The Gauss chain of the kernel in mpf at prec bits, from reference roots.

    Returns (e1, e2, e3, one_root, chain) with chain the pairs (a_k, b_k); the
    one-real-root route starts after the closed-form complex step, as the
    kernel does.
    """
    e1, e2, e3 = reference_roots(curve, prec)
    one_root = curve.discriminant < 0
    with mp.workprec(prec + 48):
        if one_root:
            beta = mp.sqrt(3 * e1 * e1 + _mpf(curve.a))
            far = 2 * beta + 3 * abs(e1)
            near = 4 * mp.im(e2) ** 2 / far
            ga, gb = mp.sqrt(far if e1 >= 0 else near) / 2, mp.sqrt(beta)
        else:
            ga, gb = mp.sqrt(e1 - e3), mp.sqrt(e1 - e2)
        chain = [(ga, gb)]
        while abs(chain[-1][0] - chain[-1][1]) > mp.ldexp(chain[-1][0], -prec - 40):
            a, b = chain[-1]
            chain.append(((a + b) / 2, mp.sqrt(a * b)))
    return e1, e2, e3, one_root, chain


def _reference_landen_s2(s2, ab, r, a_next):
    d = s2 - ab
    return (d + r) / 2 if d >= 0 else 2 * s2 * a_next * a_next / (r - d)


def _reference_log(walk, s2, prec):
    """The forward Gauss-Landen walk in mpf: z with wp(z) = e1 + s2."""
    e1, _, e3, one_root, chain = walk
    with mp.workprec(prec + 48):
        if one_root:
            ga, gb = chain[0]
            s2 = _reference_landen_s2(s2, gb * gb, abs(e1 + s2 - e3), ga)
        for (a, b), (a_next, _) in zip(chain, chain[1:]):
            r = mp.sqrt((s2 + a * a) * (s2 + b * b))
            s2 = _reference_landen_s2(s2, a * b, r, a_next)
        a = chain[-1][0]
        return mp.atan2(a, mp.sqrt(s2)) / a


def _reference_exp_s2(walk, z, prec):
    """The backward walk in mpf: x(z) - e1 from s_N = a_N cot(a_N z)."""
    e1, _, e3, one_root, chain = walk
    with mp.workprec(prec + 48):
        a_n = chain[-1][0]
        s2 = (a_n * mp.cot(a_n * z)) ** 2
        for (a, b), (a_next, _) in reversed(list(zip(chain, chain[1:]))):
            s2 = s2 * (s2 + a * b) / (s2 + a_next * a_next)
        if one_root:
            ga, gb = chain[0]
            s2 = s2 * (s2 + gb * gb) / (s2 + ga * ga)
        return s2


def test_int_walks_match_mpf_reference_walk():
    """The integer Landen walks against the mpf walk at twice the precision."""
    routes = set()

    @given(_lattice_curves(), st.integers(64, 400), st.integers(-40, 40), st.integers(1, 49))
    def check(curve, prec, k, u):
        lat = analytic._lattice(curve, prec)
        routes.add(lat.route)
        walk = _reference_walk(curve, 2 * prec)
        with mp.workprec(prec + 48):
            s2 = mp.ldexp(1 + abs(lat.e1), k)
            z = analytic._landen_log(lat, s2)
        assert abs(z - _reference_log(walk, s2, 2 * prec)) <= mp.ldexp(z, 8 - prec)
        # away from 2-torsion, so that x - e1 is not all rounding
        om = lat.omega
        with mp.workprec(prec + 48):
            t = om * u / 100
        x, y = analytic.exp_E(curve, t, prec)
        with mp.workprec(2 * prec + 48):
            s2r = _reference_exp_s2(walk, t, 2 * prec)
            assert abs(x - lat.e1 - s2r) <= mp.ldexp(s2r + abs(lat.e1), 8 - prec)
            e1, e2, e3 = walk[:3]
            yr = -mp.sqrt(abs(s2r * (e1 + s2r - e2) * (e1 + s2r - e3)))
            assert abs(y - yr) <= mp.ldexp(abs(yr), 8 - prec)

    check()
    assert routes == {"three-real-roots", "one-real-root"}


# --- the kernels against mpmath at twice the working precision ---------------
# exp_E and elliptic_log round once at the end and canonical_height_local takes
# one log; each is asked to match its mpmath reference evaluated at 2 prec to
# 2^-prec, relative to the size of the value in the lattice's units (omega^-2
# for x, omega^-3 for y), so that a y next to 2-torsion is held to the scale
# of the curve, not to its own vanishing size.

TWICE_PRECISIONS = (64, 128, 256)


def _within(got, ref, prec, scale=0):
    with mp.workprec(4 * prec):
        return abs(got - ref) <= mp.ldexp(max(abs(ref), scale), -prec)


def test_exp_E_matches_mpmath_at_twice_precision():
    """z within j ulps (at prec + 48 bits) of the pole guard or of omega/2, or
    at u/1000 of the half period; on the flip side t = omega - z.  Below the
    guard the map raises."""
    seen = set()

    @given(_integral_curves_through(), st.sampled_from(TWICE_PRECISIONS),
           st.sampled_from(("pole", "half", "generic")), st.booleans(),
           st.integers(-4, 4), st.integers(1, 999))
    def check(curve_point, prec, kind, flip, j, u):
        curve, _ = curve_point
        per = analytic.real_period(curve, prec)
        om = per.omega
        with mp.workprec(4 * prec + 64):
            z = {"pole": mp.ldexp(om, -prec // 4), "half": om / 2, "generic": om * u / 2000}[kind]
            z += j * mp.ldexp(1, mp.mag(z) - prec - 48)
            t = om - z if flip else z
        seen.update((per.route, (kind, flip)))
        if kind == "pole" and j < 0:
            with pytest.raises(PoleProximityError):
                analytic.exp_E(curve, t, prec)
            return
        x, y = analytic.exp_E(curve, t, prec)
        xr, yr = reference_exp(curve, t, om, 2 * prec)
        assert _within(x, xr, prec, om**-2) and _within(y, yr, prec, om**-3)

    check()
    assert seen >= {"three-real-roots", "one-real-root", ("pole", True), ("half", True),
                    ("pole", False), ("half", False)}


def test_elliptic_log_matches_mpmath_at_twice_precision():
    """x = e1 + 2^k (1 + |e1|) from next to 2-torsion to far out, both signs of y.

    Within 2^-k of e1, z - omega/2 ~ sqrt(x - e1) turns the 2^-scale error of
    the exact roots into 2^(k/2 - scale); k >= -96 keeps that below 2^-prec.
    """
    routes = set()

    @given(_integral_curves_through(), st.sampled_from(TWICE_PRECISIONS),
           st.integers(-96, 96), st.booleans())
    def check(curve_point, prec, k, upper):
        curve, _ = curve_point
        lat = analytic._lattice(curve, prec)
        routes.add(lat.route)
        e1 = reference_roots(curve, 2 * prec)[0]
        with mp.workprec(prec + 48):
            x = e1 + mp.ldexp(1 + abs(e1), k)
        with mp.workprec(2 * prec + 64):
            y = mp.sqrt(x**3 + _mpf(curve.a) * x + _mpf(curve.b))
        got = analytic.elliptic_log(curve, (x, y if upper else -y), prec).t
        z = reference_log(curve, x, 2 * prec)
        with mp.workprec(2 * prec + 64):
            ref = lat.omega - z if upper else z
        assert _within(got, ref, prec)

    check()
    assert routes == {"three-real-roots", "one-real-root"}


@st.composite
def _egg_points(draw):
    """(curve, P) with P on the egg: three real roots and x0 left of the local minimum."""
    x0 = draw(st.integers(-5, 3))
    y0 = draw(st.integers(1, 9))
    a = draw(st.integers(-60, -1))
    b = y0 * y0 - x0**3 - a * x0
    assume(4 * a**3 + 27 * b**2 < 0 and (x0 < 0 or 3 * x0 * x0 < -a))
    return RationalCurve(a=a, b=b), CurvePoint.affine(x0, y0)


def _reference_local_height(curve, pt, prec):
    """hhat(P) as the parts the kernel folds into one log, each its own mp.log at prec.

    lambda_inf from the duplication series (reference_lambda) and the lambda_p
    rationals of the library on the minimal model, plus (1/2) log den' - log u.
    """
    cu, pu, _ = ec_core.integral_model(curve, pt)
    ainvs, u, c4, primes = heights._reduction_data(int(cu.a), int(cu.b))
    a1, a2, a3 = ainvs[:3]
    x = pu.x / (u * u) - Fraction(a1 * a1 + 4 * a2, 12)
    y = pu.y / u**3 - (a1 * x + a3) / 2
    den = pu.x.denominator
    with mp.workprec(prec + 64):
        total = reference_lambda(cu, _mpf(pu.x), prec)
        for p, lam in heights._lambda_ps(ainvs, c4, primes, x, y):
            total += lam.numerator * mp.log(p) / lam.denominator
            while den % p == 0:
                den //= p
        return total + mp.log(den) / 2 - mp.log(u)


def test_local_height_matches_mpmath_at_twice_precision():
    """[n]P for n <= 50 on curves through a small point, and on the egg."""
    seen = set()

    @given(st.one_of(_integral_curves_through(), _egg_points()),
           st.sampled_from(TWICE_PRECISIONS), st.integers(1, 50))
    def check(curve_point, prec, n):
        curve, P = curve_point
        nP = ec_core.scalar_mul(curve, n, P)
        assume(not nP.is_identity)
        got = heights.canonical_height_local(curve, nP, prec).value
        if got == 0:  # torsion, decided exactly
            assert heights._is_torsion(curve, P)
            return
        lat = analytic._lattice(curve, prec)
        seen.add(lat.route)
        if lat.route == "three-real-roots" and not ec_core.on_identity_component(curve, nP):
            seen.add("egg")
        assert _within(got, _reference_local_height(curve, nP, 2 * prec), prec)

    check()
    assert seen == {"three-real-roots", "one-real-root", "egg"}
