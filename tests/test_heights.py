import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dioph import ec_core, heights
from dioph.ec_core import CurvePoint, RationalCurve
from dioph.errors import BudgetExceededError, ValidationError

PREC = 192
O = CurvePoint.identity()


# --- reference: the exact doubling ladder on the full projective pair --------


def _log_of_int(n) -> float:
    n = int(n)
    bl = n.bit_length()
    if bl <= 64:
        return math.log(n)
    return math.log(n >> (bl - 64)) + (bl - 64) * math.log(2)


def _reference_double_x(a, b, p, q):
    """Projective x-coordinate of [2]P from x(P) = p/q on y^2 = x^3 + a x + b."""
    q2 = q * q
    q3 = q2 * q
    return (p * p - a * q2) ** 2 - 8 * b * p * q3, 4 * q * (p * p * p + a * p * q2 + b * q3)


def _reference_limit(curve, pt, n_max, precision_bits=PREC):
    """canonical_height_limit carried out on exact integers (the oracle).

    Exact integers need no working precision, so no budget applies.
    """
    if pt.is_identity:
        return heights.HeightValue(mp.mpf(0), precision_bits, "limit", tail_estimate=mp.mpf(0))
    cu, pu, _ = ec_core.integral_model(curve, pt)
    a, b = int(cu.a), int(cu.b)
    disc = -16 * (4 * a**3 + 27 * b**2)
    gcd_bound = disc * disc
    p, q = pu.x.numerator, pu.x.denominator
    estimates = []
    for k in range(n_max + 1):
        h = _log_of_int(max(abs(p), abs(q)))
        estimates.append(h / 4**k / 2)
        if k == n_max:
            break
        fp, fq = _reference_double_x(a, b, p, q)
        if fq == 0:
            return heights.HeightValue(mp.mpf(0), precision_bits, "limit", tail_estimate=mp.mpf(0))
        g = math.gcd(math.gcd(fp, gcd_bound), math.gcd(fq, gcd_bound))
        p, q = fp // g, fq // g
    with mp.workprec(precision_bits):
        value = mp.mpf(estimates[-1])
        tail = abs(mp.mpf(estimates[-1]) - mp.mpf(estimates[-2])) / 3
        return heights.HeightValue(+value, precision_bits, "limit", tail_estimate=+tail)


def _assert_matches_reference(curve, pt, n_max):
    got = heights.canonical_height_limit(curve, pt, n_max, PREC)
    ref = _reference_limit(curve, pt, n_max)
    assert got.value == ref.value
    assert got.tail_estimate == ref.tail_estimate
    return got


WORKLOAD_CURVES = (
    (RationalCurve(a=-12, b=-1, label="110160.cd1"), CurvePoint.affine(5, 8)),
    (RationalCurve(a=0, b=-2, label="x3-2"), CurvePoint.affine(3, 5)),
    # 37a1 in its short, non-integral model
    (RationalCurve(a=-1, b=Fraction(1, 4), label="37a1"),
     CurvePoint.affine(0, Fraction(1, 2))),
)


def test_naive_height_product_formula(curve_110160):
    # only the archimedean place contributes for x = 5/1
    h = heights.naive_height(curve_110160, CurvePoint.affine(5, 8), PREC)
    assert abs(h.value - mp.log(5)) < 1e-30
    assert heights.naive_height(curve_110160, O, PREC).value == 0
    # x(2P) = 1409/256 in lowest terms: gcd(1409, 256) = 1, max = 1409
    P2 = ec_core.scalar_mul(curve_110160, 2, CurvePoint.affine(5, 8))
    h2 = heights.naive_height(curve_110160, P2, PREC)
    assert abs(h2.value - mp.log(1409)) < 1e-30


def test_canonical_limit_identity_and_torsion(curve_110160, curve_lemniscatic):
    assert heights.canonical_height_limit(curve_110160, O, 6, PREC).value == 0
    # 2-torsion (1, 0) on y^2 = x^3 - x
    t = heights.canonical_height_limit(curve_lemniscatic, CurvePoint.affine(1, 0), 6, PREC)
    assert t.value == 0


def test_canonical_local_torsion(curve_lemniscatic, curve_j0):
    for cur, pt in ((curve_lemniscatic, CurvePoint.affine(0, 0)),
                    (curve_lemniscatic, CurvePoint.affine(1, 0)),
                    (curve_j0, CurvePoint.affine(0, 1)),
                    (curve_j0, CurvePoint.affine(-1, 0))):
        assert heights.canonical_height_local(cur, pt, PREC).value == 0


def test_nmax_precondition(curve_110160):
    with pytest.raises(ValidationError):
        heights.canonical_height_limit(curve_110160, CurvePoint.affine(5, 8), 3, PREC)


def test_limit_vs_local_cross_check(curve_110160, curve_mordell):
    # the two independent algorithms must agree; no reference value assumed
    for cur in (curve_110160, curve_mordell):
        P = cur.generator_hint
        loc = heights.canonical_height_local(cur, P, PREC)
        lim = heights.canonical_height_limit(cur, P, n_max=11, precision_bits=PREC)
        assert float(loc.value) > 0
        assert abs(loc.value - lim.value) < 1e-6
        assert float(lim.tail_estimate) < 1e-6


def test_quadraticity_local(curve_110160):
    P = CurvePoint.affine(5, 8)
    h1 = heights.canonical_height_local(curve_110160, P, PREC).value
    for n in (2, 3):
        Pn = ec_core.scalar_mul(curve_110160, n, P)
        hn = heights.canonical_height_local(curve_110160, Pn, PREC).value
        assert abs(hn / h1 - n * n) < 1e-8


def test_quadraticity_range(curve_110160, curve_mordell):
    for cur in (curve_110160, curve_mordell):
        P = cur.generator_hint
        h1 = heights.canonical_height_local(cur, P, PREC).value
        for n in range(-10, 11):
            if n == 0:
                continue
            hn = heights.canonical_height_local(cur, ec_core.scalar_mul(cur, n, P), PREC).value
            assert abs(hn - n * n * h1) < 1e-6 * n * n


def _parallelogram_defect(curve, p1, p2):
    """hhat(P+Q) + hhat(P-Q) - 2 hhat(P) - 2 hhat(Q), by the local route."""
    h = lambda q: heights.canonical_height_local(curve, q, PREC).value
    s = ec_core.add(curve, p1, p2)
    d = ec_core.add(curve, p1, ec_core.negate(p2))
    with mp.workprec(PREC):
        return +(h(s) + h(d) - 2 * h(p1) - 2 * h(p2))


def test_parallelogram_defect(curve_110160):
    P = CurvePoint.affine(5, 8)
    assert abs(_parallelogram_defect(curve_110160, P, O)) < 1e-8
    assert abs(_parallelogram_defect(curve_110160, P, P)) < 1e-8
    rnd = random.Random(17)
    for _ in range(50):
        a = rnd.choice([-3, -2, -1, 1, 2, 3])
        b = rnd.choice([-3, -2, -1, 1, 2, 3])
        A = ec_core.scalar_mul(curve_110160, a, P)
        B = ec_core.scalar_mul(curve_110160, b, P)
        assert abs(_parallelogram_defect(curve_110160, A, B)) < 1e-6


def test_naive_vs_canonical_bounded(curve_110160):
    # |hhat - log H| stays bounded over multiples; the bound is recorded only
    P = CurvePoint.affine(5, 8)
    h1 = float(heights.canonical_height_local(curve_110160, P, PREC).value)
    diffs = []
    for n in range(1, 51):
        Pn = ec_core.scalar_mul(curve_110160, n, P)
        naive = float(heights.naive_height(curve_110160, Pn, PREC).value)
        diffs.append(abs(n * n * h1 - naive))
    bound = max(diffs)
    assert math.isfinite(bound)


def test_digit_budget_error(monkeypatch, curve_110160):
    # the budget bounds the ladder's working precision, which starts at 256 bits
    monkeypatch.setattr(heights, "DEFAULT_DIGIT_BUDGET", 200)
    with pytest.raises(BudgetExceededError,
                       match="working precision 256 bits exceeds the 200-bit budget"):
        heights.canonical_height_limit(curve_110160, CurvePoint.affine(5, 8),
                                       n_max=12, precision_bits=PREC)


@pytest.mark.parametrize("n_max", (14, 20, 26, 32))
def test_limit_reach_at_default_budget(curve_110160, n_max):
    # the pair the ladder encloses has about 4^n_max * 3 bits, far past the
    # default budget, while the enclosure itself stays at 256 bits; the error
    # against the local route falls by 4 per doubling down to the float log
    P = CurvePoint.affine(5, 8)
    lim = heights.canonical_height_limit(curve_110160, P, n_max, PREC)
    loc = heights.canonical_height_local(curve_110160, P, PREC)
    assert abs(lim.value - loc.value) < max(1e-9 * 4.0 ** (14 - n_max), 1e-14)


def test_height_model_invariance(curve_110160):
    # canonical height is invariant under (a, b) -> (a u^4, b u^6), x -> u^2 x
    P = CurvePoint.affine(5, 8)
    u = 2
    cur2 = ec_core.RationalCurve(a=curve_110160.a * u**4, b=curve_110160.b * u**6)
    P2 = CurvePoint.affine(P.x * u * u, P.y * u**3)
    h1 = heights.canonical_height_local(curve_110160, P, PREC).value
    h2 = heights.canonical_height_local(cur2, P2, PREC).value
    assert abs(h1 - h2) < 1e-9


def test_rational_coefficient_curve():
    # non-integral model: scaled internally before local decomposition
    cur = ec_core.RationalCurve(a=Fraction(-12, 16**2), b=Fraction(-1, 16**3))
    # (5/16, 8/64) maps from (5, 8) under u = 1/4 wait: x/u^2 with u = 4
    P = CurvePoint.affine(Fraction(5, 16), Fraction(8, 64))
    assert ec_core.on_curve(cur, P)
    h = heights.canonical_height_local(cur, P, PREC)
    base = ec_core.RationalCurve(a=Fraction(-12), b=Fraction(-1))
    hb = heights.canonical_height_local(base, CurvePoint.affine(5, 8), PREC)
    assert abs(h.value - hb.value) < 1e-9


@st.composite
def _curves_with_points(draw):
    """y^2 = x^3 + a x + b through (u/w^2, v/w^3); b has denominator up to w^6."""
    w = draw(st.integers(1, 4))
    x = Fraction(draw(st.integers(-30, 30)), w * w)
    y = Fraction(draw(st.integers(-30, 30)), w**3)
    a = Fraction(draw(st.integers(-30, 30)), draw(st.sampled_from((1, 4, 16))))
    b = y * y - x**3 - a * x
    assume(4 * a**3 + 27 * b**2 != 0)
    return RationalCurve(a=a, b=b), CurvePoint(x, y)


@given(_curves_with_points(), st.integers(4, 7))
def test_limit_matches_exact_ladder_random(curve_point, n_max):
    _assert_matches_reference(*curve_point, n_max)


@pytest.mark.parametrize("curve, pt", WORKLOAD_CURVES, ids=[c.label for c, _ in WORKLOAD_CURVES])
def test_limit_matches_exact_ladder_workload_curves(curve, pt):
    _assert_matches_reference(curve, pt, 9)


@pytest.mark.parametrize("curve, pt", [
    (RationalCurve(a=-1, b=0), CurvePoint.affine(1, 0)),    # 2-torsion
    (RationalCurve(a=-1, b=0), CurvePoint.affine(0, 0)),    # 2-torsion
    (RationalCurve(a=0, b=1), CurvePoint.affine(-1, 0)),    # 2-torsion
    (RationalCurve(a=0, b=1), CurvePoint.affine(0, 1)),     # 3-torsion
    (RationalCurve(a=0, b=1), CurvePoint.affine(2, 3)),     # 6-torsion
    (RationalCurve(a=0, b=16), CurvePoint.affine(0, 4)),    # 3-torsion
])
def test_limit_matches_exact_ladder_torsion(curve, pt):
    assert _assert_matches_reference(curve, pt, 6).value == 0


def test_limit_matches_exact_ladder_non_integral_37a1():
    curve, P = WORKLOAD_CURVES[2]
    for n in (1, 2, 3, -5):
        _assert_matches_reference(curve, ec_core.scalar_mul(curve, n, P), 7)


def _top_bits_of(n: int):
    """(bit length, top 64 bits) of the integer n >= 0, built exactly."""
    bl = n.bit_length()
    return bl, n >> max(bl - 64, 0)


def _holds(ball, n) -> bool:
    """Whether the ball (m +- r) 2^e holds the rational n."""
    scale = Fraction(2) ** ball.e
    return abs(n - ball.m * scale) <= ball.r * scale


_BIG = st.integers(-2**300, 2**300)


@given(st.sampled_from((8, 32, 53, 128)), _BIG,
       st.one_of(st.integers(-2**9, 2**9), _BIG), st.integers(-99, 99),
       st.integers(-99, 99), st.integers(1, 2**70), st.integers(1, 2**70))
def test_ball_enclosures_hold_the_exact_doubling(prec, p, dq, a, b, g, d):
    """Every operation of _double_x, and the division by a g dividing the
    operands, gives a ball of at most prec bits that holds the exact
    integer, and _height_bits of balls either gives the exact top bits or
    raises _Undecided.  q = p + dq, p - q and p + q make balls that straddle
    0 or cancel, and operands of different sizes; d need not divide."""
    def steps(P, Q, div):
        fp, fq = heights._double_x(a, b, P, Q)
        sp, sq = heights._double_x(a, b, P - Q, P + Q)
        return [P, Q, fp, fq, div(P, g), div(Q, g), div(fp, g), div(fq, g), div(sp, g),
                div(sq, g), P * Q, a * P, (P - Q) ** 2, sp, sq, div(P, d), div(fq, d)]

    exact = steps(g * p, g * (p + dq), Fraction)
    balls = steps(*(heights._Ball(n, 0, 0, prec) for n in exact[:2]), lambda v, n: v / n)
    for ball, n in zip(balls, exact):
        assert _holds(ball, n)
        assert (abs(ball.m) | ball.r).bit_length() <= prec
    for i in range(0, 10, 2):
        try:
            got = heights._height_bits(balls[i], balls[i + 1])
        except heights._Undecided:
            continue
        assert got == _top_bits_of(int(max(abs(exact[i]), abs(exact[i + 1]))))


def test_ball_enclosures_undecided_across_a_power_of_two():
    # (2^128 - 1 +- 2) 2^10 holds integers of 138 and 139 bits; 2 less, it does not
    one = heights._Ball(1, 0, 0, 128)
    with pytest.raises(heights._Undecided):
        heights._height_bits(heights._Ball(2**128 - 1, 2, 10, 128), one)
    assert heights._height_bits(heights._Ball(2**128 - 3, 2, 10, 128), one) == (138, 2**64 - 1)


def test_limit_precision_escalation(monkeypatch):
    # at 32 bits no enclosure of a large x-coordinate pins its top 64 bits,
    # so the ladder must rerun at doubled precision until it does
    precisions = []
    ladder = heights._ladder

    def spy(a, b, x, n_max, prec):
        precisions.append(prec)
        return ladder(a, b, x, n_max, prec)

    monkeypatch.setattr(heights, "_START_PRECISION", 32)
    monkeypatch.setattr(heights, "_ladder", spy)
    before = mp.iv.prec
    for curve, pt in WORKLOAD_CURVES:
        precisions.clear()
        _assert_matches_reference(curve, pt, 9)
        assert precisions[0] == 32 and len(precisions) > 1
        assert precisions == [32 * 2**i for i in range(len(precisions))]
        assert mp.iv.prec == before


@pytest.mark.parametrize("curve, pt", WORKLOAD_CURVES[::2], ids=[c.label for c, _ in WORKLOAD_CURVES[::2]])
@pytest.mark.parametrize("budget", (3, 50, 200, 1000, 20000))
def test_digit_budget_parity(monkeypatch, curve, pt, budget):
    # from 32 bits the ladder reruns at 64 and 128: a budget below one of
    # those raises, naming the first precision over it, and a budget that
    # holds them all gives the exact ladder's value
    precisions = []
    ladder = heights._ladder
    monkeypatch.setattr(heights, "_START_PRECISION", 32)
    monkeypatch.setattr(heights, "_ladder",
                        lambda a, b, x, n_max, prec: precisions.append(prec)
                        or ladder(a, b, x, n_max, prec))
    before = mp.iv.prec
    heights.canonical_height_limit(curve, pt, 9, PREC)
    needed = list(precisions)
    precisions.clear()
    assert needed == [32, 64, 128]
    monkeypatch.setattr(heights, "DEFAULT_DIGIT_BUDGET", budget)
    over = [p for p in needed if p > budget]
    if over:
        with pytest.raises(BudgetExceededError,
                           match=f"precision {over[0]} bits exceeds the {budget}-bit budget"):
            heights.canonical_height_limit(curve, pt, 9, PREC)
        assert precisions == [p for p in needed if p <= budget]
    else:
        got = heights.canonical_height_limit(curve, pt, 9, PREC)
        assert got.value == _reference_limit(curve, pt, 9).value
    assert mp.iv.prec == before


# --- reference: the local route at a kernel multiple M ----------------------


def _reference_orders(curve_int, pt, multiple_cap=4000):
    """{p: least m with p | den x(mP)} over the primes p | disc, by walking
    mP = P, 2P, ... with the Fraction group law, or None when the walk
    reaches O first (the oracle)."""
    pending = set(ec_core._factorize(int(curve_int.discriminant)))
    orders = {}
    running = pt
    m = 1
    while pending:
        if running.is_identity:
            return None
        for p in list(pending):
            if running.x.denominator % p == 0:
                orders[p] = m
                pending.discard(p)
        if not pending:
            break
        m += 1
        if m > multiple_cap:
            raise BudgetExceededError(
                f"kernel-of-reduction order exceeds {multiple_cap} at primes {sorted(pending)}")
        running = ec_core.add(curve_int, running, pt)
    return orders


def _reference_kernel_multiple(curve_int, pt, multiple_cap=4000):
    """(M, (p, q)) with M the lcm of the orders of the exact walk and
    x(MP) = p/q in lowest terms, or (0, None) for a torsion point (the oracle).

    With M = 2^s o, o odd, oP comes by scalar_mul, then s doublings of x
    alone, each divided by its gcd with disc^2, which is the whole gcd (the
    resultant fact of the doubling ladder).  x(MP) has about M^2 times the
    bits of x(P); an estimate over DEFAULT_DIGIT_BUDGET raises.
    """
    orders = _reference_orders(curve_int, pt, multiple_cap)
    if orders is None:
        return 0, None
    M = math.lcm(*orders.values())
    bits = M * M * max(max(abs(pt.x.numerator), pt.x.denominator).bit_length(), 8)
    if bits > heights.DEFAULT_DIGIT_BUDGET:
        raise BudgetExceededError(
            f"x(MP) at M = {M} would have about {bits} bits, "
            f"over the {heights.DEFAULT_DIGIT_BUDGET}-bit budget")
    a, b = int(curve_int.a), int(curve_int.b)
    gcd_bound = int(curve_int.discriminant) ** 2
    s = (M & -M).bit_length() - 1
    Q = ec_core.scalar_mul(curve_int, M >> s, pt)
    p, q = Q.x.numerator, Q.x.denominator
    for _ in range(s):
        fp, fq = _reference_double_x(a, b, p, q)
        g = math.gcd(fp % gcd_bound, fq % gcd_bound, gcd_bound)
        p, q = fp // g, fq // g
    return M, (p, q)


def _reference_local(curve, pt, precision_bits=PREC):
    """hhat = (lam_inf(x(MP)) + (1/2) log den x(MP)) / M^2 (the oracle).

    In the kernel of reduction at every bad prime, MP's local heights are
    pure denominator terms, so no reduction type and no minimal model enter.
    """
    cu, pu, _ = ec_core.integral_model(curve, pt)
    M, xq = _reference_kernel_multiple(cu, pu)
    if M == 0:
        return mp.mpf(0)
    p, q = xq
    with mp.workprec(precision_bits + 64):
        lam = heights._lambda_archimedean(cu, mp.mpf(p) / q, precision_bits)
        return +((lam + mp.log(q) / 2) / M**2)


def _assert_local_matches_reference(curve, pt, prec=PREC):
    got = heights.canonical_height_local(curve, pt, prec).value
    ref = _reference_local(curve, pt, prec)
    assert abs(got - ref) <= mp.ldexp(abs(ref), 16 - prec)
    return got


def _outcome(fn, *args):
    """fn(*args), or the message of the BudgetExceededError it raises."""
    try:
        return fn(*args)
    except BudgetExceededError as e:
        return f"BudgetExceededError: {e}"


@pytest.mark.parametrize("curve, pt", [
    (RationalCurve(a=-12, b=-1), CurvePoint.affine(5, 8)),
    (RationalCurve(a=0, b=-2), CurvePoint.affine(3, 5)),
])
def test_local_matches_x_of_MP_multiples(curve, pt):
    for n in range(1, 11):
        _assert_local_matches_reference(curve, ec_core.scalar_mul(curve, n, pt))


@pytest.mark.parametrize("curve, pt", [
    (RationalCurve(a=-1, b=Fraction(1, 4)), CurvePoint.affine(0, Fraction(1, 2))),
    (RationalCurve(a=-16, b=16), CurvePoint.affine(0, 4)),
], ids=["short", "integral"])
def test_local_matches_x_of_MP_37a1(curve, pt):
    for n in (1, 2, 3, -5):
        _assert_local_matches_reference(curve, ec_core.scalar_mul(curve, n, pt))


# Each curve exercises one branch of the local height at a bad prime p: on
# the global minimal model, P reduces to the singular point when v(psi2) > 0
# and v(dF/dx) > 0.  u is the scaling of the short model onto that model.
REDUCTION_CASES = {
    "split multiplicative at 11, v(psi2) = 1": (-48, 612, (4, 22)),
    "non-split multiplicative at 11, v(psi2) = 1; u = 3": (-243, 86751, (-9, 297)),
    "multiplicative at 2 on a1 = 1; u = 2": (-19, 46, (2, 4)),
    "additive at 2 and 3, non-singular point": (-24, -44, (-3, 1)),
    "additive at 2 and 3, singular point": (-6, -4, (4, 6)),
    "additive at 7": (-49, 49, (11, 29)),
    "additive at 5, singular point": (-15, 50, (10, 30)),
    "not minimal at 2: u = 2": (688, -3712, (8, 48)),
    "not minimal at 2 and 3: u = 6": (-15552, -5552064, (216, 1080)),
    "not minimal at 3, singular point: u = 3": (-972, 47385, (63, 486)),
    "not minimal at 5, singular point: u = 5": (-9375, 32421875, (-250, 4375)),
    "good reduction at 5 once minimal: u = 5": (-28125, 5062500, (0, 2250)),
    "good reduction at 2 once minimal, a1 = 1: u = 2": (-3, 62, (2, 8)),
}


@pytest.mark.parametrize("case", list(REDUCTION_CASES))
def test_local_matches_x_of_MP_reduction_types(case):
    a, b, pt = REDUCTION_CASES[case]
    curve = RationalCurve(a=a, b=b)
    for n in (1, 2):
        _assert_local_matches_reference(curve, ec_core.scalar_mul(curve, n, CurvePoint.affine(*pt)))


@st.composite
def _small_curves_with_points(draw):
    """Like _curves_with_points, smaller, so most kernel multiples stay small;
    the point is [n]P on the integral model for n = 1, 2 or 3."""
    w = draw(st.integers(1, 2))
    x = Fraction(draw(st.integers(-3, 3)), w * w)
    y = Fraction(draw(st.integers(-3, 3)), w**3)
    a = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 4, 16))))
    b = y * y - x**3 - a * x
    assume(4 * a**3 + 27 * b**2 != 0)
    cu, pu, _ = ec_core.integral_model(RationalCurve(a=a, b=b), CurvePoint(x, y))
    return cu, ec_core.scalar_mul(cu, draw(st.integers(1, 3)), pu)


@settings(max_examples=200)  # about one draw in seven has all its orders <= 8
@given(_small_curves_with_points())
def test_kernel_multiple_matches_scalar_mul_random(curve_point):
    # where the x(MP) oracle is cheap, M <= lcm(1..8) = 840, the local route
    # at P agrees with it; elsewhere it still returns a positive height
    curve, P = curve_point
    if isinstance(_outcome(_reference_orders, curve, P, 8), str):
        assert heights.canonical_height_local(curve, P, PREC).value > 0
    else:
        _assert_local_matches_reference(curve, P)


@given(_curves_with_points(), st.integers(0, 30))
def test_kernel_orders_match_exact_walk_random(curve_point, multiple_cap):
    # the exact torsion test: the walk of multiples reaches O (the point is
    # torsion) exactly when the local route returns 0, at every cap from 12
    cu, pu, _ = ec_core.integral_model(*curve_point)
    torsion = _outcome(_reference_orders, cu, pu, max(multiple_cap, 12)) is None
    assert torsion == (heights.canonical_height_local(cu, pu, PREC).value == 0)


# Points reducing to the singular point of the curve mod p.
SINGULAR_REDUCTION = [
    (-16, 64, (4, 8), 2),
    (5, 214, (3, 16), 2),
    (-16, 16, (0, 4), 2),                   # 37a1, integral model
    (-3, 83, (1, 9), 3),
    (-52, 754, (3, 25), 5),                 # M = 780
    (-27, 976562554, (3, 31250), 5),        # orders at 79 and 157 exceed 60
]


@pytest.mark.parametrize("a, b, pt, p", SINGULAR_REDUCTION)
def test_kernel_orders_singular_reduction(a, b, pt, p):
    # against the x(MP) oracle where M <= 200, else against the limit route
    curve, P = RationalCurve(a=a, b=b), CurvePoint.affine(*pt)
    assert curve.discriminant % p == 0 and P.y % p == 0 and (3 * P.x**2 + a) % p == 0
    orders = _outcome(_reference_orders, curve, P, 60)
    if isinstance(orders, dict) and math.lcm(*orders.values()) <= 200:
        _assert_local_matches_reference(curve, P)
    else:
        got = heights.canonical_height_local(curve, P, PREC).value
        assert abs(got - heights.canonical_height_limit(curve, P, 20, PREC).value) < 1e-10


@pytest.mark.parametrize("a, b, pt, order", [
    (-36315, 12799350, (75, 3240), 10),
    (-33339627, 73697852646, (3027, -22680), 12),
])
@pytest.mark.parametrize("multiple_cap", (0, 1, 8, 9, 11, 12, 4000))
def test_kernel_multiple_torsion_cap_parity(a, b, pt, order, multiple_cap):
    # torsion of order 10 and 12: the oracle's walk raises below the order
    # and reaches O at it, and the local route, which has no cap, returns 0
    curve, P = RationalCurve(a=a, b=b), CurvePoint.affine(*pt)
    ref = _outcome(_reference_kernel_multiple, curve, P, multiple_cap)
    assert (ref == (0, None)) == (multiple_cap >= order)
    assert heights.canonical_height_local(curve, P, PREC).value == 0


def test_kernel_multiple_budget_on_M():
    # orders 2, 10, 12 and 38 give M = 1140 and x(MP) a 2.48M-bit
    # denominator, which the oracle builds in seconds; the local route
    # evaluates at P
    curve, P = RationalCurve(a=-1, b=28), CurvePoint.affine(-3, 2)
    assert _reference_orders(curve, P) == {2: 2, 11: 10, 13: 12, 37: 38}
    start = time.perf_counter()
    heights.canonical_height_local(curve, P, PREC)
    assert time.perf_counter() - start < 0.1
    _assert_local_matches_reference(curve, P)


def test_local_reach_past_old_budget():
    # M = 2964: the x(MP) estimate, 2964^2 * 8 bits, is over the default
    # budget, where the route through x(MP) exited 2
    curve, P = RationalCurve(a=-12, b=90), CurvePoint.affine(-5, 5)
    assert _reference_orders(curve, P) == {2: 2, 3: 3, 37: 19, 53: 52}
    with pytest.raises(BudgetExceededError, match="M = 2964"):
        _reference_kernel_multiple(curve, P)
    h = heights.canonical_height_local(curve, P, PREC).value
    assert abs(h - heights.canonical_height_limit(curve, P, 20, PREC).value) < 1e-10
    h2 = heights.canonical_height_local(curve, ec_core.scalar_mul(curve, 2, P), PREC).value
    assert abs(h2 - 4 * h) <= mp.ldexp(h2, 16 - PREC)


@pytest.mark.parametrize("a, b, pt, n, M, odd, doublings", [
    (0, -2, (3, 5), 2, 3, 3, 0),        # M odd: no doubling
    (-12, -1, (5, 8), 1, 36, 9, 2),
    (-3, 7, (-1, 3), 1, 36, 9, 2),
    (-16, 16, (0, 4), 1, 190, 95, 1),   # 37a1, integral model
    (0, -28, (4, 6), 1, 42, 21, 1),
    (-12, -1, (5, 8), 7, 36, 9, 2),     # [7]P: x(252 P) has a 171,650-bit denominator
    (-2, 0, ("9/4", "21/8"), 1, 1, 1, 0),   # M = 1: the one bad prime, 2, divides den x(P)
])
def test_kernel_multiple_paths(a, b, pt, n, M, odd, doublings):
    # the oracle builds oP by the group law and then doubles x alone, in
    # lowest terms, as scalar_mul does in full where that is quick (n = 1);
    # the local route at [n]P agrees with it
    curve = RationalCurve(a=a, b=b)
    P = ec_core.scalar_mul(curve, n, CurvePoint.affine(*pt))
    got = _reference_kernel_multiple(curve, P)
    assert got[0] == M == odd << doublings
    assert math.gcd(*got[1]) == 1 and got[1][1] > 0
    if n == 1:
        Q = ec_core.scalar_mul(curve, M, P)
        assert got[1] == (Q.x.numerator, Q.x.denominator)
    _assert_local_matches_reference(curve, P)


@pytest.mark.parametrize("a, b, pt", [
    (-1, 0, (1, 0)),    # 2-torsion
    (-1, 0, (0, 0)),    # 2-torsion
    (0, 1, (-1, 0)),    # 2-torsion
    (0, 1, (0, 1)),     # 3-torsion
    (0, 16, (0, 4)),    # 3-torsion
])
def test_kernel_multiple_torsion(a, b, pt):
    curve = RationalCurve(a=a, b=b)
    P = CurvePoint.affine(*pt)
    assert heights.canonical_height_local(curve, P, PREC).value == 0
    assert _reference_kernel_multiple(curve, P) == (0, None)


def test_log_of_product_matches_separate_logs_for_any_common_denominator():
    """The one-log sum of canonical_height_local against one mp.log per term.

    Exponent denominators 97, 89 and 83 (multiplicative primes of large
    v_p(Delta)) make the common denominator about 2^21; the long powers are
    then taken in floating point, in bounded time.
    """
    rng = random.Random(7)
    terms = [(rng.getrandbits(900) | 1, rng.getrandbits(700) | 1, Fraction(-1, 4)),
             (rng.getrandbits(80_000) | 1, 1, Fraction(1, 2)),
             (2, 1, Fraction(-3, 97)), (3, 1, Fraction(5, 89)), (5, 1, Fraction(-7, 83)),
             (1, 7, Fraction(1))]
    for chosen in (terms[:2] + terms[-1:], terms):
        with mp.workprec(320):
            start = time.perf_counter()
            got = heights._log_of_product(chosen)
            assert time.perf_counter() - start < 0.5
        with mp.workprec(1024):
            ref = mp.fsum(c.numerator * mp.log(mp.mpf(n) / d) / c.denominator for n, d, c in chosen)
        assert abs(got - ref) <= mp.ldexp(1, -310) * (1 + abs(ref))
