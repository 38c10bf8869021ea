import random
import time
from fractions import Fraction

import pytest

from dioph import ec_core
from dioph.ec_core import CurvePoint, RationalCurve
from dioph.errors import BudgetExceededError, ValidationError

O = CurvePoint.identity()


def test_on_curve_examples(curve_110160):
    # 5^3 - 12*5 - 1 = 64 = 8^2
    assert ec_core.on_curve(curve_110160, CurvePoint.affine(5, 8))
    assert ec_core.on_curve(curve_110160, O)
    # 64 != 81
    assert not ec_core.on_curve(curve_110160, CurvePoint.affine(5, 9))


def test_discriminant_recomputed(curve_110160):
    a, b = curve_110160.a, curve_110160.b
    assert curve_110160.discriminant == -16 * (4 * a**3 + 27 * b**2)
    assert curve_110160.discriminant == 110160


def test_singular_curve_rejected():
    with pytest.raises(ValidationError):
        RationalCurve(a=Fraction(0), b=Fraction(0))


def test_add_identity_and_inverse(curve_110160):
    P = CurvePoint.affine(5, 8)
    assert ec_core.add(curve_110160, P, O) == P
    assert ec_core.add(curve_110160, P, CurvePoint.affine(5, -8)) == O


def test_doubling_against_hand_oracle(curve_110160):
    # chord-tangent by hand: lam = 63/16, x3 = lam^2 - 10, y3 = lam(5 - x3) - 8
    P = CurvePoint.affine(5, 8)
    D = ec_core.add(curve_110160, P, P)
    assert D == CurvePoint.affine(Fraction(1409, 256), Fraction(-40895, 4096))


def test_add_rejects_off_curve(curve_110160):
    with pytest.raises(ValidationError):
        ec_core.add(curve_110160, CurvePoint.affine(5, 9), O)


def test_scalar_mul_basics(curve_110160):
    P = CurvePoint.affine(5, 8)
    assert ec_core.scalar_mul(curve_110160, 1, P) == P
    assert ec_core.scalar_mul(curve_110160, 0, P) == O
    assert ec_core.scalar_mul(curve_110160, 2, P) == ec_core.add(curve_110160, P, P)
    threeP = ec_core.add(curve_110160, P, ec_core.scalar_mul(curve_110160, 2, P))
    assert ec_core.scalar_mul(curve_110160, 3, P) == threeP
    assert ec_core.scalar_mul(curve_110160, -3, P) == ec_core.negate(threeP)


def test_scalar_mul_additivity(curve_110160):
    P = CurvePoint.affine(5, 8)
    rnd = random.Random(1)
    for _ in range(25):
        m = rnd.randint(-20, 20)
        n = rnd.randint(-20, 20)
        lhs = ec_core.scalar_mul(curve_110160, m + n, P)
        rhs = ec_core.add(curve_110160,
                          ec_core.scalar_mul(curve_110160, m, P),
                          ec_core.scalar_mul(curve_110160, n, P))
        assert lhs == rhs


def test_group_law_axioms_random_points(curve_110160):
    P = CurvePoint.affine(5, 8)
    rnd = random.Random(7)
    pts = [ec_core.scalar_mul(curve_110160, rnd.randint(-8, 8), P) for _ in range(40)]
    # commutativity, associativity, closure (>= 100 random triples)
    for i in range(100):
        A = pts[rnd.randrange(len(pts))]
        B = pts[rnd.randrange(len(pts))]
        C = pts[rnd.randrange(len(pts))]
        AB = ec_core.add(curve_110160, A, B)
        assert AB == ec_core.add(curve_110160, B, A)
        assert ec_core.on_curve(curve_110160, AB)
        lhs = ec_core.add(curve_110160, AB, C)
        rhs = ec_core.add(curve_110160, A, ec_core.add(curve_110160, B, C))
        assert lhs == rhs
        if not A.is_identity:
            assert ec_core.add(curve_110160, A, ec_core.negate(A)) == O


def test_real_components():
    assert ec_core.real_components(RationalCurve(a=Fraction(-12), b=Fraction(-1))) == "two"
    assert ec_core.real_components(RationalCurve(a=Fraction(0), b=Fraction(1))) == "one"
    assert ec_core.real_components(RationalCurve(a=Fraction(-1), b=Fraction(0))) == "two"


def test_identity_component_classification(curve_lemniscatic):
    # roots of x^3 - x are -1, 0, 1: the oval holds x in [-1, 0]
    assert ec_core.on_identity_component(curve_lemniscatic, O)
    assert not ec_core.on_identity_component(curve_lemniscatic, CurvePoint.affine(0, 0))
    assert not ec_core.on_identity_component(curve_lemniscatic, CurvePoint.affine(-1, 0))
    assert ec_core.on_identity_component(curve_lemniscatic, CurvePoint.affine(1, 0))


def test_identity_component_nontorsion(curve_110160):
    # x = 5 exceeds the largest root ~3.4715 of x^3 - 12x - 1
    assert ec_core.on_identity_component(curve_110160, CurvePoint.affine(5, 8))
    # 2P = (1409/256, ...) with x ~ 5.504 also on the unbounded branch
    P2 = ec_core.scalar_mul(curve_110160, 2, CurvePoint.affine(5, 8))
    assert ec_core.on_identity_component(curve_110160, P2)


def test_one_component_curve_is_all_identity(curve_mordell):
    assert ec_core.on_identity_component(curve_mordell, CurvePoint.affine(3, 5))


def test_identity_component_closed_under_add(curve_110160):
    # points on the identity component form a subgroup; component parity is Z/2
    P = CurvePoint.affine(5, 8)
    rnd = random.Random(3)
    pts = [ec_core.scalar_mul(curve_110160, rnd.randint(1, 10), P) for _ in range(20)]
    on_comp = [q for q in pts if ec_core.on_identity_component(curve_110160, q)]
    for i in range(min(10, len(on_comp))):
        for j in range(i, len(on_comp)):
            s = ec_core.add(curve_110160, on_comp[i], on_comp[j])
            assert ec_core.on_identity_component(curve_110160, s)


def test_largest_real_root_bounds(curve_lemniscatic, curve_110160):
    lo, hi = ec_core.largest_real_root_bounds(curve_lemniscatic, bits=40)
    assert lo <= 1 <= hi and hi - lo <= Fraction(1, 2**40)
    lo, hi = ec_core.largest_real_root_bounds(curve_110160, bits=40)
    assert hi - lo <= Fraction(1, 2**40)
    # f(lo) <= 0 < f(hi) brackets the root
    f = lambda x: x**3 + curve_110160.a * x + curve_110160.b
    assert f(lo) <= 0 < f(hi)


def test_from_ainvs_37a():
    # [0, 0, 1, -1, 0]: y^2 + y = x^3 - x, completing the square and cube
    cur = ec_core.from_ainvs(0, 0, 1, -1, 0)
    cu, _, u = ec_core.integral_model(cur)
    assert (cu.a, cu.b) == (Fraction(-16), Fraction(16))
    # image of (0, 0): x' = u^2 * (0 + b2/12), b2 = 0
    assert ec_core.on_curve(cu, CurvePoint.affine(0, 4))


def test_curve_json_roundtrip(curve_110160):
    doc = ec_core.curve_to_json(curve_110160)
    cur2 = ec_core.curve_from_json(doc)
    assert cur2 == curve_110160
    with pytest.raises(ValidationError):
        ec_core.curve_from_json({"a": "1"})
    with pytest.raises(ValidationError):
        ec_core.curve_from_json('{"a": "0", "b": "0"}')


def test_integral_model_scaling():
    cur = RationalCurve(a=Fraction(-1, 16), b=Fraction(1, 64))
    pt = CurvePoint.affine(Fraction(1, 4), Fraction(1, 8))
    assert ec_core.on_curve(cur, pt)
    cu, pu, u = ec_core.integral_model(cur, pt)
    assert cu.a.denominator == 1 and cu.b.denominator == 1
    assert ec_core.on_curve(cu, pu)


def test_integral_model_large_prime_denominator():
    # a = 1/p^2 with p = 10^18 + 3 prime: trial division up to sqrt(p^2) and
    # Pollard rho on p^2 both take ~10^9 steps, so the square must be split
    p = 10**18 + 3
    cur = RationalCurve(a=Fraction(1, p * p), b=Fraction(1))
    t0 = time.perf_counter()
    cu, _, u = ec_core.integral_model(cur)
    elapsed = time.perf_counter() - t0
    assert u == p and (cu.a, cu.b) == (Fraction(p * p), Fraction(p**6))
    assert elapsed < 1.0


def test_factorize_prime_powers():
    p = 10**18 + 3
    assert ec_core._factorize(-12) == {2: 2, 3: 1}
    assert ec_core._factorize(110160**2) == {2: 8, 3: 8, 5: 2, 17: 2}
    assert ec_core._factorize(5 * p**3) == {5: 1, p: 3}
    assert ec_core._factorize((2**61 - 1) * (2**31 - 1)) == {2**61 - 1: 1, 2**31 - 1: 1}


def test_integral_model_two_large_primes_fails_fast():
    # rho needs ~sqrt(10^15) steps for either factor: the step budget raises
    p1, p2 = 10**15 + 37, 10**15 + 91
    cur = RationalCurve(a=Fraction(1, p1 * p2), b=Fraction(0))
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        ec_core.integral_model(cur)
    assert time.perf_counter() - t0 < 2.0
