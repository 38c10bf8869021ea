import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

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


def test_from_ainvs_37a():
    # [0, 0, 1, -1, 0]: y^2 + y = x^3 - x, completing the square and cube
    cur = ec_core.from_ainvs(0, 0, 1, -1, 0)
    cu, _, u = ec_core.integral_model(cur)
    assert (cu.a, cu.b) == (Fraction(-16), Fraction(16))
    # image of (0, 0): x' = u^2 * (0 + b2/12), b2 = 0
    assert ec_core.on_curve(cu, CurvePoint.affine(0, 4))


def _invariants(ainvs):
    """(c4, c6, Delta) of the model [a1, a2, a3, a4, a6]."""
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    return c4, c6, -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def test_minimal_model_known_curves():
    # 37a1 from its short model, u = 2; 11a1, whose short model has
    # denominators 3 and 108, u = 6
    for ainvs, u in (((0, 0, 1, -1, 0), 2), ((0, -1, 1, -10, -20), 6)):
        cu, _, _ = ec_core.integral_model(ec_core.from_ainvs(*ainvs))
        assert ec_core.minimal_model(cu.a, cu.b) == (ainvs, u)


@pytest.mark.parametrize("u", (2, 3, 5, 6))
def test_minimal_model_recovers_scaling(u):
    # y^2 = x^3 - 12x - 1 (110160.cd1) is minimal; 37a1's integral model is
    # its minimal model scaled by 2
    assert ec_core.minimal_model(-12 * u**4, -u**6) == ((0, 0, 0, -12, -1), u)
    assert ec_core.minimal_model(-16 * u**4, 16 * u**6) == ((0, 0, 1, -1, 0), 2 * u)


@given(st.integers(-500, 500), st.integers(-500, 500), st.sampled_from((1, 2, 3, 4, 5, 6, 9, 10, 12, 35)))
def test_minimal_model_invariants(a, b, s):
    # the model is integral with c4 = u^4 c4', c6 = u^6 c6', Delta = u^12 Delta',
    # and scaling the short model by s multiplies u by s
    assume(4 * a**3 + 27 * b * b != 0)
    ainvs, u = ec_core.minimal_model(a, b)
    assert all(isinstance(c, int) for c in ainvs) and ainvs[0] in (0, 1) and ainvs[2] in (0, 1)
    c4, c6, disc = _invariants(ainvs)
    assert (-48 * a, -864 * b, -16 * (4 * a**3 + 27 * b * b)) == (u**4 * c4, u**6 * c6, u**12 * disc)
    assert ec_core.minimal_model(a * s**4, b * s**6) == (ainvs, u * s)


def test_curve_json_roundtrip(curve_110160):
    doc = {"label": "110160.cd1", "a": "-12", "b": "-1", "generator": ["5", "8"], "rank": 1}
    assert ec_core.curve_from_json(doc) == curve_110160
    assert ec_core.curve_from_json(json.dumps(doc)) == curve_110160
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
