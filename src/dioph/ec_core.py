"""Exact arithmetic on elliptic curves y^2 = x^3 + a*x + b over Q.

Everything here is `fractions.Fraction`; no floating point enters, so
group-law outputs are exact and safe to feed into height computations.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import BudgetExceededError, ValidationError

RationalLike = Union[Fraction, int, str]

# Steps of Pollard rho per factor: enough for prime factors up to about
# 10^12, and about a second of pure-Python work.
RHO_STEP_BUDGET = 1 << 20


def _fraction(text: str) -> Fraction:
    """Fraction(text), its decimal exponent held to Python's limit on the digits of an int string.

    Fraction builds 10^|e| of "1e<e>" in full, which for e = 99999999 runs for
    minutes, while an int string past `sys.get_int_max_str_digits()` (4300
    by default) is refused outright: an exponent past that limit raises
    ValidationError.  Other malformed text raises ValueError or ZeroDivisionError.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    mark, exp = text.lower().rpartition("e")[1:]
    digits = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
    if mark and digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit):
        raise ValidationError(f"{text!r} has a decimal exponent beyond {limit}, "
                              "Python's limit on the digits of an integer string")
    return Fraction(text.strip())


def parse_rational(v: RationalLike) -> Fraction:
    """Parse an exact rational from a Fraction, int (not bool), or 'p/q' or decimal string."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return _fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"not an exact rational: {v!r}") from e
    raise ValidationError(f"not an exact rational: {v!r}")


@dataclass(frozen=True)
class CurvePoint:
    """Identity (x = y = None) or an affine point with exact coordinates."""

    x: Optional[Fraction] = None
    y: Optional[Fraction] = None

    @staticmethod
    def identity() -> "CurvePoint":
        return CurvePoint(None, None)

    @staticmethod
    def affine(x: RationalLike, y: RationalLike) -> "CurvePoint":
        return CurvePoint(parse_rational(x), parse_rational(y))

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __str__(self) -> str:
        if self.is_identity:
            return "O"
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class RationalCurve:
    """Short Weierstrass curve with optional rank/generator metadata."""

    a: Fraction
    b: Fraction
    label: Optional[str] = None
    rank_hint: Optional[int] = None
    generator_hint: Optional[CurvePoint] = None

    def __post_init__(self):
        object.__setattr__(self, "a", parse_rational(self.a))
        object.__setattr__(self, "b", parse_rational(self.b))
        if self.discriminant == 0:
            raise ValidationError("singular curve: discriminant is zero")
        if self.generator_hint is not None and not on_curve(self, self.generator_hint):
            raise ValidationError("generator_hint does not lie on the curve")

    @property
    def discriminant(self) -> Fraction:
        a, b = self.a, self.b
        return -16 * (4 * a**3 + 27 * b**2)

    def __str__(self) -> str:
        name = self.label or "curve"
        return f"{name}: y^2 = x^3 + ({self.a})x + ({self.b})"


def from_ainvs(a1, a2, a3, a4, a6, **meta) -> RationalCurve:
    """Normalize a general Weierstrass model [a1,a2,a3,a4,a6] to short form.

    Complete the square in y, then the cube in x.  The x-map is
    x -> x + b2/12 with b2 = a1^2 + 4*a2.
    """
    a1, a2, a3, a4, a6 = (parse_rational(v) for v in (a1, a2, a3, a4, a6))
    b2 = a1**2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3**2 + 4 * a6
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    return RationalCurve(a=Fraction(-c4, 48), b=Fraction(-c6, 864), **meta)


def _fx(curve: RationalCurve, x: Fraction) -> Fraction:
    return x**3 + curve.a * x + curve.b


def on_curve(curve: RationalCurve, pt: CurvePoint) -> bool:
    """True iff pt is the identity or satisfies y^2 = x^3 + a*x + b exactly."""
    if pt.is_identity:
        return True
    return pt.y * pt.y == _fx(curve, pt.x)


def _require_on_curve(curve: RationalCurve, pt: CurvePoint) -> None:
    if not on_curve(curve, pt):
        raise ValidationError(f"point {pt} is not on {curve}")


def negate(pt: CurvePoint) -> CurvePoint:
    if pt.is_identity:
        return pt
    return CurvePoint(pt.x, -pt.y)


def add(curve: RationalCurve, p1: CurvePoint, p2: CurvePoint, *, _checked: bool = False) -> CurvePoint:
    """Chord-tangent group law; rejects off-curve inputs."""
    if not _checked:
        _require_on_curve(curve, p1)
        _require_on_curve(curve, p2)
    if p1.is_identity:
        return p2
    if p2.is_identity:
        return p1
    x1, y1, x2, y2 = p1.x, p1.y, p2.x, p2.y
    if x1 == x2:
        if y1 == -y2:
            return CurvePoint.identity()
        lam = (3 * x1 * x1 + curve.a) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return CurvePoint(x3, y3)


def scalar_mul(curve: RationalCurve, n: int, pt: CurvePoint) -> CurvePoint:
    """n*pt by double-and-add; n may be negative or zero."""
    _require_on_curve(curve, pt)
    if n < 0:
        n, pt = -n, negate(pt)
    return _multiply(curve, n, pt)


def _multiply(curve: RationalCurve, n: int, pt: CurvePoint) -> CurvePoint:
    """n*pt for n >= 0 by double-and-add, pt trusted to lie on the curve."""
    result = CurvePoint.identity()
    base = pt
    while n:
        if n & 1:
            result = add(curve, result, base, _checked=True)
        n >>= 1
        if n:
            base = add(curve, base, base, _checked=True)
    return result


def real_components(curve: RationalCurve) -> str:
    """'two' iff the cubic has three real roots (discriminant > 0)."""
    return "two" if curve.discriminant > 0 else "one"


def on_identity_component(curve: RationalCurve, pt: CurvePoint) -> bool:
    """True iff pt is the identity or x(pt) >= the largest real root.

    For discriminant > 0 the cubic's local minimum sits at +sqrt(-a/3),
    strictly between the middle and largest roots, so an on-curve point
    has x >= largest root exactly when x > 0 and 3*x^2 + a > 0.  Both
    comparisons are exact over Q; equality with the critical point would
    force a double root and is excluded by nonsingularity.
    """
    _require_on_curve(curve, pt)
    if pt.is_identity or curve.discriminant < 0:
        return True
    x = pt.x
    return x > 0 and 3 * x * x + curve.a > 0


# ---------------------------------------------------------------------------
# ingestion: {"label": ..., "a": "p/q", "b": "p/q", "generator": ["x","y"], "rank": n}


def curve_from_json(doc: Union[str, dict]) -> RationalCurve:
    """Build a curve from the JSON ingestion document (string or parsed dict)."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise ValidationError(f"invalid curve JSON: {e}") from e
    if not isinstance(doc, dict) or "a" not in doc or "b" not in doc:
        raise ValidationError("curve JSON must contain 'a' and 'b'")
    gen = doc.get("generator")
    if gen is not None:
        if not isinstance(gen, (list, tuple)) or len(gen) != 2:
            raise ValidationError(f"generator must be a pair [x, y], not {gen!r}")
        gen = CurvePoint.affine(*gen)
    rank = doc.get("rank")
    if rank is not None and (type(rank) is not int or rank < 0):
        raise ValidationError(f"rank must be a nonnegative integer, not {rank!r}")
    return RationalCurve(
        a=parse_rational(doc["a"]),
        b=parse_rational(doc["b"]),
        label=doc.get("label"),
        rank_hint=rank,
        generator_hint=gen,
    )


def integral_model(curve: RationalCurve, pt: Optional[CurvePoint] = None):
    """Rescale (a, b) -> (a*u^4, b*u^6) with minimal integer u making both integral.

    Returns (curve', pt', u) with x' = u^2 x, y' = u^3 y.  The canonical
    height is invariant under this rescaling.
    """
    den = curve.a.denominator * curve.b.denominator
    if den == 1:
        return curve, pt, 1
    u = 1
    for p in _factorize(den):
        va = _padic_valuation(curve.a.denominator, p)
        vb = _padic_valuation(curve.b.denominator, p)
        e = max(-(-va // 4), -(-vb // 6))
        u *= p**e
    cu = RationalCurve(a=curve.a * u**4, b=curve.b * u**6, label=curve.label,
                       rank_hint=curve.rank_hint)
    pu = None
    if pt is not None:
        pu = pt if pt.is_identity else CurvePoint(pt.x * u * u, pt.y * u**3)
    return cu, pu, u


def _kraus(p: int, c4: int, c6: int) -> bool:
    """Kraus's condition at p = 2 or 3 for (c4, c6) to come from an integral model.

    At 3: v_3(c6) != 2.  At 2: c6 = -1 mod 4, or 16 | c4 and c6 = 0 or 8 mod 32.
    Every other prime imposes nothing.
    """
    if p == 3:
        return c6 % 9 != 0 or c6 % 27 == 0
    return c6 % 4 == 3 or (c4 % 16 == 0 and c6 % 32 in (0, 8))


def minimal_model(a: int, b: int) -> Tuple[Tuple[int, int, int, int, int], int]:
    """Global minimal model of y^2 = x^3 + a x + b, for integers a and b.

    Laska-Kraus-Connell (Cohen, GTM 138, Algorithm 7.1.3): from c4 = -48a and
    c6 = -864b, u is the largest integer such that c4' = c4/u^4 and
    c6' = c6/u^6 are the invariants of an integral model.  A prime p >= 5 can
    divide u only if p^4 | a and p^6 | b; at 2 and 3 the largest power that
    fits the valuations is lowered until Kraus's condition holds (`_kraus`).
    The model is then read off b2 = -c6' mod 12 in [-5, 6], with a1 and a3
    in {0, 1}.

    Returns ([a1, a2, a3, a4, a6], u).  A point (x, y) of the short model is
    (x', y') = (x/u^2 - b2/12, y/u^3 - (a1 x' + a3)/2) on the minimal one, and
    the discriminants satisfy Delta = u^12 Delta'.
    """
    a, b = int(a), int(b)
    c4, c6 = -48 * a, -864 * b
    disc = -16 * (4 * a**3 + 27 * b**2)
    u = 1
    for p in sorted({2, 3} | set(_factorize(math.gcd(a, b)))):
        d = min(_padic_valuation(c, p) // k for c, k in ((c4, 4), (c6, 6), (disc, 12)) if c)
        while d > 0 and p in (2, 3) and not _kraus(p, c4 // p**(4 * d), c6 // p**(6 * d)):
            d -= 1
        u *= p**d
        c4, c6 = c4 // p**(4 * d), c6 // p**(6 * d)
    b2 = (-c6) % 12
    b2 -= 12 if b2 > 6 else 0
    b4 = (b2 * b2 - c4) // 24
    b6 = (-b2**3 + 36 * b2 * b4 - c6) // 216
    a1, a3 = b2 % 2, b6 % 2
    return (a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4), u


def _padic_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _factorize(n: int) -> dict:
    """Prime factorization {p: e} of |n|: trial division, then Brent-Pollard rho.

    Perfect powers are split by their integer root first: rho on p^k walks
    about sqrt(p) steps before it finds p, some 10^9 for p near 10^18.
    """
    n = abs(int(n))
    out: dict = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 17
    while d * d <= n and d < 1_000_00:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root, k = _perfect_power(m)
        if k > 1:
            stack.extend([root] * k)
            continue
        d = _brent_rho(m)
        stack.extend([d, m // d])
    return out


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> Tuple[int, int]:
    """(r, k) with r^k = n and k >= 2 smallest, or (n, 1) if n is no perfect power."""
    for k in range(2, n.bit_length() + 1):
        r = _integer_root(n, k)
        if r < 2:
            break
        if r**k == n:
            return r, k
    return n, 1


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of the composite n by Brent's variant of Pollard rho.

    Rho takes about sqrt(p) steps to find a prime factor p, so two prime
    factors above about 10^12 exhaust the RHO_STEP_BUDGET steps of the map
    y -> y^2 + c, which raises BudgetExceededError instead of running for
    hours.
    """
    if n % 2 == 0:
        return 2
    import random

    rng = random.Random(0xD10F ^ n)
    steps = 0
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        while g == 1:
            steps += 2 * r  # r steps to move x, then r more for y
            if steps > RHO_STEP_BUDGET:
                raise BudgetExceededError(
                    f"Pollard rho found no factor of a {n.bit_length()}-bit number "
                    f"within {RHO_STEP_BUDGET} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
