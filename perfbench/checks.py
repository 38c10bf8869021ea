"""Output checkers, run after the timed passes.

Every job's outputs are checked against an oracle computed here: exact
``Fraction`` arithmetic where the quantity is rational, and 512-bit
``mpmath`` (twice the CLI's default working precision) where it is not.
Each checker returns a ``Check``:

    ok            every claim about the job's output holds
    known_defect  the only failures are the tie-order defect of exact
                  rational ties (ROADMAP item 2): the reported (q, p) has
                  the optimal error but is not first in the documented order
    digits        correct significant digits of each checked number, capped
    notes         one line per failed claim

A failed check makes the job count against ``passed_frac``.  A known
defect does not make the run incorrect; any other failure does.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import mpmath as mp
import numpy as np

import workloads

DIGITS_CAP = 15.0
ORACLE_BITS = 512
BRUTE_FORCE_POINTS = 10_000


@dataclass
class Check:
    ok: bool = True
    known_defect: bool = False
    digits: List[float] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def claim(self, holds: bool, note: str) -> None:
        if not holds:
            self.ok = False
            self.notes.append(note)


def _mpf(x) -> mp.mpf:
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def digits(value, exact) -> float:
    """Correct significant digits of ``value`` against ``exact``, capped at 15.

    An exact value of 0 counts the absolute error instead of the relative one.
    """
    with mp.workprec(ORACLE_BITS + 64):
        v, e = _mpf(value), _mpf(exact)
        err = abs(v - e) / abs(e) if e != 0 else abs(v)
        if err == 0:
            return DIGITS_CAP
        return float(min(DIGITS_CAP, max(0.0, -mp.log10(err))))


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _csv(path: str) -> List[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _ints(text) -> Tuple[int, ...]:
    if isinstance(text, list):
        return tuple(int(v) for v in text)
    return tuple(int(v) for v in str(text).split())


# ---------------------------------------------------------------------------
# exact matrix arithmetic


def _canon(vec: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """The documented coordinate order 0 < 1 < -1 < 2 < -2 ..."""
    return tuple((abs(v), 0 if v >= 0 else 1) for v in vec)


class ExactMatrix:
    """A real matrix given by decimal or p/q strings, as integers over one denominator."""

    def __init__(self, m: int, n: int, entries: Sequence[str]):
        fr = [Fraction(e) for e in entries]
        self.m, self.n = m, n
        self.den = math.lcm(*(f.denominator for f in fr))
        self.num = [[int(fr[i * n + j] * self.den) for j in range(n)] for i in range(m)]

    def rows(self, q: Sequence[int]) -> List[int]:
        """D * (A q), exactly."""
        return [sum(a * b for a, b in zip(row, q)) for row in self.num]

    def error(self, q: Sequence[int], p: Sequence[int]) -> Fraction:
        """||A q + p||_inf, exactly."""
        D = self.den
        return Fraction(max(abs(s + pi * D) for s, pi in zip(self.rows(q), p)), D)

    def nearest_p(self, q: Sequence[int]) -> Tuple[int, ...]:
        """Per-coordinate nearest integer to -A q; an exact half goes to the smaller p."""
        D = self.den
        out = []
        for s in self.rows(q):
            fl, r = divmod(s, D)
            out.append(-fl if 2 * r < D else -fl - 1)
        return tuple(out)

    def best(self, Q: int) -> Tuple[Fraction, Tuple[int, ...], Tuple[int, ...]]:
        """Brute-force minimizer over 0 < ||q|| <= Q in the documented tie order."""
        D = self.den
        best_key, best_q = None, None
        for q in itertools.product(range(-Q, Q + 1), repeat=self.n):
            if not any(q):
                continue
            err = 0
            for s in self.rows(q):
                r = s % D
                err = max(err, min(r, D - r))
            key = (err, max(abs(v) for v in q), _canon(q))
            if best_key is None or key < best_key:
                best_key, best_q = key, q
        p = self.nearest_p(best_q)
        return Fraction(best_key[0], D), best_q, p


# ---------------------------------------------------------------------------
# box-scan


def check_dirichlet(job: dict, out: str) -> Check:
    meta = job["meta"]
    rep = _json(out + ".json")
    A = ExactMatrix(meta["m"], meta["n"], meta["entries"])
    Q, m, n = meta["Q"], meta["m"], meta["n"]
    q, p = _ints(rep["q"]), _ints(rep["p"])
    c = Check()
    c.claim(len(q) == n and 0 < max(abs(v) for v in q) <= Q, f"q = {q} outside the box")
    err = A.error(q, p)
    c.claim(p == A.nearest_p(q), f"p = {p} is not the nearest integer vector")
    d = digits(rep["error"], err)
    c.digits.append(d)
    c.claim(d >= 12, f"error {rep['error']} != exact {float(err)}")
    c.claim(err ** m * Q ** n <= 1, "Dirichlet bound fails")
    c.claim(rep["ok"] == (err ** m * Q ** n < 1), "reported ok disagrees with the exact bound")
    if meta.get("rational") or (2 * Q + 1) ** n <= BRUTE_FORCE_POINTS:
        best_err, best_q, best_p = A.best(Q)
        if (q, p) != (best_q, best_p):
            if err == best_err and c.ok:
                c.ok, c.known_defect = False, True
            else:
                c.ok = False
            c.notes.append(f"(q, p) = ({q}, {p}), oracle ({best_q}, {best_p})")
    return c


def check_exponent(job: dict, out: str) -> Check:
    meta = job["meta"]
    A = ExactMatrix(meta["m"], meta["n"], meta["entries"])
    c = Check()
    rows = _csv(out + ".csv")
    c.claim(len(rows) > 0, "no window champions")
    for row in rows:
        q, p = _ints(row["q"]), _ints(row["p"])
        err = A.error(q, p)
        c.claim(p == A.nearest_p(q), f"window {row['Q_window']}: p not nearest")
        d = digits(row["error"], err)
        c.digits.append(d)
        c.claim(d >= 12, f"window {row['Q_window']}: error {row['error']} != {float(err)}")
    return c


def check_probe(job: dict, out: str) -> Check:
    """Small-Q points against a 512-bit brute force; every target monotone in Q."""
    meta = job["meta"]
    rep = _json(out + ".json")
    c = Check()
    g, r = meta["g"], meta["r"]
    with mp.workprec(ORACLE_BITS):
        J = mp.matrix([[mp.mpf(meta["J"][i * g + j]) for j in range(g)] for i in range(g)])
        H = mp.matrix([[mp.mpf(meta["H"][i * r + j]) for j in range(r)] for i in range(g)])
        A = J ** -1 * H
    Af = np.array([[float(A[i, j]) for j in range(r)] for i in range(g)])
    for tgt in rep["targets"]:
        with mp.workprec(ORACLE_BITS):
            gam = mp.lu_solve(J, mp.matrix([mp.mpf(v) for v in tgt["xi"]]))
        gf = np.array([float(gam[i]) for i in range(g)])
        errs = [pt["error"] for pt in tgt["points"]]
        c.claim(all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:])),
                "best error grew with Q")
        for pt in tgt["points"]:
            Q = pt["Q"]
            if (2 * Q + 1) ** r > 2 * BRUTE_FORCE_POINTS:
                continue
            grid = np.array([v for v in itertools.product(range(-Q, Q + 1), repeat=r) if any(v)])
            R = grid @ Af.T - gf
            E = np.abs(R - np.rint(R)).max(axis=1)
            with mp.workprec(ORACLE_BITS):
                exact = min(
                    max(abs(x - mp.nint(x)) for x in
                        (mp.fsum(A[i, j] * int(qv[j]) for j in range(r)) - gam[i]
                         for i in range(g)))
                    for qv in grid[E <= E.min() + 1e-9])
            d = digits(pt["error"], exact)
            c.digits.append(d)
            c.claim(d >= 12, f"Q = {Q}: error {pt['error']} != oracle {mp.nstr(exact, 17)}")
    return c


# ---------------------------------------------------------------------------
# curves (heights and orbit-scan)


def _curve(key: str):
    from dioph import ec_core
    label, a, b, gen = workloads.CURVES[key]
    return ec_core.curve_from_json({"label": label, "a": a, "b": b,
                                    "generator": list(gen), "rank": 1})


def _point(x, y):
    from dioph import ec_core
    return ec_core.CurvePoint.affine(str(x), str(y))


def _hhat512(key: str) -> mp.mpf:
    from dioph import heights
    curve = _curve(key)
    return heights.canonical_height_local(curve, curve.generator_hint, ORACLE_BITS).value


def check_curve_verify(job: dict, out: str) -> Check:
    key = job["meta"]["curve"]
    _label, a, b, (x, y) = workloads.CURVES[key]
    rep = _json(out + ".json")
    A, B, X, Y = (Fraction(v) for v in (a, b, x, y))
    c = Check()
    c.claim(rep["on_curve"] == (Y * Y == X ** 3 + A * X + B), "on_curve is wrong")
    roots = np.roots([1.0, 0.0, float(A), float(B)])
    e1 = max(z.real for z in roots if abs(z.imag) < 1e-9)
    if abs(float(X) - e1) > 1e-6:
        c.claim(rep["on_identity_component"] == (float(X) > e1), "component is wrong")
    return c


def check_curve_height(job: dict, out: str) -> Check:
    rep = _json(out + ".json")
    exact = _hhat512(job["meta"]["curve"])
    c = Check()
    for route in ("hhat_local", "hhat_limit"):
        c.digits.append(digits(rep[route], exact))
    diff = abs(mp.mpf(rep["hhat_local"]) - mp.mpf(rep["hhat_limit"]))
    c.claim(diff <= 1e-6, f"routes differ by {mp.nstr(diff, 3)}")
    c.claim(digits(rep["hhat_local"], exact) >= 12, "local route is off")
    return c


def check_curve_log(job: dict, out: str) -> Check:
    from dioph import analytic
    curve = _curve(job["meta"]["curve"])
    rep = _json(out + ".json")
    omega = analytic.real_period(curve, ORACLE_BITS).omega
    theta = analytic.elliptic_log(curve, _point(*job["meta"]["point"]), ORACLE_BITS).t
    c = Check()
    for name, exact in (("omega", omega), ("theta", theta)):
        d = digits(rep[name], exact)
        c.digits.append(d)
        c.claim(d >= 12, f"{name} is off")
    return c


def check_roundtrip(job: dict, out: str) -> Check:
    from dioph import analytic
    omega = analytic.real_period(_curve(job["meta"]["curve"]), ORACLE_BITS).omega
    rep = _json(out + ".json")
    c = Check()
    for row in rep["rows"]:
        with mp.workprec(ORACLE_BITS):
            t = mp.mpf(row["u"]) * omega
        d = digits(row["t_back"], t)
        c.digits.append(d)
        c.claim(d >= 12, f"round trip at u = {row['u']} is off")
    return c


def check_multiples(job: dict, out: str) -> Check:
    hhat = _hhat512(job["meta"]["curve"])
    rep = _json(out + ".json")
    c = Check()
    for row in rep["rows"]:
        d = digits(row["hhat"], hhat * row["n"] ** 2)
        c.digits.append(d)
        c.claim(d >= 12, f"hhat([{row['n']}]P) != n^2 hhat(P)")
    return c


def check_weak_dirichlet(job: dict, out: str) -> Check:
    """Champion distances rescored at 512 bits; sigma in [0.45, 0.8]."""
    from dioph import analytic
    key = job["meta"]["curve"]
    curve = _curve(key)
    rep = _json(out + ".json")
    gen = workloads.CURVES[key][3]
    if rep["substituted_generator"]:
        gen = workloads.double_point(workloads.CURVES[key][1], *gen)
    with mp.workprec(ORACLE_BITS):
        omega = analytic.real_period(curve, ORACLE_BITS).omega
        theta = analytic.elliptic_log(curve, _point(*gen), ORACLE_BITS).t
        gamma = mp.mpf(rep["gamma"])
    c = Check()
    c.claim(0.45 <= rep["sigma_estimate"] <= 0.8, f"sigma = {rep['sigma_estimate']}")
    c.claim(rep["chain_check_ok"] is True, "chain check failed")
    rows = _csv(out + ".csv")
    c.claim(len(rows) > 0, "no champions")
    for row in rows:
        with mp.workprec(ORACLE_BITS):
            x = (gamma - int(row["q"]) * theta) / omega
            exact = abs(x - mp.nint(x)) * omega
        c.digits.append(digits(row["d"], exact))
    return c


def check_minkowski(job: dict, out: str) -> Check:
    alpha, gamma = Fraction(job["meta"]["alpha"]), Fraction(job["meta"]["gamma"])
    c = Check()
    rows = _csv(out + ".csv")
    c.claim(len(rows) > 0, "no solutions")
    for row in rows:
        q, p = int(row["q"]), int(row["p"])
        prod = abs(q) * abs(q * alpha + p - gamma)
        c.digits.append(digits(row["product"], prod))
        c.claim(prod < Fraction(1, 4), f"q = {q}: exact product {float(prod)} >= 1/4")
    return c


# ---------------------------------------------------------------------------
# flow-game


def check_flow(job: dict, out: str) -> Check:
    """Minkowski's second theorem for the sup norm: 1/d! <= prod lambda_i <= 1."""
    d = job["meta"]["m"] + job["meta"]["n"]
    c = Check()
    rows = _csv(out + ".csv")
    c.claim(len(rows) > 0, "no samples")
    for row in rows:
        lam = [float(row[f"lambda_{i + 1}"]) for i in range(d)]
        prod = math.prod(lam)
        ok = 1 / math.factorial(d) * (1 - 1e-9) <= prod <= 1 + 1e-9
        c.claim(ok and lam == sorted(lam), f"t = {row['t']}: prod lambda = {prod}")
    return c


def liouville_fraction() -> Fraction:
    return sum(Fraction(1, 2 ** e) for e in (2, 6, 30, 150))


def check_haw(job: dict, out: str) -> Check:
    """Each certificate's minimum recomputed: float scan, exact rescoring."""
    rep = _json(out + ".json")
    alpha = liouville_fraction()
    gamma = Fraction(rep["outcome_gamma"])
    c = Check()
    c.claim(rep["all_certificates_pass"] is True, "a certificate failed")
    for cert in rep["certificates"]:
        top = math.ceil(cert["Q"]) - 1
        c.claim(cert["checked"] == 2 * max(top, 0), f"stage {cert['stage']}: checked count")
        if top < 1:
            continue
        q = np.arange(1, top + 1, dtype=np.float64)
        qs = np.concatenate([q, -q])
        r = qs * float(alpha) - float(gamma)
        E = np.abs(r - np.rint(r))
        exact = min(abs(x - round(x)) for x in
                    (int(v) * alpha - gamma for v in qs[E <= E.min() + 1e-9]))
        d = digits(cert["min_error"], exact)
        c.digits.append(d)
        c.claim(exact > Fraction(cert["threshold"]), f"stage {cert['stage']}: exact minimum "
                f"{float(exact)} is below the threshold")
    return c


# ---------------------------------------------------------------------------

_BY_COMMAND = {
    "curve-verify": check_curve_verify, "curve-height": check_curve_height,
    "curve-log": check_curve_log, "dirichlet": check_dirichlet,
    "exponent": check_exponent, "probe": check_probe,
    "weakdirichlet": check_weak_dirichlet, "minkowski": check_minkowski,
    "flow": check_flow, "haw": check_haw,
}
_BY_API = {"roundtrip": check_roundtrip, "multiples": check_multiples}


def check_job(job: dict, out_dir: str) -> Check:
    """Check one job's outputs in ``out_dir``; a checker crash is a failed check."""
    out = os.path.join(out_dir, job["id"])
    if job["kind"] == "cli":
        fn = _BY_COMMAND[workloads.command_name(job["argv"])]
    else:
        fn = _BY_API[job["fn"]]
    try:
        return fn(job, out)
    except (OSError, KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        return Check(ok=False, notes=[f"unreadable output: {type(e).__name__}: {e}"])


def min_digits(checks: Dict[str, Check]) -> float:
    """Fewest correct digits over every checked number; 0 when nothing was checked."""
    return min((d for c in checks.values() for d in c.digits), default=0.0)
