import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from dioph import analytic, ec_core
from dioph.cli import parse_and_dispatch
from dioph.dioph_matrix import RealMatrix, _shell_argmax, _Shells
from dioph.ec_core import CurvePoint
from dioph.errors import ComponentError, PoleProximityError

PREC = 192
TOL = mp.mpf(2) ** (-PREC // 2)


def quad_period_oracle(curve, dps=40):
    """Independent quadrature of int_{e*}^inf dx / sqrt(x^3 + a x + b).

    The substitution x = e1 + u^2 removes the endpoint singularity so the
    tanh-sinh rule converges cleanly.  The integrand peaks at x = -e1/2, the
    real part of the other two roots; that point is a breakpoint too, since
    the peak is as narrow as their imaginary part.
    """
    with mp.workdps(dps):
        a = mp.mpf(curve.a.numerator) / curve.a.denominator
        b = mp.mpf(curve.b.numerator) / curve.b.denominator
        roots = mp.polyroots([1, 0, a, b])
        e1 = max(r.real for r in roots if abs(r.imag) < 1e-12)
        # f(e1 + u^2) / u^2 expanded (f(e1) = 0): 3 e1^2 + a + 3 e1 u^2 + u^4
        g = lambda u: 2 / mp.sqrt(3 * e1**2 + a + 3 * e1 * u**2 + u**4)
        peak = [mp.sqrt(-3 * e1 / 2)] if e1 < 0 else []
        return mp.quad(g, sorted([0, 1, 10] + peak) + [mp.inf])


def test_period_lemniscatic_against_quadrature(curve_lemniscatic):
    om = analytic.real_period(curve_lemniscatic, PREC).omega
    oracle = quad_period_oracle(curve_lemniscatic)
    assert abs(om - oracle) < 1e-25
    # the lemniscate constant, independently known
    assert abs(om - mp.mpf("2.62205755429211981046483958989")) < 1e-25


def test_period_one_component_against_quadrature(curve_j0, curve_mordell):
    for cur in (curve_j0, curve_mordell):
        per = analytic.real_period(cur, PREC)
        assert per.route == "one-real-root"
        assert abs(per.omega - quad_period_oracle(cur)) < 1e-25


NEAR_NODE_DOC = {"label": "near-node", "a": "-3145727/1048576", "b": "1048577/524288"}


def test_period_near_degenerate_one_root_curve(tmp_path):
    # (x + 2)((x - 1)^2 + 2^-20): the complex pair 1 +- 2^-10 i is within
    # 2^-8 of the real axis, so only the exact discriminant tells the route
    cur = ec_core.RationalCurve(a=Fraction(-3145727, 1048576), b=Fraction(1048577, 524288))
    assert cur.discriminant < 0
    per = analytic.real_period(cur, PREC)
    assert per.route == "one-real-root"
    assert abs(per.omega - quad_period_oracle(cur)) < 1e-25
    t = analytic.elliptic_log(cur, CurvePoint.affine(-2, 0), PREC)
    assert abs(t.t - per.omega / 2) < TOL
    path = tmp_path / "near-node.json"
    path.write_text(json.dumps(NEAR_NODE_DOC))
    out = tmp_path / "log"
    assert parse_and_dispatch(["curve", "log", "--curve", str(path), "--point=-2,0",
                               "--out", str(out)]) == 0
    assert json.loads((tmp_path / "log.json").read_text())["period_route"] == "one-real-root"


def test_period_scaling_consistency(curve_110160):
    # (a, b) -> (a u^4, b u^6) scales omega by 1/u
    om1 = analytic.real_period(curve_110160, PREC).omega
    u = 3
    cur2 = ec_core.RationalCurve(a=curve_110160.a * u**4, b=curve_110160.b * u**6)
    om2 = analytic.real_period(cur2, PREC).omega
    assert abs(om1 - u * om2) < TOL


@pytest.mark.parametrize("bits", (64, 200))
def test_near_degenerate_curve_log_ends(bits, tmp_path):
    # on the near-node curve the first Gauss term is about 2^-10 of the AGM limit;
    # a stopping bound scaled by that term once fell below one ulp of the
    # limit at these precisions, and the loop never ended
    path = tmp_path / "near-node.json"
    path.write_text(json.dumps(NEAR_NODE_DOC))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = str(tmp_path / "log")
    done = subprocess.run([sys.executable, "-m", "dioph", "curve", "log", "--curve", str(path),
                           "--point=-2,0", "--precision-bits", str(bits), "--out", out],
                          env=dict(os.environ, PYTHONPATH=src), cwd=str(tmp_path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "log.json").read_text())
    assert report["period_route"] == "one-real-root" and report["alpha"] == "0.5"


def test_near_node_three_root_curve_log_exits_0(tmp_path):
    # (x + 2)(x - 1 - d)(x - 1 + d), d = 2^-70: a root finder at a fixed
    # precision could not separate 1 +- d, and the command ended in a traceback
    d = Fraction(1, 2**70)
    path = tmp_path / "node.json"
    path.write_text(json.dumps({"label": "node 2^-70", "a": str(-3 - d * d), "b": str(2 - 2 * d * d)}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-m", "dioph", "curve", "log", "--curve", str(path),
                           f"--point={1 + d},0", "--out", str(tmp_path / "log")],
                          env=dict(os.environ, PYTHONPATH=src), cwd=str(tmp_path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "log.json").read_text())
    # (1 + d, 0) is the 2-torsion point on the identity component
    assert report["period_route"] == "three-real-roots" and report["alpha"] == "0.5"


def test_period_precision_contract(curve_110160):
    om128 = analytic.real_period(curve_110160, 128).omega
    om256 = analytic.real_period(curve_110160, 256).omega
    assert abs(om128 - om256) < mp.mpf(2) ** (-120)


def test_period_cache_matches_uncached(curve_110160, curve_mordell, curve_lemniscatic):
    uncached = analytic._lattice_cached.__wrapped__
    for cur in (curve_110160, curve_mordell, curve_lemniscatic):
        for prec in (64, 128, 256):
            key = (f"{cur.a.numerator}/{cur.a.denominator}",
                   f"{cur.b.numerator}/{cur.b.denominator}", prec)
            fresh = uncached(*key)
            assert analytic._lattice(cur, prec) == fresh
            per = analytic.real_period(cur, prec)
            assert (per.omega, per.route, per.precision_bits) == (fresh.omega, fresh.route, prec)
    # keyed by (a, b, precision) alone: label and generator do not enter
    twin = ec_core.RationalCurve(
        a=curve_110160.a, b=curve_110160.b, label="twin",
        generator_hint=ec_core.scalar_mul(curve_110160, 2, curve_110160.generator_hint))
    assert analytic.real_period(twin, 128) == analytic.real_period(curve_110160, 128)
    om128 = analytic.real_period(curve_110160, 128).omega
    om256 = analytic.real_period(curve_110160, 256).omega
    assert om128 != om256 and abs(om128 - om256) < mp.mpf(2) ** (-120)


def test_exp_half_period_is_two_torsion(curve_110160, curve_mordell):
    for cur in (curve_110160, curve_mordell):
        om = analytic.real_period(cur, PREC).omega
        x, y = analytic.exp_E(cur, om / 2, PREC)
        e1 = analytic._lattice(cur, PREC).e1
        assert abs(y) < TOL
        assert abs(x - e1) < TOL


def test_exp_pole_proximity(curve_110160):
    om = analytic.real_period(curve_110160, PREC).omega
    with pytest.raises(PoleProximityError):
        analytic.exp_E(curve_110160, mp.mpf(2) ** (-PREC), PREC)
    with pytest.raises(PoleProximityError):
        analytic.exp_E(curve_110160, om, PREC)


def test_exp_log_roundtrip_on_generator(curve_110160):
    # exp_E(elliptic_log((5,8))) returns x ~ 5, y ~ 8 to far more than 30 digits
    P = CurvePoint.affine(5, 8)
    t = analytic.elliptic_log(curve_110160, P, 256)
    x, y = analytic.exp_E(curve_110160, t, 256)
    assert abs(x - 5) < mp.mpf(10) ** -30
    assert abs(y - 8) < mp.mpf(10) ** -30


def test_log_identity_and_two_torsion(curve_110160, curve_lemniscatic):
    om = analytic.real_period(curve_lemniscatic, PREC).omega
    assert analytic.elliptic_log(curve_110160, None, PREC).t == 0
    assert analytic.elliptic_log(curve_110160, CurvePoint.identity(), PREC).t == 0
    t = analytic.elliptic_log(curve_lemniscatic, CurvePoint.affine(1, 0), PREC)
    assert abs(t.t - om / 2) < TOL


def test_log_rejects_non_identity_component(curve_lemniscatic):
    with pytest.raises(ComponentError):
        analytic.elliptic_log(curve_lemniscatic, CurvePoint.affine(0, 0), PREC)


def test_roundtrip_random_t(curve_110160):
    om = analytic.real_period(curve_110160, PREC).omega
    rnd = random.Random(11)
    for _ in range(60):
        t = om * mp.mpf(rnd.uniform(0.01, 0.99))
        pt = analytic.exp_E(curve_110160, t, PREC)
        t2 = analytic.elliptic_log(curve_110160, pt, PREC)
        assert abs(t2.t - t) < TOL


def test_log_homomorphism_mod_omega(curve_110160):
    P = CurvePoint.affine(5, 8)
    om = analytic.real_period(curve_110160, PREC).omega
    tP = analytic.elliptic_log(curve_110160, P, PREC).t
    rnd = random.Random(5)
    for _ in range(20):
        n = rnd.randint(2, 15)
        Q = ec_core.scalar_mul(curve_110160, n, P)
        if not ec_core.on_identity_component(curve_110160, Q):
            continue
        tQ = analytic.elliptic_log(curve_110160, Q, PREC).t
        diff = (tQ - n * tP) % om
        assert min(diff, om - diff) < TOL


def test_exp_homomorphism_vs_exact_add(curve_110160):
    # exp_E intertwines + on R/Z*omega with the exact group law
    om = analytic.real_period(curve_110160, PREC).omega
    P = CurvePoint.affine(5, 8)
    t1 = analytic.elliptic_log(curve_110160, P, PREC).t
    P2 = ec_core.scalar_mul(curve_110160, 2, P)
    t2 = analytic.elliptic_log(curve_110160, P2, PREC).t
    S = ec_core.add(curve_110160, P, P2)
    x, y = analytic.exp_E(curve_110160, (t1 + t2) % om, PREC)
    xs = mp.mpf(S.x.numerator) / S.x.denominator
    ys = mp.mpf(S.y.numerator) / S.y.denominator
    assert abs(x - xs) < TOL and abs(y - ys) < TOL


def test_d_E_metric_properties(curve_110160):
    om = analytic.real_period(curve_110160, PREC).omega
    d = lambda u, v: analytic.d_E(curve_110160, u, v, PREC)
    assert d(mp.mpf("0.3"), mp.mpf("0.3")) == 0
    assert abs(d(0, om / 2) - om / 2) < TOL
    assert d(mp.mpf("0.4"), mp.mpf("0.4") + om) < TOL
    rnd = random.Random(2)
    for _ in range(50):
        a, b, c = (om * mp.mpf(rnd.random()) for _ in range(3))
        assert d(a, b) <= om / 2 + TOL
        assert abs(d(a, b) - d(b, a)) < TOL
        assert d(a, c) <= d(a, b) + d(b, c) + TOL


def test_generator_alpha_nondegenerate(curve_110160):
    # numeric proxy for theta/omega irrational: the exact min over q <= 1e4 of
    # q^2 dist(q alpha, Z) is > 0, by the shell search of dioph_matrix
    om = analytic.real_period(curve_110160, PREC).omega
    th = analytic.elliptic_log(curve_110160, CurvePoint.affine(5, 8), PREC).t
    shells = _Shells(RealMatrix(m=1, n=1, entries=(th / om,), precision_bits=PREC), None, 10**4)
    best = _shell_argmax(shells, 1, 10**4, lambda qn, err: -qn * qn * err,
                         lambda s, lo: Fraction(-s, lo * lo * shells.D))
    assert -best[0] > 0
