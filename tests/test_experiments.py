import math

import mpmath as mp
import numpy as np
import pytest

from dioph import analytic, ec_core, experiments, heights
from dioph.dioph_matrix import RealMatrix
from dioph.ec_core import CurvePoint
from dioph.errors import BudgetExceededError, DegenerateTargetError, ValidationError

from conftest import PHI_STR, deadline

PREC = 192


def test_minkowski_phi_example():
    # brute-force witness list must contain (2, -3) with |q||q phi + p - 1/3| ~ 0.1945
    sols = experiments.minkowski_solutions(PHI_STR, "1/3", 10, PREC)
    assert (2, -3) in [(q, p) for q, p, _ in sols]
    prod = next(pr for q, p, pr in sols if (q, p) == (2, -3))
    phi = float(mp.mpf(PHI_STR))
    assert prod == pytest.approx(abs(2 * (2 * phi - 3 - 1 / 3)), abs=1e-12)
    assert prod == pytest.approx(0.19452, abs=1e-4)
    assert all(pr < 0.25 for _, _, pr in sols)
    # ordered by |q|
    qs = [abs(q) for q, _, _ in sols]
    assert qs == sorted(qs)


def test_witness_twins_come_plus_first():
    # gamma = 1/2: q and -q (with 1 - p) give the same product, so every
    # witness has a twin, and ties go +q before -q as everywhere else
    sols = experiments.minkowski_solutions(PHI_STR, "1/2", 10**6, PREC)
    qs = [q for q, _, _ in sols]
    assert len(qs) >= 10 and qs == sorted(qs, key=lambda q: (abs(q), q < 0))
    assert all(q > 0 for q in qs[::2]) and qs[1::2] == [-q for q in qs[::2]]
    assert [pr for _, _, pr in sols[::2]] == [pr for _, _, pr in sols[1::2]]
    assert [p for _, p, _ in sols[1::2]] == [1 - p for _, p, _ in sols[::2]]


def test_minkowski_degenerate_gamma_guard():
    phi = mp.mpf(PHI_STR)
    with pytest.raises(DegenerateTargetError):
        # gamma = 2*alpha - 1 sits in the orbit lattice
        experiments.minkowski_solutions(phi, 2 * phi - 1, 1000, PREC)
    with pytest.raises(DegenerateTargetError):
        experiments.minkowski_solutions("1/2", "1/3", 100, PREC)  # rational alpha


def test_minkowski_infinitude_on_curve_alpha(curve_110160):
    om = analytic.real_period(curve_110160, PREC).omega
    th = analytic.elliptic_log(curve_110160, CurvePoint.affine(5, 8), PREC).t
    alpha = th / om
    rng = np.random.default_rng(0)
    for _ in range(20):
        gamma = mp.mpf(float(rng.uniform(0.05, 0.95)))
        sols = experiments.minkowski_solutions(alpha, gamma, 10**4, PREC)
        assert len(sols) >= 5


def test_weak_dirichlet_report(curve_110160):
    cfg = experiments.CurveExperimentConfig(curve=curve_110160, q_max=10**5, seed=0)
    rep = experiments.weak_dirichlet_experiment(cfg)
    assert 0.45 <= rep.sigma_fit.estimate <= 0.8
    assert rep.minkowski_count >= 5
    assert rep.running_C_final <= rep.running_C_at_100 + 1e-12
    assert rep.chain_check_ok
    assert not rep.substituted_generator
    # heights column is q^2 hhat(Q) by construction
    for rec in rep.records:
        assert rec.height_proxy == pytest.approx(rec.q_norm**2 * float(rep.hhat_Q), rel=1e-12)
    # running_C nonincreasing along records
    for a, b in zip(rep.running_C[:-1], rep.running_C[1:]):
        assert b <= a + 1e-15


def test_weak_dirichlet_requires_rank_one(curve_lemniscatic):
    cfg = experiments.CurveExperimentConfig(curve=curve_lemniscatic, q_max=1000)
    with pytest.raises(ValidationError):
        experiments.weak_dirichlet_experiment(cfg)


def test_weak_dirichlet_orbit_target_rejected(curve_110160):
    # the generator's own log is in the orbit: must be refused
    th = analytic.elliptic_log(curve_110160, CurvePoint.affine(5, 8), PREC).t
    cfg = experiments.CurveExperimentConfig(curve=curve_110160, target_P=th,
                                            q_max=2000, seed=0)
    with pytest.raises(DegenerateTargetError):
        experiments.weak_dirichlet_experiment(cfg)


def test_weak_dirichlet_rational_target_point(curve_110160):
    # a small multiple of the generator is refused; an off-orbit rational
    # point does not exist in rank 1, so use a real target instead
    P3 = ec_core.scalar_mul(curve_110160, 3, CurvePoint.affine(5, 8))
    cfg = experiments.CurveExperimentConfig(curve=curve_110160, target_P=P3, q_max=2000)
    with pytest.raises(DegenerateTargetError):
        experiments.weak_dirichlet_experiment(cfg)


@pytest.mark.parametrize("base", (1.0, 0.5, math.nan, math.inf))
def test_weak_dirichlet_rejects_window_base_not_above_1(curve_110160, base):
    cfg = experiments.CurveExperimentConfig(curve=curve_110160, q_max=1000, windows_base=base)
    with deadline(10), pytest.raises(ValidationError, match="windows_base"):
        experiments.weak_dirichlet_experiment(cfg)


def test_weak_dirichlet_window_base_near_1_exits_on_the_window_budget(curve_110160):
    # 1.0000001^k passes 1000 only at k ~ 7e7: the window budget ends the run
    cfg = experiments.CurveExperimentConfig(curve=curve_110160, q_max=1000,
                                            windows_base=1.0000001)
    with deadline(10), pytest.raises(BudgetExceededError, match="windows"):
        experiments.weak_dirichlet_experiment(cfg)


def test_determinism_same_seed(curve_110160):
    cfg = experiments.CurveExperimentConfig(curve=curve_110160, q_max=10**4, seed=5)
    r1 = experiments.weak_dirichlet_experiment(cfg)
    r2 = experiments.weak_dirichlet_experiment(cfg)
    assert r1.sigma_fit.estimate == r2.sigma_fit.estimate
    assert [(r.q, float(r.error)) for r in r1.records] == \
        [(r.q, float(r.error)) for r in r2.records]


def test_explicit_target_ignores_seed(curve_110160):
    # the seed only drives target sampling, so an explicit target pins the run
    t = mp.mpf("0.51234567")
    outs = []
    for seed in (1, 99):
        cfg = experiments.CurveExperimentConfig(curve=curve_110160, target_P=t,
                                                q_max=10**4, seed=seed)
        rep = experiments.weak_dirichlet_experiment(cfg)
        outs.append([(r.q, float(r.error), r.exponent_sample) for r in rep.records])
    assert outs[0] == outs[1]


def test_lift_independence(curve_110160):
    # replacing theta by theta + omega cannot change the records
    om = analytic.real_period(curve_110160, PREC).omega
    base = mp.mpf("0.31477")
    cfg1 = experiments.CurveExperimentConfig(curve=curve_110160, target_P=base, q_max=5000)
    cfg2 = experiments.CurveExperimentConfig(curve=curve_110160, target_P=base + om, q_max=5000)
    r1 = experiments.weak_dirichlet_experiment(cfg1)
    r2 = experiments.weak_dirichlet_experiment(cfg2)
    assert [(r.q, r.exponent_sample) for r in r1.records] == \
        [(r.q, r.exponent_sample) for r in r2.records]


def test_consistency_d_E_vs_scan(curve_110160):
    # d_E(gamma, q theta mod omega) equals the scan's min_p |gamma - q theta + p omega|
    om = analytic.real_period(curve_110160, PREC).omega
    th = analytic.elliptic_log(curve_110160, CurvePoint.affine(5, 8), PREC).t
    gam = mp.mpf("0.4321")
    rng = np.random.default_rng(3)
    for _ in range(40):
        q = int(rng.integers(1, 500))
        direct = analytic.d_E(curve_110160, gam, (q * th) % om, PREC)
        resid = (gam - q * th) % om
        assert abs(direct - min(resid, om - resid)) < mp.mpf(2) ** (-PREC // 2)


def test_sigma_point_estimate_golden_offset(curve_110160):
    om = analytic.real_period(curve_110160, PREC).omega
    phi_frac = mp.mpf(PHI_STR) - 1
    cfg = experiments.CurveExperimentConfig(curve=curve_110160,
                                            target_P=om * phi_frac, q_max=10**5)
    fit = experiments.weak_dirichlet_experiment(cfg).sigma_fit
    assert 0.45 <= fit.estimate <= 0.8
    assert fit.observed_max is not None  # upper direction reported, never asserted


def test_substituted_generator_flag():
    # generator on the non-identity component gets replaced by its double
    cur = ec_core.from_ainvs(0, 0, 1, -1, 0)
    cu, _, _ = ec_core.integral_model(cur)
    gen = CurvePoint.affine(0, 4)
    cur2 = ec_core.RationalCurve(a=cu.a, b=cu.b, label="37a-integral",
                                 rank_hint=1, generator_hint=gen)
    assert not ec_core.on_identity_component(cur2, gen)
    cfg = experiments.CurveExperimentConfig(curve=cur2, q_max=10**5, seed=1)
    rep = experiments.weak_dirichlet_experiment(cfg)
    assert rep.substituted_generator
    assert 0.3 <= rep.sigma_fit.estimate <= 1.0


def test_conjecture_probe_reduces_to_minkowski(curve_110160):
    om = analytic.real_period(curve_110160, PREC).omega
    th = analytic.elliptic_log(curve_110160, CurvePoint.affine(5, 8), PREC).t
    H = RealMatrix.from_rows([[th]], PREC)
    J = RealMatrix.from_rows([[om]], PREC)
    rep = experiments.conjecture_probe(H, J, xi_samples=2, Q_schedule=(10, 100, 1000), seed=7)
    assert rep["g"] == 1 and rep["r"] == 1 and not rep["degenerate"]
    for tgt in rep["targets"]:
        assert tgt["dirichlet_floor_ok"]


def test_conjecture_probe_target_count():
    H = RealMatrix.from_rows([["0.9223"]], PREC)
    with pytest.raises(ValidationError):
        experiments.conjecture_probe(H, H, xi_samples=0)
    with pytest.raises(BudgetExceededError):
        experiments.conjecture_probe(H, H, xi_samples=experiments.MAX_XI_SAMPLES + 1)


def test_conjecture_probe_rational_flagged():
    H = RealMatrix.from_rows([["1/2"]], PREC)
    J = RealMatrix.from_rows([["1"]], PREC)
    rep = experiments.conjecture_probe(H, J, xi_samples=1, Q_schedule=(4, 16), seed=0)
    assert rep["degenerate"]


def test_conjecture_probe_g2_r3():
    rng = np.random.default_rng(7)
    H = RealMatrix.from_rows([[float(rng.uniform(0.1, 0.9)) for _ in range(3)]
                              for _ in range(2)], PREC)
    J = RealMatrix.from_rows([[1.3, 0.2], [0.1, 0.9]], PREC)
    rep = experiments.conjecture_probe(H, J, xi_samples=1,
                                       Q_schedule=(10, 20, 50, 100, 200), seed=3)
    t = rep["targets"][0]
    assert t["estimate"] >= 1.5 - 0.1  # Dirichlet floor r/g - 0.1
