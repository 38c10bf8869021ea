import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from dioph import haw_game, lattice_dyn
from dioph.dioph_matrix import RealMatrix, liouville_number
from dioph.errors import CertificateError, ValidationError

PREC = 256


@pytest.fixture(scope="module")
def liouville_A():
    return RealMatrix.scalar(liouville_number(precision_bits=PREC), PREC)


@pytest.fixture(scope="module")
def strategy(liouville_A):
    return haw_game.derive_strategy(liouville_A, sigma=3.0, t_max=30.0)


def test_strategy_parameters(strategy):
    # mu = (m/n + sigma)/2 and the slope formulas
    assert strategy.mu == pytest.approx(2.0)
    assert strategy.theta_sigma == pytest.approx(0.5)
    assert strategy.theta_mu == pytest.approx(1.0 / 3.0)
    assert strategy.epsilon_mu == pytest.approx(1.0 - 1.0 / 2.0)
    assert strategy.theta_mu < strategy.theta_sigma


def test_stage_schedule(strategy):
    # the quality-4 convergent q = 2^6 balances at t = 15 log(2) ~ 10.397
    assert len(strategy.stages) >= 1
    st = strategy.stages[0]
    assert st.t == pytest.approx(15 * math.log(2), abs=1e-6)
    assert st.grid_denominator == pytest.approx(64.0)
    # eligibility: ||a_k|| < e^(-theta_sigma t_k)
    assert st.a_norm < math.exp(-strategy.theta_sigma * st.t)
    # hyperplane spacing exceeds e^(theta_sigma t_k) before flow scaling
    assert 1.0 / st.a_norm > math.exp(strategy.theta_sigma * st.t)
    # trigger band sits under the spacing so at most one neighborhood can
    # meet any triggered ball
    assert st.spacing > 2 * st.band_hi + 2 * st.halfwidth


def _convergents(x):
    """(p, q) of every convergent of the rational x > 0."""
    out, (p0, q0, p1, q1) = [], (0, 1, 1, 0)
    while True:
        a = x.numerator // x.denominator
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
        if x == a:
            return out
        x = 1 / (x - a)


def test_dual_flow_matches_convergent_oracle(liouville_A, monkeypatch):
    # The dual flow at time t is the lattice of -alpha flowed by g_t, whose
    # shortest vector is (1, 0) or a convergent (p, q) of alpha: its length is
    # max(e^t |q alpha - p|, e^-t q).  t_max 38.5 is about the schedule depth
    # (38.4) of a 16-round game; float64 bases lose this lattice from t = 17.
    alpha = liouville_A.exact[0]
    assert alpha == sum(Fraction(1, 2**e) for e in (2, 6, 30, 150))
    conv = _convergents(alpha)
    times = np.arange(0.05, 38.5, 0.05)
    sweep = haw_game._dual_flow(liouville_A, times)
    oracle_u, oracle_w, oracle_lam = [], [], []
    with mp.workprec(600):
        a = mp.mpf(alpha.numerator) / alpha.denominator
        for t in times:
            et = mp.exp(mp.mpf(float(t)))
            lam, p, q = min([(et, 1, 0)] + [(max(et * abs(q * a - p), q / et), p, q)
                                             for p, q in conv])
            oracle_lam.append(lam)
            oracle_u.append(float(abs(q * a - p)))
            oracle_w.append(float(q))
        for t, got, want in zip(times, sweep.lambdas[:, 0], oracle_lam):
            assert abs(got - want) <= 1e-12 * want, t
    # the schedule derived from the oracle's vectors is the sweep's
    swept = haw_game.derive_strategy(liouville_A, sigma=3.0, t_max=38.5, dt=0.05)
    oracle = lattice_dyn._Sweep(lambdas=np.array([[float(v)] for v in oracle_lam]),
                                coeffs=None, u=np.array(oracle_u), w=np.array(oracle_w))
    monkeypatch.setattr(haw_game, "_dual_flow", lambda A, times: oracle)
    from_oracle = haw_game.derive_strategy(liouville_A, sigma=3.0, t_max=38.5, dt=0.05)
    assert swept.stages == from_oracle.stages
    assert swept.dropped_stages == from_oracle.dropped_stages
    assert [st.t for st in swept.stages] == pytest.approx([15 * math.log(2)], abs=1e-12)


def test_games_trigger_and_certify(liouville_A, strategy):
    for seed in range(10):
        for policy in ("random", "greedy"):
            out = haw_game.run_game(liouville_A, sigma=3.0, rounds=12,
                                    bob_policy=policy, seed=seed,
                                    target=1.0 / 64 if policy == "greedy" else None,
                                    params=strategy)
            assert len(out.triggered) >= 1
            assert out.all_certificates_pass
            for cert in out.triggered:
                assert cert["min_error"] > cert["threshold"]


def test_nesting_and_radius_invariants(liouville_A, strategy):
    out = haw_game.run_game(liouville_A, sigma=3.0, rounds=12, seed=4, params=strategy)
    tr = out.transcript
    for prev, cur in zip(tr[:-1], tr[1:]):
        assert cur["radius"] >= strategy.beta * prev["radius"] - 1e-12
        assert cur["center"] - cur["radius"] >= prev["center"] - prev["radius"] - 1e-12
        assert cur["center"] + cur["radius"] <= prev["center"] + prev["radius"] + 1e-12
    # outcome inside every ball and outside every deletion
    for row in tr:
        assert abs(out.gamma - row["center"]) <= row["radius"] + 1e-12
    for row in tr[1:]:
        assert abs(out.gamma - row["deletion_center"]) >= row["deletion_halfwidth"] - 1e-12


def test_zero_rounds_empty_certificate(liouville_A, strategy):
    out = haw_game.run_game(liouville_A, sigma=3.0, rounds=0, seed=0, params=strategy)
    assert out.triggered == [] and out.all_certificates_pass


def test_determinism_by_seed(liouville_A, strategy):
    a = haw_game.run_game(liouville_A, sigma=3.0, rounds=12, seed=9, params=strategy)
    b = haw_game.run_game(liouville_A, sigma=3.0, rounds=12, seed=9, params=strategy)
    assert a.gamma == b.gamma and a.transcript == b.transcript


def test_greedy_tangent_to_strip(strategy):
    # target inside the deleted strip: the new ball hugs the strip edge
    state = haw_game.GameState(beta=0.3, round=0, ball_center=np.array([0.5]),
                               ball_radius=0.1)
    deletion = haw_game.Deletion(kind="trigger", stage=0, center=0.5, halfwidth=0.02)
    rng = np.random.default_rng(0)
    x, rho = haw_game.bob_move(state, deletion, "greedy", rng, target=0.5)
    assert rho >= 0.3 * 0.1 - 1e-15
    edge = 0.5 + 0.02 if x > 0.5 else 0.5 - 0.02
    assert abs(abs(x - edge) - rho) < 1e-12  # tangent
    assert abs(x - 0.5) >= 0.02 + rho - 1e-12


def test_alice_fallback_disjoint(liouville_A, strategy):
    # radius far above every band and center away from all hyperplane grids:
    # the deletion must avoid Bob's ball entirely
    state = haw_game.GameState(beta=0.3, round=0, ball_center=np.array([0.51]),
                               ball_radius=3.0)
    d = haw_game.alice_move(state, strategy)
    if d.kind == "disjoint":
        assert abs(d.center - 0.51) > 3.0 + d.halfwidth


def test_alice_tie_smaller_index(strategy):
    st = strategy.stages[0]
    # center exactly between grid points i/denom and (i+1)/denom
    mid = (3 + 0.5) / st.grid_denominator
    state = haw_game.GameState(beta=0.3, round=0, ball_center=np.array([mid]),
                               ball_radius=(st.band_lo + st.band_hi) / 2)
    d = haw_game.alice_move(state, strategy)
    assert d.kind == "trigger" and d.hyperplane_index == 3


def test_corrupted_strategy_fails_certificate(liouville_A, strategy):
    # doubling every threshold makes the certificate unsatisfiable
    bad_stages = [haw_game.Stage(index=st.index, t=st.t, a_norm=st.a_norm,
                                 grid_denominator=st.grid_denominator,
                                 halfwidth=st.halfwidth / 50,
                                 band_lo=st.band_lo, band_hi=st.band_hi,
                                 Q=st.Q, threshold=st.threshold * 500,
                                 spacing=st.spacing)
                  for st in strategy.stages]
    bad = haw_game.StrategyParams(
        c=strategy.c, beta=strategy.beta, sigma=strategy.sigma, mu=strategy.mu,
        theta_sigma=strategy.theta_sigma, theta_mu=strategy.theta_mu,
        epsilon_mu=strategy.epsilon_mu, m=strategy.m, n=strategy.n, stages=bad_stages)
    out = haw_game.run_game(RealMatrix.scalar(liouville_number(precision_bits=PREC), PREC),
                            sigma=3.0, rounds=12, seed=0, params=bad)
    assert not out.all_certificates_pass


def test_vwa_solver_agrees_with_game_certificate(liouville_A, strategy):
    # the game outcome admits no solution below the stage threshold, so the
    # solver with the calibrated constant must report "not solvable"
    from dioph.dioph_matrix import vwa_solver
    out = haw_game.run_game(liouville_A, sigma=3.0, rounds=12, seed=0, params=strategy)
    assert out.triggered
    cert = out.triggered[0]
    st = strategy.stages[cert["stage"]]
    Qk = int(math.floor(st.Q))
    c_eff = strategy.c ** (1 + 1 / strategy.mu)
    rec, ok = vwa_solver(liouville_A, out.gamma, Qk,
                         epsilon=strategy.epsilon_mu, c=c_eff)
    assert not ok
    assert float(rec.error) == pytest.approx(cert["min_error"], rel=1e-9)


def test_cli_exit_3_on_certificate_failure(monkeypatch, tmp_path):
    from dioph import cli as cli_mod
    original = haw_game.derive_strategy

    def corrupted(A, sigma, t_max=30.0, **kw):
        params = original(A, sigma, t_max=t_max, **kw)
        params.stages = [haw_game.Stage(
            index=st.index, t=st.t, a_norm=st.a_norm,
            grid_denominator=st.grid_denominator, halfwidth=st.halfwidth / 50,
            band_lo=st.band_lo, band_hi=st.band_hi, Q=st.Q,
            threshold=st.threshold * 500, spacing=st.spacing)
            for st in params.stages]
        return params

    monkeypatch.setattr(haw_game, "derive_strategy", corrupted)
    code = cli_mod.parse_and_dispatch(
        ["haw", "--liouville", "--sigma", "3", "--rounds", "12", "--seed", "0",
         "--out", str(tmp_path / "bad")])
    assert code == 3


def test_m2_data_model_moves(liouville_A, strategy):
    # the data model holds m = 2 states, though no game is played with them
    state = haw_game.GameState(beta=0.3, round=0, ball_center=np.array([0.5, 0.5]),
                               ball_radius=0.2)
    deletion = haw_game.Deletion(kind="disjoint", stage=None, center=0.9, halfwidth=0.01)
    assert state.ball_center.shape == (2,)
    # deletions live in the transcript: a game of no rounds has none
    out = haw_game.run_game(liouville_A, sigma=3.0, rounds=0, seed=0, params=strategy)
    assert [set(row) for row in out.transcript] == [{"round", "center", "radius"}]


def test_validation_errors(liouville_A):
    with pytest.raises(ValidationError):
        haw_game.derive_strategy(liouville_A, sigma=0.5)
    with pytest.raises(ValidationError):
        haw_game.derive_strategy(liouville_A, sigma=3.0, beta=0.4)
    with pytest.raises(ValidationError):
        haw_game.run_game(liouville_A, sigma=3.0, rounds=-1)
    M2 = RealMatrix.from_rows([["0.1"], ["0.2"]], 64)
    with pytest.raises(ValidationError):
        haw_game.run_game(M2, sigma=3.0, rounds=2)
