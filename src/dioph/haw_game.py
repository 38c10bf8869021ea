"""Hyperplane absolute game simulator and the deletion strategy for VWA inputs.

Alice's data comes from the dual lattice flow: at times t_k where the dual
shortest vector balances its block norms with length below e^(-theta_sigma
t_k), she deletes a neighborhood of the scaled hyperplane family nearest
Bob's center whenever Bob's radius falls in the stage's trigger band.  Only
the interval game (m = 1) is implemented: `derive_strategy` and `run_game`
reject any other m.

The dual flow g_(-t) on the polar of Lambda_A is the primal flow of -A^T
with the two blocks swapped (`_dual_flow`), so it runs on the one sweep of
`lattice_dyn`: its shortest vectors are scored exactly from their integer
coefficients, and the schedule holds out to the depth of long games (t about
38 for 16 rounds), where float64 bases of this lattice give out.  For a
1 x 1 A those vectors are (1, 0) and the convergents of A, read off its
exact continued fraction, with no lattice reduction or enumeration.
Deletions are recorded once, in the game's transcript.

Stages are thinned to those whose hyperplane spacing exceeds the largest
possible triggered ball plus deleted widths, which is the effective form of
the "k sufficiently large" hypothesis; each finite game then yields a
certificate per triggered stage: the exact minimum of the circle error
below Q_k, found by `best_approx`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import lattice_dyn
from .dioph_matrix import RealMatrix, best_approx
from .errors import BudgetExceededError, CertificateError, ValidationError

DEFAULT_BETA = 0.3
DEFAULT_C = 0.1
CERT_MAX_Q = 50_000_000


@dataclass(frozen=True)
class Stage:
    index: int
    t: float
    a_norm: float  # ||a_k|| = ||b_k|| of the flowed dual short vector
    grid_denominator: float  # base-frame first block: centers are i / this
    halfwidth: float
    band_lo: float
    band_hi: float
    Q: float
    threshold: float
    spacing: float  # distance between consecutive scaled hyperplanes


@dataclass
class StrategyParams:
    c: float
    beta: float
    sigma: float
    mu: float
    theta_sigma: float
    theta_mu: float
    epsilon_mu: float
    m: int
    n: int
    stages: List[Stage]
    dropped_stages: List[dict] = field(default_factory=list)


@dataclass
class GameState:
    beta: float
    round: int
    ball_center: np.ndarray
    ball_radius: float


@dataclass
class Deletion:
    kind: str  # 'trigger' | 'pending-cover' | 'disjoint'
    stage: Optional[int]
    center: float
    halfwidth: float
    hyperplane_index: Optional[int] = None


@dataclass
class HawOutcome:
    gamma: float
    triggered: List[dict]
    transcript: List[dict]
    all_certificates_pass: bool
    params: StrategyParams


def _dual_flow(A: RealMatrix, times: np.ndarray) -> "lattice_dyn._Sweep":
    """Shortest vectors of the dual flow g_(-t) Lambda_A^* at the sample times.

    The polar basis of Lambda_A sends (p, q) to (p, q - A^T p), and g_(-t)
    scales it to (e^(-t/m) p, e^(t/n) (q - A^T p)).  With the blocks swapped
    that is g_t on Lambda_(-A^T), so the dual flow is the primal sweep of -A^T,
    and its u, w are ||q - A^T p|| and ||p||.
    """
    m, n = A.m, A.n
    order = [i * n + j for j in range(n) for i in range(m)]  # row-major A^T
    dual = RealMatrix(m=n, n=m, entries=tuple(-A.entries[i] for i in order),
                      precision_bits=A.precision_bits,
                      exact=tuple(-A.exact[i] for i in order))
    return lattice_dyn._flow_sweep(dual, times, 1, lattice_dyn.DEFAULT_MAX_ENUM)


def derive_strategy(A: RealMatrix, sigma: float, beta: float = DEFAULT_BETA,
                    c: float = DEFAULT_C, t_max: float = 30.0, dt: float = 0.05) -> StrategyParams:
    """Stage schedule from the dual flow of Lambda_A (m = 1 intervals)."""
    m, n = A.m, A.n
    if m != 1:
        raise ValidationError("strategy derivation is implemented for m = 1")
    if not 0 < beta < 1.0 / 3:
        raise ValidationError("beta must lie in (0, 1/3)")
    if sigma <= m / n:
        raise ValidationError("sigma must exceed m/n")
    mu = (m / n + sigma) / 2
    th_s = lattice_dyn.theta_sigma(sigma, m, n)
    th_m = lattice_dyn.theta_sigma(mu, m, n)
    eps_mu = n / m - 1 / mu

    times = np.arange(dt, t_max, dt)
    sweep = _dual_flow(A, times)
    stages: List[Stage] = []
    dropped: List[dict] = []
    gap_needed = 2 * abs(math.log(beta)) / (1 / m - th_m)
    for i in lattice_dyn._local_minima_indices(sweep.lambdas[:, 0]):
        u, w = float(sweep.w[i]), float(sweep.u[i])  # ||p|| and ||q - A^T p||
        if u <= 0 or w <= 0:
            continue
        # dual flow contracts the first block: balance of e^(-t/m)u = e^(t/n)w
        t_k = math.log(u / w) * m * n / (m + n)
        if t_k <= 0 or abs(t_k - times[i]) > 2 * dt:
            continue
        a_norm = math.exp(-t_k / m) * u
        if not a_norm < math.exp(-th_s * t_k):  # eligibility: ||r_k|| < e^(-theta_sigma t)
            dropped.append({"t": t_k, "reason": "not sigma-eligible"})
            continue
        halfwidth = 2 * c * math.exp(-(1 / m - th_m) * t_k)
        band_lo, band_hi = halfwidth / beta, halfwidth / beta**2
        spacing = math.exp(-t_k / m) / a_norm
        if spacing <= 1.02 * (2 * band_hi + 2 * halfwidth):
            dropped.append({"t": t_k, "reason": "hyperplane spacing too small for band"})
            continue
        if stages and t_k - stages[-1].t < gap_needed:
            dropped.append({"t": t_k, "reason": "gap condition"})
            continue
        Qk = c * math.exp((th_m + 1 / n) * t_k)
        # err <= c^(1+1/mu) Q^(-1/mu) forces gamma within the deleted halfwidth
        # 2c e^((theta_mu - 1/m) t) of the hyperplane grid, for any c; the
        # uncalibrated c/Q^(1/mu) only matches deletions when c >= 1.
        stages.append(Stage(index=len(stages), t=t_k, a_norm=a_norm,
                            grid_denominator=u, halfwidth=halfwidth,
                            band_lo=band_lo, band_hi=band_hi, Q=Qk,
                            threshold=c ** (1 + 1 / mu) * Qk ** (-1 / mu),
                            spacing=spacing))
    return StrategyParams(c=c, beta=beta, sigma=sigma, mu=mu, theta_sigma=th_s,
                          theta_mu=th_m, epsilon_mu=eps_mu, m=m, n=n,
                          stages=stages, dropped_stages=dropped)


def _nearest_grid(center: float, denom: float) -> Tuple[float, int]:
    """Nearest point of (1/denom) Z; exact ties resolved to the smaller index."""
    x = center * denom
    lo = math.floor(x)
    i = lo if (x - lo) <= 0.5 else lo + 1  # tie -> smaller index
    return i / denom, i


def alice_move(state: GameState, params: StrategyParams) -> Deletion:
    """Trigger-band deletion, then the pending-k' cover rule, then a disjoint cut."""
    stages = params.stages
    if not stages:
        raise ValidationError("no stage data supplied for Alice")
    rho = state.ball_radius
    center = float(state.ball_center[0])
    for st in stages:
        if st.band_lo <= rho <= st.band_hi:
            point, idx = _nearest_grid(center, st.grid_denominator)
            return Deletion(kind="trigger", stage=st.index, center=point,
                            halfwidth=st.halfwidth, hyperplane_index=idx)
    # radius above every remaining band: smallest pending k' whose neighborhood
    # already covers Bob's center
    pending = [st for st in stages if st.band_hi < rho]
    for st in pending:
        point, idx = _nearest_grid(center, st.grid_denominator)
        if abs(center - point) <= st.halfwidth:
            return Deletion(kind="pending-cover", stage=st.index, center=point,
                            halfwidth=st.halfwidth, hyperplane_index=idx)
    # no such neighborhood: delete one disjoint from Bob's ball
    return Deletion(kind="disjoint", stage=None, center=center + 2 * rho,
                    halfwidth=state.beta * rho / 4)


def _legal_intervals(center: float, rho: float, deletion: Deletion, rho_new: float):
    """Center ranges for a radius-rho_new ball inside the old ball minus the cut."""
    lo, hi = center - rho, center + rho
    cut_lo, cut_hi = deletion.center - deletion.halfwidth, deletion.center + deletion.halfwidth
    pieces = []
    left = (lo, min(hi, cut_lo))
    right = (max(lo, cut_hi), hi)
    for a, b in (left, right) if cut_hi > lo and cut_lo < hi else [(lo, hi)]:
        if b - a >= 2 * rho_new:
            pieces.append((a + rho_new, b - rho_new))
    return pieces


def bob_move(state: GameState, deletion: Deletion, policy: str, rng: np.random.Generator,
             target: Optional[float] = None) -> Tuple[float, float]:
    """New (center, radius) under 'random' or 'greedy-toward-target'."""
    rho = state.ball_radius
    center = float(state.ball_center[0])
    if policy == "random":
        for shrink in range(12):
            rho_new = rho * (state.beta + (1 - state.beta) * float(rng.random()) * 0.95**shrink)
            rho_new = max(rho_new, state.beta * rho)
            pieces = _legal_intervals(center, rho, deletion, rho_new)
            if pieces:
                grid = np.concatenate([np.linspace(a, b, 33) for a, b in pieces])
                return float(grid[int(rng.integers(len(grid)))]), rho_new
        raise CertificateError("no legal ball for Bob (invariant violation)")
    if policy == "greedy":
        if target is None:
            target = center
        # steady shrink toward the target; the center is the projection of the
        # target onto the legal region, so a target inside the deleted strip
        # produces a ball tangent to the strip.
        for frac in np.linspace(0.55, state.beta, 30):
            rho_new = max(rho * float(frac), state.beta * rho)
            pieces = _legal_intervals(center, rho, deletion, rho_new)
            if pieces:
                cands = [min(max(target, a), b) for a, b in pieces]
                x = min(cands, key=lambda v: abs(v - target))
                return x, rho_new
        raise CertificateError("no legal ball for Bob (invariant violation)")
    raise ValidationError(f"unknown bob policy: {policy}")


def _certificate(A: RealMatrix, gamma: float, stage: Stage) -> dict:
    """Every 0 < |q| < Q_k must leave min_p |q alpha + p - gamma| above the stage threshold.

    One `best_approx` over |q| <= ceil(Q_k) - 1 gives the exact minimum for
    the exact alpha of A and the float gamma; `checked` counts the 2 top
    values of q the certificate covers.
    """
    Qk = stage.Q
    top = int(math.ceil(Qk)) - 1
    if top > CERT_MAX_Q:
        raise BudgetExceededError(f"certificate budget: Q_k = {Qk:.3g}")
    if top < 1:
        return {"stage": stage.index, "t": stage.t, "Q": Qk, "checked": 0,
                "min_error": math.inf, "threshold": stage.threshold, "pass": True}
    min_err = float(best_approx(A, gamma, top).error)
    ok = min_err > stage.threshold
    return {"stage": stage.index, "t": stage.t, "Q": Qk, "checked": 2 * top,
            "min_error": min_err, "threshold": stage.threshold, "pass": bool(ok)}


def run_game(A: RealMatrix, sigma: float, rounds: int, bob_policy: str = "random",
             seed: int = 0, beta: float = DEFAULT_BETA, c: float = DEFAULT_C,
             rho0: float = 0.05, target: Optional[float] = None,
             dt: float = 0.05, params: Optional[StrategyParams] = None) -> HawOutcome:
    """Play a seeded interval game and verify every triggered-stage certificate."""
    if A.m != 1:
        raise ValidationError("run_game is the m = 1 interval implementation")
    if rounds < 0:
        raise ValidationError("rounds must be >= 0")
    if params is None:
        # schedule deep enough for the radii this game can reach
        th_m = lattice_dyn.theta_sigma((1 / A.n + sigma) / 2, 1, A.n)
        rho_min = rho0 * beta ** (rounds + 2)
        t_need = max(10.0, math.log(max(2 * c / (beta * rho_min), 2.0)) / (1 / 1 - th_m) + 2)
        params = derive_strategy(A, sigma, beta=beta, c=c, t_max=t_need, dt=dt)
    rng = np.random.default_rng(seed)
    center0 = float(rng.uniform(0.2, 0.8))
    state = GameState(beta=beta, round=0, ball_center=np.array([center0]),
                      ball_radius=rho0)
    transcript = [{"round": 0, "center": center0, "radius": rho0}]
    triggered_stages: List[Stage] = []
    stage_by_index = {st.index: st for st in params.stages}
    for r in range(rounds):
        deletion = alice_move(state, params)
        if deletion.kind == "trigger" and deletion.stage is not None:
            st = stage_by_index[deletion.stage]
            if st not in triggered_stages:
                triggered_stages.append(st)
        prev_center, prev_rho = float(state.ball_center[0]), state.ball_radius
        new_center, new_rho = bob_move(state, deletion, bob_policy, rng, target)
        # nesting and radius-ratio invariants
        if new_rho < state.beta * prev_rho - 1e-12:
            raise CertificateError("radius shrank faster than beta")
        if new_center - new_rho < prev_center - prev_rho - 1e-12 or \
           new_center + new_rho > prev_center + prev_rho + 1e-12:
            raise CertificateError("ball escaped its predecessor")
        if abs(new_center - deletion.center) < deletion.halfwidth + new_rho - 1e-12:
            raise CertificateError("ball intersects the deleted neighborhood")
        state.ball_center = np.array([new_center])
        state.ball_radius = new_rho
        state.round = r + 1
        transcript.append({
            "round": r + 1, "center": new_center, "radius": new_rho,
            "deletion_kind": deletion.kind, "deletion_stage": deletion.stage,
            "deletion_center": deletion.center, "deletion_halfwidth": deletion.halfwidth,
        })
    gamma = float(state.ball_center[0])
    # outcome must avoid every deleted neighborhood
    for row in transcript[1:]:
        if abs(gamma - row["deletion_center"]) < row["deletion_halfwidth"] - 1e-12:
            raise CertificateError("outcome lies in a deleted neighborhood")
    certs = [_certificate(A, gamma, st) for st in triggered_stages]
    all_pass = all(cd["pass"] for cd in certs)
    return HawOutcome(gamma=gamma, triggered=certs, transcript=transcript,
                      all_certificates_pass=all_pass, params=params)
