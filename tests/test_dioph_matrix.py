import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from dioph import dioph_matrix
from dioph.dioph_matrix import (RealMatrix, _windows, best_approx, build_A_from_HJ,
                                dirichlet_check, exponent_estimate,
                                liouville_number)
from dioph.errors import BudgetExceededError, SingularMatrixError, ValidationError

from conftest import PHI_STR

PREC = 128


def naive_oracle(A_rows, gamma, Q):
    """Independent double-loop minimizer in float64 over the full q-box."""
    m, n = len(A_rows), len(A_rows[0])
    g = gamma if gamma is not None else [0.0] * m
    best = None
    for q in itertools.product(range(-Q, Q + 1), repeat=n):
        if all(v == 0 for v in q):
            continue
        worst = 0.0
        for i in range(m):
            r = sum(A_rows[i][j] * q[j] for j in range(n)) - g[i]
            worst = max(worst, abs(r - round(r)))
        if best is None or worst < best[0]:
            best = (worst, q)
    return best


def test_phi_best_q89():
    A = RealMatrix.scalar(PHI_STR, PREC)
    rec = best_approx(A, None, 100)
    assert rec.q == (89,) and rec.p == (-144,)
    phi = mp.mpf(PHI_STR)
    assert abs(rec.error - abs(89 * phi - 144)) < 1e-30
    assert abs(float(rec.error) - 0.0050250) < 1e-6


def test_zero_matrix_unit_vector():
    A = RealMatrix.from_rows([["0", "0"]], PREC)
    rec = best_approx(A, None, 3)
    assert rec.error == 0
    assert rec.q == (0, 1)  # first nonzero vector in the canonical order
    assert rec.exponent_sample == math.inf


def test_inhomogeneous_enumeration_oracle():
    # direct enumeration over |q| <= 10 beats the naive expectation q = 2:
    # |7 phi - 11 - 1/3| ~ 0.0071 is the true minimum
    A = RealMatrix.scalar(PHI_STR, PREC)
    rec = best_approx(A, "1/3", 10)
    phi = float(mp.mpf(PHI_STR))
    oracle = naive_oracle([[phi]], [1.0 / 3.0], 10)
    assert rec.q == tuple(oracle[1])
    assert abs(float(rec.error) - oracle[0]) < 1e-12
    assert rec.q == (7,)
    # the q = 2 witness satisfies the quarter bound but is not the minimum
    assert abs(2 * phi - 3 - 1 / 3) > float(rec.error)
    assert abs(rec.q[0]) * float(rec.error) < 0.25


def test_oracle_equivalence_random():
    rng = np.random.default_rng(42)
    for trial in range(60):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        Q = int(rng.integers(1, 13 if n == 2 else 40))
        rows = [[float(rng.uniform(-2, 2)) for _ in range(n)] for _ in range(m)]
        gamma = [float(rng.uniform(-1, 1)) for _ in range(m)] if rng.random() < 0.5 else None
        A = RealMatrix.from_rows(rows, PREC)
        rec = best_approx(A, gamma, Q)
        err_o, q_o = naive_oracle(rows, gamma, Q)
        assert abs(float(rec.error) - err_o) < 1e-10, (rows, gamma, Q)


def test_determinism_repeat_calls():
    rng = np.random.default_rng(3)
    rows = [[float(rng.uniform(-2, 2)) for _ in range(2)] for _ in range(2)]
    A = RealMatrix.from_rows(rows, PREC)
    r1 = best_approx(A, [0.3, -0.4], 40)
    r2 = best_approx(A, [0.3, -0.4], 40)
    assert (r1.q, r1.p, r1.error) == (r2.q, r2.p, r2.error)


def test_budget_error():
    A = RealMatrix.from_rows([["0.5", "0.5", "0.5"]], PREC)
    with pytest.raises(BudgetExceededError):
        best_approx(A, None, 10**4)


def test_dirichlet_check_examples():
    A = RealMatrix.scalar(PHI_STR, PREC)
    ok, rec, _ = dirichlet_check(A, 100)
    assert ok and float(rec.error) < 0.01
    # rational entries: exact solution at the common denominator (3/8 is
    # binary-representable, so the hit is exact; 3/7 rounds at storage and
    # leaves only the 2^-prec residue, still far under threshold)
    B = RealMatrix.from_rows([["3/8"]], PREC)
    ok, rec, _ = dirichlet_check(B, 8)
    assert ok and rec.error == 0 and rec.q == (8,)
    C = RealMatrix.from_rows([["3/7"]], PREC)
    ok, rec, _ = dirichlet_check(C, 7)
    assert ok and rec.error < mp.mpf(2) ** -120
    rng = np.random.default_rng(5)
    for _ in range(10):
        M = RealMatrix.from_rows([[float(rng.uniform(-3, 3)) for _ in range(2)]
                                  for _ in range(2)], PREC)
        ok, _, _ = dirichlet_check(M, 50)
        assert ok


def test_vwa_solver():
    # err < c Q^(-n/m + epsilon) with c = 1, epsilon = 0.1: badly
    # approximable A still admits Dirichlet-quality solutions
    A = RealMatrix.scalar(PHI_STR, PREC)
    rec = best_approx(A, "1/3", 1000)
    with mp.workprec(PREC):
        assert rec.error < mp.mpf(1000) ** mp.mpf("-0.9")
    B = RealMatrix.from_rows([["1/2"]], PREC)
    assert best_approx(B, None, 10).error == 0


def test_exponent_phi_band():
    A = RealMatrix.scalar(PHI_STR, PREC)
    fit = exponent_estimate(A, 10**6)
    assert 0.95 <= fit.estimate <= 1.05
    # raw window samples overshoot 1 by the sqrt(5) constant; recorded, not fit
    assert fit.observed_max > 1.05
    assert all(s >= 0.9 for _, s in fit.window_maxima[2:])


def test_exponent_monotone_in_qmax():
    A = RealMatrix.scalar(PHI_STR, PREC)
    est = [exponent_estimate(A, qm).estimate for qm in (10**4, 10**5, 10**6)]
    assert est[0] <= est[1] + 1e-12 and est[1] <= est[2] + 1e-12


def test_exponent_exact_hit_sentinel():
    A = RealMatrix.from_rows([["5/8"]], PREC)
    fit = exponent_estimate(A, 100)
    assert fit.estimate == math.inf
    assert fit.exact_hit is not None


def test_exponent_liouville():
    alpha = liouville_number(precision_bits=PREC)
    # direct series check of the designed quality-4 convergent at q = 2^6:
    # 2^6 alpha = 2^4 + 1 + 2^-24 + 2^-144
    err = abs(64 * alpha - 17)
    assert abs(err - mp.mpf(2) ** -24) < mp.mpf(2) ** -100
    A = RealMatrix.scalar(alpha, PREC)
    fit = exponent_estimate(A, 1000)
    assert fit.estimate > 2
    bigger = exponent_estimate(A, 10**5).estimate
    assert bigger >= fit.estimate - 1e-9  # grows with Q_max


def test_exponent_dirichlet_floor_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        A = RealMatrix.from_rows([[float(rng.uniform(0.05, 0.95))] for _ in range(m)], PREC)
        fit = exponent_estimate(A, 10**4)
        assert fit.estimate >= 1.0 / m - 0.05


def test_exponent_sample_translation_invariance():
    # integer translation of gamma leaves errors, hence samples, unchanged
    A = RealMatrix.scalar(PHI_STR, PREC)
    r1 = best_approx(A, "0.25", 50)
    r2 = best_approx(A, "5.25", 50)
    assert r1.q == r2.q and abs(r1.error - r2.error) < mp.mpf(2) ** -90
    assert r1.exponent_sample == pytest.approx(r2.exponent_sample, abs=1e-12)


def test_build_A_from_HJ():
    H = RealMatrix.from_rows([["0.9223"]], PREC)
    J = RealMatrix.from_rows([["1.3975"]], PREC)
    A = build_A_from_HJ(H, J)
    assert abs(A.entry(0, 0) - mp.mpf("0.9223") / mp.mpf("1.3975")) < 1e-30
    I2 = RealMatrix.from_rows([["1", "0"], ["0", "1"]], PREC)
    H2 = RealMatrix.from_rows([["0.3", "0.4", "0.5"], ["0.6", "0.7", "0.8"]], PREC)
    A2 = build_A_from_HJ(H2, I2)
    assert all(abs(A2.entries[k] - H2.entries[k]) == 0 for k in range(6))
    # residual check J (J^-1 H) = H for a generic well-conditioned J
    rng = np.random.default_rng(2)
    J3 = RealMatrix.from_rows([[1.2, 0.3], [-0.2, 0.8]], PREC)
    A3 = build_A_from_HJ(H2, J3)
    with mp.workprec(PREC + 16):
        for i in range(2):
            for j in range(3):
                resid = mp.fsum(J3.entry(i, k) * A3.entry(k, j) for k in range(2)) - H2.entry(i, j)
                assert abs(resid) < mp.mpf(2) ** (-PREC // 2)
    with pytest.raises(SingularMatrixError):
        build_A_from_HJ(H2, RealMatrix.from_rows([["1", "1"], ["1", "1"]], PREC))


def test_matrix_validation():
    with pytest.raises(ValidationError):
        RealMatrix.from_rows([["1", "2"], ["3"]], PREC)
    with pytest.raises(ValidationError):
        RealMatrix.from_json({"m": 2, "n": 1, "entries": ["1"]})
    with pytest.raises(ValidationError):
        best_approx(RealMatrix.scalar("1", PREC), None, 0)


@pytest.mark.parametrize("base", (1.0, 0.5, 1.0000001))
def test_windows_stop_at_the_window_budget(base):
    # a base at or below 1 never passes q_max, and one just above 1 takes
    # tens of millions of windows: both end in BudgetExceededError
    with pytest.raises(BudgetExceededError):
        sum(1 for _ in itertools.islice(_windows(base, 10), 10_000))


def test_window_budget_admits_base_1_01_to_1e15():
    assert len(list(_windows(1.01, 10**15))) == 3472 <= dioph_matrix.MAX_WINDOWS
