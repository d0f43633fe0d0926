import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lqcoord as lq
import scalar_oracle as oracle
from lqcoord.channel import channel_step, fa_setup
from lqcoord.gains import backward_riccati
from lqcoord.linalg import min_eig
from lqcoord.power import heuristic_schedule
from lqcoord.power.pmp import (costate_Z, offset_feedback_seq, surrogate_z_step,
                               stage_cost_fa, terminal_cost)
from lqcoord.power import scalar
from lqcoord.power.scalar import (A_CEIL, A_FLOOR, RESIDUAL_TOL,
                                  scalar_constants, scalar_backward_solve,
                                  solve_scalar_power, stationarity_residuals,
                                  theta_b_sequence, _b_forward)
from lqcoord.power.schedules import PowerSchedule, ScheduleMode
from lqcoord.errors import InvalidTheta, LqcoordError


@pytest.fixture(scope="module")
def preset():
    model = lq.fully_actuated_model(n=30)
    setup = fa_setup(model.B1, model.W)
    gains = backward_riccati(model)
    return model, setup, gains


@pytest.fixture(scope="module")
def solved(preset):
    model, setup, gains = preset
    return solve_scalar_power(gains, setup, model, epsilon=1e-3)


def surrogate_schedule_cost(schedule, model, setup, gains):
    """Sum of the surrogate stage costs along the surrogate dynamics."""
    L = offset_feedback_seq(gains, model)
    Z = model.X0 + model.Sigma0
    Sigma = model.Sigma0.copy()
    total = 0.0
    for t in range(model.n):
        lam = schedule.lam(t)
        total += stage_cost_fa(Z, Sigma, lam, gains, setup, model, t, L)
        Z = surrogate_z_step(Z, Sigma, lam, gains, setup, model, t, L)
        Sigma = channel_step(setup, Sigma, lam).Sigma_next
    return total + terminal_cost(Z, model)


# --- heuristic schedule ---------------------------------------------------------

def test_heuristic_theta_one_is_flat():
    s = heuristic_schedule(1.0, 3, 4)
    for t in range(3):
        np.testing.assert_array_equal(s.lam(t), np.ones(4))


def test_heuristic_decay_values():
    s = heuristic_schedule(0.88, 12, 4)
    np.testing.assert_allclose(s.lam(2), 0.7744 * np.ones(4))
    s2 = heuristic_schedule(0.5, 12, 2)
    np.testing.assert_allclose(s2.lam(10), 9.765625e-4 * np.ones(2))


def test_heuristic_rejects_bad_theta():
    with pytest.raises(InvalidTheta):
        heuristic_schedule(0.0, 3, 2)
    with pytest.raises(InvalidTheta):
        heuristic_schedule(1.2, 3, 2)


# --- constants table -------------------------------------------------------------

def test_constants_Q_a_psd(preset):
    model, setup, gains = preset
    c = scalar_constants(gains, setup, model)
    assert min_eig(c.Q_a) >= -1e-10
    np.testing.assert_allclose(c.Q_a, c.Q_a.T, atol=1e-12)


def test_constants_Q_ab_symmetric(preset):
    model, setup, gains = preset
    c = scalar_constants(gains, setup, model)
    for t in range(model.n):
        np.testing.assert_allclose(c.Q_ab[t], c.Q_ab[t].T, atol=1e-12)


def test_constants_r_a_positive(preset):
    model, setup, gains = preset
    c = scalar_constants(gains, setup, model)
    assert c.r_a > 0  # congruence of PD G1 against H^-1


def test_reduced_cost_reduction_is_exact(preset):
    # the reduced objective must track the surrogate MDP cost exactly
    # (up to schedule-independent terms): check cost differences
    model, setup, gains = preset
    c = scalar_constants(gains, setup, model)
    rng = np.random.default_rng(0)
    H = setup.eig.H

    def reduced(a):
        b = _b_forward(a)
        return float(np.sum(c.c1 * a + c.c2 * np.sqrt(a * b[:-1])
                            + c.c3 * b[:-1]))

    def full(a):
        sched = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                              Lambda=[a[t] / H for t in range(model.n)])
        return surrogate_schedule_cost(sched, model, setup, gains)

    a1 = rng.uniform(0.01, 1.0, model.n)
    a2 = rng.uniform(0.01, 1.0, model.n)
    assert (full(a1) - full(a2)) == pytest.approx(reduced(a1) - reduced(a2),
                                                  rel=1e-8)


# --- solver ----------------------------------------------------------------------

def test_solver_residuals(solved):
    assert np.abs(solved.stationarity_residuals).max() < 1e-8


def test_solver_terminal_ratio_hits_epsilon(solved):
    assert solved.achieved_terminal_ratio == pytest.approx(1e-3, rel=1e-6)
    assert solved.terminal_multiplier > 0  # the accuracy target binds


def test_solver_b_monotone(solved):
    assert np.all(np.diff(solved.b) < 0)  # strictly decreasing forward
    assert solved.b[0] == 1.0
    assert np.all(solved.a > 0)


def test_solver_sigma_identity(preset, solved):
    model, setup, _ = preset
    Sigma = model.Sigma0.copy()
    for t in range(model.n):
        np.testing.assert_allclose(Sigma, solved.b[t] * model.Sigma0,
                                   atol=1e-10)
        Sigma = channel_step(setup, Sigma, solved.lam(t)).Sigma_next
    np.testing.assert_allclose(Sigma, solved.b[model.n] * model.Sigma0,
                               atol=1e-10)


def test_solver_beats_heuristic(preset, solved):
    model, setup, gains = preset
    heu = heuristic_schedule(0.88, model.n, 4)
    assert (surrogate_schedule_cost(solved, model, setup, gains)
            <= surrogate_schedule_cost(heu, model, setup, gains))


def test_solver_lambda_shape(preset, solved):
    model, setup, _ = preset
    H = setup.eig.H
    for t in range(model.n):
        np.testing.assert_allclose(solved.lam(t), solved.a[t] / H, atol=1e-14)


def test_free_solution_when_epsilon_loose(preset):
    model, setup, gains = preset
    sched = solve_scalar_power(gains, setup, model, epsilon=0.5)
    assert sched.terminal_multiplier == 0.0
    assert sched.inner_solves == 1
    assert sched.achieved_terminal_ratio < 0.5
    assert np.abs(sched.stationarity_residuals).max() < 1e-8


def test_residuals_use_theta_recursion(preset, solved):
    # independent recomputation of the residual stack
    model, setup, gains = preset
    c = scalar_constants(gains, setup, model)
    nu = solved.terminal_multiplier
    g = stationarity_residuals(solved.a, c, nu)
    theta = theta_b_sequence(solved.a, c, nu)
    assert theta[-1] == nu
    b = _b_forward(solved.a)
    for t in range(model.n):
        expect = (c.c1[t] + c.c2[t] * np.sqrt(b[t]) / (2 * np.sqrt(solved.a[t]))
                  - b[t] * theta[t + 1] / (1 + solved.a[t]) ** 2)
        assert g[t] == pytest.approx(expect, abs=1e-12)


def test_scalar_backward_solve_entry_point(preset):
    model, setup, gains = preset
    thZ = costate_Z(gains, model)
    constants = scalar_constants(gains, setup, model, thetaZ=thZ)
    sched = scalar_backward_solve(constants, 1e-3, model, setup, gains)
    assert sched.mode is ScheduleMode.SCALAR
    assert np.abs(sched.stationarity_residuals).max() < 1e-8


# --- vectorized recursions vs the sequential oracle -------------------------------

ORACLE_HORIZONS = (1, 2, 30, 120)
ORACLE_RTOL = 1e-12


@pytest.fixture(scope="module")
def constants_by_horizon():
    out = {}
    for n in ORACLE_HORIZONS:
        model = lq.fully_actuated_model(n=n)
        out[n] = scalar_constants(backward_riccati(model),
                                  fa_setup(model.B1, model.W), model)
    return out


def _assert_close(vec, ref, scale, name):
    """vec == ref to ORACLE_RTOL relative to the magnitude scale, where ref is finite.

    theta and g are sums of terms that may cancel to ~0, so the error is
    measured against the sum of the terms' magnitudes, not against the result.
    """
    finite = np.isfinite(ref)
    assert np.all(np.isfinite(vec[finite])), f"{name}: finite oracle, non-finite result"
    err = np.abs(vec[finite] - ref[finite])
    assert np.all(err <= ORACLE_RTOL * scale[finite]), (
        f"{name}: worst relative error {np.max(err / scale[finite]):.2e}")


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(ORACLE_HORIZONS), nu=st.sampled_from([0.0, 1.0, 1e12]),
       seed=st.integers(0, 2**32 - 1))
def test_vectorized_recursions_match_oracle(constants_by_horizon, n, nu, seed):
    c = constants_by_horizon[n]
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(np.log(A_FLOOR), np.log(A_CEIL), n))
    with np.errstate(all="ignore"):  # the oracle divides by b_t
        b_ref = oracle.b_forward(a)
        theta_ref = oracle.theta_sequence(a, c.c1, c.c2, c.c3, nu)
        g_ref = oracle.residuals(a, c.c1, c.c2, c.c3, nu)
        # the same recursions on |terms|: the magnitude scale of each entry
        theta_abs = oracle.theta_sequence(a, c.c1, np.abs(c.c2), np.abs(c.c3), nu)
        g_scale = (np.abs(c.c1) + np.abs(c.c2) * np.sqrt(b_ref[:-1]) / (2 * np.sqrt(a))
                   + b_ref[:-1] * theta_abs[1:] / (1 + a) ** 2)
        theta = theta_b_sequence(a, c, nu)
    _assert_close(_b_forward(a), b_ref, b_ref, "b")
    _assert_close(theta, theta_ref, theta_abs, "theta")
    _assert_close(stationarity_residuals(a, c, nu), g_ref, g_scale, "g")


def test_residuals_finite_after_b_underflow(constants_by_horizon):
    # full power every step drives b below the float range within ~55 steps;
    # the oracle's theta recursion then divides by zero, the residual must not
    c = constants_by_horizon[120]
    a = np.full(120, A_CEIL)
    assert _b_forward(a)[-1] == 0.0
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(oracle.residuals(a, c.c1, c.c2, c.c3, 1e12)))
    assert np.all(np.isfinite(stationarity_residuals(a, c, 1e12)))


# --- hard cases: long horizons, tiny epsilon, unreachable epsilon ------------------

def _solve_fa(n, epsilon):
    model = lq.fully_actuated_model(n=n)
    gains = backward_riccati(model)
    setup = fa_setup(model.B1, model.W)
    sched = solve_scalar_power(gains, setup, model, epsilon=epsilon)
    resid = stationarity_residuals(sched.a, scalar_constants(gains, setup, model),
                                   sched.terminal_multiplier)
    return sched, float(np.abs(resid).max())


def test_long_horizon_tight_epsilon():
    sched, resid = _solve_fa(120, 1e-12)
    assert resid <= RESIDUAL_TOL
    assert sched.achieved_terminal_ratio <= 1e-12
    assert sched.achieved_terminal_ratio == pytest.approx(1e-12, rel=1e-6)
    assert sched.inner_solves <= 20


def test_single_step_tiny_epsilon():
    # one step must contract by 1e9 on its own: the multiplier is ~5.65e18
    sched, resid = _solve_fa(1, 1e-9)
    assert resid <= RESIDUAL_TOL
    assert sched.achieved_terminal_ratio <= 1e-9
    assert sched.achieved_terminal_ratio == pytest.approx(1e-9, rel=1e-6)
    assert sched.terminal_multiplier == pytest.approx(5.649e18, rel=1e-3)


def test_epsilon_beyond_per_step_ceiling_solves():
    # b_n = 1e-30 in two steps needs a_t ~ 1e15, past A_CEIL: the root polish
    # leaves the L-BFGS box and still meets every stationarity equation
    sched, resid = _solve_fa(2, 1e-30)
    assert resid <= RESIDUAL_TOL
    assert sched.achieved_terminal_ratio == pytest.approx(1e-30, rel=1e-6)


def test_unreachable_epsilon_fails_up_front(monkeypatch):
    model = lq.fully_actuated_model(n=2)
    gains = backward_riccati(model)
    setup = fa_setup(model.B1, model.W)

    def no_inner_solve(*args):
        raise AssertionError("inner solve attempted for an unreachable epsilon")

    monkeypatch.setattr(scalar, "_solve_for_nu", no_inner_solve)
    with pytest.raises(LqcoordError, match=r"epsilon: 1e-300 .*floor .*n=2"):
        solve_scalar_power(gains, setup, model, epsilon=1e-300)
