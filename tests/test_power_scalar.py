import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lqcoord as lq
import scalar_oracle as oracle
from channel_oracle import one_step
from conftest import random_system
import joint_oracle
from lqcoord.channel import fa_setup
from lqcoord.gains import backward_riccati
from lqcoord.policies import PolicyKind, make_policy
from lqcoord.power import expected_total_cost, heuristic_schedule
from lqcoord.power import scalar
from lqcoord.power.scalar import (A_FLOOR, RESIDUAL_TOL, ConstantsTable,
                                  scalar_constants, scalar_backward_solve,
                                  solve_scalar_power, stationarity_residuals,
                                  _evaluate, _newton_step)
from pmp_oracle import covariance_model_constants, surrogate_cost
from lqcoord.power.schedules import PowerSchedule, ScheduleMode
from lqcoord.errors import (InvalidTheta, LqcoordError, NoRootFound,
                            ValidationError)


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


# --- heuristic schedule ---------------------------------------------------------

def test_heuristic_theta_one_is_flat():
    s = heuristic_schedule(1.0, 3, 4)
    for t in range(3):
        np.testing.assert_array_equal(s.Lambda[t], np.ones(4))


def test_heuristic_decay_values():
    s = heuristic_schedule(0.88, 12, 4)
    np.testing.assert_allclose(s.Lambda[2], 0.7744 * np.ones(4))
    s2 = heuristic_schedule(0.5, 12, 2)
    np.testing.assert_allclose(s2.Lambda[10], 9.765625e-4 * np.ones(2))


def test_heuristic_rejects_bad_theta():
    with pytest.raises(InvalidTheta):
        heuristic_schedule(0.0, 3, 2)
    with pytest.raises(InvalidTheta):
        heuristic_schedule(1.2, 3, 2)


@pytest.mark.parametrize("n, dim, field", [(2.5, 2, "n"), (3, 1.5, "dim"),
                                           (True, 2, "n"), (3, 0, "dim"),
                                           (0, 2, "n")])
def test_heuristic_rejects_bad_n_and_dim(n, dim, field):
    # a fractional or boolean count or one below 1 is a ValidationError
    # naming its field, not a TypeError or a degenerate schedule
    with pytest.raises(ValidationError, match=rf"^{field}\b"):
        heuristic_schedule(0.5, n, dim)


# --- constants table -------------------------------------------------------------

def test_constants_c1_positive(preset):
    # c1_t = Tr(R_t N N'): R_t >= G is positive definite and N = I~ Q U
    # H^(-1/2) U' has full column rank. A positive c1 keeps the reduced
    # cost bounded below in a, and the solver takes log c1_{n-1}
    model, setup, gains = preset
    c = scalar_constants(gains, setup, model)
    assert np.all(c.c1 > 0)


def test_reduced_cost_reduction_is_exact(preset):
    # the reduced objective must track the surrogate MDP cost exactly
    # (up to schedule-independent terms): check cost differences
    model, setup, gains = preset
    c = scalar_constants(gains, setup, model)
    rng = np.random.default_rng(0)
    H = setup.eig.H

    def reduced(a):
        b = _evaluate(a, c, 0.0).b
        return float(np.sum(c.c1 * a + c.c2 * np.sqrt(a * b[:-1])
                            + c.c3 * b[:-1]))

    def full(a):
        sched = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                              Lambda=[a[t] / H for t in range(model.n)])
        return surrogate_cost(sched, model, setup, gains)

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
    assert solved.inner_solves == 2        # the free solve, then one on the target


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
        Sigma = one_step(setup, Sigma, solved.Lambda[t]).Sigma[1]
    np.testing.assert_allclose(Sigma, solved.b[model.n] * model.Sigma0,
                               atol=1e-10)


def test_solver_beats_heuristic(preset, solved):
    model, setup, gains = preset
    heu = heuristic_schedule(0.88, model.n, 4)
    assert (surrogate_cost(solved, model, setup, gains)
            <= surrogate_cost(heu, model, setup, gains))


def test_solver_lambda_shape(preset, solved):
    model, setup, _ = preset
    H = setup.eig.H
    for t in range(model.n):
        np.testing.assert_allclose(solved.Lambda[t], solved.a[t] / H, atol=1e-14)


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
    theta = oracle.theta_sequence(solved.a, c.c1, c.c2, c.c3, nu)
    b = _evaluate(solved.a, c, 0.0).b
    for t in range(model.n):
        expect = (c.c1[t] + c.c2[t] * np.sqrt(b[t]) / (2 * np.sqrt(solved.a[t]))
                  - b[t] * theta[t + 1] / (1 + solved.a[t]) ** 2)
        assert g[t] == pytest.approx(expect, abs=1e-12)


def test_scalar_backward_solve_entry_point(preset):
    model, setup, gains = preset
    constants = scalar_constants(gains, setup, model)
    sched = scalar_backward_solve(constants, 1e-3, model, setup, gains)
    assert sched.mode is ScheduleMode.SCALAR
    assert np.abs(sched.stationarity_residuals).max() < 1e-8


# --- vectorized recursions vs the sequential oracle -------------------------------

ORACLE_HORIZONS = (1, 2, 30, 120)
ORACLE_RTOL = 1e-12
A_HIGH = 1e6  # top of the sampled power range, and "full power" below


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
    a = np.exp(rng.uniform(np.log(A_FLOOR), np.log(A_HIGH), n))
    with np.errstate(all="ignore"):  # the oracle divides by b_t
        b_ref = oracle.b_forward(a)
        theta_ref = oracle.theta_sequence(a, c.c1, c.c2, c.c3, nu)
        g_ref = oracle.residuals(a, c.c1, c.c2, c.c3, nu)
        # the same recursions on |terms|: the magnitude scale of each entry
        theta_abs = oracle.theta_sequence(a, c.c1, np.abs(c.c2), np.abs(c.c3), nu)
        g_scale = (np.abs(c.c1) + np.abs(c.c2) * np.sqrt(b_ref[:-1]) / (2 * np.sqrt(a))
                   + b_ref[:-1] * theta_abs[1:] / (1 + a) ** 2)
        point = _evaluate(a, c, nu * _evaluate(a, c, 0.0).b[-1])
    # the costate is carried scaled, phi_t = theta_t b_t
    _assert_close(point.b, b_ref, b_ref, "b")
    _assert_close(point.phi, theta_ref * b_ref, theta_abs * b_ref, "phi")
    _assert_close(point.g, g_ref, g_scale, "g")


def test_residuals_finite_after_b_underflow(constants_by_horizon):
    # full power every step drives b below the float range within ~55 steps;
    # the oracle's theta recursion then divides by zero, the residual must not
    c = constants_by_horizon[120]
    a = np.full(120, A_HIGH)
    assert _evaluate(a, c, 0.0).b[-1] == 0.0
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(oracle.residuals(a, c.c1, c.c2, c.c3, 1e12)))
    assert np.all(np.isfinite(stationarity_residuals(a, c, 1e12)))
    # the solve carries mu = nu b_n, of the order of c1, past the underflow
    point = _evaluate(a, c, c.c1[-1])
    assert all(np.all(np.isfinite(v)) for v in (point.phi, point.g, *point.hess))


@pytest.mark.parametrize("n", ORACLE_HORIZONS)
def test_evaluated_cost_does_not_depend_on_the_multiplier(constants_by_horizon, n):
    # the line search compares J at nu = 0 whatever the multiplier carried
    c = constants_by_horizon[n]
    a = np.exp(np.random.default_rng(n).uniform(np.log(A_FLOOR), np.log(A_HIGH), n))
    cost = _evaluate(a, c, 0.0).cost
    for mu in (1.0, -3.5, 1e12):
        assert _evaluate(a, c, mu).cost == cost


@pytest.mark.parametrize("nu", [0.0, 1.0, 1e3, 1e12])
@pytest.mark.parametrize("n", ORACLE_HORIZONS)
def test_stationarity_residuals_is_the_evaluation_at_mu(constants_by_horizon, n, nu):
    # the public residual at nu is g of the evaluation at mu = nu b_n
    c = constants_by_horizon[n]
    a = np.exp(np.random.default_rng(n).uniform(np.log(A_FLOOR), np.log(1e4), n))
    b_n = _evaluate(a, c, 0.0).b[-1]
    np.testing.assert_array_equal(stationarity_residuals(a, c, nu),
                                  _evaluate(a, c, nu * b_n).g)


# --- hard cases: long horizons, tiny epsilon, unreachable epsilon ------------------

def _fa_design(n):
    """gains, setup and model of the fully actuated preset at horizon n."""
    model = lq.fully_actuated_model(n=n)
    return backward_riccati(model), fa_setup(model.B1, model.W), model


def _solve_fa(n, epsilon):
    gains, setup, model = _fa_design(n)
    sched = solve_scalar_power(gains, setup, model, epsilon=epsilon)
    resid = stationarity_residuals(sched.a, scalar_constants(gains, setup, model),
                                   sched.terminal_multiplier)
    return sched, float(np.abs(resid).max())


def test_long_horizon_tight_epsilon():
    sched, resid = _solve_fa(120, 1e-12)
    assert resid <= RESIDUAL_TOL
    assert sched.achieved_terminal_ratio <= 1e-12
    assert sched.achieved_terminal_ratio == pytest.approx(1e-12, rel=1e-6)
    assert sched.inner_solves == 2


def test_single_step_tiny_epsilon():
    # one step must contract by 1e9 on its own: the multiplier is ~5.65e18
    sched, resid = _solve_fa(1, 1e-9)
    assert resid <= RESIDUAL_TOL
    assert sched.achieved_terminal_ratio <= 1e-9
    assert sched.achieved_terminal_ratio == pytest.approx(1e-9, rel=1e-6)
    assert sched.terminal_multiplier == pytest.approx(5.649e18, rel=1e-3)


def test_epsilon_beyond_per_step_ceiling_solves():
    # b_n = 1e-30 in two steps needs a_t ~ 1e15: the solve has no
    # upper bound on a and still meets every stationarity equation
    sched, resid = _solve_fa(2, 1e-30)
    assert resid <= RESIDUAL_TOL
    assert sched.achieved_terminal_ratio == pytest.approx(1e-30, rel=1e-6)


def test_unreachable_epsilon_fails_up_front(monkeypatch):
    model = lq.fully_actuated_model(n=2)
    gains = backward_riccati(model)
    setup = fa_setup(model.B1, model.W)

    def no_solve(*args):
        raise AssertionError("solve attempted for an unreachable epsilon")

    monkeypatch.setattr(scalar, "_newton_solve", no_solve)
    with pytest.raises(LqcoordError, match=r"epsilon: 1e-300 .*floor .*n=2"):
        solve_scalar_power(gains, setup, model, epsilon=1e-300)


@pytest.mark.parametrize("epsilon", [0.0, -1e-3, float("nan")])
def test_non_positive_epsilon_names_the_field(preset, epsilon):
    model, setup, gains = preset
    constants = scalar_constants(gains, setup, model)
    with pytest.raises(ValidationError, match=r"^epsilon: .* must be positive"):
        scalar_backward_solve(constants, epsilon, model, setup, gains)


@pytest.mark.parametrize("epsilon", [True, "1e-3", None, float("inf")],
                         ids=["bool", "text", "none", "inf"])
def test_epsilon_must_be_a_finite_number(preset, epsilon):
    # True used to design at epsilon = 1, a string or None to escape as a
    # TypeError
    model, setup, gains = preset
    with pytest.raises(ValidationError,
                       match=f"^epsilon: {epsilon!r} is not a finite number$"):
        solve_scalar_power(gains, setup, model, epsilon=epsilon)


@pytest.mark.parametrize("theta", [True, "0.5", None], ids=["bool", "text", "none"])
def test_heuristic_theta_must_be_a_finite_number(theta):
    # True used to run at theta = 1, a string or None to escape as a TypeError
    with pytest.raises(ValidationError, match=f"^theta: {theta!r} is not a finite number$"):
        heuristic_schedule(theta, 3, 2)


def test_heuristic_theta_takes_a_numpy_integer():
    sched = heuristic_schedule(np.int64(1), 3, 2)
    np.testing.assert_array_equal(sched.Lambda, np.ones((3, 2)))


def test_single_step_extreme_epsilon_solves():
    # n=1 with eps=1e-100 needs a_0 ~ 1e100 and a multiplier ~ c1 1e200,
    # both representable; the solve is unbounded above
    sched, resid = _solve_fa(1, 1e-100)
    assert resid <= RESIDUAL_TOL
    assert sched.achieved_terminal_ratio <= 1e-100
    assert sched.achieved_terminal_ratio == pytest.approx(1e-100, rel=1e-6)


def test_failed_inner_solve_reports_the_range_reached(preset):
    # c1_0 < 0 makes the reduced cost unbounded below in a_0: there is no
    # stationary point, and the error says how far a actually went
    model, setup, gains = preset
    c = scalar_constants(gains, setup, model)
    unbounded = ConstantsTable(c1=np.where(np.arange(model.n) == 0, -1.0, c.c1),
                               c2=c.c2, c3=c.c3, H=c.H)
    with pytest.raises(NoRootFound, match=r"reached a in \[.*\]; worst residual") as info:
        scalar_backward_solve(unbounded, 1e-3, model, setup, gains)
    lo, hi = map(float, re.search(r"\[(\S+), (\S+)\]", str(info.value)).groups())
    assert A_FLOOR <= lo <= hi
    assert hi > 1e3


# --- Newton solve: analytic Hessian, KKT at the floor, work count -----------------

@pytest.mark.parametrize("nu", [0.0, 1e3])
@pytest.mark.parametrize("n", [1, 30, 120])
def test_hessian_matches_central_differences(constants_by_horizon, n, nu):
    # the Hessian in u = log a is the Jacobian of the gradient g(e^u) e^u
    c = constants_by_horizon[n]
    rng = np.random.default_rng(n)
    h = 1e-6
    for _ in range(3):
        u = rng.uniform(-8.0, 8.0, n)
        a = np.exp(u)
        hess = oracle.hessian(*_evaluate(a, c, nu * _evaluate(a, c, 0.0).b[-1]).hess)
        grad = lambda v: stationarity_residuals(np.exp(v), c, nu) * np.exp(v)
        fd = np.column_stack([(grad(u + h * e) - grad(u - h * e)) / (2 * h)
                              for e in np.eye(n)])
        np.testing.assert_array_equal(hess, hess.T)
        assert np.abs(hess - fd).max() <= 1e-8 * np.abs(hess).max()


def test_newton_step_shifts_an_indefinite_hessian_to_a_descent_direction():
    gens = np.array([1.0, 1.0, 1.0]), np.array([0.0, 0.5, 1.0]), np.array([2.0, -3.0, 4.0])
    assert np.linalg.eigvalsh(oracle.hessian(*gens)).min() < 0.0
    grad = np.array([1.0, -2.0, 0.5])
    step, unshifted = _newton_step(*gens, grad)
    assert not unshifted
    assert step @ grad < 0.0
    assert _newton_step(*gens, grad, may_shift=False) is None


def _dominant_generators(rng, m):
    """Generators of a diagonally dominant, so positive definite, matrix."""
    x, y = rng.uniform(0.1, 0.9, m), rng.standard_normal(m)
    off = np.abs(oracle.hessian(x, y, np.zeros(m))).sum(axis=1)
    return x, y, off + np.logspace(0, m - 1, m)


def test_newton_step_on_a_positive_definite_hessian_is_exact():
    rng = np.random.default_rng(5)
    gens = _dominant_generators(rng, 3)
    grad = rng.standard_normal(3)
    step, unshifted = _newton_step(*gens, grad)
    assert unshifted
    np.testing.assert_allclose(step, -np.linalg.solve(oracle.hessian(*gens), grad),
                               rtol=1e-13)


def test_bordered_newton_step_solves_the_kkt_system():
    # [hess, -x; -x', 0] [p; mu] = [-grad; 0] with the generator x as the
    # border: p is tangent to the constraint and mu comes out of the same solve
    rng = np.random.default_rng(6)
    gens = _dominant_generators(rng, 4)
    x, grad = gens[0], rng.standard_normal(4)
    sol, unshifted = _newton_step(*gens, grad, bordered=True)
    assert unshifted
    kkt = np.block([[oracle.hessian(*gens), -x[:, None]], [-x[None, :], np.zeros((1, 1))]])
    np.testing.assert_allclose(sol, np.linalg.solve(kkt, np.append(-grad, 0.0)),
                               rtol=1e-12)
    assert abs(x @ sol[:-1]) <= 1e-14 * np.abs(sol[:-1]).sum()


def test_bordered_newton_step_shifts_an_indefinite_hessian():
    x = np.array([0.2, 0.5, 0.7])
    gens = x, np.array([0.0, 2.5, 1.5]), np.array([2.0, -3.0, 4.0])
    assert np.linalg.eigvalsh(oracle.hessian(*gens)).min() < 0.0
    grad = np.array([1.0, -2.0, 0.5])
    sol, unshifted = _newton_step(*gens, grad, bordered=True)
    step = sol[:-1]
    assert not unshifted
    assert abs(x @ step) <= 1e-14 * np.abs(step).sum()
    assert step @ grad < 0.0   # descent along the constraint


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.sampled_from(ORACLE_HORIZONS), nu=st.sampled_from([0.0, 1e3]),
       seed=st.integers(0, 2**32 - 1), bordered=st.booleans(),
       indefinite=st.booleans())
def test_generator_newton_step_matches_the_dense_step(constants_by_horizon, n, nu,
                                                      seed, bordered, indefinite):
    # the O(n) LDL' step on the generators against Cholesky + LU on the
    # assembled matrix, on the free entries of a random a, the border being
    # the generator x = a/(1+a) as in the solve on the target
    c = constants_by_horizon[n]
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(np.log(A_FLOOR), np.log(1e4), n))
    point = _evaluate(a, c, nu * _evaluate(a, c, 0.0).b[-1])
    g = point.g
    free = rng.random(n) < rng.uniform(0.2, 1.0)
    free[rng.integers(n)] = True
    x, y, diag = (v[free] for v in point.hess)
    if indefinite:   # a diagonal entry <= 0: no longer positive definite
        k = rng.integers(x.size)
        diag[k] = -abs(diag[k])
    grad = (g * a)[free]
    sol, unshifted = _newton_step(x, y, diag, grad, bordered)
    ref, ref_unshifted = oracle.newton_step(oracle.hessian(x, y, diag), grad,
                                            x if bordered else None)
    assert unshifted == ref_unshifted
    assert not (indefinite and unshifted)
    if bordered and x.size > 1:   # the step p, then mu
        parts = [(sol[:-1], ref[:-1]), (sol[-1:], ref[-1:])]
    else:   # one free entry leaves the tangent space {0}: p is roundoff beside mu
        parts = [(sol, ref)]
    for got, want in parts:
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("epsilon", [1e-20, 1e-30, 1e-40])
def test_tiny_epsilon_meets_kkt_at_the_floor(epsilon):
    # the optimum wants a_t below A_FLOOR near the end of the horizon: those
    # entries sit on the floor with g_t >= 0, the free ones have g_t ~ 0
    sched, _ = _solve_fa(120, epsilon)
    model = lq.fully_actuated_model(n=120)
    gains = backward_riccati(model)
    c = scalar_constants(gains, fa_setup(model.B1, model.W), model)
    g = stationarity_residuals(sched.a, c, sched.terminal_multiplier)
    held = sched.a <= A_FLOOR * (1 + 1e-12)
    assert held.any() and held[-1]
    assert np.all(g[held] >= 0.0)
    assert np.abs(g[~held]).max() <= RESIDUAL_TOL
    np.testing.assert_array_equal(sched.stationarity_residuals,
                                  np.where(held, 0.0, g))
    assert sched.achieved_terminal_ratio <= epsilon
    assert sched.achieved_terminal_ratio == pytest.approx(epsilon, rel=1e-6)


@pytest.mark.parametrize("n,epsilon", [(2, 1e-12), (30, 1e-20), (120, 1e-12)])
def test_stored_residuals_are_the_public_residuals(n, epsilon):
    # the schedule's residuals are g at nu b_n, as stationarity_residuals
    # forms it, not at the solve's mu, from which nu b_n differs in the
    # last bit at these two first cases
    sched, _ = _solve_fa(n, epsilon)
    gains, setup, model = _fa_design(n)
    g = stationarity_residuals(sched.a, scalar_constants(gains, setup, model),
                               sched.terminal_multiplier)
    np.testing.assert_array_equal(sched.stationarity_residuals, g)


def _count_work(monkeypatch):
    """Lists that grow by one per `_evaluate` call and per `_newton_step`
    call (True where bordered, the solve on the target)."""
    calls, steps = [], []
    monkeypatch.setattr(scalar, "_evaluate",
                        lambda *args: calls.append(1) or _evaluate(*args))
    monkeypatch.setattr(scalar, "_newton_step",
                        lambda *args, **kw: steps.append(kw.get("bordered", False))
                        or _newton_step(*args, **kw))
    return calls, steps


def test_long_horizon_solve_work_count(monkeypatch):
    # Newton on the analytic Hessian needs no finite-difference Jacobian,
    # and the multiplier comes out of the Newton step: the whole n=120
    # design (the free solve and the solve on the target) evaluates 28
    # trial points and takes 23 Newton steps (the Brent search over the
    # multiplier took 82 steps), each trial point evaluated once, its
    # Hessian included. The solve on the target steps in sqrt a: in log a
    # it walked a_119 down one e-fold per step and took 31 steps, not 9
    calls, steps = _count_work(monkeypatch)
    gains, setup, model = _fa_design(120)
    sched = solve_scalar_power(gains, setup, model, epsilon=1e-12)
    assert 0 < len(calls) <= 28
    assert 0 < len(steps) <= 23
    assert 0 < sum(steps) <= 10
    # a whole fa-design benchmark pass adds the CLI default (n = 30,
    # eps = 1e-3); with every step in log a the pass took 69 steps and
    # evaluated 79 points, with the dense Cholesky + LU step 74 steps, and
    # with b and the costate rebuilt by each partial evaluation it
    # evaluated g alone 83 times
    solve_scalar_power(*_fa_design(30), epsilon=1e-3)
    assert len(steps) <= 42
    assert len(calls) <= 52
    resid = stationarity_residuals(sched.a, scalar_constants(gains, setup, model),
                                   sched.terminal_multiplier)
    assert np.abs(resid).max() <= RESIDUAL_TOL


def test_longest_horizon_tight_epsilon_work_count(monkeypatch):
    # n = 1000 at eps = 1e-12 took 87 Newton steps in log a, against 20 at
    # eps = 1e-3; the steps in sqrt a on the target take 36
    _, steps = _count_work(monkeypatch)
    gains, setup, model = _fa_design(1000)
    sched = solve_scalar_power(gains, setup, model, epsilon=1e-12)
    assert 0 < len(steps) <= 40
    assert np.abs(sched.stationarity_residuals).max() <= RESIDUAL_TOL
    assert sched.achieved_terminal_ratio == pytest.approx(1e-12, rel=1e-6)


def test_sqrt_steps_backtrack_before_the_map():
    # a random system whose multiplier is ~2.36e6: halving the sqrt-a step
    # after its map to log a, rather than before it, left a non-descent
    # direction once the trial point was restored onto the surface, and
    # raised NoRootFound after 40 halvings
    model = random_system(np.random.default_rng(2239211208), 3, 4, 1, 52)
    setup = fa_setup(model.B1, model.W)
    c = scalar_constants(backward_riccati(model), setup, model)
    sched = scalar_backward_solve(c, 1e-6, model, setup)
    assert sched.inner_solves == 2
    assert sched.terminal_multiplier == pytest.approx(2.3647900110751e6, rel=1e-9)
    assert np.abs(sched.stationarity_residuals).max() <= RESIDUAL_TOL
    assert sched.achieved_terminal_ratio <= 1e-6


def test_fa_design_does_not_depend_on_the_blas_thread_count(tmp_path):
    # a LAPACK LU follows the BLAS thread count in its last bits; the
    # Newton step calls no BLAS, so the n = 120 schedule is the same
    src = Path(__file__).resolve().parents[1] / "src"
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "lqcoord.cli", "optimize-power",
                        "--preset", "fully-actuated-vi-a", "--horizon", "120",
                        "--epsilon", "1e-12", "--out", str(out)],
                       env=env, capture_output=True, timeout=300, check=True)
        written.append((out / "power.json").read_bytes())
    assert written[0] == written[1]


# --- the one KKT solve against the bracket + Brent reference ----------------------

HELD = A_FLOOR * (1 + 1e-12)   # entries at or below this sit on the floor


def _check_against_reference(c, epsilon, model, setup):
    ref_a, _, ref_nu, _ = oracle.brent_solve(c, epsilon)
    sched = scalar_backward_solve(c, epsilon, model, setup)
    np.testing.assert_array_equal(sched.a <= HELD, ref_a <= HELD)
    assert np.abs(sched.a / ref_a - 1.0).max() <= 1e-10
    if ref_nu == 0.0:
        assert sched.terminal_multiplier == 0.0 and sched.inner_solves == 1
    else:
        assert sched.terminal_multiplier == pytest.approx(ref_nu, rel=1e-9)
        assert sched.inner_solves == 2
    assert sched.achieved_terminal_ratio <= epsilon


@pytest.mark.parametrize("n, epsilon", [(1, 1e-9), (1, 1e-100), (2, 1e-30),
                                        (30, 1e-3), (120, 1e-12), (120, 1e-40)])
def test_kkt_solve_matches_brent_reference_on_presets(n, epsilon):
    model = lq.fully_actuated_model(n=n)
    setup = fa_setup(model.B1, model.W)
    c = scalar_constants(backward_riccati(model), setup, model)
    _check_against_reference(c, epsilon, model, setup)


@st.composite
def fa_systems(draw):
    """A random fully actuated system (d0 = 1 included) and a seed."""
    d0 = draw(st.integers(1, 4))
    extra = draw(st.integers(0, 2))
    n = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    model = random_system(np.random.default_rng(seed), d0, d0 + extra, 1, n)
    return model, seed


def _assert_covariance_model_constants(model):
    """c1/c2/c3 within 1e-12 of max |c| of the covariance model's."""
    setup = fa_setup(model.B1, model.W)
    gains = backward_riccati(model)
    c = scalar_constants(gains, setup, model)
    ref = covariance_model_constants(gains, setup, model)
    scale = max(np.abs(r).max() for r in ref)
    for name, got, want in zip(("c1", "c2", "c3"), (c.c1, c.c2, c.c3), ref):
        err = np.abs(got - want).max()
        assert err <= 1e-12 * scale, f"{name}: {err:.3e} > 1e-12 * {scale:.3e}"


def test_constants_match_the_covariance_model_on_the_preset():
    # the cost identity's three traces are the paper's contraction of the
    # Z-costates and the offset-feedback sequence (`pmp_oracle`)
    _assert_covariance_model_constants(lq.fully_actuated_model(n=30))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fa_systems())
def test_constants_match_the_covariance_model(system):
    _assert_covariance_model_constants(system[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fa_systems(), st.sampled_from([0.5, 1e-2, 1e-6, 1e-20]))
def test_kkt_solve_matches_brent_reference_on_random_systems(system, epsilon):
    # systems whose cross term c2 sqrt(a b) rewards signalling at every step,
    # as on both presets (about 3 in 4 draws); where c2_t > 0 the reduced
    # cost is concave in a_t, and the two solvers may stop at different KKT
    # points (different entries held at the floor)
    model, _ = system
    setup = fa_setup(model.B1, model.W)
    c = scalar_constants(backward_riccati(model), setup, model)
    assume(np.all(c.c2 < 0.0))
    _check_against_reference(c, epsilon, model, setup)


def test_kkt_solve_meets_the_target_where_the_brent_search_stopped_short():
    # one step whose power only costs (c2 > 0): the cost rises with a_0, so
    # the optimum under b_1 <= 0.5 is b_1 = 0.5, a_0 = 1. The multiplier
    # search jumped across a discontinuity of b_1(nu) and returned a_0 = 59
    # (b_1 = 0.017) with nu > 0, which is no KKT point
    c = ConstantsTable(c1=np.array([6.72799672]), c2=np.array([11.38547302]),
                       c3=np.array([42.87490247]), H=np.ones(1))
    ref_a, _, ref_nu, _ = oracle.brent_solve(c, 0.5)
    assert ref_nu > 0.0 and _evaluate(ref_a, c, 0.0).b[-1] < 0.05
    sched = scalar_backward_solve(c, 0.5, None, None)
    assert sched.a[0] == pytest.approx(1.0, rel=1e-12)
    assert sched.terminal_multiplier > 0.0
    assert 0.5 * (1 - 1e-12) <= sched.achieved_terminal_ratio <= 0.5
    assert _evaluate(sched.a, c, 0.0).cost < _evaluate(ref_a, c, 0.0).cost


def test_negative_multiplier_releases_the_target():
    # c2_t > 0 at some steps: the solve on b_n = 0.9 ends at a stationary
    # point with nu = -26.2, where J still falls into b_n < 0.9; a free
    # solve from there meets the target at a lower cost (the Brent search
    # never returned here: lowering nu, its bracket ran off to -inf)
    model = random_system(np.random.default_rng(2683714704), 2, 2, 1, 28)
    setup = fa_setup(model.B1, model.W)
    c = scalar_constants(backward_riccati(model), setup, model)
    assert c.c2.max() > 0.0
    sched = scalar_backward_solve(c, 0.9, model, setup)
    assert sched.inner_solves == 3
    assert sched.terminal_multiplier == 0.0
    assert sched.achieved_terminal_ratio <= 0.9
    assert np.abs(sched.stationarity_residuals).max() <= RESIDUAL_TOL


@settings(max_examples=25, deadline=None, derandomize=True)
@given(fa_systems(), st.sampled_from([0.5, 1e-2, 1e-4]))
def test_reduced_cost_is_the_exact_cost_above_ex_comm(system, epsilon):
    # on the isotropic family Lambda_t = a_t H^-1 the exact expected cost is
    # the ex-comm cost plus the reduced cost, so the design minimizes the
    # exact cost there. Checked against the step-by-step joint covariance
    # (`joint_oracle`), for a random a and, where the cross term rewards
    # signalling at every step, for the designed a; to 1e-12 of the exact
    # cost, whose roundoff the difference inherits
    model, seed = system
    setup = fa_setup(model.B1, model.W)
    gains = backward_riccati(model)
    c = scalar_constants(gains, setup, model)
    ex_comm = joint_oracle.table_cost(make_policy(PolicyKind.EX_COMM, model).step_ops,
                                      model)
    schedules = [np.exp(np.random.default_rng(seed).uniform(
        np.log(1e-3), np.log(10.0), model.n))]
    if np.all(c.c2 < 0.0):
        schedules.append(scalar_backward_solve(c, epsilon, model, setup).a)
    for a in schedules:
        Lambda = a[:, None] / setup.eig.H
        exact = joint_oracle.total_cost(joint_oracle.forward(Lambda, gains, setup, model),
                                        model)
        assert abs(exact - _evaluate(a, c, 0.0).cost - ex_comm) <= 1e-12 * exact
