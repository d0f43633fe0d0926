import dataclasses

import numpy as np
import pytest

import channel_oracle as oracle
import lqcoord as lq
from lqcoord.linalg import svd_factor
from lqcoord.policies import PolicyKind, make_policy
from lqcoord.power import expected_total_cost, heuristic_schedule
from lqcoord.power.analytic import (MdpState, TailCostEvaluator,
                                   state_trajectory, trajectory)
from lqcoord.power.schedules import PowerSchedule, ScheduleMode
from lqcoord.simulate import derive_run_seed, monte_carlo, rollout


def test_initial_state_blocks(fa_model):
    st = MdpState.initial(fa_model)
    np.testing.assert_allclose(st.Z, fa_model.X0 + fa_model.Sigma0)
    np.testing.assert_allclose(st.Sigma, fa_model.Sigma0)
    np.testing.assert_allclose(st.Omega, -fa_model.Sigma0)
    np.testing.assert_allclose(st.Xi, -fa_model.Sigma0)


def test_sigma_block_matches_closed_form(fa_model, fa_gains, fa_channel):
    # the joint propagation's Sigma block must reproduce the contraction law
    sched = heuristic_schedule(0.88, fa_model.n, 4)
    states = state_trajectory(sched, fa_gains, fa_channel, fa_model)
    Sigma = fa_model.Sigma0.copy()
    for t in range(12):
        Sigma = oracle.cov_update_fa(Sigma, sched.Lambda[t], fa_channel)
        np.testing.assert_allclose(states[t + 1].Sigma, Sigma, atol=1e-12)


def test_sigma_block_matches_closed_form_ua(ua_model, ua_gains, ua_channel):
    sched = heuristic_schedule(0.88, ua_model.n, 2)
    states = state_trajectory(sched, ua_gains, ua_channel, ua_model)
    Sigma = ua_model.Sigma0.copy()
    for t in range(12):
        Sigma = oracle.cov_update_ua(Sigma, sched.Lambda[t], t % 2, ua_channel)
        np.testing.assert_allclose(states[t + 1].Sigma, Sigma, atol=1e-12)


def test_fa_cross_covariance_stays_minus_identity(fa_model, fa_gains, fa_channel):
    # estimate/state orthogonality: Omega = -Sigma throughout, so L = -I
    sched = heuristic_schedule(0.88, fa_model.n, 4)
    states = state_trajectory(sched, fa_gains, fa_channel, fa_model)
    for st in states[:10]:
        np.testing.assert_allclose(st.Omega, -st.Sigma, atol=1e-10)


def test_fa_L_schedule_independence(fa_model, fa_gains, fa_channel):
    # L = Omega Sigma^+ is -I under any power schedule: Omega = -Sigma on the
    # directly propagated blocks (forming L itself would amplify roundoff
    # by 1/sigma_min)
    for theta in (0.88, 0.5):
        sched = heuristic_schedule(theta, fa_model.n, 4)
        for st in state_trajectory(sched, fa_gains, fa_channel, fa_model)[:10]:
            np.testing.assert_allclose(st.Omega, -st.Sigma, atol=1e-12)


def test_zero_power_zero_prior_reduces_to_lqr_covariance(fa_model, fa_gains, fa_channel):
    # with no signaling and a vanishing prior, Z follows the plain closed loop
    tiny = lq.SystemModel(fa_model.A, fa_model.B1, fa_model.B2, fa_model.W,
                          fa_model.F, fa_model.Fn, fa_model.G1, fa_model.G2,
                          1e-14 * np.eye(4), fa_model.X0, fa_model.n)
    gains = lq.backward_riccati(tiny)
    setup = lq.fa_setup(tiny.B1, tiny.W)
    evaluator = TailCostEvaluator(gains, setup, tiny)
    evaluator.cost(np.zeros((tiny.n, 4)))
    Z_ref = tiny.X0 + 1e-14 * np.eye(4)
    for t in range(6):
        st = evaluator.trajectory.state(t + 1)
        Abar = tiny.A - tiny.B @ gains.K[t]
        Z_ref = Abar @ Z_ref @ Abar.T + tiny.W
        np.testing.assert_allclose(st.Z, Z_ref, atol=1e-8)


def test_ua_zero_power_freezes_sigma(ua_model, ua_gains, ua_channel):
    evaluator = TailCostEvaluator(ua_gains, ua_channel, ua_model)
    assert evaluator.blocks[0] == 0
    evaluator.cost(np.zeros((ua_model.n, 2)))
    st = evaluator.trajectory.state(1)
    np.testing.assert_allclose(st.Sigma, ua_model.Sigma0, atol=1e-12)


def test_ua_block_diagonal_noise_matches_fa_form(ua_gains):
    # when the rotated noise has no cross block, the UA cross-covariance
    # collapses to the FA law Omega = -Sigma
    m = lq.under_actuated_model(n=8)
    # Wbar3 = 0 iff Gamma0' W Gamma0 is block diagonal; W = c I gives Wbar = c I
    setup = lq.ua_setup(m.B1, m.W)
    factors = svd_factor(m.B1)
    Wbar = factors.Gamma0.T @ m.W @ factors.Gamma0
    assert np.allclose(Wbar[:factors.r, factors.r:], 0.0, atol=1e-12)
    gains = lq.backward_riccati(m)
    sched = heuristic_schedule(0.8, m.n, 2)
    states = state_trajectory(sched, gains, setup, m)
    for st in states:
        np.testing.assert_allclose(st.Omega, -st.Sigma, atol=1e-9)


def test_analytic_Z_matches_monte_carlo(fa_model, fa_gains, fa_channel):
    # sampled-target rollouts; covariance of z_t against the analytic block
    sched = heuristic_schedule(0.88, fa_model.n, 4)
    traj = state_trajectory(sched, fa_gains, fa_channel, fa_model)
    pol = make_policy(PolicyKind.IM_COMM_FA, fa_model)
    R = 3000
    probes = (1, 5, 10)
    zs = {t: np.empty((R, 4)) for t in probes}
    for i in range(R):
        tr = rollout(pol, fa_model, None, derive_run_seed(500, i))
        for t in probes:
            zs[t][i] = tr.states[t] - tr.x_star
    for t in probes:
        emp = zs[t].T @ zs[t] / R
        ana = traj[t].Z
        se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana ** 2) / R)
        assert np.all(np.abs(emp - ana) <= 3.5 * se)


def test_analytic_Z_matches_monte_carlo_ua(ua_model, ua_gains, ua_channel):
    sched = heuristic_schedule(0.88, ua_model.n, 2)
    traj = state_trajectory(sched, ua_gains, ua_channel, ua_model)
    pol = make_policy(PolicyKind.IM_COMM_UA, ua_model)
    R = 3000
    probes = (1, 4, 8)
    zs = {t: np.empty((R, 4)) for t in probes}
    for i in range(R):
        tr = rollout(pol, ua_model, None, derive_run_seed(501, i))
        for t in probes:
            zs[t][i] = tr.states[t] - tr.x_star
    for t in probes:
        emp = zs[t].T @ zs[t] / R
        ana = traj[t].Z
        se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana ** 2) / R)
        assert np.all(np.abs(emp - ana) <= 3.5 * se)


def test_expected_cost_matches_monte_carlo_fa(fa_model, fa_gains, fa_channel):
    sched = heuristic_schedule(0.88, fa_model.n, 4)
    ana = expected_total_cost(sched, fa_gains, fa_channel, fa_model)
    pol = make_policy(PolicyKind.IM_COMM_FA, fa_model)
    rep = monte_carlo(pol, fa_model, None, 2500, 31)
    se = rep.std_total_cost / np.sqrt(rep.runs)
    assert abs(rep.mean_total_cost - ana) <= max(4 * se, 0.02 * ana)


def test_expected_cost_matches_monte_carlo_ua(ua_model, ua_gains, ua_channel):
    sched = heuristic_schedule(0.88, ua_model.n, 2)
    ana = expected_total_cost(sched, ua_gains, ua_channel, ua_model)
    pol = make_policy(PolicyKind.IM_COMM_UA, ua_model)
    rep = monte_carlo(pol, ua_model, None, 2500, 32)
    se = rep.std_total_cost / np.sqrt(rep.runs)
    assert abs(rep.mean_total_cost - ana) <= max(4 * se, 0.02 * ana)


def _ill_conditioned_noise(model):
    """The model with W a rotated diag(1e-1, 1e-3, 1e-6, 1e-9), condition 1e8."""
    U, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    W = (U * [1e-1, 1e-3, 1e-6, 1e-9]) @ U.T
    return dataclasses.replace(model, W=0.5 * (W + W.T))


EDGE_MODELS = {
    "fa-n300": lambda: lq.fully_actuated_model(n=300),
    "ua-n300": lambda: lq.under_actuated_model(n=300),
    "fa-cond-W-1e8": lambda: _ill_conditioned_noise(lq.fully_actuated_model()),
    "ua-cond-W-1e8": lambda: _ill_conditioned_noise(lq.under_actuated_model()),
}


@pytest.mark.parametrize("case", list(EDGE_MODELS))
def test_exact_cost_matches_monte_carlo_on_edge_cases(case):
    # a long horizon and an ill-conditioned plant noise: the exact cost of
    # im-comm-heu still agrees with 2000 Monte Carlo runs
    model = EDGE_MODELS[case]()
    kind = (PolicyKind.IM_COMM_FA if model.leader_fully_actuated()
            else PolicyKind.IM_COMM_UA)
    pol = make_policy(kind, model, theta=0.88)
    exact = expected_total_cost(pol.power, pol.gains, pol.setup, model,
                                pol.block_order)
    rep = monte_carlo(pol, model, None, 2000, 0)
    z = (rep.mean_total_cost - exact) / (rep.std_total_cost / np.sqrt(rep.runs))
    assert abs(z) <= 4.0, (f"MC {rep.mean_total_cost:.6g} vs exact {exact:.6g}, "
                           f"z {z:+.2f}")


def test_stage_costs_terminal_entry(fa_model, fa_gains, fa_channel):
    sched = heuristic_schedule(0.88, fa_model.n, 4)
    pol = make_policy(PolicyKind.IM_COMM_FA, fa_model, power=sched)
    costs = trajectory(pol.step_ops, fa_model).costs
    assert costs.shape == (fa_model.n + 1,)
    traj = state_trajectory(sched, fa_gains, fa_channel, fa_model)
    assert costs[-1] == pytest.approx(np.trace(fa_model.Fn @ traj[-1].Z))


def test_ua_zero_schedule_cost_finite(ua_model, ua_gains, ua_channel):
    zero = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                         Lambda=[np.zeros(2)] * ua_model.n)
    c = expected_total_cost(zero, ua_gains, ua_channel, ua_model)
    assert np.isfinite(c) and c > 0


def test_ua_overpowered_schedule_costs_more(ua_model, ua_gains, ua_channel):
    heu = heuristic_schedule(0.88, ua_model.n, 2)
    blown = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                          Lambda=[1e6 * lam for lam in heu.Lambda])
    assert (expected_total_cost(blown, ua_gains, ua_channel, ua_model)
            > expected_total_cost(heu, ua_gains, ua_channel, ua_model))



@pytest.mark.parametrize("steps, dim, what", [(29, 2, "30"), (30, 3, "Lambda_0")])
def test_schedule_must_fit_the_channel(ua_model, ua_gains, ua_channel, steps,
                                       dim, what):
    # a short or wide schedule used to end in a bare IndexError or a numpy
    # broadcast error
    sched = heuristic_schedule(0.88, steps, dim)
    for engine in (expected_total_cost, state_trajectory):
        with pytest.raises(lq.errors.ValidationError, match=f"power: .*{what}"):
            engine(sched, ua_gains, ua_channel, ua_model)


@pytest.mark.parametrize("Lambda, what", [
    (np.ones((30, 1)), r"Lambda_0 \.\. Lambda_29 have width 1.*2 entries"),  # used to broadcast
    (np.ones((29, 2)), r"Lambda has shape \(29, 2\).*\(30, 2\)"),     # used to IndexError
    (np.where(np.arange(60).reshape(30, 2) == 13, np.nan, 1.0),
     r"Lambda_6\[1\] = nan"),
    (np.where(np.arange(60).reshape(30, 2) == 40, -0.5, 1.0),
     r"Lambda_20\[0\] = -0.5"),
], ids=["too-narrow", "too-short", "nan", "negative"])
def test_evaluator_rejects_a_malformed_schedule(ua_model, ua_gains, ua_channel,
                                                Lambda, what):
    evaluator = TailCostEvaluator(ua_gains, ua_channel, ua_model)
    with pytest.raises(lq.errors.ValidationError, match=f"power: {what}"):
        evaluator.cost(Lambda)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["fa", "ua"])
def test_edge_horizons_cost_and_gradient(n, kind):
    model = (lq.fully_actuated_model(n=n) if kind == "fa"
             else lq.under_actuated_model(n=n))
    setup = (lq.fa_setup(model.B1, model.W) if kind == "fa"
             else lq.ua_setup(model.B1, model.W))
    gains = lq.backward_riccati(model)
    order = None if kind == "fa" else [1, 0]
    rng = np.random.default_rng(n)
    sched = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                          Lambda=list(rng.uniform(0.2, 2.0, (n, setup.r))))
    evaluator = TailCostEvaluator(gains, setup, model, order)
    lam = np.array(sched.Lambda)
    assert evaluator.cost(lam) == expected_total_cost(sched, gains, setup, model, order)
    grad = evaluator.gradient()
    assert grad.shape == (n, setup.r)
    fd = np.empty_like(grad)
    for t, j in np.ndindex(*lam.shape):
        h = 1e-5 * lam[t, j]
        up, down = lam.copy(), lam.copy()
        up[t, j] += h
        down[t, j] -= h
        fd[t, j] = (evaluator.cost(up) - evaluator.cost(down)) / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7 * np.abs(fd).max())
