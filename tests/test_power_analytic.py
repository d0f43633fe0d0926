import numpy as np
import pytest

import channel_oracle as oracle
import lqcoord as lq
from lqcoord.policies import PolicyKind, make_policy
from lqcoord.power import (expected_stage_costs, expected_total_cost,
                           heuristic_schedule)
from lqcoord.power.analytic import MdpState, state_trajectory, step_and_cost
from lqcoord.power.schedules import PowerSchedule, ScheduleMode
from lqcoord.simulate import derive_run_seed, rollout


def test_initial_state_blocks(fa_model):
    st = MdpState.initial(fa_model)
    np.testing.assert_allclose(st.Z, fa_model.X0 + fa_model.Sigma0)
    np.testing.assert_allclose(st.Sigma, fa_model.Sigma0)
    np.testing.assert_allclose(st.Omega, -fa_model.Sigma0)
    np.testing.assert_allclose(st.Xi, -fa_model.Sigma0)
    np.testing.assert_allclose(st.L, -np.eye(4), atol=1e-12)


def test_sigma_block_matches_closed_form(fa_model, fa_gains, fa_channel):
    # the joint propagation's Sigma block must reproduce the contraction law
    sched = heuristic_schedule(0.88, fa_model.n, 4)
    states = state_trajectory(sched, fa_gains, fa_channel, fa_model)
    Sigma = fa_model.Sigma0.copy()
    for t in range(12):
        Sigma = oracle.cov_update_fa(Sigma, sched.lam(t), fa_channel)
        np.testing.assert_allclose(states[t + 1].Sigma, Sigma, atol=1e-12)


def test_sigma_block_matches_closed_form_ua(ua_model, ua_gains, ua_channel):
    sched = heuristic_schedule(0.88, ua_model.n, 2)
    states = state_trajectory(sched, ua_gains, ua_channel, ua_model)
    Sigma = ua_model.Sigma0.copy()
    for t in range(12):
        Sigma = oracle.cov_update_ua(Sigma, sched.lam(t), t % 2, ua_channel)
        np.testing.assert_allclose(states[t + 1].Sigma, Sigma, atol=1e-12)


def test_fa_cross_covariance_stays_minus_identity(fa_model, fa_gains, fa_channel):
    # estimate/state orthogonality: Omega = -Sigma throughout, so L = -I
    sched = heuristic_schedule(0.88, fa_model.n, 4)
    states = state_trajectory(sched, fa_gains, fa_channel, fa_model)
    for st in states[:10]:
        np.testing.assert_allclose(st.Omega, -st.Sigma, atol=1e-10)


def test_fa_L_schedule_independence(fa_model, fa_gains, fa_channel):
    # while Sigma is well conditioned, L is -I under any power schedule
    # (forming L = Omega Sigma^+ amplifies roundoff by 1/sigma_min, so the
    # directly propagated blocks carry the tight check)
    s1 = heuristic_schedule(0.88, fa_model.n, 4)
    s2 = heuristic_schedule(0.5, fa_model.n, 4)
    t1 = state_trajectory(s1, fa_gains, fa_channel, fa_model)
    t2 = state_trajectory(s2, fa_gains, fa_channel, fa_model)
    for a, b in zip(t1[:4], t2[:4]):
        np.testing.assert_allclose(a.L, b.L, atol=1e-9)
        np.testing.assert_allclose(a.L, -np.eye(4), atol=1e-9)
    for a in t1[:10]:
        np.testing.assert_allclose(a.Omega, -a.Sigma, atol=1e-12)


def test_zero_power_zero_prior_reduces_to_lqr_covariance(fa_model, fa_gains, fa_channel):
    # with no signaling and a vanishing prior, Z follows the plain closed loop
    tiny = lq.SystemModel(fa_model.A, fa_model.B1, fa_model.B2, fa_model.W,
                          fa_model.F, fa_model.Fn, fa_model.G1, fa_model.G2,
                          1e-14 * np.eye(4), fa_model.X0, fa_model.n)
    gains = lq.backward_riccati(tiny)
    setup = lq.fa_setup(tiny.B1, tiny.W)
    st = MdpState.initial(tiny)
    Z_ref = tiny.X0 + 1e-14 * np.eye(4)
    for t in range(6):
        _, st = step_and_cost(st, np.zeros(4), gains, setup, tiny)
        Abar = tiny.A - tiny.B @ gains.K[t]
        Z_ref = Abar @ Z_ref @ Abar.T + tiny.W
        np.testing.assert_allclose(st.Z, Z_ref, atol=1e-8)


def test_ua_zero_power_freezes_sigma(ua_model, ua_gains, ua_channel):
    st = MdpState.initial(ua_model)
    _, st = step_and_cost(st, np.zeros(2), ua_gains, ua_channel, ua_model, 0)
    np.testing.assert_allclose(st.Sigma, ua_model.Sigma0, atol=1e-12)


def test_ua_block_diagonal_noise_matches_fa_form(ua_gains):
    # when the rotated noise has no cross block, the UA cross-covariance
    # collapses to the FA law Omega = -Sigma
    m = lq.under_actuated_model(n=8)
    # Wbar3 = 0 iff Gamma0' W Gamma0 is block diagonal; W = c I gives Wbar = c I
    setup = lq.ua_setup(m.B1, m.W)
    assert np.allclose(setup.Wbar3, 0.0, atol=1e-12)
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
    from lqcoord.simulate import monte_carlo
    rep = monte_carlo(pol, fa_model, None, 2500, 31)
    se = rep.std_total_cost / np.sqrt(rep.runs)
    assert abs(rep.mean_total_cost - ana) <= max(4 * se, 0.02 * ana)


def test_expected_cost_matches_monte_carlo_ua(ua_model, ua_gains, ua_channel):
    sched = heuristic_schedule(0.88, ua_model.n, 2)
    ana = expected_total_cost(sched, ua_gains, ua_channel, ua_model)
    pol = make_policy(PolicyKind.IM_COMM_UA, ua_model)
    from lqcoord.simulate import monte_carlo
    rep = monte_carlo(pol, ua_model, None, 2500, 32)
    se = rep.std_total_cost / np.sqrt(rep.runs)
    assert abs(rep.mean_total_cost - ana) <= max(4 * se, 0.02 * ana)


def test_stage_costs_terminal_entry(fa_model, fa_gains, fa_channel):
    sched = heuristic_schedule(0.88, fa_model.n, 4)
    costs = expected_stage_costs(sched, fa_gains, fa_channel, fa_model)
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

