import dataclasses

import numpy as np
import pytest

import channel_oracle as oracle
import joint_oracle
from conftest import random_system
import lqcoord as lq
from lqcoord.errors import SigmaNearSingular
from lqcoord.linalg import svd_factor
from lqcoord.policies import PolicyKind, PreparedPolicy, make_policy
from lqcoord.power import expected_total_cost, heuristic_schedule
from lqcoord.cli import build_policy
from lqcoord.config import PolicyConfig
from lqcoord.power.analytic import TailCostEvaluator, value_constant
from lqcoord.power.schedules import PowerSchedule, ScheduleMode
from lqcoord import simulate
from lqcoord.simulate import monte_carlo

# blocks of the joint covariance of (z_t, e_t, x_*) for d0 = 4
Z, E, X = slice(0, 4), slice(4, 8), slice(8, 12)


def _joint(schedule, gains, setup, model):
    """The joint covariances P_0..P_n along a signaling schedule's table,
    step by step (`joint_oracle`)."""
    kind = PolicyKind.IM_COMM_FA if setup.r == model.d0 else PolicyKind.IM_COMM_UA
    ops = PreparedPolicy(kind, model, gains, setup, power=schedule).step_ops
    return joint_oracle.joints(joint_oracle.table_forward(ops, model), model)


def test_initial_state_blocks(fa_model):
    P = joint_oracle.initial_joint(fa_model)
    np.testing.assert_allclose(P[Z, Z], fa_model.X0 + fa_model.Sigma0)
    np.testing.assert_allclose(P[E, E], fa_model.Sigma0)
    np.testing.assert_allclose(P[Z, E], -fa_model.Sigma0)
    np.testing.assert_allclose(P[Z, X], -fa_model.Sigma0)


def test_sigma_block_matches_closed_form(fa_model, fa_gains, fa_channel):
    # the joint propagation's Sigma block must reproduce the contraction law
    sched = heuristic_schedule(0.88, fa_model.n, 4)
    joint = _joint(sched, fa_gains, fa_channel, fa_model)
    Sigma = fa_model.Sigma0.copy()
    for t in range(12):
        Sigma = oracle.cov_update_fa(Sigma, sched.Lambda[t], fa_channel)
        np.testing.assert_allclose(joint[t + 1][E, E], Sigma, atol=1e-12)


def test_sigma_block_matches_closed_form_ua(ua_model, ua_gains, ua_channel):
    sched = heuristic_schedule(0.88, ua_model.n, 2)
    joint = _joint(sched, ua_gains, ua_channel, ua_model)
    Sigma = ua_model.Sigma0.copy()
    for t in range(12):
        Sigma = oracle.cov_update_ua(Sigma, sched.Lambda[t], t % 2, ua_channel)
        np.testing.assert_allclose(joint[t + 1][E, E], Sigma, atol=1e-12)


def test_fa_cross_covariance_stays_minus_identity(fa_model, fa_gains, fa_channel):
    # estimate/state orthogonality: Omega = -Sigma throughout, so L = -I
    sched = heuristic_schedule(0.88, fa_model.n, 4)
    for P in _joint(sched, fa_gains, fa_channel, fa_model)[:10]:
        np.testing.assert_allclose(P[Z, E], -P[E, E], atol=1e-10)


def test_fa_L_schedule_independence(fa_model, fa_gains, fa_channel):
    # L = Omega Sigma^+ is -I under any power schedule: Omega = -Sigma on the
    # directly propagated blocks (forming L itself would amplify roundoff
    # by 1/sigma_min)
    for theta in (0.88, 0.5):
        sched = heuristic_schedule(theta, fa_model.n, 4)
        for P in _joint(sched, fa_gains, fa_channel, fa_model)[:10]:
            np.testing.assert_allclose(P[Z, E], -P[E, E], atol=1e-12)


def test_zero_power_zero_prior_reduces_to_lqr_covariance(fa_model, fa_gains, fa_channel):
    # with no signaling and a vanishing prior, Z follows the plain closed
    # loop, and the exact cost is the full-information one
    tiny = lq.SystemModel(fa_model.A, fa_model.B1, fa_model.B2, fa_model.W,
                          fa_model.F, fa_model.Fn, fa_model.G1, fa_model.G2,
                          1e-14 * np.eye(4), fa_model.X0, fa_model.n)
    gains = lq.backward_riccati(tiny)
    setup = lq.fa_setup(tiny.B1, tiny.W)
    zero = PowerSchedule(mode=ScheduleMode.FULL_MATRIX, Lambda=np.zeros((tiny.n, 4)))
    joint = _joint(zero, gains, setup, tiny)
    Z_ref = tiny.X0 + 1e-14 * np.eye(4)
    for t in range(6):
        Abar = tiny.A - tiny.B @ gains.K[t]
        Z_ref = Abar @ Z_ref @ Abar.T + tiny.W
        np.testing.assert_allclose(joint[t + 1][Z, Z], Z_ref, atol=1e-8)
    ex_comm = joint_oracle.table_cost(make_policy(PolicyKind.EX_COMM, tiny).step_ops,
                                      tiny)
    cost = TailCostEvaluator(gains, setup, tiny).cost(zero.Lambda)
    assert cost == pytest.approx(ex_comm, rel=1e-12)


def test_ua_zero_power_freezes_sigma(ua_model, ua_gains, ua_channel):
    evaluator = TailCostEvaluator(ua_gains, ua_channel, ua_model)
    assert evaluator.blocks[0] == 0
    zero = PowerSchedule(mode=ScheduleMode.FULL_MATRIX, Lambda=np.zeros((ua_model.n, 2)))
    ops = PreparedPolicy(PolicyKind.IM_COMM_UA, ua_model, ua_gains, ua_channel,
                         power=zero).step_ops
    np.testing.assert_allclose(ops.Sigma[1], ua_model.Sigma0, atol=1e-12)
    np.testing.assert_allclose(_joint(zero, ua_gains, ua_channel, ua_model)[1][E, E],
                               ua_model.Sigma0, atol=1e-12)


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
    for P in _joint(sched, gains, setup, m):
        np.testing.assert_allclose(P[Z, E], -P[E, E], atol=1e-9)


def _assert_z_covariances(pol, model, joint, master, probes, R=3000):
    # sampled-target runs 0..R-1 of `master`, advanced as one batch;
    # covariance of z_t against the analytic block at each probe step
    x_star, states, *_ = simulate._rollouts(pol, model, None,
                                            simulate._run_seeds(master, 0, R))
    for t in probes:
        z = states[:, t] - x_star
        emp = z.T @ z / R
        ana = joint[t][Z, Z]
        se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana ** 2) / R)
        assert np.all(np.abs(emp - ana) <= 3.5 * se)


def test_analytic_Z_matches_monte_carlo(fa_model, fa_gains, fa_channel):
    sched = heuristic_schedule(0.88, fa_model.n, 4)
    joint = _joint(sched, fa_gains, fa_channel, fa_model)
    pol = make_policy(PolicyKind.IM_COMM_FA, fa_model)
    _assert_z_covariances(pol, fa_model, joint, 500, (1, 5, 10))


def test_analytic_Z_matches_monte_carlo_ua(ua_model, ua_gains, ua_channel):
    sched = heuristic_schedule(0.88, ua_model.n, 2)
    joint = _joint(sched, ua_gains, ua_channel, ua_model)
    pol = make_policy(PolicyKind.IM_COMM_UA, ua_model)
    _assert_z_covariances(pol, ua_model, joint, 501, (1, 4, 8))


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
    # the step-by-step stage costs plus the terminal Tr(Fn Z_n) are the
    # exact cost
    sched = heuristic_schedule(0.88, fa_model.n, 4)
    pol = make_policy(PolicyKind.IM_COMM_FA, fa_model, power=sched)
    steps = joint_oracle.table_forward(pol.step_ops, fa_model)
    assert len(steps) == fa_model.n
    terminal = np.trace(fa_model.Fn @ steps[-1].joint[Z, Z])
    exact = expected_total_cost(sched, fa_gains, fa_channel, fa_model)
    assert sum(s.cost for s in steps) + terminal == pytest.approx(exact)


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
    with pytest.raises(lq.errors.ValidationError, match=f"power: .*{what}"):
        expected_total_cost(sched, ua_gains, ua_channel, ua_model)


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


PINNED_COSTS = {   # exact E[J_n] of every policy on both presets at CLI defaults
    "fa-ex-comm": (lq.FULLY_ACTUATED, "ex-comm", 249.43720892327508, 1e-12),
    "fa-leader-only": (lq.FULLY_ACTUATED, "leader-only", 509.64074712910167, 1e-12),
    "fa-no-comm": (lq.FULLY_ACTUATED, "no-comm", 695.8980965760862, 1e-12),
    # Sigma_t reaches condition ~5e18; the pin is a 60-digit evaluation of
    # the same recursion (float64 gains, eigenpair and Lambda taken as
    # exact), which the cost identity on I~ left_t P_t - D_t Sigma_t^(1/2)
    # meets to ~3e-15; priced on Delta_t Sigma_t^(1/2), through the inverse
    # root, it lands ~3e-13 off
    "fa-im-comm-heu": (lq.FULLY_ACTUATED, "im-comm-heu", 510.09457699478567, 1e-13),
    "fa-im-comm-opt": (lq.FULLY_ACTUATED, "im-comm-opt", 291.24142886048094, 1e-12),
    "ua-ex-comm": (lq.UNDER_ACTUATED, "ex-comm", 369.8675047746266, 1e-12),
    "ua-no-comm": (lq.UNDER_ACTUATED, "no-comm", 820.1527076446287, 1e-12),
    "ua-im-comm-heu": (lq.UNDER_ACTUATED, "im-comm-heu", 522.2352014048439, 1e-12),
    # the optimizer's stopping rule leaves ~6e-5 relative play in its design
    "ua-im-comm-num": (lq.UNDER_ACTUATED, "im-comm-num", 444.9753789916281, 1e-4),
}


@pytest.mark.parametrize("preset, name, pinned, rtol", PINNED_COSTS.values(),
                         ids=list(PINNED_COSTS))
def test_exact_costs_are_pinned(preset, name, pinned, rtol):
    # a guard for refactors of the Sigma loop and the engine: the exact
    # cost of each policy as `compare` builds it, a baseline's from the
    # step-by-step joint covariance of its table
    model = lq.load_preset(preset)
    prepared, _ = build_policy(PolicyConfig(name=name), model)
    if prepared.tracks_sigma:
        cost = expected_total_cost(prepared.power, prepared.gains, prepared.setup,
                                   model, prepared.block_order)
    else:
        cost = joint_oracle.table_cost(prepared.step_ops, model)
    assert cost == pytest.approx(pinned, rel=rtol, abs=0)


def _value_constant_cases():
    rng = np.random.default_rng(7)
    systems = [random_system(rng, d0, d0 + extra, 1, n)
               for d0, extra, n in ((1, 0, 1), (2, 1, 6), (3, 0, 15), (4, 2, 9))]
    return [lq.load_preset(lq.FULLY_ACTUATED), lq.load_preset(lq.UNDER_ACTUATED),
            *systems]


@pytest.mark.parametrize("model", _value_constant_cases(),
                         ids=["fa", "ua", "d0-1-n1", "d0-2", "d0-3", "d0-4"])
def test_value_constant_is_the_full_information_cost(model):
    # the identity's schedule-free part is the ex-comm cost, and on the
    # leader's own gains the leader-only cost, each from the step-by-step
    # joint covariance of its table
    for kind, gains in ((PolicyKind.EX_COMM, model.joint_gains),
                        (PolicyKind.LEADER_ONLY, model.leader_gains)):
        if kind is PolicyKind.LEADER_ONLY and not model.leader_fully_actuated():
            continue
        exact = joint_oracle.table_cost(make_policy(kind, model).step_ops, model)
        assert value_constant(gains, model) == pytest.approx(exact, rel=1e-12, abs=0)


def test_cost_and_gradient_take_one_eigh_per_step(ua_model, ua_gains, ua_channel,
                                                   monkeypatch):
    # work count, not time: the forward pass decomposes each Sigma_t once
    # and the reverse pass reads the stored eigenpairs
    evaluator = TailCostEvaluator(ua_gains, ua_channel, ua_model)
    lam = heuristic_schedule(0.88, ua_model.n, ua_channel.r).Lambda
    calls, eigh = [], np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    evaluator.cost(lam)
    assert len(calls) == ua_model.n == 30
    evaluator.gradient()
    assert len(calls) == 30


def test_gradient_overflow_names_its_step():
    # on the FA heuristic at n = 120, Sigma_t's eigenvalues fall to ~1e-243
    # and the reverse pass overflows from step 112 down while the cost stays
    # finite: a typed error naming that step, and no RuntimeWarning (which
    # pytest makes an error here)
    model = lq.fully_actuated_model(n=120)
    pol = make_policy(PolicyKind.IM_COMM_FA, model)
    evaluator = TailCostEvaluator(pol.gains, pol.setup, model)
    assert np.isfinite(evaluator.cost(pol.power.Lambda))
    with pytest.raises(SigmaNearSingular, match="at step 112,"):
        evaluator.gradient()


def test_ua_long_horizon_gradient_stays_finite():
    # the UA heuristic keeps Sigma_t well conditioned at n = 120, so its
    # gradient is finite and is the step-by-step reverse pass's
    model = lq.under_actuated_model(n=120)
    pol = make_policy(PolicyKind.IM_COMM_UA, model)
    lam = pol.power.Lambda
    evaluator = TailCostEvaluator(pol.gains, pol.setup, model)
    evaluator.cost(lam)
    grad = evaluator.gradient()
    steps = joint_oracle.forward(lam, pol.gains, pol.setup, model)
    expected = joint_oracle.gradient(steps, lam, pol.setup, model)
    assert np.all(np.isfinite(grad))
    np.testing.assert_allclose(grad, expected, rtol=1e-10, atol=0)
