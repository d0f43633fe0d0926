"""Differential checks of the channel map on random systems.

The rollout operator table (`PreparedPolicy.step_ops`), the step-by-step
reference in `channel_oracle` and the exact-cost engine's joint covariance
compute the same per-step quantities by different routes; on random
controllable systems (d0 <= 6, r | d0) they must agree to roundoff. The
decoder is also the noise map of the error recursion (the push-through
identity), so it must match the oracle's noise gain in its V form too.

The table and the exact-cost engine share one Sigma loop
(`channel.sigma_steps`), which propagates the error covariance through the
maps E_t and dec_t, i.e. the covariance the encoder and decoder actually
produce. At every step the oracle's maps are rebuilt from the table's
Sigma_t and the table's Sigma_{t+1} is checked against the oracle's own
propagation (I - dec B1 enc) Sigma (.)' + dec W dec'. The paper's closed
form Sigma^(1/2) V Sigma^(1/2) is the same map while Sigma_t^(-1/2) is a
true inverse, so it is checked only while Sigma_t stays clear of the
pseudo-inverse cutoff; once the cutoff drops a direction that the channel
eigenbasis mixes with the others, the closed form no longer describes the
sampled covariance (the tests at the end pin one such case).

The exact-cost engine builds the channel's power half for all steps at
once and runs its serial loops on stacked maps; `joint_oracle` keeps the
step-by-step form of the same forward and reverse passes, and the two must
agree in cost, joint covariances and gradient.
"""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

import channel_oracle as oracle
import joint_oracle
from conftest import random_pd
from lqcoord.errors import LqcoordError
from lqcoord.model import SystemModel
from lqcoord.policies import PolicyKind, make_policy
from lqcoord.power.analytic import (MdpState, TailCostEvaluator,
                                   expected_total_cost, state_trajectory,
                                   trajectory)
from lqcoord.power.schedules import PowerSchedule, ScheduleMode
from lqcoord.simulate import monte_carlo

CUTOFF_COND = 1e12   # 1 / the pseudo-inverse cutoff of channel_step
# the joint block is compared while every Sigma_t stays this far from the
# cutoff, so roundoff cannot truncate a direction on one side only
EXACT_COND = CUTOFF_COND / 10
RTOL = 1e-10
GRAD_COND = 1e6      # conditioning up to which central differences resolve
GRAD_STEP = 1e-4     # relative central-difference step


def _system(rng, d0: int, r: int, n: int) -> SystemModel:
    """Random plant whose leader matrix has rank r (r = d0: fully actuated)."""
    d1 = r + int(rng.integers(0, 3))
    for _ in range(50):
        try:
            return SystemModel(
                A=rng.standard_normal((d0, d0)),
                B1=rng.standard_normal((d0, r)) @ rng.standard_normal((r, d1)),
                B2=rng.standard_normal((d0, 1)), W=random_pd(rng, d0, 0.1),
                F=np.diag(rng.uniform(0.2, 2.0, d0)),
                Fn=np.diag(rng.uniform(1.0, 6.0, d0)), G1=np.eye(d1),
                G2=np.eye(1), Sigma0=random_pd(rng, d0), X0=np.eye(d0), n=n)
        except LqcoordError:
            continue
    raise RuntimeError("failed to sample a controllable system")


def _random_policy(d0, r, n, seed):
    rng = np.random.default_rng(seed)
    model = _system(rng, d0, r, n)
    schedule = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                             Lambda=[np.exp(rng.uniform(np.log(0.05), np.log(2.0), r))
                                     for _ in range(n)])
    kind = PolicyKind.IM_COMM_FA if r == d0 else PolicyKind.IM_COMM_UA
    return make_policy(kind, model, power=schedule)


def _assert_rel(actual, desired, rtol, what):
    scale = np.abs(desired).max()
    err = np.abs(actual - desired).max()
    assert err <= rtol * scale, f"{what}: {err:.3e} > {rtol:.1e} * {scale:.3e}"


@st.composite
def cases(draw):
    d0 = draw(st.integers(1, 6))
    r = draw(st.sampled_from([k for k in range(1, d0 + 1) if d0 % k == 0]))
    return d0, r, draw(st.integers(1, 8)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases())
@example((1, 1, 1, 0))        # n = 1, d0 = 1
@example((1, 1, 6, 1))        # d0 = 1
@example((3, 1, 7, 2))        # r = 1 with tau = 3
@example((6, 2, 8, 3))        # r = 2 with tau = 3
def test_table_matches_oracle_and_exact_engine(case):
    d0, r, n, seed = case
    pol = _random_policy(d0, r, n, seed)
    model, setup, schedule = pol.model, pol.setup, pol.power
    kind = pol.kind
    assert setup.r == r and setup.tau == d0 // r
    ops, final_trace = pol.step_ops, pol.sigma_traces[-1]
    joint = state_trajectory(schedule, pol.gains, setup, model)

    _assert_rel(ops.Sigma[0], model.Sigma0, RTOL, "Sigma_0")
    cond = 1.0              # largest live condition number of Sigma_0..Sigma_t
    for t in range(n):
        lam, Sigma = schedule.Lambda[t], ops.Sigma[t]
        _assert_rel(joint[t].Sigma, Sigma, oracle.roundoff_tol(cond, RTOL),
                    f"joint Sigma_{t}")
        cond = max(cond, oracle.live_cond(Sigma))
        tol = oracle.roundoff_tol(cond, RTOL)
        if kind is PolicyKind.IM_COMM_FA:
            enc = oracle.encoder_fa(Sigma, lam, setup)
            dec = oracle.decode_fa_gain(Sigma, lam, setup)
            noise = oracle.noise_gain_fa(Sigma, lam, setup)
            # the signal lives in range(Q) with virtual coordinates
            # S^(1/2) Sigma^(-1/2); the normal-equation left inverse costs
            # a further cond(Q)^2
            _assert_rel(oracle.left_inverse(setup.Q) @ ops.enc[t],
                        oracle.signal_sqrt(setup, lam) @ oracle.inv_sqrt_psd(Sigma),
                        tol * np.linalg.cond(setup.Q) ** 2, f"virtual signal {t}")
            closed = oracle.cov_update_fa(Sigma, lam, setup)
        else:
            k = t % setup.tau
            enc = oracle.encoder_ua(Sigma, lam, k, setup)
            dec = (oracle.decode_ua_gain(Sigma, lam, k, setup)
                   @ oracle.virtual_out(setup))
            noise = (oracle.noise_gain_ua(Sigma, lam, k, setup)
                     @ oracle.virtual_out(setup))
            closed = oracle.cov_update_ua(Sigma, lam, k, setup)
        _assert_rel(ops.enc[t], enc, tol, f"enc_{t}")
        _assert_rel(ops.dec[t], dec, tol, f"dec_{t}")
        _assert_rel(ops.dec[t], noise, tol, f"dec_{t} as noise gain")
        # e_{t+1} = (I - dec B1 enc) e_t - dec w_t
        E = np.eye(d0) - dec @ model.B1 @ enc
        propagated = E @ Sigma @ E.T + dec @ model.W @ dec.T
        if t + 1 < n:
            _assert_rel(ops.Sigma[t + 1], propagated, tol, f"Sigma_{t + 1}")
            if cond < EXACT_COND:
                _assert_rel(ops.Sigma[t + 1], closed, tol,
                            f"Sigma_{t + 1} in closed form")
    assert abs(final_trace - np.trace(propagated)) <= tol * np.trace(propagated)
    if cond < EXACT_COND:
        assert abs(final_trace - np.trace(closed)) <= tol * np.trace(closed)
    _assert_rel(joint[n].Sigma, propagated, tol, "joint Sigma_n")


@settings(max_examples=20, deadline=None, derandomize=True)
@given(cases())
@example((2, 2, 1, 4))        # n = 1
@example((1, 1, 6, 1))        # d0 = 1
@example((3, 1, 7, 2))        # r = 1 with tau = 3
def test_monte_carlo_matches_exact_cost(case):
    # sampled targets: the Monte Carlo mean of 4000 runs lies within 4
    # standard errors of the exact expected cost, for the signaling policy
    # and the ex-comm and no-comm tables of the same system
    pol = _random_policy(*case)
    model = pol.model
    priced = [(pol, expected_total_cost(pol.power, pol.gains, pol.setup, model,
                                        pol.block_order))]
    for kind in (PolicyKind.EX_COMM, PolicyKind.NO_COMM):
        base = make_policy(kind, model)
        priced.append((base, trajectory(base.step_ops, model).costs.sum()))
    runs = 4000
    for p, exact in priced:
        rep = monte_carlo(p, model, None, runs, 0)
        z = (rep.mean_total_cost - exact) / (rep.std_total_cost / np.sqrt(runs))
        assert abs(z) <= 4, (f"{p.label}: MC {rep.mean_total_cost:.6g} vs exact "
                             f"{exact:.6g}: z {z:.2f}")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases())
@example((1, 1, 3, 0))        # d0 = 1
@example((3, 1, 7, 2))        # r = 1 with tau = 3
@example((6, 2, 8, 3))        # r = 2 with tau = 3
@example((4, 4, 5, 5))        # fully actuated
def test_adjoint_gradient_matches_central_differences(case):
    # the reverse pass differentiates the forward pass exactly; central
    # differences with relative step h agree to O(h^2) plus roundoff
    # eps * cond(Sigma_t) / h, so systems are kept to cond < GRAD_COND
    pol = _random_policy(*case)
    evaluator = TailCostEvaluator(pol.gains, pol.setup, pol.model)
    lam = np.array(pol.power.Lambda)
    evaluator.cost(lam)
    assume(max(oracle.live_cond(evaluator.trajectory.state(t).Sigma)
               for t in range(1, pol.model.n + 1)) < GRAD_COND)
    grad = evaluator.gradient()
    assert grad.shape == lam.shape
    fd = np.empty_like(grad)
    for t, j in np.ndindex(*lam.shape):
        h = GRAD_STEP * lam[t, j]
        up, down = lam.copy(), lam.copy()
        up[t, j] += h
        down[t, j] -= h
        fd[t, j] = (evaluator.cost(up) - evaluator.cost(down)) / (2 * h)
    _assert_rel(grad, fd, 1e-5, "adjoint gradient")


@st.composite
def ordered_cases(draw):
    """A case of `cases()` with a shuffled block order."""
    d0, r, n, seed = draw(cases())
    return d0, r, n, seed, draw(st.permutations(range(d0 // r)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ordered_cases())
@example((1, 1, 3, 0, [0]))           # d0 = 1
@example((3, 1, 7, 2, [2, 0, 1]))     # r = 1 with tau = 3
@example((6, 2, 8, 3, [1, 2, 0]))     # r = 2 with tau = 3
@example((4, 4, 5, 5, [0]))           # fully actuated
def test_stacked_engine_matches_step_by_step_oracle(case):
    # the engine's stacked stages and one-call power gradient against the
    # per-step forward and reverse passes of `joint_oracle`
    *dims, order = case
    pol = _random_policy(*dims)
    model, setup = pol.model, pol.setup
    lam = np.array(pol.power.Lambda)
    evaluator = TailCostEvaluator(pol.gains, setup, model, order)
    cost = evaluator.cost(lam)
    assume(max(oracle.live_cond(evaluator.trajectory.state(t).Sigma)
               for t in range(1, model.n + 1)) < GRAD_COND)
    steps = joint_oracle.forward(lam, pol.gains, setup, model, order)
    expected = joint_oracle.total_cost(steps, model)
    assert abs(cost - expected) <= 1e-10 * abs(expected), (cost, expected)
    for t in range(model.n + 1):
        ref = steps[t - 1].state.joint if t else MdpState.initial(model).joint
        _assert_rel(evaluator.trajectory.state(t).joint, ref, 1e-10, f"P_{t}")
    _assert_rel(evaluator.gradient(), joint_oracle.gradient(steps, lam, setup, model),
                1e-8, "gradient")


def _sampled_after_truncation():
    """Policy whose Sigma_4 has a truncated direction, and the sampled Tr Cov(e_5).

    Sigma_4 has condition number 5e13, so channel_step drops a direction of
    it that the channel eigenbasis mixes with the others; the error
    covariance the table's own encoder and decoder produce is sampled
    (200k draws).
    """
    pol = _random_policy(3, 3, 5, 223)
    ops = pol.step_ops
    assert oracle.live_cond(ops.Sigma[4]) >= CUTOFF_COND > oracle.live_cond(ops.Sigma[3])
    rng = np.random.default_rng(0)
    R = 200_000
    e = rng.multivariate_normal(np.zeros(3), pol.model.Sigma0, size=R)
    for enc, dec in zip(ops.enc, ops.dec):
        w = rng.multivariate_normal(np.zeros(3), pol.model.W, size=R)
        e = e - (e @ enc.T @ pol.model.B1.T + w) @ dec.T
    return pol, np.trace(e.T @ e) / R


def test_joint_engine_follows_sampled_covariance_after_truncation():
    pol, sampled = _sampled_after_truncation()
    joint = state_trajectory(pol.power, pol.gains, pol.setup, pol.model)
    assert abs(np.trace(joint[5].Sigma) - sampled) < 0.01 * sampled


def test_table_sigma_follows_sampled_covariance_after_truncation():
    # the closed form Sigma^(1/2) V Sigma^(1/2) is 2.7% high here
    pol, sampled = _sampled_after_truncation()
    final_trace = pol.sigma_traces[-1]
    assert abs(final_trace - sampled) < 0.01 * sampled


def test_table_sigma_traces_equal_the_exact_engine_after_truncation():
    # Sigma_4 onwards has a truncated direction; the closed form parts from
    # the engine's Tr Sigma_t by up to 18.5% here
    pol = _random_policy(3, 3, 10, 223)
    joint = state_trajectory(pol.power, pol.gains, pol.setup, pol.model)
    np.testing.assert_allclose(pol.sigma_traces,
                               [np.trace(state.Sigma) for state in joint],
                               rtol=RTOL)
