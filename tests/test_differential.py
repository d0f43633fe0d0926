"""Differential checks of the channel map on random systems.

The rollout operator table (`PreparedPolicy.step_ops`), the step-by-step
reference in `channel_oracle` and the joint covariance `joint_oracle`
propagates through the table compute the same per-step quantities by
different routes; on random
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

The exact-cost engine prices a schedule by the full-information cost
identity on Sigma_t alone and differentiates it by a reverse pass on a
d0 x d0 costate; `joint_oracle` propagates the joint covariance of (z_t,
e_t, x_*) one step at a time with the channel maps built from its own
Sigma block, and runs that propagation's reverse pass, and the two must
agree in cost and gradient. The Sigma loop keeps only the work on its
step-to-step chain; `channel_oracle.reference_sigma_steps`
keeps it as first written, and the two must agree to 1e-12 while Sigma_t
stays clear of the cutoff (the roots' roundoff grows like eps * cond, so
this holds only because the lean loop does the same arithmetic). The
engine's reverse pass runs through the root form Sigma^(1/2) K
Sigma^(1/2) of the same map; on the steps past the cutoff its one-step
pullback is held to the Joseph form's, and its gradient to the oracle's.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import channel_oracle as oracle
import joint_oracle
import lqcoord as lq
from conftest import random_pd
from lqcoord.channel import (block_schedule, fa_setup, power_factors, sigma_steps,
                             step_maps)
from lqcoord.cli import build_policy
from lqcoord.config import PolicyConfig
from lqcoord.errors import LqcoordError
from lqcoord.model import SystemModel
from lqcoord.policies import PolicyKind, make_policy
from lqcoord.power.analytic import TailCostEvaluator, expected_total_cost
from lqcoord.power.schedules import PowerSchedule, ScheduleMode
from lqcoord.simulate import monte_carlo

CUTOFF_COND = 1e12   # 1 / the pseudo-inverse cutoff of the Sigma loop
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


def _random_policy(d0, r, n, seed, ill_noise=False):
    """The coordination policy of a random system, its W of condition >= 1e8
    where ill_noise is set."""
    rng = np.random.default_rng(seed)
    model = _system(rng, d0, r, n)
    if ill_noise:
        model = _with_noise_condition(model, rng, 1e8)
    schedule = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                             Lambda=[np.exp(rng.uniform(np.log(0.05), np.log(2.0), r))
                                     for _ in range(n)])
    kind = PolicyKind.IM_COMM_FA if r == d0 else PolicyKind.IM_COMM_UA
    return make_policy(kind, model, power=schedule)


def _sigma_blocks(joint):
    """The Sigma_t blocks of stacked joint covariances of (z_t, e_t, x_*)."""
    d0 = joint.shape[-1] // 3
    return joint[..., d0:2 * d0, d0:2 * d0]


def _joint(ops, model):
    """The joint covariances P_0..P_n of a table, step by step."""
    return joint_oracle.joints(joint_oracle.table_forward(ops, model), model)


def _max_live_cond(Sigma):
    """Largest live condition number of Sigma_1..Sigma_n."""
    return max(oracle.live_cond(S) for S in Sigma[1:])


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
    joint = _sigma_blocks(_joint(ops, model))

    _assert_rel(ops.Sigma[0], model.Sigma0, RTOL, "Sigma_0")
    cond = 1.0              # largest live condition number of Sigma_0..Sigma_t
    for t in range(n):
        lam, Sigma = schedule.Lambda[t], ops.Sigma[t]
        _assert_rel(joint[t], Sigma, oracle.roundoff_tol(cond, RTOL),
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
    _assert_rel(joint[n], propagated, tol, "joint Sigma_n")


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
        priced.append((base, joint_oracle.table_cost(base.step_ops, model)))
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
    assume(_max_live_cond(pol.step_ops.Sigma) < GRAD_COND)
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
    """A case of `cases()` with a shuffled block order and, sometimes, a
    plant noise of condition >= 1e8."""
    d0, r, n, seed = draw(cases())
    return (d0, r, n, seed, draw(st.permutations(range(d0 // r))),
            draw(st.booleans()) and d0 > 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ordered_cases())
@example((1, 1, 1, 0, [0], False))            # n = 1, d0 = 1
@example((1, 1, 3, 0, [0], False))            # d0 = 1
@example((3, 1, 7, 2, [2, 0, 1], False))      # r = 1 with tau = 3
@example((6, 2, 8, 3, [1, 2, 0], False))      # r = 2 with tau = 3
@example((4, 4, 5, 5, [0], False))            # fully actuated
@example((4, 2, 6, 6, [1, 0], True))          # cond W >= 1e8
def test_stacked_engine_matches_step_by_step_oracle(case):
    # the cost identity and its reverse pass against the per-step joint
    # forward and reverse passes of `joint_oracle`, while Sigma_t stays
    # clear of the cutoff
    *dims, order, ill_noise = case
    _check_engine_against_oracle(_random_policy(*dims, ill_noise), order, assume)


def _check_engine_against_oracle(pol, order, admit, grad_admit=None):
    """Cost and gradient of the engine against `joint_oracle`; admit gets
    whether cond Sigma_t <= EXACT_COND, grad_admit (default: skip the
    gradient) whether it is <= GRAD_COND.

    The cost agrees to 1e-12 while cond Sigma_t <= GRAD_COND, and to eps *
    cond beyond: the oracle reads enc Sigma enc' off the joint covariance,
    whose e-block carries absolute roundoff eps * max eig(Sigma_t) into
    enc's 1 / min eig. (On a system with cond Sigma_t = 5e6 the identity is
    9e-16 from a 60-digit evaluation of it and the oracle 1.1e-12.) The
    gradient agrees to 1e-10 while cond Sigma_t <= GRAD_COND.
    """
    model, setup = pol.model, pol.setup
    lam = np.array(pol.power.Lambda)
    evaluator = TailCostEvaluator(pol.gains, setup, model, order)
    cost = evaluator.cost(lam)
    steps = joint_oracle.forward(lam, pol.gains, setup, model, order)
    cond = _max_live_cond(_sigma_blocks(joint_oracle.joints(steps, model)))
    admit(cond <= EXACT_COND)
    expected = joint_oracle.total_cost(steps, model)
    rtol = 1e-12 if cond <= GRAD_COND else np.finfo(float).eps * cond
    assert abs(cost - expected) <= rtol * abs(expected), (cost, expected, cond)
    if (grad_admit or (lambda ok: ok))(cond <= GRAD_COND):
        _assert_rel(evaluator.gradient(),
                    joint_oracle.gradient(steps, lam, setup, model), 1e-10,
                    "gradient")


def _isotropic_policy(model, seed):
    """The coordination policy of `model` with Lambda_t = a_t H^-1.

    The paper's scalar-design shape: every channel direction contracts by
    1/(1 + a_t), so a fully actuated Sigma_t = Sigma0 / prod(1 + a_s) keeps
    the condition number of Sigma0 at any horizon and any conditioning of W.
    """
    H = fa_setup(model.B1, model.W).eig.H
    a = np.random.default_rng(seed).uniform(0.01, 0.05, model.n)
    schedule = PowerSchedule(mode=ScheduleMode.FULL_MATRIX, Lambda=a[:, None] / H)
    return make_policy(PolicyKind.IM_COMM_FA, model, power=schedule)


def _long_horizon():
    return _system(np.random.default_rng(300), 3, 3, 300)


def _with_noise_condition(model, rng, cond):
    """The model with W = U diag(2e-1 .. 2e-1 / cond) U' for a random
    rotation U."""
    U, _ = np.linalg.qr(rng.standard_normal((model.d0, model.d0)))
    W = (U * np.geomspace(2e-1, 2e-1 / cond, model.d0)) @ U.T
    return dataclasses.replace(model, W=0.5 * (W + W.T))


def _ill_conditioned_noise():
    """A random plant whose W has condition 2e8."""
    rng = np.random.default_rng(8)
    return _with_noise_condition(_system(rng, 4, 4, 30), rng, 2e8)


@pytest.mark.parametrize("build", [_long_horizon, _ill_conditioned_noise],
                         ids=["n300", "cond-W-1e8"])
def test_stacked_engine_matches_oracle_on_edge_systems(build):
    model = build()
    assert model.n >= 300 or np.linalg.cond(model.W) >= 1e8

    def admit(ok):
        assert ok, "Sigma_t conditioning outside the limits"

    _check_engine_against_oracle(_isotropic_policy(model, model.n), None, admit,
                                 admit)


def _sampled_after_truncation():
    """Policy whose Sigma_4 has a truncated direction, and the sampled Tr Cov(e_5).

    Sigma_4 has condition number 5e13, so the Sigma loop drops a direction of
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
    joint = _joint(pol.step_ops, pol.model)
    assert abs(np.trace(_sigma_blocks(joint[5])) - sampled) < 0.01 * sampled


def test_table_sigma_follows_sampled_covariance_after_truncation():
    # the closed form Sigma^(1/2) V Sigma^(1/2) is 2.7% high here
    pol, sampled = _sampled_after_truncation()
    final_trace = pol.sigma_traces[-1]
    assert abs(final_trace - sampled) < 0.01 * sampled


def test_table_sigma_traces_equal_the_exact_engine_after_truncation():
    # Sigma_4 onwards has a truncated direction; the closed form parts from
    # the engine's Tr Sigma_t by up to 18.5% here
    pol = _random_policy(3, 3, 10, 223)
    joint = _joint(pol.step_ops, pol.model)
    np.testing.assert_allclose(pol.sigma_traces,
                               np.trace(_sigma_blocks(joint), axis1=1, axis2=2),
                               rtol=RTOL)


def _check_sigma_loop_against_reference(setup, Lambda, blocks, Sigma0, W):
    """Sigma_{t+1}, enc_t, dec_t and E_t of the Sigma loop within 1e-12
    relative of the reference copy while cond Sigma_0..Sigma_t <= EXACT_COND."""
    power = power_factors(setup, Lambda, blocks)
    lean = sigma_steps(power, Sigma0, W)
    enc, dec, E = step_maps(power, lean)
    ref = oracle.reference_sigma_steps(power, Sigma0, W)
    for t in range(len(blocks)):
        if oracle.live_cond(ref.Sigma[t]) > EXACT_COND:
            break
        for name, a, b in (("Sigma", lean.Sigma[t + 1], ref.Sigma[t + 1]),
                           ("enc", enc[t], ref.enc[t]),
                           ("dec", dec[t], ref.dec[t]),
                           ("E", E[t], ref.E[t])):
            _assert_rel(a, b, 1e-12, f"{name}_{t}")


@pytest.mark.parametrize("preset, name", [
    (lq.FULLY_ACTUATED, "im-comm-heu"), (lq.FULLY_ACTUATED, "im-comm-opt"),
    (lq.UNDER_ACTUATED, "im-comm-heu"), (lq.UNDER_ACTUATED, "im-comm-num")])
def test_sigma_loop_matches_reference_on_presets(preset, name):
    # the schedules `compare` runs, the budget-5000 design included; FA
    # im-comm-heu passes the cutoff's conditioning at t ~ 10 and the steps
    # before it are compared
    model = lq.load_preset(preset)
    prepared, _ = build_policy(PolicyConfig(name=name, budget=5000), model)
    blocks = block_schedule(prepared.setup, model.n, prepared.block_order)
    _check_sigma_loop_against_reference(prepared.setup, prepared.power.Lambda,
                                        blocks, model.Sigma0, model.W)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
def test_sigma_loop_matches_reference(case):
    pol = _random_policy(*case)
    blocks = block_schedule(pol.setup, pol.model.n)
    _check_sigma_loop_against_reference(pol.setup, pol.power.Lambda, blocks,
                                        pol.model.Sigma0, pol.model.W)


def _fa_heuristic_truncation():
    """FA im-comm-heu, its Sigma pass and the steps whose Sigma_t has
    truncated directions (from t ~ 10 on)."""
    model = lq.load_preset(lq.FULLY_ACTUATED)
    pol = make_policy(PolicyKind.IM_COMM_FA, model)
    lam = np.asarray(pol.power.Lambda)
    sigma = sigma_steps(power_factors(pol.setup, lam, [0] * model.n),
                        model.Sigma0, model.W)
    truncated = sigma.truncated
    assert truncated.size > 10 and 8 <= truncated[0] <= 12
    return pol, lam, sigma, truncated


def test_root_form_pullback_matches_joseph_pullback_on_truncated_steps():
    # on the steps past the cutoff the root-form pullback of one step,
    # through the kernels of Sigma_t's root and of the projector on its live
    # directions, equals the Joseph-form pullback through enc, dec and E and
    # the truncated Sigma^(-1/2). No central difference resolves the
    # projector's kernel, whose truncated directions lie ~1e-12 below the
    # largest; without it the two part by 100%
    pol, lam, sigma, truncated = _fa_heuristic_truncation()
    d0, d1 = pol.model.d0, pol.model.d1
    rng = np.random.default_rng(4)
    for t in truncated:
        one = power_factors(pol.setup, lam[t:t + 1], [0])
        Sbar = rng.standard_normal((d0, d0))
        args = (one, sigma.Sigma[t], pol.model.W, Sbar + Sbar.T,
                rng.standard_normal((d1, d0)), rng.standard_normal((d0, d0)))
        _assert_rel(oracle.root_step_adjoint(*args), oracle.joseph_step_adjoint(*args),
                    oracle.roundoff_tol(oracle.live_cond(sigma.Sigma[t]), 1e-12),
                    f"pullback of step {t}")


def test_gradient_on_truncated_steps_matches_the_joint_oracle():
    # the engine's gradient with respect to the power of the steps past the
    # cutoff against the reverse pass of `joint_oracle`, which goes through
    # enc, dec and E; without the projector P_t in M_t, V_bar and left_bar
    # the two part by 460%. The rows before the cutoff carry eps * cond of
    # steps at cond up to 7e11 and are left out
    pol, lam, _, truncated = _fa_heuristic_truncation()
    model = pol.model
    evaluator = TailCostEvaluator(pol.gains, pol.setup, model)
    evaluator.cost(lam)
    steps = joint_oracle.forward(lam, pol.gains, pol.setup, model)
    expected = joint_oracle.gradient(steps, lam, pol.setup, model)
    _assert_rel(evaluator.gradient()[truncated], expected[truncated], 1e-10,
                "gradient on truncated steps")


@pytest.mark.xfail(strict=True, reason=(
    "past the cutoff the Joseph-form Sigma loop propagates through E of "
    "norm up to ~1e6 and loses eps * cond per step, compounded: the exact "
    "cost sits 17% and 6% above the tables' 30-digit prices here, and "
    "100000-run Monte Carlo rollouts land within 3% of those prices "
    "(ROADMAP item 2)"))
@pytest.mark.parametrize("case", [(5, 5, 8, 909136095, True),
                                  (4, 4, 8, 3379257765, False)])
def test_exact_cost_past_the_cutoff_matches_the_tables_30_digit_price(case):
    # random draws whose Sigma_t reaches the pseudo-inverse cutoff; the
    # table's maps, taken as exact, are propagated to 30 digits. A root-form
    # Sigma chain (Sigma^(1/2) K Sigma^(1/2), `channel`) meets this to
    # 1.5e-5 on all 33 truncated draws of 150, `joint_oracle.table_cost` in
    # float64 misses it like the Joseph form
    pol = _random_policy(*case)
    Sigma = pol.step_ops.Sigma[:pol.model.n]
    assert max(np.linalg.cond(S) for S in Sigma) > CUTOFF_COND
    cost = expected_total_cost(pol.power, pol.gains, pol.setup, pol.model,
                               pol.block_order)
    price = joint_oracle.mp_table_cost(pol.step_ops, pol.model)
    cond = max(oracle.live_cond(S) for S in Sigma)
    tol = oracle.roundoff_tol(cond, 1e-12)
    assert abs(cost - price) <= tol * abs(price), (cost, price)
