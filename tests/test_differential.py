"""Differential checks of the channel map on random systems.

The rollout operator table (`PreparedPolicy.step_ops`), the step-by-step
reference in `channel_oracle` and the exact-cost engine's joint covariance
compute the same per-step quantities by different routes; on random
controllable systems (d0 <= 6, r | d0) they must agree to roundoff.

The exact-cost engine propagates the error covariance through the maps
E_t, N_t, i.e. the covariance the encoder and decoder actually produce;
the table follows the closed-form contraction. The two coincide while
Sigma_t^(-1/2) is a true inverse. Once the pseudo-inverse cutoff drops a
direction of Sigma_t that the channel eigenbasis mixes with the others,
they part (the two tests at the end pin one case), so the joint block is
compared up to that step only.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import channel_oracle as oracle
from conftest import random_pd
from lqcoord.channel import ChannelMode
from lqcoord.errors import LqcoordError
from lqcoord.model import SystemModel
from lqcoord.policies import PolicyKind, make_policy
from lqcoord.power.analytic import state_trajectory
from lqcoord.power.schedules import PowerSchedule, ScheduleMode

CUTOFF_COND = 1e12   # 1 / the pseudo-inverse cutoff of channel_step
# the joint block is compared while every Sigma_t stays this far from the
# cutoff, so roundoff cannot truncate a direction on one side only
EXACT_COND = CUTOFF_COND / 10
RTOL = 1e-10


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
    assert (setup.mode is ChannelMode.FULLY_ACTUATED) == (r == d0)
    ops, final_trace = pol.step_ops
    joint = state_trajectory(schedule, pol.gains, setup, model)

    Sigma = model.Sigma0.copy()
    cond = 1.0              # largest live condition number of Sigma_0..Sigma_t
    for t in range(n):
        lam = schedule.lam(t)
        _assert_rel(ops[t].Sigma, Sigma, oracle.roundoff_tol(cond, RTOL),
                    f"Sigma_{t}")
        if cond < EXACT_COND:
            _assert_rel(joint[t].Sigma, ops[t].Sigma,
                        oracle.roundoff_tol(cond, RTOL), f"joint Sigma_{t}")
        cond = max(cond, oracle.live_cond(Sigma))
        tol = oracle.roundoff_tol(cond, RTOL)
        if kind is PolicyKind.IM_COMM_FA:
            enc = oracle.encoder_fa(Sigma, lam, setup)
            dec = oracle.decode_fa_gain(Sigma, lam, setup)
            # the signal lives in range(Q) with virtual coordinates
            # S^(1/2) Sigma^(-1/2); the normal-equation left inverse costs
            # a further cond(Q)^2
            _assert_rel(oracle.left_inverse(setup.Q) @ ops[t].enc,
                        oracle.signal_sqrt(setup, lam) @ oracle.inv_sqrt_psd(Sigma),
                        tol * np.linalg.cond(setup.Q) ** 2, f"virtual signal {t}")
            Sigma = oracle.cov_update_fa(Sigma, lam, setup)
        else:
            k = t % setup.tau
            enc = oracle.encoder_ua(Sigma, lam, k, setup)
            dec = (oracle.decode_ua_gain(Sigma, lam, k, setup)
                   @ setup.svd.Gamma0.T[:setup.r])
            Sigma = oracle.cov_update_ua(Sigma, lam, k, setup)
        _assert_rel(ops[t].enc, enc, tol, f"enc_{t}")
        _assert_rel(ops[t].dec, dec, tol, f"dec_{t}")
    assert abs(final_trace - np.trace(Sigma)) <= tol * np.trace(Sigma)
    if cond < EXACT_COND:
        _assert_rel(joint[n].Sigma, Sigma, tol, "joint Sigma_n")


def _sampled_after_truncation():
    """Policy whose Sigma_4 has a truncated direction, and the sampled Tr Cov(e_5).

    Sigma_4 has condition number 5e13, so channel_step drops a direction of
    it that the channel eigenbasis mixes with the others; the error
    covariance the table's own encoder and decoder produce is sampled
    (200k draws).
    """
    pol = _random_policy(3, 3, 5, 223)
    ops, _ = pol.step_ops
    assert oracle.live_cond(ops[4].Sigma) >= CUTOFF_COND > oracle.live_cond(ops[3].Sigma)
    rng = np.random.default_rng(0)
    R = 200_000
    e = rng.multivariate_normal(np.zeros(3), pol.model.Sigma0, size=R)
    for op in ops:
        w = rng.multivariate_normal(np.zeros(3), pol.model.W, size=R)
        e = e - (e @ op.enc.T @ pol.model.B1.T + w) @ op.dec.T
    return pol, np.trace(e.T @ e) / R


def test_joint_engine_follows_sampled_covariance_after_truncation():
    pol, sampled = _sampled_after_truncation()
    joint = state_trajectory(pol.power, pol.gains, pol.setup, pol.model)
    assert abs(np.trace(joint[5].Sigma) - sampled) < 0.01 * sampled


@pytest.mark.xfail(strict=True, reason="the table's closed-form Sigma_t ignores "
                   "the pseudo-inverse truncation (2.7% high here)")
def test_table_sigma_follows_sampled_covariance_after_truncation():
    pol, sampled = _sampled_after_truncation()
    _, final_trace = pol.step_ops
    assert abs(final_trace - sampled) < 0.01 * sampled
