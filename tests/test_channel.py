import dataclasses

import numpy as np
import pytest

import channel_oracle as oracle
from conftest import random_pd

from lqcoord.channel import (choose_projection, fa_setup, power_factors,
                             sigma_steps, ua_setup)
from lqcoord.errors import (NonIntegerPeriod, NotSymmetric, RankDeficient,
                            SigmaNearSingular, SigmaTraceGrowth, ValidationError)
from lqcoord.linalg import SYM_TOL, min_eig, psd_sqrt
from lqcoord.policies import PolicyKind, make_policy
from lqcoord.power import heuristic_schedule
from lqcoord.power.schedules import PowerSchedule, ScheduleMode


def scalar_ua_setup():
    """Rank-1 leader in a 2-d plant: B1 = (1, 0)', W = I."""
    return ua_setup(np.array([[1.0], [0.0]]), np.eye(2))


# --- projection choice --------------------------------------------------------

def test_projection_identity_when_square():
    np.testing.assert_array_equal(choose_projection(np.eye(4)), np.eye(4))


def test_projection_preset(fa_model):
    Q = choose_projection(fa_model.B1)
    np.testing.assert_array_equal(Q, np.eye(4))
    assert np.linalg.matrix_rank(fa_model.B1 @ Q) == 4


def test_projection_wide_input():
    B1 = np.hstack([np.eye(2), np.ones((2, 1))])
    Q = choose_projection(B1)
    np.testing.assert_array_equal(Q, B1.T)
    assert min_eig(B1 @ Q) > 0


def test_projection_rejects_row_deficient():
    with pytest.raises(RankDeficient):
        choose_projection(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_fa_setup_is_the_one_block_channel(fa_model, fa_channel):
    # a fully actuated leader is the case r = d0, tau = 1 with P = I,
    # C = B1 Q and channel noise W
    assert fa_channel.r == 4 and fa_channel.tau == 1
    np.testing.assert_array_equal(fa_channel.P, np.eye(4))
    np.testing.assert_array_equal(fa_channel.C, fa_model.B1 @ fa_channel.Q)
    np.testing.assert_array_equal(fa_channel.Wv, fa_model.W)


def test_fa_setup_with_ill_conditioned_noise():
    # cond(W) = 1e9: the solve inside C' Wv^-1 C leaves an asymmetry far
    # above the symmetry check's tolerance, so the setup must symmetrise it
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    W = (U * np.logspace(-1, -10, 4)) @ U.T
    setup = fa_setup(rng.standard_normal((4, 4)), 0.5 * (W + W.T))
    M = setup.C.T @ np.linalg.solve(setup.Wv, setup.C)
    rebuilt = (setup.eig.U * setup.eig.H) @ setup.eig.U.T
    assert np.all(setup.eig.H > 0)
    assert np.abs(rebuilt - 0.5 * (M + M.T)).max() <= 1e-12 * np.abs(M).max()


def test_fa_block_order_must_be_the_single_block(fa_model):
    # the one block is 0; an order naming any other used to be ignored
    with pytest.raises(ValidationError, match="block_order"):
        make_policy(PolicyKind.IM_COMM_FA, fa_model, block_order=[1])


# --- fully actuated signal path -------------------------------------------------

def test_encode_zero_error(fa_channel):
    enc = oracle.one_step(fa_channel, np.eye(4), np.ones(4)).enc[0]
    np.testing.assert_allclose(enc @ np.zeros(4), 0.0)


def test_encode_matched_covariance():
    # Sigma = S and Q = I make the whitening and coloring cancel
    setup = fa_setup(np.eye(3), 0.5 * np.eye(3))
    lam = np.array([0.7, 1.3, 2.0])
    S = oracle.S_of(setup, lam)
    e = np.array([0.4, -1.0, 0.2])
    np.testing.assert_allclose(oracle.one_step(setup, S, lam).enc[0] @ e, e,
                               atol=1e-10)


def test_encode_covariance_monte_carlo(fa_channel, fa_model):
    rng = np.random.default_rng(42)
    N = 50_000
    Sigma = random_pd(rng, 4)
    lam = np.array([0.9, 0.5, 1.4, 0.2])
    enc = oracle.one_step(fa_channel, Sigma, lam).enc[0]
    e = rng.multivariate_normal(np.zeros(4), Sigma, size=N)
    s = e @ enc.T
    S_target = fa_channel.Q @ oracle.S_of(fa_channel, lam) @ fa_channel.Q.T
    emp = s.T @ s / N
    se = np.sqrt((np.outer(np.diag(S_target), np.diag(S_target)) + S_target ** 2) / N)
    assert np.all(np.abs(emp - S_target) <= 3.5 * se)


def test_decode_zero_output(fa_channel):
    dec = oracle.one_step(fa_channel, np.eye(4), np.ones(4)).dec[0]
    np.testing.assert_allclose(dec @ np.zeros(4), 0.0)


def test_decode_hand_case():
    setup = fa_setup(np.eye(2), np.eye(2))
    # all-identity pieces collapse the gain to (I + I)^-1 = 0.5 I
    e_hat = oracle.one_step(setup, np.eye(2), np.ones(2)).dec[0] @ np.array([2.0, 0.0])
    np.testing.assert_allclose(e_hat, [1.0, 0.0], atol=1e-12)


def test_decode_is_mmse(fa_channel, fa_model):
    rng = np.random.default_rng(9)
    N = 50_000
    Sigma = random_pd(rng, 4)
    lam = np.array([1.0, 0.4, 0.8, 1.5])
    step = oracle.one_step(fa_channel, Sigma, lam)
    enc = step.enc[0]
    e = rng.multivariate_normal(np.zeros(4), Sigma, size=N)
    w = rng.multivariate_normal(np.zeros(4), fa_model.W, size=N)
    y = e @ enc.T @ fa_channel.B1.T + w
    S12 = oracle.S_sqrt_of(fa_channel, lam)
    hand = (psd_sqrt(Sigma) @ S12 @ fa_channel.Q1.T
            @ np.linalg.inv(fa_channel.Q1 @ oracle.S_of(fa_channel, lam)
                            @ fa_channel.Q1.T + fa_model.W))
    gain = step.dec[0]
    np.testing.assert_allclose(gain, hand, atol=1e-12)
    # population second moments for the exact optimality statement
    C_ye = fa_channel.B1 @ enc @ Sigma
    C_yy = fa_channel.B1 @ enc @ Sigma @ enc.T @ fa_channel.B1.T + fa_model.W

    def pop_mse(L):
        return float(np.trace(Sigma) - 2 * np.trace(L @ C_ye)
                     + np.trace(L @ C_yy @ L.T))

    base_sq = np.sum((e - y @ gain.T) ** 2, axis=1)
    for _ in range(10):
        dG = rng.standard_normal(gain.shape)
        dG *= 1e-2 / np.linalg.norm(dG)
        assert pop_mse(gain + dG) >= pop_mse(gain) - 1e-12
        # sampled version: paired difference must not be significantly negative
        per_sq = np.sum((e - y @ (gain + dG).T) ** 2, axis=1)
        diff = per_sq - base_sq
        assert diff.mean() >= -3.0 * diff.std(ddof=1) / np.sqrt(N)


def test_cov_update_no_power_is_identity(fa_channel):
    Sigma = random_pd(np.random.default_rng(1), 4)
    np.testing.assert_allclose(
        oracle.one_step(fa_channel, Sigma, np.zeros(4)).Sigma[1], Sigma,
        atol=1e-12)


def test_cov_update_identity_case():
    setup = fa_setup(np.eye(2), np.eye(2))
    out = oracle.one_step(setup, np.eye(2), np.ones(2)).Sigma[1]
    np.testing.assert_allclose(out, 0.5 * np.eye(2), atol=1e-12)


def test_cov_update_monte_carlo(fa_channel, fa_model):
    rng = np.random.default_rng(21)
    N = 50_000
    Sigma = random_pd(rng, 4)
    lam = np.array([0.6, 1.1, 0.3, 0.9])
    step = oracle.one_step(fa_channel, Sigma, lam)
    enc = step.enc[0]
    e = rng.multivariate_normal(np.zeros(4), Sigma, size=N)
    w = rng.multivariate_normal(np.zeros(4), fa_model.W, size=N)
    y = e @ enc.T @ fa_channel.B1.T + w
    gain = step.dec[0]
    e_next = e - y @ gain.T
    emp = e_next.T @ e_next / N
    ana = step.Sigma[1]
    se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana ** 2) / N)
    assert np.all(np.abs(emp - ana) <= 3.5 * se)
    # orthogonality of the estimate and the residual error
    ehat = y @ gain.T
    cross = ehat.T @ e_next / N
    cross_se = np.sqrt(np.outer(np.diag(ehat.T @ ehat / N), np.diag(ana)) / N)
    assert np.all(np.abs(cross) <= 3.5 * cross_se + 1e-12)


def test_cov_update_rejects_indefinite(fa_channel):
    with pytest.raises(SigmaNearSingular, match="step 0 "):
        oracle.one_step(fa_channel, np.diag([1.0, 1.0, 1.0, -0.5]), np.ones(4))


def test_monotone_information_psd(fa_channel):
    rng = np.random.default_rng(31)
    Sigma = random_pd(rng, 4)
    for _ in range(20):
        lam = rng.uniform(0.0, 2.0, 4)
        nxt = oracle.one_step(fa_channel, Sigma, lam).Sigma[1]
        assert min_eig(Sigma - nxt) >= -1e-10
        Sigma = nxt


def test_channel_output_identity(fa_model, fa_gains, fa_channel):
    # reconstruct y two ways along a rollout: definition vs B1 s + w
    rng = np.random.default_rng(64)
    x_star = rng.normal(size=4)
    pol = make_policy(PolicyKind.IM_COMM_FA, fa_model,
                      power=heuristic_schedule(0.88, fa_model.n, 4))
    run = pol.start(x_star)
    ops = pol.step_ops
    x = rng.normal(size=4)
    for t in range(10):
        s = ops.enc[t] @ run.e
        v, q = run.inputs(t, x)
        w = rng.multivariate_normal(np.zeros(4), fa_model.W)
        x_next = fa_model.A @ x + fa_model.B1 @ v + fa_model.B2 @ q + w
        y = oracle.channel_output(x_next, x, fa_gains, t, run.x_hat, fa_model)
        np.testing.assert_allclose(y, fa_model.B1 @ s + w, atol=1e-10)
        # the table's own residual is the same y
        np.testing.assert_allclose(x_next - ops.Abar[t] @ x - ops.BD[t] @ run.x_hat,
                                   y, atol=1e-10)
        run.observe(t, x, x_next)
        x = x_next


def test_channel_output_noise_free_zero(fa_model, fa_gains):
    x = np.array([0.5, -0.2, 0.1, 0.3])
    x_hat = np.zeros(4)
    u = -fa_gains.K[0] @ x + fa_gains.D[0] @ x_hat
    x_next = fa_model.A @ x + fa_model.B @ u  # no noise, no signal
    y = oracle.channel_output(x_next, x, fa_gains, 0, x_hat, fa_model)
    np.testing.assert_allclose(y, 0.0, atol=1e-12)
    # the production rollout decodes nothing from it: zero power, no noise
    zero = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                         Lambda=[np.zeros(4)] * fa_model.n)
    run = make_policy(PolicyKind.IM_COMM_FA, fa_model, power=zero).start(
        np.array([1.0, -2.0, 0.5, 2.0]))
    v, q = run.inputs(0, x)
    np.testing.assert_allclose(np.concatenate([v, q]), u, atol=1e-12)
    run.observe(0, x, x_next)
    np.testing.assert_allclose(run.x_hat, 0.0, atol=1e-12)


# --- under-actuated path --------------------------------------------------------

def test_ua_setup_scalar_case():
    setup = scalar_ua_setup()
    assert setup.P.shape == (1, 2) and setup.Q.shape == (1, 1)
    assert setup.r == 1 and setup.tau == 2
    np.testing.assert_allclose(setup.C, [[1.0]])
    np.testing.assert_allclose(setup.Wv, [[1.0]])
    np.testing.assert_allclose(setup.eig.H, [1.0])
    assert oracle.psi(setup) == pytest.approx(1.0)


def test_ua_setup_preset(ua_model, ua_channel):
    assert ua_channel.r == 2 and ua_channel.tau == 2
    # the channel gain is P B1 Q, diagonal with the singular values
    np.testing.assert_allclose(ua_channel.P @ ua_model.B1 @ ua_channel.Q,
                               ua_channel.C, atol=1e-12)
    assert min_eig(ua_channel.Wv) > 0


def test_ua_setup_rejects_non_integer_period():
    B1 = np.zeros((3, 2))
    B1[0, 0] = 1.0
    B1[1, 1] = 1.0  # rank 2, d0 = 3
    with pytest.raises(NonIntegerPeriod):
        ua_setup(B1, np.eye(3))


def test_encode_ua_hand_case():
    setup = scalar_ua_setup()
    s = oracle.one_step(setup, np.eye(2), np.ones(1), 0).enc[0] @ np.array([3.0, 5.0])
    np.testing.assert_allclose(np.abs(s), [3.0], atol=1e-12)


def test_encode_ua_zero_error(ua_channel):
    enc = oracle.one_step(ua_channel, np.eye(4), np.ones(2), 1).enc[0]
    np.testing.assert_allclose(enc @ np.zeros(4), 0.0)


def test_encode_ua_covariance_monte_carlo(ua_channel):
    rng = np.random.default_rng(77)
    N = 50_000
    Sigma = random_pd(rng, 4)
    lam = np.array([0.8, 1.7])
    k = 1
    # virtual signal: the first r coordinates of Gamma1' s, i.e. Q' s
    enc = ua_channel.Q.T @ oracle.one_step(ua_channel, Sigma, lam, k).enc[0]
    e = rng.multivariate_normal(np.zeros(4), Sigma, size=N)
    s_virt = e @ enc.T
    emp = s_virt.T @ s_virt / N
    S_t = oracle.S_of(ua_channel, lam)
    se = np.sqrt((np.outer(np.diag(S_t), np.diag(S_t)) + S_t ** 2) / N)
    assert np.all(np.abs(emp - S_t) <= 3.5 * se)


def test_decode_ua_hand_case():
    setup = scalar_ua_setup()
    dec = oracle.one_step(setup, np.eye(2), np.ones(1), 0).dec[0]
    lift = setup.P.T  # virtual output 2 as a plant-space y
    e_hat = dec @ (lift @ np.array([2.0]))
    np.testing.assert_allclose(e_hat, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(dec @ np.zeros(2), 0.0, atol=1e-14)


def test_decode_ua_matches_conditional_gaussian(ua_channel, ua_model):
    # brute-force conditional mean from the joint covariance of (e, y~)
    rng = np.random.default_rng(5)
    Sigma = random_pd(rng, 4)
    lam = np.array([1.2, 0.5])
    k = 0
    Pk = oracle.selector(k, ua_channel)
    Psi1 = ua_channel.C
    Henc = Psi1 @ oracle.S_sqrt_of(ua_channel, lam) @ Pk @ oracle.inv_sqrt_psd(Sigma)
    cov_ey = Sigma @ Henc.T
    cov_yy = Henc @ Sigma @ Henc.T + ua_channel.Wv
    gain_bf = cov_ey @ np.linalg.inv(cov_yy)
    dec = oracle.one_step(ua_channel, Sigma, lam, k).dec[0]
    lift = ua_channel.P.T  # virtual output -> plant-space y
    for _ in range(5):
        y = rng.normal(size=2)
        np.testing.assert_allclose(dec @ (lift @ y), gain_bf @ y, atol=1e-9)


def test_cov_update_ua_no_power(ua_channel):
    Sigma = random_pd(np.random.default_rng(3), 4)
    np.testing.assert_allclose(
        oracle.one_step(ua_channel, Sigma, np.zeros(2), 0).Sigma[1], Sigma,
        atol=1e-12)


def test_cov_update_ua_scalar_blocks():
    setup = scalar_ua_setup()
    S1 = oracle.one_step(setup, np.eye(2), np.ones(1), 0).Sigma[1]
    np.testing.assert_allclose(S1, np.diag([0.5, 1.0]), atol=1e-12)
    S2 = oracle.one_step(setup, S1, np.ones(1), 1).Sigma[1]
    np.testing.assert_allclose(S2, np.diag([0.5, 0.5]), atol=1e-12)


def test_cov_update_ua_monte_carlo(ua_channel, ua_model):
    rng = np.random.default_rng(55)
    N = 50_000
    Sigma = random_pd(rng, 4)
    lam = np.array([0.9, 0.6])
    for k in (0, 1):
        Pk = oracle.selector(k, ua_channel)
        Psi1 = ua_channel.C
        enc = oracle.S_sqrt_of(ua_channel, lam) @ Pk @ oracle.inv_sqrt_psd(Sigma)
        e = rng.multivariate_normal(np.zeros(4), Sigma, size=N)
        wt = rng.multivariate_normal(np.zeros(2), ua_channel.Wv, size=N)
        y = e @ enc.T @ Psi1.T + wt
        gain = (psd_sqrt(Sigma) @ Pk.T @ oracle.S_sqrt_of(ua_channel, lam) @ Psi1
                @ np.linalg.inv(Psi1 @ oracle.S_of(ua_channel, lam) @ Psi1
                                + ua_channel.Wv))
        e_next = e - y @ gain.T
        emp = e_next.T @ e_next / N
        ana = oracle.one_step(ua_channel, Sigma, lam, k).Sigma[1]
        se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana ** 2) / N)
        assert np.all(np.abs(emp - ana) <= 3.5 * se)


def test_virtual_channel_identity(ua_model, ua_gains, ua_channel):
    # y~ equals Psi1 s~ + w~ along a rollout
    rng = np.random.default_rng(12)
    x_star = rng.normal(size=4)
    pol = make_policy(PolicyKind.IM_COMM_UA, ua_model,
                      power=heuristic_schedule(0.9, ua_model.n, 2))
    run = pol.start(x_star)
    ops = pol.step_ops
    x = rng.normal(size=4)
    for t in range(8):
        k = t % ua_channel.tau
        lam = 0.9 ** t * np.ones(2)
        Pk = oracle.selector(k, ua_channel)
        s_virt = (oracle.S_sqrt_of(ua_channel, lam) @ Pk
                  @ oracle.inv_sqrt_psd(ops.Sigma[t]) @ run.e)
        v, q = run.inputs(t, x)
        w = rng.multivariate_normal(np.zeros(4), ua_model.W)
        x_next = ua_model.A @ x + ua_model.B1 @ v + ua_model.B2 @ q + w
        y = oracle.channel_output(x_next, x, ua_gains, t, run.x_hat, ua_model)
        y_virt = ua_channel.P @ y
        w_virt = ua_channel.P @ w
        np.testing.assert_allclose(y_virt, ua_channel.C @ s_virt + w_virt,
                                   atol=1e-10)
        run.observe(t, x, x_next)
        x = x_next


def test_period_contraction(ua_channel, ua_model):
    # one full projection cycle strictly shrinks the covariance trace
    rng = np.random.default_rng(8)
    Sigma = random_pd(rng, 4)
    sigma_floor = 0.1
    psi = oracle.psi(ua_channel)
    ratio = (1 + sigma_floor * psi) / (1 + 2 * sigma_floor * psi)
    for _ in range(3):
        start = np.trace(Sigma)
        for k in range(ua_channel.tau):
            lam = rng.uniform(sigma_floor, 1.0, 2)
            Sigma = oracle.one_step(ua_channel, Sigma, lam, k).Sigma[1]
        assert np.trace(Sigma) <= ratio * start + 1e-12


def test_noise_gains_shapes(fa_channel, ua_channel):
    # the decoder is the noise map of the error recursion, e' = E e - dec w:
    # the oracle's UA gain acts on the r-dim virtual noise, the decoder on
    # the full plant noise through the virtual output map
    Sigma = np.eye(4)
    fa_gain = oracle.noise_gain_fa(Sigma, np.ones(4), fa_channel)
    ua_gain = oracle.noise_gain_ua(Sigma, np.ones(2), 0, ua_channel)
    assert fa_gain.shape == (4, 4)
    assert ua_gain.shape == (4, 2)
    N_fa = oracle.one_step(fa_channel, Sigma, np.ones(4)).dec[0]
    N_ua = oracle.one_step(ua_channel, Sigma, np.ones(2), 0).dec[0]
    assert N_fa.shape == N_ua.shape == (4, 4)
    np.testing.assert_allclose(N_fa, fa_gain, atol=1e-12)
    np.testing.assert_allclose(N_ua, ua_gain @ oracle.virtual_out(ua_channel),
                               atol=1e-12)


# --- the two halves of the channel map -------------------------------------------

def test_stacked_power_half_gives_the_one_step_maps(ua_channel, ua_model):
    # a schedule's power half built at once, then the Sigma pass along it,
    # gives the maps of one-step schedules started at each Sigma_t
    rng = np.random.default_rng(11)
    Lambda = rng.uniform(0.1, 2.0, (5, 2))
    blocks = [1, 0, 0, 1, 1]
    stacked = sigma_steps(power_factors(ua_channel, Lambda, blocks),
                          ua_model.Sigma0, ua_channel.W)
    assert stacked.Sigma.shape == (len(blocks) + 1, 4, 4)
    for t, k in enumerate(blocks):
        single = oracle.one_step(ua_channel, stacked.Sigma[t], Lambda[t], k)
        for name in ("enc", "dec", "E", "Sig12", "Sig12inv"):
            np.testing.assert_allclose(getattr(stacked, name)[t],
                                       getattr(single, name)[0],
                                       rtol=1e-14, atol=1e-15, err_msg=name)
        np.testing.assert_allclose(stacked.Sigma[t + 1], single.Sigma[1],
                                   rtol=1e-14, atol=1e-15)


def test_sigma0_is_symmetrised_once(ua_channel):
    # Sigma_0 is checked and symmetrised before the loop; an antisymmetric
    # part of 1e-14 relative leaves every stack unchanged, bit for bit (the
    # dyadic entries make sym_part of the perturbed matrix exactly Sigma0)
    Sigma0 = np.array([[5.0, 1.0, 0.0, 0.5], [1.0, 4.0, 1.0, 0.0],
                       [0.0, 1.0, 3.0, -1.0], [0.5, 0.0, -1.0, 6.0]])
    skew = np.triu(np.ones((4, 4)), 1)
    skew -= skew.T
    power = power_factors(ua_channel, np.full((6, 2), 0.7), [0, 1] * 3)
    perturbed = Sigma0 + 2.0 ** -44 * skew    # 2**-44 / 6 ~ 1e-14 relative
    assert not np.array_equal(perturbed, perturbed.T)
    assert np.array_equal(0.5 * (perturbed + perturbed.T), Sigma0)
    ref, out = (sigma_steps(power, S, ua_channel.W) for S in (Sigma0, perturbed))
    for f in dataclasses.fields(ref):
        assert np.array_equal(getattr(out, f.name), getattr(ref, f.name)), f.name
    with pytest.raises(NotSymmetric, match="Sigma0"):
        sigma_steps(power, Sigma0 + 10 * SYM_TOL * 6.0 * skew, ua_channel.W)


@pytest.mark.parametrize("which", ["fa", "ua"])
def test_sigma_pass_eigenpairs_are_eigh_desc(fa_model, ua_model, fa_channel,
                                             ua_channel, which):
    # every Sigma_t is exactly symmetric, so the loop's direct eigh gives
    # eigh_desc's (symmetrising) eigenpair bit for bit; the theta = 0.88
    # heuristic drives Sigma_t to cond ~1e18 on the fully actuated preset
    model, setup = (fa_model, fa_channel) if which == "fa" else (ua_model, ua_channel)
    Lambda = heuristic_schedule(0.88, model.n, setup.r).Lambda
    blocks = [t % setup.tau for t in range(model.n)]
    sigma = sigma_steps(power_factors(setup, Lambda, blocks), model.Sigma0, model.W)
    assert np.array_equal(sigma.Sigma, sigma.Sigma.swapaxes(1, 2))
    for t in range(model.n):
        w, U = oracle.eigh_desc(sigma.Sigma[t])
        assert np.array_equal(sigma.U[t], U)
        assert np.array_equal(sigma.H[t], np.clip(w, 0.0, None))


@pytest.mark.parametrize("which, k", [("fa", 0), ("ua", 0), ("ua", 1)])
def test_channel_step_adjoint_matches_central_differences(fa_channel, ua_channel,
                                                          which, k):
    # the gradients of <enc_bar, enc> + <dec_bar, dec> + <E_bar, E> with
    # respect to Lambda_t and Sigma_t
    setup = fa_channel if which == "fa" else ua_channel
    rng = np.random.default_rng(12)
    lam = rng.uniform(0.2, 2.0, setup.r)
    Sigma = random_pd(rng, 4)
    enc_bar = rng.standard_normal((setup.d1, 4))
    dec_bar, E_bar = rng.standard_normal((2, 4, 4))

    def f(S, lam):
        step = oracle.one_step(setup, S, lam, k)
        return (np.sum(enc_bar * step.enc[0]) + np.sum(dec_bar * step.dec[0])
                + np.sum(E_bar * step.E[0]))

    lam_bar, Sigma_bar = oracle.one_step_adjoint(setup, Sigma, lam, k, enc_bar,
                                                 dec_bar, E_bar)
    h = 1e-6
    for j in range(setup.r):
        up, down = lam.copy(), lam.copy()
        up[j] += h
        down[j] -= h
        fd = (f(Sigma, up) - f(Sigma, down)) / (2 * h)
        assert lam_bar[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)
    dS = random_pd(rng, 4)
    fd = (f(Sigma + h * dS, lam) - f(Sigma - h * dS, lam)) / (2 * h)
    np.testing.assert_allclose(Sigma_bar, Sigma_bar.T, atol=0)
    assert np.sum(Sigma_bar * dS) == pytest.approx(fd, rel=1e-6)


def test_sigma_trace_growth_names_the_step(ua_channel, ua_model):
    # V <= I makes Tr Sigma_t non-increasing; a hand-built power half whose
    # contraction at step 2 is 1.5 I breaks that, and the loop says where
    power = power_factors(ua_channel, np.full((4, 2), 0.7), [0, 1, 0, 1])
    V = power.V.copy()
    V[2] = 1.5 * np.eye(4)
    grown = dataclasses.replace(power, V=V)
    with pytest.raises(SigmaTraceGrowth, match="at step 2"):
        sigma_steps(grown, ua_model.Sigma0, ua_channel.W)
    sigma_steps(power, ua_model.Sigma0, ua_channel.W)
