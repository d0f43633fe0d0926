import numpy as np
import pytest

from channel_oracle import S_sqrt_of
from conftest import random_pd, random_system

import lqcoord as lq
from lqcoord.channel import fa_setup
from lqcoord.gains import backward_riccati
from lqcoord.linalg import min_eig, psd_sqrt
from pmp_oracle import (ZeroLambdaEntry, costate_Z, grad_lambda_fa,
                        hamiltonian_fa, hamiltonian_fa_expanded,
                        offset_feedback_seq, surrogate_z_step, stage_cost_fa,
                        theta_sigma_step)


def sym(rng, d):
    R = rng.standard_normal((d, d))
    return 0.5 * (R + R.T)


def random_config(seed, n=6):
    rng = np.random.default_rng(seed)
    d0 = int(rng.integers(2, 5))
    d1 = d0 + int(rng.integers(0, 2))
    d2 = int(rng.integers(1, 3))
    model = random_system(rng, d0, d1, d2, n)
    setup = fa_setup(model.B1, model.W)
    gains = backward_riccati(model)
    L = offset_feedback_seq(gains, model)
    thZ = costate_Z(gains, model)
    t = int(rng.integers(0, n))
    cfg = dict(model=model, setup=setup, gains=gains, L=L, thZ=thZ, t=t,
               Z=random_pd(rng, d0), Sigma=random_pd(rng, d0),
               lam=rng.uniform(0.1, 2.0, d0), thS=sym(rng, d0), rng=rng)
    return cfg


def H(cfg, Z=None, Sigma=None, lam=None):
    return hamiltonian_fa(cfg["Z"] if Z is None else Z,
                          cfg["Sigma"] if Sigma is None else Sigma,
                          cfg["lam"] if lam is None else lam,
                          cfg["thZ"][cfg["t"] + 1], cfg["thS"], cfg["gains"],
                          cfg["setup"], cfg["model"], cfg["t"], cfg["L"])


# --- costates -----------------------------------------------------------------

def test_costate_Z_zero_costs():
    # zero costs propagate to zero costates whatever the feedback gains are
    m = lq.SystemModel(A=[[1.0, 0.2], [0.0, 0.9]], B1=[[1.0], [0.0]],
                       B2=[[0.0], [1.0]], W=np.eye(2), F=np.eye(2),
                       Fn=np.eye(2), G1=[[1.0]], G2=[[1.0]],
                       Sigma0=np.eye(2), X0=np.eye(2), n=3)
    gains = backward_riccati(m)
    zero_cost = lq.SystemModel(m.A, m.B1, m.B2, m.W, 0.0 * m.F, 0.0 * m.Fn,
                               0.0 * m.G1, 0.0 * m.G2, m.Sigma0, m.X0, m.n)
    for th in costate_Z(gains, zero_cost):
        np.testing.assert_allclose(th, 0.0, atol=1e-14)


def test_costate_Z_single_step_unrolls(fa_model):
    m = lq.fully_actuated_model(n=1)
    gains = backward_riccati(m)
    th = costate_Z(gains, m)
    Abar = m.A - m.B @ gains.K[0]
    expected = m.F + gains.K[0].T @ m.G @ gains.K[0] + Abar.T @ m.Fn @ Abar
    np.testing.assert_allclose(th[0], expected, atol=1e-12)
    np.testing.assert_allclose(th[1], m.Fn)


def test_costate_Z_psd_across_horizon(fa_model, fa_gains):
    for th in costate_Z(fa_gains, fa_model):
        assert min_eig(th) >= -1e-10


@pytest.mark.parametrize("seed", range(6))
def test_costate_Z_is_the_riccati_Phi(seed):
    # theta_Z is the value recursion in Joseph form, so the gains' Phi_t
    cfg = random_config(seed, n=12)
    for t, (th, Phi) in enumerate(zip(cfg["thZ"], cfg["gains"].Phi)):
        err = np.abs(th - Phi).max()
        assert err <= 1e-13 * np.abs(Phi).max(), f"t={t}: {err:.3e}"


# --- Hamiltonian forms ----------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_hamiltonian_expanded_equals_composed(seed):
    cfg = random_config(seed)
    h1 = H(cfg)
    h2 = hamiltonian_fa_expanded(cfg["Z"], cfg["Sigma"], cfg["lam"],
                                 cfg["thZ"][cfg["t"] + 1], cfg["thS"],
                                 cfg["gains"], cfg["setup"], cfg["model"],
                                 cfg["t"], cfg["L"])
    assert abs(h1 - h2) <= 1e-10 * max(1.0, abs(h1))


def test_stage_cost_surviving_terms_at_zero_power():
    # lam = 0 and Sigma -> 0 leave only the state-error and feedback terms
    cfg = random_config(101)
    d0 = cfg["model"].d0
    l = stage_cost_fa(cfg["Z"], 1e-18 * np.eye(d0), np.zeros(d0),
                      cfg["gains"], cfg["setup"], cfg["model"], cfg["t"],
                      cfg["L"])
    K = cfg["gains"].K[cfg["t"]]
    expect = np.trace((cfg["model"].F + K.T @ cfg["model"].G @ K) @ cfg["Z"])
    assert l == pytest.approx(expect, rel=1e-9)


def test_hamiltonian_surviving_terms_at_zero_power():
    cfg = random_config(102)
    d0 = cfg["model"].d0
    m, t = cfg["model"], cfg["t"]
    thZ = cfg["thZ"][t + 1]
    h = hamiltonian_fa(cfg["Z"], 1e-18 * np.eye(d0), np.zeros(d0), thZ,
                       cfg["thS"], cfg["gains"], cfg["setup"], m, t, cfg["L"])
    K = cfg["gains"].K[t]
    Abar = m.A - m.B @ K
    expect = (np.trace((m.F + K.T @ m.G @ K) @ cfg["Z"])
              + np.trace(Abar @ cfg["Z"] @ Abar.T @ thZ)
              + np.trace(m.W @ thZ))
    assert h == pytest.approx(expect, rel=1e-9)


def test_hamiltonian_zero_costates_is_stage_cost():
    cfg = random_config(100)
    d0 = cfg["model"].d0
    h = hamiltonian_fa(cfg["Z"], cfg["Sigma"], cfg["lam"], np.zeros((d0, d0)),
                       np.zeros((d0, d0)), cfg["gains"], cfg["setup"],
                       cfg["model"], cfg["t"], cfg["L"])
    l = stage_cost_fa(cfg["Z"], cfg["Sigma"], cfg["lam"], cfg["gains"],
                      cfg["setup"], cfg["model"], cfg["t"], cfg["L"])
    assert h == pytest.approx(l, rel=1e-12)


# --- gradient checks (the executable derivative identities) ---------------------

@pytest.mark.parametrize("seed", range(8))
def test_grad_lambda_matches_finite_differences(seed):
    cfg = random_config(seed + 300)
    g = grad_lambda_fa(cfg["Sigma"], cfg["lam"], cfg["thZ"][cfg["t"] + 1],
                       cfg["thS"], cfg["gains"], cfg["setup"], cfg["model"],
                       cfg["t"], cfg["L"])
    d0 = cfg["model"].d0
    fd = np.empty(d0)
    for j in range(d0):
        h = 1e-6 * max(cfg["lam"][j], 1.0)
        lp, lm = cfg["lam"].copy(), cfg["lam"].copy()
        lp[j] += h
        lm[j] -= h
        fd[j] = (H(cfg, lam=lp) - H(cfg, lam=lm)) / (2 * h)
    assert np.abs(g - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5


@pytest.mark.parametrize("seed", range(6))
def test_theta_sigma_matches_finite_differences(seed):
    cfg = random_config(seed + 600)
    d0 = cfg["model"].d0
    thSig, parts = theta_sigma_step(cfg["Sigma"], cfg["lam"], cfg["thS"],
                                    cfg["thZ"][cfg["t"] + 1], cfg["gains"],
                                    cfg["setup"], cfg["model"], cfg["t"],
                                    cfg["L"])
    # Sylvester residuals of the three pieces
    Sig12 = psd_sqrt(cfg["Sigma"])
    for Theta in (parts.Theta1, parts.Theta2, parts.Theta3):
        assert np.all(np.isfinite(Theta))
    h = 1e-5
    fd = np.zeros((d0, d0))
    for i in range(d0):
        for j in range(i, d0):
            E = np.zeros((d0, d0))
            E[i, j] = E[j, i] = 1.0
            diff = (H(cfg, Sigma=cfg["Sigma"] + h * E)
                    - H(cfg, Sigma=cfg["Sigma"] - h * E)) / (2 * h)
            fd[i, j] = fd[j, i] = diff / (2.0 if i != j else 1.0)
    assert np.abs(thSig - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5


def test_theta_sigma_identity_sigma_halves_rhs():
    cfg = random_config(900)
    d0 = cfg["model"].d0
    I = np.eye(d0)
    _, parts = theta_sigma_step(I, cfg["lam"], cfg["thS"],
                                cfg["thZ"][cfg["t"] + 1], cfg["gains"],
                                cfg["setup"], cfg["model"], cfg["t"], cfg["L"])
    # with Sigma = I each Sylvester solve is RHS/2; check one explicitly
    S12 = S_sqrt_of(cfg["setup"], cfg["lam"])
    X2 = (cfg["L"][cfg["t"] + 1].T @ cfg["thZ"][cfg["t"] + 1]
          @ cfg["setup"].Q1 @ S12)
    np.testing.assert_allclose(parts.Theta2, 0.25 * (X2 + X2.T), atol=1e-10)


def test_theta_sigma_zero_inputs_zero_sylvester():
    cfg = random_config(901)
    d0 = cfg["model"].d0
    m = cfg["model"]
    zeroG = lq.SystemModel(m.A, m.B1, m.B2, m.W, m.F, m.Fn,
                           0.0 * m.G1, 0.0 * m.G2, m.Sigma0, m.X0, m.n)
    gains = cfg["gains"]
    _, parts = theta_sigma_step(cfg["Sigma"], cfg["lam"], np.zeros((d0, d0)),
                                np.zeros((d0, d0)), gains, cfg["setup"],
                                zeroG, cfg["t"], cfg["L"])
    np.testing.assert_allclose(parts.Theta1, 0.0, atol=1e-12)
    np.testing.assert_allclose(parts.Theta2, 0.0, atol=1e-12)
    np.testing.assert_allclose(parts.Theta3, 0.0, atol=1e-12)


def test_grad_lambda_requires_positive_power():
    cfg = random_config(902)
    lam = cfg["lam"].copy()
    lam[0] = 0.0
    with pytest.raises(ZeroLambdaEntry):
        grad_lambda_fa(cfg["Sigma"], lam, cfg["thZ"][cfg["t"] + 1], cfg["thS"],
                       cfg["gains"], cfg["setup"], cfg["model"], cfg["t"],
                       cfg["L"])


def test_grad_lambda_m3_isolation():
    # vanishing Sigma kills M1 and M2; the gradient is the diagonal of M3
    cfg = random_config(903)
    d0 = cfg["model"].d0
    tiny = 1e-18 * np.eye(d0)
    g = grad_lambda_fa(tiny, cfg["lam"], cfg["thZ"][cfg["t"] + 1], cfg["thS"],
                       cfg["gains"], cfg["setup"], cfg["model"], cfg["t"],
                       cfg["L"])
    setup, model = cfg["setup"], cfg["model"]
    thZ = cfg["thZ"][cfg["t"] + 1]
    M3 = setup.eig.U.T @ (setup.Q1.T @ thZ @ setup.Q1
                          + setup.Q.T @ model.G1 @ setup.Q) @ setup.eig.U
    np.testing.assert_allclose(g, np.diag(M3), atol=1e-7)


def test_grad_lambda_sign_with_large_sigma_costate():
    # a large PSD Sigma-costate makes extra power reduce the Hamiltonian
    cfg = random_config(904)
    d0 = cfg["model"].d0
    thS_big = 1e6 * np.eye(d0)
    g = grad_lambda_fa(cfg["Sigma"], cfg["lam"], np.zeros((d0, d0)), thS_big,
                       cfg["gains"], cfg["setup"], cfg["model"], cfg["t"],
                       cfg["L"])
    m = cfg["model"]
    zero_gain_model = lq.SystemModel(m.A, m.B1, m.B2, m.W, m.F, m.Fn,
                                     0.0 * m.G1, 0.0 * m.G2, m.Sigma0, m.X0,
                                     m.n)
    g = grad_lambda_fa(cfg["Sigma"], cfg["lam"], np.zeros((d0, d0)), thS_big,
                       cfg["gains"], cfg["setup"], zero_gain_model, cfg["t"],
                       cfg["L"])
    assert np.all(g < 0)


def test_surrogate_z_step_stays_symmetric():
    cfg = random_config(905)
    Z1 = surrogate_z_step(cfg["Z"], cfg["Sigma"], cfg["lam"], cfg["gains"],
                      cfg["setup"], cfg["model"], cfg["t"], cfg["L"])
    np.testing.assert_allclose(Z1, Z1.T, atol=1e-12)
