"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Sample sizes, tolerances, and runtime budgets are fixed here, not tuned at
run time. Monte Carlo checks use frozen seeds, so results are exactly
reproducible.
"""

import time
import warnings

import numpy as np
import pytest

from channel_oracle import inv_sqrt_psd, selector
from conftest import random_pd, random_system
from pmp_oracle import (grad_lambda_fa, hamiltonian_fa, surrogate_cost,
                        theta_sigma_step)

import lqcoord as lq
from lqcoord.channel import channel_step, fa_setup, ua_setup
from lqcoord.errors import BudgetExhaustedWarning
from lqcoord.gains import backward_riccati
from lqcoord.linalg import min_eig, psd_sqrt
from lqcoord.policies import PolicyKind, make_policy
from lqcoord.power import heuristic_schedule, ua_optimize
from lqcoord.power.analytic import trajectory
from lqcoord.power.scalar import (costate_Z, offset_feedback_seq,
                                  solve_scalar_power)
from lqcoord.simulate import monte_carlo


def report(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over {budget}s"


@pytest.fixture(scope="module")
def fa():
    model = lq.fully_actuated_model(n=30)
    return model, backward_riccati(model), fa_setup(model.B1, model.W)


@pytest.fixture(scope="module")
def ua():
    model = lq.under_actuated_model(n=30)
    return model, backward_riccati(model), ua_setup(model.B1, model.W)


@pytest.fixture(scope="module")
def fa_opt_schedule(fa):
    model, gains, setup = fa
    return solve_scalar_power(gains, setup, model, epsilon=1e-3)


@pytest.fixture(scope="module")
def ua_opt_schedule(ua):
    model, gains, setup = ua
    init = heuristic_schedule(0.88, model.n, setup.r)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BudgetExhaustedWarning)
        return ua_optimize(init, gains, setup, model, budget=5000)


def _cov_within_3se(emp: np.ndarray, ana: np.ndarray, N: int) -> tuple[bool, float]:
    se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana ** 2) / N)
    ratio = np.abs(emp - ana) / np.where(se > 0, se, 1.0)
    return bool(np.all(ratio <= 3.0)), float(ratio.max())


def test_c01_error_covariance_oracle_fully_actuated(fa):
    t0 = time.perf_counter()
    model, gains, setup = fa
    rng = np.random.default_rng(1001)
    N = 50_000
    worst = 0.0
    Sigma = model.Sigma0.copy()
    sched = heuristic_schedule(0.88, model.n, 4)
    for t in range(9):
        lam = sched.Lambda[t]
        if t in (0, 3, 8):
            enc = setup.Q @ setup.S_sqrt_of(lam) @ inv_sqrt_psd(Sigma)
            e = rng.multivariate_normal(np.zeros(4), Sigma, size=N)
            w = rng.multivariate_normal(np.zeros(4), model.W, size=N)
            y = e @ enc.T @ setup.B1.T + w
            gain = (psd_sqrt(Sigma) @ setup.S_sqrt_of(lam) @ setup.Q1.T
                    @ np.linalg.inv(setup.Q1 @ setup.S_of(lam) @ setup.Q1.T
                                    + model.W))
            e_next = e - y @ gain.T
            emp = e_next.T @ e_next / N
            ana = channel_step(setup, Sigma, lam).Sigma_next
            ok, ratio = _cov_within_3se(emp, ana, N)
            worst = max(worst, ratio)
            if not ok:
                break
        Sigma = channel_step(setup, Sigma, lam).Sigma_next
    report("C1 error-covariance oracle (fully actuated)", worst <= 3.0,
           f"50k-sample covariance within 3 SE at t in {{0,3,8}} "
           f"(worst {worst:.2f} SE)", time.perf_counter() - t0, 60)


def test_c02_error_covariance_oracle_under_actuated(ua):
    t0 = time.perf_counter()
    model, gains, setup = ua
    rng = np.random.default_rng(1002)
    N = 50_000
    worst = 0.0
    Sigma = model.Sigma0.copy()
    sched = heuristic_schedule(0.88, model.n, setup.r)
    Psi1 = setup.C
    for t, k in [(0, 0), (1, 1)]:
        lam = sched.Lambda[t]
        Pk = selector(k, setup)
        enc = setup.S_sqrt_of(lam) @ Pk @ inv_sqrt_psd(Sigma)
        e = rng.multivariate_normal(np.zeros(4), Sigma, size=N)
        wt = rng.multivariate_normal(np.zeros(setup.r), setup.Wv, size=N)
        y = e @ enc.T @ Psi1.T + wt
        gain = (psd_sqrt(Sigma) @ Pk.T @ setup.S_sqrt_of(lam) @ Psi1
                @ np.linalg.inv(Psi1 @ setup.S_of(lam) @ Psi1 + setup.Wv))
        e_next = e - y @ gain.T
        emp = e_next.T @ e_next / N
        ana = channel_step(setup, Sigma, lam, k).Sigma_next
        ok, ratio = _cov_within_3se(emp, ana, N)
        worst = max(worst, ratio)
        Sigma = ana
    report("C2 error-covariance oracle (under-actuated)", worst <= 3.0,
           f"50k-sample covariance within 3 SE for k in {{0,1}} "
           f"(worst {worst:.2f} SE)", time.perf_counter() - t0, 60)


def test_c03_monotone_contraction_suite_fully_actuated():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    sigma_floor = 0.1
    violations = 0
    for _ in range(100):
        d0 = int(rng.integers(1, 6))
        d1 = d0 + int(rng.integers(0, 3))
        B1 = rng.standard_normal((d0, d1))
        while np.linalg.matrix_rank(B1) < d0:
            B1 = rng.standard_normal((d0, d1))
        setup = fa_setup(B1, random_pd(rng, d0))
        Sigma0 = random_pd(rng, d0)
        Sigma = Sigma0.copy()
        psi = setup.psi
        for t in range(20):
            lam = rng.uniform(sigma_floor, 1.5, d0)
            nxt = channel_step(setup, Sigma, lam).Sigma_next
            if min_eig(Sigma - nxt) < -1e-10:
                violations += 1
            if np.trace(nxt) > np.trace(Sigma0) / (1 + sigma_floor * psi) ** (t + 1) + 1e-12:
                violations += 1
            Sigma = nxt
    report("C3 monotone contraction suite (fully actuated)", violations == 0,
           f"100 random instances x 20 steps: PSD decrease and trace decay "
           f"bound hold ({violations} violations)", time.perf_counter() - t0, 30)


def test_c04_period_contraction_suite_under_actuated():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    sigma_floor = 0.1
    pairs = [(2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (6, 1), (6, 2), (6, 3)]
    violations = 0
    for _ in range(50):
        d0, r = pairs[int(rng.integers(0, len(pairs)))]
        d1 = r + int(rng.integers(0, 3))
        B1 = rng.standard_normal((d0, r)) @ rng.standard_normal((r, d1))
        setup = ua_setup(B1, random_pd(rng, d0))
        Sigma = random_pd(rng, d0)
        ratio = (1 + sigma_floor * setup.psi) / (1 + 2 * sigma_floor * setup.psi)
        for _ in range(4):  # four full projection cycles
            start = np.trace(Sigma)
            for k in range(setup.tau):
                lam = rng.uniform(sigma_floor, 1.5, r)
                Sigma = channel_step(setup, Sigma, lam, k).Sigma_next
            if np.trace(Sigma) > ratio * start + 1e-12:
                violations += 1
    report("C4 period contraction suite (under-actuated)", violations == 0,
           f"50 random instances x 4 cycles: per-period trace ratio bound "
           f"holds ({violations} violations)", time.perf_counter() - t0, 30)


def test_c05_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    worst_lam = worst_sig = worst_syl = 0.0
    for cfg_i in range(50):
        d0 = int(rng.integers(2, 5))
        d1 = d0 + int(rng.integers(0, 2))
        d2 = int(rng.integers(1, 3))
        model = random_system(rng, d0, d1, d2, 5)
        setup = fa_setup(model.B1, model.W)
        gains = backward_riccati(model)
        L = offset_feedback_seq(gains, model)
        thZ_seq = costate_Z(gains, model)
        t = int(rng.integers(0, model.n))
        Z = random_pd(rng, d0)
        Sigma = random_pd(rng, d0)
        lam = rng.uniform(0.1, 2.0, d0)
        Rm = rng.standard_normal((d0, d0))
        thS = 0.5 * (Rm + Rm.T)
        thZ = thZ_seq[t + 1]

        def H(Sig=Sigma, lm=lam):
            return hamiltonian_fa(Z, Sig, lm, thZ, thS, gains, setup, model,
                                  t, L)

        g = grad_lambda_fa(Sigma, lam, thZ, thS, gains, setup, model, t, L)
        fd = np.empty(d0)
        for j in range(d0):
            h = 1e-6 * max(lam[j], 1.0)
            lp, lm_ = lam.copy(), lam.copy()
            lp[j] += h
            lm_[j] -= h
            fd[j] = (H(lm=lp) - H(lm=lm_)) / (2 * h)
        worst_lam = max(worst_lam,
                        np.abs(g - fd).max() / max(1.0, np.abs(fd).max()))

        thSig, parts = theta_sigma_step(Sigma, lam, thS, thZ, gains, setup,
                                        model, t, L)
        Sig12 = psd_sqrt(Sigma)
        V = setup.eig.U @ np.diag(1 / (1 + lam * setup.eig.H)) @ setup.eig.U.T
        S12 = setup.S_sqrt_of(lam)
        rhs = [thS @ Sig12 @ V + V @ Sig12 @ thS,
               0.5 * ((X := L[t + 1].T @ thZ @ setup.Q1 @ S12) + X.T),
               0.5 * ((Y := (gains.D[t] + gains.K[t] @ L[t]).T @ model.G
                       @ model.leader_embed @ setup.Q @ S12) + Y.T)]
        for Theta, R in zip((parts.Theta1, parts.Theta2, parts.Theta3), rhs):
            resid = np.linalg.norm(Sig12 @ Theta + Theta @ Sig12 - R, "fro")
            worst_syl = max(worst_syl,
                            resid / max(np.linalg.norm(R, "fro"), 1e-12))
        fd_sig = np.zeros((d0, d0))
        h = 1e-5
        for i in range(d0):
            for j in range(i, d0):
                E = np.zeros((d0, d0))
                E[i, j] = E[j, i] = 1.0
                diff = (H(Sig=Sigma + h * E) - H(Sig=Sigma - h * E)) / (2 * h)
                fd_sig[i, j] = fd_sig[j, i] = diff / (2.0 if i != j else 1.0)
        worst_sig = max(worst_sig,
                        np.abs(thSig - fd_sig).max() / max(1.0, np.abs(fd_sig).max()))
    ok = worst_lam < 1e-5 and worst_sig < 1e-5 and worst_syl < 1e-10
    report("C5 gradient checks", ok,
           f"50 random configs: dH/dLambda {worst_lam:.1e}, dH/dSigma "
           f"{worst_sig:.1e} (tol 1e-5); Sylvester residual {worst_syl:.1e} "
           f"(tol 1e-10)", time.perf_counter() - t0, 30)


def test_c06_scalar_power_solver(fa, fa_opt_schedule):
    t0 = time.perf_counter()
    model, gains, setup = fa
    sched = fa_opt_schedule
    resid = float(np.abs(sched.stationarity_residuals).max())
    Sigma = model.Sigma0.copy()
    worst_sigma = 0.0
    for t in range(model.n):
        worst_sigma = max(worst_sigma,
                          np.abs(Sigma - sched.b[t] * model.Sigma0).max())
        Sigma = channel_step(setup, Sigma, sched.Lambda[t]).Sigma_next
    worst_sigma = max(worst_sigma,
                      np.abs(Sigma - sched.b[model.n] * model.Sigma0).max())
    heu = heuristic_schedule(0.88, model.n, 4)
    c_opt = surrogate_cost(sched, model, setup, gains)
    c_heu = surrogate_cost(heu, model, setup, gains)
    ok = resid < 1e-8 and worst_sigma < 1e-10 and c_opt <= c_heu
    report("C6 scalar power solver", ok,
           f"residual {resid:.1e} (tol 1e-8); |Sigma_t - b_t Sigma0| "
           f"{worst_sigma:.1e} (tol 1e-10); cost {c_opt:.1f} <= heuristic "
           f"{c_heu:.1f}", time.perf_counter() - t0, 10)


def test_c07_analytic_empirical_cost_agreement(fa, ua, fa_opt_schedule):
    # every policy's exact cost is the engine's pass over the table its
    # rollouts run: the three signaling schedules and the baselines
    t0 = time.perf_counter()
    runs = 20_000
    fa_model, ua_model = fa[0], ua[0]
    cases = [
        ("fa-heuristic", fa_model, make_policy(
            PolicyKind.IM_COMM_FA, fa_model,
            power=heuristic_schedule(0.88, fa_model.n, 4))),
        ("fa-optimized", fa_model, make_policy(PolicyKind.IM_COMM_FA, fa_model,
                                               power=fa_opt_schedule)),
        ("ua-heuristic", ua_model, make_policy(
            PolicyKind.IM_COMM_UA, ua_model,
            power=heuristic_schedule(0.88, ua_model.n, 2))),
        ("fa-ex-comm", fa_model, make_policy(PolicyKind.EX_COMM, fa_model)),
        ("fa-leader-only", fa_model, make_policy(PolicyKind.LEADER_ONLY, fa_model)),
        ("ua-ex-comm", ua_model, make_policy(PolicyKind.EX_COMM, ua_model)),
        ("ua-no-comm", ua_model, make_policy(PolicyKind.NO_COMM, ua_model)),
    ]
    details, ok = [], True
    for name, model, pol in cases:
        ana = trajectory(pol.step_ops, model).costs.sum()
        rep = monte_carlo(pol, model, None, runs, 1007)
        rel = abs(rep.mean_total_cost - ana) / ana
        z = (rep.mean_total_cost - ana) / (rep.std_total_cost / np.sqrt(runs))
        ok = ok and rel < 0.02
        details.append(f"{name} {rel:.2%} |z| {abs(z):.2f}")
    report("C7 analytic/empirical cost agreement", ok,
           f"20k-run Monte Carlo vs exact expected cost within 2%: "
           + ", ".join(details), time.perf_counter() - t0, 300)


def test_c08_cost_ordering_fully_actuated(fa, fa_opt_schedule):
    t0 = time.perf_counter()
    model, gains, setup = fa
    x_star = np.array([-1.0, 2.0, 2.0, -2.0])
    runs, seed = 50, 1008
    ex = monte_carlo(make_policy(PolicyKind.EX_COMM, model), model, x_star,
                     runs, seed)
    lead = monte_carlo(make_policy(PolicyKind.LEADER_ONLY, model), model,
                       x_star, runs, seed)
    heu = monte_carlo(make_policy(PolicyKind.IM_COMM_FA, model), model,
                      x_star, runs, seed)
    opt = monte_carlo(make_policy(PolicyKind.IM_COMM_FA, model,
                                  power=fa_opt_schedule), model, x_star,
                      runs, seed)
    se_heu = heu.std_total_cost / np.sqrt(runs)
    ok = (ex.mean_total_cost <= opt.mean_total_cost
          <= heu.mean_total_cost + 2 * se_heu
          and lead.mean_total_cost >= 1.8 * ex.mean_total_cost)
    report("C8 cost ordering (fully actuated, setting A)", ok,
           f"J: shared-target {ex.mean_total_cost:.0f} <= optimized-power "
           f"{opt.mean_total_cost:.0f} <= heuristic {heu.mean_total_cost:.0f}"
           f"+2SE; leader-only/shared = "
           f"{lead.mean_total_cost / ex.mean_total_cost:.2f} >= 1.8",
           time.perf_counter() - t0, 60)


def test_c09_cost_ordering_under_actuated(ua, ua_opt_schedule):
    t0 = time.perf_counter()
    model, gains, setup = ua
    x_star = np.array([2.0, -2.0, 3.0, 2.0])
    runs, seed = 50, 1009
    nocomm = monte_carlo(make_policy(PolicyKind.NO_COMM, model), model,
                         x_star, runs, seed)
    num = monte_carlo(make_policy(PolicyKind.IM_COMM_UA, model,
                                  power=ua_opt_schedule), model, x_star,
                      runs, seed)
    cost_ratio = nocomm.mean_total_cost / num.mean_total_cost
    z_ratio = nocomm.mean_z_norms[-1] / num.mean_z_norms[-1]
    ok = cost_ratio >= 1.5 and z_ratio >= 2.0
    report("C9 cost ordering (under-actuated, setting C)", ok,
           f"no-channel/coordinated cost ratio {cost_ratio:.2f} >= 1.5; "
           f"final-error ratio {z_ratio:.2f} >= 2",
           time.perf_counter() - t0, 120)


def test_c10_tracking_lqr_oracle():
    t0 = time.perf_counter()
    from test_gains import brute_force_cost, gains_cost

    rng = np.random.default_rng(1010)
    worst = 0.0
    for dims in [(1, 1, 1, 1), (1, 1, 1, 3), (2, 1, 1, 2), (2, 2, 1, 3)]:
        d0, d1, d2, n = dims
        model = random_system(rng, d0, d1, d2, n)
        x_star = rng.uniform(-2.0, 2.0, d0)
        gains = backward_riccati(model)
        J_gain = gains_cost(model, gains, x_star)
        J_bf = brute_force_cost(model, x_star)
        worst = max(worst, abs(J_bf - J_gain) / abs(J_gain))
    report("C10 tracking-LQR oracle", worst < 1e-6,
           f"brute-force affine-policy optimum matches the gain schedule "
           f"within {worst:.1e} relative (tol 1e-6)",
           time.perf_counter() - t0, 30)
