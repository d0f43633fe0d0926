import numpy as np
import pytest

import lqcoord as lq
from conftest import random_pd
from lqcoord import simulate
from lqcoord.errors import NonFiniteRollout, ValidationError
from lqcoord.policies import PolicyKind, make_policy
from lqcoord.simulate import (derive_run_seed, gaussian_stream, monte_carlo,
                              rollout, sample_target, splitmix64)


def test_splitmix_determinism_and_spread():
    assert splitmix64(42) == splitmix64(42)
    outs = {splitmix64(i) for i in range(1000)}
    assert len(outs) == 1000
    assert all(0 <= v < 2 ** 64 for v in outs)


def test_run_seed_derivation_independent_of_order():
    a = derive_run_seed(7, 3)
    b = derive_run_seed(7, 4)
    assert a != b
    assert derive_run_seed(8, 3) != a
    assert derive_run_seed(7, 3) == a


def test_gaussian_stream_fixed_seed_first_draw():
    x1 = gaussian_stream(42).standard_normal(4)
    x2 = gaussian_stream(42).standard_normal(4)
    np.testing.assert_array_equal(x1, x2)


def test_gaussian_stream_clt():
    rng = gaussian_stream(123)
    draws = rng.standard_normal((1_000_000, 2))
    assert np.all(np.abs(draws.mean(axis=0)) < 4 / np.sqrt(1_000_000))


def test_shaped_covariance(fa_model):
    # Cholesky shaping of one d0-sized standard draw per stream
    chol = np.linalg.cholesky(fa_model.W)
    draws = simulate._targets(chol, range(100_000))
    emp = draws.T @ draws / draws.shape[0]
    W = fa_model.W
    se = np.sqrt((np.outer(np.diag(W), np.diag(W)) + W ** 2) / draws.shape[0])
    assert np.all(np.abs(emp - W) <= 3.5 * se)


def test_rollout_replay_determinism(fa_model):
    pol = make_policy(PolicyKind.IM_COMM_FA, fa_model)
    x_star = np.array([-1.0, 2.0, 2.0, -2.0])
    t1 = rollout(pol, fa_model, x_star, seed=99)
    t2 = rollout(pol, fa_model, x_star, seed=99)
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.inputs_v, t2.inputs_v)
    np.testing.assert_array_equal(t1.stage_costs, t2.stage_costs)
    assert t1.total_cost == t2.total_cost


def test_sampled_target_uses_salted_substream(fa_model):
    # the plant noise must be identical whether the target is fixed or drawn
    pol = make_policy(PolicyKind.EX_COMM, fa_model)
    drawn = sample_target(fa_model, seed=7)
    t_sampled = rollout(pol, fa_model, None, seed=7)
    t_fixed = rollout(pol, fa_model, drawn, seed=7)
    np.testing.assert_array_equal(t_sampled.states, t_fixed.states)
    np.testing.assert_array_equal(t_sampled.x_star, t_fixed.x_star)


def test_energy_identity(fa_model):
    # recompute the cost from the stored trajectory
    pol = make_policy(PolicyKind.IM_COMM_FA, fa_model)
    x_star = np.array([1.0, 0.5, -0.5, 2.0])
    tr = rollout(pol, fa_model, x_star, seed=11)
    total = 0.0
    for t in range(fa_model.n):
        z = tr.states[t] - x_star
        total += z @ fa_model.F @ z
        total += tr.inputs_v[t] @ fa_model.G1 @ tr.inputs_v[t]
        total += tr.inputs_q[t] @ fa_model.G2 @ tr.inputs_q[t]
    zn = tr.states[-1] - x_star
    total += zn @ fa_model.Fn @ zn
    assert abs(total - tr.total_cost) < 1e-9


def test_z_norms_recomputable(fa_model):
    pol = make_policy(PolicyKind.EX_COMM, fa_model)
    x_star = np.array([0.0, 1.0, 0.0, -1.0])
    tr = rollout(pol, fa_model, x_star, seed=2)
    np.testing.assert_allclose(
        tr.z_norms, np.linalg.norm(tr.states - x_star, axis=1), atol=1e-12)


def test_noise_free_equilibrium():
    base = lq.fully_actuated_model(n=8)
    quiet = lq.SystemModel(base.A, base.B1, base.B2, 1e-30 * np.eye(4),
                           base.F, base.Fn, base.G1, base.G2, base.Sigma0,
                           np.zeros((4, 4)), base.n)
    pol = make_policy(PolicyKind.EX_COMM, quiet)
    tr = rollout(pol, quiet, np.zeros(4), seed=0)
    assert tr.total_cost < 1e-20
    np.testing.assert_allclose(tr.states, 0.0, atol=1e-12)


def test_monte_carlo_single_run_conventions(fa_model):
    pol = make_policy(PolicyKind.EX_COMM, fa_model)
    x_star = np.array([1.0, 1.0, 1.0, 1.0])
    rep = monte_carlo(pol, fa_model, x_star, runs=1, master_seed=5)
    tr = rollout(pol, fa_model, x_star, derive_run_seed(5, 0))
    assert rep.mean_total_cost == pytest.approx(tr.total_cost)
    assert rep.std_total_cost == 0.0


def test_monte_carlo_rejects_zero_runs(fa_model):
    pol = make_policy(PolicyKind.EX_COMM, fa_model)
    with pytest.raises(ValidationError):
        monte_carlo(pol, fa_model, None, runs=0, master_seed=1)


def test_monte_carlo_mean_stability(fa_model):
    pol = make_policy(PolicyKind.EX_COMM, fa_model)
    x_star = np.array([-1.0, 2.0, 2.0, -2.0])
    r1 = monte_carlo(pol, fa_model, x_star, runs=200, master_seed=17)
    r2 = monte_carlo(pol, fa_model, x_star, runs=400, master_seed=17)
    se = r1.std_total_cost / np.sqrt(r1.runs)
    assert abs(r2.mean_total_cost - r1.mean_total_cost) < 2.5 * se


def test_sigma_trace_constants(fa_model):
    x_star = np.array([0.5, 0.5, 0.5, 0.5])
    lead = make_policy(PolicyKind.LEADER_ONLY, fa_model)
    tr = rollout(lead, fa_model, x_star, seed=1)
    np.testing.assert_allclose(tr.sigma_traces, np.trace(fa_model.Sigma0))
    ex = make_policy(PolicyKind.EX_COMM, fa_model)
    np.testing.assert_allclose(rollout(ex, fa_model, x_star, seed=1).sigma_traces, 0.0)


def test_sigma_trace_decreases_for_coordination(fa_model):
    pol = make_policy(PolicyKind.IM_COMM_FA, fa_model)
    tr = rollout(pol, fa_model, np.array([1.0, -1.0, 2.0, 0.0]), seed=3)
    diffs = np.diff(tr.sigma_traces)
    assert np.all(diffs < 0)


def test_target_shape_validated(fa_model):
    pol = make_policy(PolicyKind.EX_COMM, fa_model)
    with pytest.raises(ValidationError):
        rollout(pol, fa_model, np.zeros(3), seed=0)


def test_rollout_draw_contract(fa_model):
    # x_0 is chol(X0) times the first d0 normals of the run's stream, and
    # w_t is chol(W) times the next d0 each, as sequential draws give them
    rng = np.random.default_rng(3)
    W, X0 = random_pd(rng, 4, 0.1), random_pd(rng, 4)
    model = lq.SystemModel(fa_model.A, fa_model.B1, fa_model.B2, W,
                           fa_model.F, fa_model.Fn, fa_model.G1, fa_model.G2,
                           fa_model.Sigma0, X0, 6)
    pol = make_policy(PolicyKind.IM_COMM_FA, model)
    tr = rollout(pol, model, None, seed=31)
    rng = gaussian_stream(31)
    np.testing.assert_allclose(
        tr.states[0], np.linalg.cholesky(X0) @ rng.standard_normal(4),
        rtol=1e-15, atol=0)
    chol_W = np.linalg.cholesky(W)
    for t in range(model.n):
        w = (tr.states[t + 1] - model.A @ tr.states[t]
             - model.B1 @ tr.inputs_v[t] - model.B2 @ tr.inputs_q[t])
        np.testing.assert_allclose(w, chol_W @ rng.standard_normal(4),
                                   atol=1e-12)


@pytest.mark.parametrize("target", ["sampled", "fixed"])
@pytest.mark.parametrize("preset, kind", [
    ("fa", PolicyKind.EX_COMM), ("fa", PolicyKind.LEADER_ONLY),
    ("fa", PolicyKind.IM_COMM_FA), ("ua", PolicyKind.EX_COMM),
    ("ua", PolicyKind.NO_COMM), ("ua", PolicyKind.IM_COMM_UA)])
def test_batched_matches_single_runs(preset, kind, target, fa_model, ua_model,
                                     monkeypatch):
    # chunks of 7: 20 runs span three chunks, the last one short. The fully
    # actuated scheme drives cond(Sigma_t) to 7e11, which amplifies the
    # roundoff between batched and one-run products (6.8e-12 seen)
    monkeypatch.setattr(simulate, "CHUNK_RUNS", 7)
    model = fa_model if preset == "fa" else ua_model
    pol = make_policy(kind, model)
    x_star = np.array([1.0, -2.0, 0.5, 2.0]) if target == "fixed" else None
    runs, seed = 20, 23
    rep = monte_carlo(pol, model, x_star, runs, seed)
    traces = [rollout(pol, model, x_star, derive_run_seed(seed, i))
              for i in range(runs)]
    totals = [tr.total_cost for tr in traces]
    np.testing.assert_allclose(rep.mean_total_cost, np.mean(totals), rtol=1e-9)
    np.testing.assert_allclose(rep.std_total_cost, np.std(totals, ddof=1),
                               rtol=1e-9)
    np.testing.assert_allclose(
        rep.mean_stage_costs, np.mean([tr.stage_costs for tr in traces], axis=0),
        rtol=1e-9)
    np.testing.assert_allclose(
        rep.mean_z_norms, np.mean([tr.z_norms for tr in traces], axis=0),
        rtol=1e-9)
    np.testing.assert_array_equal(
        rep.mean_sigma_traces, [np.trace(Sigma) for Sigma in pol.step_ops.Sigma])


def test_overflow_raises_naming_policy_run_and_step():
    # A = 1e30 I: |x_t| ~ 1e30^t, so |z_t|^2 overflows at t = 6
    I = np.eye(2)
    model = lq.SystemModel(A=1e30 * I, B1=I, B2=[[1.0], [0.0]], W=I,
                           F=0 * I, Fn=0 * I, G1=I, G2=[[1.0]], Sigma0=I,
                           X0=I, n=30)
    for kind in (PolicyKind.NO_COMM, PolicyKind.EX_COMM):
        pol = make_policy(kind, model)
        with pytest.raises(NonFiniteRollout,
                           match=f"policy {kind.value}: run 0 .* step 6 "):
            monte_carlo(pol, model, None, runs=5, master_seed=0)
        with pytest.raises(NonFiniteRollout, match="step 6 "):
            rollout(pol, model, None, seed=0)
