import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lqcoord as lq
import stream_oracle
from conftest import random_pd
from lqcoord import cli, simulate
from lqcoord.config import config_from_dict
from lqcoord.errors import NonFiniteRollout, ValidationError
from lqcoord.policies import PolicyKind, make_policy
from lqcoord.simulate import monte_carlo, rollout
from stream_oracle import derive_run_seed, gaussian_stream, sample_target

EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]


def test_splitmix_determinism_and_spread():
    # the uint64 array form against the Python-int reference
    x = [*range(1000), 2 ** 63, 2 ** 64 - 1]
    outs = simulate._splitmix64(np.array(x, dtype=np.uint64)).tolist()
    assert outs == [stream_oracle.splitmix64(i) for i in x]
    assert len(set(outs)) == len(x)


def test_run_seed_derivation_independent_of_order():
    a, b = simulate._run_seeds(7, 3, 5).tolist()
    assert a != b
    assert simulate._run_seeds(8, 3, 4)[0] != a
    assert simulate._run_seeds(7, 0, 4)[3] == a
    assert simulate._run_seeds(7, 4, 5)[0] == b


def _normals(seeds, size):
    return simulate._normals([(np.array(seeds, dtype=np.uint64), size)])[0]


def test_gaussian_stream_fixed_seed_first_draw():
    x1, x2 = _normals([42, 42], 4)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(x1, gaussian_stream(42).standard_normal(4))


def test_gaussian_stream_clt():
    draws = _normals([123], 2_000_000).reshape(1_000_000, 2)
    assert np.all(np.abs(draws.mean(axis=0)) < 4 / np.sqrt(1_000_000))


def _assert_streams_match_numpy(seeds):
    # states and draws of the chunk pass equal one Generator(PCG64(seed)) each
    states = simulate._stream_states(np.array(seeds, dtype=np.uint64))
    for seed, (state, inc) in zip(seeds, states):
        assert np.random.PCG64(seed).state["state"] == {"state": state, "inc": inc}
    # two groups of different sizes share one seeding pass
    long, short = simulate._normals([(np.array(seeds, dtype=np.uint64), 31),
                                     (np.array(seeds[::-1], dtype=np.uint64), 4)])
    for i, seed in enumerate(seeds):
        np.testing.assert_array_equal(long[i], gaussian_stream(seed).standard_normal(31))
        np.testing.assert_array_equal(short[-1 - i],
                                      gaussian_stream(seed).standard_normal(4))


def test_chunk_streams_match_numpy_at_edge_seeds():
    _assert_streams_match_numpy(EDGE_SEEDS)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=8))
def test_chunk_streams_match_numpy(seeds):
    _assert_streams_match_numpy(seeds)


@pytest.mark.parametrize("master", [0, 2 ** 63, 2 ** 64 - 1])
def test_chunk_seeds_match_per_run_derivation(master):
    # the runs on both sides of a chunk boundary, as monte_carlo seeds them
    lo, hi = simulate.CHUNK_RUNS - 3, simulate.CHUNK_RUNS + 3
    chunked = np.concatenate([simulate._run_seeds(master, lo, simulate.CHUNK_RUNS),
                              simulate._run_seeds(master, simulate.CHUNK_RUNS, hi)])
    expected = [stream_oracle.derive_run_seed(master, i) for i in range(lo, hi)]
    assert chunked.tolist() == expected


@pytest.mark.parametrize("seed", [2 ** 64, 2 ** 70, -5, 3.0])
def test_out_of_range_seeds_rejected(fa_model, seed):
    # masking to 64 bits made 2^64 and 2^70 run as seed 0 and -5 as 2^64 - 5
    pol = make_policy(PolicyKind.EX_COMM, fa_model)
    with pytest.raises(ValidationError, match="master_seed: "):
        monte_carlo(pol, fa_model, None, runs=3, master_seed=seed)
    with pytest.raises(ValidationError, match="seed: "):
        rollout(pol, fa_model, None, seed=seed)


@pytest.mark.parametrize("seed", [True, False])
def test_bool_seeds_rejected(fa_model, seed):
    # a bool is an Integral: True ran as seed 1
    pol = make_policy(PolicyKind.EX_COMM, fa_model)
    with pytest.raises(ValidationError, match="^master_seed: True|^master_seed: False"):
        monte_carlo(pol, fa_model, None, runs=3, master_seed=seed)
    with pytest.raises(ValidationError, match="^seed: "):
        rollout(pol, fa_model, None, seed=seed)


@pytest.mark.parametrize("runs", [2.5, 3.0, "3", True, None, 0, -2])
def test_bad_run_counts_name_the_field(fa_model, runs):
    # 2.5 and "3" escaped as a raw TypeError from range()
    pol = make_policy(PolicyKind.EX_COMM, fa_model)
    with pytest.raises(ValidationError, match="^runs: .* is not an integer >= 1"):
        monte_carlo(pol, fa_model, None, runs=runs, master_seed=0)


def test_numpy_integer_seeds_and_runs_accepted(fa_model):
    pol = make_policy(PolicyKind.EX_COMM, fa_model)
    ref = monte_carlo(pol, fa_model, None, runs=3, master_seed=5)
    for runs, seed in ((np.int64(3), np.uint64(5)), (np.uint64(3), np.int64(5))):
        rep = monte_carlo(pol, fa_model, None, runs=runs, master_seed=seed)
        assert rep.mean_total_cost == ref.mean_total_cost
        assert rep.std_total_cost == ref.std_total_cost
    np.testing.assert_array_equal(rollout(pol, fa_model, None, seed=np.uint64(5)).states,
                                  rollout(pol, fa_model, None, seed=5).states)


# means and stds of 2500 runs (three chunks) at seed 0, as the per-run
# Generator engine computed them; FA im-comm-heu is left out, its outputs
# move at the 1e-12 level with roundoff in the gains
PINNED = {
    ("fa", "ex-comm", "sampled"): (243.402396617694, 163.69990834356184),
    ("fa", "ex-comm", "fixed"): (212.64315241024607, 18.802288390067712),
    ("ua", "no-comm", "sampled"): (801.7006420097798, 579.7959814795282),
    ("ua", "no-comm", "fixed"): (581.3484990112397, 40.53901151268273),
}


@pytest.mark.parametrize("preset, policy, target", list(PINNED))
def test_monte_carlo_pinned(preset, policy, target, fa_model, ua_model):
    model = fa_model if preset == "fa" else ua_model
    pol = make_policy(PolicyKind(policy), model)
    x_star = None if target == "sampled" else np.array([-1.0, 2.0, 2.0, -2.0])
    rep = monte_carlo(pol, model, x_star, runs=2500, master_seed=0)
    assert (rep.mean_total_cost, rep.std_total_cost) == PINNED[preset, policy, target]


def test_shaped_covariance(fa_model):
    # Cholesky shaping of the plant noise: 3400 runs x 30 steps of w_t
    seeds = simulate._run_seeds(0, 0, 3400)
    draws = simulate._draw(fa_model, seeds, sampled=False)[1].reshape(-1, 4)
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


def _einsum_quad(z, M):
    """The reference form of `simulate._quad`."""
    return np.einsum("...i,ij,...j->...", z, M, z)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_quad_matches_einsum(R, n, d, seed):
    # as the engine calls it: strided (R, n, d) step slices and (R, d) ends
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((R, n + 1, d)) * rng.uniform(0.1, 100.0)
    diag, full = np.diag(rng.uniform(0.1, 5.0, d)), random_pd(rng, d)
    for part in (z[:, :n], z[:, n], z[0, 0]):
        np.testing.assert_array_equal(simulate._quad(part, diag),
                                      _einsum_quad(part, diag))
        np.testing.assert_allclose(simulate._quad(part, full),
                                   _einsum_quad(part, full), rtol=1e-12, atol=0)


@pytest.mark.parametrize("preset, policies", [
    (lq.FULLY_ACTUATED, ["ex-comm", "leader-only", "im-comm-heu"]),
    (lq.UNDER_ACTUATED, ["ex-comm", "no-comm"])])
def test_compare_seeds_each_chunk_once(preset, policies, tmp_path, monkeypatch):
    # 20 runs in chunks of 7: three stream-seeding passes for all k policies,
    # while the CLI still calls monte_carlo once per policy
    monkeypatch.setattr(simulate, "CHUNK_RUNS", 7)
    passes, calls = [], []
    stream_states, mc = simulate._stream_states, cli.monte_carlo
    monkeypatch.setattr(simulate, "_stream_states",
                        lambda seeds: passes.append(len(seeds)) or stream_states(seeds))
    monkeypatch.setattr(cli, "monte_carlo",
                        lambda *a, **k: calls.append(a[0].label) or mc(*a, **k))
    cli.run_experiment(config_from_dict(
        {"system": preset, "policies": policies, "runs": 20, "master_seed": 3,
         "out_dir": str(tmp_path)}))
    assert passes == [14, 14, 12]   # run and target streams of each chunk
    assert len(calls) == len(policies)


@pytest.mark.parametrize("budget_chunks", [None, 1])
@pytest.mark.parametrize("target", ["sampled", "fixed"])
@pytest.mark.parametrize("preset", ["fa", "ua"])
def test_shared_draws_match_fresh_draws(preset, target, budget_chunks, fa_model,
                                        ua_model, monkeypatch):
    # three chunks; budget_chunks=1 keeps only the first, so later chunks
    # are drawn again per policy
    monkeypatch.setattr(simulate, "CHUNK_RUNS", 7)
    model = fa_model if preset == "fa" else ua_model
    x_star = np.array([1.0, -2.0, 0.5, 2.0]) if target == "fixed" else None
    if budget_chunks:
        monkeypatch.setattr(simulate, "DRAW_BUDGET_BYTES",
                            budget_chunks * 7 * (model.n + 2) * model.d0 * 8)
    kinds = ([PolicyKind.EX_COMM, PolicyKind.LEADER_ONLY, PolicyKind.IM_COMM_FA]
             if preset == "fa" else
             [PolicyKind.EX_COMM, PolicyKind.NO_COMM, PolicyKind.IM_COMM_UA])
    store = simulate.SharedDraws(model)
    for kind in kinds:
        pol = make_policy(kind, model)
        shared = monte_carlo(pol, model, x_star, 20, 23, draws=store)
        fresh = monte_carlo(pol, model, x_star, 20, 23)
        for field in ("mean_total_cost", "std_total_cost", "mean_z_norms",
                      "mean_stage_costs", "mean_sigma_traces"):
            np.testing.assert_array_equal(getattr(shared, field),
                                          getattr(fresh, field))
    assert len(store._chunks) == (budget_chunks or 3)


def test_shared_draws_are_read_only(fa_model):
    store = simulate.SharedDraws(fa_model)
    seeds = simulate._run_seeds(0, 0, 5)
    drawn = store.chunk(fa_model, seeds, True)
    assert store.chunk(fa_model, seeds, True) is drawn
    for a in drawn:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    for a, b in zip(drawn, simulate._draw(fa_model, seeds, True)):
        np.testing.assert_array_equal(a, b)


def test_shared_draws_bound_to_their_model(fa_model):
    other = lq.fully_actuated_model(n=30)
    pol = make_policy(PolicyKind.EX_COMM, other)
    with pytest.raises(ValidationError, match="another model"):
        monte_carlo(pol, other, None, 5, 0, draws=simulate.SharedDraws(fa_model))


@pytest.mark.parametrize("other", [lambda: lq.fully_actuated_model(n=10),
                                   lambda: lq.fully_actuated_model(n=40),
                                   lambda: lq.under_actuated_model(n=30)],
                         ids=["shorter", "longer", "other-dimensions"])
def test_policy_runs_only_on_a_model_like_its_own(fa_model, other):
    # a policy prepared on one model used to run on another of a different
    # horizon (a report of the wrong length), raise a bare IndexError or a
    # broadcast ValueError
    pol = make_policy(PolicyKind.IM_COMM_FA, fa_model)
    with pytest.raises(ValidationError, match="^model: "):
        monte_carlo(pol, other(), None, 5, 0)
    with pytest.raises(ValidationError, match="^model: "):
        rollout(pol, other(), None, 0)
