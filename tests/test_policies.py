import numpy as np
import pytest

import channel_oracle as oracle
import lqcoord as lq
from lqcoord.channel import channel_step
from lqcoord.errors import ValidationError
from lqcoord.model import SystemModel
from lqcoord.policies import PolicyKind, make_policy
from lqcoord.power import heuristic_schedule
from lqcoord.power.schedules import PowerSchedule, ScheduleMode
from lqcoord.simulate import rollout


def fresh_run(model, power, x_star):
    """Production rollout view of the fully actuated scheme under `power`."""
    pol = make_policy(PolicyKind.IM_COMM_FA, model, power=power)
    return pol.start(x_star)


def test_initial_offsets_are_zero(fa_model, fa_gains, fa_channel):
    power = heuristic_schedule(0.88, fa_model.n, 4)
    x_star = np.array([1.0, -2.0, 0.5, 2.0])
    run = fresh_run(fa_model, power, x_star)
    x0 = np.array([0.3, 0.1, -0.4, 0.2])
    v, q = run.inputs(0, x0)
    # x_hat(0) = 0, so offsets vanish; follower input is pure feedback
    d1 = fa_model.d1
    np.testing.assert_allclose(q, -fa_gains.K[0][d1:] @ x0, atol=1e-12)
    s = v + fa_gains.K[0][:d1] @ x0
    assert np.linalg.norm(s) > 0  # leader adds the signal


def test_perfect_knowledge_limit(fa_model, fa_gains, fa_channel):
    # e = 0 with zero power reproduces the known-target inputs exactly
    x_star = np.array([1.0, -2.0, 0.5, 2.0])
    power = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                          Lambda=[np.zeros(4)] * fa_model.n)
    run = fresh_run(fa_model, power, x_star)
    run.e = np.zeros(4)
    run.x_hat = x_star.copy()
    x = np.array([0.5, 0.5, -0.5, 0.2])
    v, q = run.inputs(0, x)
    # the ex-comm policy, which knows x_*, gives -K_0 x + D_0 x_*
    u = np.concatenate(make_policy(PolicyKind.EX_COMM, fa_model)
                       .start(x_star).inputs(0, x))
    np.testing.assert_allclose(u, -fa_gains.K[0] @ x + fa_gains.D[0] @ x_star,
                               atol=1e-12)
    np.testing.assert_allclose(np.concatenate([v, q]), u, atol=1e-12)


def test_joint_input_identity(fa_model, fa_gains, fa_channel):
    # v, q stack into -K(x - x*) + (D - K)x* + (Itil enc - D)e
    x_star = np.array([-1.0, 2.0, 2.0, -2.0])
    power = heuristic_schedule(0.88, fa_model.n, 4)
    run = fresh_run(fa_model, power, x_star)
    rng = np.random.default_rng(0)
    x = rng.normal(size=4)
    for t in range(6):
        v, q = run.inputs(t, x)
        lam = power.Lambda[t]
        enc = (fa_channel.Q @ fa_channel.S_sqrt_of(lam)
               @ oracle.inv_sqrt_psd(run.ops.Sigma[t]))
        K, D = fa_gains.K[t], fa_gains.D[t]
        u_expected = (-K @ (x - x_star) + (D - K) @ x_star
                      + (fa_model.leader_embed @ enc - D) @ run.e)
        np.testing.assert_allclose(np.concatenate([v, q]), u_expected, atol=1e-10)
        w = rng.multivariate_normal(np.zeros(4), fa_model.W)
        x_next = fa_model.A @ x + fa_model.B1 @ v + fa_model.B2 @ q + w
        run.observe(t, x, x_next)
        x = x_next


def test_telescoping_invariant(fa_model, fa_gains, fa_channel):
    x_star = np.array([0.7, -0.3, 1.1, 0.0])
    power = heuristic_schedule(0.88, fa_model.n, 4)
    run = fresh_run(fa_model, power, x_star)
    rng = np.random.default_rng(4)
    x = rng.normal(size=4)
    for t in range(15):
        v, q = run.inputs(t, x)
        w = rng.multivariate_normal(np.zeros(4), fa_model.W)
        x_next = fa_model.A @ x + fa_model.B1 @ v + fa_model.B2 @ q + w
        run.observe(t, x, x_next)
        np.testing.assert_allclose(run.x_hat + run.e, x_star, atol=1e-9)
        x = x_next


def test_zero_power_never_learns(fa_model, fa_gains, fa_channel):
    x_star = np.array([1.0, 1.0, -1.0, 0.5])
    power = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                          Lambda=[np.zeros(4)] * fa_model.n)
    run = fresh_run(fa_model, power, x_star)
    rng = np.random.default_rng(5)
    x = rng.normal(size=4)
    for t in range(5):
        v, q = run.inputs(t, x)
        w = rng.multivariate_normal(np.zeros(4), fa_model.W)
        x_next = fa_model.A @ x + fa_model.B1 @ v + fa_model.B2 @ q + w
        run.observe(t, x, x_next)
        np.testing.assert_array_equal(run.x_hat, np.zeros(4))
        x = x_next


def test_high_snr_one_step_learning(fa_model, fa_gains, fa_channel):
    # huge power and no noise: one step pins the target to 1%
    x_star = np.array([1.0, -2.0, 0.5, 2.0])
    power = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                          Lambda=[1e6 * np.ones(4)] * fa_model.n)
    run = fresh_run(fa_model, power, x_star)
    x = np.zeros(4)
    v, q = run.inputs(0, x)
    x_next = fa_model.A @ x + fa_model.B1 @ v + fa_model.B2 @ q  # no noise
    run.observe(0, x, x_next)
    assert np.linalg.norm(run.x_hat - x_star) / np.linalg.norm(x_star) < 1e-2


def test_baselines_zero_at_origin(fa_model, fa_gains):
    zero = np.zeros(4)
    for kind in (PolicyKind.EX_COMM, PolicyKind.NO_COMM,
                 PolicyKind.LEADER_ONLY):
        v, q = make_policy(kind, fa_model).start(zero).inputs(0, zero)
        np.testing.assert_allclose(v, 0.0, atol=1e-14)
        np.testing.assert_allclose(q, 0.0, atol=1e-14)


def test_nocomm_equals_excomm_at_zero_target(fa_model, fa_gains):
    x = np.array([0.4, -0.2, 0.3, 0.8])
    zero = np.zeros(4)
    v1, q1 = make_policy(PolicyKind.EX_COMM, fa_model).start(zero).inputs(3, x)
    v2, q2 = make_policy(PolicyKind.NO_COMM, fa_model).start(zero).inputs(3, x)
    np.testing.assert_allclose(v1, v2, atol=1e-14)
    np.testing.assert_allclose(q1, q2, atol=1e-14)


def test_leader_only_converges_to_target(fa_model):
    # the leader alone reaches the target: final error is noise-floor sized,
    # far below the initial distance
    x_star = np.array([-1.0, 2.0, 2.0, -2.0])
    pol = make_policy(PolicyKind.LEADER_ONLY, fa_model)
    finals, initials = [], []
    for i in range(50):
        tr = rollout(pol, fa_model, x_star, seed=1000 + i)
        finals.append(tr.z_norms[-1])
        initials.append(tr.z_norms[0])
    assert np.mean(finals) < 0.25 * np.mean(initials)
    # comparable to the fully informed controller's noise floor
    ex = make_policy(PolicyKind.EX_COMM, fa_model)
    ex_finals = [rollout(ex, fa_model, x_star, seed=1000 + i).z_norms[-1]
                 for i in range(50)]
    assert np.mean(finals) < 1.5 * np.mean(ex_finals)


def test_policy_equivalence_limit():
    # Sigma0 -> 0 with x* = 0 and zero power: coordination == ex-comm paths
    base = lq.fully_actuated_model(n=10)
    tiny = SystemModel(base.A, base.B1, base.B2, base.W, base.F, base.Fn,
                       base.G1, base.G2, 1e-12 * np.eye(4), base.X0, base.n)
    x_star = np.zeros(4)
    power = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                          Lambda=[np.zeros(4)] * tiny.n)
    im = make_policy(PolicyKind.IM_COMM_FA, tiny, power=power)
    ex = make_policy(PolicyKind.EX_COMM, tiny)
    tr_im = rollout(im, tiny, x_star, seed=3)
    tr_ex = rollout(ex, tiny, x_star, seed=3)
    np.testing.assert_allclose(tr_im.states, tr_ex.states, atol=1e-6)
    np.testing.assert_allclose(tr_im.inputs_v, tr_ex.inputs_v, atol=1e-6)


def test_sigma_trace_decreasing_with_bound(fa_model, fa_gains, fa_channel):
    # heuristic power on the fully actuated benchmark: strict decrease plus
    # the decay bound with sigma = the smallest power entry actually used
    n_check = 10
    power = heuristic_schedule(0.88, fa_model.n, 4)
    Sigma = fa_model.Sigma0.copy()
    traces = [np.trace(Sigma)]
    for t in range(n_check):
        Sigma = channel_step(fa_channel, Sigma, power.Lambda[t]).Sigma_next
        traces.append(np.trace(Sigma))
    assert all(traces[t + 1] < traces[t] for t in range(n_check))
    assert traces[10] / traces[0] < 0.1
    sigma_min = 0.88 ** (n_check - 1)
    psi = fa_channel.psi
    for t in range(1, n_check + 1):
        assert traces[t] <= traces[0] / (1 + sigma_min * psi) ** t + 1e-9


def test_under_actuated_nocomm_failure(ua_model):
    # without any channel the follower cannot learn the target: final error
    # stays a factor >= 2 above the coordinated runs
    x_star = np.array([2.0, -2.0, 3.0, 2.0])
    nc = make_policy(PolicyKind.NO_COMM, ua_model)
    im = make_policy(PolicyKind.IM_COMM_UA, ua_model)
    nc_final = np.mean([rollout(nc, ua_model, x_star, seed=i).z_norms[-1]
                        for i in range(50)])
    im_final = np.mean([rollout(im, ua_model, x_star, seed=i).z_norms[-1]
                        for i in range(50)])
    assert nc_final >= 2.0 * im_final


def test_make_policy_validation(ua_model, fa_model):
    with pytest.raises(ValidationError):
        make_policy(PolicyKind.IM_COMM_FA, ua_model)
    pol = make_policy(PolicyKind.IM_COMM_UA, ua_model)
    assert pol.power.Lambda.shape == (ua_model.n, 2)


@pytest.mark.parametrize("preset", ["fa", "ua"])
def test_table_path_matches_state_machine(preset, fa_model, ua_model):
    # the rollout operator table and the step-by-step reference state machine
    # are the same maps; drive both with one noise sequence and compare. The
    # inputs carry Sigma_t^(-1/2), so two independent implementations agree
    # to roundoff times cond(Sigma_t), which the fully actuated preset drives
    # to the 1e12 pseudo-inverse cutoff within ten steps
    model = fa_model if preset == "fa" else ua_model
    kind = PolicyKind.IM_COMM_FA if preset == "fa" else PolicyKind.IM_COMM_UA
    pol = make_policy(kind, model)
    x_star = np.array([1.0, -2.0, 0.5, 2.0])
    run = pol.start(x_star)
    st = oracle.start(x_star, model, pol.gains, pol.setup, pol.power)
    rng = np.random.default_rng(17)
    x = rng.normal(size=4)
    cond = 1.0
    for t in range(model.n):
        v1, q1 = run.inputs(t, x)
        v2, q2 = oracle.compute_inputs(st, x)
        cond = max(cond, oracle.live_cond(st.msg.Sigma))
        tol = oracle.roundoff_tol(cond, 1e-12)
        np.testing.assert_allclose(v1, v2, atol=tol)
        np.testing.assert_allclose(q1, q2, atol=tol)
        w = rng.multivariate_normal(np.zeros(4), model.W)
        x_next = model.A @ x + model.B1 @ v1 + model.B2 @ q1 + w
        run.observe(t, x, x_next)
        oracle.observe_and_update(st, x, x_next)
        np.testing.assert_allclose(run.e, st.msg.e, atol=1e-9)
        np.testing.assert_allclose(run.x_hat, st.msg.x_star_hat, atol=1e-9)
        assert pol.sigma_traces[t + 1] == pytest.approx(
            np.trace(st.msg.Sigma), abs=1e-9)
        x = x_next


def test_block_order_permutation(ua_model, ua_gains, ua_channel):
    # a permuted round-robin is accepted and still cycles every block:
    # with order [1, 0], step 0 must contract the second coordinate block
    pol = make_policy(PolicyKind.IM_COMM_UA, ua_model, block_order=[1, 0])
    ops = pol.step_ops
    default = make_policy(PolicyKind.IM_COMM_UA, ua_model)
    ops_def = default.step_ops
    lam = pol.power.Lambda[0]
    np.testing.assert_allclose(
        ops.dec[0], channel_step(ua_channel, ua_model.Sigma0, lam, 1).dec,
        atol=1e-12)
    assert not np.allclose(ops.dec[0], ops_def.dec[0])


@pytest.mark.parametrize("order", [[0, 0], [0], [0, 1, 2], [1, 2]])
def test_block_order_must_be_a_permutation(ua_model, order):
    # a repeated or missing block would leave coordinates never sent
    with pytest.raises(ValidationError, match="block_order"):
        make_policy(PolicyKind.IM_COMM_UA, ua_model, block_order=order)


@pytest.mark.parametrize("kind", [PolicyKind.IM_COMM_FA, PolicyKind.IM_COMM_UA])
def test_power_shorter_than_the_horizon_is_rejected_up_front(kind, fa_model,
                                                             ua_model):
    model = fa_model if kind is PolicyKind.IM_COMM_FA else ua_model
    r = 4 if kind is PolicyKind.IM_COMM_FA else 2
    short = heuristic_schedule(0.88, model.n - 1, r)
    with pytest.raises(ValidationError, match=rf"power: .*{model.n - 1} steps"):
        make_policy(kind, model, power=short)


def test_power_of_the_wrong_width_is_rejected_up_front(ua_model):
    # three entries per step on a two-dimensional channel used to fail in
    # the operator table with a bare numpy broadcast error
    wide = heuristic_schedule(0.88, ua_model.n, 3)
    with pytest.raises(ValidationError, match=r"power: Lambda_0 .*2 entries"):
        make_policy(PolicyKind.IM_COMM_UA, ua_model, power=wide)
    with pytest.raises(ValidationError, match=r"power: Lambda_5 "):
        ragged = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                               Lambda=[np.ones(2)] * 5 + [np.ones(3)]
                               + [np.ones(2)] * (ua_model.n - 6))
        make_policy(PolicyKind.IM_COMM_UA, ua_model, power=ragged)


def test_non_finite_power_is_rejected_up_front(ua_model):
    # a NaN entry used to pass make_policy and end in the operator table
    # with a bare LinAlgError from numpy's eigensolver
    Lambda = np.ones((ua_model.n, 2))
    Lambda[0, 0] = np.nan
    with pytest.raises(ValidationError, match=r"power: Lambda_0\[0\] = nan"):
        make_policy(PolicyKind.IM_COMM_UA, ua_model,
                    power=PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                                        Lambda=Lambda))


def test_power_schedules_compare_and_hash_by_identity():
    # Lambda, a and b are arrays, so field-wise == would be ambiguous and a
    # field-wise hash impossible
    a, b = heuristic_schedule(0.88, 3, 2), heuristic_schedule(0.88, 3, 2)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
