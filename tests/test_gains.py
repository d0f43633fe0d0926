import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from conftest import random_system

import lqcoord as lq
from lqcoord.errors import NotControllable, SingularInnovation
from lqcoord.gains import _riccati, backward_riccati, leader_only_gains
from lqcoord.model import SystemModel
from lqcoord.policies import PolicyKind, make_policy


def scalar_model(n=1, F=1.0, G1=1.0, Fn=1.0):
    return SystemModel(A=[[1.0]], B1=[[1.0]], B2=[[1e-8]], W=[[1.0]],
                       F=[[F]], Fn=[[Fn]], G1=[[G1]], G2=[[1.0]],
                       Sigma0=[[1.0]], X0=[[1.0]], n=n)


def excomm_inputs(model, t, x_t, x_star):
    """Joint ex-comm input u_t = -K_t x_t + D_t x_*, through the policy table."""
    run = make_policy(PolicyKind.EX_COMM, model).start(np.asarray(x_star, float))
    return np.concatenate(run.inputs(t, np.asarray(x_t, float)))


def cho_solve_riccati(A, B, F, G, Fn, n):
    """The value recursion of the module docstring with scipy's Cholesky."""
    Phi, Dbar, K, D = [None] * (n + 1), [None] * (n + 1), [None] * n, [None] * n
    Phi[n], Dbar[n] = Fn, Fn
    for t in range(n - 1, -1, -1):
        S = G + B.T @ Phi[t + 1] @ B
        cho = scipy.linalg.cho_factor(0.5 * (S + S.T))
        K[t] = scipy.linalg.cho_solve(cho, B.T @ Phi[t + 1] @ A)
        D[t] = scipy.linalg.cho_solve(cho, B.T @ Dbar[t + 1])
        Phi[t] = F + A.T @ Phi[t + 1] @ A - A.T @ Phi[t + 1] @ B @ K[t]
        Phi[t] = 0.5 * (Phi[t] + Phi[t].T)
        Dbar[t] = (A - B @ K[t]).T @ Dbar[t + 1] + F
    return {"Phi": Phi, "K": K, "Dbar": Dbar, "D": D}


def rel_err(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return np.abs(got - ref).max() / np.abs(ref).max()


def assert_matches_reference(g, ref):
    for name, stack in ref.items():
        assert rel_err(getattr(g, name), stack) <= 1e-13, name


@pytest.mark.parametrize("preset", ["fa", "ua"])
def test_gains_match_a_cho_solve_reference(preset):
    model = (lq.fully_actuated_model if preset == "fa" else lq.under_actuated_model)()
    assert_matches_reference(backward_riccati(model), cho_solve_riccati(
        model.A, model.B, model.F, model.G, model.Fn, model.n))
    if preset == "fa":
        assert_matches_reference(leader_only_gains(model), cho_solve_riccati(
            model.A, model.B1, model.F, model.G1, model.Fn, model.n))


@pytest.mark.parametrize("seed", [0, 1])
def test_random_gains_match_a_cho_solve_reference(seed):
    rng = np.random.default_rng(300 + seed)
    model = random_system(rng, 4, 2, 3, 25)
    assert_matches_reference(backward_riccati(model), cho_solve_riccati(
        model.A, model.B, model.F, model.G, model.Fn, model.n))


def test_policies_share_their_models_schedules():
    model = lq.fully_actuated_model(n=8)
    ex = make_policy(PolicyKind.EX_COMM, model)
    heu = make_policy(PolicyKind.IM_COMM_FA, model)
    assert ex.gains is heu.gains is model.joint_gains
    assert make_policy(PolicyKind.LEADER_ONLY, model).gains is model.leader_gains
    fresh = backward_riccati(model)
    n, d0, m = model.n, model.d0, model.d1 + model.d2
    shapes = {"Phi": (n + 1, d0, d0), "Dbar": (n + 1, d0, d0),
              "K": (n, m, d0), "D": (n, m, d0), "R": (n, m, m)}
    for name, shape in shapes.items():
        shared = getattr(model.joint_gains, name)
        assert shared.shape == shape
        np.testing.assert_array_equal(shared, getattr(fresh, name))
        assert not shared.flags.writeable
    # shared per model object, never across equal models
    assert lq.fully_actuated_model(n=8).joint_gains is not model.joint_gains


def test_model_keeps_read_only_copies_of_its_matrices():
    base = lq.fully_actuated_model(n=5)
    names = ("A", "B1", "B2", "W", "F", "Fn", "G1", "G2", "Sigma0", "X0")
    given = {name: np.array(getattr(base, name)) for name in names}
    model = SystemModel(**given, n=base.n)
    model.joint_gains                  # cached before the edit
    for M in given.values():   # the caller edits its arrays afterwards
        M *= 2.0
    for name in names:
        np.testing.assert_array_equal(getattr(model, name), getattr(base, name))
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0, 0] = 0.0
    np.testing.assert_array_equal(model.joint_gains.K, backward_riccati(model).K)


def test_indefinite_innovation_raises_with_its_step():
    # G + B'Phi_n B = diag(1, -10) + I = diag(2, -9) at the last step (t = 2)
    eye = np.eye(2)
    with pytest.raises(SingularInnovation, match="not positive definite at t=2"):
        _riccati(eye, eye, eye, np.diag([1.0, -10.0]), eye, n=3, d1=1)


def test_scalar_hand_case():
    # min u^2 + (x0 + u - x*)^2 has optimum u = -0.5 x0 + 0.5 x*
    m = scalar_model()
    g = backward_riccati(m)
    assert g.Phi[1][0, 0] == pytest.approx(1.0)
    assert g.K[0][0, 0] == pytest.approx(0.5)
    assert g.Phi[0][0, 0] == pytest.approx(1.5)
    assert g.D[0][0, 0] == pytest.approx(0.5)


def test_scalar_inputs():
    m = scalar_model()
    g = backward_riccati(m)
    u0 = excomm_inputs(m, 0, np.array([2.0]), np.array([1.0]))
    assert u0[0] == pytest.approx(-0.5)


def test_zero_cost_gives_zero_gains():
    m = SystemModel(A=[[1.0, 0.2], [0.0, 0.9]], B1=[[1.0], [0.0]],
                    B2=[[0.0], [1.0]], W=np.eye(2), F=np.zeros((2, 2)),
                    Fn=np.zeros((2, 2)), G1=[[1.0]], G2=[[1.0]],
                    Sigma0=np.eye(2), X0=np.eye(2), n=4)
    g = backward_riccati(m)
    for t in range(m.n):
        np.testing.assert_allclose(g.Phi[t], 0.0, atol=1e-14)
        np.testing.assert_allclose(g.K[t], 0.0, atol=1e-14)
        np.testing.assert_allclose(g.D[t], 0.0, atol=1e-14)


def test_preset_schedule_properties(fa_model, fa_gains):
    for Phi in fa_gains.Phi:
        assert np.linalg.eigvalsh(Phi).min() > -1e-10
    # closed loop at t=0 contracts relative to the open plant
    Abar = fa_model.A - fa_model.B @ fa_gains.K[0]
    rho_cl = np.abs(np.linalg.eigvals(Abar)).max()
    rho_ol = np.abs(np.linalg.eigvals(fa_model.A)).max()
    assert rho_cl < rho_ol
    np.testing.assert_allclose(fa_gains.Phi[fa_model.n], fa_model.Fn)
    np.testing.assert_allclose(fa_gains.Dbar[fa_model.n], fa_model.Fn)


def test_split_reassembles(fa_model, fa_gains):
    # the leader's and the follower's ex-comm inputs stack into the joint
    # optimum
    rng = np.random.default_rng(3)
    x, x_star = rng.normal(size=4), rng.normal(size=4)
    run = make_policy(PolicyKind.EX_COMM, fa_model).start(x_star)
    for t in range(fa_gains.n):
        v, q = run.inputs(t, x)
        assert v.shape == (fa_model.d1,) and q.shape == (fa_model.d2,)
        np.testing.assert_allclose(np.concatenate([v, q]),
                                   -fa_gains.K[t] @ x + fa_gains.D[t] @ x_star,
                                   atol=1e-12)


def test_leader_only_independent_of_follower(fa_model):
    g1 = leader_only_gains(fa_model)
    # follower's matrices must not enter
    modified = SystemModel(fa_model.A, fa_model.B1, 2.0 * fa_model.B2,
                           fa_model.W, fa_model.F, fa_model.Fn, fa_model.G1,
                           5.0 * fa_model.G2, fa_model.Sigma0, fa_model.X0,
                           fa_model.n)
    g2 = leader_only_gains(modified)
    for t in range(fa_model.n):
        np.testing.assert_array_equal(g1.K[t], g2.K[t])
        np.testing.assert_array_equal(g1.D[t], g2.D[t])


def test_leader_only_scalar_matches_joint():
    m = scalar_model()
    g = leader_only_gains(m)
    assert g.K[0][0, 0] == pytest.approx(0.5)


def test_leader_only_requires_controllability():
    # A = I with a single-axis B1 spans only that axis
    m = SystemModel(A=np.eye(2), B1=[[1.0], [0.0]], B2=[[0.0], [1.0]],
                    W=np.eye(2), F=np.eye(2), Fn=np.eye(2), G1=[[1.0]],
                    G2=[[1.0]], Sigma0=np.eye(2), X0=np.eye(2), n=3)
    with pytest.raises(NotControllable):
        leader_only_gains(m)


def test_target_invariance(fa_model):
    # K_t and D_t never see x_*; excomm inputs are affine in it
    x = np.array([0.3, -0.1, 0.2, 0.5])
    xs1 = np.array([1.0, 0.0, 0.0, 0.0])
    xs2 = 3.0 * xs1
    u1 = excomm_inputs(fa_model, 2, x, xs1)
    u2 = excomm_inputs(fa_model, 2, x, xs2)
    u0 = excomm_inputs(fa_model, 2, x, 0.0 * xs1)
    np.testing.assert_allclose(u2 - u0, 3.0 * (u1 - u0), atol=1e-12)


def test_fixed_point_input(fa_model, fa_gains):
    xs = np.array([1.0, -1.0, 0.5, 0.0])
    u = excomm_inputs(fa_model, 0, xs, xs)
    np.testing.assert_allclose(u, (fa_gains.D[0] - fa_gains.K[0]) @ xs,
                               atol=1e-12)


# --- optimality oracles -------------------------------------------------------

def expected_cost_affine(model, x_star, Thetas, phis):
    """Exact expected cost of the affine policy u_t = Theta_t x_t + phi_t."""
    m = np.zeros(model.d0)
    P = model.X0.copy()
    total = 0.0
    for t in range(model.n):
        Th, ph = Thetas[t], phis[t]
        mu_u = Th @ m + ph
        dz = m - x_star
        total += dz @ model.F @ dz + np.trace(model.F @ P)
        total += mu_u @ model.G @ mu_u + np.trace(model.G @ (Th @ P @ Th.T))
        m = model.A @ m + model.B @ mu_u
        Acl = model.A + model.B @ Th
        P = Acl @ P @ Acl.T + model.W
    dz = m - x_star
    return float(total + dz @ model.Fn @ dz + np.trace(model.Fn @ P))


def gains_cost(model, gains, x_star):
    Thetas = [-gains.K[t] for t in range(model.n)]
    phis = [gains.D[t] @ x_star for t in range(model.n)]
    return expected_cost_affine(model, x_star, Thetas, phis)


def brute_force_cost(model, x_star):
    d, d0, n = model.d1 + model.d2, model.d0, model.n

    def unpack(v):
        Thetas, phis, off = [], [], 0
        for _ in range(n):
            Thetas.append(v[off:off + d * d0].reshape(d, d0))
            off += d * d0
            phis.append(v[off:off + d])
            off += d
        return Thetas, phis

    def obj(v):
        Th, ph = unpack(v)
        return expected_cost_affine(model, x_star, Th, ph)

    x0 = np.zeros(n * (d * d0 + d))
    res = scipy.optimize.minimize(obj, x0, method="Nelder-Mead",
                                  options=dict(maxiter=40000, maxfev=40000,
                                               xatol=1e-10, fatol=1e-12))
    res = scipy.optimize.minimize(obj, res.x, method="BFGS",
                                  options=dict(maxiter=2000, gtol=1e-12))
    return float(res.fun)


@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (1, 1, 1, 3), (2, 1, 1, 3)])
def test_dp_optimality_oracle(dims):
    d0, d1, d2, n = dims
    rng = np.random.default_rng(100 + n + d0)
    model = random_system(rng, d0, d1, d2, n)
    x_star = rng.uniform(-2.0, 2.0, d0)
    gains = backward_riccati(model)
    J_gain = gains_cost(model, gains, x_star)
    J_bf = brute_force_cost(model, x_star)
    assert abs(J_bf - J_gain) / abs(J_gain) < 1e-6
    # the brute force may only ever match, never beat, the DP solution
    assert J_bf >= J_gain - 1e-9 * abs(J_gain)


def test_bellman_perturbation_monotonicity(fa_model, fa_gains):
    rng = np.random.default_rng(7)
    x_star = np.array([-1.0, 2.0, 2.0, -2.0])
    J0 = gains_cost(fa_model, fa_gains, x_star)
    for _ in range(5):
        t = int(rng.integers(0, fa_model.n))
        dK = rng.standard_normal(fa_gains.K[t].shape)
        dK *= 1e-3 / np.linalg.norm(dK)
        Thetas = [-fa_gains.K[s] for s in range(fa_model.n)]
        phis = [fa_gains.D[s] @ x_star for s in range(fa_model.n)]
        Thetas[t] = Thetas[t] + dK
        assert expected_cost_affine(fa_model, x_star, Thetas, phis) >= J0 - 1e-12
