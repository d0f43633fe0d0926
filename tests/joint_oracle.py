"""Step-by-step joint-covariance reference for exact costs and their adjoint.

An independent oracle for `lqcoord.power.analytic`, which prices a
signaling schedule by the full-information cost identity on the d0 x d0
error covariance alone. Here the joint covariance P_t of (z_t, e_t, x_*),
z = x - x_*, is advanced one step at a time and the stage costs are read
off it:

    P_{t+1} = T_t P_t T_t' + Nrho_t W Nrho_t'
    cost_t  = Tr(F Z_t) + Tr(G Mu_t P_t Mu_t'),    terminal Tr(Fn Z_n)

with T_t the joint transition, Nrho_t the noise map and Mu_t the input
map. P_0 follows from z_0 = x_0 - x_*, e_0 = x_* with x_0 independent of
x_*. Two routes fill in the maps:

- `table_forward` reads every map from any policy's operator table
  (`StepOps`, baselines included), and `mp_table_cost` prices that
  propagation to 30 digits;
- `forward` builds each step's channel maps from the Sigma block of P_t
  as a one-step schedule (`channel_oracle.one_step`), and `gradient` runs
  the matching one-step reverse pass (`channel_oracle.one_step_adjoint`)
  backwards through the kept steps.

On the same schedule the package and the oracle must agree to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from channel_oracle import one_step, one_step_adjoint
from lqcoord.channel import block_schedule
from lqcoord.linalg import sym_part


def initial_joint(model) -> np.ndarray:
    """The joint covariance P_0 of (z_0, e_0, x_*)."""
    S0, X0 = model.Sigma0, model.X0
    return np.block([[X0 + S0, -S0, -S0], [-S0, S0, S0], [-S0, S0, S0]])


@dataclass(frozen=True)
class PlantStep:
    """The power-free joint maps of one step and the block it sends."""

    T: np.ndarray
    Nrho: np.ndarray
    Mu: np.ndarray
    k: int


def plant_steps(gains, setup, model, block_order=None) -> list[PlantStep]:
    d0 = model.d0
    Z0, I = np.zeros((d0, d0)), np.eye(d0)
    plants = []
    for t, k in enumerate(block_schedule(setup, model.n, block_order)):
        K, D = gains.K[t], gains.D[t]
        Abar = model.A - model.B @ K
        BD = model.B @ D
        plants.append(PlantStep(
            T=np.block([[Abar, -BD, Abar + BD - I], [Z0, Z0, Z0], [Z0, Z0, I]]),
            Nrho=np.vstack([I, Z0, Z0]), Mu=np.hstack([-K, -D, D - K]), k=k))
    return plants


@dataclass(frozen=True)
class JointStep:
    """Stage cost at t, the advanced joint covariance P_{t+1} and the maps
    (block k sent) that produced it."""

    cost: float
    joint: np.ndarray
    k: int
    T: np.ndarray
    Nrho: np.ndarray
    Mu: np.ndarray


def advance(P, T, Nrho, Mu, model, k=0) -> JointStep:
    """Exact stage cost at the joint covariance P plus the advanced one."""
    d0 = model.d0
    cost = float(np.trace(model.F @ P[:d0, :d0]) + np.trace(model.G @ Mu @ P @ Mu.T))
    joint = sym_part(T @ P @ T.T + Nrho @ model.W @ Nrho.T)
    return JointStep(cost=cost, joint=joint, k=k, T=T, Nrho=Nrho, Mu=Mu)


def step_and_cost(P, lam, plant, setup, model) -> JointStep:
    """`advance` with the channel maps of power lam built from P's Sigma block."""
    d0, d1 = model.d0, model.d1
    e = slice(d0, 2 * d0)
    step = one_step(setup, P[e, e], lam, plant.k)
    T, Nrho, Mu = plant.T.copy(), plant.Nrho.copy(), plant.Mu.copy()
    T[:d0, e] += setup.B1 @ step.enc[0]
    T[e, e] = step.E[0]
    Nrho[e] = -step.dec[0]
    Mu[:d1, e] += step.enc[0]
    return advance(P, T, Nrho, Mu, model, plant.k)


def forward(Lambda, gains, setup, model, block_order=None) -> list[JointStep]:
    plants = plant_steps(gains, setup, model, block_order)
    P, steps = initial_joint(model), []
    for t, plant in enumerate(plants):
        steps.append(step_and_cost(P, Lambda[t], plant, setup, model))
        P = steps[-1].joint
    return steps


def table_maps(ops, model, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The joint maps (T, Nrho, Mu) of step t of any policy's operator table.

    u = -K z + (I~ enc - D^) e + (D* + D^ - K) x_*, so z_{t+1} = Abar z +
    (B1 enc - B D^) e + (Abar + B (D* + D^) - I) x_* + w, and e_{t+1} = E
    e - dec w.
    """
    d0 = model.d0
    Z0, I = np.zeros((d0, d0)), np.eye(d0)
    enc, dec, Abar = ops.enc[t], ops.dec[t], ops.Abar[t]
    offset = ops.D_star[t] + ops.D_hat[t]
    T = np.block([[Abar, model.B1 @ enc - ops.BD[t], Abar + model.B @ offset - I],
                  [Z0, ops.E[t], Z0], [Z0, Z0, I]])
    Mu = np.hstack([-ops.K[t], model.leader_embed @ enc - ops.D_hat[t],
                    offset - ops.K[t]])
    return T, np.vstack([I, -dec, Z0]), Mu


def table_forward(ops, model) -> list[JointStep]:
    """The steps of any policy's operator table `ops` (`table_maps`)."""
    P, steps = initial_joint(model), []
    for t in range(model.n):
        steps.append(advance(P, *table_maps(ops, model, t), model))
        P = steps[-1].joint
    return steps


def joints(steps, model) -> np.ndarray:
    """P_0..P_n along the steps."""
    return np.array([initial_joint(model)] + [s.joint for s in steps])


def total_cost(steps, model) -> float:
    d0 = model.d0
    return float(sum(s.cost for s in steps)
                 + np.trace(model.Fn @ steps[-1].joint[:d0, :d0]))


def table_cost(ops, model) -> float:
    """Exact expected cost of any policy's operator table."""
    return total_cost(table_forward(ops, model), model)


def mp_table_cost(ops, model, dps: int = 30) -> float:
    """`table_cost` evaluated with mpmath to `dps` digits, the table's
    float64 maps and the model taken as exact: the price of the table free
    of the roundoff a float64 propagation through its maps adds."""
    def mat(X):
        return mpmath.matrix(np.asarray(X).tolist())

    def trace(X):
        return mpmath.fsum(X[i, i] for i in range(X.rows))

    d0 = model.d0
    with mpmath.workdps(dps):
        F, G, W = mat(model.F), mat(model.G), mat(model.W)
        P, cost = mat(initial_joint(model)), mpmath.mpf(0)
        for t in range(model.n):
            T, Nrho, Mu = (mat(X) for X in table_maps(ops, model, t))
            cost += trace(F * P[:d0, :d0]) + trace(G * Mu * P * Mu.T)
            P = T * P * T.T + Nrho * W * Nrho.T
        return float(cost + trace(mat(model.Fn) * P[:d0, :d0]))


def gradient(steps, Lambda, setup, model) -> np.ndarray:
    """dE[J_n]/dLambda by the reverse recursion through the kept steps."""
    d0, d1, G = model.d0, model.d1, model.G
    e = slice(d0, 2 * d0)
    Pbar = np.zeros((3 * d0, 3 * d0))
    Pbar[:d0, :d0] = model.Fn
    grad = np.empty((model.n, setup.r))
    for t in reversed(range(model.n)):
        step = steps[t]
        P = steps[t - 1].joint if t else initial_joint(model)
        T, Nrho, Mu = step.T, step.Nrho, step.Mu
        PbarT, GMu = Pbar @ T, G @ Mu
        T_bar = 2.0 * PbarT @ P[:, e]
        enc_bar = setup.B1.T @ T_bar[:d0] + 2.0 * GMu[:d1] @ P[:, e]
        dec_bar = -2.0 * Pbar[e] @ Nrho @ model.W
        grad[t], Sigma_bar = one_step_adjoint(setup, P[e, e], Lambda[t], step.k,
                                              enc_bar, dec_bar, T_bar[e])
        Pbar = sym_part(T.T @ PbarT + Mu.T @ GMu)
        Pbar[:d0, :d0] += model.F
        Pbar[e, e] += Sigma_bar
    return grad
