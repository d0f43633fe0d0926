"""Step-by-step reference for the exact-cost engine and its adjoint.

An independent oracle for `lqcoord.power.analytic`: the joint covariance
P_t of (z_t, e_t, x_*) is advanced one step at a time, each step building
its channel maps from the Sigma block of P_t as a one-step schedule
(`channel_oracle.one_step`) and filling them into that step's joint maps;
the gradient runs the matching one-step reverse pass
(`channel_oracle.one_step_adjoint`) backwards through the kept steps. The
package's engine instead builds the power half of every step at once, runs
one Sigma pass on d0 x d0 blocks and the joint recursion on stacked maps,
and assembles the power gradient of all steps in one call; on the same
schedule the two must agree to roundoff.

    P_{t+1} = T_t P_t T_t' + Nrho_t W Nrho_t'
    cost_t  = Tr(F Z_t) + Tr(G Mu_t P_t Mu_t'),    terminal Tr(Fn Z_n)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from channel_oracle import one_step, one_step_adjoint
from lqcoord.channel import block_schedule
from lqcoord.linalg import sym_part
from lqcoord.power.analytic import initial_joint


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


def step_and_cost(P, lam, plant, setup, model) -> JointStep:
    """Exact stage cost at the joint covariance P plus the advanced one."""
    d0, d1 = model.d0, model.d1
    e = slice(d0, 2 * d0)
    step = one_step(setup, P[e, e], lam, plant.k)
    T, Nrho, Mu = plant.T.copy(), plant.Nrho.copy(), plant.Mu.copy()
    T[:d0, e] += setup.B1 @ step.enc[0]
    T[e, e] = step.E[0]
    Nrho[e] = -step.dec[0]
    Mu[:d1, e] += step.enc[0]
    cov_u = Mu @ P @ Mu.T
    cost = float(np.trace(model.F @ P[:d0, :d0]) + np.trace(model.G @ cov_u))
    joint = sym_part(T @ P @ T.T + Nrho @ model.W @ Nrho.T)
    return JointStep(cost=cost, joint=joint, k=plant.k, T=T, Nrho=Nrho, Mu=Mu)


def forward(Lambda, gains, setup, model, block_order=None) -> list[JointStep]:
    plants = plant_steps(gains, setup, model, block_order)
    P, steps = initial_joint(model), []
    for t, plant in enumerate(plants):
        steps.append(step_and_cost(P, Lambda[t], plant, setup, model))
        P = steps[-1].joint
    return steps


def total_cost(steps, model) -> float:
    d0 = model.d0
    return float(sum(s.cost for s in steps)
                 + np.trace(model.Fn @ steps[-1].joint[:d0, :d0]))


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
