"""A policy's operator table and the exact expected-cost engine that reads it.

Every policy is one operator table (`StepOps`), stacked over its steps and
read by the rollouts and the engine alike: the joint input u_t = -K_t x_t
+ D*_t x_* + D^_t x_hat + I~ enc_t e_t and the follower's update x_hat +=
dec_t y_t from the channel output y_t, where e = x_* - x_hat evolves as
e_{t+1} = E_t e_t - dec_t w_t. `signaling_ops` builds the coordination
scheme's table (D* = 0, D^ = D, the channel maps from the one Sigma loop
`channel.sigma_steps`), `silent_ops` a baseline's, which sends nothing
(enc = dec = 0, E = I). D* is zero wherever dec is not, so the follower
only reads y_t = B1 enc_t e_t + w_t.

With z = x - x_*, the stacked vector rho_t = (z_t, e_t, x_*) is
linear-Gaussian for every policy when the target is drawn from its prior:

    u_t     = -K_t z_t + (I~ enc_t - D^_t) e_t + (D*_t + D^_t - K_t) x_*
    z_{t+1} = Abar_t z_t + (B1 enc_t - B D^_t) e_t + C_t x_* + w_t
    e_{t+1} = E_t e_t - dec_t w_t

with Abar_t = A - B K_t and C_t = Abar_t + B (D*_t + D^_t) - I.
Propagating Cov(rho_t) gives the exact covariance of every quantity in the
stage cost, so expected costs here match Monte Carlo up to sampling noise.

Initial blocks follow from z_0 = x_0 - x_*, e_0 = x_* with x_0 independent
of x_*: Z_0 = X0 + Sigma0, Cov(z_0, e_0) = Cov(z_0, x_*) = -Sigma0. A
table's own Sigma_t is the follower's reported uncertainty (zero for
ex-comm, which shares the target), not an engine input.

With T_t the joint transition, Nrho_t the noise map and Mu_t the input
map, P_{t+1} = T_t P_t T_t' + Nrho_t W Nrho_t' and the stage cost is
Tr(F Z_t) + Tr(G Mu_t P_t Mu_t'). `trajectory` fills T, Nrho and Mu of
all steps as stacked arrays, runs a serial loop on P_t and takes the
stage costs of all steps in one contraction over the stacked P_t.

`TailCostEvaluator.gradient` runs the reverse (adjoint) recursion of a
signaling table's map in the same shape: a serial loop that carries the
joint costate Pbar and takes the Sigma half's reverse pass at each step
from the table's stacked Sigma pass, then the power half's reverse pass
for all steps at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel import (ChannelSetup, PowerFactors, SigmaPass, block_schedule,
                       power_factors, power_factors_adjoint, sigma_step_adjoint,
                       sigma_steps)
from ..errors import ValidationError
from ..gains import GainSchedule
from ..linalg import eig_roots_kernels, sym_part
from ..model import SystemModel
from .schedules import PowerSchedule, ScheduleMode


def initial_joint(model: SystemModel) -> np.ndarray:
    """The joint covariance P_0 of (z_0, e_0, x_*)."""
    S0, X0 = model.Sigma0, model.X0
    return np.block([[X0 + S0, -S0, -S0], [-S0, S0, S0], [-S0, S0, S0]])


@dataclass(frozen=True)
class StepOps:
    """A policy's operator table: its maps of steps 0..n-1, stacked.

    Sigma holds the follower's error covariance Sigma_0..Sigma_n. Abar =
    A - B K and BD = B D^ are formed once. A signaling table keeps its
    channel's power half and Sigma pass (whose enc, dec, E and Sigma it
    reads) for the reverse pass.
    """

    K: np.ndarray        # (n, d1 + d2, d0) x -> joint feedback
    D_star: np.ndarray   # (n, d1 + d2, d0) x_* -> joint target offset
    D_hat: np.ndarray    # (n, d1 + d2, d0) x_hat -> joint estimate offset
    enc: np.ndarray      # (n, d1, d0) e -> leader signal s
    dec: np.ndarray      # (n, d0, d0) raw channel output y -> estimate of e
    E: np.ndarray        # (n, d0, d0) error map
    Sigma: np.ndarray    # (n + 1, d0, d0)
    Abar: np.ndarray     # A - B K
    BD: np.ndarray       # B D^
    power: PowerFactors | None = None
    sigma: SigmaPass | None = None


def signaling_ops(gains: GainSchedule, setup: ChannelSetup, model: SystemModel,
                  power: PowerSchedule, blocks: list[int]) -> StepOps:
    """The coordination scheme's table for a power schedule; blocks[t] is
    the block sent at step t."""
    power.check_fits(model.n, setup.r)
    factors = power_factors(setup, power.Lambda, blocks)
    sigma = sigma_steps(factors, model.Sigma0, model.W)
    K, D = np.array(gains.K), np.array(gains.D)
    return StepOps(K=K, D_star=np.zeros_like(D), D_hat=D, enc=sigma.enc,
                   dec=sigma.dec, E=sigma.E, Sigma=sigma.Sigma,
                   Abar=model.A - model.B @ K, BD=model.B @ D,
                   power=factors, sigma=sigma)


def silent_ops(model: SystemModel, K: np.ndarray, D_star: np.ndarray,
               Sigma: np.ndarray) -> StepOps:
    """A baseline's table: joint gains K and D* (n, d1 + d2, d0), no
    signal (enc = dec = D^ = 0, E = I) and Sigma_t = Sigma throughout."""
    n, d0 = model.n, model.d0
    zeros = np.zeros((n, d0, d0))
    return StepOps(K=K, D_star=D_star, D_hat=np.zeros_like(K),
                   enc=np.zeros((n, model.d1, d0)), dec=zeros,
                   E=np.broadcast_to(np.eye(d0), zeros.shape),
                   Sigma=np.broadcast_to(Sigma, (n + 1, d0, d0)),
                   Abar=model.A - model.B @ K, BD=zeros)


@dataclass(frozen=True)
class Trajectory:
    """One forward pass of the engine over an operator table.

    The table, the filled joint maps, the stage-cost weights (Tr(weight_t
    P_t) is the stage cost), the joint covariances P_0..P_n and the stage
    costs, terminal Tr(Fn Z_n) last.
    """

    ops: StepOps
    T: np.ndarray
    Nrho: np.ndarray
    Mu: np.ndarray
    weight: np.ndarray
    joint: np.ndarray
    costs: np.ndarray


def trajectory(ops: StepOps, model: SystemModel) -> Trajectory:
    """The engine's forward pass over the operator table of any policy."""
    d0, d1, n = model.d0, model.d1, model.n
    I = np.eye(d0)
    e, x = slice(d0, 2 * d0), slice(2 * d0, None)
    offset = ops.D_star + ops.D_hat
    T = np.zeros((n, 3 * d0, 3 * d0))
    T[:, :d0, :d0] = ops.Abar
    T[:, :d0, e] = model.B1 @ ops.enc - ops.BD
    T[:, :d0, x] = ops.Abar + model.B @ offset - I
    T[:, e, e] = ops.E
    T[:, x, x] = I
    Nrho = np.zeros((n, 3 * d0, d0))
    Nrho[:, :d0] = I
    Nrho[:, e] = -ops.dec
    signal = -ops.D_hat
    signal[:, :d1] += ops.enc
    Mu = np.concatenate([-ops.K, signal, offset - ops.K], axis=2)
    noise = Nrho @ model.W @ Nrho.swapaxes(1, 2)
    weight = Mu.swapaxes(1, 2) @ model.G @ Mu
    weight[:, :d0, :d0] += model.F
    joint = np.empty((n + 1, 3 * d0, 3 * d0))
    joint[0] = initial_joint(model)
    for t in range(n):
        joint[t + 1] = sym_part(T[t] @ joint[t] @ T[t].T + noise[t])
    costs = np.append(np.einsum("tij,tji->t", weight, joint[:n]),
                      np.trace(model.Fn @ joint[n, :d0, :d0]))
    return Trajectory(ops=ops, T=T, Nrho=Nrho, Mu=Mu, weight=weight,
                      joint=joint, costs=costs)


class TailCostEvaluator:
    """Exact cost E[J_n] of power schedules and its gradient, for optimizers.

    The block schedule is checked once. `cost(Lambda)` builds the
    signaling table of Lambda, runs the forward pass over it and keeps its
    `trajectory`; `gradient()` runs the adjoint recursion over it,

        Pbar_n = Fn (Z block),
        Pbar_t = T' Pbar_{t+1} T + Mu' G Mu + F (Z block) + Sigma_bar_t,

    where Sigma_bar_t (Sigma block) is the gradient through Sigma_t's roots
    in the maps of step t, and returns dE[J_n]/dLambda_t for every entry.
    """

    def __init__(self, gains: GainSchedule, setup: ChannelSetup,
                 model: SystemModel, block_order: list[int] | None = None):
        self.gains, self.setup, self.model = gains, setup, model
        self.blocks = block_schedule(setup, model.n, block_order)
        self.trajectory: Trajectory | None = None

    def cost(self, Lambda) -> float:
        """E[J_n] of the schedule Lambda, an (n, r) array of power entries."""
        schedule = PowerSchedule(mode=ScheduleMode.FULL_MATRIX, Lambda=Lambda)
        self.trajectory = trajectory(signaling_ops(
            self.gains, self.setup, self.model, schedule, self.blocks), self.model)
        return float(self.trajectory.costs.sum())

    def gradient(self) -> np.ndarray:
        """dE[J_n]/dLambda of the last `cost` call, shape (n, r)."""
        traj = self.trajectory
        if traj is None:
            raise ValidationError("gradient: no schedule evaluated yet; call cost")
        power, sigma = traj.ops.power, traj.ops.sigma
        lam = power.lam
        if np.any(lam <= 0.0):
            t, j = np.argwhere(lam <= 0.0)[0]
            raise ValidationError(
                f"gradient needs positive power; Lambda_{t}[{j}] = "
                f"{lam[t, j]:.3g}")
        model, setup = self.model, self.setup
        d0, d1, n = model.d0, model.d1, model.n
        e = slice(d0, 2 * d0)
        P, T = traj.joint, traj.T
        # the channel's maps fill T's signal and E blocks (column block e),
        # Nrho's error block and Mu's estimate block; the Mu share of
        # enc_bar needs no costate
        enc_bar = 2.0 * (model.G @ traj.Mu)[:, :d1] @ P[:n, :, e]
        dec_bar, E_bar = np.empty((2, n, d0, d0))
        NW = traj.Nrho @ model.W
        F_root, F_inv = eig_roots_kernels(sigma.H)
        Pbar = np.zeros((3 * d0, 3 * d0))
        Pbar[:d0, :d0] = model.Fn
        for t in reversed(range(n)):
            PbarT = Pbar @ T[t]
            T_bar = 2.0 * PbarT @ P[t][:, e]
            enc_bar[t] += setup.B1.T @ T_bar[:d0]
            dec_bar[t] = -2.0 * Pbar[e] @ NW[t]
            E_bar[t] = T_bar[e]
            Sigma_bar = sigma_step_adjoint(power, sigma, t, (F_root[t], F_inv[t]),
                                           enc_bar[t], dec_bar[t], E_bar[t])
            Pbar = sym_part(T[t].T @ PbarT + traj.weight[t])
            Pbar[e, e] += Sigma_bar
        return power_factors_adjoint(setup, power, sigma.Sig12, sigma.Sig12inv,
                                     enc_bar, dec_bar, E_bar)


def expected_total_cost(schedule: PowerSchedule, gains: GainSchedule,
                        setup: ChannelSetup, model: SystemModel,
                        block_order: list[int] | None = None) -> float:
    """Exact expected total cost E[J_n] of a signaling schedule."""
    ops = signaling_ops(gains, setup, model, schedule,
                        block_schedule(setup, model.n, block_order))
    return float(trajectory(ops, model).costs.sum())

