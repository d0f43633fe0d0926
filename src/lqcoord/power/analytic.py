"""Exact expected-cost engine: joint covariance propagation and its adjoint.

The stacked vector rho_t = (z_t, e_t, x_*) is linear-Gaussian under either
signaling scheme when the target is drawn from its prior:

    z_{t+1} = Abar_t z_t + Gbar_t e_t + C_t x_* + w_t
    e_{t+1} = E_t e_t - N_t w_t
    x_*     = x_*

with Abar_t = A - B K_t, C_t = Abar_t + B D_t - I, Gbar_t the signal-minus-
offset coefficient and (E_t, N_t) the error-recursion maps; N_t is the
decoder dec_t, since the follower subtracts dec_t y_t. Propagating
Cov(rho_t) through these maps gives the exact covariance of every quantity
in the stage cost, so expected costs here match Monte Carlo up to sampling
noise, with no dropped terms.

Initial blocks follow from z_0 = x_0 - x_*, e_0 = x_* with x_0 independent
of x_*: Z_0 = X0 + Sigma0, Cov(z_0, e_0) = Cov(z_0, x_*) = -Sigma0.

With T_t the joint transition, Nrho_t the noise map and Mu_t the input
map, P_{t+1} = T_t P_t T_t' + Nrho_t W Nrho_t' and the stage cost is
Tr(F Z_t) + Tr(G Mu_t P_t Mu_t'). A schedule is evaluated in three stages:

1. the channel map's power half for all steps at once
   (`channel.power_factors`), then its Sigma half along the schedule
   (`channel.sigma_steps`, the loop the rollout table runs too): at Sigma_t
   it gives enc_t, dec_t, E_t and Sigma_{t+1} = E_t Sigma_t E_t' +
   dec_t W dec_t', the error block of the joint recursion itself;
2. T_t, Nrho_t and Mu_t of all steps, filled in as stacked arrays;
3. a serial loop on the joint covariance P_t, after which the stage costs
   of all steps come from one contraction over the stacked P_t.

`TailCostEvaluator.gradient` runs the reverse (adjoint) recursion of this
map in the same shape: a serial loop that carries the joint costate Pbar
and the Sigma half's reverse pass, then the power half's reverse pass for
all steps at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel import (ChannelSetup, ChannelStep, PowerFactors, block_schedule,
                       power_factors, power_factors_adjoint, sigma_step_adjoint,
                       sigma_steps)
from ..errors import ValidationError
from ..gains import GainSchedule
from ..linalg import eig_roots_kernels, sym_part
from ..model import SystemModel
from .schedules import PowerSchedule, ScheduleMode


@dataclass(frozen=True)
class MdpState:
    """Deterministic state of the power-design problem at step t.

    Holds the joint covariance of (z_t, e_t, x_*); Z, Sigma and the cross
    blocks are views into it.
    """

    joint: np.ndarray
    t: int

    @property
    def d0(self) -> int:
        return self.joint.shape[0] // 3

    @property
    def Z(self) -> np.ndarray:
        d0 = self.d0
        return self.joint[:d0, :d0]

    @property
    def Sigma(self) -> np.ndarray:
        d0 = self.d0
        return self.joint[d0:2 * d0, d0:2 * d0]

    @property
    def Omega(self) -> np.ndarray:
        """Cov(z_t, e_t)."""
        d0 = self.d0
        return self.joint[:d0, d0:2 * d0]

    @property
    def Xi(self) -> np.ndarray:
        """Cov(z_t, x_*)."""
        d0 = self.d0
        return self.joint[:d0, 2 * d0:]

    @classmethod
    def initial(cls, model: SystemModel) -> "MdpState":
        S0, X0 = model.Sigma0, model.X0
        joint = np.block([
            [X0 + S0, -S0, -S0],
            [-S0, S0, S0],
            [-S0, S0, S0],
        ])
        return cls(joint=joint, t=0)


@dataclass(frozen=True)
class PlantMaps:
    """The power-free part of the joint maps of steps 0..n-1, stacked.

    T and Mu hold the plant terms with the encoder's share left out (signal
    block -B D_t, E block 0; estimate block -D_t) and Nrho the plant noise
    with its error block 0; the engine fills in the channel's maps.
    blocks[t] is the block sent at step t.
    """

    T: np.ndarray        # (n, 3 d0, 3 d0)
    Nrho: np.ndarray     # (n, 3 d0, d0)
    Mu: np.ndarray       # (n, d1 + d2, 3 d0)
    blocks: list[int]


def plant_maps(gains: GainSchedule, setup: ChannelSetup, model: SystemModel,
               block_order: list[int] | None = None) -> PlantMaps:
    """The power-free maps of steps 0..n-1."""
    d0, n = model.d0, model.n
    I = np.eye(d0)
    K, D = np.array(gains.K[:n]), np.array(gains.D[:n])
    Abar = model.A - model.B @ K
    BD = model.B @ D
    T = np.zeros((n, 3 * d0, 3 * d0))
    T[:, :d0, :d0] = Abar
    T[:, :d0, d0:2 * d0] = -BD
    T[:, :d0, 2 * d0:] = Abar + BD - I
    T[:, 2 * d0:, 2 * d0:] = I
    Nrho = np.zeros((n, 3 * d0, d0))
    Nrho[:, :d0] = I
    return PlantMaps(T=T, Nrho=Nrho, Mu=np.concatenate([-K, -D, D - K], axis=2),
                     blocks=block_schedule(setup, n, block_order))


@dataclass(frozen=True)
class Trajectory:
    """One forward pass of the engine over a schedule.

    The power half and the channel's steps, the filled joint maps, the
    stage-cost weights (Tr(weight_t P_t) is the stage cost), the joint
    covariances P_0..P_n and the stage costs, terminal Tr(Fn Z_n) last.
    """

    power: PowerFactors
    channel: list[ChannelStep]
    T: np.ndarray
    Nrho: np.ndarray
    Mu: np.ndarray
    weight: np.ndarray
    joint: np.ndarray
    costs: np.ndarray

    def state(self, t: int) -> MdpState:
        """The deterministic state at step t = 0..n."""
        return MdpState(joint=self.joint[t], t=t)


def _run(lam: np.ndarray, plant: PlantMaps, setup: ChannelSetup,
         model: SystemModel) -> Trajectory:
    d0, d1, n, W = model.d0, model.d1, model.n, model.W
    e = slice(d0, 2 * d0)
    power = power_factors(setup, lam, plant.blocks)
    channel = sigma_steps(power, model.Sigma0, W)
    enc = np.array([s.enc for s in channel])
    T, Nrho, Mu = plant.T.copy(), plant.Nrho.copy(), plant.Mu.copy()
    # u_t = -K_t z_t + (D_t - K_t) x_* + (Itil enc - D_t) e_t
    T[:, :d0, e] += setup.B1 @ enc
    T[:, e, e] = [s.E for s in channel]
    Nrho[:, e] = [-s.dec for s in channel]
    Mu[:, :d1, e] += enc
    noise = Nrho @ W @ Nrho.swapaxes(1, 2)
    weight = Mu.swapaxes(1, 2) @ model.G @ Mu
    weight[:, :d0, :d0] += model.F
    joint = np.empty((n + 1, 3 * d0, 3 * d0))
    joint[0] = MdpState.initial(model).joint
    for t in range(n):
        joint[t + 1] = sym_part(T[t] @ joint[t] @ T[t].T + noise[t])
    costs = np.append(np.einsum("tij,tji->t", weight, joint[:n]),
                      np.trace(model.Fn @ joint[n, :d0, :d0]))
    return Trajectory(power=power, channel=channel, T=T, Nrho=Nrho, Mu=Mu,
                      weight=weight, joint=joint, costs=costs)


def _trajectory(schedule: PowerSchedule, gains: GainSchedule,
                setup: ChannelSetup, model: SystemModel,
                block_order: list[int] | None) -> Trajectory:
    schedule.check_fits(model.n, setup.r)
    return _run(schedule.Lambda, plant_maps(gains, setup, model, block_order),
                setup, model)


def expected_stage_costs(schedule: PowerSchedule, gains: GainSchedule,
                         setup: ChannelSetup, model: SystemModel,
                         block_order: list[int] | None = None) -> np.ndarray:
    """Exact expected stage costs, terminal Tr(Fn Z_n) last (length n+1)."""
    return _trajectory(schedule, gains, setup, model, block_order).costs


class TailCostEvaluator:
    """Exact cost E[J_n] of power schedules and its gradient, for optimizers.

    The plant's maps are built once. `cost(Lambda)` runs the forward pass
    and keeps its `trajectory`; `gradient()` runs the adjoint recursion
    over it,

        Pbar_n = Fn (Z block),
        Pbar_t = T' Pbar_{t+1} T + Mu' G Mu + F (Z block) + Sigma_bar_t,

    where Sigma_bar_t (Sigma block) is the gradient through Sigma_t's roots
    in the maps of step t, and returns dE[J_n]/dLambda_t for every entry.
    """

    def __init__(self, gains: GainSchedule, setup: ChannelSetup,
                 model: SystemModel, block_order: list[int] | None = None):
        self.setup, self.model = setup, model
        self.plant = plant_maps(gains, setup, model, block_order)
        self.trajectory: Trajectory | None = None

    def cost(self, Lambda) -> float:
        """E[J_n] of the schedule Lambda, an (n, r) array of power entries."""
        schedule = PowerSchedule(mode=ScheduleMode.FULL_MATRIX, Lambda=Lambda)
        schedule.check_fits(self.model.n, self.setup.r)
        self.trajectory = _run(schedule.Lambda, self.plant, self.setup, self.model)
        return float(self.trajectory.costs.sum())

    def gradient(self) -> np.ndarray:
        """dE[J_n]/dLambda of the last `cost` call, shape (n, r)."""
        traj = self.trajectory
        if traj is None:
            raise ValidationError("gradient: no schedule evaluated yet; call cost")
        lam = traj.power.lam
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
        F_root, F_inv = eig_roots_kernels(np.array([s.sigma_eig.H
                                                    for s in traj.channel]))
        Pbar = np.zeros((3 * d0, 3 * d0))
        Pbar[:d0, :d0] = model.Fn
        for t in reversed(range(n)):
            PbarT = Pbar @ T[t]
            T_bar = 2.0 * PbarT @ P[t][:, e]
            enc_bar[t] += setup.B1.T @ T_bar[:d0]
            dec_bar[t] = -2.0 * Pbar[e] @ NW[t]
            E_bar[t] = T_bar[e]
            Sigma_bar = sigma_step_adjoint(traj.channel[t], (F_root[t], F_inv[t]),
                                           enc_bar[t], dec_bar[t], E_bar[t])
            Pbar = sym_part(T[t].T @ PbarT + traj.weight[t])
            Pbar[e, e] += Sigma_bar
        return power_factors_adjoint(
            setup, traj.power, np.array([s.Sig12 for s in traj.channel]),
            np.array([s.Sig12inv for s in traj.channel]), enc_bar, dec_bar, E_bar)


def expected_total_cost(schedule: PowerSchedule, gains: GainSchedule,
                        setup: ChannelSetup, model: SystemModel,
                        block_order: list[int] | None = None) -> float:
    """Exact expected total cost E[J_n] of a signaling schedule."""
    return float(expected_stage_costs(schedule, gains, setup, model,
                                      block_order).sum())


def state_trajectory(schedule: PowerSchedule, gains: GainSchedule,
                     setup: ChannelSetup, model: SystemModel,
                     block_order: list[int] | None = None) -> list[MdpState]:
    """All n+1 deterministic states along a schedule (diagnostics/oracles)."""
    traj = _trajectory(schedule, gains, setup, model, block_order)
    return [traj.state(t) for t in range(model.n + 1)]
