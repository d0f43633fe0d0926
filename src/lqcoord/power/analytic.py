"""Exact expected-cost engine: joint covariance propagation and its adjoint.

The stacked vector rho_t = (z_t, e_t, x_*) is linear-Gaussian under either
signaling scheme when the target is drawn from its prior:

    z_{t+1} = Abar_t z_t + Gbar_t e_t + C_t x_* + w_t
    e_{t+1} = E_t e_t - N_t w_t
    x_*     = x_*

with Abar_t = A - B K_t, C_t = Abar_t + B D_t - I, Gbar_t the signal-minus-
offset coefficient and (E_t, N_t) the error-recursion maps; N_t is the
decoder dec_t, since the follower subtracts dec_t y_t. `channel.channel_step`
gives both from the Sigma block of the joint covariance itself (not from
the closed-form recursion the rollout table uses, so the two stay an
independent check on each other). Propagating
Cov(rho_t) through these maps gives the exact covariance of every quantity
in the stage cost, so expected costs here match Monte Carlo up to sampling
noise, with no dropped terms. The Sigma block reproduces the closed-form
error-covariance recursion to machine precision (a useful self-check).

Initial blocks follow from z_0 = x_0 - x_*, e_0 = x_* with x_0 independent
of x_*: Z_0 = X0 + Sigma0, Cov(z_0, e_0) = Cov(z_0, x_*) = -Sigma0.

With T_t the joint transition, Nrho_t the noise map and Mu_t the input
map, P_{t+1} = T_t P_t T_t' + Nrho_t W Nrho_t' and the stage cost is
Tr(F Z_t) + Tr(G Mu_t P_t Mu_t'). `TailCostEvaluator.gradient` runs the
reverse (adjoint) recursion of this map for dE[J_n]/dLambda_t, reusing
the factors the forward pass kept: `step_and_cost` is the one forward step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel import (ChannelSetup, ChannelStep, block_schedule, channel_step,
                       channel_step_adjoint)
from ..errors import ValidationError
from ..gains import GainSchedule
from ..linalg import pinv_sqrt, sym_part
from ..model import SystemModel
from .schedules import PowerSchedule


@dataclass(frozen=True)
class MdpState:
    """Deterministic state of the power-design problem at step t.

    Holds the joint covariance of (z_t, e_t, x_*); Z, Sigma and the cross
    blocks are views into it. L = Omega Sigma^+ for reporting (identically
    -I in the fully actuated case).
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

    @property
    def L(self) -> np.ndarray:
        Sig = self.Sigma
        S12inv = pinv_sqrt(Sig)
        return self.Omega @ S12inv @ S12inv

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
class PlantStep:
    """The power-free part of the joint maps at step t, built once.

    T and Mu hold the plant terms with the encoder's share left out (signal
    block -B D_t, E block 0; estimate block -D_t) and Nrho the plant noise
    with its error block 0; `step_and_cost` fills in the channel's maps.
    k is the block sent at step t.
    """

    T: np.ndarray
    Nrho: np.ndarray
    Mu: np.ndarray
    k: int


def plant_steps(gains: GainSchedule, setup: ChannelSetup, model: SystemModel,
                block_order: list[int] | None = None) -> list[PlantStep]:
    """The power-free maps of steps 0..n-1."""
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
    """One step of the exact-cost engine: the stage cost at t, the advanced
    state and the maps that produced it (kept for the reverse pass)."""

    cost: float
    state: MdpState
    channel: ChannelStep
    T: np.ndarray
    Nrho: np.ndarray
    Mu: np.ndarray


def step_and_cost(state: MdpState, lam: np.ndarray, plant: PlantStep,
                  setup: ChannelSetup, model: SystemModel) -> JointStep:
    """Exact stage cost at state.t plus the advanced state, one pass.

    u_t = -K_t z_t + (D_t - K_t) x_* + (Itil enc - D_t) e_t, so Cov(u_t) is
    a congruence of the joint covariance.
    """
    d0, d1 = model.d0, model.d1
    step = channel_step(setup, state.Sigma, lam, plant.k)
    T, Nrho, Mu = plant.T.copy(), plant.Nrho.copy(), plant.Mu.copy()
    T[:d0, d0:2 * d0] += setup.B1 @ step.enc
    T[d0:2 * d0, d0:2 * d0] = step.E
    Nrho[d0:2 * d0] = -step.dec
    Mu[:d1, d0:2 * d0] += step.enc
    cov_u = Mu @ state.joint @ Mu.T
    cost = float(np.trace(model.F @ state.Z) + np.trace(model.G @ cov_u))
    joint = sym_part(T @ state.joint @ T.T + Nrho @ model.W @ Nrho.T)
    return JointStep(cost=cost, state=MdpState(joint=joint, t=state.t + 1),
                     channel=step, T=T, Nrho=Nrho, Mu=Mu)


def _forward(Lambda, plants: list[PlantStep], setup: ChannelSetup,
             model: SystemModel, state: MdpState) -> list[JointStep]:
    steps = []
    for t, plant in enumerate(plants):
        steps.append(step_and_cost(state, Lambda[t], plant, setup, model))
        state = steps[-1].state
    return steps


def _stage_costs(steps: list[JointStep], model: SystemModel) -> np.ndarray:
    """Stage costs, terminal Tr(Fn Z_n) last (length n+1)."""
    return np.array([s.cost for s in steps]
                    + [float(np.trace(model.Fn @ steps[-1].state.Z))])


def expected_stage_costs(schedule: PowerSchedule, gains: GainSchedule,
                         setup: ChannelSetup, model: SystemModel,
                         block_order: list[int] | None = None) -> np.ndarray:
    """Exact expected stage costs, terminal Tr(Fn Z_n) last (length n+1)."""
    schedule.check_fits(model.n, setup.r)
    steps = _forward(schedule.Lambda, plant_steps(gains, setup, model, block_order),
                     setup, model, MdpState.initial(model))
    return _stage_costs(steps, model)


class TailCostEvaluator:
    """Exact cost E[J_n] of power schedules and its gradient, for optimizers.

    The plant's maps and the initial state are built once. `cost(Lambda)`
    runs the forward pass and keeps its steps; `gradient()` runs the
    adjoint recursion over them,

        Pbar_n = Fn (Z block),
        Pbar_t = T' Pbar_{t+1} T + Mu' G Mu + F (Z block) + Sigma_bar_t,

    where Sigma_bar_t (Sigma block) is the gradient through Sigma_t's roots
    in the maps of step t, and returns dE[J_n]/dLambda_t for every entry.
    """

    def __init__(self, gains: GainSchedule, setup: ChannelSetup,
                 model: SystemModel, block_order: list[int] | None = None):
        self.setup, self.model = setup, model
        self.plants = plant_steps(gains, setup, model, block_order)
        self.initial = MdpState.initial(model)
        self.Lambda = np.zeros((0, setup.r))
        self.steps: list[JointStep] = []

    def cost(self, Lambda) -> float:
        """E[J_n] of the schedule Lambda (n entries of length r)."""
        self.Lambda = np.array(Lambda[:self.model.n], dtype=float)
        self.steps = _forward(self.Lambda, self.plants, self.setup,
                              self.model, self.initial)
        return float(_stage_costs(self.steps, self.model).sum())

    def gradient(self) -> np.ndarray:
        """dE[J_n]/dLambda of the last `cost` call, shape (n, r)."""
        if np.any(self.Lambda <= 0.0):
            t, j = np.argwhere(self.Lambda <= 0.0)[0]
            raise ValidationError(
                f"gradient needs positive power; Lambda_{t}[{j}] = "
                f"{self.Lambda[t, j]:.3g}")
        model, setup = self.model, self.setup
        d0, d1, G = model.d0, model.d1, model.G
        e = slice(d0, 2 * d0)
        Pbar = np.zeros((3 * d0, 3 * d0))
        Pbar[:d0, :d0] = model.Fn
        grad = np.empty_like(self.Lambda)
        for t in reversed(range(model.n)):
            step = self.steps[t]
            P = (self.steps[t - 1].state if t else self.initial).joint
            T, Nrho, Mu = step.T, step.Nrho, step.Mu
            PbarT, GMu = Pbar @ T, G @ Mu
            # the channel's maps fill T's signal and E blocks (column block
            # e), Nrho's error block and Mu's estimate block
            T_bar = 2.0 * PbarT @ P[:, e]
            enc_bar = setup.B1.T @ T_bar[:d0] + 2.0 * GMu[:d1] @ P[:, e]
            dec_bar = -2.0 * Pbar[e] @ Nrho @ model.W
            grad[t], Sigma_bar = channel_step_adjoint(
                setup, step.channel, self.Lambda[t], self.plants[t].k, enc_bar,
                dec_bar, T_bar[e])
            Pbar = sym_part(T.T @ PbarT + Mu.T @ GMu)
            Pbar[:d0, :d0] += model.F
            Pbar[e, e] += Sigma_bar
        return grad


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
    schedule.check_fits(model.n, setup.r)
    initial = MdpState.initial(model)
    steps = _forward(schedule.Lambda, plant_steps(gains, setup, model, block_order),
                     setup, model, initial)
    return [initial] + [s.state for s in steps]
