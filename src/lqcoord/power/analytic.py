"""Exact expected-cost engine: joint covariance propagation.

The stacked vector rho_t = (z_t, e_t, x_*) is linear-Gaussian under either
signaling scheme when the target is drawn from its prior:

    z_{t+1} = Abar_t z_t + Gbar_t e_t + C_t x_* + w_t
    e_{t+1} = E_t e_t - N_t w_t
    x_*     = x_*

with Abar_t = A - B K_t, C_t = Abar_t + B D_t - I, Gbar_t the signal-minus-
offset coefficient and (E_t, N_t) the error-recursion maps, which
`channel.channel_step` gives from the Sigma block of the joint covariance
itself (not from the closed-form recursion the rollout table uses, so the
two stay an independent check on each other). Propagating
Cov(rho_t) through these maps gives the exact covariance of every quantity
in the stage cost, so expected costs here match Monte Carlo up to sampling
noise, with no dropped terms. The Sigma block reproduces the closed-form
error-covariance recursion to machine precision (a useful self-check).

Initial blocks follow from z_0 = x_0 - x_*, e_0 = x_* with x_0 independent
of x_*: Z_0 = X0 + Sigma0, Cov(z_0, e_0) = Cov(z_0, x_*) = -Sigma0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel import ChannelSetup, block_schedule, channel_step
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


def step_and_cost(state: MdpState, lam: np.ndarray, gains: GainSchedule,
                  setup: ChannelSetup, model: SystemModel,
                  k: int | None = None) -> tuple[float, MdpState]:
    """Exact stage cost at state.t plus the advanced state, one pass.

    u_t = -K_t z_t + (D_t - K_t) x_* + (Itil enc - D_t) e_t, so Cov(u_t) is
    a congruence of the joint covariance.
    """
    t = state.t
    d0 = model.d0
    Abar = model.A - model.B @ gains.K[t]
    BD = model.B @ gains.D[t]
    Ct = Abar + BD - np.eye(d0)
    step = channel_step(setup, state.Sigma, lam, k)
    Gbar = setup.B1 @ step.enc - BD
    Z0 = np.zeros((d0, d0))
    T = np.block([
        [Abar, Gbar, Ct],
        [Z0, step.E, Z0],
        [Z0, Z0, np.eye(d0)],
    ])
    Nrho = np.vstack([np.eye(d0), -step.N, Z0])
    Xi_hat = model.leader_embed @ step.enc - gains.D[t]
    Mu = np.hstack([-gains.K[t], Xi_hat, gains.D[t] - gains.K[t]])
    cov_u = Mu @ state.joint @ Mu.T
    cost = float(np.trace(model.F @ state.Z) + np.trace(model.G @ cov_u))
    joint = sym_part(T @ state.joint @ T.T + Nrho @ model.W @ Nrho.T)
    return cost, MdpState(joint=joint, t=t + 1)


def expected_stage_costs(schedule: PowerSchedule, gains: GainSchedule,
                         setup: ChannelSetup, model: SystemModel,
                         block_order: list[int] | None = None) -> np.ndarray:
    """Exact expected stage costs, terminal Tr(Fn Z_n) last (length n+1)."""
    ks = block_schedule(setup, model.n, block_order)
    state = MdpState.initial(model)
    costs = np.empty(model.n + 1)
    for t in range(model.n):
        costs[t], state = step_and_cost(state, schedule.lam(t), gains, setup,
                                        model, ks[t])
    costs[model.n] = float(np.trace(model.Fn @ state.Z))
    return costs


class TailCostEvaluator:
    """Incremental schedule cost for coordinate-wise optimizers.

    Caches the state/cost prefix keyed on the power entries themselves, so
    changing the power at step t only recomputes steps t..n regardless of
    the caller's probing order.
    """

    def __init__(self, gains: GainSchedule, setup: ChannelSetup,
                 model: SystemModel, blocks: list[int | None]):
        self.gains, self.setup, self.model = gains, setup, model
        self.blocks = blocks
        self.states: list[MdpState] = [MdpState.initial(model)]
        self.costs: list[float] = []
        self.cached: list[np.ndarray] = []

    def cost(self, Lambda: list[np.ndarray]) -> float:
        keep = 0
        while (keep < len(self.cached) and keep < len(Lambda)
               and np.array_equal(self.cached[keep], Lambda[keep])):
            keep += 1
        del self.states[keep + 1:]
        del self.costs[keep:]
        del self.cached[keep:]
        state = self.states[keep]
        for t in range(keep, self.model.n):
            c, state = step_and_cost(state, Lambda[t], self.gains, self.setup,
                                     self.model, self.blocks[t])
            self.costs.append(c)
            self.states.append(state)
            self.cached.append(np.array(Lambda[t], copy=True))
        return float(np.sum(self.costs) + np.trace(self.model.Fn @ state.Z))


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
    ks = block_schedule(setup, model.n, block_order)
    states = [MdpState.initial(model)]
    for t in range(model.n):
        states.append(step_and_cost(states[-1], schedule.lam(t), gains, setup,
                                    model, ks[t])[1])
    return states
