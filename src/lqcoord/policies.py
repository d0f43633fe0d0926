"""Agent-level control policies: the coordination scheme and its baselines.

Every policy runs on one operator table (`power.analytic.StepOps`), built
once per prepared policy and read by both the rollouts and the exact-cost
engine: at step t, the joint input u_t = -K_t x_t + D*_t x_* + D^_t x_hat
+ I~ enc_t e and the follower's update x_hat += dec_t y_t, e -= dec_t y_t
from the channel output y_t, where e = x_* - x_hat. The coordination
policies take enc_t and dec_t from the channel map (`signaling_ops`;
Sigma_t does not depend on the rollout, so the table is known before any
rollout); the baselines send nothing (`silent_ops`).

Offsets follow the follower's current estimate for BOTH agents: the leader
also uses D_t^l x_hat rather than its exact D_t^l x_*, which keeps the
channel output free of message-dependent bias and the error covariance
independent of the rollout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum

import numpy as np

from .channel import ChannelSetup, block_schedule, fa_setup, ua_setup
from .errors import ValidationError
from .gains import GainSchedule, backward_riccati, leader_only_gains
from .model import SystemModel
from .power.analytic import StepOps, signaling_ops, silent_ops
from .power.schedules import PowerSchedule, ScheduleMode, heuristic_schedule


class PolicyKind(Enum):
    EX_COMM = "ex-comm"
    LEADER_ONLY = "leader-only"
    NO_COMM = "no-comm"
    IM_COMM_FA = "im-comm-fa"
    IM_COMM_UA = "im-comm-ua"


# report labels of the coordination policies, by how their power was chosen
_POWER_LABELS = {ScheduleMode.HEURISTIC: "im-comm-heu",
                 ScheduleMode.SCALAR: "im-comm-opt",
                 ScheduleMode.FULL_MATRIX: "im-comm-num"}


@dataclass(frozen=True)
class PreparedPolicy:
    """Schedules and channel data computed once, shared across rollouts."""

    kind: PolicyKind
    model: SystemModel
    gains: GainSchedule
    setup: ChannelSetup | None = None
    power: PowerSchedule | None = None
    block_order: list[int] | None = field(default=None)

    def __post_init__(self):
        if self.tracks_sigma:
            self.power.check_fits(self.model.n, self.setup.r)

    @property
    def tracks_sigma(self) -> bool:
        return self.kind in (PolicyKind.IM_COMM_FA, PolicyKind.IM_COMM_UA)

    @property
    def label(self) -> str:
        """Report name: the baseline's kind, or how the signaling power was set."""
        if not self.tracks_sigma:
            return self.kind.value
        return _POWER_LABELS[self.power.mode]

    @cached_property
    def step_ops(self) -> StepOps:
        """The operator table of steps 0..n-1 and Sigma_0..Sigma_n.

        The baselines keep Sigma_t at zero once the target is shared
        (ex-comm), at Sigma0 otherwise. Their D* is D_t for ex-comm, [D_t^l;
        0] for no-comm (the follower regulates toward the origin) and the
        leader-alone D_t for leader-only, whose gains get zero follower rows.
        """
        model, gains = self.model, self.gains
        if self.tracks_sigma:
            return signaling_ops(gains, self.setup, model, self.power,
                                 block_schedule(self.setup, model.n,
                                                self.block_order))
        shared = self.kind is PolicyKind.EX_COMM
        K = np.zeros((model.n, model.d1 + model.d2, model.d0))
        D_star = np.zeros_like(K)
        K[:, :len(gains.K[0])] = gains.K
        keep = K.shape[1] if shared else model.d1
        D_star[:, :keep] = np.array(gains.D)[:, :keep]
        return silent_ops(model, K, D_star,
                          np.zeros_like(model.Sigma0) if shared else model.Sigma0)

    @cached_property
    def sigma_traces(self) -> np.ndarray:
        """Follower's target uncertainty Tr(Sigma_t), t = 0..n, from the table."""
        return np.trace(self.step_ops.Sigma, axis1=1, axis2=2)

    def start(self, x_star: np.ndarray) -> "RolloutPolicy":
        return RolloutPolicy(self, np.asarray(x_star, dtype=float))


class RolloutPolicy:
    """The agents' state along a batch of rollouts of a prepared policy.

    x_star, the follower's error e and its estimate x_hat share one shape:
    (d0,) for one run or (R, d0) for R runs, and every map is applied as
    `x @ M.T`, so the same code serves both. e + x_hat = x_* at every step.
    """

    def __init__(self, prepared: PreparedPolicy, x_star: np.ndarray):
        self.ops = prepared.step_ops
        self.d1 = prepared.model.d1
        self.x_star = x_star
        self.e = x_star.copy()
        self.x_hat = np.zeros_like(x_star)

    def inputs(self, t: int, x_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ops = self.ops
        u = (self.x_star @ ops.D_star[t].T + self.x_hat @ ops.D_hat[t].T
             - x_t @ ops.K[t].T)
        return u[..., :self.d1] + self.e @ ops.enc[t].T, u[..., self.d1:]

    def observe(self, t: int, x_t: np.ndarray, x_next: np.ndarray) -> None:
        ops = self.ops
        y = x_next - x_t @ ops.Abar[t].T - self.x_hat @ ops.BD[t].T  # channel output
        e_hat = y @ ops.dec[t].T
        self.e = self.e - e_hat
        self.x_hat = self.x_hat + e_hat


def make_policy(kind: PolicyKind, model: SystemModel, *,
                power: PowerSchedule | None = None, theta: float = 0.88,
                block_order: list[int] | None = None) -> PreparedPolicy:
    """Build a PreparedPolicy, deriving default schedules where needed."""
    if kind is PolicyKind.LEADER_ONLY:
        return PreparedPolicy(kind=kind, model=model,
                              gains=leader_only_gains(model))
    gains = backward_riccati(model)
    if kind in (PolicyKind.EX_COMM, PolicyKind.NO_COMM):
        return PreparedPolicy(kind=kind, model=model, gains=gains)
    if kind is PolicyKind.IM_COMM_FA:
        if not model.leader_fully_actuated():
            raise ValidationError("im-comm-fa requires rank(B1) = d0")
        setup = fa_setup(model.B1, model.W)
    elif kind is PolicyKind.IM_COMM_UA:
        setup = ua_setup(model.B1, model.W)
    else:
        raise ValidationError(f"unknown policy kind {kind}")
    if power is None:
        power = heuristic_schedule(theta, model.n, setup.r)
    block_schedule(setup, model.n, block_order)  # reject a bad order now
    return PreparedPolicy(kind=kind, model=model, gains=gains, setup=setup,
                          power=power, block_order=block_order)
