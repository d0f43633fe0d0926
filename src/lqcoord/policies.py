"""Agent-level control policies: the coordination scheme and its baselines.

The coordination policies (leader signals through the plant, follower
decodes) run on an operator table built once per prepared policy: Sigma_t
follows a noise-free recursion, so `channel.channel_step` gives every
step's encoder and decoder ahead of the rollouts. Everything the agents
share is deterministic given the common state trajectory, so one estimate
update is computed and shared by both. Baselines are stateless maps of
(x_t, x_*).

Offsets follow the follower's current estimate for BOTH agents: the leader
also uses D_t^l x_hat rather than its exact D_t^l x_*, which keeps the
channel output free of message-dependent bias and the error covariance in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum

import numpy as np

from .channel import (ChannelSetup, block_schedule, channel_step, fa_setup,
                      ua_setup)
from .errors import DimensionMismatch, ValidationError
from .gains import GainSchedule, backward_riccati, leader_only_gains
from .model import SystemModel
from .power.schedules import PowerSchedule, ScheduleMode, heuristic_schedule


class PolicyKind(Enum):
    EX_COMM = "ex-comm"
    LEADER_ONLY = "leader-only"
    NO_COMM = "no-comm"
    IM_COMM_FA = "im-comm-fa"
    IM_COMM_UA = "im-comm-ua"


def baseline_inputs(kind: PolicyKind, gains: GainSchedule, t: int,
                    x_t: np.ndarray, x_star: np.ndarray,
                    d2: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Inputs of the non-coordinating policies.

    EX_COMM: both agents know the target. LEADER_ONLY: gains must be the
    leader-alone schedule; the follower applies zero (d2 sizes it).
    NO_COMM: the follower never learns the target and regulates toward the
    origin; the leader keeps its own true-target offset.
    """
    if kind is PolicyKind.EX_COMM:
        u = -gains.K[t] @ x_t + gains.D[t] @ x_star
        return u[: gains.d1], u[gains.d1:]
    if kind is PolicyKind.LEADER_ONLY:
        if d2 is None:
            raise DimensionMismatch("leader-only inputs need the follower width d2")
        v = -gains.K[t] @ x_t + gains.D[t] @ x_star
        return v, np.zeros(d2)
    if kind is PolicyKind.NO_COMM:
        v = -gains.K_l(t) @ x_t + gains.D_l(t) @ x_star
        q = -gains.K_f(t) @ x_t
        return v, q
    raise ValidationError(f"{kind} is not a baseline policy")


@dataclass(frozen=True)
class _StepOps:
    """Per-step operators of a coordination policy, shared by all rollouts.

    The encode/decode gains depend only on (t, Lambda_t, Sigma_t), and
    Sigma_t follows a noise-free recursion; hoisting them out of the
    rollout loop removes every eigendecomposition from the hot path.
    """

    enc: np.ndarray      # e -> leader signal s
    dec: np.ndarray      # raw channel output y -> estimate of e
    Abar: np.ndarray     # A - B K_t
    BD: np.ndarray       # B D_t
    Sigma: np.ndarray    # follower's error covariance Sigma_t
    sigma_trace: float


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
    def step_ops(self) -> tuple[list[_StepOps], float] | None:
        """Operator table (one entry per step) plus the terminal Tr(Sigma_n)."""
        if not self.tracks_sigma:
            return None
        model, gains, setup, power = self.model, self.gains, self.setup, self.power
        if power.n < model.n:
            raise ValidationError(
                f"power schedule has {power.n} steps, horizon needs {model.n}")
        Sigma = model.Sigma0.copy()
        ops = []
        for t, k in enumerate(block_schedule(setup, model.n, self.block_order)):
            step = channel_step(setup, Sigma, power.lam(t), k)
            ops.append(_StepOps(enc=step.enc, dec=step.dec,
                                Abar=model.A - model.B @ gains.K[t],
                                BD=model.B @ gains.D[t], Sigma=Sigma,
                                sigma_trace=float(np.trace(Sigma))))
            Sigma = step.Sigma_next
        return ops, float(np.trace(Sigma))

    def start(self, x_star: np.ndarray) -> "RolloutPolicy":
        return RolloutPolicy(self, np.asarray(x_star, dtype=float))


class RolloutPolicy:
    """Per-rollout mutable view of a prepared policy.

    Coordination rollouts run on the precomputed operator table and keep
    the follower's error e and estimate x_hat; e + x_hat = x_* at every step.
    """

    def __init__(self, prepared: PreparedPolicy, x_star: np.ndarray):
        self.prepared = prepared
        self.x_star = x_star
        self.e: np.ndarray | None = None
        if prepared.tracks_sigma:
            self.e = x_star.copy()
            self.x_hat = np.zeros_like(x_star)
            self.ops, self.final_trace = prepared.step_ops
            self.t = 0

    def inputs(self, t: int, x_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.e is None:
            return baseline_inputs(self.prepared.kind, self.prepared.gains, t,
                                   x_t, self.x_star,
                                   d2=self.prepared.model.d2)
        g = self.prepared.gains
        s = self.ops[t].enc @ self.e
        v = -g.K_l(t) @ x_t + g.D_l(t) @ self.x_hat + s
        q = -g.K_f(t) @ x_t + g.D_f(t) @ self.x_hat
        return v, q

    def observe(self, t: int, x_t: np.ndarray, x_next: np.ndarray) -> None:
        if self.e is None:
            return
        op = self.ops[t]
        y = x_next - op.Abar @ x_t - op.BD @ self.x_hat
        e_hat = op.dec @ y
        self.e = self.e - e_hat
        self.x_hat = self.x_hat + e_hat
        self.t = t + 1

    def sigma_trace(self) -> float:
        """Follower's target uncertainty Tr(Sigma_t).

        Constant for the baselines: zero once the target is shared
        (ex-comm), the full prior trace when there is no channel at all.
        """
        if self.e is not None:
            return (self.ops[self.t].sigma_trace if self.t < len(self.ops)
                    else self.final_trace)
        if self.prepared.kind is PolicyKind.EX_COMM:
            return 0.0
        return float(np.trace(self.prepared.model.Sigma0))


def make_policy(kind: PolicyKind, model: SystemModel, *,
                power: PowerSchedule | None = None, theta: float = 0.88,
                Q: np.ndarray | None = None,
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
        setup = fa_setup(model.B1, model.W, Q=Q)
        if power is None:
            power = heuristic_schedule(theta, model.n, model.d0)
        return PreparedPolicy(kind=kind, model=model, gains=gains, setup=setup,
                              power=power)
    if kind is PolicyKind.IM_COMM_UA:
        setup = ua_setup(model.B1, model.W)
        if power is None:
            power = heuristic_schedule(theta, model.n, setup.r)
        block_schedule(setup, model.n, block_order)  # reject a bad order now
        return PreparedPolicy(kind=kind, model=model, gains=gains, setup=setup,
                              power=power, block_order=block_order)
    raise ValidationError(f"unknown policy kind {kind}")
