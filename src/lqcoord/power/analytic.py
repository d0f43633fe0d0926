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
all steps as stacked arrays (their gain-fixed part, `joint_frame`, made
once per gain schedule by the evaluator), runs a serial loop of two
products, the noise and a symmetrisation on P_t and takes the stage
costs of all steps in one contraction over the stacked P_t.

`TailCostEvaluator.gradient` runs the reverse (adjoint) recursion of a
signaling table's map,

    Pbar_n = Fn (Z block),
    Pbar_t = T' Pbar_{t+1} T + Mu' G Mu + F (Z block) + Sigma_bar_t,

where Sigma_bar_t (Sigma block) is the gradient through Sigma_t's roots
in the maps of step t. Sigma_bar_t is linear in Pbar_{t+1}: with TPe =
T P_t[:, e] and NW the noise map times W, step t's maps have gradients
E_bar = 2 Pbar[e] TPe, dec_bar = -2 Pbar[e] NW and enc_bar = enc_mu + 2
B1' Pbar[z] TPe, where enc_mu = 2 G_1 Mu P_t[:, e] (G_1 the leader's rows
of G) needs no costate. So the Sigma half's pullback constants of all
steps (`channel.sigma_adjoint`) fold into per-step matrices made before
the loop; the loop takes Sigma_bar_t's eigenbasis form X_t from two
products, a Hadamard product, and Pbar_t from two more and a
symmetrisation, with X's enc_mu part moved into the stage weight. The
gradients of every step's maps follow from the stored Pbar_{t+1} after
the loop, and the power half's reverse pass from them, for all steps at
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel import (ChannelSetup, PowerFactors, SigmaPass, block_schedule,
                       power_factors, power_factors_adjoint, sigma_adjoint,
                       sigma_steps)
from ..errors import SigmaNearSingular, ValidationError
from ..gains import GainSchedule
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
    return _with_channel(_gain_maps(gains, model), setup, model, power, blocks)


def _gain_maps(gains: GainSchedule, model: SystemModel) -> dict:
    """The coordination scheme's gain fields of its table: D* = 0, D^ = D."""
    K, D = np.array(gains.K), np.array(gains.D)
    return dict(K=K, D_star=np.zeros_like(D), D_hat=D,
                Abar=model.A - model.B @ K, BD=model.B @ D)


def _with_channel(gain_maps: dict, setup: ChannelSetup, model: SystemModel,
                  power: PowerSchedule, blocks: list[int]) -> StepOps:
    power.check_fits(model.n, setup.r)
    factors = power_factors(setup, power.Lambda, blocks)
    sigma = sigma_steps(factors, model.Sigma0, model.W)
    return StepOps(**gain_maps, enc=sigma.enc, dec=sigma.dec, E=sigma.E,
                   Sigma=sigma.Sigma, power=factors, sigma=sigma)


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
class JointFrame:
    """The part of a table's joint maps that its gains alone fix, stacked.

    T with its e column left zero, Mu without enc (its e column holds
    -D^), the noise map without its decoder block, and P_0. A table's
    `trajectory` copies them and fills in the maps of enc, dec and E.
    """

    T: np.ndarray
    Mu: np.ndarray
    Nrho: np.ndarray
    P0: np.ndarray


def joint_frame(model: SystemModel, K: np.ndarray, D_star: np.ndarray,
                D_hat: np.ndarray, Abar: np.ndarray) -> JointFrame:
    """The gain-fixed part of the joint maps of a table with these gains."""
    d0, n = model.d0, model.n
    I, x = np.eye(d0), slice(2 * d0, None)
    offset = D_star + D_hat
    T = np.zeros((n, 3 * d0, 3 * d0))
    T[:, :d0, :d0] = Abar
    T[:, :d0, x] = Abar + model.B @ offset - I
    T[:, x, x] = I
    Nrho = np.zeros((n, 3 * d0, d0))
    Nrho[:, :d0] = I
    return JointFrame(T=T, Mu=np.concatenate([-K, -D_hat, offset - K], axis=2),
                      Nrho=Nrho, P0=initial_joint(model))


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


def trajectory(ops: StepOps, model: SystemModel,
               frame: JointFrame | None = None) -> Trajectory:
    """The engine's forward pass over the operator table of any policy.

    frame is `joint_frame` of the table's gains; a caller that evaluates
    many tables on the same gains passes it in once made.
    """
    if frame is None:
        frame = joint_frame(model, ops.K, ops.D_star, ops.D_hat, ops.Abar)
    d0, d1, n = model.d0, model.d1, model.n
    e = slice(d0, 2 * d0)
    T = frame.T.copy()
    T[:, :d0, e] = model.B1 @ ops.enc - ops.BD
    T[:, e, e] = ops.E
    Nrho = frame.Nrho.copy()
    Nrho[:, e] = -ops.dec
    Mu = frame.Mu.copy()
    Mu[:, :d1, e] += ops.enc
    noise = Nrho @ model.W @ Nrho.swapaxes(1, 2)
    weight = Mu.swapaxes(1, 2) @ model.G @ Mu
    weight[:, :d0, :d0] += model.F
    joint = np.empty((n + 1, 3 * d0, 3 * d0))
    joint[0] = frame.P0
    # P_{t+1} = S + S' with S = T P (T'/2) + noise/2: halving is exact, so
    # this is sym(T P T' + noise) to the bit
    steps = zip(T, 0.5 * T.transpose(0, 2, 1), joint, joint[1:], 0.5 * noise)
    for T_t, half_TT, P_t, P_next, half_noise in steps:
        S = T_t.dot(P_t).dot(half_TT)
        S += half_noise
        np.add(S, S.T, out=P_next)
    costs = np.append(np.einsum("tij,tji->t", weight, joint[:n]),
                      np.trace(model.Fn @ joint[n, :d0, :d0]))
    return Trajectory(ops=ops, T=T, Nrho=Nrho, Mu=Mu, weight=weight,
                      joint=joint, costs=costs)


class TailCostEvaluator:
    """Exact cost E[J_n] of power schedules and its gradient, for optimizers.

    The block schedule and the gain-fixed part of the joint maps
    (`joint_frame`) are made once. `cost(Lambda)` builds the signaling
    table of Lambda, runs the forward pass over it and keeps its
    `trajectory`; `gradient()` runs the adjoint recursion over that.
    """

    def __init__(self, gains: GainSchedule, setup: ChannelSetup,
                 model: SystemModel, block_order: list[int] | None = None):
        self.gains, self.setup, self.model = gains, setup, model
        self.blocks = block_schedule(setup, model.n, block_order)
        self.gain_maps = g = _gain_maps(gains, model)
        self.frame = joint_frame(model, g["K"], g["D_star"], g["D_hat"], g["Abar"])
        self.trajectory: Trajectory | None = None

    def cost(self, Lambda) -> float:
        """E[J_n] of the schedule Lambda, an (n, r) array of power entries."""
        schedule = PowerSchedule(mode=ScheduleMode.FULL_MATRIX, Lambda=Lambda)
        ops = _with_channel(self.gain_maps, self.setup, self.model, schedule,
                            self.blocks)
        self.trajectory = trajectory(ops, self.model, self.frame)
        return float(self.trajectory.costs.sum())

    def gradient(self) -> np.ndarray:
        """dE[J_n]/dLambda of the last `cost` call, shape (n, r); raises
        SigmaNearSingular naming the step where the reverse pass overflows,
        as the root kernels of a nearly singular Sigma_t make it do."""
        traj = self.trajectory
        if traj is None:
            raise ValidationError("gradient: no schedule evaluated yet; call cost")
        power, sigma = traj.ops.power, traj.ops.sigma
        lam = power.lam
        if (lam <= 0.0).any():
            t, j = np.argwhere(lam <= 0.0)[0]
            raise ValidationError(
                f"gradient needs positive power; Lambda_{t}[{j}] = "
                f"{lam[t, j]:.3g}")
        model, setup = self.model, self.setup
        d0, d1, n = model.d0, model.d1, model.n
        D, e = 3 * d0, slice(d0, 2 * d0)
        Pe = traj.joint[:n, :, e]
        TPe, NW = traj.T @ Pe, traj.Nrho @ model.W
        half_enc_mu = model.G[:d1] @ traj.Mu @ Pe
        adj = sigma_adjoint(power, sigma)
        U, UT = adj.U, adj.U.swapaxes(1, 2)
        # Y = Lz Pbar[:2 d0] Q holds U' root_bar U and U' inv_bar U - c as
        # its diagonal blocks, c = 2 U' left' half_enc_mu U
        Lz = np.zeros((n, 2 * d0, 2 * d0))
        Lz[:, :d0, e] = UT
        Lz[:, e, :d0] = 2.0 * adj.LU[:, :, :d1] @ setup.B1.T
        Lz[:, e, e] = 2.0 * adj.LU[:, :, d1:]
        Q = np.concatenate([2.0 * np.concatenate([TPe, -NW], axis=2) @ adj.RU,
                            TPe @ U], axis=2)
        F = np.zeros((n, 2 * d0, 2 * d0))
        F[:, :d0, :d0], F[:, e, e] = adj.F_root, adj.F_inv
        # half the stage weight, with X's constant part c moved into it
        half_weight = 0.5 * traj.weight
        half_c = adj.LU[:, :, :d1] @ half_enc_mu @ U
        half_weight[:, e, e] += U @ (adj.F_inv * half_c) @ UT
        # [U~ U~] (F o Y) [U~ U~]' = U~ X U~' as F's off-diagonal blocks are
        # 0; L is scaled by 1/sqrt(2) so that S + S' is Pbar, not 2 Pbar
        L = np.zeros((n, D, D + 2 * d0))
        np.multiply(traj.T.swapaxes(1, 2), np.sqrt(0.5), out=L[:, :, :D])
        L[:, e, D:D + d0] = L[:, e, D + d0:] = np.sqrt(0.5) * U
        # G[t] = blkdiag(Pbar_t, F o Y_{t-1})
        G = np.zeros((n + 1, D + 2 * d0, D + 2 * d0))
        G[n, :d0, :d0] = model.Fn
        steps = zip(G[:0:-1], G[-2::-1, :D, :D], G[:0:-1, :2 * d0, :D],
                    G[:0:-1, D:, D:], Lz[::-1], Q[::-1], F[::-1], L[::-1],
                    L.transpose(0, 2, 1)[::-1].copy(), half_weight[::-1])
        # an overflow is reported below, naming its step, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for G_next, Pbar, Pbar_ze, FY, Lz_t, Q_t, F_t, L_t, LT_t, w_t in steps:
                np.multiply(Lz_t.dot(Pbar_ze).dot(Q_t), F_t, out=FY)
                S = L_t.dot(G_next).dot(LT_t)
                S += w_t
                np.add(S, S.T, out=Pbar)
            A = G[1:, :2 * d0, :D] @ np.concatenate([TPe, NW], axis=2)
            enc_bar = 2.0 * (half_enc_mu + setup.B1.T @ A[:, :d0, :d0])
            grad = power_factors_adjoint(setup, power, sigma.Sig12,
                                         sigma.Sig12inv, enc_bar,
                                         -2.0 * A[:, e, e], 2.0 * A[:, e, :d0])
        bad = ~np.isfinite(grad).all(axis=1)
        if bad.any():   # the reverse pass runs from step n-1 down
            t = n - 1 - int(bad[::-1].argmax())
            raise SigmaNearSingular(
                f"gradient: the reverse pass leaves the floating-point range "
                f"at step {t}, where Sigma_t's eigenvalues run from "
                f"{sigma.H[t, -1]:.2g} to {sigma.H[t, 0]:.2g}")
        return grad


def expected_total_cost(schedule: PowerSchedule, gains: GainSchedule,
                        setup: ChannelSetup, model: SystemModel,
                        block_order: list[int] | None = None) -> float:
    """Exact expected total cost E[J_n] of a signaling schedule."""
    return TailCostEvaluator(gains, setup, model, block_order).cost(schedule.Lambda)
