"""The exact expected cost of a signaling schedule, and its gradient.

With the gains' value functions V_t(x, x_*) of the full-information
tracking LQR (`gains`, Phi_n = Fn) and R_t = G + B' Phi_{t+1} B, every
signaling schedule costs

    E[J] = Tr(Phi_0 X0) + Tr(Gamma_0 Sigma0) + sum_t Tr(Phi_{t+1} W)
           + sum_t Tr(R_t Delta_t Sigma_t Delta_t'),
    Gamma_0 = Fn + n F - sum_t D_t' R_t D_t,   Delta_t = I~ enc_t - D_t,

with enc_t and Sigma_t the encoder and the follower's error covariance
from the channel map (`channel.sigma_steps`; Bertsekas, Dynamic
Programming and Optimal Control I, ch. 4; Astrom, Introduction to
Stochastic Control Theory, 1970). Proof: for any input u, the stage cost
plus E V_{t+1}(A x + B u + w) equals V_t(x, x_*) + Tr(Phi_{t+1} W) + (u -
u*)' R_t (u - u*), u* = -K_t x + D_t x_* (completing the square). In the
policy's table (`policies.StepOps`) u - u* = Delta_t e_t, e_t = x_* -
x_hat_t, and E e_t e_t' = Sigma_t. The first three terms, the
full-information (ex-comm) cost, depend on the gains alone
(`value_constant`); Gamma_0 is the target block of V_0, from Gamma_n = Fn
and Gamma_t = F + Gamma_{t+1} - D_t' R_t D_t.

`TailCostEvaluator.cost` runs the channel's power half and Sigma loop and
takes the last sum as one stacked trace sum_t Tr(M_t' R_t M_t) with M_t =
Delta_t Sigma_t^(1/2), from the loop's stored root: the truncated
Sigma_t^(-1/2) inside enc_t meets Sigma_t^(1/2), never Sigma_t itself.

`TailCostEvaluator.gradient` runs the reverse recursion of that sum on the
d0 x d0 costate Sbar_t = dJ/dSigma_t (Sbar_n = 0). Step t's maps have
gradients E_bar = 2 Sbar_{t+1} E Sigma_t, dec_bar = 2 Sbar_{t+1} dec W
and enc_bar = 2 I~' R_t Delta_t Sigma_t, and

    Sbar_t = Delta' R Delta + E' Sbar_{t+1} E + sym(U X U'),

where sym(U X U') is their pullback through Sigma_t's roots in the maps
(`channel.sigma_adjoint`). X is linear in Sbar_{t+1}: with P = [E Sigma |
dec W] RU it is F_root o (2 U' Sbar P) + F_inv o (c + 2 LU_E Sbar E Sigma U),
where c = LU_enc enc_bar U needs no costate and moves into the stage
weight. So the loop takes X's eigenbasis form from two products and a
Hadamard product, and Sbar_t from two more and a symmetrisation. The map
gradients of every step follow from the stored Sbar_{t+1} after the loop,
and the power half's reverse pass from them, for all steps at once.
"""

from __future__ import annotations

import numpy as np

from ..channel import (ChannelSetup, block_schedule, power_factors,
                       power_factors_adjoint, sigma_adjoint, sigma_steps)
from ..errors import SigmaNearSingular, ValidationError
from ..gains import GainSchedule
from ..model import SystemModel
from .schedules import PowerSchedule, ScheduleMode


def value_constant(gains: GainSchedule, model: SystemModel) -> float:
    """The schedule-free part of the exact cost: Tr(Phi_0 X0) + Tr(Gamma_0
    Sigma0) + sum_t Tr(Phi_{t+1} W), the full-information cost of the
    gains' own input."""
    Phi, D, R = gains.Phi, gains.D, gains.R
    Gamma0 = model.Fn + model.n * model.F - np.einsum("tki,tkl,tlj->ij", D, R, D)
    return float(np.sum(Phi[0] * model.X0) + np.sum(Gamma0 * model.Sigma0)
                 + np.einsum("tij,ij->", Phi[1:], model.W))


class TailCostEvaluator:
    """Exact cost E[J_n] of power schedules and its gradient, for optimizers.

    The block schedule and the value constant are made once. `cost(Lambda)`
    runs the channel's power half and Sigma loop and keeps them;
    `gradient()` runs the reverse recursion over what it kept.
    """

    def __init__(self, gains: GainSchedule, setup: ChannelSetup,
                 model: SystemModel, block_order: list[int] | None = None):
        self.setup, self.model = setup, model
        self.blocks = block_schedule(setup, model.n, block_order)
        self.D, self.R = gains.D, gains.R
        self.constant = value_constant(gains, model)
        self.last = None

    def cost(self, Lambda) -> float:
        """E[J_n] of the schedule Lambda, an (n, r) array of power entries."""
        schedule = PowerSchedule(mode=ScheduleMode.FULL_MATRIX, Lambda=Lambda)
        schedule.check_fits(self.model.n, self.setup.r)
        power = power_factors(self.setup, schedule.Lambda, self.blocks)
        sigma = sigma_steps(power, self.model.Sigma0, self.model.W)
        Delta = -self.D
        Delta[:, :self.model.d1] += sigma.enc
        M = Delta @ sigma.Sig12
        RM = self.R @ M
        self.last = power, sigma, Delta, RM
        return self.constant + float(np.sum(M * RM))

    def gradient(self) -> np.ndarray:
        """dE[J_n]/dLambda of the last `cost` call, shape (n, r); raises
        SigmaNearSingular naming the step where the reverse pass overflows,
        as the root kernels of a nearly singular Sigma_t make it do."""
        if self.last is None:
            raise ValidationError("gradient: no schedule evaluated yet; call cost")
        power, sigma, Delta, RM = self.last
        lam = power.lam
        if (lam <= 0.0).any():
            t, j = np.argwhere(lam <= 0.0)[0]
            raise ValidationError(
                f"gradient needs positive power; Lambda_{t}[{j}] = "
                f"{lam[t, j]:.3g}")
        model, setup = self.model, self.setup
        d0, d1, n = model.d0, model.d1, model.n
        E, e = sigma.E, slice(d0, 2 * d0)
        adj = sigma_adjoint(power, sigma)
        U, UT = adj.U, adj.U.swapaxes(1, 2)
        # E Sigma_t and dec W, whose products with 2 Sbar_{t+1} are E_bar
        # and dec_bar
        ESig_decW = np.concatenate([E @ sigma.Sigma[:n], sigma.dec @ model.W],
                                   axis=2)
        enc_bar = 2.0 * RM[:, :d1] @ sigma.Sig12
        # Y = Lz Sbar_{t+1} Q holds X's parts U' root_bar U and U' inv_bar U
        # - c as its diagonal blocks
        Lz = np.concatenate([2.0 * UT, 2.0 * adj.LU[:, :, d1:]], axis=1)
        Q = np.concatenate([ESig_decW @ adj.RU, ESig_decW[:, :, :d0] @ U], axis=2)
        F = np.zeros((n, 2 * d0, 2 * d0))
        F[:, :d0, :d0], F[:, e, e] = adj.F_root, adj.F_inv
        # half the stage weight Delta' R Delta, with X's constant part c
        # moved into it
        c = adj.LU[:, :, :d1] @ enc_bar @ U
        half_weight = 0.5 * (Delta.swapaxes(1, 2) @ self.R @ Delta
                             + U @ (adj.F_inv * c) @ UT)
        # [E' U U] blkdiag(Sbar, F o Y) [E' U U]' / 2 = (E' Sbar E + U X U')
        # / 2, as F's off-diagonal blocks are 0, so S + S' is Sbar_t
        L = np.sqrt(0.5) * np.concatenate([E.swapaxes(1, 2), U, U], axis=2)
        # G[t] = blkdiag(Sbar_t, F o Y_{t-1}); Sbar_n = 0
        G = np.zeros((n + 1, 3 * d0, 3 * d0))
        steps = zip(G[:0:-1], G[-2::-1, :d0, :d0], G[:0:-1, :d0, :d0],
                    G[:0:-1, d0:, d0:], Lz[::-1], Q[::-1], F[::-1], L[::-1],
                    L.transpose(0, 2, 1)[::-1].copy(), half_weight[::-1])
        # an overflow is reported below, naming its step, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for G_next, Sbar, Sbar_next, FY, Lz_t, Q_t, F_t, L_t, LT_t, w_t in steps:
                np.multiply(Lz_t.dot(Sbar_next).dot(Q_t), F_t, out=FY)
                S = L_t.dot(G_next).dot(LT_t)
                S += w_t
                np.add(S, S.T, out=Sbar)
            bars = 2.0 * G[1:, :d0, :d0] @ ESig_decW
            grad = power_factors_adjoint(setup, power, sigma.Sig12,
                                         sigma.Sig12inv, enc_bar,
                                         bars[:, :, d0:], bars[:, :, :d0])
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
