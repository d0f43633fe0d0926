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
Delta_t Sigma_t^(1/2) = I~ left_t P_t - D_t Sigma_t^(1/2), since enc_t
Sigma_t^(1/2) = left_t P_t (P_t the projector on Sigma_t's live
directions, `channel`): it forms no encoder, and Sigma_t^(-1/2) enters
only through the Sigma loop's own maps.

`TailCostEvaluator.gradient` runs the reverse recursion of that sum on the
d0 x d0 costate Sbar_t = dJ/dSigma_t (Sbar_n = 0), through the root form
of the channel map, Sigma_{t+1} = Sig12_t K_t Sig12_t with K_t = V_t P_t
V_t + right_t W right_t' (`channel`; P_t = I on a step without truncated
directions). Sigma_t reaches the cost through its root Sig12_t, in that
map and in M_t, and through P_t on a step with truncated directions.
With M_bar = 2 R_t M_t the gradients of the root and the projector are

    Sig12_bar = 2 K_t Sig12_t Sbar_{t+1} - D_t' M_bar,
    P_bar = V_t Sig12_t Sbar_{t+1} Sig12_t V_t + left_t' I~' M_bar,

and Sbar_t = sym(U [F_root o (U' Sig12_bar U) + F_proj o (U' P_bar U)]
U'), with (U, H) Sigma_t's eigenpair and (F_root, F_proj) the
Daleckii-Krein kernels of the root and the projector
(`linalg.eig_roots_kernels`); F_proj is 0 on a step without truncated
directions, so only those steps take its terms. The recursion carries
Ssym_t = U_t' Sbar_t U_t, in which a step is linear: vec Ssym_t = T_t vec
Ssym_{t+1} + c_t, with T_t (d0^2 x d0^2) and c_t, the part without the
costate, built for all steps before the loop, which is one
matrix-vector product and one sum per step. After the loop K_bar_t =
Sig12_t Sbar_{t+1} Sig12_t gives the gradients of the power half's
factors, V_bar = sym(2 K_bar V P), right_bar = 2 K_bar right W and
left_bar = I~' M_bar P, and `channel.power_factors_adjoint` takes them to
Lambda for all steps at once. K_t is formed as the Joseph update forms it,
not as V_t: the float64 factors keep V V + right W right' = V only to
about eps cond(Wv) (5e-8 at cond W = 2e8), and the gradient must be that
of the cost as computed.
"""

from __future__ import annotations

import numpy as np

from ..channel import (ChannelSetup, block_schedule, power_factors,
                       power_factors_adjoint, sigma_steps)
from ..errors import SigmaNearSingular, ValidationError
from ..gains import GainSchedule
from ..linalg import eig_roots_kernels
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
        M = -(self.D @ sigma.Sig12)
        M[:, :self.model.d1] += sigma.project(power.left)
        RM = self.R @ M
        self.last = power, sigma, RM
        return self.constant + float(np.sum(M * RM))

    def gradient(self) -> np.ndarray:
        """dE[J_n]/dLambda of the last `cost` call, shape (n, r); raises
        SigmaNearSingular naming the step where the reverse pass overflows,
        as the root kernels of a nearly singular Sigma_t make it do."""
        if self.last is None:
            raise ValidationError("gradient: no schedule evaluated yet; call cost")
        power, sigma, RM = self.last
        lam = power.lam
        if (lam <= 0.0).any():
            t, j = np.argwhere(lam <= 0.0)[0]
            raise ValidationError(
                f"gradient needs positive power; Lambda_{t}[{j}] = "
                f"{lam[t, j]:.3g}")
        n, d0, d1 = self.model.n, self.model.d0, self.model.d1
        U, Sig12 = sigma.U, sigma.Sig12
        UT = U.swapaxes(1, 2)
        M_bar = 2.0 * RM
        F_root, F_proj = eig_roots_kernels(sigma.H, sigma.live)
        # Z_t is half the bracket of Sbar_t = sym(U_t [.] U_t'), so Sbar_t =
        # U_t (Z_t + Z_t') U_t'; Z_stage is its part without the costate,
        # whose projector term lives on the truncated steps alone
        Z_stage = -0.5 * F_root * (UT @ self.D.swapaxes(1, 2) @ M_bar @ U)
        t = sigma.truncated
        Z_stage[t] += 0.5 * F_proj[t] * (UT[t] @ power.left[t].swapaxes(1, 2)
                                         @ M_bar[t, :d1] @ U[t])
        # K = V P V + right W right'; with Sbar_{t+1} in step t+1's
        # eigenbasis, half of U_t' (2 K Sig12 Sbar_{t+1}) U_t is A_t Ssym_{t+1}
        # B_t and, on a truncated step, U_t' V Sig12 Sbar_{t+1} Sig12 V U_t =
        # N_t Ssym_{t+1} N_t'
        right = power.right[:-1]
        K = (sigma.project(power.V)[:-1] @ power.V[:-1]
             + right @ self.model.W @ right.swapaxes(1, 2))
        A = UT[:-1] @ K @ Sig12[:-1] @ U[1:]
        B = UT[1:] @ U[:-1]
        t = t[t < n - 1]
        N = UT[t] @ power.V[t] @ Sig12[t] @ U[t + 1]
        # so the step is linear, vec Ssym_t = T_t vec Ssym_{t+1} + vec(Z_stage_t
        # + Z_stage_t'), with T_t = (I + Pi) [diag(vec F_root) (A_t x B_t') +
        # diag(vec F_proj / 2) (N_t x N_t)], x the Kronecker product and Pi
        # the swap of entries (i, j) and (j, i)
        d2 = d0 * d0
        Ssym = np.empty((n, d2))         # vec Ssym_t, Ssym_t = U_t' Sbar_t U_t
        c = (Z_stage + Z_stage.swapaxes(1, 2)).reshape(n, d2)
        Ssym[-1] = c[-1]                 # Sbar_n = 0
        # an overflow is reported below, naming its step, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            T = (np.einsum("tik,tlj->tijkl", A, B).reshape(n - 1, d2, d2)
                 * F_root[:-1].reshape(n - 1, d2, 1))
            T[t] += (np.einsum("tik,tjl->tijkl", N, N).reshape(-1, d2, d2)
                     * (0.5 * F_proj[t]).reshape(-1, d2, 1))
            T += T[:, np.arange(d2).reshape(d0, d0).T.ravel()]
            for T_t, S_t, S_next, c_t in zip(T[::-1], Ssym[-2::-1], Ssym[:0:-1],
                                             c[-2::-1]):
                np.add(T_t.dot(S_next), c_t, out=S_t)
            Ssym = Ssym.reshape(n, d0, d0)
            # K_bar_t = Sig12_t Sbar_{t+1} Sig12_t, with Sbar_n = 0
            RU = Sig12[:-1] @ U[1:]
            K_bar = np.zeros((n, d0, d0))
            K_bar[:-1] = RU @ Ssym[1:] @ RU.swapaxes(1, 2)
            # K = V P V + right W right'
            V_bar = sigma.project(K_bar @ power.V)
            grad = power_factors_adjoint(
                self.setup, power, sigma.project(M_bar[:, :d1]),
                2.0 * K_bar @ power.right @ self.model.W,
                V_bar + V_bar.swapaxes(1, 2))
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
