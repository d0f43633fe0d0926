"""Minimum-principle machinery for fully-actuated power design.

This is the verification stack behind the scalar solver: the reduced
covariance surrogate (Z_t, Sigma_t) with the constant offset-feedback
sequence L_t, its stage cost l_t, the Hamiltonian, the costates, and the
analytic gradients (checked against finite differences in the tests).
The surrogate treats the target as a fixed offset, so it is not the exact
expected cost (see power.analytic for that); it is, however, exactly the
object its own necessary conditions differentiate, which is what the
gradient and stationarity checks require.

Every formula here is pinned by derivative identities: the expanded
Hamiltonian equals the composed one to roundoff, and grad_lambda_fa /
theta_sigma_step equal central finite differences of hamiltonian_fa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel import ChannelSetup, channel_step, contraction
from ..errors import ZeroLambdaEntry
from ..gains import GainSchedule
from ..linalg import psd_sqrt, solve_sylvester_lyapunov, sym_part
from ..model import SystemModel


def offset_feedback_seq(gains: GainSchedule, model: SystemModel) -> list[np.ndarray]:
    """Surrogate cross-covariance coefficients L_t: L_0 = -I, L_{t+1} = Abar_t L_t - B D_t.

    Independent of the power schedule, so computed once per gain schedule.
    """
    L = [-np.eye(model.d0)]
    for t in range(model.n):
        Abar = model.A - model.B @ gains.K[t]
        L.append(Abar @ L[-1] - model.B @ gains.D[t])
    return L


def surrogate_z_step(Z: np.ndarray, Sigma: np.ndarray, lam: np.ndarray,
                 gains: GainSchedule, setup: ChannelSetup, model: SystemModel,
                 t: int, L: list[np.ndarray]) -> np.ndarray:
    """Surrogate state-error covariance transition f^Z."""
    Abar = model.A - model.B @ gains.K[t]
    BD = model.B @ gains.D[t]
    Q1 = setup.Q1
    S = setup.S_of(lam)
    S12 = setup.S_sqrt_of(lam)
    Sig12 = psd_sqrt(Sigma)
    cross = Q1 @ S12 @ Sig12 @ L[t + 1].T - BD @ Sigma @ L[t].T @ Abar.T
    return sym_part(Abar @ Z @ Abar.T + Q1 @ S @ Q1.T + cross + cross.T
                    + BD @ Sigma @ BD.T + model.W)


def stage_cost_fa(Z: np.ndarray, Sigma: np.ndarray, lam: np.ndarray,
                  gains: GainSchedule, setup: ChannelSetup, model: SystemModel,
                  t: int, L: list[np.ndarray]) -> float:
    """Surrogate stage cost l_t (power-dependent terms only, five traces)."""
    K, D = gains.K[t], gains.D[t]
    G, G1 = model.G, model.G1
    Itil = model.leader_embed
    Q = setup.Q
    S = setup.S_of(lam)
    S12 = setup.S_sqrt_of(lam)
    Sig12 = psd_sqrt(Sigma)
    return float(
        np.trace((model.F + K.T @ G @ K) @ Z)
        + np.trace(Q.T @ G1 @ Q @ S)
        + np.trace(D.T @ G @ D @ Sigma)
        + 2.0 * np.trace(D.T @ G @ K @ L[t] @ Sigma)
        - 2.0 * np.trace((D + K @ L[t]).T @ G @ Itil @ Q @ S12 @ Sig12)
    )


def terminal_cost(Z: np.ndarray, model: SystemModel) -> float:
    return float(np.trace(Z @ model.Fn))


def costate_Z(gains: GainSchedule, model: SystemModel) -> list[np.ndarray]:
    """Backward costates of Z_t: theta_n = Fn, theta_t = F + K'GK + Abar' theta Abar."""
    theta = [None] * (model.n + 1)
    theta[model.n] = model.Fn.copy()
    for t in range(model.n - 1, -1, -1):
        Abar = model.A - model.B @ gains.K[t]
        theta[t] = sym_part(model.F + gains.K[t].T @ model.G @ gains.K[t]
                            + Abar.T @ theta[t + 1] @ Abar)
    return theta


def hamiltonian_fa(Z: np.ndarray, Sigma: np.ndarray, lam: np.ndarray,
                   thetaZ_next: np.ndarray, thetaSigma_next: np.ndarray,
                   gains: GainSchedule, setup: ChannelSetup, model: SystemModel,
                   t: int, L: list[np.ndarray]) -> float:
    """H_t = l_t + Tr(f^Z thetaZ') + Tr(f^Sigma thetaSigma').

    f^Sigma is the channel's error-covariance contraction.
    """
    fZ = surrogate_z_step(Z, Sigma, lam, gains, setup, model, t, L)
    fS = channel_step(setup, Sigma, lam).Sigma_next
    return (stage_cost_fa(Z, Sigma, lam, gains, setup, model, t, L)
            + float(np.trace(fZ @ thetaZ_next.T))
            + float(np.trace(fS @ thetaSigma_next.T)))


def hamiltonian_fa_expanded(Z, Sigma, lam, thetaZ_next, thetaSigma_next,
                            gains, setup, model, t, L) -> float:
    """The Hamiltonian as an explicit sum of traces in the channel eigenbasis.

    Equal to hamiltonian_fa to roundoff; kept as an independent expression
    for the equivalence test and because the per-term structure is what the
    gradient formulas differentiate.
    """
    K, D = gains.K[t], gains.D[t]
    G, G1 = model.G, model.G1
    Itil = model.leader_embed
    Abar = model.A - model.B @ K
    BD = model.B @ D
    Q, Q1 = setup.Q, setup.Q1
    U, H = setup.eig.U, setup.eig.H
    Sig12 = psd_sqrt(Sigma)
    lam12 = np.sqrt(lam)
    thZ = thetaZ_next
    return float(
        np.trace((model.F + K.T @ G @ K) @ Z)
        + np.trace(Abar @ Z @ Abar.T @ thZ)
        + np.trace(model.W @ thZ)
        + 2.0 * np.trace((U * lam12).T @ Sig12 @ L[t + 1].T @ thZ @ Q1 @ U)
        - 2.0 * np.trace((U * lam12).T @ Sig12 @ (D + K @ L[t]).T @ G @ Itil @ Q @ U)
        + np.trace(Sig12 @ ((U / (1.0 + lam * H)) @ U.T) @ Sig12 @ thetaSigma_next)
        + np.trace((U * lam).T @ (Q1.T @ thZ @ Q1 + Q.T @ G1 @ Q) @ U)
        - np.trace(BD @ Sigma @ (L[t + 1].T + L[t].T @ Abar.T) @ thZ)
        + np.trace(D.T @ G @ D @ Sigma)
        + 2.0 * np.trace(D.T @ G @ K @ L[t] @ Sigma)
    )


@dataclass(frozen=True)
class ThetaSigmaParts:
    """Sylvester solutions entering the Sigma-costate."""

    Theta1: np.ndarray
    Theta2: np.ndarray
    Theta3: np.ndarray


def theta_sigma_step(Sigma: np.ndarray, lam: np.ndarray,
                     thetaSigma_next: np.ndarray, thetaZ_next: np.ndarray,
                     gains: GainSchedule, setup: ChannelSetup,
                     model: SystemModel, t: int,
                     L: list[np.ndarray]) -> tuple[np.ndarray, ThetaSigmaParts]:
    """Sigma-costate theta_{Sigma,t} = dH_t/dSigma_t.

    The square-root dependencies contribute through three Sylvester-
    Lyapunov equations in Sigma^(1/2); the remaining terms are linear in
    Sigma and differentiate directly.
    """
    K, D = gains.K[t], gains.D[t]
    G = model.G
    Itil = model.leader_embed
    Abar = model.A - model.B @ K
    BD = model.B @ D
    Q, Q1 = setup.Q, setup.Q1
    Sig12 = psd_sqrt(Sigma)
    S12 = setup.S_sqrt_of(lam)
    V = contraction(setup, lam)
    thZ = thetaZ_next

    rhs1 = thetaSigma_next @ Sig12 @ V + V @ Sig12 @ thetaSigma_next
    Theta1 = solve_sylvester_lyapunov(Sig12, rhs1)
    X2 = L[t + 1].T @ thZ @ Q1 @ S12
    Theta2 = solve_sylvester_lyapunov(Sig12, 0.5 * (X2 + X2.T))
    X3 = (D + K @ L[t]).T @ G @ Itil @ Q @ S12
    Theta3 = solve_sylvester_lyapunov(Sig12, 0.5 * (X3 + X3.T))

    linear = (D.T @ G @ D
              + D.T @ G @ K @ L[t] + L[t].T @ K.T @ G @ D
              - L[t + 1].T @ thZ @ BD - BD.T @ thZ @ Abar @ L[t])
    theta = linear + Theta1 + 2.0 * Theta2 - 2.0 * Theta3
    return sym_part(theta), ThetaSigmaParts(Theta1, Theta2, Theta3)


def grad_lambda_fa(Sigma: np.ndarray, lam: np.ndarray,
                   thetaZ_next: np.ndarray, thetaSigma_next: np.ndarray,
                   gains: GainSchedule, setup: ChannelSetup,
                   model: SystemModel, t: int,
                   L: list[np.ndarray]) -> np.ndarray:
    """dH_t/dLambda_t(j), per diagonal entry in the channel eigenbasis.

    grad_j = M1(j)/sqrt(lam_j) - H(j) M2(j)/(1 + lam_j H(j))^2 + M3(j).
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 1e-12):
        raise ZeroLambdaEntry("gradient needs strictly positive power entries")
    K, D = gains.K[t], gains.D[t]
    G, G1 = model.G, model.G1
    Itil = model.leader_embed
    Q, Q1 = setup.Q, setup.Q1
    U, H = setup.eig.U, setup.eig.H
    Sig12 = psd_sqrt(Sigma)
    thZ = thetaZ_next
    M1 = U.T @ Sig12 @ (L[t + 1].T @ thZ @ Q1
                        - (D + K @ L[t]).T @ G @ Itil @ Q) @ U
    M2 = U.T @ Sig12 @ thetaSigma_next @ Sig12 @ U
    M3 = U.T @ (Q1.T @ thZ @ Q1 + Q.T @ G1 @ Q) @ U
    m1 = np.diag(M1)
    m2 = np.diag(M2)
    m3 = np.diag(M3)
    return m1 / np.sqrt(lam) - H * m2 / (1.0 + lam * H) ** 2 + m3
