"""Step-by-step reference for the signaling scheme, from the paper's closed forms.

An independent oracle for `lqcoord.channel.channel_step` and the rollout
operator table. Every map is rebuilt from the live error covariance at each
step with this file's own square roots, so nothing here goes through the
package's eigendecomposition helpers or its cached setup constants; only the
setup's factorizations (projection Q, channel eigenbasis, SVD of B1) are
shared inputs.

Fully actuated (Q1 = B1 Q, channel eigenbasis U, gains H):
    s_t     = Q S^(1/2) Sigma^(-1/2) e_t,          S = U diag(lam) U'
    e_hat_t = Sigma^(1/2) S^(1/2) Q1' (Q1 S Q1' + W)^-1 y_t
    Sigma'  = Sigma^(1/2) U (I + lam H)^-1 U' Sigma^(1/2)
Under-actuated (block k, selector P_k, virtual output y~ = Gamma0[:, :r]' y):
    s_t     = Gamma1 [S^(1/2) P_k Sigma^(-1/2) e_t; 0]
    e_hat_t = Sigma^(1/2) P_k' S^(1/2) Psi1 (Psi1 S Psi1 + Wbar1)^-1 y~_t
    Sigma'  = Sigma^(1/2) Utau (I + P_k' lam Pi P_k)^-1 Utau' Sigma^(1/2)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from lqcoord.channel import ChannelMode
from lqcoord.errors import RankDeficient


def sqrt_psd(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def inv_sqrt_psd(M: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Inverse square root with directions below rtol * max eigenvalue dropped."""
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    inv = np.zeros_like(w)
    live = w > rtol * w.max(initial=0.0)
    inv[live] = 1.0 / np.sqrt(w[live])
    return (V * inv) @ V.T


def live_cond(Sigma: np.ndarray) -> float:
    """Condition number over the directions above the 1e-12 pseudo-inverse cutoff."""
    w = np.linalg.eigvalsh(Sigma)
    return w.max() / max(w.min(), 1e-12 * w.max())


def roundoff_tol(cond: float, floor: float) -> float:
    """Relative agreement two implementations of the channel maps can reach.

    Sigma's eigenvalues carry absolute roundoff of order eps * max(eig), so
    Sigma^(-1/2) is determined only to relative eps * cond(Sigma); pass the
    largest live condition number met so far, since earlier steps' errors
    are carried forward in Sigma_t.
    """
    return max(floor, 10 * np.finfo(float).eps * cond)


def left_inverse(Q: np.ndarray) -> np.ndarray:
    """(Q'Q)^-1 Q' of a tall full-column-rank matrix."""
    Q = np.asarray(Q, dtype=float)
    d1, d0 = Q.shape
    if d1 < d0:
        raise RankDeficient(f"matrix is wide ({d1}x{d0}); need at least as many rows as columns")
    sv = np.linalg.svd(Q, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise RankDeficient(f"numerical rank < {d0} (sigma_min/sigma_max = {sv[-1] / sv[0]:.3e})")
    return np.linalg.solve(Q.T @ Q, Q.T)


def _basis(setup):
    return setup.eig if setup.mode is ChannelMode.FULLY_ACTUATED else setup.virt


def signal_cov(setup, lam: np.ndarray) -> np.ndarray:
    U = _basis(setup).U
    return U @ np.diag(lam) @ U.T


def signal_sqrt(setup, lam: np.ndarray) -> np.ndarray:
    U = _basis(setup).U
    return U @ np.diag(np.sqrt(lam)) @ U.T


def selector(k: int, setup) -> np.ndarray:
    return np.eye(setup.d0)[k * setup.r:(k + 1) * setup.r]


# --- fully actuated ------------------------------------------------------------

def encoder_fa(Sigma, lam, setup) -> np.ndarray:
    """e_t -> leader signal s_t."""
    return setup.Q @ signal_sqrt(setup, lam) @ inv_sqrt_psd(Sigma)


def decode_fa_gain(Sigma, lam, setup) -> np.ndarray:
    """Conditional-mean gain: y_t -> estimate of e_t."""
    Q1 = setup.B1 @ setup.Q
    innov = Q1 @ signal_cov(setup, lam) @ Q1.T + setup.W
    cross = sqrt_psd(Sigma) @ signal_sqrt(setup, lam) @ Q1.T
    return np.linalg.solve(innov.T, cross.T).T


def contraction_fa(lam, setup) -> np.ndarray:
    U, H = setup.eig.U, setup.eig.H
    return U @ np.diag(1.0 / (1.0 + lam * H)) @ U.T


def cov_update_fa(Sigma, lam, setup) -> np.ndarray:
    R = sqrt_psd(Sigma)
    return R @ contraction_fa(lam, setup) @ R


def noise_gain_fa(Sigma, lam, setup) -> np.ndarray:
    """Coefficient of w_t: e_{t+1} = Sigma^(1/2) V Sigma^(-1/2) e_t - [this] w_t."""
    Q1 = setup.B1 @ setup.Q
    return (sqrt_psd(Sigma) @ contraction_fa(lam, setup)
            @ signal_sqrt(setup, lam) @ Q1.T @ np.linalg.inv(setup.W))


# --- under-actuated ------------------------------------------------------------

def encoder_ua(Sigma, lam, k, setup) -> np.ndarray:
    """e_t -> leader signal s_t (zero outside the virtual channel)."""
    virt = signal_sqrt(setup, lam) @ selector(k, setup) @ inv_sqrt_psd(Sigma)
    pad = np.zeros((setup.d1 - setup.r, setup.d0))
    return setup.svd.Gamma1 @ np.vstack([virt, pad])


def virtual_output(y, setup) -> np.ndarray:
    """First r coordinates of Gamma0' y; the rest carry no signal."""
    return (setup.svd.Gamma0.T @ y)[: setup.r]


def decode_ua_gain(Sigma, lam, k, setup) -> np.ndarray:
    """Conditional-mean gain: virtual output y~_t -> estimate of e_t."""
    Psi1 = np.diag(setup.svd.Psi1)
    innov = Psi1 @ signal_cov(setup, lam) @ Psi1 + setup.Wbar1
    cross = (sqrt_psd(Sigma) @ selector(k, setup).T @ signal_sqrt(setup, lam)
             @ Psi1)
    return np.linalg.solve(innov.T, cross.T).T


def contraction_ua(lam, k, setup) -> np.ndarray:
    Utau = scipy.linalg.block_diag(*[setup.virt.U] * setup.tau)
    diag = np.ones(setup.d0)
    diag[k * setup.r:(k + 1) * setup.r] = 1.0 / (1.0 + lam * setup.virt.H)
    return Utau @ np.diag(diag) @ Utau.T


def cov_update_ua(Sigma, lam, k, setup) -> np.ndarray:
    R = sqrt_psd(Sigma)
    return R @ contraction_ua(lam, k, setup) @ R


def noise_gain_ua(Sigma, lam, k, setup) -> np.ndarray:
    """Coefficient of the virtual noise w~_t = (Gamma0' w_t)[:r]."""
    Psi1 = np.diag(setup.svd.Psi1)
    return (sqrt_psd(Sigma) @ contraction_ua(lam, k, setup)
            @ selector(k, setup).T @ signal_sqrt(setup, lam) @ Psi1
            @ np.linalg.inv(setup.Wbar1))


# --- the per-rollout state machine ----------------------------------------------

@dataclass
class MessageState:
    """Live estimation state of one rollout: error, covariance, estimate.

    e + x_star_hat = x_* holds exactly at every step (the update below is a
    telescoping split of the target).
    """

    e: np.ndarray
    Sigma: np.ndarray
    x_star_hat: np.ndarray

    @classmethod
    def initial(cls, x_star: np.ndarray, Sigma0: np.ndarray) -> "MessageState":
        x_star = np.asarray(x_star, dtype=float)
        return cls(e=x_star.copy(), Sigma=np.asarray(Sigma0, dtype=float).copy(),
                   x_star_hat=np.zeros_like(x_star))

    def apply_estimate(self, e_hat: np.ndarray, Sigma_next: np.ndarray) -> None:
        self.e = self.e - e_hat
        self.x_star_hat = self.x_star_hat + e_hat
        self.Sigma = Sigma_next


@dataclass
class CoordinationState:
    """Live state of one coordinated rollout."""

    msg: MessageState
    t: int
    gains: object
    setup: object
    power: object
    model: object
    block_order: list[int]

    def current_block(self) -> int | None:
        if self.setup.mode is ChannelMode.FULLY_ACTUATED:
            return None
        return self.block_order[self.t % self.setup.tau]


def start(x_star, model, gains, setup, power, block_order=None) -> CoordinationState:
    if block_order is None:
        block_order = list(range(setup.tau or 1))
    return CoordinationState(msg=MessageState.initial(x_star, model.Sigma0), t=0,
                             gains=gains, setup=setup, power=power, model=model,
                             block_order=list(block_order))


def channel_output(x_next, x_t, gains, t, x_star_hat, model) -> np.ndarray:
    """Residual transition y_t = x_{t+1} - (A - B K_t) x_t - B D_t x_hat.

    Every subtracted term is computable by the follower, so y_t is common
    information; algebraically it equals B1 s_t + w_t.
    """
    A, B = model.A, model.B
    return x_next - (A - B @ gains.K[t]) @ x_t - B @ gains.D[t] @ x_star_hat


def compute_inputs(state: CoordinationState, x_t) -> tuple[np.ndarray, np.ndarray]:
    """Leader and follower inputs; only the leader adds the signal."""
    t, g, msg = state.t, state.gains, state.msg
    lam = state.power.lam(t)
    if state.setup.mode is ChannelMode.FULLY_ACTUATED:
        s = encoder_fa(msg.Sigma, lam, state.setup) @ msg.e
    else:
        s = encoder_ua(msg.Sigma, lam, state.current_block(), state.setup) @ msg.e
    v = -g.K_l(t) @ x_t + g.D_l(t) @ msg.x_star_hat + s
    q = -g.K_f(t) @ x_t + g.D_f(t) @ msg.x_star_hat
    return v, q


def observe_and_update(state: CoordinationState, x_t, x_next) -> None:
    """Shared post-transition update: decode, refine the estimate, advance t."""
    t, msg, setup = state.t, state.msg, state.setup
    lam = state.power.lam(t)
    y = channel_output(x_next, x_t, state.gains, t, msg.x_star_hat, state.model)
    if setup.mode is ChannelMode.FULLY_ACTUATED:
        e_hat = decode_fa_gain(msg.Sigma, lam, setup) @ y
        Sigma_next = cov_update_fa(msg.Sigma, lam, setup)
    else:
        k = state.current_block()
        e_hat = decode_ua_gain(msg.Sigma, lam, k, setup) @ virtual_output(y, setup)
        Sigma_next = cov_update_ua(msg.Sigma, lam, k, setup)
    msg.apply_estimate(e_hat, Sigma_next)
    state.t = t + 1
