"""Step-by-step reference for the signaling scheme, from the paper's closed forms.

An independent oracle for the package's channel map (`lqcoord.channel`) and
the rollout operator table. Every map is rebuilt from the live error covariance at each
step with this file's own square roots, so nothing here goes through the
package's eigendecomposition helpers or its cached setup constants; only the
setup's projection Q and channel eigenbasis are shared inputs, and the
under-actuated formulas take the SVD of B1 and the rotated noise Wbar1 from
their own factorization. The package runs both regimes through one channel
(fully actuated is r = d0); this file keeps the two closed forms apart.
`one_step` and `one_step_adjoint` at the end are the exception: they run
the package's own stacked maps on a one-step schedule, for tests that probe
the channel map one step at a time. `reference_sigma_steps` keeps the
package's Sigma loop as it was first written, in the Joseph form E Sigma
E' + dec W dec' with one `eig_roots` call, the negative-eigenvalue check
and the eigenpair stores inside the loop, and `sigma_step_adjoint` the
per-step reverse pass that went with it, through the roots' kernels
`inv_root_kernels` (the truncated inverse root's included), as references
for the package's loop and its root-form reverse pass;
`joseph_step_adjoint` and `root_step_adjoint` pull one step back both
ways. `eigh_desc` (eigh, eigenvalues descending) and `eig_roots` (square root
and truncated inverse square root of an eigenpair) were package helpers
until they were folded into their callers; that loop and the tests of the
Sigma pass use them here, as do `S_of`, `S_sqrt_of` and `psi`, once
`ChannelSetup` methods that only tests read.

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

from lqcoord.channel import (power_factors, power_factors_adjoint, sigma_steps,
                            step_maps)
from lqcoord.errors import RankDeficient, SigmaNearSingular
from lqcoord.linalg import (PINV_SQRT_RTOL, check_symmetric, eig_roots_kernels,
                            svd_factor, sym_part)


def S_of(setup, lam: np.ndarray) -> np.ndarray:
    """Signal covariance U diag(lam) U' in the channel eigenbasis.

    lam is one step's power (r,) or a stack (n, r), giving (n, r, r).
    """
    U = setup.eig.U
    return sym_part((U * np.asarray(lam)[..., None, :]) @ U.T)


def S_sqrt_of(setup, lam: np.ndarray) -> np.ndarray:
    """S^(1/2) = U diag(sqrt(lam)) U', for one step or a stack."""
    U = setup.eig.U
    return sym_part((U * np.sqrt(lam)[..., None, :]) @ U.T)


def psi(setup) -> float:
    """Smallest channel-gain eigenvalue."""
    return float(setup.eig.H[-1])


def eigh_desc(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues sorted descending."""
    w, V = np.linalg.eigh(sym_part(np.asarray(M, dtype=float)))
    return w[::-1], V[:, ::-1]


def eig_roots(U: np.ndarray, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Square root and truncated inverse square root of U diag(H) U'.

    Eigendirections with H <= PINV_SQRT_RTOL * max(H) get zero in the
    inverse root, as in the package's Sigma loop.
    """
    inv = np.zeros_like(H)
    live = H > PINV_SQRT_RTOL * H.max(initial=0.0)
    inv[live] = H[live] ** -0.5
    return sym_part((U * np.sqrt(H)) @ U.T), sym_part((U * inv) @ U.T)


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


def fully_actuated(setup) -> bool:
    return setup.r == setup.d0


def signal_cov(setup, lam: np.ndarray) -> np.ndarray:
    U = setup.eig.U
    return U @ np.diag(lam) @ U.T


def signal_sqrt(setup, lam: np.ndarray) -> np.ndarray:
    U = setup.eig.U
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

def rotated_noise(setup) -> np.ndarray:
    """Wbar1, the top-left r x r block of Gamma0' W Gamma0."""
    Gamma0 = svd_factor(setup.B1).Gamma0
    Wbar = Gamma0.T @ setup.W @ Gamma0
    return 0.5 * (Wbar + Wbar.T)[: setup.r, : setup.r]


def encoder_ua(Sigma, lam, k, setup) -> np.ndarray:
    """e_t -> leader signal s_t (zero outside the virtual channel)."""
    virt = signal_sqrt(setup, lam) @ selector(k, setup) @ inv_sqrt_psd(Sigma)
    pad = np.zeros((setup.d1 - setup.r, setup.d0))
    return svd_factor(setup.B1).Gamma1 @ np.vstack([virt, pad])


def virtual_out(setup) -> np.ndarray:
    """Gamma0[:, :r]': plant output y -> virtual output y~."""
    return svd_factor(setup.B1).Gamma0[:, : setup.r].T


def virtual_output(y, setup) -> np.ndarray:
    """First r coordinates of Gamma0' y; the rest carry no signal."""
    return virtual_out(setup) @ y


def decode_ua_gain(Sigma, lam, k, setup) -> np.ndarray:
    """Conditional-mean gain: virtual output y~_t -> estimate of e_t."""
    Psi1 = np.diag(svd_factor(setup.B1).Psi1)
    innov = Psi1 @ signal_cov(setup, lam) @ Psi1 + rotated_noise(setup)
    cross = (sqrt_psd(Sigma) @ selector(k, setup).T @ signal_sqrt(setup, lam)
             @ Psi1)
    return np.linalg.solve(innov.T, cross.T).T


def contraction_ua(lam, k, setup) -> np.ndarray:
    Utau = scipy.linalg.block_diag(*[setup.eig.U] * setup.tau)
    diag = np.ones(setup.d0)
    diag[k * setup.r:(k + 1) * setup.r] = 1.0 / (1.0 + lam * setup.eig.H)
    return Utau @ np.diag(diag) @ Utau.T


def cov_update_ua(Sigma, lam, k, setup) -> np.ndarray:
    R = sqrt_psd(Sigma)
    return R @ contraction_ua(lam, k, setup) @ R


def noise_gain_ua(Sigma, lam, k, setup) -> np.ndarray:
    """Coefficient of the virtual noise w~_t = (Gamma0' w_t)[:r]."""
    Psi1 = np.diag(svd_factor(setup.B1).Psi1)
    return (sqrt_psd(Sigma) @ contraction_ua(lam, k, setup)
            @ selector(k, setup).T @ signal_sqrt(setup, lam) @ Psi1
            @ np.linalg.inv(rotated_noise(setup)))


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

    def current_block(self) -> int:
        return self.block_order[self.t % self.setup.tau]


def start(x_star, model, gains, setup, power, block_order=None) -> CoordinationState:
    if block_order is None:
        block_order = list(range(setup.tau))
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
    lam = state.power.Lambda[t]
    if fully_actuated(state.setup):
        s = encoder_fa(msg.Sigma, lam, state.setup) @ msg.e
    else:
        s = encoder_ua(msg.Sigma, lam, state.current_block(), state.setup) @ msg.e
    K, D, d1 = g.K[t], g.D[t], g.d1
    v = -K[:d1] @ x_t + D[:d1] @ msg.x_star_hat + s
    q = -K[d1:] @ x_t + D[d1:] @ msg.x_star_hat
    return v, q


def observe_and_update(state: CoordinationState, x_t, x_next) -> None:
    """Shared post-transition update: decode, refine the estimate, advance t."""
    t, msg, setup = state.t, state.msg, state.setup
    lam = state.power.Lambda[t]
    y = channel_output(x_next, x_t, state.gains, t, msg.x_star_hat, state.model)
    if fully_actuated(setup):
        e_hat = decode_fa_gain(msg.Sigma, lam, setup) @ y
        Sigma_next = cov_update_fa(msg.Sigma, lam, setup)
    else:
        k = state.current_block()
        e_hat = decode_ua_gain(msg.Sigma, lam, k, setup) @ virtual_output(y, setup)
        Sigma_next = cov_update_ua(msg.Sigma, lam, k, setup)
    msg.apply_estimate(e_hat, Sigma_next)
    state.t = t + 1


# --- the Sigma loop and its one-step reverse pass, as first written -------------

@dataclass(frozen=True)
class ReferencePass:
    """The stacks `reference_sigma_steps` fills, named as in `SigmaPass`."""

    Sigma: np.ndarray
    U: np.ndarray
    H: np.ndarray
    Sig12: np.ndarray
    Sig12inv: np.ndarray
    enc: np.ndarray
    dec: np.ndarray
    E: np.ndarray


def reference_sigma_steps(power, Sigma0, W) -> ReferencePass:
    """The Sigma half of the channel map, one step after the other."""
    n, d0 = power.V.shape[:2]
    Sigma = np.empty((n + 1, d0, d0))
    Sigma[0] = check_symmetric(Sigma0, name="Sigma0")
    U, Sig12, Sig12inv, E, dec = np.empty((5, n, d0, d0))
    H = np.empty((n, d0))
    for t in range(n):
        w, V = np.linalg.eigh(Sigma[t])   # Sigma_t is exactly symmetric
        w, U[t] = w[::-1], V[:, ::-1]
        if w[-1] < -1e-10 * max(1.0, np.abs(w).max()):
            raise SigmaNearSingular(f"Sigma at step {t} has a negative "
                                    f"eigenvalue {w[-1]:.3e}")
        H[t] = np.clip(w, 0.0, None)
        Sig12[t], Sig12inv[t] = eig_roots(U[t], H[t])
        E[t] = Sig12[t] @ power.V[t] @ Sig12inv[t]
        dec[t] = Sig12[t] @ power.right[t]
        Sigma[t + 1] = sym_part(E[t] @ Sigma[t] @ E[t].T + dec[t] @ W @ dec[t].T)
    return ReferencePass(Sigma=Sigma, U=U, H=H, Sig12=Sig12, Sig12inv=Sig12inv,
                         enc=power.left @ Sig12inv, dec=dec, E=E)


def inv_root_kernels(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Daleckii-Krein kernels (F_root, F_inv) of the square root and the
    truncated inverse square root at the spectrum H, as in `eig_roots`.

    F_root is 1 / (s_i + s_j) with s = sqrt(H) (0 where both are 0). The
    inverse root's kernel is -g_i g_j / (s_i + s_j) between live directions
    (g = H^(-1/2)), g_i / (h_i - h_j) between a live i and a truncated j,
    and 0 between truncated ones.
    """
    s, g = np.sqrt(H), np.zeros_like(H)
    live = H > PINV_SQRT_RTOL * H.max(initial=0.0)
    g[live] = H[live] ** -0.5
    ssum = s[:, None] + s[None, :]
    F_root = np.divide(1.0, ssum, out=np.zeros_like(ssum), where=ssum > 0.0)
    cross = live[:, None] != live[None, :]
    dh = np.where(cross, H[:, None] - H[None, :], 1.0)
    F_inv = np.where(cross, (g[:, None] - g[None, :]) / dh,
                     -(g[:, None] * g[None, :]) * F_root)
    return F_root, F_inv


def eig_roots_pullback(U: np.ndarray, kernels: tuple[np.ndarray, np.ndarray],
                       root_bar: np.ndarray, inv_bar: np.ndarray) -> np.ndarray:
    """Gradient with respect to M = U diag(H) U' from those of its roots.

    kernels = inv_root_kernels(H); root_bar and inv_bar are the gradients
    of a scalar with respect to M^(1/2) and the truncated M^(-1/2).
    """
    F_root, F_inv = kernels
    X = (U.T @ root_bar @ U) * F_root + (U.T @ inv_bar @ U) * F_inv
    return sym_part(U @ X @ U.T)


def sigma_step_adjoint(power, ref, t: int,
                       enc_bar: np.ndarray, dec_bar: np.ndarray,
                       E_bar: np.ndarray) -> np.ndarray:
    """Reverse pass of step t of the Sigma loop: the gradient w.r.t. Sigma_t.

    Given the gradients of a scalar with respect to enc, dec and E at step
    t of `ref` (a `reference_sigma_steps` pass), maps them through Sigma_t's
    root and truncated inverse root.
    """
    root_bar = dec_bar @ power.right[t].T + E_bar @ ref.Sig12inv[t] @ power.V[t]
    inv_bar = power.left[t].T @ enc_bar + (ref.Sig12[t] @ power.V[t]).T @ E_bar
    return eig_roots_pullback(ref.U[t], inv_root_kernels(ref.H[t]), root_bar,
                              inv_bar)


def joseph_step_adjoint(power, Sigma, W, Sbar, A, B):
    """Gradient with respect to Sigma of the one-step scalar

        <Sbar, Sigma'> + <A, enc Sigma^(1/2)> + <B, Sigma^(1/2)>

    with Sigma' = E Sigma E' + dec W dec' (the Joseph form) and power the
    one-step power half, by the reverse pass of the maps (enc, dec, E).
    """
    ref = reference_sigma_steps(power, Sigma, W)
    Sig12, enc, dec, E = ref.Sig12[0], ref.enc[0], ref.dec[0], ref.E[0]
    Sigma_bar = sigma_step_adjoint(power, ref, 0, A @ Sig12, 2.0 * Sbar @ dec @ W,
                                   2.0 * Sbar @ E @ Sigma)
    root = eig_roots_pullback(ref.U[0], inv_root_kernels(ref.H[0]),
                              enc.T @ A + B, np.zeros_like(Sigma))
    return sym_part(E.T @ Sbar @ E) + Sigma_bar + root


def root_step_adjoint(power, Sigma, W, Sbar, A, B):
    """`joseph_step_adjoint`'s gradient by the root form: Sigma' = R K R
    and enc Sigma^(1/2) = left P, with R = Sigma^(1/2), P the projector on
    Sigma's live directions and K = V P V + right W right' from the
    package's one-step pass, pulled back by the kernels of R and P."""
    sigma = sigma_steps(power, Sigma, W)
    U, R, V, right = sigma.U[0], sigma.Sig12[0], power.V[0], power.right[0]
    P = (U * sigma.live[0]) @ U.T
    K = V @ P @ V + right @ W @ right.T
    F_root, F_proj = eig_roots_kernels(sigma.H[0], sigma.live[0])
    root_bar = 2.0 * K @ R @ Sbar + B
    proj_bar = V @ R @ Sbar @ R @ V + power.left[0].T @ A
    X = F_root * (U.T @ root_bar @ U) + F_proj * (U.T @ proj_bar @ U)
    return sym_part(U @ X @ U.T)


# --- the package's channel map at one step ---------------------------------------

@dataclass(frozen=True)
class OneStep:
    """Sigma_0, Sigma_1, the roots of Sigma_0 and the maps of a one-step
    schedule, stacked."""

    Sigma: np.ndarray
    Sig12: np.ndarray
    Sig12inv: np.ndarray
    enc: np.ndarray
    dec: np.ndarray
    E: np.ndarray


def one_step(setup, Sigma, lam, k=0) -> OneStep:
    """The package's Sigma pass and maps of the one-step schedule (lam,
    block k) from Sigma: the step's maps are enc[0], dec[0] and E[0],
    Sigma_{t+1} is Sigma[1]."""
    power = power_factors(setup, np.asarray(lam, dtype=float)[None], [k])
    sigma = sigma_steps(power, Sigma, setup.W)
    return OneStep(sigma.Sigma, sigma.Sig12, sigma.Sig12inv, *step_maps(power, sigma))


def one_step_adjoint(setup, Sigma, lam, k, enc_bar, dec_bar, E_bar):
    """Reverse pass of `one_step`: the gradients of a scalar with respect to
    lam and Sigma, given those with respect to enc, dec and E."""
    power = power_factors(setup, np.asarray(lam, dtype=float)[None], [k])
    ref = reference_sigma_steps(power, Sigma, setup.W)
    Sigma_bar = sigma_step_adjoint(power, ref, 0, enc_bar, dec_bar, E_bar)
    Sig12, Sig12inv = ref.Sig12[0], ref.Sig12inv[0]
    lam_bar = power_factors_adjoint(setup, power, (enc_bar @ Sig12inv)[None],
                                    (Sig12 @ dec_bar)[None],
                                    (Sig12 @ E_bar @ Sig12inv)[None])
    return lam_bar[0], Sigma_bar
