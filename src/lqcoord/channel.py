"""The plant as a channel: the per-step signaling map and its setup data.

The leader embeds the follower's current estimation error e_t into its input
through an additive zero-mean term; subtracting every follower-computable
quantity from the observed transition leaves y_t = B1 s_t + w_t, a Gaussian
channel with perfect feedback (both agents can form y_t). The conditional-mean
decoder then contracts the error covariance by an exactly computable factor
per step: the vector form of Schalkwijk-Kailath feedback coding.

One channel serves both leaders. The r-dimensional signal s~ enters the plant
as s_t = Q s~; the follower reads y~ = P y = C s~ + P w with gain C = P B1 Q
and noise covariance Wv = P W P'. Power is allocated in the eigenbasis
(U, H) of C' Wv^-1 C, and the d0 message coordinates are sent r at a time,
cycling through tau = d0/r blocks. A fully actuated leader (rank B1 = d0)
is the case r = d0, tau = 1 with P = I and C = B1 Q; an under-actuated one
(rank B1 = r < d0) takes Q, P and C from the SVD of B1.

`channel_step` is the one implementation of the per-step map: from
(Sigma_t, Lambda_t, block k) it returns the encoder, the decoder, the
error-recursion map and Sigma_{t+1}. The rollout operator table, the
exact-cost engine and the minimum-principle stack all call it. The
contraction has per-direction factor 1/(1 + lam*h) for power lam and
gain h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (IndexOutOfRange, NonIntegerPeriod, RankDeficient,
                     SigmaNearSingular, SingularInnovation, ValidationError)
from .linalg import (EigenPair, check_symmetric, eig_roots, eig_roots_adjoint,
                     eigh_desc, numerical_rank, sym_eig, sym_part, svd_factor)


def choose_projection(B1: np.ndarray) -> np.ndarray:
    """Default projection: identity when square, B1' when d1 > d0.

    Requires rank(B1) = d0; the returned Q keeps B1 Q full rank so no
    message direction is lost.
    """
    B1 = np.asarray(B1, dtype=float)
    d0, d1 = B1.shape
    if numerical_rank(B1) < d0:
        raise RankDeficient("B1 is not full row rank; use the under-actuated setup")
    Q = np.eye(d0) if d0 == d1 else B1.T
    if numerical_rank(B1 @ Q) < d0:
        raise RankDeficient("B1 Q lost rank; supply a custom projection")
    return Q


@dataclass(frozen=True)
class ChannelSetup:
    """Immutable per-system channel data shared by every rollout.

    Q (d1 x r) maps the signal into the leader's input, P (r x d0) the plant
    output to the channel output, C = P B1 Q is the channel gain, Wv = P W P'
    the channel noise covariance and eig = (U, H) the eigenpair of
    C' Wv^-1 C. The matrices `channel_step` needs at every step but that
    depend only on the setup are cached on first use.
    """

    B1: np.ndarray
    W: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    C: np.ndarray
    Wv: np.ndarray
    eig: EigenPair

    @property
    def d0(self) -> int:
        return self.B1.shape[0]

    @property
    def d1(self) -> int:
        return self.B1.shape[1]

    @property
    def r(self) -> int:
        return self.C.shape[0]

    @property
    def tau(self) -> int:
        """Number of message blocks, d0 / r."""
        return self.d0 // self.r

    @cached_property
    def Q1(self) -> np.ndarray:
        return self.B1 @ self.Q

    @property
    def psi(self) -> float:
        """Smallest channel-gain eigenvalue."""
        return self.eig.psi

    @cached_property
    def Utau(self) -> np.ndarray:
        return np.kron(np.eye(self.tau), self.eig.U)

    def S_of(self, lam: np.ndarray) -> np.ndarray:
        """Signal covariance U diag(lam) U' in the channel eigenbasis."""
        U = self.eig.U
        return sym_part((U * lam) @ U.T)

    def S_sqrt_of(self, lam: np.ndarray) -> np.ndarray:
        U = self.eig.U
        return sym_part((U * np.sqrt(lam)) @ U.T)


def _channel(B1: np.ndarray, W: np.ndarray, Q: np.ndarray, P: np.ndarray,
             C: np.ndarray) -> ChannelSetup:
    d0, r = B1.shape[0], C.shape[0]
    if d0 % r != 0:
        raise NonIntegerPeriod(f"d0={d0} is not a multiple of rank r={r}")
    Wv = sym_part(P @ W @ P.T)
    return ChannelSetup(B1=B1, W=W, Q=Q, P=P, C=C, Wv=Wv,
                        eig=sym_eig(C.T @ np.linalg.solve(Wv, C)))


def fa_setup(B1: np.ndarray, W: np.ndarray, Q: np.ndarray | None = None) -> ChannelSetup:
    """Channel data for a fully actuated leader: P = I and C = B1 Q (r = d0)."""
    B1 = np.asarray(B1, dtype=float)
    W = check_symmetric(np.asarray(W, dtype=float), name="W")
    d0, d1 = B1.shape
    if Q is None:
        Q = choose_projection(B1)
    else:
        Q = np.asarray(Q, dtype=float)
        if Q.shape != (d1, d0) or numerical_rank(B1 @ Q) < d0:
            raise RankDeficient("B1 Q is not a full-rank d0 x d0 matrix for the "
                                "supplied projection")
    return _channel(B1, W, Q, np.eye(d0), B1 @ Q)


def ua_setup(B1: np.ndarray, W: np.ndarray) -> ChannelSetup:
    """Channel data for an under-actuated leader (rank B1 = r < d0, d0 % r = 0).

    With the SVD B1 = Gamma0 Psi Gamma1': Q = Gamma1[:, :r],
    P = Gamma0[:, :r]' and C = diag(Psi1), the r nonzero singular values.
    """
    B1 = np.asarray(B1, dtype=float)
    W = check_symmetric(np.asarray(W, dtype=float), name="W")
    f = svd_factor(B1)
    if f.r >= B1.shape[0]:
        raise RankDeficient("B1 is full rank; use the fully actuated setup")
    return _channel(B1, W, f.Gamma1[:, :f.r], f.Gamma0[:, :f.r].T, np.diag(f.Psi1))


def projection_matrix(k: int, r: int, d0: int) -> np.ndarray:
    """r x d0 selector with I_r in columns k*r .. (k+1)*r - 1."""
    if not 0 <= k < d0 // r:
        raise IndexOutOfRange(f"block index {k} outside 0..{d0 // r - 1}")
    P = np.zeros((r, d0))
    P[:, k * r:(k + 1) * r] = np.eye(r)
    return P


def block_schedule(setup: ChannelSetup, n: int,
                   block_order: list[int] | None = None) -> list[int]:
    """Transmitted block per step, block_order[t % tau].

    block_order defaults to the round-robin 0..tau-1 and must be a
    permutation of it, so every block is sent once per period; a fully
    actuated channel has the single block 0.
    """
    order = list(range(setup.tau)) if block_order is None else list(block_order)
    if sorted(order) != list(range(setup.tau)):
        raise ValidationError(f"block_order {order} is not a permutation of "
                              f"0..{setup.tau - 1}")
    order = [int(k) for k in order]
    return [order[t % setup.tau] for t in range(n)]


def contraction(setup: ChannelSetup, lam: np.ndarray, k: int = 0) -> np.ndarray:
    """Per-step covariance contraction V_t, Sigma_{t+1} = Sigma^(1/2) V_t Sigma^(1/2).

    Utau (I + P_k' lam*H P_k)^-1 Utau' with Utau = diag(U, ..., U): block k
    contracts by 1/(1 + lam*H) in the channel eigenbasis, the other blocks
    are left alone. Fully actuated (tau = 1) this is U (I + lam*H)^-1 U'.
    """
    if not 0 <= k < setup.tau:
        raise IndexOutOfRange(f"block index {k} outside 0..{setup.tau - 1}")
    r = setup.r
    denom = np.ones(setup.d0)
    denom[k * r:(k + 1) * r] = 1.0 + lam * setup.eig.H
    Utau = setup.Utau
    return sym_part((Utau / denom) @ Utau.T)


@dataclass(frozen=True)
class ChannelStep:
    """The channel's maps at one step, for a given (Sigma_t, Lambda_t, k).

    The leader sends s_t = enc e_t; the follower estimates e_t as dec y_t
    from the raw d0-dimensional channel output y_t = B1 s_t + w_t; the error
    then evolves as e_{t+1} = E e_t - dec w_t with covariance Sigma_next.
    The factors the maps are built from are kept for `channel_step_adjoint`:
    Sigma_t's clipped eigenpair and its roots Sig12, Sig12inv, and the
    power's S12 = S^(1/2), inv = (C S C' + Wv)^-1 and contraction V.
    """

    enc: np.ndarray
    dec: np.ndarray
    E: np.ndarray
    Sigma_next: np.ndarray
    sigma_eig: EigenPair
    Sig12: np.ndarray
    Sig12inv: np.ndarray
    S12: np.ndarray
    inv: np.ndarray
    V: np.ndarray


def channel_step(setup: ChannelSetup, Sigma: np.ndarray, lam: np.ndarray,
                 k: int = 0) -> ChannelStep:
    """Encoder, decoder, error-recursion map and Sigma_{t+1} at one step.

    One eigendecomposition of Sigma gives Sigma^(1/2) and the truncated
    Sigma^(-1/2): directions below the pseudo-inverse cutoff are already
    known to the follower and get zero signal. k is the transmitted block.
    The decoder Sigma^(1/2) P_k' S^(1/2) C' (C S C' + Wv)^-1 P is also the
    noise map of the error recursion: by the push-through identity it
    equals Sigma^(1/2) V_t P_k' S^(1/2) C' Wv^-1 P.
    """
    Sigma = check_symmetric(Sigma, name="Sigma")
    w, U = eigh_desc(Sigma)
    if w[-1] < -1e-10 * max(1.0, np.abs(w).max()):
        raise SigmaNearSingular(f"Sigma has a negative eigenvalue {w[-1]:.3e}")
    pair = EigenPair(U=U, H=np.clip(w, 0.0, None))
    Sig12, Sig12inv = eig_roots(pair)
    S12 = setup.S_sqrt_of(lam)
    C = setup.C
    try:
        inv = np.linalg.inv(sym_part(C @ setup.S_of(lam) @ C.T + setup.Wv))
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation("C S C' + Wv is singular") from exc
    Pk = projection_matrix(k, setup.r, setup.d0)
    V = contraction(setup, lam, k)
    SV = Sig12 @ V
    return ChannelStep(enc=setup.Q @ S12 @ Pk @ Sig12inv,
                       dec=Sig12 @ Pk.T @ S12 @ C.T @ inv @ setup.P,
                       E=SV @ Sig12inv, Sigma_next=sym_part(SV @ Sig12),
                       sigma_eig=pair, Sig12=Sig12, Sig12inv=Sig12inv,
                       S12=S12, inv=inv, V=V)


def channel_step_adjoint(setup: ChannelSetup, step: ChannelStep,
                         lam: np.ndarray, k: int, enc_bar: np.ndarray,
                         dec_bar: np.ndarray,
                         E_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reverse pass of `channel_step` at the same (Sigma_t, Lambda_t, k).

    Given the gradients of a scalar with respect to enc, dec and E, returns
    its gradients with respect to the power entries Lambda_t (length r) and
    Sigma_t (symmetric). Lambda_t reaches the maps through S^(1/2), through
    S inside (C S C' + Wv)^-1 and through the contraction V; Sigma_t through
    its root and truncated inverse root (`linalg.eig_roots_adjoint`). The
    entries of Lambda_t must be positive: S^(1/2) has no derivative at 0.
    """
    # enc = Q Sk B, dec = A Sk' out, E = A V B with Sk = S12 P_k and
    # out = C' inv P
    A, B, S12, inv, V = step.Sig12, step.Sig12inv, step.S12, step.inv, step.V
    C, r = setup.C, setup.r
    Sk = S12 @ projection_matrix(k, r, setup.d0)
    out = C.T @ inv @ setup.P
    A_dec = A @ dec_bar
    A_bar = dec_bar @ out.T @ Sk + E_bar @ B @ V
    B_bar = Sk.T @ setup.Q.T @ enc_bar + V @ A @ E_bar
    Sk_bar = setup.Q.T @ enc_bar @ B + out @ A_dec.T
    S12_bar = Sk_bar[:, k * r:(k + 1) * r]
    inv_bar = C @ Sk @ A_dec @ setup.P.T
    S_bar = -C.T @ inv @ inv_bar @ inv @ C
    V_bar = A @ E_bar @ B
    U, H = setup.eig.U, setup.eig.H
    Uk = setup.Utau[:, k * r:(k + 1) * r]

    def quad(X, W):       # u_j' X u_j for every column u_j of W
        return np.einsum("ij,ij->j", W, X @ W)

    lam_bar = (0.5 * quad(S12_bar, U) / np.sqrt(lam) + quad(S_bar, U)
               - H / (1.0 + lam * H) ** 2 * quad(V_bar, Uk))
    return lam_bar, eig_roots_adjoint(step.sigma_eig, A_bar, B_bar)
