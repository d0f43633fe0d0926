"""The plant as a channel: the per-step signaling map and its setup data.

The leader embeds the follower's current estimation error e_t into its input
through an additive zero-mean term s_t; subtracting every follower-computable
quantity from the observed transition leaves y_t = B1 s_t + w_t, a Gaussian
channel with perfect feedback (both agents can form y_t). The conditional-mean
decoder then contracts the error covariance by an exactly computable factor
per step.

Two regimes:

- fully actuated (rank B1 = d0): one channel use spans every message
  coordinate. Signals use a projection Q with full-rank B1 Q, and power is
  allocated in the eigenbasis U of (B1 Q)' W^-1 (B1 Q) = U diag(H) U'.
- under-actuated (rank B1 = r < d0): the SVD of B1 exposes an r-dimensional
  virtual channel; r message coordinates are sent per step, cycling through
  d0/r blocks with period tau.

`channel_step` is the one implementation of the per-step map: from
(Sigma_t, Lambda_t, block k) it returns the encoder, the decoder, the
error-recursion maps and Sigma_{t+1}. The rollout operator table, the
exact-cost engine and the minimum-principle stack all call it. The
contraction has per-direction factor 1/(1 + lam*h) for power lam and
gain h.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (IndexOutOfRange, NonIntegerPeriod, RankDeficient,
                     SigmaNearSingular, SingularInnovation, ValidationError)
from .linalg import (EigenPair, SvdFactors, check_symmetric, eig_roots,
                     eigh_desc, numerical_rank, sym_eig, sym_part, svd_factor)


class ChannelMode(Enum):
    FULLY_ACTUATED = "fully_actuated"
    UNDER_ACTUATED = "under_actuated"


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

    Fully actuated: Q, Q1 = B1 Q and the eigenpair (U, H). Under-actuated:
    SVD factors of B1, the rotated-noise blocks Wbar1/Wbar3, the virtual
    channel eigenpair (U1, Pi1), period tau, and Utau = diag(U1, ..., U1).
    The matrices `channel_step` needs at every step but that depend only on
    the setup are cached on first use.
    """

    mode: ChannelMode
    B1: np.ndarray
    W: np.ndarray
    # fully actuated fields
    Q: np.ndarray | None = None
    eig: EigenPair | None = None
    # under-actuated fields
    svd: SvdFactors | None = None
    Wbar1: np.ndarray | None = None
    Wbar2: np.ndarray | None = None
    Wbar3: np.ndarray | None = None
    virt: EigenPair | None = None
    tau: int = 0

    @property
    def d0(self) -> int:
        return self.B1.shape[0]

    @property
    def d1(self) -> int:
        return self.B1.shape[1]

    @property
    def r(self) -> int:
        return self.svd.r if self.svd is not None else self.d0

    @cached_property
    def Q1(self) -> np.ndarray:
        return self.B1 @ self.Q

    @property
    def psi(self) -> float:
        """Smallest channel-gain eigenvalue (fully actuated)."""
        return self.eig.psi

    @property
    def pi(self) -> float:
        """Smallest virtual-channel gain eigenvalue (under-actuated)."""
        return self.virt.psi

    @cached_property
    def Utau(self) -> np.ndarray:
        return np.kron(np.eye(self.tau), self.virt.U)

    @cached_property
    def W_inv(self) -> np.ndarray:
        """W^-1, the plant-noise factor of the fully actuated N map."""
        return np.linalg.inv(self.W)

    @cached_property
    def Psi1_diag(self) -> np.ndarray:
        return np.diag(self.svd.Psi1)

    @cached_property
    def virt_out(self) -> np.ndarray:
        """Gamma0[:, :r]': plant output y -> virtual channel output."""
        return self.svd.Gamma0[:, : self.r].T

    @cached_property
    def virt_noise_gain(self) -> np.ndarray:
        """Wbar1^-1 Gamma0[:, :r]', the plant-noise factor of the under-actuated N map."""
        return np.linalg.solve(self.Wbar1, self.virt_out)

    def S_of(self, lam: np.ndarray) -> np.ndarray:
        """Signal covariance U diag(lam) U' in the channel eigenbasis."""
        U = self.eig.U if self.mode is ChannelMode.FULLY_ACTUATED else self.virt.U
        return sym_part((U * lam) @ U.T)

    def S_sqrt_of(self, lam: np.ndarray) -> np.ndarray:
        U = self.eig.U if self.mode is ChannelMode.FULLY_ACTUATED else self.virt.U
        return sym_part((U * np.sqrt(lam)) @ U.T)


def fa_setup(B1: np.ndarray, W: np.ndarray, Q: np.ndarray | None = None) -> ChannelSetup:
    """Channel data for a fully actuated leader."""
    B1 = np.asarray(B1, dtype=float)
    W = check_symmetric(np.asarray(W, dtype=float), name="W")
    if Q is None:
        Q = choose_projection(B1)
    else:
        Q = np.asarray(Q, dtype=float)
        if numerical_rank(B1 @ Q) < B1.shape[0]:
            raise RankDeficient("B1 Q is rank deficient for the supplied projection")
    Q1 = B1 @ Q
    gain = sym_eig(Q1.T @ np.linalg.solve(W, Q1))
    return ChannelSetup(mode=ChannelMode.FULLY_ACTUATED, B1=B1, W=W, Q=Q, eig=gain)


def ua_setup(B1: np.ndarray, W: np.ndarray) -> ChannelSetup:
    """Channel data for an under-actuated leader (rank B1 = r < d0, d0 % r = 0)."""
    B1 = np.asarray(B1, dtype=float)
    W = check_symmetric(np.asarray(W, dtype=float), name="W")
    factors = svd_factor(B1)
    d0 = B1.shape[0]
    r = factors.r
    if r >= d0:
        raise RankDeficient("B1 is full rank; use the fully actuated setup")
    if d0 % r != 0:
        raise NonIntegerPeriod(f"d0={d0} is not a multiple of rank r={r}")
    Wbar = factors.Gamma0.T @ W @ factors.Gamma0
    Wbar1 = sym_part(Wbar[:r, :r])
    Wbar2 = sym_part(Wbar[r:, r:])
    Wbar3 = Wbar[:r, r:]
    Psi1 = np.diag(factors.Psi1)
    virt = sym_eig(Psi1 @ np.linalg.solve(Wbar1, Psi1))
    return ChannelSetup(mode=ChannelMode.UNDER_ACTUATED, B1=B1, W=W, svd=factors,
                        Wbar1=Wbar1, Wbar2=Wbar2, Wbar3=Wbar3, virt=virt,
                        tau=d0 // r)


def projection_matrix(k: int, r: int, d0: int) -> np.ndarray:
    """r x d0 selector with I_r in columns k*r .. (k+1)*r - 1."""
    if not 0 <= k < d0 // r:
        raise IndexOutOfRange(f"block index {k} outside 0..{d0 // r - 1}")
    P = np.zeros((r, d0))
    P[:, k * r:(k + 1) * r] = np.eye(r)
    return P




def block_schedule(setup: ChannelSetup, n: int,
                   block_order: list[int] | None = None) -> list[int | None]:
    """Transmitted block per step, block_order[t % tau] (None when fully actuated).

    block_order defaults to the round-robin 0..tau-1 and must be a
    permutation of it, so every block is sent once per period.
    """
    if setup.mode is ChannelMode.FULLY_ACTUATED:
        return [None] * n
    order = list(range(setup.tau)) if block_order is None else list(block_order)
    if sorted(order) != list(range(setup.tau)):
        raise ValidationError(f"block_order {order} is not a permutation of "
                              f"0..{setup.tau - 1}")
    order = [int(k) for k in order]
    return [order[t % setup.tau] for t in range(n)]


def contraction(setup: ChannelSetup, lam: np.ndarray,
                k: int | None = None) -> np.ndarray:
    """Per-step covariance contraction V_t, Sigma_{t+1} = Sigma^(1/2) V_t Sigma^(1/2).

    Fully actuated: U (I + lam*H)^-1 U'. Under-actuated, block k:
    Utau (I + P_k' lam*Pi P_k)^-1 Utau', the identity outside block k.
    """
    if setup.mode is ChannelMode.FULLY_ACTUATED:
        U, H = setup.eig.U, setup.eig.H
        return sym_part((U / (1.0 + lam * H)) @ U.T)
    if not 0 <= k < setup.tau:
        raise IndexOutOfRange(f"block index {k} outside 0..{setup.tau - 1}")
    r = setup.r
    diag = np.ones(setup.d0)
    diag[k * r:(k + 1) * r] = 1.0 / (1.0 + lam * setup.virt.H)
    Utau = setup.Utau
    return sym_part((Utau * diag) @ Utau.T)


@dataclass(frozen=True)
class ChannelStep:
    """The channel's maps at one step, for a given (Sigma_t, Lambda_t, k).

    The leader sends s_t = enc e_t; the follower estimates e_t as dec y_t
    from the raw d0-dimensional channel output y_t = B1 s_t + w_t; the error
    then evolves as e_{t+1} = E e_t - N w_t with covariance Sigma_next.
    """

    enc: np.ndarray
    dec: np.ndarray
    E: np.ndarray
    N: np.ndarray
    Sigma_next: np.ndarray


def channel_step(setup: ChannelSetup, Sigma: np.ndarray, lam: np.ndarray,
                 k: int | None = None) -> ChannelStep:
    """Encoder, decoder, error-recursion maps and Sigma_{t+1} at one step.

    One eigendecomposition of Sigma gives Sigma^(1/2) and the truncated
    Sigma^(-1/2): directions below the pseudo-inverse cutoff are already
    known to the follower and get zero signal. k is the transmitted block
    (under-actuated only).
    """
    Sigma = check_symmetric(Sigma, name="Sigma")
    w, U = eigh_desc(Sigma)
    if w[-1] < -1e-10 * max(1.0, np.abs(w).max()):
        raise SigmaNearSingular(f"Sigma has a negative eigenvalue {w[-1]:.3e}")
    Sig12, Sig12inv = eig_roots(EigenPair(U=U, H=np.clip(w, 0.0, None)))
    S = setup.S_of(lam)
    S12 = setup.S_sqrt_of(lam)
    SV = Sig12 @ contraction(setup, lam, k)
    if setup.mode is ChannelMode.FULLY_ACTUATED:
        Q1 = setup.Q1
        try:
            inv = np.linalg.inv(sym_part(Q1 @ S @ Q1.T + setup.W))
        except np.linalg.LinAlgError as exc:
            raise SingularInnovation("B1 Q S Q' B1' + W is singular") from exc
        enc = setup.Q @ S12 @ Sig12inv
        dec = Sig12 @ S12 @ Q1.T @ inv
        N = SV @ S12 @ setup.Q.T @ setup.B1.T @ setup.W_inv
    else:
        Pk = projection_matrix(k, setup.r, setup.d0)
        Psi1 = setup.Psi1_diag
        try:
            inv = np.linalg.inv(sym_part(Psi1 @ S @ Psi1 + setup.Wbar1))
        except np.linalg.LinAlgError as exc:
            raise SingularInnovation("Psi1 S Psi1 + Wbar1 is singular") from exc
        virt = S12 @ Pk @ Sig12inv
        enc = setup.svd.Gamma1 @ np.vstack(
            [virt, np.zeros((setup.d1 - setup.r, setup.d0))])
        dec = Sig12 @ Pk.T @ S12 @ Psi1 @ inv @ setup.virt_out
        N = SV @ Pk.T @ S12 @ Psi1 @ setup.virt_noise_gain
    return ChannelStep(enc=enc, dec=dec, E=SV @ Sig12inv, N=N,
                       Sigma_next=sym_part(SV @ Sig12))
