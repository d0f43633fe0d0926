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

The per-step map from (Sigma_t, Lambda_t, block k) to the encoder, the
decoder, the error-recursion map and Sigma_{t+1} has one implementation in
two halves. The power half (`power_factors`) holds every factor that
depends on (Lambda_t, k) alone and is built for all steps of a schedule in
one vectorised call. The Sigma half (`sigma_step`) takes one
eigendecomposition of Sigma_t, combines its roots with step t of the power
half and propagates Sigma_t through the maps it built (the Joseph form).
`channel_step` composes the two for a single step; `sigma_steps` runs the
Sigma half along a schedule, for the rollout operator table and the
exact-cost engine alike. The reverse pass is split the same way
(`power_factors_adjoint`, `sigma_step_adjoint`). The contraction V_t has
per-direction factor 1/(1 + lam*h) for power lam and gain h.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (IndexOutOfRange, NonIntegerPeriod, RankDeficient,
                     SigmaNearSingular, SingularInnovation, ValidationError)
from .linalg import (EigenPair, check_symmetric, eig_roots, eig_roots_kernels,
                     eig_roots_pullback, eigh_desc, numerical_rank, sym_eig,
                     sym_part, svd_factor)


def choose_projection(B1: np.ndarray) -> np.ndarray:
    """The fully actuated signal projection Q: identity when square, B1'
    when d1 > d0.

    Requires rank(B1) = d0; the returned Q keeps B1 Q full rank so no
    message direction is lost.
    """
    B1 = np.asarray(B1, dtype=float)
    d0, d1 = B1.shape
    if numerical_rank(B1) < d0:
        raise RankDeficient("B1 is not full row rank; use the under-actuated setup")
    Q = np.eye(d0) if d0 == d1 else B1.T
    if numerical_rank(B1 @ Q) < d0:
        raise RankDeficient("B1 B1' lost numerical rank; B1 is too ill-conditioned")
    return Q


@dataclass(frozen=True)
class ChannelSetup:
    """Immutable per-system channel data shared by every rollout.

    Q (d1 x r) maps the signal into the leader's input, P (r x d0) the plant
    output to the channel output, C = P B1 Q is the channel gain, Wv = P W P'
    the channel noise covariance and eig = (U, H) the eigenpair of
    C' Wv^-1 C. The matrices the channel map needs at every step but that
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
        """Signal covariance U diag(lam) U' in the channel eigenbasis.

        lam is one step's power (r,) or a stack (n, r), giving (n, r, r).
        """
        U = self.eig.U
        return sym_part((U * np.asarray(lam)[..., None, :]) @ U.T)

    def S_sqrt_of(self, lam: np.ndarray) -> np.ndarray:
        """S^(1/2) = U diag(sqrt(lam)) U', for one step or a stack."""
        U = self.eig.U
        return sym_part((U * np.sqrt(lam)[..., None, :]) @ U.T)


def _channel(B1: np.ndarray, W: np.ndarray, Q: np.ndarray, P: np.ndarray,
             C: np.ndarray) -> ChannelSetup:
    d0, r = B1.shape[0], C.shape[0]
    if d0 % r != 0:
        raise NonIntegerPeriod(f"d0={d0} is not a multiple of rank r={r}")
    Wv = sym_part(P @ W @ P.T)
    return ChannelSetup(B1=B1, W=W, Q=Q, P=P, C=C, Wv=Wv,
                        eig=sym_eig(C.T @ np.linalg.solve(Wv, C)))


def fa_setup(B1: np.ndarray, W: np.ndarray) -> ChannelSetup:
    """Channel data for a fully actuated leader: P = I and C = B1 Q (r = d0),
    with Q from `choose_projection`."""
    B1 = np.asarray(B1, dtype=float)
    W = check_symmetric(np.asarray(W, dtype=float), name="W")
    Q = choose_projection(B1)
    return _channel(B1, W, Q, np.eye(B1.shape[0]), B1 @ Q)


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


def contraction(setup: ChannelSetup, lam: np.ndarray,
                k: int | np.ndarray = 0) -> np.ndarray:
    """Per-step contraction V_t of the error map E_t = Sigma^(1/2) V_t Sigma^(-1/2).

    Utau (I + P_k' lam*H P_k)^-1 Utau' with Utau = diag(U, ..., U): block k
    contracts by 1/(1 + lam*H) in the channel eigenbasis, the other blocks
    are left alone. Fully actuated (tau = 1) this is U (I + lam*H)^-1 U'.
    lam (r,) with one block k, or a schedule's stacks (n, r) and (n,).
    """
    lam, k = np.asarray(lam, dtype=float), np.asarray(k)
    outside = (k < 0) | (k >= setup.tau)
    if np.any(outside):
        raise IndexOutOfRange(f"block index {k[outside].flat[0]} outside "
                              f"0..{setup.tau - 1}")
    r = setup.r
    denom = np.ones(lam.shape[:-1] + (setup.d0,))
    np.put_along_axis(denom, k[..., None] * r + np.arange(r),
                      1.0 + lam * setup.eig.H, axis=-1)
    Utau = setup.Utau
    return sym_part((Utau / denom[..., None, :]) @ Utau.T)


@dataclass(frozen=True)
class PowerFactors:
    """The power half of the channel map, stacked over a schedule's steps.

    Every factor of the step maps that depends on (Lambda_t, k_t) alone:
    S12 = S^(1/2), inv = (C S C' + Wv)^-1, the contraction V and the two
    Sigma-free products left = Q S^(1/2) P_k (d1 x d0) and
    right = P_k' S^(1/2) C' inv P (d0 x d0), each (n, ., .).
    """

    lam: np.ndarray      # (n, r) power entries
    blocks: np.ndarray   # (n,) transmitted block per step
    S12: np.ndarray
    inv: np.ndarray
    V: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def at(self, t: int) -> "PowerFactors":
        """The one-step stack of step t."""
        return PowerFactors(*(getattr(self, f.name)[t:t + 1] for f in fields(self)))


def power_factors(setup: ChannelSetup, Lambda: np.ndarray,
                  blocks: list[int] | np.ndarray) -> PowerFactors:
    """The power half of the channel map for all steps of a schedule at once.

    Lambda is (n, r) and blocks the n transmitted block indices.
    """
    lam = np.asarray(Lambda, dtype=float)
    blocks = np.asarray(blocks, dtype=int)
    n, r, C = len(lam), setup.r, setup.C
    S12 = setup.S_sqrt_of(lam)
    try:
        inv = np.linalg.inv(sym_part(C @ setup.S_of(lam) @ C.T + setup.Wv))
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation("C S C' + Wv is singular") from exc
    V = contraction(setup, lam, blocks)
    # P_k selects block k's coordinates, so Q S^(1/2) P_k and P_k' (.) are
    # the r-column/r-row products placed at those coordinates
    cols = blocks[:, None] * r + np.arange(r)
    left = np.zeros((n, setup.d1, setup.d0))
    np.put_along_axis(left, cols[:, None, :], setup.Q @ S12, axis=2)
    right = np.zeros((n, setup.d0, setup.d0))
    np.put_along_axis(right, cols[:, :, None], S12 @ (C.T @ inv @ setup.P), axis=1)
    return PowerFactors(lam=lam, blocks=blocks, S12=S12, inv=inv, V=V,
                        left=left, right=right)


@dataclass(frozen=True)
class ChannelStep:
    """The channel's maps at one step, for a given (Sigma_t, Lambda_t, k).

    The leader sends s_t = enc e_t; the follower estimates e_t as dec y_t
    from the raw d0-dimensional channel output y_t = B1 s_t + w_t; the error
    then evolves as e_{t+1} = E e_t - dec w_t, so Sigma_next = E Sigma_t E'
    + dec W dec' is the covariance this encoder and decoder produce, also
    where the pseudo-inverse cutoff drops a direction of Sigma_t. The Sigma
    half's factors are kept for the reverse pass: Sigma_t's clipped
    eigenpair, its roots Sig12, Sig12inv and SV = Sig12 V; the power half
    is step t of `power`.
    """

    enc: np.ndarray
    dec: np.ndarray
    E: np.ndarray
    Sigma_next: np.ndarray
    sigma_eig: EigenPair
    Sig12: np.ndarray
    Sig12inv: np.ndarray
    SV: np.ndarray
    power: PowerFactors
    t: int


def sigma_step(power: PowerFactors, t: int, Sigma: np.ndarray,
               W: np.ndarray) -> ChannelStep:
    """The Sigma half of the channel map at step t of a schedule.

    One eigendecomposition of Sigma gives Sigma^(1/2) and the truncated
    Sigma^(-1/2): directions below the pseudo-inverse cutoff are already
    known to the follower and get zero signal. Then enc = left Sigma^(-1/2),
    dec = Sigma^(1/2) right, E = Sigma^(1/2) V Sigma^(-1/2) and, with W the
    plant noise covariance, Sigma_{t+1} = E Sigma E' + dec W dec'.
    """
    Sigma = check_symmetric(Sigma, name="Sigma")
    w, U = eigh_desc(Sigma)
    if w[-1] < -1e-10 * max(1.0, np.abs(w).max()):
        raise SigmaNearSingular(f"Sigma has a negative eigenvalue {w[-1]:.3e}")
    pair = EigenPair(U=U, H=np.clip(w, 0.0, None))
    Sig12, Sig12inv = eig_roots(pair)
    SV = Sig12 @ power.V[t]
    E, dec = SV @ Sig12inv, Sig12 @ power.right[t]
    return ChannelStep(enc=power.left[t] @ Sig12inv, dec=dec, E=E,
                       Sigma_next=sym_part(E @ Sigma @ E.T + dec @ W @ dec.T),
                       sigma_eig=pair, Sig12=Sig12, Sig12inv=Sig12inv, SV=SV,
                       power=power, t=t)


def sigma_steps(power: PowerFactors, Sigma0: np.ndarray,
                W: np.ndarray) -> list[ChannelStep]:
    """The Sigma half along all steps of `power`, from Sigma_0 = Sigma0:
    step t runs at the Sigma_next of step t - 1."""
    steps, Sigma = [], Sigma0
    for t in range(len(power.lam)):
        steps.append(sigma_step(power, t, Sigma, W))
        Sigma = steps[-1].Sigma_next
    return steps


def channel_step(setup: ChannelSetup, Sigma: np.ndarray, lam: np.ndarray,
                 k: int = 0) -> ChannelStep:
    """Encoder, decoder, error-recursion map and Sigma_{t+1} at one step.

    The composition of the two halves for a single step: `power_factors`
    of (lam, k), then `sigma_step` at Sigma and W. k is the transmitted block.
    The decoder Sigma^(1/2) P_k' S^(1/2) C' (C S C' + Wv)^-1 P is also the
    noise map of the error recursion: by the push-through identity it
    equals Sigma^(1/2) V_t P_k' S^(1/2) C' Wv^-1 P.
    """
    return sigma_step(power_factors(setup, np.asarray(lam)[None], [k]), 0, Sigma,
                      setup.W)


def sigma_step_adjoint(step: ChannelStep, kernels: tuple[np.ndarray, np.ndarray],
                       enc_bar: np.ndarray, dec_bar: np.ndarray,
                       E_bar: np.ndarray) -> np.ndarray:
    """Reverse pass of `sigma_step`: the gradient with respect to Sigma_t.

    Given the gradients of a scalar with respect to enc, dec and E, maps
    them through Sigma_t's root and truncated inverse root;
    kernels = linalg.eig_roots_kernels(step.sigma_eig.H).
    """
    power, t = step.power, step.t
    root_bar = dec_bar @ power.right[t].T + E_bar @ step.Sig12inv @ power.V[t]
    inv_bar = power.left[t].T @ enc_bar + step.SV.T @ E_bar
    return eig_roots_pullback(step.sigma_eig.U, kernels, root_bar, inv_bar)


def power_factors_adjoint(setup: ChannelSetup, power: PowerFactors,
                          Sig12: np.ndarray, Sig12inv: np.ndarray,
                          enc_bar: np.ndarray, dec_bar: np.ndarray,
                          E_bar: np.ndarray) -> np.ndarray:
    """Reverse pass of the power half over all steps: dScalar/dLambda, (n, r).

    Sig12, Sig12inv and the gradients enc_bar, dec_bar, E_bar are stacked
    over the steps of `power`. Lambda_t reaches the maps through S^(1/2),
    through S inside (C S C' + Wv)^-1 and through the contraction V. The
    entries of Lambda must be positive: S^(1/2) has no derivative at 0.
    """
    U, H, C, r = setup.eig.U, setup.eig.H, setup.C, setup.r
    # enc = left Sig12inv, dec = Sig12 right, E = Sig12 V Sig12inv
    left_bar = enc_bar @ Sig12inv
    right_bar = Sig12 @ dec_bar
    V_bar = Sig12 @ E_bar @ Sig12inv
    # left = Q S12 P_k, right = P_k' S12 out with out = C' inv P: only block
    # k's columns of left_bar, rows of right_bar and block of V_bar count
    cols = power.blocks[:, None] * r + np.arange(r)
    lb = np.take_along_axis(left_bar, cols[:, None, :], axis=2)
    rb = np.take_along_axis(right_bar, cols[:, :, None], axis=1)
    Vb = np.take_along_axis(np.take_along_axis(V_bar, cols[:, :, None], axis=1),
                            cols[:, None, :], axis=2)
    out = C.T @ power.inv @ setup.P
    S12_bar = setup.Q.T @ lb + out @ rb.swapaxes(1, 2)
    inv_bar = C @ power.S12 @ rb @ setup.P.T
    S_bar = -C.T @ power.inv @ inv_bar @ power.inv @ C

    def quad(X):          # u_j' X_t u_j for every column u_j of U
        return np.einsum("ij,tij->tj", U, X @ U)

    lam = power.lam
    return (0.5 * quad(S12_bar) / np.sqrt(lam) + quad(S_bar)
            - H / (1.0 + lam * H) ** 2 * quad(Vb))


def channel_step_adjoint(setup: ChannelSetup, step: ChannelStep,
                         enc_bar: np.ndarray, dec_bar: np.ndarray,
                         E_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reverse pass of `channel_step`: the gradients w.r.t. Lambda_t and Sigma_t.

    Given the gradients of a scalar with respect to enc, dec and E at one
    step, returns its gradients with respect to the power entries Lambda_t
    (length r) and Sigma_t (symmetric): the two halves' reverse passes,
    `power_factors_adjoint` on the step's one-step stack and
    `sigma_step_adjoint`.
    """
    Sigma_bar = sigma_step_adjoint(step, eig_roots_kernels(step.sigma_eig.H),
                                   enc_bar, dec_bar, E_bar)
    lam_bar = power_factors_adjoint(setup, step.power.at(step.t),
                                    step.Sig12[None], step.Sig12inv[None],
                                    enc_bar[None], dec_bar[None], E_bar[None])
    return lam_bar[0], Sigma_bar
