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

The step map. With power S = U diag(Lambda_t) U' on block k (P_k selects
its coordinates), the leader sends s_t = enc e_t, enc = Q S^(1/2) P_k
Sigma^(-1/2), and the follower estimates e_t as dec y_t from the raw
d0-dimensional channel output, dec = Sigma^(1/2) P_k' S^(1/2) C'
(C S C' + Wv)^-1 P. The error then evolves as e_{t+1} = E e_t - dec w_t
with E = Sigma^(1/2) V Sigma^(-1/2), where the contraction V has factor
1/(1 + lam*h) for power lam and gain h on each direction of block k and
1 elsewhere; by the push-through identity dec = Sigma^(1/2) V P_k'
S^(1/2) C' Wv^-1 P, so dec is also the noise map. Sigma^(-1/2) is
truncated: directions of Sigma_t below `linalg.PINV_SQRT_RTOL` times its
largest eigenvalue are already known to the follower and get zero
signal. Sigma_{t+1} = E Sigma_t E' + dec W dec' (the Joseph form) is the
covariance this encoder and decoder produce; it equals the closed form
Sigma^(1/2) V Sigma^(1/2) while no direction is truncated, and stays
right when one is. Tr Sigma_{t+1} <= Tr Sigma_t, since V P V + right W
right' <= V <= I (`PowerFactors`) with P the projector on the live
directions.

The map has one implementation in two halves, each stacked over a
schedule's steps. The power half (`power_factors`) holds every factor
that depends on (Lambda_t, k) alone and is built for all steps in one
vectorised call. The Sigma half (`sigma_steps`) is the one forward Sigma
loop, for the rollout operator table and the exact-cost engine alike.
Each step keeps only the work on its chain: one eigendecomposition of
Sigma_t, both roots from one product, the maps they build with step t of
the power half, and the Joseph update. The encoder and the checks
(negative eigenvalues, a growing trace) run once over all steps after
the loop. The reverse pass is split the same way:
`power_factors_adjoint` for all steps, and `sigma_adjoint` makes the
constants of every step's Sigma-half pullback in one call for the
exact-cost engine's reverse loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (NonIntegerPeriod, RankDeficient, SigmaNearSingular,
                     SigmaTraceGrowth, SingularInnovation, ValidationError)
from .linalg import (EIG_CLAMP, PINV_SQRT_RTOL, EigenPair, check_symmetric,
                     eig_roots_kernels, numerical_rank, sym_eig, sym_part,
                     svd_factor)

# Tr Sigma_{t+1} <= Tr Sigma_t holds exactly; its roundoff grows like
# eps * sqrt(cond Sigma_t) through E = Sig12 V Sig12inv, ~2e-10 relative at
# the 1e12 pseudo-inverse cutoff, and this allowance leaves a factor 50 on it
TRACE_RTOL = 1e-8


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
    """Immutable per-system channel data shared by every rollout: Q (d1 x r),
    P (r x d0), C, Wv and eig = (U, H) as in the module docstring. The
    matrices the channel map needs at every step but that depend only on
    the setup are cached on first use.
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

    @cached_property
    def Utau(self) -> np.ndarray:
        return np.kron(np.eye(self.tau), self.eig.U)


def _channel(B1: np.ndarray, W: np.ndarray, Q: np.ndarray, P: np.ndarray,
             C: np.ndarray) -> ChannelSetup:
    d0, r = B1.shape[0], C.shape[0]
    if d0 % r != 0:
        raise NonIntegerPeriod(f"d0={d0} is not a multiple of rank r={r}")
    Wv = sym_part(P @ W @ P.T)
    # symmetric by construction; the solve's roundoff grows with cond(Wv)
    return ChannelSetup(B1=B1, W=W, Q=Q, P=P, C=C, Wv=Wv,
                        eig=sym_eig(sym_part(C.T @ np.linalg.solve(Wv, C))))


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


@dataclass(frozen=True)
class PowerFactors:
    """The power half of the channel map, stacked over a schedule's steps.

    Every factor of the step maps that depends on (Lambda_t, k_t) alone,
    each (n, ., .): S12 = S^(1/2), inv = (C S C' + Wv)^-1, the contraction
    V = Utau (I + P_k' lam*H P_k)^-1 Utau' with Utau = diag(U, ..., U),
    and the Sigma-free products left = Q S^(1/2) P_k (d1 x d0) and right =
    P_k' S^(1/2) C' inv P (d0 x d0).
    """

    lam: np.ndarray      # (n, r) power entries
    cols: np.ndarray     # (n, r) coordinates of the block sent at each step
    S12: np.ndarray
    inv: np.ndarray
    V: np.ndarray
    left: np.ndarray
    right: np.ndarray


def power_factors(setup: ChannelSetup, Lambda: np.ndarray,
                  blocks: list[int] | np.ndarray) -> PowerFactors:
    """The power half of the channel map for all steps of a schedule at once.

    Lambda is (n, r) and blocks the n transmitted block indices.
    """
    lam = np.asarray(Lambda, dtype=float)
    n, r, C, U, Utau = len(lam), setup.r, setup.C, setup.eig.U, setup.Utau
    steps = np.arange(n)[:, None]
    cols = np.asarray(blocks, dtype=int)[:, None] * r + np.arange(r)
    # S^(1/2) = U diag(sqrt(lam)) U' and S = U diag(lam) U' in one product
    S12, S = sym_part((U * np.stack([np.sqrt(lam), lam])[..., None, :]) @ U.T)
    try:
        inv = np.linalg.inv(sym_part(C @ S @ C.T + setup.Wv))
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation("C S C' + Wv is singular") from exc
    denom = np.ones((n, setup.d0))
    denom[steps, cols] = 1.0 + lam * setup.eig.H
    V = sym_part((Utau / denom[:, None, :]) @ Utau.T)
    # Q S^(1/2) P_k and P_k' (.) are the r-column/r-row products placed at
    # block k's coordinates
    left = np.zeros((n, setup.d1, setup.d0))
    left[steps, :, cols] = (setup.Q @ S12).swapaxes(1, 2)
    right = np.zeros((n, setup.d0, setup.d0))
    right[steps, cols] = S12 @ (C.T @ inv @ setup.P)
    return PowerFactors(lam=lam, cols=cols, S12=S12, inv=inv, V=V,
                        left=left, right=right)


@dataclass(frozen=True)
class SigmaPass:
    """The Sigma half of the channel map along a schedule, stacked.

    Sigma holds Sigma_0..Sigma_n (n + 1, d0, d0); every other field is
    (n, ., .) over steps 0..n-1: Sigma_t's clipped eigenpair U, H, its
    roots Sig12 and Sig12inv (truncated), the product SV = Sig12 V and the
    maps enc, dec and E.
    """

    Sigma: np.ndarray
    U: np.ndarray
    H: np.ndarray
    Sig12: np.ndarray
    Sig12inv: np.ndarray
    SV: np.ndarray
    enc: np.ndarray
    dec: np.ndarray
    E: np.ndarray


def sigma_steps(power: PowerFactors, Sigma0: np.ndarray,
                W: np.ndarray) -> SigmaPass:
    """The Sigma half of the channel map along all steps of `power`, with
    W the plant noise covariance.

    Sigma0 is checked for symmetry and symmetrised once; every later
    Sigma_t comes out of a symmetrisation. `SigmaNearSingular` names the
    first step whose Sigma_t has an eigenvalue below -EIG_CLAMP max(1,
    |eig|), and `SigmaTraceGrowth` the first that raises Tr Sigma by more
    than TRACE_RTOL Tr Sigma_t.
    """
    n, d0 = power.V.shape[:2]
    Sigma = np.empty((n + 1, d0, d0))
    Sigma[0] = check_symmetric(Sigma0, name="Sigma0")
    w, H = np.empty((2, n, d0))
    root_values = np.zeros((n, 2, d0))       # sqrt(H) and the truncated H^(-1/2)
    U, SV, dec, E = np.empty((4, n, d0, d0))
    roots = np.empty((n, 2, d0, d0))         # Sig12, Sig12inv
    steps = zip(Sigma, Sigma[1:], w, H, U, root_values, roots, SV, dec, E,
                power.V, power.right)
    for S_t, S_next, w_t, h, U_t, rv, root, SV_t, dec_t, E_t, V_t, right_t in steps:
        w_t[...], eigvecs = np.linalg.eigh(S_t)   # ascending; S_t is symmetric
        U_t[...] = eigvecs[:, ::-1]
        np.maximum(w_t[::-1], 0.0, out=h)
        np.sqrt(h, out=rv[0])
        # the live directions, h > cutoff * max h, lead the descending h
        live = d0 - w_t.searchsorted(PINV_SQRT_RTOL * h[0], "right")
        np.power(h[:live], -0.5, out=rv[1, :live])
        raw = (U_t * rv[:, None, :]).reshape(2 * d0, d0).dot(U_t.T)
        raw = raw.reshape(2, d0, d0)
        np.add(raw, raw.transpose(0, 2, 1).copy(), out=root)
        np.multiply(root, 0.5, out=root)
        root[0].dot(V_t, out=SV_t)
        root[0].dot(right_t, out=dec_t)
        SV_t.dot(root[1], out=E_t)
        S = E_t.dot(S_t).dot(E_t.T) + dec_t.dot(W).dot(dec_t.T)
        np.add(S, S.T.copy(), out=S_next)
        np.multiply(S_next, 0.5, out=S_next)
    low = w[:, 0] < -EIG_CLAMP * np.maximum(1.0, np.abs(w).max(axis=1))
    if low.any():
        t = int(low.argmax())
        raise SigmaNearSingular(f"Sigma at step {t} has a negative "
                                f"eigenvalue {w[t, 0]:.3e}")
    trace = np.trace(Sigma, axis1=1, axis2=2)
    grew = trace[1:] - trace[:-1] > TRACE_RTOL * trace[:-1]
    if grew.any():
        t = int(grew.argmax())
        raise SigmaTraceGrowth(f"Tr Sigma grows at step {t}: {trace[t]:.6e} -> "
                               f"{trace[t + 1]:.6e}, more than the roundoff "
                               f"allowance {TRACE_RTOL:g} relative")
    Sig12inv = roots[:, 1]
    return SigmaPass(Sigma=Sigma, U=U, H=H, Sig12=roots[:, 0], Sig12inv=Sig12inv,
                     SV=SV, enc=power.left @ Sig12inv, dec=dec, E=E)


@dataclass(frozen=True)
class SigmaAdjoint:
    """Per-step constants of the Sigma half's reverse pass, stacked.

    Given the gradients enc_bar, dec_bar and E_bar of a scalar with
    respect to step t's maps, its gradient with respect to Sigma_t is
    sym(U X U') with

        X = F_root o (U' [E_bar | dec_bar] RU) + F_inv o (LU [enc_bar; E_bar] U),

    where RU = [Sig12inv V U; right' U] (2 d0 x d0), LU = U' [left' | SV']
    (d0 x (d1 + d0)) and (F_root, F_inv) are the Daleckii-Krein kernels of
    Sigma_t's roots (`linalg.eig_roots_kernels`): X collects the gradients
    with respect to Sigma^(1/2) (from dec = Sig12 right and E = Sig12 V
    Sig12inv) and the truncated Sigma^(-1/2) (from enc = left Sig12inv and
    E) in Sigma_t's eigenbasis.
    """

    U: np.ndarray
    F_root: np.ndarray
    F_inv: np.ndarray
    RU: np.ndarray
    LU: np.ndarray


def sigma_adjoint(power: PowerFactors, sigma: SigmaPass) -> SigmaAdjoint:
    """The reverse-pass constants of every step of `sigma`, in one call."""
    U = sigma.U
    F_root, F_inv = eig_roots_kernels(sigma.H)
    RU = np.concatenate([sigma.Sig12inv @ power.V, power.right.swapaxes(1, 2)],
                        axis=1) @ U
    LU = (np.concatenate([power.left, sigma.SV], axis=1) @ U).swapaxes(1, 2)
    return SigmaAdjoint(U=U, F_root=F_root, F_inv=F_inv, RU=RU, LU=LU)


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
    U, H, C = setup.eig.U, setup.eig.H, setup.C
    # enc = left Sig12inv, dec = Sig12 right, E = Sig12 V Sig12inv, and
    # left = Q S12 P_k, right = P_k' S12 out with out = C' inv P: only
    # block k's columns of left_bar = enc_bar Sig12inv, rows of right_bar =
    # Sig12 dec_bar and block of V_bar = Sig12 E_bar Sig12inv count, and
    # they take block k's rows of the (symmetric) roots
    steps, cols = np.arange(len(power.lam))[:, None], power.cols
    root_k, inv_root_k = Sig12[steps, cols], Sig12inv[steps, cols].swapaxes(1, 2)
    rb = root_k @ dec_bar
    CI = C.T @ power.inv
    out = CI @ setup.P
    S12_bar = setup.Q.T @ (enc_bar @ inv_root_k) + out @ rb.swapaxes(1, 2)
    # through (C S C' + Wv)^-1: -C' inv (C S12 rb P') inv C
    S_bar = -(CI @ C) @ power.S12 @ rb @ out.swapaxes(1, 2)
    Vb = root_k @ E_bar @ inv_root_k
    # u_j' X_t u_j for every column u_j of U, for the three gradients at once
    q = np.einsum("ij,stij->stj", U, np.stack([S12_bar, S_bar, Vb]) @ U)
    lam = power.lam
    return 0.5 * q[0] / np.sqrt(lam) + q[1] - H / (1.0 + lam * H) ** 2 * q[2]
