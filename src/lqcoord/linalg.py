"""Dense symmetric linear algebra primitives.

Everything downstream (error-covariance recursions, costate equations,
channel diagonalizations) is built on the handful of operations here, so
their numerical conventions are pinned once:

- negative eigenvalues of PSD matrices are roundoff, clamped to 0 before
  square roots (which would be NaN) down to a tolerance and raised below
  it: -PSD_TOL max(1, largest eigenvalue) in `sym_eig` (NotPsd), and
  -EIG_CLAMP max(1, largest |eigenvalue|) for Sigma_t in
  `channel.sigma_steps` (SigmaNearSingular);
- numerical rank uses the relative threshold 1e-10 * sigma_max;
- inverse square roots are truncated pseudo-inverses: directions whose
  eigenvalue falls below a relative cutoff contribute zero instead of
  blowing up (they correspond to fully converged message directions).

Problem dimensions are single digits, so plain dense eigh/svd is used
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPsd, NotSymmetric, ZeroMatrix

SYM_TOL = 1e-12
PSD_TOL = 1e-6
EIG_CLAMP = 1e-10
RANK_RTOL = 1e-10
PINV_SQRT_RTOL = 1e-12


def sym_part(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a (..., d, d) stack."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def check_symmetric(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"{name} is not square: shape {M.shape}")
    scale = max(1.0, np.abs(M).max())
    if np.abs(M - M.T).max() > SYM_TOL * scale:
        raise NotSymmetric(f"{name} asymmetry {np.abs(M - M.T).max():.3e} exceeds tolerance")
    return sym_part(M)


@dataclass(frozen=True)
class EigenPair:
    """Orthonormal eigenvectors and nonnegative eigenvalues, descending."""

    U: np.ndarray
    H: np.ndarray


def sym_eig(M: np.ndarray) -> EigenPair:
    """Eigendecomposition of a symmetric PSD matrix with clamped eigenvalues."""
    w, V = np.linalg.eigh(check_symmetric(M))
    w, V = w[::-1], V[:, ::-1]
    scale = max(1.0, w.max(initial=0.0))
    if w.min(initial=0.0) < -PSD_TOL * scale:
        raise NotPsd(f"min eigenvalue {w.min():.3e} is clearly negative")
    return EigenPair(U=V, H=np.clip(w, 0.0, None))


def eig_roots_kernels(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Daleckii-Krein kernels (F_root, F_inv) of the square root and the
    truncated inverse square root U diag(sqrt H) U', U diag(H^(-1/2)) U' at
    the spectrum H. The inverse root is zero where H <= PINV_SQRT_RTOL
    max(H); a stack (..., d) of spectra is truncated spectrum by spectrum.

    A spectral function f has Frechet derivative U (F o U' dM U) U' with
    F_ij the divided difference (f(h_i) - f(h_j)) / (h_i - h_j), f'(h_i)
    where h_i = h_j. For the root F_ij = 1 / (s_i + s_j) with s = sqrt(H),
    the kernel of the Sylvester-Lyapunov equation S X + X S = Y. For the
    inverse root it is -g_i g_j / (s_i + s_j) between live directions
    (g = H^(-1/2)), g_i / (h_i - h_j) between a live i and a truncated j,
    and 0 between truncated ones. A zero eigenvalue, where the root has no
    derivative, gets 0. A stack H (..., d) gives kernels (..., d, d).
    """
    s, g = np.sqrt(H), np.zeros_like(H)
    live = H > PINV_SQRT_RTOL * H.max(axis=-1, keepdims=True, initial=0.0)
    g[live] = H[live] ** -0.5
    ssum = s[..., :, None] + s[..., None, :]
    F_root = np.divide(1.0, ssum, out=np.zeros_like(ssum), where=ssum > 0.0)
    cross = live[..., :, None] != live[..., None, :]
    dh = np.where(cross, H[..., :, None] - H[..., None, :], 1.0)
    F_inv = np.where(cross, (g[..., :, None] - g[..., None, :]) / dh,
                     -(g[..., :, None] * g[..., None, :]) * F_root)
    return F_root, F_inv


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root S of a PSD matrix, S @ S = M."""
    pair = sym_eig(M)
    return sym_part((pair.U * np.sqrt(pair.H)) @ pair.U.T)


def numerical_rank(M: np.ndarray, rtol: float = RANK_RTOL) -> int:
    sv = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


@dataclass(frozen=True)
class SvdFactors:
    """SVD of the leader input matrix, split at its numerical rank.

    Gamma0 (d0 x d0) and Gamma1 (d1 x d1) are orthonormal; Psi1 holds the
    r positive singular values, descending. Embedding Psi1 in the top-left
    block of a d0 x d1 rectangle reconstructs the input matrix.
    """

    Gamma0: np.ndarray
    Psi1: np.ndarray
    Gamma1: np.ndarray
    r: int


def svd_factor(B1: np.ndarray) -> SvdFactors:
    """Full SVD of B1 with singular values below 1e-10 * sigma_max dropped."""
    B1 = np.asarray(B1, dtype=float)
    U, sv, Vt = np.linalg.svd(B1, full_matrices=True)
    if sv.size == 0 or sv[0] <= 0.0:
        raise ZeroMatrix("input matrix is numerically zero")
    r = int(np.sum(sv > RANK_RTOL * sv[0]))
    return SvdFactors(Gamma0=U, Psi1=sv[:r].copy(), Gamma1=Vt.T, r=r)


def min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(sym_part(np.asarray(M, dtype=float))).min())
