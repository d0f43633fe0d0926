"""Dense symmetric linear algebra primitives.

Everything downstream (error-covariance recursions, costate equations,
channel diagonalizations) is built on the handful of operations here, so
their numerical conventions are pinned once:

- eigenvalues of PSD matrices in [-1e-10, 0) are clamped to 0 before
  square roots (roundoff from repeated congruences otherwise produces NaN);
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


def eigh_desc(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues sorted descending."""
    w, V = np.linalg.eigh(sym_part(np.asarray(M, dtype=float)))
    return w[::-1], V[:, ::-1]


@dataclass(frozen=True)
class EigenPair:
    """Orthonormal eigenvectors and nonnegative eigenvalues, descending."""

    U: np.ndarray
    H: np.ndarray

    @property
    def psi(self) -> float:
        """Smallest eigenvalue."""
        return float(self.H[-1])


def sym_eig(M: np.ndarray) -> EigenPair:
    """Eigendecomposition of a symmetric PSD matrix with clamped eigenvalues."""
    M = check_symmetric(M)
    w, V = eigh_desc(M)
    scale = max(1.0, w.max(initial=0.0))
    if w.min(initial=0.0) < -PSD_TOL * scale:
        raise NotPsd(f"min eigenvalue {w.min():.3e} is clearly negative")
    return EigenPair(U=V, H=np.clip(w, 0.0, None))


def _root_values(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(H) and the truncated H^(-1/2), zero where H <= PINV_SQRT_RTOL max(H).

    H may be a stack (..., d) of spectra; each is truncated against its own
    largest eigenvalue.
    """
    inv = np.zeros_like(H)
    live = H > PINV_SQRT_RTOL * H.max(axis=-1, keepdims=True, initial=0.0)
    inv[live] = H[live] ** -0.5
    return np.sqrt(H), inv


def eig_roots(pair: EigenPair) -> tuple[np.ndarray, np.ndarray]:
    """Square root and truncated inverse square root of U diag(H) U'.

    Eigendirections with H <= PINV_SQRT_RTOL * max(H) get zero in the
    inverse root.
    """
    root, inv = _root_values(pair.H)
    return (sym_part((pair.U * root) @ pair.U.T),
            sym_part((pair.U * inv) @ pair.U.T))


def eig_roots_kernels(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Daleckii-Krein kernels (F_root, F_inv) of `eig_roots` at the spectrum H.

    A spectral function f has Frechet derivative U (F o U' dM U) U' with
    F_ij the divided difference (f(h_i) - f(h_j)) / (h_i - h_j), f'(h_i)
    where h_i = h_j. For the root F_ij = 1 / (s_i + s_j) with s = sqrt(H),
    the kernel of the Sylvester-Lyapunov equation S X + X S = Y. For the
    inverse root it is -g_i g_j / (s_i + s_j) between live directions
    (g = H^(-1/2)), g_i / (h_i - h_j) between a live i and a truncated j,
    and 0 between truncated ones. A zero eigenvalue, where the root has no
    derivative, gets 0. H may be a stack (..., d); the kernels are then
    (..., d, d).
    """
    s, g = _root_values(H)
    live = g > 0.0
    ssum = s[..., :, None] + s[..., None, :]
    F_root = np.divide(1.0, ssum, out=np.zeros_like(ssum), where=ssum > 0.0)
    cross = live[..., :, None] != live[..., None, :]
    dh = np.where(cross, H[..., :, None] - H[..., None, :], 1.0)
    F_inv = np.where(cross, (g[..., :, None] - g[..., None, :]) / dh,
                     -(g[..., :, None] * g[..., None, :]) * F_root)
    return F_root, F_inv


def eig_roots_pullback(U: np.ndarray, kernels: tuple[np.ndarray, np.ndarray],
                       root_bar: np.ndarray, inv_bar: np.ndarray) -> np.ndarray:
    """Gradient with respect to M = U diag(H) U' from those of its roots.

    kernels = eig_roots_kernels(H); root_bar and inv_bar are the gradients
    of a scalar with respect to M^(1/2) and the truncated M^(-1/2).
    """
    F_root, F_inv = kernels
    X = (U.T @ root_bar @ U) * F_root + (U.T @ inv_bar @ U) * F_inv
    return sym_part(U @ X @ U.T)


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root S of a PSD matrix, S @ S = M."""
    return eig_roots(sym_eig(M))[0]


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
