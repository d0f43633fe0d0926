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

from .errors import NotPd, NotPsd, NotSymmetric, ZeroMatrix

SYM_TOL = 1e-12
PSD_TOL = 1e-6
EIG_CLAMP = 1e-10
RANK_RTOL = 1e-10
PINV_SQRT_RTOL = 1e-12


def sym_part(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def check_symmetric(M: np.ndarray, tol: float = SYM_TOL, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"{name} is not square: shape {M.shape}")
    scale = max(1.0, np.abs(M).max())
    if np.abs(M - M.T).max() > tol * scale:
        raise NotSymmetric(f"{name} asymmetry {np.abs(M - M.T).max():.3e} exceeds tolerance")
    return sym_part(M)


def eigh_desc(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues sorted descending."""
    w, V = np.linalg.eigh(sym_part(np.asarray(M, dtype=float)))
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


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


def eig_roots(pair: EigenPair,
              rtol: float = PINV_SQRT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Square root and truncated inverse square root of U diag(H) U'.

    Eigendirections with H <= rtol * max(H) get zero in the inverse root.
    """
    lmax = pair.H.max(initial=0.0)
    inv = np.zeros_like(pair.H)
    live = pair.H > rtol * lmax
    inv[live] = pair.H[live] ** -0.5
    root = sym_part((pair.U * np.sqrt(pair.H)) @ pair.U.T)
    return root, sym_part((pair.U * inv) @ pair.U.T)


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root S of a PSD matrix, S @ S = M."""
    return eig_roots(sym_eig(M))[0]


def pinv_sqrt(M: np.ndarray, rtol: float = PINV_SQRT_RTOL) -> np.ndarray:
    """Truncated inverse square root of a PSD matrix.

    Eigendirections with eigenvalue <= rtol * lambda_max are mapped to zero.
    On well-conditioned input this equals inv(psd_sqrt(M)).
    """
    return eig_roots(sym_eig(M), rtol)[1]


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

    def reconstruct(self) -> np.ndarray:
        d0 = self.Gamma0.shape[0]
        d1 = self.Gamma1.shape[0]
        Psi_bar = np.zeros((d0, d1))
        Psi_bar[: self.r, : self.r] = np.diag(self.Psi1)
        return self.Gamma0 @ Psi_bar @ self.Gamma1.T


def svd_factor(B1: np.ndarray) -> SvdFactors:
    """Full SVD of B1 with singular values below 1e-10 * sigma_max dropped."""
    B1 = np.asarray(B1, dtype=float)
    U, sv, Vt = np.linalg.svd(B1, full_matrices=True)
    if sv.size == 0 or sv[0] <= 0.0:
        raise ZeroMatrix("input matrix is numerically zero")
    r = int(np.sum(sv > RANK_RTOL * sv[0]))
    return SvdFactors(Gamma0=U, Psi1=sv[:r].copy(), Gamma1=Vt.T, r=r)


def solve_sylvester_lyapunov(A: np.ndarray, RHS: np.ndarray) -> np.ndarray:
    """Solve A @ X + X @ A = RHS for symmetric PD A.

    Solved in the eigenbasis of A: with A = V diag(lam) Vt and R~ = Vt RHS V,
    X~_ij = R~_ij / (lam_i + lam_j), which is well posed since lam_i > 0.
    RHS need not be symmetric; X is symmetric iff RHS is.
    """
    A = check_symmetric(A, name="A")
    RHS = np.asarray(RHS, dtype=float)
    lam, V = eigh_desc(A)
    if lam[-1] <= 1e-12:
        raise NotPd(f"min eigenvalue of A is {lam[-1]:.3e}; Sylvester solve needs A PD")
    Rt = V.T @ RHS @ V
    Xt = Rt / (lam[:, None] + lam[None, :])
    return V @ Xt @ V.T


def min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(sym_part(np.asarray(M, dtype=float))).min())
