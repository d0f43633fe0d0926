"""Finite-horizon tracking-LQR gains for the joint input.

Backward value recursion (Phi_n = Dbar_n = Fn):

    R_t    = G + B' Phi_{t+1} B
    K_t    = R_t^-1 B' Phi_{t+1} A
    Phi_t  = F + A' Phi_{t+1} A - A' Phi_{t+1} B K_t
    D_t    = R_t^-1 B' Dbar_{t+1}
    Dbar_t = (A - B K_t)' Dbar_{t+1} + F

With the target known to both agents the optimal joint input is
u_t = -K_t x_t + D_t x_*. Note D_t contracts against Dbar_{t+1}: the
scalar one-step problem (A=B=F=G=Fn=1) has the hand optimum
u_0 = -0.5 x_0 + 0.5 x_*, which pins the index convention.

Each step factors R_t once by Cholesky (numpy's; a failed factorisation
is a `SingularInnovation`) and solves for K_t and D_t together with that
factor, so the module needs numpy alone. The schedule keeps R_t, the
input weight of the exact cost (`power.analytic`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotControllable, SingularInnovation
from .linalg import sym_part
from .model import SystemModel, controllability_rank


@dataclass(frozen=True)
class GainSchedule:
    """Per-step feedback and target-offset gains of the joint input.

    Phi and Dbar have n+1 entries (terminal included); K, D and the input
    weights R have n. The schedules built here hold read-only arrays, so
    one can be shared.
    """

    Phi: tuple[np.ndarray, ...]
    K: tuple[np.ndarray, ...]
    Dbar: tuple[np.ndarray, ...]
    D: tuple[np.ndarray, ...]
    R: tuple[np.ndarray, ...]
    d1: int

    @property
    def n(self) -> int:
        return len(self.K)


def _riccati(A: np.ndarray, B: np.ndarray, F: np.ndarray, G: np.ndarray,
             Fn: np.ndarray, n: int, d1: int) -> GainSchedule:
    d0 = A.shape[0]
    Phi = [None] * (n + 1)
    Dbar = [None] * (n + 1)
    K = [None] * n
    D = [None] * n
    R = [None] * n
    Phi[n] = Fn.copy()
    Dbar[n] = Fn.copy()
    for t in range(n - 1, -1, -1):
        R[t] = sym_part(G + B.T @ Phi[t + 1] @ B)
        try:
            L = np.linalg.cholesky(R[t])
        except np.linalg.LinAlgError as exc:
            raise SingularInnovation(
                f"G + B'Phi B is not positive definite at t={t}") from exc
        KD = np.linalg.solve(L.T, np.linalg.solve(
            L, B.T @ np.hstack([Phi[t + 1] @ A, Dbar[t + 1]])))
        K[t], D[t] = KD[:, :d0], KD[:, d0:]
        Phi[t] = sym_part(F + A.T @ Phi[t + 1] @ A - A.T @ Phi[t + 1] @ B @ K[t])
        Dbar[t] = (A - B @ K[t]).T @ Dbar[t + 1] + F
    for M in (*Phi, *K, *Dbar, *D, *R):
        M.flags.writeable = False
    return GainSchedule(Phi=tuple(Phi), K=tuple(K), Dbar=tuple(Dbar),
                        D=tuple(D), R=tuple(R), d1=d1)


def backward_riccati(model: SystemModel) -> GainSchedule:
    """Joint-input gain schedule for the two-agent plant."""
    return _riccati(model.A, model.B, model.F, model.G, model.Fn,
                    model.n, model.d1)


def leader_only_gains(model: SystemModel) -> GainSchedule:
    """Gain schedule when the leader controls (A, B1) alone.

    The schedule has leader rows only (d1 covers all of it); callers pad
    the follower input with zeros.
    """
    if controllability_rank(model.A, model.B1) < model.d0:
        raise NotControllable("(A, B1) fails the controllability rank test")
    return _riccati(model.A, model.B1, model.F, model.G1, model.Fn,
                    model.n, model.d1)

