"""Finite-horizon tracking-LQR gains for the joint input.

Backward value recursion (Phi_n = Dbar_n = Fn):

    K_t    = (G + B' Phi_{t+1} B)^-1 B' Phi_{t+1} A
    Phi_t  = F + A' Phi_{t+1} A - A' Phi_{t+1} B K_t
    D_t    = (G + B' Phi_{t+1} B)^-1 B' Dbar_{t+1}
    Dbar_t = (A - B K_t)' Dbar_{t+1} + F

With the target known to both agents the optimal joint input is
u_t = -K_t x_t + D_t x_*. Note D_t contracts against Dbar_{t+1}: the
scalar one-step problem (A=B=F=G=Fn=1) has the hand optimum
u_0 = -0.5 x_0 + 0.5 x_*, which pins the index convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotControllable, SingularInnovation
from .linalg import sym_part
from .model import SystemModel, controllability_rank


@dataclass(frozen=True)
class GainSchedule:
    """Per-step feedback and target-offset gains of the joint input.

    Phi and Dbar have n+1 entries (terminal included); K and D have n.
    """

    Phi: list[np.ndarray]
    K: list[np.ndarray]
    Dbar: list[np.ndarray]
    D: list[np.ndarray]
    d1: int

    @property
    def n(self) -> int:
        return len(self.K)


def _riccati(A: np.ndarray, B: np.ndarray, F: np.ndarray, G: np.ndarray,
             Fn: np.ndarray, n: int, d1: int) -> GainSchedule:
    d = B.shape[1]
    Phi = [None] * (n + 1)
    Dbar = [None] * (n + 1)
    K = [None] * n
    D = [None] * n
    Phi[n] = Fn.copy()
    Dbar[n] = Fn.copy()
    for t in range(n - 1, -1, -1):
        S = sym_part(G + B.T @ Phi[t + 1] @ B)
        try:
            cho = scipy.linalg.cho_factor(S)
        except scipy.linalg.LinAlgError as exc:
            raise SingularInnovation(
                f"G + B'Phi B is not positive definite at t={t}") from exc
        K[t] = scipy.linalg.cho_solve(cho, B.T @ Phi[t + 1] @ A)
        D[t] = scipy.linalg.cho_solve(cho, B.T @ Dbar[t + 1])
        Phi[t] = sym_part(F + A.T @ Phi[t + 1] @ A - A.T @ Phi[t + 1] @ B @ K[t])
        Dbar[t] = (A - B @ K[t]).T @ Dbar[t + 1] + F
    return GainSchedule(Phi=Phi, K=K, Dbar=Dbar, D=D, d1=d1)


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

