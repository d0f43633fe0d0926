"""Problem instance: plant, noise, costs, priors, horizon."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, NotControllable, ValidationError
from .linalg import check_symmetric, min_eig, numerical_rank

if TYPE_CHECKING:
    from .gains import GainSchedule

CTRB_RTOL = 1e-8


def controllability_rank(A: np.ndarray, B: np.ndarray) -> int:
    """Numerical rank of [B, AB, ..., A^(d-1)B]."""
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return numerical_rank(np.hstack(blocks), CTRB_RTOL)


def _read_only(M: np.ndarray) -> np.ndarray:
    M.flags.writeable = False
    return M


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Two-agent linear plant with quadratic costs and Gaussian priors.

    x_{t+1} = A x_t + B1 v_t + B2 q_t + w_t, w_t ~ N(0, W), x_0 ~ N(0, X0),
    target x_* ~ N(0, Sigma0), horizon n. Stage cost z'Fz + v'G1v + q'G2q
    with z = x - x_*, terminal z_n' Fn z_n.
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    W: np.ndarray
    F: np.ndarray
    Fn: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    Sigma0: np.ndarray
    X0: np.ndarray
    n: int
    name: str = field(default="", compare=False)

    def __post_init__(self):
        # own read-only copies, so no edit of the caller's arrays reaches the
        # model or the gain schedules it caches
        for fname in ("A", "B1", "B2", "W", "F", "Fn", "G1", "G2", "Sigma0", "X0"):
            object.__setattr__(self, fname,
                               _read_only(np.array(getattr(self, fname), dtype=float)))
        d0 = self.A.shape[0]
        if self.A.shape != (d0, d0):
            raise DimensionMismatch(f"A must be square, got {self.A.shape}")
        if self.B1.ndim != 2 or self.B1.shape[0] != d0:
            raise DimensionMismatch(f"B1 must have {d0} rows, got {self.B1.shape}")
        if self.B2.ndim != 2 or self.B2.shape[0] != d0:
            raise DimensionMismatch(f"B2 must have {d0} rows, got {self.B2.shape}")
        d1, d2 = self.B1.shape[1], self.B2.shape[1]
        for fname, dim in (("W", d0), ("F", d0), ("Fn", d0), ("Sigma0", d0),
                           ("X0", d0), ("G1", d1), ("G2", d2)):
            M = getattr(self, fname)
            if M.shape != (dim, dim):
                raise DimensionMismatch(f"{fname} must be {dim}x{dim}, got {M.shape}")
            check_symmetric(M, name=fname)
        if self.n < 1:
            raise ValidationError(f"horizon n must be >= 1, got {self.n}")
        for fname in ("W", "Sigma0"):
            if min_eig(getattr(self, fname)) <= 0.0:
                raise ValidationError(f"{fname} must be positive definite")
        for fname in ("F", "Fn", "G1", "G2", "X0"):
            if min_eig(getattr(self, fname)) < -1e-10:
                raise ValidationError(f"{fname} must be positive semidefinite")
        if controllability_rank(self.A, self.B) < d0:
            raise NotControllable("(A, [B1 B2]) fails the controllability rank test")
        # the rank test runs once here: callers branch on it per policy
        object.__setattr__(self, "_leader_full_rank", numerical_rank(self.B1) == d0)

    @property
    def d0(self) -> int:
        return self.A.shape[0]

    @property
    def d1(self) -> int:
        return self.B1.shape[1]

    @property
    def d2(self) -> int:
        return self.B2.shape[1]

    # the block matrices and gain schedules below are built on first use and
    # shared read-only

    @cached_property
    def B(self) -> np.ndarray:
        """Stacked input matrix [B1 B2]."""
        return _read_only(np.hstack([self.B1, self.B2]))

    @cached_property
    def G(self) -> np.ndarray:
        """Block-diagonal joint input cost diag(G1, G2)."""
        d1, d2 = self.d1, self.d2
        G = np.zeros((d1 + d2, d1 + d2))
        G[:d1, :d1] = self.G1
        G[d1:, d1:] = self.G2
        return _read_only(G)

    @cached_property
    def leader_embed(self) -> np.ndarray:
        """Maps a leader input into the joint input space: [I; 0]."""
        return _read_only(np.vstack([np.eye(self.d1), np.zeros((self.d2, self.d1))]))

    @cached_property
    def joint_gains(self) -> "GainSchedule":
        """`backward_riccati(self)`, shared by the policies made on this model."""
        from .gains import backward_riccati   # gains imports this module
        return backward_riccati(self)

    @cached_property
    def leader_gains(self) -> "GainSchedule":
        """`leader_only_gains(self)`, shared by the policies made on this model."""
        from .gains import leader_only_gains  # gains imports this module
        return leader_only_gains(self)

    def leader_fully_actuated(self) -> bool:
        return self._leader_full_rank
