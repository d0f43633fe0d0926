"""Signaling-power schedules: per-step diagonal power in the channel eigenbasis."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..errors import InvalidTheta


class ScheduleMode(Enum):
    FULL_MATRIX = "full_matrix"
    SCALAR = "scalar"
    HEURISTIC = "heuristic"


@dataclass(frozen=True)
class PowerSchedule:
    """Per-step power entries Lambda_t (diagonal, in the channel eigenbasis).

    Scalar mode additionally records the per-step scalars a_t with
    Lambda_t = a_t / H entrywise, the uncertainty ratios b_t (forward from
    b_0 = 1, b_{t+1} = b_t / (1 + a_t)), and solver diagnostics: the
    stationarity residuals and the number of inner solves the solver ran.
    """

    mode: ScheduleMode
    Lambda: list[np.ndarray]
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    theta: float | None = None
    terminal_multiplier: float = 0.0
    stationarity_residuals: np.ndarray | None = field(default=None, compare=False)
    inner_solves: int | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return len(self.Lambda)

    @property
    def dim(self) -> int:
        return len(self.Lambda[0])

    def lam(self, t: int) -> np.ndarray:
        return self.Lambda[t]

    @property
    def achieved_terminal_ratio(self) -> float | None:
        return None if self.b is None else float(self.b[-1])

    def __post_init__(self):
        for t, lam in enumerate(self.Lambda):
            if np.any(np.asarray(lam) < 0):
                raise InvalidTheta(f"negative power entry at t={t}")


def heuristic_schedule(theta: float, n: int, dim: int) -> PowerSchedule:
    """Geometric decay Lambda_t = theta^t * ones(dim)."""
    if not 0.0 < theta <= 1.0:
        raise InvalidTheta(f"theta must be in (0, 1], got {theta}")
    return PowerSchedule(mode=ScheduleMode.HEURISTIC,
                         Lambda=[theta ** t * np.ones(dim) for t in range(n)],
                         theta=theta)
