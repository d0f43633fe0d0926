"""Signaling-power schedules: per-step diagonal power in the channel eigenbasis."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import InvalidTheta, ValidationError, checked_number


class ScheduleMode(Enum):
    FULL_MATRIX = "full_matrix"
    SCALAR = "scalar"
    HEURISTIC = "heuristic"


@dataclass(frozen=True, eq=False)
class PowerSchedule:
    """Per-step power entries Lambda_t (diagonal, in the channel eigenbasis).

    Lambda is given as any (n, r) array-like, row t holding the r entries
    of step t, and kept as one read-only float array; every entry must be
    finite and non-negative. Scalar mode additionally records the scalars
    a_t (Lambda_t = a_t / H entrywise), the uncertainty ratios b_0..b_n,
    the terminal multiplier, the projected stationarity residuals and the
    number of Newton solves of the design (`power.scalar`). A numerically
    optimized schedule records the cost evaluations it took, whether it
    stopped on its budget and its final projected-gradient norm. Schedules
    compare and hash by identity.
    """

    mode: ScheduleMode
    Lambda: np.ndarray
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    terminal_multiplier: float = 0.0
    stationarity_residuals: np.ndarray | None = None
    inner_solves: int | None = None
    evals: int | None = None
    budget_exhausted: bool | None = None
    projected_gradient_norm: float | None = None

    def __post_init__(self):
        try:
            lam = np.array(self.Lambda, dtype=float)
        except (TypeError, ValueError) as exc:
            rows = self.Lambda if np.iterable(self.Lambda) else []
            widths = [np.size(row) for row in rows]
            odd = [t for t, w in enumerate(widths) if w != widths[0]]
            detail = (f"Lambda_{odd[0]} has {widths[odd[0]]} entries, Lambda_0 "
                      f"has {widths[0]}" if odd else "Lambda is not numeric")
            raise ValidationError(f"power: {detail}") from exc
        if lam.ndim != 2:
            raise ValidationError(f"power: Lambda has shape {lam.shape}, not "
                                  f"(steps, entries)")
        bad = ~(np.isfinite(lam) & (lam >= 0.0))
        if bad.any():
            t, j = np.argwhere(bad)[0]
            raise ValidationError(f"power: Lambda_{t}[{j}] = {lam[t, j]} is not "
                                  f"a finite non-negative number")
        lam.flags.writeable = False
        object.__setattr__(self, "Lambda", lam)

    @property
    def n(self) -> int:
        return len(self.Lambda)

    @property
    def achieved_terminal_ratio(self) -> float | None:
        return None if self.b is None else float(self.b[-1])

    def check_fits(self, n: int, r: int) -> None:
        """Reject a schedule that is not n steps (the horizon) of r entries
        (the channel's rank)."""
        if self.n != n:
            raise ValidationError(f"power: Lambda has shape {self.Lambda.shape} "
                                  f"but needs ({n}, {r}): {self.n} steps where "
                                  f"the horizon needs {n}")
        if self.Lambda.shape[1] != r:
            raise ValidationError(f"power: Lambda_0 .. Lambda_{n - 1} have width "
                                  f"{self.Lambda.shape[1]}, the channel needs {r} "
                                  f"entries")


def heuristic_schedule(theta: float, n: int, dim: int) -> PowerSchedule:
    """Geometric decay Lambda_t = theta^t * ones(dim), over n >= 1 steps
    of dim >= 1 entries."""
    theta = checked_number("theta", theta)
    if not 0.0 < theta <= 1.0:
        raise InvalidTheta(f"theta must be in (0, 1], got {theta}")
    n = checked_number("n", n, integer=True)
    dim = checked_number("dim", dim, integer=True)
    for name, value in (("n", n), ("dim", dim)):
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")
    return PowerSchedule(mode=ScheduleMode.HEURISTIC,
                         Lambda=[theta ** t * np.ones(dim) for t in range(n)])
