"""Derivative-free power design for the under-actuated scheme.

Deterministic coordinate descent on the log of each power entry with a
multiplicative line search, minimizing the exact analytic schedule cost.
Chosen over learned or second-order trajectory optimizers for
reproducibility at these problem sizes; the scheme is robust to suboptimal
power anyway, so a simple local search recovers most of the headroom.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..channel import ChannelSetup, block_schedule
from ..errors import BudgetExhaustedWarning, ValidationError
from ..gains import GainSchedule
from ..model import SystemModel
from .analytic import TailCostEvaluator
from .schedules import PowerSchedule, ScheduleMode

STEP_FACTORS = (4.0, 2.0, 1.25, 1.06)


def ua_optimize(init: PowerSchedule, gains: GainSchedule, setup: ChannelSetup,
                model: SystemModel, budget: int = 5000,
                block_order: list[int] | None = None) -> PowerSchedule:
    """Improve a power schedule by multiplicative coordinate descent.

    Each coordinate is scaled up/down by the step factors (coarse to fine),
    keeping any improving move and riding the same factor while it keeps
    improving. Sweeps repeat until a full sweep makes no progress or the
    evaluation budget runs out (warning; best found is returned). The
    returned cost is never worse than the initial one.
    """
    lam = [np.asarray(l, dtype=float).copy() for l in init.Lambda]
    for t, l in enumerate(lam):
        if np.any(l <= 0.0):
            j = int(np.argmax(l <= 0.0))
            raise ValidationError(
                f"initial power Lambda_{t}[{j}] = {l[j]:.3g} must be strictly "
                f"positive (a multiplicative search cannot leave 0)")
    evaluator = TailCostEvaluator(gains, setup, model,
                                  block_schedule(setup, model.n, block_order))
    evals = 0

    def cost(cur):
        nonlocal evals
        evals += 1
        return evaluator.cost(cur)

    best = cost(lam)
    n, r = len(lam), lam[0].size
    improved = True
    while improved:
        improved = False
        for t in range(n):
            for j in range(r):
                for factor in STEP_FACTORS:
                    for mult in (factor, 1.0 / factor):
                        while True:
                            if evals >= budget:
                                warnings.warn(
                                    f"evaluation budget {budget} exhausted; "
                                    f"returning best found (cost {best:.6g})",
                                    BudgetExhaustedWarning)
                                return PowerSchedule(
                                    mode=ScheduleMode.FULL_MATRIX, Lambda=lam)
                            old = lam[t][j]
                            lam[t][j] = old * mult
                            trial = cost(lam)
                            if trial < best - 1e-12 * max(1.0, abs(best)):
                                best = trial
                                improved = True
                            else:
                                lam[t][j] = old
                                break
    return PowerSchedule(mode=ScheduleMode.FULL_MATRIX, Lambda=lam)
