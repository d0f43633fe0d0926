"""Gradient-based power design for the under-actuated scheme.

The paper solves the under-actuated power design numerically. Here the
exact expected cost E[J_n] of `analytic.TailCostEvaluator` and its adjoint
gradient drive L-BFGS-B (Nocedal & Wright, *Numerical Optimization*, ch. 7)
over x = LOG_SCALE * log Lambda in the box LAMBDA_BOUNDS. It stops once the
projected gradient, in log-Lambda units, is at most PG_RTOL * |J(init)| in
every entry (the relative-reduction test is off), or when the line search
can make no further progress. A log variable keeps the power positive and makes steps
relative. The scale matters: L-BFGS-B's first step has unit length in x,
so it moves log Lambda by 1 / LOG_SCALE = 0.1 at most. With a unit scale
(or sqrt Lambda as the variable) that first step throws entries to the
floor of the box, where they stay.

The cost is not convex in Lambda, so this is a local search from the
initial schedule; the result is the best schedule evaluated, never worse
than the initial one.

scipy (for L-BFGS-B) is imported on the first call of `ua_optimize`, so
`import lqcoord` and every run without an under-actuated design need numpy
alone.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..channel import ChannelSetup
from ..errors import BudgetExhaustedWarning, ValidationError, checked_number
from ..gains import GainSchedule
from ..model import SystemModel
from .analytic import TailCostEvaluator
from .schedules import PowerSchedule, ScheduleMode

LAMBDA_BOUNDS = (1e-12, 1e6)
LOG_SCALE = 10.0
PG_RTOL = 1e-6


class _BudgetHit(Exception):
    """The optimizer asked for an evaluation past the budget."""


def ua_optimize(init: PowerSchedule, gains: GainSchedule, setup: ChannelSetup,
                model: SystemModel, budget: int = 5000,
                block_order: list[int] | None = None) -> PowerSchedule:
    """Minimize the exact cost over the power entries by L-BFGS-B.

    Entries of init outside LAMBDA_BOUNDS start at the nearest bound. At
    most `budget` cost evaluations are made; if the optimizer wants more,
    the best schedule found is returned with a BudgetExhaustedWarning. The
    result carries the evaluation count, whether the budget ran out and
    the final projected-gradient norm (log-Lambda units).
    """
    budget = checked_number("budget", budget, integer=True)
    if budget < 1:
        raise ValidationError(f"budget: {budget} must be >= 1")
    init.check_fits(model.n, setup.r)
    lam0 = init.Lambda
    if np.any(lam0 <= 0.0):
        t, j = np.argwhere(lam0 <= 0.0)[0]
        raise ValidationError(
            f"initial power Lambda_{t}[{j}] = {lam0[t, j]:.3g} must be strictly "
            f"positive (a search over log Lambda cannot leave 0)")
    from scipy.optimize import minimize

    evaluator = TailCostEvaluator(gains, setup, model, block_order)
    lo, hi = LOG_SCALE * np.log(LAMBDA_BOUNDS)
    x_init = LOG_SCALE * np.log(lam0).ravel()
    x0 = np.clip(x_init, lo, hi)
    # the first evaluation is at init itself where it lies inside the box
    lam_start = np.where(x0 == x_init, lam0.ravel(),
                         np.exp(x0 / LOG_SCALE)).reshape(lam0.shape)
    evals = 0
    last = best = None

    def objective(x):
        nonlocal evals, last, best
        if last is not None and np.array_equal(x, last[0]):
            return last[1], last[2]
        if evals >= budget:
            raise _BudgetHit
        evals += 1
        lam = (lam_start if np.array_equal(x, x0)
               else np.exp(x / LOG_SCALE).reshape(lam0.shape))
        J = evaluator.cost(lam)
        g_log = (evaluator.gradient() * lam).ravel()
        last = (np.array(x), J, g_log / LOG_SCALE)
        if best is None or J < best[1]:
            best = (lam, J, g_log, np.array(x))
        return last[1], last[2]

    J0, _ = objective(x0)
    exhausted = False
    try:
        # scipy's own limits, set to the budget, never bind before it does
        minimize(objective, x0, jac=True, method="L-BFGS-B",
                 bounds=[(lo, hi)] * x0.size,
                 options={"gtol": PG_RTOL * abs(J0) / LOG_SCALE, "ftol": 0.0,
                          "maxiter": budget, "maxfun": budget})
    except _BudgetHit:
        exhausted = True
    lam, J, g_log, x = best
    if exhausted:
        warnings.warn(f"evaluation budget {budget} exhausted; returning best "
                      f"found (cost {J:.6g})", BudgetExhaustedWarning)
    held = ((x <= lo) & (g_log > 0.0)) | ((x >= hi) & (g_log < 0.0))
    return PowerSchedule(mode=ScheduleMode.FULL_MATRIX, Lambda=lam,
                         evals=evals, budget_exhausted=exhausted,
                         projected_gradient_norm=float(
                             np.abs(np.where(held, 0.0, g_log)).max()))
