"""Correctness checks the benchmark runs on every workload's outputs.

Each check records a pass or a failure; failures count toward
`failed_frac` and make the run's result `correct: false`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import lqcoord
from lqcoord.power import scalar

RESIDUAL_TOL = 1e-10     # scalar stationarity residual bound (paper's spec)
Z_BOUND = 3.0            # Monte Carlo mean vs exact expected cost, in SEs
MC_CHECK_RUNS = 400
MC_CHECK_SEED = 0        # the check's seed is fixed, not the workload's
HEU_THETA = 0.88         # CLI default heuristic decay


@dataclass
class CheckLog:
    results: list[tuple[str, bool, str]] = field(default_factory=list)
    operations: int = 0     # experiments run; one that raises aborts the run

    def record(self, name: str, ok: bool, detail: str) -> bool:
        self.results.append((name, bool(ok), detail))
        return ok

    @property
    def attempted(self) -> int:
        return len(self.results) + self.operations

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


def csv_values_finite(text: str) -> tuple[bool, str]:
    """Every numeric field of a CSV body is finite (header skipped)."""
    bad, numeric = [], 0
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            numeric += 1
            if not math.isfinite(value):
                bad.append(f"line {lineno}: {cell}")
    return not bad, f"{numeric} numeric values" + (f", non-finite: {bad[:3]}" if bad else "")


def scalar_schedule_ok(schedule, gains, setup, model,
                       epsilon: float) -> tuple[bool, str, float]:
    """Stationarity residuals <= RESIDUAL_TOL and b_n <= epsilon.

    Residuals are recomputed from fresh constants through the public
    `stationarity_residuals`, not read back from the schedule.
    """
    constants = scalar.scalar_constants(gains, setup, model)
    resid = scalar.stationarity_residuals(np.asarray(schedule.a), constants,
                                          schedule.terminal_multiplier)
    worst = float(np.abs(resid).max())
    b_n = float(schedule.b[-1])
    ok = worst <= RESIDUAL_TOL and b_n <= epsilon and np.all(np.isfinite(resid))
    return bool(ok), f"max residual {worst:.3e} (<= {RESIDUAL_TOL:g}), b_n {b_n:.6e} (<= {epsilon:g})", worst


def exact_cost(prepared, tracer) -> float:
    with tracer.span("power.analytic.expected_total_cost"):
        return lqcoord.expected_total_cost(prepared.power, prepared.gains,
                                           prepared.setup, prepared.model,
                                           prepared.block_order)


def mc_matches_exact(log: CheckLog, tracer) -> None:
    """im-comm-heu Monte Carlo mean within Z_BOUND SEs of the exact cost."""
    for preset in (lqcoord.FULLY_ACTUATED, lqcoord.UNDER_ACTUATED):
        model = lqcoord.load_preset(preset)
        kind = (lqcoord.PolicyKind.IM_COMM_FA if model.leader_fully_actuated()
                else lqcoord.PolicyKind.IM_COMM_UA)
        policy = lqcoord.make_policy(kind, model, theta=HEU_THETA)
        exact = exact_cost(policy, tracer)
        report = lqcoord.monte_carlo(policy, model, None, MC_CHECK_RUNS,
                                     MC_CHECK_SEED)
        z = (report.mean_total_cost - exact) / (report.std_total_cost
                                                / math.sqrt(MC_CHECK_RUNS))
        log.record(f"mc-vs-exact {preset}", abs(z) <= Z_BOUND,
                   f"MC {report.mean_total_cost:.4f} vs exact {exact:.4f}, "
                   f"z {z:+.2f} (|z| <= {Z_BOUND:g}, {MC_CHECK_RUNS} runs, "
                   f"seed {MC_CHECK_SEED})")
