from .schedules import PowerSchedule, ScheduleMode, heuristic_schedule
from .analytic import MdpState, expected_stage_costs, expected_total_cost
from .pmp import (ThetaSigmaParts, costate_Z, grad_lambda_fa, hamiltonian_fa,
                  hamiltonian_fa_expanded, offset_feedback_seq, surrogate_z_step,
                  stage_cost_fa, theta_sigma_step)
from .scalar import ConstantsTable, scalar_constants, scalar_backward_solve
from .ua_opt import ua_optimize

__all__ = [
    "PowerSchedule", "ScheduleMode", "heuristic_schedule",
    "MdpState", "expected_stage_costs", "expected_total_cost",
    "ThetaSigmaParts", "costate_Z", "grad_lambda_fa", "hamiltonian_fa",
    "hamiltonian_fa_expanded", "offset_feedback_seq", "surrogate_z_step",
    "stage_cost_fa", "theta_sigma_step",
    "ConstantsTable", "scalar_constants", "scalar_backward_solve",
    "ua_optimize",
]
