from .schedules import PowerSchedule, ScheduleMode, heuristic_schedule
from .analytic import expected_total_cost
from .scalar import ConstantsTable, scalar_constants, scalar_backward_solve
from .ua_opt import ua_optimize

__all__ = [
    "PowerSchedule", "ScheduleMode", "heuristic_schedule",
    "expected_total_cost",
    "ConstantsTable", "scalar_constants", "scalar_backward_solve",
    "ua_optimize",
]
