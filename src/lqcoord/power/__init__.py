from .schedules import PowerSchedule, ScheduleMode, heuristic_schedule
from .analytic import MdpState, expected_total_cost
from .scalar import (ConstantsTable, costate_Z, offset_feedback_seq,
                     scalar_constants, scalar_backward_solve)
from .ua_opt import ua_optimize

__all__ = [
    "PowerSchedule", "ScheduleMode", "heuristic_schedule",
    "MdpState", "expected_total_cost",
    "ConstantsTable", "costate_Z", "offset_feedback_seq",
    "scalar_constants", "scalar_backward_solve",
    "ua_optimize",
]
