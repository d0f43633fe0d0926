"""Decentralized LQG coordination through the plant.

A leader that knows the target state steers a co-controlled linear system
while signaling the target to a follower through the state trajectory
itself. The package provides the gain schedules, the signaling/decoding
layer with exact error-covariance recursions, signaling-power design, a
seeded Monte Carlo harness, and a CLI for the benchmark experiments.
"""

from .model import SystemModel
from .gains import GainSchedule, backward_riccati, leader_only_gains
from .channel import ChannelSetup, choose_projection, fa_setup, ua_setup
from .policies import PolicyKind, PreparedPolicy, make_policy
from .power import (PowerSchedule, heuristic_schedule, expected_total_cost,
                    ua_optimize)
from .power.scalar import solve_scalar_power
from .simulate import AggregateReport, RolloutTrace, monte_carlo, rollout
from .presets import (FULLY_ACTUATED, UNDER_ACTUATED, TARGETS,
                      fully_actuated_model, under_actuated_model, load_preset)
from .config import ExperimentConfig, load_config, save_config

__version__ = "0.1.0"

__all__ = [
    "SystemModel", "GainSchedule", "backward_riccati", "leader_only_gains",
    "ChannelSetup", "choose_projection", "fa_setup", "ua_setup",
    "PolicyKind", "PreparedPolicy", "make_policy",
    "PowerSchedule", "heuristic_schedule", "expected_total_cost",
    "ua_optimize", "solve_scalar_power",
    "AggregateReport", "RolloutTrace", "monte_carlo", "rollout",
    "FULLY_ACTUATED", "UNDER_ACTUATED", "TARGETS",
    "fully_actuated_model", "under_actuated_model", "load_preset",
    "ExperimentConfig", "load_config", "save_config",
    "__version__",
]
