"""Experiment configuration: JSON schema, validation, round-trip.

Schema (all matrices are row-major nested arrays):

    {
      "system": "fully-actuated-vi-a" | {"A": [[...]], "B1": ..., "B2": ...,
                 "W": ..., "F": ..., "Fn": ..., "G1": ..., "G2": ...,
                 "Sigma0": ..., "X0": ...},
      "horizon": 30,                       // optional for presets
      "policies": [{"name": "im-comm-heu", "theta": 0.88,
                    "epsilon": 0.001, "budget": 5000}],
      "runs": 50,
      "master_seed": 0,
      "target": [v1, ...] | "sampled" | "preset:A",
      "out_dir": "results"
    }

Policy names: ex-comm, leader-only, no-comm, im-comm-heu (heuristic power,
either actuation), im-comm-opt (fully actuated, scalar-solver power),
im-comm-num (under-actuated, numerically optimized power).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import LqcoordError, ParseError, ValidationError
from .model import SystemModel
from .presets import TARGETS, load_preset

POLICY_NAMES = ("ex-comm", "leader-only", "no-comm",
                "im-comm-heu", "im-comm-opt", "im-comm-num")

_MATRIX_FIELDS = ("A", "B1", "B2", "W", "F", "Fn", "G1", "G2", "Sigma0", "X0")


def _number(name: str, value, integer: bool = False) -> float | int:
    """A finite number, never a bool or a string; an integer field rejects
    2.7 rather than read it as 2."""
    if (isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
            and (not integer or float(value).is_integer())):
        return int(value) if integer else float(value)
    raise ValidationError(f"{name}: {value!r} is not "
                          + ("an integer" if integer else "a finite number"))


@dataclass(frozen=True)
class PolicyConfig:
    name: str
    theta: float = 0.88
    epsilon: float = 1e-3
    budget: int = 5000

    def __post_init__(self):
        object.__setattr__(self, "budget", _number("policies[].budget", self.budget,
                                                   integer=True))
        if self.name not in POLICY_NAMES:
            raise ValidationError(
                f"policies[].name: '{self.name}' not one of {POLICY_NAMES}")
        if not 0.0 < self.theta <= 1.0:
            raise ValidationError(f"policies[].theta: {self.theta} outside (0, 1]")
        if self.epsilon <= 0.0:
            raise ValidationError(f"policies[].epsilon: {self.epsilon} must be > 0")
        if self.budget < 1:
            raise ValidationError(f"policies[].budget: {self.budget} must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    system: str | dict
    policies: tuple[PolicyConfig, ...]
    runs: int = 50
    horizon: int | None = None
    master_seed: int = 0
    target: str | tuple[float, ...] = "sampled"
    out_dir: str = "results"

    def __post_init__(self):
        if self.runs < 1:
            raise ValidationError(f"runs: {self.runs} must be >= 1")
        if not self.policies:
            raise ValidationError("policies: at least one policy is required")
        if self.horizon is not None and self.horizon < 1:
            raise ValidationError(f"horizon: {self.horizon} must be >= 1")
        # build and validate the system once, eagerly, with field context
        object.__setattr__(self, "_model", self._build_model())

    def model(self) -> SystemModel:
        return self._model

    def _build_model(self) -> SystemModel:
        if isinstance(self.system, str):
            return load_preset(self.system, self.horizon)
        missing = [f for f in _MATRIX_FIELDS if f not in self.system]
        if missing:
            raise ValidationError(f"system: missing matrix fields {missing}")
        if self.horizon is None:
            raise ValidationError("horizon: required for inline systems")
        kwargs = {f: np.asarray(self.system[f], dtype=float) for f in _MATRIX_FIELDS}
        try:
            return SystemModel(n=self.horizon, **kwargs)
        except (LqcoordError, np.linalg.LinAlgError) as exc:
            raise ValidationError(f"system: {exc}") from exc

    def resolve_target(self) -> np.ndarray | None:
        """Fixed target vector or None for per-run sampling."""
        if isinstance(self.target, str):
            if self.target == "sampled":
                return None
            if self.target.startswith("preset:"):
                label = self.target.split(":", 1)[1]
                if not isinstance(self.system, str):
                    raise ValidationError("target: preset targets need a preset system")
                table = TARGETS[self.system]
                if label not in table:
                    raise ValidationError(
                        f"target: unknown setting '{label}' (have {sorted(table)})")
                return table[label]
            raise ValidationError(f"target: '{self.target}' is neither 'sampled', "
                                  "'preset:<setting>' nor a vector")
        vec = np.asarray(self.target, dtype=float)
        d0 = self.model().d0
        if vec.shape != (d0,):
            raise ValidationError(f"target: expected {d0} entries, got {vec.shape}")
        return vec

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "horizon": self.horizon,
            "policies": [{"name": p.name, "theta": p.theta,
                          "epsilon": p.epsilon, "budget": p.budget}
                         for p in self.policies],
            "runs": self.runs,
            "master_seed": self.master_seed,
            "target": list(self.target) if not isinstance(self.target, str) else self.target,
            "out_dir": self.out_dir,
        }


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ValidationError("top level: expected a JSON object")
    if "system" not in raw:
        raise ValidationError("system: field is required")
    pol_raw = raw.get("policies", raw.get("policy"))
    if pol_raw is None:
        raise ValidationError("policies: field is required")
    if isinstance(pol_raw, dict):
        pol_raw = [pol_raw]
    policies = []
    for i, p in enumerate(pol_raw):
        if isinstance(p, str):
            p = {"name": p}
        try:
            policies.append(PolicyConfig(**p))
        except TypeError as exc:
            raise ValidationError(f"policies[{i}]: {exc}") from exc
    target, horizon = raw.get("target", "sampled"), raw.get("horizon")
    if isinstance(target, list):
        target = tuple(_number(f"target[{i}]", v) for i, v in enumerate(target))
    return ExperimentConfig(
        system=raw["system"],
        policies=tuple(policies),
        runs=_number("runs", raw.get("runs", 50), integer=True),
        horizon=None if horizon is None else _number("horizon", horizon, integer=True),
        master_seed=_number("master_seed", raw.get("master_seed", 0), integer=True),
        target=target,
        out_dir=str(raw.get("out_dir", "results")),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ParseError(f"config file not found: {path}")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read the config ({exc.strerror or exc})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(raw)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2) + "\n")
