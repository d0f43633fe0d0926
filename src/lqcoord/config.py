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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LqcoordError, ParseError, ValidationError, checked_number
from .model import SystemModel
from .presets import TARGETS, load_preset
from .simulate import check_seed

POLICY_NAMES = ("ex-comm", "leader-only", "no-comm",
                "im-comm-heu", "im-comm-opt", "im-comm-num")

_MATRIX_FIELDS = ("A", "B1", "B2", "W", "F", "Fn", "G1", "G2", "Sigma0", "X0")


@dataclass(frozen=True)
class PolicyConfig:
    name: str
    theta: float = 0.88
    epsilon: float = 1e-3
    budget: int = 5000

    def __post_init__(self):
        for fname in ("theta", "epsilon", "budget"):
            object.__setattr__(self, fname, checked_number(f"policies[].{fname}",
                                                           getattr(self, fname),
                                                           integer=fname == "budget"))
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
        # every field is checked here, from JSON or from code, and the
        # system is built and validated once, eagerly, with field context
        if not isinstance(self.system, (str, dict)):
            raise ValidationError(f"system: {self.system!r} is neither a preset "
                                  "name nor an object")
        if not isinstance(self.out_dir, str):
            raise ValidationError(f"out_dir: {self.out_dir!r} is not a string")
        if not self.policies:
            raise ValidationError("policies: at least one policy is required")
        for i, pol in enumerate(self.policies):
            if not isinstance(pol, PolicyConfig):
                raise ValidationError(f"policies[{i}]: {pol!r} is not a PolicyConfig")
        runs = checked_number("runs", self.runs, integer=True)
        horizon = (None if self.horizon is None
                   else checked_number("horizon", self.horizon, integer=True))
        for name, value in (("runs", runs), ("horizon", horizon)):
            if value is not None and value < 1:
                raise ValidationError(f"{name}: {value} must be >= 1")
        seed = checked_number("master_seed", self.master_seed, integer=True)
        check_seed("master_seed", seed)
        target = self.target
        if isinstance(target, (list, tuple, np.ndarray)):
            target = tuple(checked_number(f"target[{i}]", v)
                           for i, v in enumerate(target))
        for name, value in (("runs", runs), ("horizon", horizon),
                            ("master_seed", seed), ("target", target)):
            object.__setattr__(self, name, value)
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
    """Map a parsed JSON object onto the dataclasses, which check the fields."""
    if not isinstance(raw, dict):
        raise ValidationError("top level: expected a JSON object")
    if "system" not in raw:
        raise ValidationError("system: field is required")
    pol_raw = raw.get("policies", raw.get("policy"))
    if pol_raw is None:
        raise ValidationError("policies: field is required")
    if isinstance(pol_raw, (dict, str)):
        pol_raw = [pol_raw]
    if not isinstance(pol_raw, list):
        raise ValidationError(f"policies: {pol_raw!r} is not a list, an object "
                              "or a policy name")
    policies = []
    for i, p in enumerate(pol_raw):
        if isinstance(p, str):
            p = {"name": p}
        try:
            policies.append(PolicyConfig(**p))
        except TypeError as exc:
            raise ValidationError(f"policies[{i}]: {exc}") from exc
    # a field left out takes the dataclass's default
    given = {k: raw[k] for k in ("runs", "horizon", "master_seed", "target",
                                 "out_dir") if k in raw}
    return ExperimentConfig(system=raw["system"], policies=tuple(policies), **given)


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
