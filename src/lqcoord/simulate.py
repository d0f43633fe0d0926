"""Seeded Monte Carlo rollouts and aggregation.

One engine runs every policy: the runs of a chunk advance together as
(R, d0) arrays, and `rollout` is its one-run case.

Reproducibility contract:

- generator: numpy PCG64 behind np.random.Generator; normals come from
  standard_normal (numpy's ziggurat), covariance shaping is by Cholesky
  factor (lower).
- per-run draws: the target x_* from its own salted substream (so fixed and
  sampled targets see identical plant noise), then one
  standard_normal((n+1)*d0) draw from the run's main stream, whose first d0
  values shape x_0 and the rest w_0 ... w_{n-1} (the same values d0-sized
  draws one at a time would give).
- per-run seed: splitmix64 mix of (master_seed, run_index), so runs are
  decorrelated without coordination and independent of execution order.
- identical config and seed give byte-identical results within a version;
  batched products round differently from one-run matrix-vector products,
  so results shift at roundoff level across versions that change them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteRollout, ValidationError
from .model import SystemModel
from .policies import PreparedPolicy

_MASK = (1 << 64) - 1
_TARGET_SALT = 0x9E3779B97F4A7C15
CHUNK_RUNS = 1024   # runs advanced together; bounds memory at any run count


def splitmix64(x: int) -> int:
    """One step of the splitmix64 sequence (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Decorrelated per-run seed from (master_seed, run_index)."""
    return splitmix64(splitmix64(master_seed & _MASK) ^ splitmix64(run_index & _MASK))


def gaussian_stream(seed: int) -> np.random.Generator:
    """Deterministic standard-normal source for one rollout."""
    return np.random.Generator(np.random.PCG64(seed))


def _chol_psd(M: np.ndarray) -> np.ndarray:
    # X0 may be singular (e.g. zero); fall back to an eigenvalue square root
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(0.5 * (M + M.T))
        return V * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class RolloutTrace:
    """Everything measured along one rollout."""

    states: np.ndarray          # (n+1, d0)
    inputs_v: np.ndarray        # (n, d1)
    inputs_q: np.ndarray        # (n, d2)
    stage_costs: np.ndarray     # (n,)
    terminal_cost: float
    z_norms: np.ndarray         # (n+1,)
    sigma_traces: np.ndarray    # (n+1,); constant for the baselines
    x_star: np.ndarray
    seed: int

    @property
    def total_cost(self) -> float:
        return float(self.stage_costs.sum() + self.terminal_cost)


@dataclass(frozen=True)
class AggregateReport:
    """Across-run summary for one policy."""

    policy: str
    runs: int
    mean_total_cost: float
    std_total_cost: float
    mean_z_norms: np.ndarray          # (n+1,)
    mean_sigma_traces: np.ndarray     # (n+1,)
    mean_stage_costs: np.ndarray      # (n,)
    horizon: int

    @property
    def mean_terminal_cost(self) -> float:
        return float(self.mean_total_cost - self.mean_stage_costs.sum())


def _targets(chol: np.ndarray, seeds: list[int]) -> np.ndarray:
    """Draws N(0, chol chol') from each run's salted substream, (R, d0)."""
    g = np.array([gaussian_stream(splitmix64(s ^ _TARGET_SALT))
                  .standard_normal(chol.shape[0]) for s in seeds])
    return g @ chol.T


def sample_target(model: SystemModel, seed: int) -> np.ndarray:
    """Target draw from N(0, Sigma0) on the salted per-run substream."""
    return _targets(_chol_psd(model.Sigma0), [seed])[0]


def _quad(z: np.ndarray, M: np.ndarray) -> np.ndarray:
    return np.einsum("...i,ij,...j->...", z, M, z)


def _rollouts(policy: PreparedPolicy, model: SystemModel,
              x_star: np.ndarray | None, seeds: list[int],
              first_run: int = 0) -> tuple[np.ndarray, ...]:
    """The runs seeded by `seeds`, advanced together as (R, d0) arrays.

    Returns targets, states, inputs v and q, stage and terminal costs and z
    norms, each with a leading run axis. A non-finite cost or z norm raises
    NonFiniteRollout naming its run (counted from `first_run`) and step.
    """
    n, d0, R = model.n, model.d0, len(seeds)
    if x_star is None:
        x_star = _targets(_chol_psd(model.Sigma0), seeds)
    elif np.shape(x_star) != (d0,):
        raise ValidationError(
            f"target must have shape ({d0},), got {np.shape(x_star)}")
    x_star = np.broadcast_to(np.asarray(x_star, dtype=float), (R, d0))
    g = np.array([gaussian_stream(s).standard_normal((n + 1) * d0)
                  for s in seeds]).reshape(R, n + 1, d0)
    w = g[:, 1:] @ np.linalg.cholesky(model.W).T
    states = np.empty((R, n + 1, d0))
    states[:, 0] = g[:, 0] @ _chol_psd(model.X0).T
    v, q = np.empty((R, n, model.d1)), np.empty((R, n, model.d2))
    pol = policy.start(x_star)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n):
            x = states[:, t]
            v[:, t], q[:, t] = pol.inputs(t, x)
            states[:, t + 1] = (x @ model.A.T + v[:, t] @ model.B1.T
                                + q[:, t] @ model.B2.T + w[:, t])
            pol.observe(t, x, states[:, t + 1])
        z = states - x_star[:, None]
        stage = _quad(z[:, :n], model.F) + _quad(v, model.G1) + _quad(q, model.G2)
        terminal = _quad(z[:, n], model.Fn)
        z_norms = np.linalg.norm(z, axis=2)
    bad = ~(np.isfinite(np.column_stack([stage, terminal])) & np.isfinite(z_norms))
    if bad.any():
        i = int(bad.any(axis=1).argmax())
        raise NonFiniteRollout(
            f"policy {policy.label}: run {first_run + i} leaves the "
            f"floating-point range at step {int(bad[i].argmax())} "
            "(non-finite cost or distance to target)")
    return x_star, states, v, q, stage, terminal, z_norms


def rollout(policy: PreparedPolicy, model: SystemModel,
            x_star: np.ndarray | None, seed: int) -> RolloutTrace:
    """One seeded rollout; x_star=None draws the target from its prior."""
    x_star, states, v, q, stage, terminal, z_norms = (
        a[0] for a in _rollouts(policy, model, x_star, [seed]))
    return RolloutTrace(states, v, q, stage, float(terminal), z_norms,
                        policy.sigma_traces.copy(), x_star.copy(), seed)


def monte_carlo(policy: PreparedPolicy, model: SystemModel,
                x_star: np.ndarray | None, runs: int,
                master_seed: int) -> AggregateReport:
    """Aggregate `runs` independent rollouts (x_star=None samples per run)."""
    if runs < 1:
        raise ValidationError(f"runs must be >= 1, got {runs}")
    z_sum, stage_sum = np.zeros(model.n + 1), np.zeros(model.n)
    # totals are summed as deviations from the first: no cancellation in var
    shift, dev_sum, dev_sq = None, 0.0, 0.0
    for lo in range(0, runs, CHUNK_RUNS):
        seeds = [derive_run_seed(master_seed, i)
                 for i in range(lo, min(runs, lo + CHUNK_RUNS))]
        *_, stage, terminal, z_norms = _rollouts(policy, model, x_star, seeds, lo)
        totals = stage.sum(axis=1) + terminal
        shift = totals[0] if shift is None else shift
        dev_sum += (totals - shift).sum()
        dev_sq += ((totals - shift) ** 2).sum()
        z_sum += z_norms.sum(axis=0)
        stage_sum += stage.sum(axis=0)
    var = max(dev_sq - dev_sum ** 2 / runs, 0.0) / max(runs - 1, 1)
    return AggregateReport(
        policy=policy.label, runs=runs,
        mean_total_cost=float(shift + dev_sum / runs),
        std_total_cost=float(np.sqrt(var)), mean_z_norms=z_sum / runs,
        mean_sigma_traces=policy.sigma_traces.copy(),
        mean_stage_costs=stage_sum / runs, horizon=model.n)
