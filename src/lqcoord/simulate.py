"""Seeded Monte Carlo rollouts and aggregation.

Reproducibility contract:

- generator: numpy PCG64 behind np.random.Generator; normals come from
  standard_normal (numpy's ziggurat), covariance shaping is by Cholesky
  factor (lower). Fixed seed => byte-identical traces on any platform with
  the same numpy major line.
- per-run draw order: target x_* (from its own salted substream, so fixed
  and sampled targets see identical plant noise), then x_0, then
  w_0 ... w_{n-1} from the main stream.
- per-run seed: splitmix64 mix of (master_seed, run_index), so runs are
  decorrelated without coordination and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import SystemModel
from .policies import PreparedPolicy

_MASK = (1 << 64) - 1
_TARGET_SALT = 0x9E3779B97F4A7C15


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


def shaped_normal(rng: np.random.Generator, chol: np.ndarray) -> np.ndarray:
    """One N(0, C) draw given the lower Cholesky factor of C."""
    return chol @ rng.standard_normal(chol.shape[0])


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


def sample_target(model: SystemModel, seed: int) -> np.ndarray:
    """Target draw from N(0, Sigma0) on the salted per-run substream."""
    rng = gaussian_stream(splitmix64(seed ^ _TARGET_SALT))
    return shaped_normal(rng, _chol_psd(model.Sigma0))


def rollout(policy: PreparedPolicy, model: SystemModel,
            x_star: np.ndarray | None, seed: int) -> RolloutTrace:
    """One seeded rollout; x_star=None draws the target from its prior."""
    n, d0 = model.n, model.d0
    if x_star is None:
        x_star = sample_target(model, seed)
    x_star = np.asarray(x_star, dtype=float)
    if x_star.shape != (d0,):
        raise ValidationError(f"target must have shape ({d0},), got {x_star.shape}")

    rng = gaussian_stream(seed)
    chol_X0 = _chol_psd(model.X0)
    chol_W = np.linalg.cholesky(model.W)

    pol = policy.start(x_star)
    x = shaped_normal(rng, chol_X0)

    states = np.empty((n + 1, d0))
    inputs_v = np.empty((n, model.d1))
    inputs_q = np.empty((n, model.d2))
    stage_costs = np.empty(n)
    sig = np.empty(n + 1)

    states[0] = x
    for t in range(n):
        sig[t] = pol.sigma_trace()
        v, q = pol.inputs(t, x)
        z = x - x_star
        stage_costs[t] = (z @ model.F @ z + v @ model.G1 @ v + q @ model.G2 @ q)
        w = shaped_normal(rng, chol_W)
        x_next = model.A @ x + model.B1 @ v + model.B2 @ q + w
        pol.observe(t, x, x_next)
        states[t + 1] = x_next
        inputs_v[t] = v
        inputs_q[t] = q
        x = x_next
    sig[n] = pol.sigma_trace()
    z = x - x_star
    terminal = float(z @ model.Fn @ z)
    z_norms = np.linalg.norm(states - x_star, axis=1)
    return RolloutTrace(states=states, inputs_v=inputs_v, inputs_q=inputs_q,
                        stage_costs=stage_costs, terminal_cost=terminal,
                        z_norms=z_norms, sigma_traces=sig, x_star=x_star,
                        seed=seed)


def monte_carlo(policy: PreparedPolicy, model: SystemModel,
                x_star: np.ndarray | None, runs: int,
                master_seed: int) -> AggregateReport:
    """Aggregate `runs` independent rollouts (x_star=None samples per run)."""
    if runs < 1:
        raise ValidationError(f"runs must be >= 1, got {runs}")
    totals = np.empty(runs)
    z_sum = np.zeros(model.n + 1)
    stage_sum = np.zeros(model.n)
    sig_sum = np.zeros(model.n + 1)
    for i in range(runs):
        trace = rollout(policy, model, x_star, derive_run_seed(master_seed, i))
        totals[i] = trace.total_cost
        z_sum += trace.z_norms
        stage_sum += trace.stage_costs
        sig_sum += trace.sigma_traces
    std = float(totals.std(ddof=1)) if runs > 1 else 0.0
    return AggregateReport(
        policy=policy.label, runs=runs,
        mean_total_cost=float(totals.mean()), std_total_cost=std,
        mean_z_norms=z_sum / runs, mean_sigma_traces=sig_sum / runs,
        mean_stage_costs=stage_sum / runs, horizon=model.n)
