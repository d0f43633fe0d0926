"""Seeded Monte Carlo rollouts and aggregation.

One engine runs every policy: the runs of a chunk advance together as
(R, d0) arrays, and `rollout` is its one-run case.

Reproducibility contract:

- generator: run i draws what np.random.Generator(np.random.PCG64(seed_i))
  would; normals come from standard_normal (numpy's ziggurat), covariance
  shaping is by Cholesky factor (lower).
- per-run draws: the target x_* from its own salted substream (so fixed and
  sampled targets see identical plant noise), then one
  standard_normal((n+1)*d0) draw from the run's main stream, whose first d0
  values shape x_0 and the rest w_0 ... w_{n-1} (the same values d0-sized
  draws one at a time would give).
- per-run seed: splitmix64 mix of (master_seed, run_index), so runs are
  decorrelated without coordination and independent of execution order.
  Seeds are 64-bit: a master seed outside [0, 2^64) is rejected.
- identical config and seed give byte-identical results within a version;
  batched products round differently from one-run matrix-vector products,
  so results shift at roundoff level across versions that change them.
- run i's draws depend on the model and seed_i alone, so every policy of
  an experiment sees the same noise. The policies of one `compare` run
  share a `SharedDraws` store: each chunk's shaped draws are made once
  and read read-only, up to DRAW_BUDGET_BYTES; chunks past it are drawn
  per policy and not kept, so memory stays bounded at any run count. The
  values are the same either way.

Streams are seeded a chunk at a time, without a Generator per run: the
chunk's run and target seeds go through numpy's seeding together, in
integer arrays (`_stream_states`). This reproduces numpy's own seeding bit
for bit, which numpy keeps stable under its stream-compatibility policy
(NEP 19); the tests compare it against np.random.PCG64(seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from numbers import Integral

import numpy as np

from .errors import NonFiniteRollout, ValidationError
from .model import SystemModel
from .policies import PreparedPolicy

_MASK = (1 << 64) - 1
_TARGET_SALT = 0x9E3779B97F4A7C15
CHUNK_RUNS = 1024   # runs advanced together; bounds memory at any run count
DRAW_BUDGET_BYTES = 16 << 20   # shaped draws a SharedDraws store keeps

# numpy's SeedSequence hash (pool of four 32-bit words) and PCG64's
# default 128-bit multiplier (numpy/random/bit_generator.pyx, pcg64.h)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _is_integer(value) -> bool:
    """An integer of Python's or numpy's, never a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_seed(name: str, seed: int) -> None:
    """Seeds are 64-bit: one outside [0, 2^64) would alias another."""
    if not _is_integer(seed):
        raise ValidationError(f"{name}: {seed!r} is not an integer")
    if not 0 <= seed <= _MASK:
        raise ValidationError(f"{name}: {seed} is outside [0, 2^64)")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One splitmix64 step (public-domain constants) on each entry of a
    uint64 array; numpy's uint64 arithmetic wraps as the step needs."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _run_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """Seeds of runs lo..hi-1 (module docstring)."""
    check_seed("master_seed", master_seed)
    master = _splitmix64(np.array([master_seed], dtype=np.uint64))
    return _splitmix64(master ^ _splitmix64(np.arange(lo, hi, dtype=np.uint64)))


def _target_seeds(seeds: np.ndarray) -> np.ndarray:
    """Seeds of the runs' salted target substreams."""
    return _splitmix64(seeds ^ np.uint64(_TARGET_SALT))


@cache
def _hash_constants() -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """SeedSequence's hash constants, as (xor, mul) uint32 column pairs.

    Each hash XORs a word with constant k of a fixed chain and multiplies
    it by constant k+1; the 16 hashes that fill and mix the pool use 17
    constants and the 8 that draw the state 9, whatever the seed. Returned
    for the pool's four words, for each of the four mixing rounds (the
    round's own word gets a dummy pair: it is not mixed into itself), and
    for the eight output words.
    """
    def chain(h, mult, k):
        out = [h]
        for _ in range(k):
            out.append(out[-1] * mult & _M32)
        return out

    def columns(xor, mul):
        pair = np.array([xor, mul], dtype=np.uint32)[:, :, None]
        pair.flags.writeable = False    # shared by every call
        return pair

    a, b = chain(_INIT_A, _MULT_A, 16), chain(_INIT_B, _MULT_B, 8)
    rounds = []
    for src in range(4):
        xor, mul = a[4 + 3 * src:7 + 3 * src], a[5 + 3 * src:8 + 3 * src]
        xor.insert(src, 0)
        mul.insert(src, 0)
        rounds.append(columns(xor, mul))
    return columns(a[0:4], a[1:5]), rounds, columns(b[:8], b[1:])


def _hashmix(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    v = (v ^ consts[0]) * consts[1]
    return v ^ (v >> 16)


def _stream_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 (state, inc) that np.random.PCG64(seed) starts from, per seed.

    SeedSequence(seed) hashes the seed's 32-bit words into a pool of four,
    hashing zeros where the words run out (so a seed below 2^32, one word
    long, is the same as its two words lo, 0), mixes each pool word into
    the other three in four rounds, and generate_state(4, uint64) hashes
    the pool, cycled twice, into eight words. Every step runs on all seeds
    at once in uint32 arrays, which wrap as numpy's own uint32 code does.
    PCG64 then seeds from those words with two 128-bit LCG steps, done in
    Python ints.
    """
    fill, rounds, draw = _hash_constants()
    words = np.zeros((4, len(seeds)), dtype=np.uint32)
    words[0], words[1] = seeds & _M32, seeds >> 32
    pool = _hashmix(words, fill)
    for src, consts in enumerate(rounds):
        mixed = _MIX_L * pool - _MIX_R * _hashmix(pool[src], consts)
        mixed ^= mixed >> 16
        mixed[src] = pool[src]
        pool = mixed
    out = _hashmix(np.concatenate([pool, pool]), draw).astype(np.uint64)
    states = []
    for s_hi, s_lo, i_hi, i_lo in (out[0::2] | out[1::2] << 32).T.tolist():
        # from state 0: one step lands on inc, add the seed, step again
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _M128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc))
    return states


def _normals(groups: list[tuple[np.ndarray, int]]) -> list[np.ndarray]:
    """For each (seeds, size), the first `size` standard normals of every
    seed's stream as rows of a (len(seeds), size) array, with the streams
    of all groups seeded in one `_stream_states` pass."""
    states = iter(_stream_states(np.concatenate([seeds for seeds, _ in groups])))
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    out = []
    for seeds, size in groups:
        rows = np.empty((len(seeds), size))
        for row in rows:
            state, inc = next(states)
            bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                          "state": {"state": state, "inc": inc}}
            gen.standard_normal(out=row)
        out.append(rows)
    return out


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


def _quad(z: np.ndarray, M: np.ndarray) -> np.ndarray:
    """z' M z over the last axis."""
    return ((z @ M) * z).sum(-1)


def _draw(model: SystemModel, seeds: np.ndarray,
          sampled: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The runs' shaped draws: x_0 (R, d0), w (R, n, d0) and, if `sampled`,
    x_* (R, d0)."""
    n, d0, R = model.n, model.d0, len(seeds)
    groups = [(seeds, (n + 1) * d0)]
    if sampled:
        groups.append((_target_seeds(seeds), d0))
    g, *target = _normals(groups)
    g = g.reshape(R, n + 1, d0)
    x0 = g[:, 0] @ _chol_psd(model.X0).T
    w = g[:, 1:] @ np.linalg.cholesky(model.W).T
    return x0, w, target[0] @ _chol_psd(model.Sigma0).T if sampled else None


class SharedDraws:
    """One experiment's shaped draws (x_0, w and a sampled x_*), drawn once
    per chunk for all its policies, within DRAW_BUDGET_BYTES (module
    docstring); bound to one model and keyed by each chunk's run seeds and
    whether the target is sampled.
    """

    def __init__(self, model: SystemModel):
        self.model = model
        self._chunks: dict[tuple[bool, bytes], tuple] = {}
        self._bytes = 0

    def chunk(self, model: SystemModel, seeds: np.ndarray,
              sampled: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """`_draw(model, seeds, sampled)`, from the store where it holds it."""
        if model is not self.model:
            raise ValidationError("shared draws belong to another model")
        key = (sampled, seeds.tobytes())
        if key in self._chunks:
            return self._chunks[key]
        drawn = _draw(model, seeds, sampled)
        arrays = [a for a in drawn if a is not None]
        size = sum(a.nbytes for a in arrays)
        if self._bytes + size <= DRAW_BUDGET_BYTES:
            for a in arrays:
                a.flags.writeable = False
            self._chunks[key] = drawn
            self._bytes += size
        return drawn


def _rollouts(policy: PreparedPolicy, model: SystemModel,
              x_star: np.ndarray | None, seeds: np.ndarray,
              first_run: int = 0,
              draws: SharedDraws | None = None) -> tuple[np.ndarray, ...]:
    """The runs seeded by `seeds` (uint64), advanced together as (R, d0) arrays.

    Returns targets, states, inputs v and q, stage and terminal costs and z
    norms, each with a leading run axis. A non-finite cost or z norm raises
    NonFiniteRollout naming its run (counted from `first_run`) and step; a
    model of another horizon or dimensions than the policy's raises
    ValidationError.
    """
    have, want = ((m.n, m.d0, m.d1, m.d2) for m in (model, policy.model))
    if have != want:
        raise ValidationError(f"model: (n, d0, d1, d2) = {have}, but policy "
                              f"{policy.label} was prepared on {want}")
    n, d0, R = model.n, model.d0, len(seeds)
    if x_star is not None and np.shape(x_star) != (d0,):
        raise ValidationError(
            f"target must have shape ({d0},), got {np.shape(x_star)}")
    sampled = x_star is None
    x0, w, drawn = (_draw if draws is None else draws.chunk)(model, seeds, sampled)
    x_star = np.broadcast_to(np.asarray(drawn if sampled else x_star, dtype=float),
                             (R, d0))
    states = np.empty((R, n + 1, d0))
    states[:, 0] = x0
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
    check_seed("seed", seed)
    x_star, states, v, q, stage, terminal, z_norms = (
        a[0] for a in _rollouts(policy, model, x_star,
                                np.array([seed], dtype=np.uint64)))
    return RolloutTrace(states, v, q, stage, float(terminal), z_norms,
                        policy.sigma_traces.copy(), x_star.copy(), seed)


def monte_carlo(policy: PreparedPolicy, model: SystemModel,
                x_star: np.ndarray | None, runs: int, master_seed: int,
                draws: SharedDraws | None = None) -> AggregateReport:
    """Aggregate `runs` independent rollouts (x_star=None samples per run).

    `draws`, a store of the experiment's shaped noise bound to `model`,
    spares the policies after the first the draw of every chunk it keeps;
    the results are the same with or without it.
    """
    if not (_is_integer(runs) and runs >= 1):
        raise ValidationError(f"runs: {runs!r} is not an integer >= 1")
    z_sum, stage_sum = np.zeros(model.n + 1), np.zeros(model.n)
    # totals are summed as deviations from the first: no cancellation in var
    shift, dev_sum, dev_sq = None, 0.0, 0.0
    for lo in range(0, runs, CHUNK_RUNS):
        seeds = _run_seeds(master_seed, lo, min(runs, lo + CHUNK_RUNS))
        *_, stage, terminal, z_norms = _rollouts(policy, model, x_star, seeds,
                                                 lo, draws)
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
