"""Per-run reference for the Monte Carlo streams, one object per seed.

The package seeds a chunk of runs in one vectorised pass
(`lqcoord.simulate._stream_states`) and sets one Generator to each run's
state in turn. This file keeps the plain forms that pass must reproduce:
numpy's own Generator on PCG64(seed), splitmix64 and the run-seed mix in
Python ints, and one run's target drawn from its salted substream.
"""

import numpy as np

MASK = (1 << 64) - 1
TARGET_SALT = 0x9E3779B97F4A7C15


def gaussian_stream(seed: int) -> np.random.Generator:
    """Deterministic standard-normal source for one rollout."""
    return np.random.Generator(np.random.PCG64(seed))


def splitmix64(x: int) -> int:
    """One step of the splitmix64 sequence, in Python ints."""
    x = (x + 0x9E3779B97F4A7C15) & MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) & MASK


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """The seed of run `run_index`: splitmix64 mix of (master_seed, run_index)."""
    return splitmix64(splitmix64(master_seed) ^ splitmix64(run_index))


def sample_target(model, seed: int) -> np.ndarray:
    """Run `seed`'s target: N(0, Sigma0) shaped by Cholesky factor from the
    first d0 normals of the run's salted substream."""
    g = gaussian_stream(splitmix64(seed ^ TARGET_SALT)).standard_normal(model.d0)
    return (g[None] @ np.linalg.cholesky(model.Sigma0).T)[0]
