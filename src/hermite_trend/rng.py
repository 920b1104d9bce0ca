"""Deterministic random-stream derivation for reproducible Monte Carlo.

Every sampler in this package is a pure function of (spec, seed).  Replicated
experiments derive one integer seed per replication from a master seed and a
tuple of indices (rung, trend, replication, ...) through ``derive_seed``;
``hermite.replicate`` is the one place that applies this rule and loops over
paths.  The streams are statistically independent and do not depend on worker
count or scheduling order.  Philox is counter-based: cheap, jump-free streams.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # numpy 2 loads it lazily: load it on import, not in the first draw

from .validation import ParameterError

__all__ = ["philox_generator", "derive_seed"]


def philox_generator(seed: int) -> np.random.Generator:
    """Generator backed by counter-based Philox, keyed by a single integer seed."""
    seed = int(seed)
    if seed < 0:
        raise ParameterError("seed", f"must be a nonnegative integer, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derive_seed(master_seed: int, *key: int) -> int:
    """Derive an independent 64-bit child seed from a master seed and index tuple.

    The same (master_seed, key) always yields the same child; distinct keys
    yield streams that are independent for all practical purposes.
    """
    if int(master_seed) < 0:
        raise ParameterError("master_seed", f"must be nonnegative, got {master_seed}")
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])
