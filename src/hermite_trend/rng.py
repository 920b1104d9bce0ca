"""Deterministic random-stream derivation for reproducible Monte Carlo.

Every sampler in this package is a pure function of (spec, seed).  Replicated
experiments derive one integer seed per replication from a master seed and a
tuple of indices (rung, trend, replication, ...) through ``derive_seed``, and
the path of that seed runs on the stream of ``philox_generator``;
``hermite``'s replication loop is the one place that applies this rule and
loops over paths, taking its streams from ``philox_streams``.  The streams are
statistically independent and do not depend on worker count or scheduling
order.

Philox is counter-based (Salmon et al. 2011, "Parallel random numbers: as easy
as 1, 2, 3", SC'11): a stream is set by its 128-bit key and its counter, so a
Philox reset to a key at counter 0 with an empty buffer runs the stream that a
freshly built one with that key runs.  ``philox_keys`` gives the keys of a
whole replication range in one vectorised pass: numpy's SeedSequence hash run
on uint32 arrays, first from the spawn key to the child seed (what
``derive_seed`` does), then from the child seed to the Philox key (what
``philox_generator`` does).  The seeding rule is unchanged: each row equals the
scalar route, which stays the reference.  ``philox_streams`` resets one
Philox to each key of a range in turn, in place of building two SeedSequences
and a generator per path (about 40 us of a q = 1, n = 4096 path of 390 us).
"""

from __future__ import annotations

import numpy as np
import numpy.random  # numpy 2 loads it lazily: load it on import, not in the first draw

from .validation import ParameterError

__all__ = ["philox_generator", "philox_keys", "philox_streams", "derive_seed"]


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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), default pool of 4 words.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list:
    """The uint32 words SeedSequence reads from a nonnegative integer, low word first."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected a nonnegative integer, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


# The hash words are Python ints below 2^32 where every sequence shares them (the
# master seed and the key) and uint32 arrays, one element per sequence, where they
# differ.  Masking makes the ints wrap as uint32 does; arrays wrap silently.


def _hash(value, const: int, mult: int) -> tuple:
    """(hashed value, next hash constant): one step of hashmix (mult A) or generate_state (B)."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    result = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _pool(entropy: list) -> list:
    """SeedSequence's mixed pool of 4 uint32 words, one array element per sequence.

    ``entropy`` lists the entropy words; words missing below the pool size hash as 0.
    """
    const = _INIT_A
    pool = []
    for i in range(_POOL):
        word = entropy[i] if i < len(entropy) else 0
        hashed, const = _hash(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            hashed, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    return pool


def _generate_state(pool: list, n_words: int) -> list:
    """SeedSequence.generate_state(n_words, np.uint32) of each pool, as n_words arrays."""
    const = _INIT_B
    state = []
    for i in range(n_words):
        word, const = _hash(pool[i % _POOL], const, _MULT_B)
        state.append(word)
    return state


def _uint64(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The uint64 of two uint32 words, as generate_state(..., np.uint64) pairs them."""
    return low.astype(np.uint64) | (high.astype(np.uint64) << np.uint64(32))


def _seed_keys(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Philox keys of the seeds below 2^64 given by their two uint32 words: (len, 2) uint64.

    Row i is SeedSequence(seed_i).generate_state(2, np.uint64).  A seed below
    2^32 has one entropy word; the pool hashes its missing high word as the
    same 0 that ``high`` holds, so both cases run the same arithmetic.
    """
    state = _generate_state(_pool([low, high]), 4)
    return np.stack([_uint64(state[0], state[1]), _uint64(state[2], state[3])], axis=1)


def philox_keys(master_seed: int, key: tuple, reps) -> np.ndarray:
    """Philox keys of the paths r in ``reps`` of a stream key: a (len(reps), 2) uint64 array.

    Row i is the key ``philox_generator(derive_seed(master_seed, *key, r_i))``
    runs on, ``SeedSequence(derive_seed(...)).generate_state(2, np.uint64)``.
    Each r must lie in [0, 2^64).  Rows depend only on their own r, not on the
    range they are computed in.
    """
    master_seed = int(master_seed)
    if master_seed < 0:
        raise ParameterError("master_seed", f"must be nonnegative, got {master_seed}")
    run = _words(master_seed)
    # with a spawn key, SeedSequence pads the run entropy with zeros to the pool size
    prefix = run + [0] * (_POOL - len(run)) + [w for k in key for w in _words(k)]
    reps = np.array(reps, dtype=np.uint64).reshape(-1)
    low = (reps & np.uint64(_MASK32)).astype(np.uint32)
    high = (reps >> np.uint64(32)).astype(np.uint32)
    keys = np.empty((len(reps), 2), np.uint64)
    for wide in (False, True):  # r >= 2^32 adds a second entropy word to the hash
        rows = high > 0 if wide else high == 0
        if rows.any():
            tail = [low[rows], high[rows]] if wide else [low[rows]]
            child = _generate_state(_pool(prefix + tail), 2)  # derive_seed's uint64
            keys[rows] = _seed_keys(*child)
    return keys


def philox_streams(master_seed: int, key: tuple, reps):
    """Yield, for each path r in ``reps``, a generator on the stream of
    ``philox_generator(derive_seed(master_seed, *key, r))``.

    The same Generator is yielded every time, reset to the path's Philox key
    at counter 0 with an empty buffer, so each path's stream lasts until the
    next is yielded.  Never share the iterator between threads.
    """
    keys = philox_keys(master_seed, key, reps)
    rng = philox_generator(0)
    bits = rng.bit_generator
    fresh = bits.state  # counter 0, empty buffer: only the key differs between paths
    for path_key in keys:
        fresh["state"]["key"] = path_key
        bits.state = fresh
        yield rng
