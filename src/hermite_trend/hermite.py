"""Hermite-process sample paths of arbitrary order on a uniform grid.

Order q = 1 is fractional Brownian motion and is simulated exactly.  For
q >= 2 the path is the classical Hermite-rank construction: partial sums of
H_q applied to a fine auxiliary fGn sequence with Hurst index
h0 = 1 + (hurst - 1)/q, rescaled by an exact discrete normalizer so that
Var(Z_horizon) = horizon^(2 hurst) holds exactly at every internal resolution
m, not just in the m -> infinity limit.

A path's grid increments come from one drawer, ``_increment_drawer``.  For
q >= 2 grid step j is b times the block sum of H_q over its own fine points,
floor(m*j/n) up to floor(m*(j+1)/n) - 1, so the first k increments read only the
fine points of the first k steps: a drawer of k steps applies H_q and the block
sums to that prefix alone.  It asks the fGn drawer for that fine prefix only, so
only those points are transposed out of the transform (see ``gaussian``); the
normals and the transform still cover the whole 2m embedding.  ``replicate``
hands a statistic each drawn path, the cumulative sum of all n increments.  It
builds one path drawer per call, and the drawer owns every per-path buffer: the
fGn normals and spectrum (the transform writes its output over the normals),
the H_q work arrays, the n increments and the n+1 values.  So a range of paths
costs one set of allocations, not one per path; at m = 131072 the fresh arrays
took about a third of a path's time.
``increment_sums`` builds, once per weight matrix, the function that returns
fixed weighted sums of each path's increments.  At order 1 these are a
linear map of the path's 2n normals, so it folds the sampler into the weights
(``gaussian._fgn_fold``) once, and a call draws only the normals, _BLOCK paths
at a time into the rows of one buffer: one matrix product of a fixed shape per
block replaces the inverse FFT and the cumulative sum of each path.  At higher
order it draws and weights as many increments as the weights have columns, so
a caller hands over only the columns its rows reach; a clt cell's rows stop
at t0 + phi, about half of the path.

The seeding rule is the same for both: path r of the range runs on the stream
of ``philox_generator(derive_seed(seed, *key, r))``.  Both draw it from
``rng.philox_streams``, one Philox reset to each path's key, with the keys of
the whole range computed in one vectorised pass (``rng.philox_keys``, equal to
the scalar route key for key).  ``sample_hermite`` is the one-path use of the
path drawer, on ``philox_generator(seed)``.  No buffer or generator outlives
its call or is shared between threads (see ``gaussian``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gaussian import FgnSpec, _autocovariances, _fgn_drawer, _fgn_fold
from .rng import derive_seed, philox_generator, philox_streams
from .validation import ParameterError, check_horizon, check_hurst

__all__ = [
    "MAX_HERMITE_ORDER",
    "HermiteSpec",
    "HermitePath",
    "MomentScalingReport",
    "h_zero",
    "hermite_polynomial",
    "discrete_normalizer",
    "sample_hermite",
    "replicate",
    "increment_sums",
    "max_moment_scaling_check",
]


# Highest supported Hermite rank; HermiteSpec checks it for the config key and the CLI flag.
MAX_HERMITE_ORDER = 8


# ---------------------------------------------------------------- types ----


@dataclass(frozen=True)
class HermiteSpec:
    """Hermite process of order `order` with self-similarity index `hurst` on [0, horizon].

    `n` is the number of grid steps (the path has n+1 points); `m` is the
    internal fGn resolution for the rank construction (defaults to 8n).  m is
    not required to be a multiple of n: grid step j sums the fine points
    floor(m*j/n) up to floor(m*(j+1)/n) - 1, computed in integer arithmetic.
    """

    order: int
    hurst: float
    horizon: float
    n: int
    m: int = field(default=0)

    def __post_init__(self):
        if not 1 <= self.order <= MAX_HERMITE_ORDER:
            raise ParameterError("order", f"must lie in [1, {MAX_HERMITE_ORDER}], got {self.order}")
        check_hurst(self.hurst)
        check_horizon(self.horizon)
        if self.n < 1:
            raise ParameterError("n", f"must be >= 1, got {self.n}")
        if self.m == 0:
            object.__setattr__(self, "m", 8 * self.n)
        if self.m < self.n:
            raise ParameterError("m", f"must be 0 (for 8n) or >= n = {self.n}, got {self.m}")


@dataclass(frozen=True)
class HermitePath:
    times: np.ndarray
    values: np.ndarray
    spec: HermiteSpec


@dataclass(frozen=True)
class MomentScalingReport:
    """Monte Carlo check of E[(sup_t |Z_t|)^p] against horizon self-similarity."""

    mc_ratio: float
    theoretical: float
    ci_low: float
    ci_high: float
    within_ci: bool
    moment_t1: float
    moment_t2: float


# ----------------------------------------------------------- pure values ---


def h_zero(order: int, hurst: float) -> float:
    """Hurst index of the auxiliary fGn layer: 1 + (hurst - 1)/order.

    Always lands in (1 - 1/(2 order), 1), hence inside the admissible fGn
    range (1/2, 1).
    """
    if order < 1:
        raise ParameterError("order", f"must be >= 1, got {order}")
    check_hurst(hurst)
    return 1.0 + (hurst - 1.0) / order


def hermite_polynomial(order: int, x):
    """Probabilists' Hermite polynomial H_order evaluated pointwise.

    H_1 = x, H_2 = x^2 - 1, H_3 = x^3 - 3x, via the three-term recurrence
    H_{k+1}(x) = x H_k(x) - k H_{k-1}(x).
    """
    if order < 1:
        raise ParameterError("order", f"must be >= 1, got {order}")
    scalar = np.ndim(x) == 0
    x = np.asarray(x, dtype=float)
    if order == 1:
        h = x.copy()  # never hand back the caller's array
    else:
        h = _hermite_into(order, x, _hermite_work(order, x.shape))
    return float(h) if scalar else h


def _hermite_work(order: int, shape) -> list:
    """The arrays ``_hermite_into`` writes for order >= 2: one for H_2, three beyond."""
    return [np.empty(shape) for _ in range(1 if order == 2 else 3)]


def _hermite_into(order: int, x: np.ndarray, work: list) -> np.ndarray:
    """H_order(x) for order >= 2, computed in the arrays ``work``; returns the one holding it.

    The recurrence runs as x * H_k - k * H_{k-1}, one rounding per operation, with
    H_{k+1} written over a free array and k * H_{k-1} over H_{k-1} itself (over a
    third array when H_{k-1} is x, which stays untouched).
    """
    h_prev, h = x, np.subtract(np.multiply(x, x, out=work[0]), 1.0, out=work[0])
    for k in range(2, order):
        new = work[(k - 1) % 3]
        scaled = np.multiply(h_prev, k, out=work[2] if h_prev is x else h_prev)
        np.subtract(np.multiply(x, h, out=new), scaled, out=new)
        h_prev, h = h, new
    return h


@lru_cache(maxsize=16)
def discrete_normalizer(order: int, hurst: float, m: int, horizon: float) -> float:
    """Exact b with Var(b * sum_{i<m} H_q(xi_i)) = horizon^(2 hurst).

    The double sum sum_{i,j<m} r(i-j)^q collapses to
    sum_{|l|<m} (m-|l|) r(l)^q, an O(m) expression; no asymptotic constant is
    involved, so the identity holds at every finite m.  A pure function of its
    arguments, memoised because every path of a spec needs the same value.  r is
    the array the spec's m-point fGn embedding reads (``gaussian._autocovariances``).
    """
    if m < 1:
        raise ParameterError("m", f"must be >= 1, got {m}")
    check_horizon(horizon)
    lags = np.arange(1, m)
    r_pow = _autocovariances(m, h_zero(order, hurst))[1:m] ** order
    total = float(m) + 2.0 * float(np.sum((m - lags) * r_pow))
    return horizon**hurst / math.sqrt(math.factorial(order) * total)


# -------------------------------------------------------------- sampling ---


def _fbm_scale(spec: HermiteSpec) -> float:
    """(horizon/n)^hurst: an order-1 increment over one grid step is this times unit fGn."""
    return (spec.horizon / spec.n) ** spec.hurst


def _increment_drawer(spec: HermiteSpec, steps: int):
    """draw(rng) -> the first ``steps`` grid increments of the path drawn from the generator rng.

    At order 1 they are ``_fbm_scale`` times exact unit fGn.  At higher order grid step j
    is b times the block sum of H_q over the fine points floor(m*j/n) .. floor(m*(j+1)/n) - 1,
    and since m >= n no block is empty.  Only the fine points of the first ``steps``
    blocks go through H_q and the sums, so a caller whose weights stop early skips the
    rest of the path after its transform.  The increments sit in buffers the drawer owns;
    every draw overwrites the one before.
    """
    if spec.order == 1:
        noise = _fgn_drawer(FgnSpec(hurst=spec.hurst, n=spec.n), steps)
        scale = _fbm_scale(spec)

        def draw(rng: np.random.Generator) -> np.ndarray:
            increments = noise(rng)
            return np.multiply(increments, scale, out=increments)

        return draw
    starts = (np.arange(steps, dtype=np.int64) * spec.m) // spec.n
    fine = (steps * spec.m) // spec.n
    noise = _fgn_drawer(FgnSpec(hurst=h_zero(spec.order, spec.hurst), n=spec.m), fine)
    work = _hermite_work(spec.order, fine)
    b = discrete_normalizer(spec.order, spec.hurst, spec.m, spec.horizon)
    increments = np.empty(steps)

    def draw(rng: np.random.Generator) -> np.ndarray:
        h = _hermite_into(spec.order, noise(rng), work)
        return np.multiply(np.add.reduceat(h, starts, out=increments), b, out=increments)

    return draw


def _path_drawer(spec: HermiteSpec):
    """draw(rng) -> the n+1 values of a path drawn from the generator rng.

    Z_0 = 0 and the value at j*horizon/n is the sum of the first j increments of
    ``_increment_drawer``; at order 1 the values have the exact fBm covariance.  They
    sit in a buffer the drawer owns; every draw overwrites the one before.
    """
    increments = _increment_drawer(spec, spec.n)
    values = np.zeros(spec.n + 1)

    def draw(rng: np.random.Generator) -> np.ndarray:
        np.cumsum(increments(rng), out=values[1:])
        return values

    return draw


def sample_hermite(spec: HermiteSpec, seed: int) -> HermitePath:
    """Draw one Hermite path on the uniform grid j*horizon/n, j = 0..n.

    Pure function of (spec, seed).  Z_0 = 0 and Var(Z_horizon) equals
    horizon^(2 hurst) exactly by construction.
    """
    rng = philox_generator(seed)  # a bad seed fails before the drawer is built
    times = np.linspace(0.0, spec.horizon, spec.n + 1)
    return HermitePath(times=times, values=_path_drawer(spec)(rng), spec=spec)


def replicate(spec: HermiteSpec, seed: int, key: tuple, reps: range, statistic) -> np.ndarray:
    """Rows statistic(values), one per path r in ``reps``, drawn from derive_seed(seed, *key, r).

    Every Monte Carlo check and experiment draws its paths here or through
    ``increment_sums``, and row r does not depend on the range it is drawn in.
    All paths are drawn into one drawer's buffers, so ``statistic`` may be handed a
    view that the next draw overwrites; each row is copied into the result as soon
    as it is computed.
    """
    draw = _path_drawer(spec)
    rows = np.empty(0)
    for i, rng in enumerate(philox_streams(seed, key, reps)):
        row = np.asarray(statistic(draw(rng)))
        if i == 0:
            rows = np.empty((len(reps),) + row.shape, row.dtype)
        rows[i] = row
    return rows


# Longest dot product handed to BLAS in one call: OpenBLAS splits a dot of more
# than 10000 terms over its own threads, and the split changes the rounding.
_DOT_PIECE = 8192

# Paths whose normals go through one matrix product with an order-1 fold.  Every
# product of a fold has this many rows, the last block of a range included.
_BLOCK = 4


def _row_dots(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.vecdot(rows, x), summed over pieces of at most _DOT_PIECE terms in a fixed order.

    ``rows`` is a (points, n) matrix and ``x`` a length-n vector.  Each row's sum is the
    piecewise ``vecdot`` of its first _DOT_PIECE terms, plus that of the next, and so on,
    so its bits do not depend on how many threads BLAS runs.  A row of at most _DOT_PIECE
    terms is one ``vecdot``.
    """
    sums = np.vecdot(rows[..., :_DOT_PIECE], x[:_DOT_PIECE])
    for start in range(_DOT_PIECE, len(x), _DOT_PIECE):
        sums += np.vecdot(rows[..., start:start + _DOT_PIECE], x[start:start + _DOT_PIECE])
    return sums


def increment_sums(spec: HermiteSpec, weights: np.ndarray):
    """sums(seed, key, reps) -> rows weights . dZ_r, a (len(reps), len(weights)) array.

    ``weights`` is a (rows, w) matrix with w <= n (a wider one raises ValueError), and dZ_r
    holds the first w grid increments of the path ``replicate`` hands its statistic for r,
    so a caller whose rows stop early hands over only the columns they reach.  At order 1
    dZ_r is a fixed linear map of the path's 2n normals z, so the map is folded into the
    weights here, once (``gaussian._fgn_fold``, which pads a row to n with zeros), and a
    path costs its normals and no inverse FFT.  The normals of _BLOCK consecutive paths
    fill one buffer, and one ``np.matmul`` with the fold turns them into rows, so the fold
    is read once per block.  The last block of a range goes through the same product and
    keeps its first rows.  BLAS thus sees one shape per fold, and the bits of row r depend
    neither on the range, nor on r's place in its block, nor on the BLAS thread count (a
    one-row product would go to gemv, which sums in another order).  The rows equal
    weights . dZ_r to rounding.  At higher order the block sums of H_q are not linear in
    z, so ``_increment_drawer`` draws the w increments alone and ``_row_dots`` weights
    them.  The buffers belong to one call, so one sums serves any number of ranges.
    """
    if weights.shape[1] > spec.n:
        raise ValueError(f"weights have {weights.shape[1]} columns, more than n = {spec.n}")
    if spec.order == 1:
        fold_t = _fgn_fold(FgnSpec(hurst=spec.hurst, n=spec.n), weights, _fbm_scale(spec)).T

    def sums(seed: int, key: tuple, reps: range) -> np.ndarray:
        rows = np.empty((len(reps), len(weights)))
        if spec.order > 1:
            draw = _increment_drawer(spec, weights.shape[1])
            for row, rng in zip(rows, philox_streams(seed, key, reps)):
                row[:] = _row_dots(weights, draw(rng))
            return rows
        block = np.zeros((_BLOCK, 2 * spec.n))
        streams = philox_streams(seed, key, reps)
        for start in range(0, len(reps), _BLOCK):
            for z, rng in zip(block, streams):  # block first: a full block takes no stream
                rng.standard_normal(out=z)
            rows[start:start + _BLOCK] = np.matmul(block, fold_t)[:len(reps) - start]
        return rows

    return sums


def max_moment_scaling_check(
    order: int,
    hurst: float,
    p: float,
    t1: float,
    t2: float,
    reps: int,
    seed: int,
    n: int = 256,
    bootstrap: int = 1000,
) -> MomentScalingReport:
    """Monte Carlo ratio E[(sup|Z^{t2}|)^p] / E[(sup|Z^{t1}|)^p] vs (t2/t1)^(p*hurst).

    Ensembles are seeded by the index of each horizon in the deduplicated
    horizon list: equal horizons share streams (ratio exactly 1), distinct
    horizons get independent draws.  The CI is a percentile bootstrap over
    resampled replication means.
    """
    if reps < 2:
        raise ValueError(f"reps must be >= 2, got {reps}")
    if bootstrap < 1:
        raise ValueError(f"bootstrap must be >= 1, got {bootstrap}")
    horizons = [float(t1), float(t2)]
    unique = sorted(set(horizons))
    specs = [HermiteSpec(order=order, hurst=hurst, horizon=h, n=n) for h in horizons]
    sups = [replicate(spec, seed, (unique.index(spec.horizon),), range(reps),
                      lambda z: np.max(np.abs(z)) ** p) for spec in specs]
    moment_t1, moment_t2 = float(sups[0].mean()), float(sups[1].mean())
    mc_ratio = moment_t2 / moment_t1
    rng = philox_generator(derive_seed(seed, 0xB007))
    idx1 = rng.integers(0, reps, size=(bootstrap, reps))
    idx2 = rng.integers(0, reps, size=(bootstrap, reps))
    boot = sups[1][idx2].mean(axis=1) / sups[0][idx1].mean(axis=1)
    ci_low, ci_high = (float(x) for x in np.quantile(boot, [0.025, 0.975]))
    theoretical = (t2 / t1) ** (p * hurst)
    return MomentScalingReport(
        mc_ratio=mc_ratio,
        theoretical=theoretical,
        ci_low=ci_low,
        ci_high=ci_high,
        within_ci=ci_low <= theoretical <= ci_high,
        moment_t1=moment_t1,
        moment_t2=moment_t2,
    )
