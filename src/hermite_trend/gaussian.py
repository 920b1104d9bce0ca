"""Exact simulation of fractional Gaussian noise and fractional Brownian motion.

fGn with Hurst index h in (1/2, 1) is sampled by circulant embedding of the
Toeplitz autocovariance (Davies-Harte).  The embedding is exact: the returned
vector has the target autocovariance in every coordinate, not asymptotically.
If the circulant eigenvalues fail to be nonnegative the sampler falls back to
a dense Cholesky factorisation of the covariance; ``EmbeddingFailure`` is
raised only when both routes fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import toeplitz

from .rng import philox_generator
from .validation import ParameterError, check_hurst

__all__ = [
    "EmbeddingFailure",
    "FgnSpec",
    "fgn_autocovariance",
    "sample_fgn",
    "sample_fbm",
]


class EmbeddingFailure(RuntimeError):
    """Neither circulant embedding nor dense factorisation could produce the path."""


# ---------------------------------------------------------------- types ----


@dataclass(frozen=True)
class FgnSpec:
    """Unit-variance stationary fractional Gaussian noise.

    Parameters
    ----------
    hurst : float
        Hurst index, strictly inside (1/2, 1).
    n : int
        Number of samples, >= 1.
    """

    hurst: float
    n: int

    def __post_init__(self):
        check_hurst(self.hurst)
        if self.n < 1:
            raise ParameterError("n", f"must be >= 1, got {self.n}")


# ----------------------------------------------------------- covariance ----


def fgn_autocovariance(lag, hurst: float):
    """Autocovariance of unit-variance fGn.

    r(lag) = ((|lag|+1)^(2h) - 2|lag|^(2h) + ||lag|-1|^(2h)) / 2.  Accepts a
    scalar or an array of lags; r(0) = 1 for every admissible h.
    """
    check_hurst(hurst)
    scalar = np.ndim(lag) == 0
    k = np.abs(np.asarray(lag, dtype=float))
    two_h = 2.0 * hurst
    out = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    return float(out) if scalar else out


# Circulant eigenvalues depend only on (n, hurst); memoised across paths and
# read-only, since every caller shares the cached array.
@lru_cache(maxsize=8)
def _circulant_eigenvalues(n: int, hurst: float) -> np.ndarray:
    r = fgn_autocovariance(np.arange(n + 1), hurst)
    row = np.concatenate([r, r[-2:0:-1]])  # first row of the 2n circulant
    eig = np.fft.fft(row).real
    eig.flags.writeable = False
    return eig


# -------------------------------------------------------------- sampling ---


def _sample_circulant(eig: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    m = 2 * n
    w = np.zeros(m, dtype=complex)
    head = rng.standard_normal(2)
    u = rng.standard_normal(n - 1)
    v = rng.standard_normal(n - 1)
    w[0] = np.sqrt(eig[0]) * head[0]
    w[n] = np.sqrt(eig[n]) * head[1]
    w[1:n] = np.sqrt(0.5 * eig[1:n]) * (u + 1j * v)
    w[n + 1 :] = np.conj(w[1:n][::-1])
    # FFT of a conjugate-symmetric vector is real; /sqrt(m) restores covariance.
    return np.fft.fft(w).real[:n] / np.sqrt(m)


def _sample_dense(spec: FgnSpec, rng: np.random.Generator) -> np.ndarray:
    cov = toeplitz(fgn_autocovariance(np.arange(spec.n), spec.hurst))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise EmbeddingFailure(
            f"circulant eigenvalues negative and Cholesky failed for {spec}"
        ) from exc
    return chol @ rng.standard_normal(spec.n)


def sample_fgn(spec: FgnSpec, seed: int) -> np.ndarray:
    """Draw the spec.n values of one exact fGn path.  Pure function of (spec, seed)."""
    rng = philox_generator(seed)
    eig = _circulant_eigenvalues(spec.n, spec.hurst)
    # Tiny negative eigenvalues are FFT roundoff on a genuinely PSD embedding.
    if eig.min() >= -1e-12 * eig.max():
        return _sample_circulant(np.clip(eig, 0.0, None), spec.n, rng)
    return _sample_dense(spec, rng)


def sample_fbm(hurst: float, horizon: float, n: int, seed: int) -> np.ndarray:
    """Fractional Brownian motion at the n+1 uniform times j*horizon/n, j = 0..n.

    B_0 = 0 and increments are (horizon/n)^hurst times exact unit fGn, so the
    path covariance is (s^(2h) + t^(2h) - |t-s|^(2h)) / 2 without
    discretisation bias at the grid times.
    """
    if not horizon > 0.0:
        raise ParameterError("horizon", f"must be positive, got {horizon}")
    noise = sample_fgn(FgnSpec(hurst=hurst, n=n), seed)
    return np.concatenate([[0.0], np.cumsum((horizon / n) ** hurst * noise)])
