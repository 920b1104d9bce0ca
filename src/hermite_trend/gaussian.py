"""Exact simulation of fractional Gaussian noise and fractional Brownian motion.

fGn with Hurst index h in (1/2, 1) is sampled by circulant embedding of the
Toeplitz autocovariance (Davies-Harte).  The embedding is exact in law, not
asymptotic: the returned vector has, in every coordinate, the covariance that
``fgn_autocovariance`` returns.  That covariance is exact only up to its own
rounding, since the closed form cancels at large lags (about 1.1e-7 relative
at lag 32768 and 2.6e-7 at lag 131071), and the embedding check below
inherits it.

There is one route.  Dietrich & Newsam (1997, SIAM J. Sci. Comput. 18(4))
show that the minimal circulant embedding of a nonnegative, decreasing, convex
covariance sequence is nonnegative definite, and the fGn autocovariance with
h in (1/2, 1) is such a sequence.  Eigenvalues slightly below zero are
rounding; one below -1e-12 times the largest raises ``EmbeddingFailure`` while
the drawer is being built, before any normal is drawn.  No dense O(n^2)
factorisation is ever attempted.

Everything that depends only on the spec (n, hurst), the embedding check and
the n+1 amplitudes of the half spectrum, is computed once per spec that
passes and cached read-only.  A path then costs one draw of 2n normals and
one inverse real FFT of the conjugated half spectrum (n+1 complex values),
which equals the forward FFT of the full Hermitian 2n spectrum to rounding.

The per-path work goes into buffers, not fresh arrays: ``_fgn_drawer`` owns
the 2n normals, the half spectrum and the 2n transform output, and each path
it draws overwrites the one before.  At n = 131072 fresh arrays cost more than
the arithmetic (19.6 against 12.5 ms per path, the same bits).  A drawer lives
as long as the call that built it (one path for ``sample_fgn``, a whole
range for ``hermite.replicate``); none is cached or shared, since the FFT and
the Philox fill release the GIL and two threads must never write to one
buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rng import philox_generator
from .validation import ParameterError, check_hurst

__all__ = [
    "EmbeddingFailure",
    "FgnSpec",
    "fgn_autocovariance",
    "sample_fgn",
]


class EmbeddingFailure(RuntimeError):
    """The circulant embedding of an fGn spec is not nonnegative definite.

    Raised when a drawer for the spec is built, before any normal is drawn.
    """


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


@lru_cache(maxsize=8)
def _half_spectrum_amplitudes(n: int, hurst: float) -> np.ndarray:
    """The n+1 half-spectrum amplitudes of the 2n circulant embedding.

    Memoised per (n, hurst) and read-only, since every drawer of the spec shares
    the array.  Raises ``EmbeddingFailure`` when the embedding is not
    nonnegative definite up to roundoff.
    """
    r = fgn_autocovariance(np.arange(n + 1), hurst)
    row = np.concatenate([r, r[-2:0:-1]])  # first row of the 2n circulant
    eig = np.fft.fft(row).real
    # The embedding is PSD in exact arithmetic (Dietrich-Newsam, module docstring):
    # slightly negative eigenvalues are rounding, in the FFT or in r itself.
    if eig.min() < -1e-12 * eig.max():
        raise EmbeddingFailure(
            f"circulant embedding of fGn with n={n}, hurst={hurst!r} is not "
            f"nonnegative definite: min/max eigenvalue {eig.min() / eig.max():.3e}"
        )
    eig = np.clip(eig[: n + 1], 0.0, None)
    amp = np.empty(n + 1)
    amp[0] = np.sqrt(eig[0])
    amp[n] = np.sqrt(eig[n])
    amp[1:n] = np.sqrt(0.5 * eig[1:n])
    amp.flags.writeable = False
    return amp


# -------------------------------------------------------------- sampling ---


def _fgn_drawer(spec: FgnSpec):
    """draw(seed) -> the spec.n values of the fGn path of that seed.

    Raises ``EmbeddingFailure`` here, not in draw, for a spec whose embedding
    fails.  draw returns a view of buffers this drawer owns, so each draw
    overwrites the one before.
    """
    n = spec.n
    amp = _half_spectrum_amplitudes(n, spec.hurst)
    neg_amp = -amp[1:n]
    z = np.empty(2 * n)
    half = np.zeros(n + 1, dtype=complex)  # imag[0] and imag[n] stay 0
    out = np.empty(2 * n)
    noise = out[:n]
    scale = np.sqrt(2 * n)

    def draw(seed: int) -> np.ndarray:
        # Draw layout: z[0], z[1] for frequencies 0 and n, then the n-1 real
        # parts, then the n-1 imaginary parts of frequencies 1..n-1.
        philox_generator(seed).standard_normal(out=z)
        half.real[0] = amp[0] * z[0]
        half.real[n] = amp[n] * z[1]
        np.multiply(amp[1:n], z[2 : n + 1], out=half.real[1:n])
        # Conjugated, so the inverse real FFT equals the forward FFT of the
        # Hermitian 2n spectrum; *sqrt(2n) undoes irfft's 1/(2n) and restores
        # the covariance.
        np.multiply(neg_amp, z[n + 1 :], out=half.imag[1:n])
        np.fft.irfft(half, 2 * n, out=out)
        return np.multiply(noise, scale, out=noise)

    return draw


def sample_fgn(spec: FgnSpec, seed: int) -> np.ndarray:
    """Draw the spec.n values of one exact fGn path.  Pure function of (spec, seed)."""
    return _fgn_drawer(spec)(seed)


def _fbm_drawer(hurst: float, horizon: float, n: int):
    """draw(seed) -> the n+1 fBm values of that seed, in a buffer the drawer owns.

    B_0 = 0 and the increments are (horizon/n)^hurst times exact unit fGn, so
    the values at the times j*horizon/n have the exact fBm covariance.
    """
    noise = _fgn_drawer(FgnSpec(hurst=hurst, n=n))
    scale = (horizon / n) ** hurst
    values = np.zeros(n + 1)

    def draw(seed: int) -> np.ndarray:
        increments = noise(seed)
        np.cumsum(np.multiply(increments, scale, out=increments), out=values[1:])
        return values

    return draw
