"""Exact simulation of fractional Gaussian noise; ``hermite`` sums it into fBm.

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

Everything that depends only on the spec (n, hurst) is computed once and
cached read-only: the n+1 autocovariances, which ``hermite`` also reads for
its normalizer, and, for a spec that passes the embedding check, the n+1
amplitudes of the half spectrum.  A path then costs one draw of 2n normals and
one inverse real FFT of the conjugated half spectrum (n+1 complex values),
which equals the forward FFT of the full Hermitian 2n spectrum to rounding.

The draw layout, the order in which a path's 2n normals enter the half
spectrum, is defined once, by ``_draw_layout``: z[0] and z[1] scale
frequencies 0 and n, z[2:n+1] the real parts and z[n+1:] the imaginary parts
of frequencies 1..n-1.  Two functions read it.  ``_fgn_drawer`` turns the
normals into a path.  ``_fgn_fold`` turns a weight row a into the row b with
a . fgn(z) = b . z, one forward ``rfft`` of a scaled by the same amplitudes, so
that a caller who needs only fixed linear functionals of the path can skip the
inverse transform and take one dot product with the normals.

The per-path work goes into buffers, not fresh arrays: ``_fgn_drawer`` owns
the 2n normals, the half spectrum and the 2n transform output, and each path
it draws overwrites the one before.  At n = 131072 fresh arrays cost more than
the arithmetic (19.6 against 12.5 ms per path, the same bits).  A drawer
draws each path's normals from the generator it is handed: ``sample_fgn``
hands it ``philox_generator(seed)``, and ``hermite.replicate`` one Philox that
``rng.philox_streams`` resets to each path's key.
A drawer lives as long as the call that built it (one path for
``sample_fgn``, a whole range for ``hermite.replicate``); none is cached or
shared, since the FFT and the Philox fill release the GIL and two threads must
never write to one buffer or step one generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # numpy 2 loads it lazily: load it on import, not in the first path

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
def _autocovariances(n: int, hurst: float) -> np.ndarray:
    """fgn_autocovariance at the lags 0..n, memoised per (n, hurst) and read-only.

    The circulant embedding of an n-point fGn reads all n+1 lags, and
    ``hermite.discrete_normalizer`` at m = n reads lags 1..m-1 of the same array,
    so a Hermite spec evaluates the m powers once (6 ms at m = 131072).
    """
    r = fgn_autocovariance(np.arange(n + 1), hurst)
    r.flags.writeable = False
    return r


@lru_cache(maxsize=8)
def _half_spectrum_amplitudes(n: int, hurst: float) -> np.ndarray:
    """The n+1 half-spectrum amplitudes of the 2n circulant embedding.

    Memoised per (n, hurst) and read-only, since every drawer of the spec shares
    the array.  Raises ``EmbeddingFailure`` when the embedding is not
    nonnegative definite up to roundoff.
    """
    r = _autocovariances(n, hurst)
    row = np.concatenate([r, r[-2:0:-1]])  # first row of the 2n circulant
    # Keep the complex 2n fft, not rfft.  Its temporaries (4 MB at n = 131072) raise
    # glibc's dynamic mmap threshold above the work buffer that numpy's irfft
    # allocates on every draw, so that buffer comes from the heap, not from fresh
    # pages.  With rfft here a clt-q2 path (n = 131072) took 1,043 minor faults
    # instead of 90, and the run about 12 % more time.
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


def _draw_layout(n: int) -> tuple:
    """(real, imag): where a path's 2n normals hold the real and imaginary parts of
    frequencies 1..n-1.  z[0] and z[1] scale frequencies 0 and n."""
    return slice(2, n + 1), slice(n + 1, 2 * n)


def _fgn_drawer(spec: FgnSpec):
    """draw(rng) -> the spec.n values of an fGn path drawn from the generator rng.

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
    real, imag = _draw_layout(n)

    def draw(rng: np.random.Generator) -> np.ndarray:
        rng.standard_normal(out=z)
        half.real[0] = amp[0] * z[0]
        half.real[n] = amp[n] * z[1]
        np.multiply(amp[1:n], z[real], out=half.real[1:n])
        # Conjugated, so the inverse real FFT equals the forward FFT of the
        # Hermitian 2n spectrum; *sqrt(2n) undoes irfft's 1/(2n) and restores
        # the covariance.
        np.multiply(neg_amp, z[imag], out=half.imag[1:n])
        np.fft.irfft(half, 2 * n, out=out)
        return np.multiply(noise, scale, out=noise)

    return draw


def _fgn_fold(spec: FgnSpec, rows: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The (len(rows), 2n) matrix B with B . z = scale * rows . fgn(z) for the normals z.

    fgn(z) is the path ``_fgn_drawer`` draws from the normals z (``_draw_layout``);
    each row a has spec.n weights.  Since fgn_t = (1/sqrt(2n)) (amp_0 z_0 +
    (-1)^t amp_n z_1 + 2 sum_{k=1}^{n-1} amp_k (z_re,k cos(pi k t/n) + z_im,k sin(pi k t/n))),
    row b is the forward FFT A = rfft(a, 2n) scaled by the amplitudes: b_0 = amp_0 Re A_0,
    b_1 = amp_n Re A_n, b_re = 2 amp_k Re A_k and b_im = -2 amp_k Im A_k, all times
    scale/sqrt(2n).  Built row by row, so only one transform is held at a time.  Raises
    ``EmbeddingFailure``, as ``_fgn_drawer`` does, for a spec whose embedding fails.
    """
    n = spec.n
    amp = _half_spectrum_amplitudes(n, spec.hurst)
    real, imag = _draw_layout(n)
    s = scale / np.sqrt(2 * n)
    ends = np.array([amp[0], amp[n]]) * s
    inner = amp[1:n] * (2.0 * s)
    neg_inner = -inner
    fold = np.empty((len(rows), 2 * n))
    for a, b in zip(rows, fold):
        spectrum = np.fft.rfft(a, 2 * n)
        np.multiply(ends, spectrum.real[[0, n]], out=b[:2])
        np.multiply(inner, spectrum.real[1:n], out=b[real])
        np.multiply(neg_inner, spectrum.imag[1:n], out=b[imag])
    return fold


def sample_fgn(spec: FgnSpec, seed: int) -> np.ndarray:
    """Draw the spec.n values of one exact fGn path.  Pure function of (spec, seed)."""
    return _fgn_drawer(spec)(philox_generator(seed))

