"""Exact simulation of fractional Gaussian noise; ``hermite`` sums it into fBm.

fGn with Hurst index h in (1/2, 1) is sampled by circulant embedding of the
Toeplitz autocovariance (Davies-Harte).  The embedding is exact in law, not
asymptotic: the returned vector has, in every coordinate, the covariance that
``fgn_autocovariance`` returns.  That covariance is exact only up to its own
rounding, since the closed form cancels at large lags (about 1.1e-7 relative
at lag 32768 and 2.6e-7 at lag 131071), and the embedding check below
inherits it.

There is one embedding.  Dietrich & Newsam (1997, SIAM J. Sci. Comput. 18(4))
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
one inverse transform of the conjugated half spectrum (n+1 complex values),
which equals the forward FFT of the full Hermitian 2n spectrum to rounding.
At every n that transform is Bailey's four-step transform (Bailey 1990,
J. Supercomputing 4, "FFTs in external or hierarchical memory"): with
2n = n1 * n2, short inverse FFTs down the n2//2 + 1 columns of an
(n1, n2//2 + 1) spectrum, one multiply by a cached twiddle table, and n1 short
inverse real FFTs along its rows (``_blocked_drawer``).  One inverse real FFT
of length 2n would stream its values through memory on each of its passes;
the short ones work in cache, and a 2n with a large prime factor pays two
transforms of about that prime's length, not one of a Bluestein-sized length.
The two agree to a few ulps of the path's scale, and the one irfft stays the
tests' reference.

The draw layout, the order in which a path's 2n normals enter the half
spectrum, is defined once, by ``_draw_layout``: z[0] and z[1] scale
frequencies 0 and n, z[2:n+1] the real parts and z[n+1:] the imaginary parts
of frequencies 1..n-1.  Two functions read it.  ``_fgn_drawer`` turns the
normals into a path.  ``_fgn_fold`` turns a weight row a into the row b with
a . fgn(z) = b . z, one forward ``rfft`` of a scaled by the same amplitudes, so
that a caller who needs only fixed linear functionals of the path can skip the
inverse transform and take one dot product with the normals.

The per-path work goes into buffers, not fresh arrays: a drawer owns the 2n
normals and the spectrum, the inverse transform writes its output over the
normals it has already read, and each path it draws overwrites the one
before.  At n = 131072 fresh arrays cost more than the arithmetic (19.6
against 12.5 ms per path, the same bits).  A caller that reads only the first
``points`` values of each path says so when it builds the drawer, and only
those are transposed out of the transform's rows.  A drawer draws each path's
normals from the generator it is handed: ``sample_fgn`` hands it
``philox_generator(seed)``, and ``hermite.replicate`` one Philox that
``rng.philox_streams`` resets to each path's key.
A drawer lives as long as the call that built it (one path for
``sample_fgn``, a whole range for ``hermite.replicate``); none is cached or
shared, since the FFT and the Philox fill release the GIL and two threads must
never write to one buffer or step one generator.
"""

from __future__ import annotations

import math
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
    row = np.concatenate([r, r[-2:0:-1]])  # first row of the 2n circulant, real and even
    eig = np.fft.rfft(row).real  # eigenvalues 0..n, all the distinct ones
    # The embedding is PSD in exact arithmetic (Dietrich-Newsam, module docstring):
    # slightly negative eigenvalues are rounding, in the FFT or in r itself.
    if eig.min() < -1e-12 * eig.max():
        raise EmbeddingFailure(
            f"circulant embedding of fGn with n={n}, hurst={hurst!r} is not "
            f"nonnegative definite: min/max eigenvalue {eig.min() / eig.max():.3e}"
        )
    eig = np.clip(eig, 0.0, None)
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


def _blocked_rows(n: int) -> int:
    """n1 for the four-step transform of length 2n = n1 * n2: the largest even divisor
    of 2n not above sqrt(n), or 2 when there is none.

    Over n1 from 32 to 2048 at 2n = 2^15 .. 2^19, and at 2n = 60000, 118098, 196608 and
    200000, that choice was within a few percent of the fastest.  Against one irfft of
    length 2n, a whole fGn draw (normals included; medians of 5 interleaved rounds on a
    2-core Xeon, numpy 2.4.6) took 1.05 times as long at n = 2048 and 4096, 0.92-0.99
    times at n = 8192 .. 32768 and 30000, 0.70 at 2 * prime (n = 4099 and 65537) and
    0.35-0.48 at lopsided splits (n = 12345, 4 * 4099 and 5 * 32771), whose long
    transform is Bluestein-sized.  Below n = 2048 the short transforms add a fixed
    5-10 us a draw (13.2 against 8.1 us at n = 1).
    """
    for n1 in range(math.isqrt(n) // 2 * 2, 2, -2):
        if n % (n1 // 2) == 0:
            return n1
    return 2


@lru_cache(maxsize=8)
def _twiddles(n1: int, n2: int) -> np.ndarray:
    """The (n1, n2//2 + 1) table exp(2 pi i t1 k2 / (n1 n2)), memoised and read-only.

    The exponent is reduced modulo n1 n2 in integers first, so every angle lies in
    [0, 2 pi) and is within a few ulps.
    """
    length = n1 * n2
    turns = np.outer(np.arange(n1), np.arange(n2 // 2 + 1)) % length
    angle = turns * (2.0 * np.pi / length)
    table = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=table.real)
    np.sin(angle, out=table.imag)
    table.flags.writeable = False
    return table


def _fgn_drawer(spec: FgnSpec, points: int | None = None):
    """draw(rng) -> the first ``points`` values (default spec.n) of an fGn path drawn from rng.

    Raises ``EmbeddingFailure`` here, not in draw, for a spec whose embedding fails.  The
    draw is ``_blocked_drawer``'s at the split ``_blocked_rows`` picks.  draw returns a
    view of a buffer the drawer owns, so each draw overwrites the one before.  The values
    of a shorter ``points`` are the bits of the same prefix of a full draw.
    """
    n = spec.n
    amp = _half_spectrum_amplitudes(n, spec.hurst)
    return _blocked_drawer(amp, _blocked_rows(n), n if points is None else points)


def _blocked_drawer(amp: np.ndarray, n1: int, points: int):
    """``_fgn_drawer`` through Bailey's four-step inverse FFT, 2n = n1 * n2 with n1 even.

    X is the Hermitian 2n spectrum (X[2n-k] = conj X[k]) whose first n+1 values are the
    conjugated half spectrum: X[0] = amp_0 z_0, X[n] = amp_n z_1 and, for 0 < k < n,
    X[k] = amp_k (z_re,k - i z_im,k) in the draw layout.  With k = k2 + n2 k1 and
    t = t1 + n1 t2,
    2n x[t1 + n1 t2] = sum_k2 e(k2 t2 / n2) e(t1 k2 / 2n) sum_k1 e(k1 t1 / n1) X[k2 + n2 k1],
    e(u) = exp(2 pi i u): n2//2 + 1 inverse FFTs of length n1 down the columns, one
    multiply by ``_twiddles``, then n1 inverse real FFTs of length n2 along the rows.
    Row t1 is x[t1::n1], a real sequence, so its spectrum is Hermitian in k2 and only
    the columns k2 <= n2//2 are built.  Their rows k1 < n1/2 hold X[k] for k < n, and the
    rows k1 >= n1/2 hold X[k] = conj X[2n - k] for 0 < 2n - k <= n: both are written
    straight from the normals (``_draw_layout``) through views, the second read backwards.
    Last, the first ``points`` values are transposed out of the rows.

    Owns the 2n normals, the (n1, n2//2 + 1) spectrum and the points out.  The row
    transforms write the (n1, n2) rows over the normals, which the spectrum has already
    read; no draw allocates an array of the path's size.
    """
    n = len(amp) - 1
    n2 = 2 * n // n1
    top = n1 // 2
    cols = n2 // 2 + 1
    real, imag = _draw_layout(n)
    z_pad = np.zeros(2 * n + 1)  # z_pad[2n] stays 0, the imaginary part of frequency n
    z = z_pad[: 2 * n]
    # re[k] and im[k] are the normals of frequency k's real and imaginary parts for
    # 0 < k < n.  Frequencies 0 and n are written after the fill, except for the
    # imaginary part of n, which reads z_pad[2n].
    re, im = z_pad[real.start - 1 :], z_pad[imag.start - 1 :]
    spectrum = np.empty((n1, cols), dtype=complex)
    rows = z.reshape(n1, n2)
    used = -(-points // n1)
    out = np.empty(used * n1)
    noise = out[:points]
    scale = np.sqrt(2 * n)  # undoes the transforms' 1/(n1 n2) and restores the covariance

    def forward(a):  # a[k2 + n2 k1] at row k1 < n1/2, column k2
        return a[:n].reshape(top, n2)[:, :cols]

    def backward(a):  # a[n - (k2 + n2 k1)] at row k1 < n1/2, column k2
        return a[n::-1][:n].reshape(top, n2)[:, :cols]

    amp_back = backward(amp)
    fill = [
        (forward(amp), forward(re), spectrum.real[:top]),
        (-forward(amp), forward(im), spectrum.imag[:top]),  # conjugated
        (amp_back, backward(re), spectrum.real[top:]),
        (amp_back, backward(im), spectrum.imag[top:]),  # and conjugated back
    ]
    twiddles = _twiddles(n1, n2)
    by_point = out.reshape(used, n1)

    def draw(rng: np.random.Generator) -> np.ndarray:
        rng.standard_normal(out=z)
        for a, zk, part in fill:
            np.multiply(a, zk, out=part)
        spectrum[0, 0] = amp[0] * z[0]  # frequency 0
        spectrum[top, 0] = amp[n] * z[1]  # frequency n
        # In place: a second (n1, n2//2 + 1) buffer doubles the working set, and the
        # strided column transforms then took twice as long.
        np.fft.ifft(spectrum, axis=0, out=spectrum)
        np.multiply(spectrum, twiddles, out=spectrum)
        np.fft.irfft(spectrum, n2, axis=1, out=rows)
        np.multiply(rows[:, :used].T, scale, out=by_point)
        return noise

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

