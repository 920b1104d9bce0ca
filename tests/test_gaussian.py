"""fGn autocovariance oracles and exactness checks for the circulant sampler."""

import contextlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_trend import cli
from hermite_trend.gaussian import (
    EmbeddingFailure,
    FgnSpec,
    _fgn_fold,
    fgn_autocovariance,
    sample_fgn,
)
import hermite_trend.gaussian as gaussian_mod
import hermite_trend.hermite as hermite_mod
from hermite_trend.hermite import HermiteSpec, increment_sums, replicate, sample_hermite
from hermite_trend.rng import philox_generator

# Frozen oracles, evaluated directly from ((l+1)^{2h} - 2 l^{2h} + (l-1)^{2h})/2.
R1_H085 = 0.624504792712471
R1_H07 = 0.3195079107728942
R2_H07 = 0.1887525393272509
# Frozen oracle for Cov(B_1, B_2) at hurst 0.7: (1 + 2^1.4 - 1)/2 = 2^0.4.
FBM_COV_1_2_H07 = 1.3195079107728942


class TestAutocovariance:
    @pytest.mark.parametrize(
        "lag,hurst,expected",
        [(1, 0.85, R1_H085), (1, 0.7, R1_H07), (2, 0.7, R2_H07), (-1, 0.85, R1_H085)],
    )
    def test_frozen_values(self, lag, hurst, expected):
        got = fgn_autocovariance(lag, hurst)
        assert got == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("hurst", [0.51, 0.6, 0.75, 0.9, 0.99])
    def test_lag_zero_is_unit_variance(self, hurst):
        assert fgn_autocovariance(0, hurst) == pytest.approx(1.0, abs=1e-14)

    def test_brownian_limit_kills_correlation(self):
        # hurst -> 1/2 from above: increments decorrelate.
        assert abs(fgn_autocovariance(1, 0.5 + 1e-12)) < 1e-9

    @pytest.mark.parametrize("hurst", [0.6, 0.85])
    def test_positive_and_decaying(self, hurst):
        r = fgn_autocovariance(np.arange(1, 50), hurst)
        assert np.all(r > 0), "long-range positive dependence expected for hurst > 1/2"
        assert np.all(np.diff(r) < 0)

    def test_vector_matches_scalars(self):
        lags = np.array([0, 1, 2, 5])
        vec = fgn_autocovariance(lags, 0.8)
        assert vec == pytest.approx([fgn_autocovariance(int(l), 0.8) for l in lags])

    @pytest.mark.parametrize("hurst", [0.5, 1.0, 0.3, 1.2])
    def test_rejects_hurst_outside_open_interval(self, hurst):
        with pytest.raises(ValueError):
            fgn_autocovariance(1, hurst)


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            FgnSpec(hurst=0.5, n=8)
        with pytest.raises(ValueError):
            FgnSpec(hurst=0.7, n=0)


class TestCirculantSampler:
    def test_deterministic_in_seed(self):
        spec = FgnSpec(hurst=0.75, n=128)
        a = sample_fgn(spec, 42)
        b = sample_fgn(spec, 42)
        c = sample_fgn(spec, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_single_sample_edge_case(self):
        path = sample_fgn(FgnSpec(hurst=0.9, n=1), 7)
        assert path.shape == (1,)

    @pytest.mark.parametrize("hurst", [0.6, 0.85])
    def test_marginals_and_lags_match_target(self, hurst):
        # The embedding is exact, so sample moments sit within MC error of the
        # closed-form autocovariance.
        spec = FgnSpec(hurst=hurst, n=64)
        reps = 4000
        paths = np.stack([sample_fgn(spec, 1000 + r) for r in range(reps)])
        for lag in (0, 1, 5):
            prods = paths[:, 10] * paths[:, 10 + lag]
            est = prods.mean()
            se = prods.std(ddof=1) / np.sqrt(reps)
            target = fgn_autocovariance(lag, hurst)
            print(f"hurst={hurst} lag={lag}: est={est:.4f} target={target:.4f} se={se:.4f}")
            assert abs(est - target) < 4 * se


class TestHalfSpectrum:
    """The half-spectrum inverse FFT against the full 2n complex-FFT embedding."""

    @staticmethod
    def full_spectrum_reference(spec, seed):
        # Full-spectrum Davies-Harte: the 2n circulant eigenvalues computed here,
        # three draws (2, n-1, n-1), a Hermitian 2n vector built from its first
        # half, and a complex forward FFT.
        n, m = spec.n, 2 * spec.n
        r = fgn_autocovariance(np.arange(n + 1), spec.hurst)
        eig = np.clip(np.fft.fft(np.concatenate([r, r[-2:0:-1]])).real, 0.0, None)
        rng = philox_generator(seed)
        head, u, v = rng.standard_normal(2), rng.standard_normal(n - 1), rng.standard_normal(n - 1)
        w = np.zeros(m, dtype=complex)
        w[0] = np.sqrt(eig[0]) * head[0]
        w[n] = np.sqrt(eig[n]) * head[1]
        w[1:n] = np.sqrt(0.5 * eig[1:n]) * (u + 1j * v)
        w[n + 1 :] = np.conj(w[1:n][::-1])
        return np.fft.fft(w).real[:n] / np.sqrt(m)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 4097])
    @pytest.mark.parametrize("seed", [0, 2024])
    def test_matches_full_spectrum_reference(self, n, seed):
        spec = FgnSpec(hurst=0.75, n=n)
        ref = self.full_spectrum_reference(spec, seed)
        # The two FFTs round differently, so the difference is a few ulps of
        # the path's scale; entries near zero carry it too, hence the atol.
        np.testing.assert_allclose(sample_fgn(spec, seed), ref, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 4097])
    def test_one_draw_equals_three_call_layout(self, n):
        one = philox_generator(11).standard_normal(2 * n)
        rng = philox_generator(11)
        three = np.concatenate([rng.standard_normal(2), rng.standard_normal(n - 1),
                                rng.standard_normal(n - 1)])
        assert np.array_equal(one, three)

    @staticmethod
    def direct_amplitudes(n, hurst, transform):
        r = fgn_autocovariance(np.arange(n + 1), hurst)
        eig = np.clip(transform(np.concatenate([r, r[-2:0:-1]])).real[: n + 1], 0.0, None)
        return np.concatenate([np.sqrt(eig[:1]), np.sqrt(0.5 * eig[1:n]), np.sqrt(eig[n:])])

    @pytest.mark.parametrize("n, hurst", [(1, 0.75), (64, 0.75), (4097, 0.85), (2**16 - 1, 0.85),
                                          (65537, 0.85), (2**16, 0.7), (3 * 2**15, 0.85),
                                          (131072, 0.85)])
    def test_amplitudes_equal_those_of_the_direct_covariance(self, n, hurst):
        # The cached covariance array has the bits fgn_autocovariance gives directly, and
        # the eigenvalues come from rfft at every n.
        direct = self.direct_amplitudes(n, hurst, np.fft.rfft)
        assert np.array_equal(gaussian_mod._half_spectrum_amplitudes(n, hurst), direct)

    @pytest.mark.parametrize("n", [1, 64, 4097, 2**16 - 1, 2**16, 65537, 3 * 2**15, 2**17])
    @pytest.mark.parametrize("hurst", [0.7, 0.85])
    def test_blocked_route_amplitudes_are_within_ulps_of_the_complex_fft(self, n, hurst):
        # a few ulps of the largest amplitude for each of the log2(2n) radix passes; the
        # largest deviation over these cases was 0.1 of it.  Near h = 1 the smallest
        # eigenvalues approach 0, where the square root magnifies their rounding.
        amp = gaussian_mod._half_spectrum_amplitudes(n, hurst)
        ref = self.direct_amplitudes(n, hurst, np.fft.fft)
        assert np.max(np.abs(amp - ref)) <= 4 * np.finfo(float).eps * np.log2(2 * n) * ref.max()

    def test_cached_arrays_are_read_only(self):
        cached = [(gaussian_mod._autocovariances(64, 0.75), (65,)),
                  (gaussian_mod._half_spectrum_amplitudes(64, 0.75), (65,)),
                  (gaussian_mod._twiddles(8, 16), (8, 9))]
        for arr, shape in cached:
            assert arr.shape == shape
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestFold:
    """``_fgn_fold``: the (rows, 2n) matrix B with B . z = s a . fgn(z)."""

    @pytest.mark.parametrize("n, k", [(1, 0), (2, 1), (17, 9), (64, 1), (64, 37), (100, 100)])
    def test_zero_trailing_columns_change_no_bit(self, n, k):
        weights = np.random.default_rng(n).standard_normal((3, n))
        weights[:, k:] = 0.0
        spec = FgnSpec(hurst=0.7, n=n)
        assert np.array_equal(_fgn_fold(spec, weights[:, :k], 0.3), _fgn_fold(spec, weights, 0.3))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 100])
    @pytest.mark.parametrize("hurst", [0.55, 0.7, 0.95])
    def test_row_norms_are_the_fgn_variances(self, n, hurst):
        # For standard normals z, |b|^2 = Var(b . z) = s^2 a R a^T with R the Toeplitz fGn
        # covariance and s = (T/n)^H.  The largest relative gap seen was 4.2e-15.
        weights = np.random.default_rng(n).standard_normal((4, n))
        weights[3, n // 2:] = 0.0
        lags = np.arange(n)
        cov = fgn_autocovariance(lags, hurst)[np.abs(np.subtract.outer(lags, lags))]
        scale = (2.0 / n) ** hurst
        fold = _fgn_fold(FgnSpec(hurst=hurst, n=n), weights, scale)
        quadratic = np.einsum("ij,jk,ik->i", weights, cov, weights)
        np.testing.assert_allclose(np.sum(fold**2, axis=1), scale**2 * quadratic,
                                   rtol=1e-13, atol=0)


def blocked_shapes(n):
    """(n, n1) for n1 = 2 and for the split ``_blocked_rows`` picks."""
    return [(n, n1) for n1 in sorted({2, gaussian_mod._blocked_rows(n)})]


class TestBlockedRoute:
    """Bailey's four-step inverse transform against one irfft of the same half spectrum.

    The builder is called directly, so splits other than the one ``_blocked_rows`` picks
    are covered too: n1 = 2, odd n2 (n = 3, 7, 4097 and the prime 1009) and n2 = 2.
    """

    @staticmethod
    def irfft_reference(amp, seed):
        # The half spectrum irfft reads, built from the draw layout: z[0] and z[1]
        # scale frequencies 0 and n, then the real and the negated imaginary parts.
        n = len(amp) - 1
        z = philox_generator(seed).standard_normal(2 * n)
        half = np.zeros(n + 1, dtype=complex)
        half[0], half[n] = amp[0] * z[0], amp[n] * z[1]
        half[1:n] = amp[1:n] * (z[2 : n + 1] - 1j * z[n + 1 :])
        return np.fft.irfft(half, 2 * n)[:n] * np.sqrt(2 * n)

    @staticmethod
    def bound(n, ref):
        # a few ulps of the path's scale for each of the log2(2n) radix passes
        return 4 * np.finfo(float).eps * np.log2(2 * n) * np.max(np.abs(ref))

    # 4099, 3 * 4099, 4 * 16411 and 65537 have a large prime factor in 2n: one irfft of
    # length 2n runs a Bluestein-sized transform there
    @pytest.mark.parametrize("n, n1", [shape for n in (2, 3, 7, 64, 300, 1009, 4097, 4099, 3 * 4099,
                                                       3 * 2**13, 4 * 16411, 65537, 2**17)
                                       for shape in blocked_shapes(n)])
    def test_matches_one_irfft(self, n, n1):
        amp = gaussian_mod._half_spectrum_amplitudes(n, 0.8)
        ref = self.irfft_reference(amp, 31)
        got = gaussian_mod._blocked_drawer(amp, n1, n)(philox_generator(31))
        assert np.max(np.abs(got - ref)) <= self.bound(n, ref)

    @pytest.mark.parametrize("n, n1, points", [(7, 2, 1), (300, 12, 149), (300, 12, 0),
                                               (3 * 2**13, 128, 12289)])
    def test_points_prefix_is_a_full_draw_bit_for_bit(self, n, n1, points):
        amp = gaussian_mod._half_spectrum_amplitudes(n, 0.8)
        full = gaussian_mod._blocked_drawer(amp, n1, n)(philox_generator(5))
        prefix = gaussian_mod._blocked_drawer(amp, n1, points)(philox_generator(5))
        assert prefix.shape == (points,)
        assert np.array_equal(prefix, full[:points])

    @pytest.mark.parametrize("n", [1, 2**16 - 1, 2**16, 65537])
    def test_fgn_drawer_is_the_blocked_drawer_at_its_split(self, n):
        amp = gaussian_mod._half_spectrum_amplitudes(n, 0.8)
        ref = gaussian_mod._blocked_drawer(amp, gaussian_mod._blocked_rows(n), n)
        got = gaussian_mod._fgn_drawer(FgnSpec(hurst=0.8, n=n))(philox_generator(8))
        assert np.array_equal(got, ref(philox_generator(8)))

    def test_increment_drawer_matches_the_irfft_reference(self):
        # q = 2 at AC08's shape (m = 32768): b times the block sums of H_2 over the fine
        # points of the first steps, from one irfft of the same normals
        spec = HermiteSpec(order=2, hurst=0.7, horizon=2.0, n=4096)
        steps, block = 1000, spec.m // spec.n
        got = hermite_mod._increment_drawer(spec, steps)(philox_generator(12))
        h0 = hermite_mod.h_zero(spec.order, spec.hurst)
        xi = self.irfft_reference(gaussian_mod._half_spectrum_amplitudes(spec.m, h0), 12)
        b = hermite_mod.discrete_normalizer(spec.order, spec.hurst, spec.m, spec.horizon)
        fine = xi[: steps * block]
        ref = np.add.reduceat(fine * fine - 1.0, np.arange(0, steps * block, block)) * b
        # H_2(x) = x^2 - 1 moves by at most (2|x| + d) d when x moves by d
        d = self.bound(spec.m, xi)
        assert np.max(np.abs(got - ref)) <= b * block * (2 * np.max(np.abs(xi)) + d) * d

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 2**22))
    def test_split_is_the_largest_even_divisor_up_to_the_root(self, n):
        n1 = gaussian_mod._blocked_rows(n)
        cap = max(2, math.isqrt(n))
        assert n1 % 2 == 0 and 2 * n % n1 == 0 and n1 <= cap
        assert not any(2 * n % d == 0 for d in range(n1 + 2, cap + 1, 2))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_any_spectrum_and_split_matches_one_irfft(self, n, seed, data):
        n1 = data.draw(st.sampled_from([d for d in range(2, 2 * n + 1, 2) if 2 * n % d == 0]))
        points = data.draw(st.integers(0, n))
        amp = np.random.default_rng(seed).uniform(0.0, 2.0, n + 1)
        ref = self.irfft_reference(amp, seed)
        got = gaussian_mod._blocked_drawer(amp, n1, points)(philox_generator(seed))
        assert got.shape == (points,)
        assert np.max(np.abs(got - ref[:points]), initial=0.0) <= self.bound(n, ref)


def traced(build):
    """(result, bytes still traced, peak bytes traced) of build(), under tracemalloc."""
    tracemalloc.start()
    try:
        result = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


class TestBufferOwnership:
    """What a drawer holds and what a draw allocates, traced by tracemalloc.

    The cached arrays (covariances, amplitudes, twiddles) are built before tracing, so
    only the drawer's own buffers are counted.  A 2n buffer of doubles (16 n bytes) is
    the unit; the slack allowed for small objects is 1/16 of it.
    """

    @pytest.mark.parametrize("points", [2**17, 8232 * 8])
    def test_blocked_drawer_holds_normals_spectrum_and_points(self, points):
        n = 2**17
        amp = gaussian_mod._half_spectrum_amplitudes(n, 0.85)
        n1 = gaussian_mod._blocked_rows(n)
        n2, top, cols = 2 * n // n1, n1 // 2, n // n1 + 1
        gaussian_mod._twiddles(n1, n2)
        draw, _, peak = traced(lambda: gaussian_mod._blocked_drawer(amp, n1, points))
        used = -(-points // n1)
        # the 2n+1 normals, the complex spectrum, the points out and the negated
        # amplitudes of the spectrum's top rows; the (n1, n2) rows are the normals
        owned = 8 * (2 * n + 1) + 16 * n1 * cols + 8 * used * n1 + 8 * top * cols
        assert peak <= owned + n
        # a warm draw allocates nothing of the path's size: 1/8 of a 2n buffer at most
        rng = philox_generator(3)
        draw(rng)
        _, _, peak = traced(lambda: draw(rng))
        assert peak <= 2 * n

    def test_short_blocked_drawer_holds_normals_spectrum_and_points(self):
        # At n = 2^14 numpy's fixed ufunc buffer (np.getbufsize() values, 64 KiB) is no
        # longer small against a 2n buffer: the strided negation of the top-row amplitudes
        # passes through one while the drawer is built, and the transposing copy out of
        # the rows through two on every draw.
        n = 2**14
        amp = gaussian_mod._half_spectrum_amplitudes(n, 0.85)
        n1 = gaussian_mod._blocked_rows(n)
        n2, top, cols = 2 * n // n1, n1 // 2, n // n1 + 1
        gaussian_mod._twiddles(n1, n2)
        draw, held, peak = traced(lambda: gaussian_mod._blocked_drawer(amp, n1, n))
        # the 2n+1 normals, the complex spectrum, the n points out and the negated
        # amplitudes of the spectrum's top rows
        owned = 8 * (2 * n + 1) + 16 * n1 * cols + 8 * n + 8 * top * cols
        ufunc_buffer = 8 * np.getbufsize()
        assert held <= owned + n
        assert peak <= owned + n + ufunc_buffer
        rng = philox_generator(3)
        draw(rng)
        _, _, peak = traced(lambda: draw(rng))
        assert peak <= 2 * ufunc_buffer + n

    def test_amplitudes_at_a_blocked_length_peak_near_three_2n_buffers(self):
        # rfft's input row, its n+1 complex eigenvalues and the clipped copy; a complex
        # 2n fft peaked at 5 such buffers here
        n = 2**17
        gaussian_mod._autocovariances(n, 0.85)
        _, _, peak = traced(lambda: gaussian_mod._half_spectrum_amplitudes.__wrapped__(n, 0.85))
        assert peak <= 3.25 * 16 * n


FRESH_PROCESS_SCRIPT = r'''
import re, resource
from hermite_trend.hermite import HermiteSpec, _increment_drawer
from hermite_trend.rng import philox_generator

def high_water_mark():
    return int(re.search(r"VmHWM:\s+(\d+) kB", open("/proc/self/status").read()).group(1)) * 1024

def faults_per_path(draw, paths):
    rng = philox_generator(1)
    draw(rng)
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(paths):
        draw(rng)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / paths

# AC08's q = 2 shape first, so that nothing else has raised glibc's mmap threshold yet
spec = HermiteSpec(order=2, hurst=0.7, horizon=2.0, n=4096)
ac08 = faults_per_path(_increment_drawer(spec, 4096), 20)
before = high_water_mark()
spec = HermiteSpec(order=2, hurst=0.7, horizon=1.0, n=16384)
faults_per_path(_increment_drawer(spec, 8232), 3)
print(ac08, high_water_mark() - before)
'''


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from procfs")
def test_fresh_process_memory_and_faults_of_q2_drawers():
    """A fresh interpreter, since this process's own peak and heap hide both effects.

    AC08's q = 2 drawer (2m = 2^16) allocates nothing of the path's size per draw, so it
    takes no fresh pages a path; one irfft of length 2m, with rfft eigenvalues, took 224
    minor faults a path here.  clt-q2's (2m = 2^18): the rise of VmHWM over building it
    and drawing 3 paths was 17.3 MiB with complex fft eigenvalues and a rows buffer of its
    own, and 10.3 MiB with rfft and the rows written over the normals.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(gaussian_mod.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", FRESH_PROCESS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    ac08_faults, clt_rise = map(float, done.stdout.split())
    assert ac08_faults < 20
    assert clt_rise < 14 * 2**20


class TestEmbeddingFailure:
    """A non-PSD embedding raises while the drawer is built, before any draw."""

    @staticmethod
    def lag_one_only(lag, hurst):
        # r = 1, 0.9, 0, 0, ...: circulant eigenvalues 1 + 1.8 cos(pi j / n) reach -0.8
        k = np.abs(np.asarray(lag))
        return np.where(k == 0, 1.0, np.where(k == 1, 0.9, 0.0))

    @pytest.fixture
    def non_psd(self, monkeypatch):
        """Fake the covariance and record every use of a one-path generator and the
        streams of every replication route; the covariance and amplitude caches are
        cleared on both sides of the patch, so no value crosses it.  A one-path
        sampler makes its generator before its drawer (so a bad seed fails first);
        making one draws nothing, using it does."""
        draws = []

        class Undrawable:
            def __getattr__(self, name):
                draws.append(name)
                raise AssertionError(f"the generator was used ({name}) before the check")

        caches = (gaussian_mod._autocovariances, gaussian_mod._half_spectrum_amplitudes)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(gaussian_mod, "fgn_autocovariance", self.lag_one_only)
        for module in (gaussian_mod, hermite_mod):
            monkeypatch.setattr(module, "philox_generator", lambda seed: Undrawable())
        monkeypatch.setattr(hermite_mod, "philox_streams",
                            lambda *args: draws.append(args) or iter(()))
        yield draws
        for cache in caches:
            cache.cache_clear()

    def test_sample_fgn_raises_before_any_draw(self, non_psd):
        with pytest.raises(EmbeddingFailure, match=r"n=32, hurst=0\.7\b.*min/max eigenvalue -"):
            sample_fgn(FgnSpec(hurst=0.7, n=32), 0)
        assert non_psd == []

    @pytest.mark.parametrize("order", [1, 2])
    def test_sample_hermite_and_replicate_raise_before_any_draw(self, non_psd, order):
        spec = HermiteSpec(order=order, hurst=0.7, horizon=1.0, n=32)
        with pytest.raises(EmbeddingFailure):
            sample_hermite(spec, 0)
        with pytest.raises(EmbeddingFailure):
            replicate(spec, 0, (), range(5), lambda z: z)
        with pytest.raises(EmbeddingFailure):
            increment_sums(spec, np.ones((2, 32)))(0, (), range(5))
        assert non_psd == []

    def test_blocked_route_raises_before_any_draw(self, non_psd):
        # the check reads the rfft eigenvalues at an embedding of 2n = 2^17
        n = 2**16
        with pytest.raises(EmbeddingFailure, match=rf"n={n}, hurst=0\.7\b.*min/max eigenvalue -"):
            sample_fgn(FgnSpec(hurst=0.7, n=n), 0)
        spec = HermiteSpec(order=2, hurst=0.7, horizon=1.0, n=n // 8)
        assert spec.m == n
        with pytest.raises(EmbeddingFailure):
            replicate(spec, 0, (), range(5), lambda z: z)
        assert non_psd == []

    def test_fgn_fold_raises(self, non_psd):
        with pytest.raises(EmbeddingFailure, match=r"n=32, hurst=0\.7\b"):
            _fgn_fold(FgnSpec(hurst=0.7, n=32), np.ones((2, 32)))
        assert non_psd == []

    def test_cli_simulate_exits_3_naming_the_error(self, non_psd, tmp_path, capsys):
        out = tmp_path / "path.csv"
        code = cli.main(["simulate", "--trend", "const:0.5", "--n", "64", "--out", str(out)])
        assert code == 3
        assert "EmbeddingFailure" in capsys.readouterr().err
        assert non_psd == [] and not out.exists()

    def test_near_unit_hurst_never_builds_a_dense_matrix(self):
        # fGn h0 = 0.999999 at m = 16384: a dense m x m covariance alone is 2.1 GB.
        # Either outcome is allowed; what is pinned is that neither costs O(m^2) memory.
        spec = HermiteSpec(order=2, hurst=0.999998, horizon=1.0, n=2048)
        tracemalloc.start()
        try:
            with contextlib.suppress(EmbeddingFailure):
                sample_hermite(spec, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.m == 16384
        assert peak < 64e6


class TestFbm:
    """Order-1 Hermite paths are fBm on the grid j*horizon/n."""

    @staticmethod
    def fbm(hurst, horizon, n, seed):
        return sample_hermite(HermiteSpec(order=1, hurst=hurst, horizon=horizon, n=n), seed).values

    def test_starts_at_zero_with_full_grid(self):
        path = self.fbm(0.7, horizon=2.0, n=100, seed=11)
        assert path[0] == 0.0
        assert path.shape == (101,)

    def test_deterministic_in_seed(self):
        a = self.fbm(0.8, 1.0, 64, seed=3)
        b = self.fbm(0.8, 1.0, 64, seed=3)
        assert np.array_equal(a, b)

    def test_terminal_variance_self_similarity(self):
        hurst, horizon, reps = 0.75, 1.5, 8000
        finals = np.array(
            [self.fbm(hurst, horizon, 32, seed=20_000 + r)[-1] for r in range(reps)]
        )
        sq = finals**2
        est, se = sq.mean(), sq.std(ddof=1) / np.sqrt(reps)
        target = horizon ** (2 * hurst)
        print(f"Var(B_T): est={est:.4f} target={target:.4f} se={se:.4f}")
        assert abs(est - target) < 4 * se

    def test_covariance_matches_oracle(self):
        hurst, reps = 0.7, 8000
        paths = np.stack(
            [self.fbm(hurst, 2.0, 32, seed=50_000 + r) for r in range(reps)]
        )
        # grid index 16 -> t=1.0, index 32 -> t=2.0
        prods = paths[:, 16] * paths[:, 32]
        est, se = prods.mean(), prods.std(ddof=1) / np.sqrt(reps)
        print(f"Cov(B_1,B_2): est={est:.4f} target={FBM_COV_1_2_H07:.4f} se={se:.4f}")
        assert abs(est - FBM_COV_1_2_H07) < 4 * se

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            HermiteSpec(order=1, hurst=0.7, horizon=0.0, n=8)
