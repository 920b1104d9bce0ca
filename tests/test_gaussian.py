"""fGn autocovariance oracles and exactness checks for the circulant sampler."""

import numpy as np
import pytest

from hermite_trend.gaussian import (
    EmbeddingFailure,
    FgnSpec,
    fgn_autocovariance,
    sample_fbm,
    sample_fgn,
)
import hermite_trend.gaussian as gaussian_mod
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
        # Full-spectrum Davies-Harte: three draws (2, n-1, n-1), a Hermitian
        # 2n vector built from its first half, and a complex forward FFT.
        n, m = spec.n, 2 * spec.n
        eig = np.clip(gaussian_mod._circulant_eigenvalues(n, spec.hurst), 0.0, None)
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

    def test_cached_arrays_are_read_only(self):
        eig = gaussian_mod._circulant_eigenvalues(64, 0.75)
        amp = gaussian_mod._half_spectrum_amplitudes(64, 0.75)
        assert amp.shape == (65,)
        for cached in (eig, amp):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0


class TestDenseFallback:
    # The route decision is cached per (n, hurst), so a decision taken before
    # the eigenvalues are patched would bypass the fallback; clear it on both
    # sides, and count the dense draws to prove the fallback ran.
    @pytest.fixture(autouse=True)
    def fresh_route_cache(self):
        gaussian_mod._half_spectrum_amplitudes.cache_clear()
        yield
        gaussian_mod._half_spectrum_amplitudes.cache_clear()

    def test_fallback_used_when_eigenvalues_negative(self, monkeypatch):
        spec = FgnSpec(hurst=0.7, n=32)
        bad = np.full(2 * spec.n, -1.0)
        monkeypatch.setattr(gaussian_mod, "_circulant_eigenvalues", lambda n, h: bad)
        dense = gaussian_mod._sample_dense
        dense_calls = []

        def spy(spec, rng):
            dense_calls.append(spec)
            return dense(spec, rng)

        monkeypatch.setattr(gaussian_mod, "_sample_dense", spy)
        a = sample_fgn(spec, 5)
        b = sample_fgn(spec, 5)
        assert np.array_equal(a, b)
        reps = 3000
        paths = np.stack([sample_fgn(spec, r) for r in range(reps)])
        assert len(dense_calls) == reps + 2
        prods = paths[:, 3] * paths[:, 4]
        se = prods.std(ddof=1) / np.sqrt(reps)
        assert abs(prods.mean() - fgn_autocovariance(1, 0.7)) < 4 * se

    def test_embedding_failure_when_both_routes_fail(self, monkeypatch):
        spec = FgnSpec(hurst=0.7, n=16)
        monkeypatch.setattr(
            gaussian_mod, "_circulant_eigenvalues", lambda n, h: np.full(2 * n, -1.0)
        )

        def broken_cholesky(_):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gaussian_mod.np.linalg, "cholesky", broken_cholesky)
        with pytest.raises(EmbeddingFailure):
            sample_fgn(spec, 0)


class TestFbm:
    def test_starts_at_zero_with_full_grid(self):
        path = sample_fbm(0.7, horizon=2.0, n=100, seed=11)
        assert path[0] == 0.0
        assert path.shape == (101,)

    def test_deterministic_in_seed(self):
        a = sample_fbm(0.8, 1.0, 64, seed=3)
        b = sample_fbm(0.8, 1.0, 64, seed=3)
        assert np.array_equal(a, b)

    def test_terminal_variance_self_similarity(self):
        hurst, horizon, reps = 0.75, 1.5, 8000
        finals = np.array(
            [sample_fbm(hurst, horizon, 32, seed=20_000 + r)[-1] for r in range(reps)]
        )
        sq = finals**2
        est, se = sq.mean(), sq.std(ddof=1) / np.sqrt(reps)
        target = horizon ** (2 * hurst)
        print(f"Var(B_T): est={est:.4f} target={target:.4f} se={se:.4f}")
        assert abs(est - target) < 4 * se

    def test_covariance_matches_oracle(self):
        hurst, reps = 0.7, 8000
        paths = np.stack(
            [sample_fbm(hurst, 2.0, 32, seed=50_000 + r) for r in range(reps)]
        )
        # grid index 16 -> t=1.0, index 32 -> t=2.0
        prods = paths[:, 16] * paths[:, 32]
        est, se = prods.mean(), prods.std(ddof=1) / np.sqrt(reps)
        print(f"Cov(B_1,B_2): est={est:.4f} target={FBM_COV_1_2_H07:.4f} se={se:.4f}")
        assert abs(est - FBM_COV_1_2_H07) < 4 * se

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            sample_fbm(0.7, horizon=0.0, n=8, seed=0)
