"""fGn autocovariance oracles and exactness checks for the circulant sampler."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from hermite_trend import cli
from hermite_trend.gaussian import (
    EmbeddingFailure,
    FgnSpec,
    fgn_autocovariance,
    sample_fgn,
)
import hermite_trend.gaussian as gaussian_mod
from hermite_trend.hermite import HermiteSpec, replicate, sample_hermite
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

    def test_cached_arrays_are_read_only(self):
        amp = gaussian_mod._half_spectrum_amplitudes(64, 0.75)
        assert amp.shape == (65,)
        assert not amp.flags.writeable
        with pytest.raises(ValueError):
            amp[0] = 0.0


class TestEmbeddingFailure:
    """A non-PSD embedding raises while the drawer is built, before any draw."""

    @staticmethod
    def lag_one_only(lag, hurst):
        # r = 1, 0.9, 0, 0, ...: circulant eigenvalues 1 + 1.8 cos(pi j / n) reach -0.8
        k = np.abs(np.asarray(lag))
        return np.where(k == 0, 1.0, np.where(k == 1, 0.9, 0.0))

    @pytest.fixture
    def non_psd(self, monkeypatch):
        """Fake the covariance and forbid Philox draws; the amplitude cache is
        cleared on both sides of the patch, so no decision crosses it."""
        draws = []
        gaussian_mod._half_spectrum_amplitudes.cache_clear()
        monkeypatch.setattr(gaussian_mod, "fgn_autocovariance", self.lag_one_only)
        monkeypatch.setattr(gaussian_mod, "philox_generator", lambda seed: draws.append(seed))
        yield draws
        gaussian_mod._half_spectrum_amplitudes.cache_clear()

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
