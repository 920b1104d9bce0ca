"""Hermite-process constants, normalizer identities, and path-law checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e, polynomial

from hermite_trend.gaussian import (
    FgnSpec,
    _half_spectrum_amplitudes,
    fgn_autocovariance,
    sample_fgn,
)
from hermite_trend.hermite import (
    _BLOCK,
    _DOT_PIECE,
    MAX_HERMITE_ORDER,
    HermiteSpec,
    MomentScalingReport,
    _increment_drawer,
    _row_dots,
    discrete_normalizer,
    h_zero,
    hermite_polynomial,
    increment_sums,
    max_moment_scaling_check,
    replicate,
    sample_hermite,
)
from hermite_trend.rng import derive_seed, philox_generator, philox_streams
from hermite_trend.sde import (
    PathConfig,
    _growth_factors,
    _variation_of_constants,
    mean_square_bound_check,
)
from hermite_trend.trends import parse_trend

# Every order the parser accepts.
ORDERS = range(1, MAX_HERMITE_ORDER + 1)

# Exact interior gap 100 (Var(Z_{T/4}) / (T/4)^{2H} - 1) at the default m = 8n, by (H, n),
# for q = 1..8.
INTERIOR_GAP_PCT = {
    (0.7, 64): [0.0, -1.455, -1.760, -1.893, -1.968, -2.017, -2.050, -2.075],
    (0.7, 1024): [0.0, -0.4747, -0.5726, -0.6154, -0.6395, -0.6549, -0.6656, -0.6735],
    (0.55, 64): [0.0, -9.151, -10.12, -10.51, -10.72, -10.85, -10.94, -11.01],
    (0.55, 1024): [0.0, -6.041, -6.594, -6.810, -6.925, -6.997, -7.046, -7.081],
}

# Frozen closed-form value.
COV_1_2_H07 = 1.3195079107728942
# Frozen brute-force double sum sum_{i,j<4} r(i-j)^2 at h0=0.85 and the b it implies.
BRUTE_D_M4 = 7.6596299509053125
B_M4_Q2_H07 = 0.25549423659980547


def covariance_oracle(s: float, t: float, hurst: float) -> float:
    """Target covariance (s^(2h) + t^(2h) - |t-s|^(2h)) / 2 of any Hermite process."""
    two_h = 2.0 * hurst
    return 0.5 * (s**two_h + t**two_h - abs(t - s) ** two_h)


class TestHZero:
    def test_frozen_value(self):
        assert h_zero(3, 0.9) == pytest.approx(0.9666666666666667, abs=1e-15)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("hurst", [0.51, 0.7, 0.99])
    def test_lands_in_admissible_band(self, order, hurst):
        h0 = h_zero(order, hurst)
        assert 1.0 - 1.0 / (2 * order) < h0 < 1.0

    def test_order_one_is_identity(self):
        assert h_zero(1, 0.77) == pytest.approx(0.77, abs=1e-15)


class TestHermitePolynomial:
    @pytest.mark.parametrize(
        "order,x,expected",
        [(1, 2.5, 2.5), (2, 2.0, 3.0), (3, 1.0, -2.0), (4, 1.5, -5.4375)],
    )
    def test_frozen_values(self, order, x, expected):
        assert hermite_polynomial(order, x) == pytest.approx(expected, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-3, 3, 11)
        vec = hermite_polynomial(3, xs)
        assert vec == pytest.approx([hermite_polynomial(3, float(x)) for x in xs])

    def test_order_two_is_one_product_and_one_subtraction(self):
        x = philox_generator(5).standard_normal(1000)
        assert np.array_equal(hermite_polynomial(2, x), x * x - 1.0)

    def test_order_three_bits(self):
        x = philox_generator(6).standard_normal(1000)
        assert np.array_equal(hermite_polynomial(3, x), x * (x * x - 1.0) - 2.0 * x)

    @pytest.mark.parametrize("order", ORDERS)
    def test_equals_hermeval(self, order):
        # numpy's Clenshaw sum is another code path; both are within a few roundings of
        # sum_k |c_k| |x|^k, the size of the terms, which near a root far exceeds |H_q|
        x = np.linspace(-6.0, 6.0, 2001)
        coef = [0] * order + [1]
        terms = polynomial.polyval(np.abs(x), np.abs(hermite_e.herme2poly(coef)))
        err = np.abs(hermite_polynomial(order, x) - hermite_e.hermeval(x, coef))
        assert np.all(err <= 2 * order * 2.0**-53 * np.maximum(1.0, terms))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_input_neither_returned_nor_mutated(self, order):
        x = philox_generator(7).standard_normal(64)
        before = x.copy()
        h = hermite_polynomial(order, x)
        assert h is not x and not np.shares_memory(h, x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("order", [2, 3])
    def test_mehler_moment_identity(self, order):
        # E[H_q(X) H_q(Y)] = q! rho^q for jointly standard normal (X, Y).
        rho, reps = 0.6, 200_000
        rng = philox_generator(99)
        x = rng.standard_normal(reps)
        y = rho * x + math.sqrt(1 - rho**2) * rng.standard_normal(reps)
        prods = hermite_polynomial(order, x) * hermite_polynomial(order, y)
        est, se = prods.mean(), prods.std(ddof=1) / math.sqrt(reps)
        target = math.factorial(order) * rho**order
        print(f"q={order}: est={est:.4f} target={target:.4f} se={se:.4f}")
        assert abs(est - target) < 4 * se


class TestCovarianceOracle:
    def test_frozen_value(self):
        assert covariance_oracle(1.0, 2.0, 0.7) == pytest.approx(COV_1_2_H07, abs=1e-14)

    def test_symmetry_and_diagonal(self):
        assert covariance_oracle(0.3, 1.1, 0.8) == covariance_oracle(1.1, 0.3, 0.8)
        assert covariance_oracle(1.3, 1.3, 0.8) == pytest.approx(1.3**1.6, abs=1e-13)


class TestDiscreteNormalizer:
    def test_matches_brute_force_double_sum_m4(self):
        # O(m) collapse vs the literal double sum at m=4, order 2, h0=0.85.
        h0 = h_zero(2, 0.7)
        brute = sum(
            fgn_autocovariance(i - j, h0) ** 2 for i in range(4) for j in range(4)
        )
        assert brute == pytest.approx(BRUTE_D_M4, abs=1e-12)
        expected_b = 1.0 / math.sqrt(math.factorial(2) * brute)
        got = discrete_normalizer(2, 0.7, m=4, horizon=1.0)
        assert got == pytest.approx(expected_b, abs=1e-12)
        assert got == pytest.approx(B_M4_Q2_H07, abs=1e-12)

    @pytest.mark.parametrize("order,hurst,m", [(2, 0.7, 7), (3, 0.9, 9)] + [
        (order, hurst, 200) for order in ORDERS for hurst in (0.55, 0.7)])
    def test_collapse_equals_double_sum(self, order, hurst, m):
        # b^2 q! sum_{i,j<m} r(i-j)^q = horizon^{2H} = 1, the double sum taken literally
        lags = np.subtract.outer(np.arange(m), np.arange(m))
        brute = np.sum(fgn_autocovariance(lags, h_zero(order, hurst)) ** order)
        got = discrete_normalizer(order, hurst, m=m, horizon=1.0)
        assert got == pytest.approx(1.0 / math.sqrt(math.factorial(order) * brute), rel=1e-14)

    @pytest.mark.parametrize("order,hurst,m", [(1, 0.7, 1), (2, 0.7, 300), (3, 0.9, 4097),
                                               (2, 0.7, 131072)])
    def test_equals_sum_of_the_direct_covariance(self, order, hurst, m):
        # the cached covariance array has the bits fgn_autocovariance gives directly
        lags = np.arange(1, m)
        r_pow = fgn_autocovariance(lags, h_zero(order, hurst)) ** order
        total = float(m) + 2.0 * float(np.sum((m - lags) * r_pow))
        direct = 2.0**hurst / math.sqrt(math.factorial(order) * total)
        assert discrete_normalizer(order, hurst, m=m, horizon=2.0) == direct

    def test_horizon_scaling(self):
        b1 = discrete_normalizer(2, 0.7, m=64, horizon=1.0)
        b4 = discrete_normalizer(2, 0.7, m=64, horizon=4.0)
        assert b4 / b1 == pytest.approx(4.0**0.7, rel=1e-13)


class TestInteriorGap:
    """The exact Var(Z_{T/4}) of the rank-q construction at the default m = 8n.

    Z_t = b sum_{i<F} H_q(xi_i) over the F = m/4 fine points before T/4, so
    Var(Z_{T/4}) = b^2 q! sum_{|l|<F} (F - |l|) r(l)^q.  At q >= 2 it reaches fBm's
    (T/4)^{2H} only as m grows, and falls further short as H nears 1/2 (README, ``--m``).
    Pinned to 3 significant digits, so that a change which moves the gap shows.
    """

    @staticmethod
    def gap(order, hurst, n, horizon=2.0):
        m = HermiteSpec(order=order, hurst=hurst, horizon=horizon, n=n).m  # 8n
        fine, lags = m // 4, np.arange(1, m // 4)
        r_pow = fgn_autocovariance(lags, h_zero(order, hurst)) ** order
        b = discrete_normalizer(order, hurst, m=m, horizon=horizon)
        variance = b * b * math.factorial(order) * (fine + 2.0 * np.sum((fine - lags) * r_pow))
        return variance / (horizon / 4) ** (2 * hurst) - 1.0

    @pytest.mark.parametrize("hurst,n", sorted(INTERIOR_GAP_PCT))
    @pytest.mark.parametrize("order", ORDERS)
    def test_gap_at_the_quarter_horizon(self, order, hurst, n):
        want = INTERIOR_GAP_PCT[hurst, n][order - 1]
        assert 100 * self.gap(order, hurst, n) == pytest.approx(want, rel=1e-3, abs=1e-11)


class TestSpec:
    def test_default_internal_resolution(self):
        spec = HermiteSpec(order=2, hurst=0.7, horizon=1.0, n=100)
        assert spec.m == 800

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            HermiteSpec(order=0, hurst=0.7, horizon=1.0, n=10)
        with pytest.raises(ValueError):
            HermiteSpec(order=2, hurst=0.7, horizon=1.0, n=10, m=5)
        with pytest.raises(ValueError):
            HermiteSpec(order=2, hurst=0.45, horizon=1.0, n=10)
        for horizon in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                HermiteSpec(order=2, hurst=0.7, horizon=horizon, n=10)


class TestSamplePaths:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_starts_at_zero_and_deterministic(self, order):
        spec = HermiteSpec(order=order, hurst=0.7, horizon=1.0, n=64)
        a = sample_hermite(spec, 123)
        b = sample_hermite(spec, 123)
        assert a.values[0] == 0.0
        assert a.values.shape == (65,)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize(
        "hurst,horizon,n", [(0.8, 2.0, 128), (0.55, 1.0, 1), (0.7, 3.5, 17), (0.95, 0.25, 4096)]
    )
    def test_order_one_is_scaled_cumsum_of_fgn(self, hurst, horizon, n):
        path = sample_hermite(HermiteSpec(order=1, hurst=hurst, horizon=horizon, n=n), 77)
        increments = sample_fgn(FgnSpec(hurst, n), 77) * (horizon / n) ** hurst
        assert np.array_equal(path.values, np.concatenate([[0.0], np.cumsum(increments)]))
        assert path.times[0] == 0.0 and path.times[-1] == pytest.approx(horizon)

    def test_terminal_variance_is_exact_by_normalizer(self):
        spec = HermiteSpec(order=2, hurst=0.7, horizon=1.0, n=128)
        reps = 4000
        finals = np.array(
            [sample_hermite(spec, 3_000 + r).values[-1] for r in range(reps)]
        )
        sq = finals**2
        est, se = sq.mean(), sq.std(ddof=1) / math.sqrt(reps)
        print(f"Var(Z_1): est={est:.4f} se={se:.4f}")
        assert abs(est - 1.0) < 4 * se

    def test_interior_covariance_approaches_oracle(self):
        spec = HermiteSpec(order=2, hurst=0.7, horizon=1.0, n=128)
        reps = 4000
        paths = np.stack(
            [sample_hermite(spec, 9_000 + r).values for r in range(reps)]
        )
        prods = paths[:, 64] * paths[:, 128]  # t=0.5 and t=1.0
        est, se = prods.mean(), prods.std(ddof=1) / math.sqrt(reps)
        target = covariance_oracle(0.5, 1.0, 0.7)
        print(f"Cov(Z_.5,Z_1): est={est:.4f} target={target:.4f} se={se:.4f}")
        assert abs(est - target) < 4 * se


class TestMomentScaling:
    def test_equal_horizons_share_streams(self):
        report = max_moment_scaling_check(2, 0.7, p=2.0, t1=1.0, t2=1.0, reps=50, seed=4, n=64)
        assert report.mc_ratio == 1.0
        assert report.theoretical == 1.0

    def test_fbm_doubling(self):
        report = max_moment_scaling_check(1, 0.7, p=2.0, t1=1.0, t2=2.0, reps=600, seed=8, n=128)
        print(
            f"ratio={report.mc_ratio:.3f} theo={report.theoretical:.3f} "
            f"ci=({report.ci_low:.3f},{report.ci_high:.3f})"
        )
        assert report.within_ci

    def test_bootstrap_below_one_names_bootstrap(self):
        with pytest.raises(ValueError, match="bootstrap"):
            max_moment_scaling_check(1, 0.7, p=2.0, t1=1.0, t2=2.0, reps=10, seed=1, n=16,
                                     bootstrap=0)


def old_mean_square_loop(trend, config, reps, seed):
    """(mean, second moment) of (X - x)^2 per grid time, the per-path loop the engine replaced."""
    spec = config.hermite_spec()
    growth, decay = _growth_factors(trend, np.linspace(0.0, config.horizon, config.n + 1))
    ode = config.x0 * growth
    sq = sq_sq = None
    for r in range(reps):
        z = sample_hermite(spec, derive_seed(seed, r)).values
        dev2 = (_variation_of_constants(growth, decay, config.x0, config.eps, z) - ode) ** 2
        sq = dev2 if sq is None else sq + dev2
        sq_sq = dev2**2 if sq_sq is None else sq_sq + dev2**2
    return sq / reps, sq_sq


def old_moment_scaling_loop(order, hurst, p, t1, t2, reps, seed, n, bootstrap):
    """max_moment_scaling_check as its per-path loop computed it."""
    horizons = [float(t1), float(t2)]
    unique = sorted(set(horizons))
    sups = []
    for horizon in horizons:
        spec = HermiteSpec(order=order, hurst=hurst, horizon=horizon, n=n)
        vals = np.empty(reps)
        for r in range(reps):
            path = sample_hermite(spec, derive_seed(seed, unique.index(horizon), r))
            vals[r] = np.max(np.abs(path.values)) ** p
        sups.append(vals)
    moment_t1, moment_t2 = float(sups[0].mean()), float(sups[1].mean())
    rng = philox_generator(derive_seed(seed, 0xB007))
    idx1 = rng.integers(0, reps, size=(bootstrap, reps))
    idx2 = rng.integers(0, reps, size=(bootstrap, reps))
    boot = sups[1][idx2].mean(axis=1) / sups[0][idx1].mean(axis=1)
    ci_low, ci_high = (float(x) for x in np.quantile(boot, [0.025, 0.975]))
    theoretical = (t2 / t1) ** (p * hurst)
    return MomentScalingReport(
        mc_ratio=moment_t2 / moment_t1, theoretical=theoretical, ci_low=ci_low, ci_high=ci_high,
        within_ci=ci_low <= theoretical <= ci_high, moment_t1=moment_t1, moment_t2=moment_t2,
    )


class TestReplicate:
    """The one replication loop equals the per-path public route bit for bit."""

    SPECS = {
        "q1": HermiteSpec(order=1, hurst=0.7, horizon=1.0, n=64),
        "q2-explicit-m": HermiteSpec(order=2, hurst=0.7, horizon=1.0, n=64, m=300),
        "q3": HermiteSpec(order=3, hurst=0.7, horizon=1.0, n=64),  # the general recurrence
        "q2-m32768": HermiteSpec(order=2, hurst=0.7, horizon=1.0, n=4096, m=32768),
    }

    @pytest.fixture
    def spec(self, name):
        return self.SPECS[name]

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_equals_per_path_loop(self, spec):
        rows = replicate(spec, 41, (3, 1), range(25), lambda z: z)
        loop = [sample_hermite(spec, derive_seed(41, 3, 1, r)).values for r in range(25)]
        assert rows.shape == (25, spec.n + 1)
        assert np.array_equal(rows, np.array(loop))

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_one_row_range_equals_same_row_of_larger_range(self, spec):
        block = replicate(spec, 41, (2,), range(0, 25), lambda z: z[[1, 32, 64]])
        single = replicate(spec, 41, (2,), range(7, 8), lambda z: z[[1, 32, 64]])
        assert single.shape == (1, 3)
        assert np.array_equal(single, block[7:8])

    def test_scalar_statistic_gives_one_value_per_path(self):
        spec = self.SPECS["q1"]
        rows = replicate(spec, 9, (), range(5), lambda z: z[-1])
        assert rows.shape == (5,)
        assert np.array_equal(rows, [sample_hermite(spec, derive_seed(9, r)).values[-1]
                                     for r in range(5)])

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_later_draws_leave_earlier_paths_alone(self, spec):
        # replicate draws into buffers it reuses; a returned path must not be one of them
        first = sample_hermite(spec, 5).values
        kept = first.copy()
        replicate(spec, 5, (), range(3), lambda z: z)
        second = sample_hermite(spec, 6).values
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)

    def test_empty_range_gives_empty_array(self):
        rows = replicate(self.SPECS["q2-explicit-m"], 9, (), range(0), lambda z: z)
        assert isinstance(rows, np.ndarray) and rows.size == 0

    def test_mean_square_check_holds_one_copy_of_the_rows(self):
        # AC06's config: the reps x (n+1) squared deviations are the only large array
        trend = parse_trend("sin:0.5,0.8,3.0", 2.0)
        cfg = PathConfig(horizon=2.0, n=512, eps=0.05, x0=1.0, order=2, hurst=0.7)
        reps = 1000
        tracemalloc.start()
        try:
            mean_square_bound_check(trend, cfg, reps=reps, seed=67)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * reps * (cfg.n + 1) * 8

    def test_mean_square_check_equals_old_loop(self):
        trend = parse_trend("sin:0.5,0.8,3.0", 2.0)
        cfg = PathConfig(horizon=2.0, n=64, eps=0.05, x0=1.0, order=2, hurst=0.7, m=256)
        report = mean_square_bound_check(trend, cfg, reps=500, seed=67)
        mean, sq_sq = old_mean_square_loop(trend, cfg, 500, 67)
        worst = int(np.argmax(mean))
        estimate = float(mean[worst])
        var = max(float(sq_sq[worst] / 500 - estimate**2), 0.0)
        assert report.estimate == estimate
        assert report.rel_mc_error == float(np.sqrt(var / 500) / estimate)
        assert report.worst_time == float(np.linspace(0.0, 2.0, 65)[worst])

    @pytest.mark.parametrize("order, t1, t2", [(1, 0.5, 2.0), (2, 0.5, 2.0), (2, 1.0, 1.0)])
    def test_moment_scaling_check_equals_old_loop(self, order, t1, t2):
        args = dict(order=order, hurst=0.7, p=2.0, t1=t1, t2=t2, reps=200, seed=33, n=64)
        report = max_moment_scaling_check(**args, bootstrap=300)
        assert report == old_moment_scaling_loop(**args, bootstrap=300)


def increments_bound(spec, weights, paths, normals=None):
    """8 (n+2) u sum_j |W_j| (sum_l |dZ_l| + s F) per path and row, u = 2^-53.

    The rounding bound of ``increment_sums`` against weights . diff(path).  The
    path's cumulative sum puts at most n u sum |dZ| into each value, and each
    weighted sum adds about n u times its absolute terms.  At order 1 (``normals``
    given) each fGn value, and each entry of the folded weights, is also a transform
    whose terms add up to at most F = (amp_0 |z_0| + amp_n |z_1| + 2 sum_k amp_k
    (|z_re,k| + |z_im,k|)) / sqrt(2n) in absolute value, times the fBm scale s; at
    higher order both routes weight the same increments and F is 0.
    """
    n = spec.n
    absolute = np.abs(np.diff(paths, axis=1)).sum(axis=1)
    if normals is not None:
        amp = _half_spectrum_amplitudes(n, spec.hurst)
        a = np.abs(normals)
        spectral = (amp[0] * a[:, 0] + amp[n] * a[:, 1]
                    + 2 * (a[:, 2 : n + 1] + a[:, n + 1 :]) @ amp[1:n]) / np.sqrt(2 * n)
        absolute += (spec.horizon / n) ** spec.hurst * spectral
    return 8 * (n + 2) * 2.0**-53 * np.outer(absolute, np.abs(weights).sum(axis=1))


def drawn_increments(spec, steps, seed, key, reps):
    """The first ``steps`` increments ``_increment_drawer`` draws for each path of ``reps``."""
    draw = _increment_drawer(spec, steps)
    return np.array([draw(rng).copy() for rng in philox_streams(seed, key, reps)])


@st.composite
def increment_cases(draw):
    """(spec, weights): order 1-3, m often not a multiple of n, 0-3 weight rows."""
    order = draw(st.integers(1, 3))
    n = draw(st.integers(1, 200) if order == 1 else st.integers(1, 40))
    m = 0 if order == 1 else draw(st.integers(n, 8 * n + 7))
    hurst = draw(st.floats(0.5, 0.99, exclude_min=True))
    horizon = draw(st.floats(0.1, 5.0))
    spec = HermiteSpec(order=order, hurst=hurst, horizon=horizon, n=n, m=m)
    rows = draw(st.integers(0, 3))
    weights = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((rows, n))
    return spec, weights


class TestRowDots:
    """Row dot products in pieces that BLAS sums on one thread, added in a fixed order."""

    @pytest.mark.parametrize("n", [0, 1, 100, _DOT_PIECE])
    def test_short_rows_are_one_vecdot(self, n):
        rng = np.random.default_rng(n)
        rows, x = rng.standard_normal((3, n)), rng.standard_normal(n)
        assert np.array_equal(_row_dots(rows, x), np.vecdot(rows, x))

    @pytest.mark.parametrize("n", [_DOT_PIECE + 1, 2 * _DOT_PIECE, 20000])
    def test_long_rows_add_the_pieces_in_order(self, n):
        rng = np.random.default_rng(n)
        rows, x = rng.standard_normal((3, n)), rng.standard_normal(n)
        pieces = [np.vecdot(rows[:, k:k + _DOT_PIECE], x[k:k + _DOT_PIECE])
                  for k in range(0, n, _DOT_PIECE)]
        got = _row_dots(rows, x)
        assert np.array_equal(got, sum(pieces[1:], pieces[0]))  # added left to right
        bound = 4 * n * 2.0**-53 * np.vecdot(np.abs(rows), np.abs(x))
        assert np.all(np.abs(got - [w @ x for w in rows]) <= bound)


class TestReplicateIncrements:
    """weights . diff(Z_r) per path, with the q = 1 sampler folded into the weights."""

    @settings(max_examples=60, deadline=None)
    @given(case=increment_cases(), seed=st.integers(0, 2**32 - 1))
    def test_equals_weighted_increments_of_the_path(self, case, seed):
        spec, weights = case
        rows = increment_sums(spec, weights)(seed, (4,), range(3))
        paths = replicate(spec, seed, (4,), range(3), lambda z: z)
        direct = np.vecdot(weights[None], np.diff(paths, axis=1)[:, None])
        assert rows.shape == direct.shape == (3, len(weights))
        if spec.order > 1:  # the path sums the increments that the rows weight
            increments = drawn_increments(spec, spec.n, seed, (4,), range(3))
            assert np.array_equal(paths[:, 1:], [np.cumsum(dz) for dz in increments])
            assert np.array_equal(rows, np.vecdot(weights[None], increments[:, None]))
            normals = None
        else:
            normals = np.array([philox_generator(derive_seed(seed, 4, r))
                                .standard_normal(2 * spec.n) for r in range(3)])
        assert np.all(np.abs(rows - direct) <= increments_bound(spec, weights, paths, normals))

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("n, m", [(3, 7), (64, 300), (64, 512)])
    def test_increments_are_block_sums_of_hermite_fgn(self, order, n, m):
        # b sum H_q(xi) over the fine points floor(m j/n) .. floor(m (j+1)/n) - 1, from
        # sample_fgn and a normalizer from the literal double sum
        spec = HermiteSpec(order=order, hurst=0.7, horizon=2.0, n=n, m=m)
        h0 = h_zero(order, 0.7)
        fine = np.arange(m)
        brute = np.sum(fgn_autocovariance(np.subtract.outer(fine, fine), h0) ** order)
        b = 2.0**0.7 / math.sqrt(math.factorial(order) * brute)
        h = hermite_polynomial(order, sample_fgn(FgnSpec(h0, m), 17))
        edges = [m * j // n for j in range(n + 1)]
        expected = np.array([b * math.fsum(h[lo:hi]) for lo, hi in zip(edges, edges[1:])])
        increments = _increment_drawer(spec, n)(philox_generator(17))
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(increments, expected, rtol=1e-12, atol=1e-14 * scale)
        values = sample_hermite(spec, 17).values
        np.testing.assert_allclose(values, np.concatenate([[0.0], np.cumsum(expected)]),
                                   rtol=1e-12, atol=1e-14 * n * scale)

    @pytest.mark.parametrize("name", ["q2-explicit-m", "q3"])
    @pytest.mark.parametrize("reach", [0, 1, 37, 64])
    def test_zero_trailing_columns_give_the_rows_of_the_reached_prefix(self, name, reach):
        spec = TestReplicate.SPECS[name]
        weights = np.random.default_rng(5).standard_normal((3, spec.n))
        weights[0, reach:] = 0.0
        weights[1, :] = 0.0
        weights[2, reach // 2:] = 0.0  # the longest row sets the reach
        rows = increment_sums(spec, weights)(41, (2,), range(4))
        increments = drawn_increments(spec, spec.n, 41, (2,), range(4))[:, :reach]
        assert np.array_equal(rows, np.vecdot(weights[None, :, :reach], increments[:, None]))
        if reach == 0:  # an all-zero matrix
            assert np.array_equal(rows, np.zeros((4, 3)))
        prefix = drawn_increments(spec, reach, 41, (2,), range(4))
        assert np.array_equal(prefix, increments)

    @pytest.mark.parametrize("name", sorted(TestReplicate.SPECS))
    def test_one_row_range_equals_same_row_of_larger_range(self, name):
        spec = TestReplicate.SPECS[name]
        weights = np.random.default_rng(3).standard_normal((21, spec.n))
        sums = increment_sums(spec, weights)
        block = sums(41, (2,), range(0, 25))
        for r in range(_BLOCK + 1):  # row r sits at place r % _BLOCK of its block in range(25)
            assert np.array_equal(sums(41, (2,), range(r, r + 1)), block[r:r + 1])
        single = sums(41, (2,), range(7, 8))
        assert single.shape == (1, 21)
        assert np.array_equal(single, block[7:8])
        middle = range(3, 3 + 2 * _BLOCK + 1)  # ends one row into its third block
        assert np.array_equal(sums(41, (2,), middle), block[middle.start:middle.stop])
        assert np.array_equal(increment_sums(spec, weights)(41, (2,), range(7, 8)), single)

    @pytest.mark.parametrize("order", [1, 2])
    def test_no_rows_or_no_paths_give_empty_shapes(self, order):
        spec = HermiteSpec(order=order, hurst=0.7, horizon=1.0, n=16)
        assert increment_sums(spec, np.empty((0, 16)))(9, (), range(4)).shape == (4, 0)
        assert increment_sums(spec, np.ones((2, 16)))(9, (), range(0)).shape == (0, 2)
