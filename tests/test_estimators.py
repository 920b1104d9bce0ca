"""Kernel estimators: bandwidth laws, product/theta estimates, bias term,
truncated variant.  Noiseless paths double as exact oracles throughout."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from fractions import Fraction

from hermite_trend.estimators import (
    EstimatorConfig,
    alternate_estimate,
    bandwidth_alt,
    bandwidth_main,
    bias_center_term,
    estimate_series,
    indicator_path,
    kernel_estimate_product,
    _weight_rows,
)
from hermite_trend.experiments import _rung_setup, parse_experiment_config
from hermite_trend.hermite import _row_dots
from hermite_trend.kernels import (
    Kernel,
    KernelPiece,
    box_kernel,
    kernel_moment,
    vanishing_moment_kernel,
)
from hermite_trend.rng import derive_seed
from hermite_trend.sde import PathConfig, SdePath, simulate_path, solve_ode
from hermite_trend.trends import constant_trend, parse_trend, sinusoid_trend, weierstrass_trend
from hermite_trend.validation import ParameterError

BW_MAIN_001 = 0.13503140378698728  # 0.01^(1/2.3)
BW_ALT_001 = 0.028942661247167517  # 0.01^(1/1.3)
BIAS_CONST_TREND = 0.024242151336670646  # 0.5^3 * 1.3 * e^0.4 * (1/5)/2


def noiseless_path(trend, horizon, n, x0=1.0):
    """Exact eps = 0 path; skips noise sampling entirely."""
    cfg = PathConfig(horizon=horizon, n=n, eps=0.0, x0=x0)
    ts = np.linspace(0.0, horizon, n + 1)
    x = solve_ode(trend, x0, ts)
    return SdePath(times=ts, values=x, ode=x, noise=np.zeros(n + 1), config=cfg)


def lopsided_box():
    # order-0 kernel with m1 != 0, so the noiseless error is genuinely O(phi)
    return Kernel(
        order=0,
        piece=KernelPiece(Fraction(-1, 2), Fraction(1), (Fraction(2, 3),)),
    )


class TestConfig:
    def test_window_must_sit_inside(self):
        k = vanishing_moment_kernel(1)
        with pytest.raises(ValueError, match="window"):
            EstimatorConfig(kernel=k, bandwidth=0.1, window=(0.0, 0.5), horizon=1.0)
        with pytest.raises(ValueError, match="window"):
            EstimatorConfig(kernel=k, bandwidth=0.1, window=(0.5, 1.0), horizon=1.0)

    def test_kernel_reach_validated(self):
        k = vanishing_moment_kernel(1)  # support [-1, 1]
        with pytest.raises(ValueError, match="overflow"):
            EstimatorConfig(kernel=k, bandwidth=0.3, window=(0.2, 0.8), horizon=1.0)
        cfg = EstimatorConfig(kernel=k, bandwidth=0.15, window=(0.2, 0.8), horizon=1.0)
        assert cfg.bandwidth == 0.15

    def test_bandwidth_positive(self):
        k = vanishing_moment_kernel(1)
        with pytest.raises(ValueError, match="bandwidth"):
            EstimatorConfig(kernel=k, bandwidth=0.0, window=(0.4, 0.6), horizon=1.0)

    def test_eval_grid(self):
        k = vanishing_moment_kernel(1)
        cfg = EstimatorConfig(kernel=k, bandwidth=0.1, window=(0.3, 0.7), horizon=1.0)
        grid = cfg.eval_grid()
        assert len(grid) == 21
        assert grid[0] == 0.3 and grid[-1] == 0.7


class TestBandwidthRules:
    def test_main_frozen_value(self):
        assert bandwidth_main(0.01, 1, 0.7) == pytest.approx(BW_MAIN_001, rel=1e-15)

    def test_alt_frozen_value(self):
        assert bandwidth_alt(0.01, 2.0, 0.7) == pytest.approx(BW_ALT_001, rel=1e-15)

    def test_unit_eps(self):
        assert bandwidth_main(1.0, 3, 0.9) == 1.0
        assert bandwidth_alt(1.0, 2.0, 0.7) == 1.0

    def test_monotone_in_eps(self):
        eps = np.array([0.5, 0.1, 0.01, 0.001])
        vals = [bandwidth_main(e, 1, 0.7) for e in eps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domains(self):
        with pytest.raises(ValueError):
            bandwidth_main(0.0, 1, 0.7)
        with pytest.raises(ValueError):
            bandwidth_main(1.5, 1, 0.7)
        with pytest.raises(ValueError):
            bandwidth_main(0.1, -1, 0.7)
        with pytest.raises(ValueError):
            bandwidth_main(0.1, 1, 0.4)
        with pytest.raises(ValueError, match="rho"):
            bandwidth_alt(0.1, 0.6, 0.7)


# The weight sets the experiments stack: rate-q1/AC08 (six rungs, 21 points), the
# reflected AC10 rate-alt set and the one clt row of AC09.
DOT_CONFIGS = {
    "rate-main": """
kind = rate-main
trend = sin:0.5,0.8,3.0
q = 1
hurst = 0.7
kernel = legendre:1
eps = 0.125,0.0625,0.03125,0.015625,0.0078125,0.00390625
replications = 100
n = 4096
horizon = 2.0
window = 0.6,1.4
seed = 820
""",
    "rate-alt": """
kind = rate-alt
trend = sin:0.5,0.8,3.0
q = 1
hurst = 0.7
rho = 2.0
eps = 0.125,0.0625,0.03125,0.015625,0.0078125,0.00390625
replications = 100
n = 4096
horizon = 2.0
window = 0.6,1.4
seed = 1001
variant = oracle
""",
    "clt": """
kind = clt
trend = const:0.5
q = 2
hurst = 0.7
kernel = box:1
eps = 0.0009891702860673596
replications = 100
n = 16384
horizon = 1.0
window = 0.45,0.55
t0 = 0.5
seed = 930
""",
}


class TestWeightedSums:
    """One vecdot over the stacked weight rows equals the per-row dot loop bit for bit.

    If a numpy upgrade changes vecdot's inner loop, this fails before a report moves.
    """

    @pytest.mark.parametrize("name", sorted(DOT_CONFIGS))
    def test_vecdot_equals_row_loop(self, name):
        cfg = parse_experiment_config(DOT_CONFIGS[name])
        grid = np.linspace(0.0, cfg.horizon, cfg.n + 1)
        trend = parse_trend(cfg.trends[0], cfg.horizon)
        for rung in range(len(cfg.ladder)):
            est, spec, ts = _rung_setup(cfg, rung)
            weights = _weight_rows(grid, est.kernel, est.bandwidth, ts,
                                   reflect=cfg.kind == "rate-alt")
            assert weights.shape == (np.size(ts), cfg.n)
            path_cfg = PathConfig(horizon=cfg.horizon, n=cfg.n, eps=cfg.ladder[rung], x0=1.0)
            for r in range(3):
                dx = np.diff(simulate_path(trend, path_cfg, derive_seed(cfg.seed, rung, r)).values)
                loop = np.array([w @ dx for w in weights])
                assert np.array_equal(np.vecdot(weights, dx), loop)
                assert np.array_equal(_row_dots(weights, dx) / est.bandwidth,
                                      [float(w @ dx) / est.bandwidth for w in weights])


class TestProductEstimator:
    def test_flat_path_gives_zero(self):
        th = constant_trend(0.0, horizon=1.0)
        path = noiseless_path(th, 1.0, 256)
        cfg = EstimatorConfig(
            kernel=vanishing_moment_kernel(1), bandwidth=0.1, window=(0.4, 0.6), horizon=1.0
        )
        assert kernel_estimate_product(path, cfg, 0.5) == 0.0

    def test_no_evaluation_time_gives_empty_result(self):
        path = noiseless_path(constant_trend(0.5, horizon=1.0), 1.0, 64)
        cfg = EstimatorConfig(
            kernel=vanishing_moment_kernel(1), bandwidth=0.1, window=(0.4, 0.6), horizon=1.0
        )
        assert kernel_estimate_product(path, cfg, []).shape == (0,)

    def test_noiseless_constant_trend(self):
        # J(t) = c e^{ct}; quadratic kernel bias at phi = 0.1 stays below 1e-3
        c = 0.5
        th = constant_trend(c, horizon=1.0)
        path = noiseless_path(th, 1.0, 4096)
        cfg = EstimatorConfig(
            kernel=vanishing_moment_kernel(1), bandwidth=0.1, window=(0.3, 0.7), horizon=1.0
        )
        for t in (0.3, 0.5, 0.7):
            truth = c * math.exp(c * t)
            assert kernel_estimate_product(path, cfg, t) == pytest.approx(truth, abs=1e-3)

    @pytest.mark.parametrize(
        "kernel,expected_slope,ladder,n",
        [
            (lopsided_box(), 1.0, [2.0**-j for j in range(3, 8)], 2**17),
            (vanishing_moment_kernel(1), 2.0, [2.0**-j for j in range(3, 8)], 2**17),
            (vanishing_moment_kernel(3), 4.0, [2.0**-j for j in range(2, 6)], 2**19),
        ],
    )
    def test_noiseless_error_order(self, kernel, expected_slope, ladder, n):
        # |estimate - J(t)| should scale like phi^{k+1} once the grid is fine
        # enough that midpoint-discretization error is out of the way.
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        path = noiseless_path(th, 2.0, n)
        t = 1.0
        truth = th.value(t) * float(np.interp(t, path.times, path.values))
        errs = []
        for phi in ladder:
            cfg = EstimatorConfig(
                kernel=kernel, bandwidth=phi, window=(t, t), horizon=2.0
            )
            errs.append(abs(kernel_estimate_product(path, cfg, t) - truth))
        slope = np.polyfit(np.log(ladder), np.log(errs), 1)[0]
        assert slope == pytest.approx(expected_slope, abs=0.3)

    def test_locality(self):
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=1.0)
        path = simulate_path(th, PathConfig(horizon=1.0, n=1024, eps=0.05, x0=1.0), seed=4)
        cfg = EstimatorConfig(
            kernel=vanishing_moment_kernel(1), bandwidth=0.1, window=(0.45, 0.55), horizon=1.0
        )
        base = kernel_estimate_product(path, cfg, 0.5)
        tampered = path.values.copy()
        tampered[:100] += 7.0  # t < 0.098, well left of [0.4, 0.6]
        tampered[-100:] -= 3.0  # t > 0.90
        path2 = SdePath(
            times=path.times, values=tampered, ode=path.ode, noise=path.noise,
            config=path.config,
        )
        assert kernel_estimate_product(path2, cfg, 0.5) == base

    def test_linear_in_increments(self):
        rng = np.random.default_rng(1)
        ts = np.linspace(0.0, 1.0, 513)
        base = PathConfig(horizon=1.0, n=512, eps=0.1, x0=1.0)
        v1 = 1.0 + np.cumsum(rng.normal(size=513)) * 0.01
        v2 = 1.0 + np.cumsum(rng.normal(size=513)) * 0.01
        mix = 2.5 * v1 - 1.5 * v2
        z = np.zeros(513)
        cfg = EstimatorConfig(
            kernel=vanishing_moment_kernel(1), bandwidth=0.1, window=(0.4, 0.6), horizon=1.0
        )
        ests = [
            kernel_estimate_product(
                SdePath(times=ts, values=v, ode=v, noise=z, config=base), cfg, 0.5
            )
            for v in (v1, v2, mix)
        ]
        assert ests[2] == pytest.approx(2.5 * ests[0] - 1.5 * ests[1], rel=1e-12)

    def test_grid_refinement_stability(self):
        # same realized path seen at n and n/2: estimates nearly coincide
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=1.0)
        fine_cfg = PathConfig(horizon=1.0, n=2048, eps=0.05, x0=1.0, order=1, hurst=0.7)
        fine = simulate_path(th, fine_cfg, seed=17)
        coarse = SdePath(
            times=fine.times[::2],
            values=fine.values[::2],
            ode=fine.ode[::2],
            noise=fine.noise[::2],
            config=PathConfig(horizon=1.0, n=1024, eps=0.05, x0=1.0, order=1, hurst=0.7),
        )
        cfg = EstimatorConfig(
            kernel=vanishing_moment_kernel(1), bandwidth=BW_MAIN_001, window=(0.4, 0.6), horizon=1.0
        )
        a = kernel_estimate_product(fine, cfg, 0.5)
        b = kernel_estimate_product(coarse, cfg, 0.5)
        assert abs(a - b) < 1e-3

    def test_vector_evaluation_matches_scalar(self):
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=1.0)
        path = simulate_path(th, PathConfig(horizon=1.0, n=512, eps=0.05, x0=1.0), seed=2)
        cfg = EstimatorConfig(
            kernel=vanishing_moment_kernel(1), bandwidth=0.1, window=(0.4, 0.6), horizon=1.0
        )
        ts = cfg.eval_grid(5)
        vec = kernel_estimate_product(path, cfg, ts)
        assert vec.shape == (5,)
        for i, t in enumerate(ts):
            assert vec[i] == kernel_estimate_product(path, cfg, float(t))


class TestThetaEstimator:
    def test_noiseless_constant_recovery(self):
        c = 0.5
        th = constant_trend(c, horizon=1.0)
        path = noiseless_path(th, 1.0, 4096)
        cfg = EstimatorConfig(
            kernel=vanishing_moment_kernel(1), bandwidth=0.1, window=(0.5, 0.5), horizon=1.0
        )
        series = estimate_series(path, cfg, points=1)
        assert series.theta[0] == pytest.approx(c, abs=1e-3)

    def test_guard_fires_below_floor(self):
        th = constant_trend(-1.0, horizon=1.0)  # decaying path
        path = noiseless_path(th, 1.0, 256)
        cfg = EstimatorConfig(
            kernel=vanishing_moment_kernel(1), bandwidth=0.05, window=(0.1, 0.9), horizon=1.0
        )
        series = estimate_series(path, cfg, points=9)
        # x(t) = e^{-t} crosses the floor x0/2 = 0.5 at t = ln 2 ~ 0.693
        expect_valid = np.exp(-series.times) >= 0.5
        assert np.array_equal(series.valid, expect_valid)
        assert np.all(np.isnan(series.theta[~series.valid]))
        assert not np.any(np.isnan(series.theta[series.valid]))
        assert np.all(np.isfinite(series.product))

    def test_scalar_nan_when_invalid(self):
        th = constant_trend(-1.0, horizon=1.0)
        path = noiseless_path(th, 1.0, 256)
        cfg = EstimatorConfig(
            kernel=vanishing_moment_kernel(1), bandwidth=0.05, window=(0.9, 0.9), horizon=1.0
        )
        series = estimate_series(path, cfg, points=1)
        assert math.isnan(series.theta[0]) and not series.valid[0]

    def test_mc_mse_sinusoid(self):
        # theta(t) = 0.5 sin(2 pi t), eps = 0.01, fBm driver: MSE at t = 0.5
        # over 500 replications stays below 1e-2
        th = sinusoid_trend(offset=0.0, amplitude=0.5, omega=2.0 * math.pi, horizon=1.0)
        cfg_path = PathConfig(horizon=1.0, n=1024, eps=0.01, x0=1.0, order=1, hurst=0.7)
        phi = bandwidth_main(0.01, 1, 0.7)
        cfg = EstimatorConfig(
            kernel=vanishing_moment_kernel(1), bandwidth=phi, window=(0.5, 0.5), horizon=1.0
        )
        errs = []
        for r in range(500):
            path = simulate_path(th, cfg_path, derive_seed(1234, r))
            est = estimate_series(path, cfg, points=1).theta[0]
            errs.append((est - th.value(0.5)) ** 2)
        assert np.mean(errs) < 1e-2


class TestBiasCenterTerm:
    def test_unit_constant_epanechnikov(self):
        # J^{(2)}(0) = 1, m2 = 1/5, so the term is exactly 0.1
        th = constant_trend(1.0, horizon=1.0)
        term = bias_center_term(th, 1.0, 0.0, vanishing_moment_kernel(1))
        assert term == pytest.approx(0.1, abs=1e-12)

    def test_constant_trend_closed_form(self):
        th = constant_trend(0.5, horizon=1.0)
        term = bias_center_term(th, 1.3, 0.8, vanishing_moment_kernel(1))
        assert term == pytest.approx(BIAS_CONST_TREND, rel=1e-10)

    def test_vanishing_for_a_symmetric_order_0_kernel(self):
        # k = 0 reads m1, which is 0 for the symmetric box
        th = constant_trend(0.5, horizon=1.0)
        kernel = box_kernel(1.0)
        assert kernel.order == 0 and kernel_moment(kernel, 1) == 0.0
        assert bias_center_term(th, 1.0, 0.5, kernel) == 0.0

    def test_rough_trend_rejected(self):
        th = weierstrass_trend(
            amplitude=0.3, decay=0.6, lacunarity=3.0, terms=10, horizon=1.0
        )
        from hermite_trend.trends import DerivativeUnavailable

        with pytest.raises(DerivativeUnavailable):
            bias_center_term(th, 1.0, 0.5, vanishing_moment_kernel(1))

    def test_sinusoid_against_finite_difference(self):
        # J''(t) by second central difference of J(t) = theta(t) x(t), with
        # x from its closed form exp(0.5 t + 0.8 (1 - cos 3t)/3)
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=1.0)
        t, h = 0.5, 1e-4

        def j_exact(s):
            return th.value(s) * math.exp(0.5 * s + 0.8 * (1.0 - math.cos(3.0 * s)) / 3.0)

        j2 = (j_exact(t + h) - 2.0 * j_exact(t) + j_exact(t - h)) / h**2
        term = bias_center_term(th, 1.0, t, vanishing_moment_kernel(1))
        assert term == pytest.approx(j2 * 0.2 / 2.0, rel=5e-3)


class TestIndicator:
    def test_constant_path_all_true(self):
        ts = np.linspace(0.0, 2.0, 101)
        ind = indicator_path(ts, np.full(101, 1.0), 1.0, 0.5)
        assert ind.all()

    def test_latched_after_dip(self):
        # dip below the threshold once; the decaying threshold would admit the
        # path again later, but the event must stay dead
        ts = np.linspace(0.0, 2.0, 201)
        vals = np.full(201, 1.0)
        vals[10] = 0.44  # threshold at t=0.1 is 0.5 e^{-0.1} ~ 0.452
        ind = indicator_path(ts, vals, 1.0, 1.0)
        assert not ind[10:].any()
        assert ind[:10].all()

    def test_monotone_on_noise(self):
        cfg = PathConfig(horizon=2.0, n=256, eps=0.3, x0=1.0, order=2, hurst=0.7)
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        for r in range(25):
            path = simulate_path(th, cfg, derive_seed(55, r))
            ind = indicator_path(path.times, path.values, 1.0, th.bound)
            assert not np.any(np.diff(ind.astype(int)) > 0)

    @pytest.mark.parametrize("x0", [1.0, -1.0])
    def test_equals_latched_running_minimum(self, x0):
        # the threshold does not increase for L >= 0, so the running minimum adds nothing
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        cfg = PathConfig(horizon=2.0, n=256, eps=1.0, x0=x0, order=1, hurst=0.7)
        dead = {bound: 0 for bound in (0.0, th.bound, 3.0)}
        for r in range(40):
            path = simulate_path(th, cfg, derive_seed(71, r))
            for bound in dead:
                threshold = 0.5 * abs(x0) * np.exp(-bound * path.times)
                low = np.minimum.accumulate(math.copysign(1.0, x0) * path.values)
                ind = indicator_path(path.times, path.values, x0, bound)
                assert np.array_equal(ind, np.logical_and.accumulate(low >= threshold))
                dead[bound] += not ind[-1]
        assert all(0 < count < 40 for count in dead.values()), dead

    def test_negative_bound_constant_raises(self):
        ts = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ParameterError, match="bound_constant"):
            indicator_path(ts, np.ones(11), 1.0, -0.5)


class TestAlternateEstimate:
    def make_cfg(self, phi=0.1, horizon=1.0):
        return EstimatorConfig(
            kernel=vanishing_moment_kernel(1),
            bandwidth=phi,
            window=(0.4, 0.6),
            horizon=horizon,
        )

    def test_indicator_kill_returns_zero(self):
        ts = np.linspace(0.0, 1.0, 257)
        vals = np.full(257, 1.0)
        vals[200:] = 0.01  # far below any threshold
        cfg_path = PathConfig(horizon=1.0, n=256, eps=0.1, x0=1.0)
        path = SdePath(
            times=ts, values=vals, ode=vals, noise=np.zeros(257), config=cfg_path
        )
        est = alternate_estimate(path, self.make_cfg(), 0.5, 0.5)
        assert est == 0.0

    def test_noiseless_observable_recovers_constant(self):
        c = 0.7
        th = constant_trend(c, horizon=1.0)
        path = noiseless_path(th, 1.0, 4096)
        est = alternate_estimate(path, self.make_cfg(), 0.5, c, variant="observable")
        assert est == pytest.approx(c, abs=1e-3)

    def test_oracle_variant_needs_trend(self):
        th = constant_trend(0.5, horizon=1.0)
        path = noiseless_path(th, 1.0, 256)
        with pytest.raises(ValueError, match="trend"):
            alternate_estimate(path, self.make_cfg(), 0.5, 0.5, variant="oracle")

    def test_unknown_variant(self):
        th = constant_trend(0.5, horizon=1.0)
        path = noiseless_path(th, 1.0, 256)
        with pytest.raises(ValueError, match="variant"):
            alternate_estimate(path, self.make_cfg(), 0.5, 0.5, variant="mystery")

    def test_negative_bound_constant_raises(self):
        path = noiseless_path(constant_trend(0.5, horizon=1.0), 1.0, 256)
        with pytest.raises(ParameterError, match="bound_constant"):
            alternate_estimate(path, self.make_cfg(), 0.5, -0.5)

    def test_variants_agree_in_mc_mean(self):
        # same driving paths, both constructions; means should sit within two
        # combined standard errors of each other
        c = 0.5
        th = constant_trend(c, horizon=1.0)
        cfg_path = PathConfig(horizon=1.0, n=2048, eps=0.02, x0=1.0, order=1, hurst=0.7)
        phi = bandwidth_alt(0.02, 2.0, 0.7)
        cfg = self.make_cfg(phi=phi)
        obs, orc = [], []
        for r in range(300):
            path = simulate_path(th, cfg_path, derive_seed(99, r))
            obs.append(alternate_estimate(path, cfg, 0.5, c, variant="observable"))
            orc.append(
                alternate_estimate(path, cfg, 0.5, c, variant="oracle", trend=th)
            )
        obs, orc = np.array(obs), np.array(orc)
        se = math.sqrt(obs.var(ddof=1) / 300 + orc.var(ddof=1) / 300)
        assert abs(obs.mean() - orc.mean()) <= 2.0 * se


class TestHorizonMismatch:
    """A config built for another horizon is rejected, not evaluated on the wrong window."""

    path = noiseless_path(constant_trend(0.5, horizon=1.0), 1.0, 256)
    cfg = EstimatorConfig(kernel=vanishing_moment_kernel(1), bandwidth=0.1,
                          window=(0.4, 0.95), horizon=2.0)

    @pytest.mark.parametrize("estimate", [
        lambda path, cfg: kernel_estimate_product(path, cfg, 0.95),
        lambda path, cfg: estimate_series(path, cfg),
        lambda path, cfg: alternate_estimate(path, cfg, 0.95, 0.5),
    ], ids=["kernel_estimate_product", "estimate_series", "alternate_estimate"])
    def test_horizon_2_config_on_horizon_1_path(self, estimate):
        with pytest.raises(ParameterError, match="horizon") as info:
            estimate(self.path, self.cfg)
        assert info.value.field == "horizon"


def reference_truncated(path, est, t, bound, x0, variant, trend):
    """The truncated estimate by the route the shared builder replaced, kept as the reference.

    Per call: the latched indicator of sign(x0) X >= |x0| e^{-Lt} / 2, dY from the path (or
    the oracle's theta dt and eps (2/x0) e^{LT} dZ), and the reflected weights
    G((t - s_j)/phi), each formed here.
    """
    times, values = path.times, path.values
    threshold = 0.5 * abs(x0) * np.exp(-bound * times)
    if not np.logical_and.accumulate(math.copysign(1.0, x0) * values >= threshold)[-1]:
        dy, alive = np.zeros(len(times) - 1), 0.0
    elif variant == "oracle":
        drift = np.asarray(trend.value(times[:-1]), dtype=float) * (times[1] - times[0])
        amp = path.config.eps * (2.0 / x0) * math.exp(bound * path.config.horizon)
        dy, alive = drift + amp * np.diff(path.noise), 1.0
    else:
        dy, alive = np.diff(values) / values[:-1], 1.0
    mids = 0.5 * (times[:-1] + times[1:])
    s = np.asarray(t, dtype=float).reshape(-1, 1)
    sums = _row_dots(est.kernel.evaluate((s - mids) / est.bandwidth), dy) / est.bandwidth
    return alive * (float(sums[0]) if np.ndim(t) == 0 else sums)


class TestTruncatedReference:
    """``alternate_estimate``, and so the rate-alt cell, which builds the same estimator,
    equals the reference route bit for bit on AC10's config.

    AC10's own paths never leave A_T, so each rung's estimator also sees paths at
    eps = 1, where some do.  AC10's kernel is even, so the same bandwidth with the
    lopsided box checks that the weights are reflected.
    """

    @pytest.mark.parametrize("x0", [1.0, -1.0])
    def test_equals_reference_route(self, x0):
        cfg = parse_experiment_config(DOT_CONFIGS["rate-alt"])
        trend = parse_trend(cfg.trends[0], cfg.horizon)
        counts = {"left": 0, "stayed": 0}
        for rung in range(len(cfg.ladder)):
            est, _, ts = _rung_setup(cfg, rung)
            lopsided = replace(est, kernel=lopsided_box())
            for eps in (cfg.ladder[rung], 1.0):
                pc = PathConfig(horizon=cfg.horizon, n=cfg.n, eps=eps, x0=x0,
                                order=cfg.q, hurst=cfg.hurst)
                for r in range(4):
                    path = simulate_path(trend, pc, derive_seed(cfg.seed, rung, r))
                    stayed = indicator_path(path.times, path.values, x0, trend.bound)[-1]
                    counts["stayed" if stayed else "left"] += 1
                    cases = itertools.product(("oracle", "observable"), (est, lopsided),
                                              (ts, float(ts[len(ts) // 2])))
                    for variant, e, t in cases:
                        want = reference_truncated(path, e, t, trend.bound, x0, variant, trend)
                        got = alternate_estimate(path, e, t, trend.bound, variant, trend)
                        assert type(got) is type(want)
                        assert np.array_equal(got, want)
                        if not stayed:
                            assert not np.any(got)
        assert counts["left"] > 0 and counts["stayed"] > 0, counts


class TestMirroredStart:
    def test_negated_path_and_start_give_the_same_estimates(self):
        # X(-x0, -Z) = -X(x0, Z), so the division floor and the truncation
        # event read |x0| and sign(x0) X: the mirrored path estimates the same
        # theta bit for bit.  The decaying trend puts part of the window below
        # the floor while A_T still holds (x(t) = e^{-t} stays above e^{-t}/2).
        th = constant_trend(-1.0, horizon=1.0)
        cfg_path = PathConfig(horizon=1.0, n=256, eps=0.01, x0=1.0)
        path = simulate_path(th, cfg_path, derive_seed(7, 0))
        mirror = SdePath(
            times=path.times, values=-path.values, ode=-path.ode, noise=-path.noise,
            config=replace(cfg_path, x0=-1.0),
        )
        cfg = EstimatorConfig(
            kernel=vanishing_moment_kernel(1), bandwidth=0.05, window=(0.1, 0.9), horizon=1.0
        )
        ours, theirs = estimate_series(path, cfg, points=9), estimate_series(mirror, cfg, points=9)
        assert ours.valid.any() and not ours.valid.all()
        assert np.array_equal(ours.valid, theirs.valid)
        assert np.array_equal(ours.theta, theirs.theta, equal_nan=True)
        for variant in ("observable", "oracle"):
            ours, theirs = (
                alternate_estimate(p, cfg, cfg.eval_grid(9), th.bound, variant=variant,
                                   trend=th)
                for p in (path, mirror)
            )
            assert np.all(ours != 0.0), variant
            assert np.array_equal(ours, theirs), variant
