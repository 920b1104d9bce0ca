"""SDE integrator: ODE collapse, linearity, Euler cross-check, certified bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_trend.rng import derive_seed
from hermite_trend.sde import (
    BoundViolation,
    GronwallReport,
    PathConfig,
    _fold_integrator,
    _growth_factors,
    _variation_of_constants,
    cumulative_trend_integral,
    gronwall_check,
    mean_square_bound_check,
    simulate_path,
    simulate_sde,
    solve_ode,
)
from hermite_trend.estimators import _weight_rows
from hermite_trend.experiments import _rung_setup, parse_experiment_config
from hermite_trend.hermite import HermiteSpec, _row_dots, sample_hermite
from hermite_trend.trends import TrendFunction, constant_trend, parse_trend, sinusoid_trend

# AC08's rate-main config at q = 1: six rungs of 21 x 4096 kernel weights
RATE_MAIN = """
kind = rate-main
trend = sin:0.5,0.8,3.0
q = 1
hurst = 0.7
kernel = legendre:1
eps = 0.125,0.0625,0.03125,0.015625,0.0078125,0.00390625
replications = 500
n = 4096
horizon = 2.0
window = 0.6,1.4
seed = 820
"""

# x0 exp(0.5 t + 0.8 (1 - cos 3t)/3) at t = 1.75, x0 = 1.3
ODE_SIN_175 = 3.551872054787956


def make_config(**kw):
    base = dict(horizon=2.0, n=256, eps=0.05, x0=1.0, order=2, hurst=0.7)
    base.update(kw)
    return PathConfig(**base)


class TestConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="horizon"):
            make_config(horizon=0.0)
        with pytest.raises(ValueError, match="n must"):
            make_config(n=32)
        with pytest.raises(ValueError, match="eps"):
            make_config(eps=1.5)
        with pytest.raises(ValueError, match="eps"):
            make_config(eps=-0.1)
        with pytest.raises(ValueError, match="x0"):
            make_config(x0=0.0)

    def test_negative_x0_allowed(self):
        assert make_config(x0=-1.0).x0 == -1.0

    def test_eps_zero_allowed(self):
        assert make_config(eps=0.0).eps == 0.0

    def test_hermite_spec_roundtrip(self):
        cfg = make_config(n=128)
        spec = cfg.hermite_spec()
        assert (spec.order, spec.hurst, spec.n) == (2, 0.7, 128)
        assert spec.m == 8 * 128


# (sup |theta^(3)|, sup |theta^(4)|) on [0, 2] for the trends of the Simpson comparison;
# weier's k-th derivative is at most amplitude sum_j (decay lacunarity^(k-1))^j.
SIMPSON_TRENDS = {
    "const:0.5": (0.0, 0.0),
    "sin:0.5,0.8,3": (0.8 * 3.0**3, 0.8 * 3.0**4),
    "poly:1,-0.5,0.25": (0.0, 0.0),
    "weier:0.3,0.5,3,12": tuple(0.3 * sum((0.5 * 3.0 ** (k - 1)) ** j for j in range(12))
                                for k in (3, 4)),
}


def simpson_bound(ts, m3, m4, m0):
    """Bound on |cumulative_simpson - exact integral| at every grid time.

    On a uniform grid of step h, a complete three-point panel errs by at most
    h^5 m4 / 90, and one interval of a panel by at most h^4 m3 / 24 (the
    quadratic's remainder has one sign on each interval).  So the cumulative error is
    O(h^4): h^4 (t m4 / 180 + m3 / 24).  On an uneven grid the panel formula is
    exact for quadratics only.  An interval of length h_i in a panel of width
    w <= 2 h_max then errs by at most m3 h_i w^3 / 6, which sums to
    (4/3) m3 h_max^3 t.  The cumulative sum adds at most len(ts) 2^-52 m0 t of
    rounding, with m0 = sup |theta|.
    """
    h = np.diff(ts)
    rounding = len(ts) * 2.0**-52 * m0 * ts
    if np.allclose(h, h[0], rtol=1e-12, atol=0):
        return h[0] ** 4 * (ts * m4 / 180 + m3 / 24) + rounding
    return 4.0 / 3.0 * m3 * np.max(h) ** 3 * ts + rounding


class TestOdeSolver:
    def test_constant_trend_exact(self):
        # the closed form 0.5 t, then exp: exact up to exp's rounding
        th = constant_trend(0.5, horizon=2.0)
        ts = np.linspace(0.0, 2.0, 1025)
        x = solve_ode(th, 1.0, ts)
        assert np.allclose(x, np.exp(0.5 * ts), rtol=1e-14, atol=0)

    def test_sinusoid_trend_closed_form(self):
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        ts = np.linspace(0.0, 2.0, 1025)
        x = solve_ode(th, 1.3, ts)
        j = int(round(1.75 / 2.0 * 1024))  # exactly on-grid
        assert ts[j] == 1.75
        assert x[j] == pytest.approx(ODE_SIN_175, rel=4 * np.finfo(float).eps, abs=0)

    def test_cosine_trend_antiderivative(self):
        # ad-hoc trend outside the library constructors: theta = cos,
        # x = x0 e^{sin t}
        cos_trend = TrendFunction(
            label="cos",
            horizon=2.0,
            bound=1.0,
            value=np.cos,
            _deriv=lambda order: None,
            integral=np.sin,
        )
        ts = np.linspace(0.0, 2.0, 1025)
        x = solve_ode(cos_trend, 2.0, ts)
        np.testing.assert_allclose(x, 2.0 * np.exp(np.sin(ts)),
                                   rtol=4 * np.finfo(float).eps, atol=0)

    def test_cumulative_integral_starts_at_zero(self):
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        ts = np.linspace(0.0, 2.0, 129)
        assert cumulative_trend_integral(th, ts)[0] == 0.0

    @pytest.mark.parametrize("text", list(SIMPSON_TRENDS))
    @pytest.mark.parametrize("grid", ["odd", "even", "uneven"])
    def test_cumulative_integral_equals_scipy_simpson(self, text, grid):
        # the trend's closed form bit for bit, and scipy's Simpson rule on theta's
        # values, an independent quadrature, within its truncation bound
        from scipy.integrate import cumulative_simpson

        th = parse_trend(text, horizon=2.0)
        if grid == "uneven":
            inner = np.random.default_rng(5).uniform(0.0, 2.0, 97)
            ts = np.concatenate(([0.0], np.sort(inner), [2.0]))
        else:
            ts = np.linspace(0.0, 2.0, 1025 if grid == "odd" else 1024)
        ours = cumulative_trend_integral(th, ts)
        assert np.array_equal(ours, th.integral(ts))
        simpson = cumulative_simpson(np.asarray(th.value(ts), dtype=float), x=ts, initial=0.0)
        bound = simpson_bound(ts, *SIMPSON_TRENDS[text], th.bound)
        assert np.all(np.abs(ours - simpson) <= bound)

    @pytest.mark.parametrize("ts", [[0.0], [0.0, 0.75]], ids=["one-point", "two-point"])
    def test_short_grids(self, ts):
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        ts = np.array(ts)
        integral = cumulative_trend_integral(th, ts)
        assert integral.shape == ts.shape and integral[0] == 0.0
        assert np.array_equal(integral, th.integral(ts))
        assert np.array_equal(solve_ode(th, 1.3, ts), 1.3 * np.exp(integral))


class TestExactScheme:
    def test_eps_zero_collapses_to_ode(self):
        cfg = make_config(eps=0.0)
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        path = simulate_path(th, cfg, seed=11)
        assert np.array_equal(path.values, path.ode)

    def test_zero_trend_is_linear_in_eps(self):
        # theta == 0: X - x0 = eps * Z summed left-point, so doubling eps
        # doubles the deviation (eps = 0.25 keeps the scalings exact).
        th = constant_trend(0.0, horizon=2.0)
        noise = sample_hermite(make_config().hermite_spec(), seed=5)
        lo = simulate_sde(th, make_config(eps=0.25), noise)
        hi = simulate_sde(th, make_config(eps=0.5), noise)
        assert np.allclose(
            hi.values - 1.0, 2.0 * (lo.values - 1.0), rtol=0, atol=1e-13
        )
        assert np.allclose(lo.values, 1.0 + 0.25 * noise.values, rtol=0, atol=1e-13)

    def test_deterministic_in_seed(self):
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        a = simulate_path(th, make_config(), seed=42)
        b = simulate_path(th, make_config(), seed=42)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.noise, b.noise)

    def test_grid_mismatch_rejected(self):
        th = constant_trend(0.5, horizon=2.0)
        noise = sample_hermite(HermiteSpec(order=2, hurst=0.7, horizon=2.0, n=128), 3)
        with pytest.raises(ValueError, match="grid"):
            simulate_sde(th, make_config(n=256), noise)

    def test_unknown_method_rejected(self):
        th = constant_trend(0.5, horizon=2.0)
        noise = sample_hermite(make_config().hermite_spec(), 3)
        with pytest.raises(ValueError, match="method"):
            simulate_sde(th, make_config(), noise, method="heun")


class TestEulerCrossCheck:
    def test_euler_matches_exact_under_refinement(self):
        # Same driving path, two integrators: the gap is O(1/n).  An 8x grid
        # refinement should shrink the mean sup-gap well below half.
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        gaps = {}
        for n in (256, 2048):
            acc = 0.0
            for r in range(20):
                cfg = make_config(n=n)
                noise = sample_hermite(cfg.hermite_spec(), derive_seed(90, n, r))
                exact = simulate_sde(th, cfg, noise, method="exact")
                euler = simulate_sde(th, cfg, noise, method="euler")
                acc += float(np.max(np.abs(exact.values - euler.values)))
            gaps[n] = acc / 20.0
        assert gaps[2048] < 0.5 * gaps[256]

    def test_euler_eps_zero_near_ode(self):
        th = constant_trend(0.5, horizon=2.0)
        cfg = make_config(eps=0.0, n=2048)
        path = simulate_path(th, cfg, seed=1, method="euler")
        # global Euler error ~ x(T) T theta^2 h / 2 ~ 6.6e-4 here
        assert np.max(np.abs(path.values - path.ode)) < 1e-3

    def test_scheme_gap_small_on_fine_fbm_grid(self):
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=1.0)
        cfg = PathConfig(horizon=1.0, n=2**14, eps=0.1, x0=1.0, order=1, hurst=0.7)
        noise = sample_hermite(cfg.hermite_spec(), seed=77)
        exact = simulate_sde(th, cfg, noise, method="exact")
        euler = simulate_sde(th, cfg, noise, method="euler")
        assert np.max(np.abs(exact.values - euler.values)) < 1e-3


class TestGronwallBound:
    def test_holds_on_simulated_batch(self):
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        cfg = make_config(eps=0.05, n=256)
        worst = 0.0
        for r in range(200):
            path = simulate_path(th, cfg, derive_seed(7, r))
            report = gronwall_check(path, th.bound)
            assert isinstance(report, GronwallReport)
            worst = max(worst, report.max_ratio)
        assert worst <= 1.0 + 1e-12

    def test_violation_reports_time(self):
        th = constant_trend(0.5, horizon=2.0)
        cfg = make_config(eps=0.05)
        path = simulate_path(th, cfg, seed=3)
        # understating L breaks the envelope on a generic path
        with pytest.raises(BoundViolation, match="t="):
            gronwall_check(path, 0.0)

    def test_eps_zero_trivially_passes(self):
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        path = simulate_path(th, make_config(eps=0.0), seed=9)
        report = gronwall_check(path, th.bound)
        assert report.max_ratio == 0.0


class TestMeanSquareBound:
    def test_holds_small_batch(self):
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        cfg = make_config(eps=0.05, n=128)
        report = mean_square_bound_check(th, cfg, reps=500, seed=21)
        assert report.ok
        assert report.estimate <= report.bound * (1 + 3 * report.rel_mc_error)

    def test_bound_arithmetic(self):
        # T=1, L=0.5, eps=0.1, H=0.7: bound = e^{2LT} eps^2 T^{2H} = e * 0.01
        th = constant_trend(0.5, horizon=1.0)
        cfg = PathConfig(horizon=1.0, n=128, eps=0.1, x0=1.0, order=1, hurst=0.7)
        report = mean_square_bound_check(th, cfg, reps=500, seed=33)
        assert report.bound == pytest.approx(np.e * 0.01, rel=1e-12)
        assert report.ok

    def test_eps_squared_scaling(self):
        # the deviation X - x is exactly linear in eps path-by-path, so the
        # sup mean-square ratio across a doubled eps is 4 up to roundoff
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=1.0)
        sups = []
        for eps in (0.05, 0.1):
            cfg = PathConfig(horizon=1.0, n=128, eps=eps, x0=1.0, order=1, hurst=0.7)
            acc = np.zeros(129)
            for r in range(200):
                path = simulate_path(th, cfg, derive_seed(1001, r))
                acc += (path.values - path.ode) ** 2
            sups.append(float(np.max(acc / 200)))
        assert sups[1] / sups[0] == pytest.approx(4.0, rel=1e-9)

    def test_matches_per_path_route(self):
        # the hoisted integrator must give simulate_path's deviations bit for bit
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        cfg = make_config(eps=0.05, n=128)
        report = mean_square_bound_check(th, cfg, reps=500, seed=21)
        acc = np.zeros(cfg.n + 1)
        for r in range(500):
            path = simulate_path(th, cfg, derive_seed(21, r))
            acc = acc + (path.values - path.ode) ** 2
        assert report.estimate == float(np.max(acc / 500))

    def test_reps_floor(self):
        th = constant_trend(0.5, horizon=2.0)
        with pytest.raises(ValueError, match="reps"):
            mean_square_bound_check(th, make_config(), reps=100, seed=0)


class TestFoldIntegrator:
    """c + A . diff(Z) equals weights . diff(X) / phi, X the variation-of-constants path."""

    @settings(max_examples=60, deadline=None)
    @given(
        trend=st.sampled_from(("sin:0.5,0.8,3.0", "const:-0.7", "weier:0.3,0.5,3,12")),
        n=st.integers(3, 600),
        rows=st.integers(0, 3),
        x0=st.floats(-50.0, -1e-3),
        eps=st.floats(0.0, 1.0, exclude_min=True),
        bandwidth=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_integrate_then_weight(self, trend, n, rows, x0, eps, bandwidth, seed):
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 2.0, n + 1)
        growth, decay = _growth_factors(parse_trend(trend, 2.0), grid)
        weights = rng.standard_normal((rows, n))
        z = np.concatenate(([0.0], np.cumsum(rng.standard_normal(n) * n**-0.7)))
        x = _variation_of_constants(growth, decay, x0, eps, z)
        direct = np.vecdot(weights, np.diff(x)) / bandwidth
        bound = fold_bound(weights, growth, decay, x0, eps, bandwidth, z)
        offset, fold = _fold_integrator(weights.copy(), growth, decay, x0, eps, bandwidth)
        assert offset.shape == fold.shape[:1] == (rows,)
        assert np.all(np.abs(offset + np.vecdot(fold, np.diff(z)) - direct) <= bound)
        want = fold_by_rows(weights, growth, decay, x0, eps, bandwidth)
        assert np.array_equal(offset, want[0]) and np.array_equal(fold, want[1])

    def test_matrix_fold_equals_row_loop_on_rate_main_weights(self):
        """The 21 x 4096 kernel weights of every rung of AC08's config, bit for bit."""
        cfg = parse_experiment_config(RATE_MAIN)
        grid = np.linspace(0.0, cfg.horizon, cfg.n + 1)
        growth, decay = _growth_factors(parse_trend(cfg.trends[0], cfg.horizon), grid)
        for rung, eps in enumerate(cfg.ladder):
            est, _, ts = _rung_setup(cfg, rung)
            weights = _weight_rows(grid, est.kernel, est.bandwidth, ts)
            assert weights.shape == (21, 4096)
            args = (growth, decay, cfg.x0, eps, est.bandwidth)
            got = _fold_integrator(weights.copy(), *args)
            want = fold_by_rows(weights, *args)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_fold_is_written_over_the_weights(self):
        grid = np.linspace(0.0, 2.0, 65)
        growth, decay = _growth_factors(parse_trend("sin:0.5,0.8,3.0", 2.0), grid)
        weights = np.ones((2, 64))
        _, fold = _fold_integrator(weights, growth, decay, 1.0, 0.1, 0.5)
        assert fold is weights


def fold_by_rows(weights, growth, decay, x0, eps, bandwidth):
    """``_fold_integrator`` written row by row: the reference for the matrix fold's bits."""
    c = _row_dots(weights, np.diff(growth)) * (x0 / bandwidth)
    factor = decay * (eps / bandwidth)
    for row in weights:
        np.subtract(row[:-1], row[1:], out=row[:-1])
        np.multiply(row, growth[1:], out=row)
        np.cumsum(row[::-1], out=row[::-1])
        np.multiply(row, factor, out=row)
    return c, weights


def fold_bound(weights, growth, decay, x0, eps, bandwidth, z):
    """4 n u (sum_j |W_j| / phi) M, u = 2^-53, M = max e^{I} (|x0| + eps sum_l e^{-I_l} |dZ_l|).

    The rounding bound of ``_fold_integrator`` against integrate-then-weight, per row.
    M bounds every partial sum of X's Stieltjes sum in absolute terms; the cumulative
    sums of either route put at most about n u M into each term they form, and each
    weighted sum adds about n u times its absolute terms, so each route is within
    2 n u (sum |W| / phi) M of the exact value.
    """
    n = len(decay)
    m = np.max(growth) * (abs(x0) + eps * np.sum(decay * np.abs(np.diff(z))))
    return 4 * n * 2.0**-53 * np.abs(weights).sum(axis=1) / bandwidth * m


class TestPinnedStreams:
    # Frozen draws at fixed seeds: any change to the Philox streams, the
    # circulant sampler, the Hermite map or the integrator moves them.
    IDX = [1, 17, 32, 64]
    HERMITE_Q1 = [0.005198091936813594, -0.19100111975692935,
                  -0.33579760787574403, -0.4928862434997603]
    HERMITE_Q2 = [-0.01814747906496887, -0.3478161982420268,
                  -0.6468459745200507, -1.0332400890076734]
    SDE_X = [1.0212673600296613, 1.688431671729876, 2.7165646364381444, 2.6998604660218555]
    SDE_Z = [0.042573859352907854, -0.17394147497341406,
             -0.5069579048220393, -0.14729609729723617]

    def test_streams_match_frozen_values(self):
        q1 = sample_hermite(HermiteSpec(order=1, hurst=0.7, horizon=1.0, n=64), 2024)
        q2 = sample_hermite(HermiteSpec(order=2, hurst=0.7, horizon=1.0, n=64, m=512), 2024)
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        cfg = PathConfig(horizon=2.0, n=64, eps=0.1, x0=1.0, order=2, hurst=0.7)
        path = simulate_path(th, cfg, 99)
        for got, frozen in [(q1.values, self.HERMITE_Q1), (q2.values, self.HERMITE_Q2),
                            (path.values, self.SDE_X), (path.noise, self.SDE_Z)]:
            np.testing.assert_allclose(got[self.IDX], frozen, rtol=1e-12, atol=0)
