import concurrent.futures
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hermite_trend import experiments, hermite
from hermite_trend.estimators import (
    EstimatorConfig,
    _weight_rows,
    alternate_estimate,
    bandwidth_alt,
    bias_center_term,
    kernel_estimate_product,
)
from hermite_trend.experiments import (
    CltReport,
    ConditionViolated,
    ConsistencyReport,
    ExperimentConfig,
    FitDegenerate,
    RateFit,
    ReplicationFailure,
    consistency_side_conditions,
    parse_experiment_config,
    run_clt,
    run_consistency,
    run_experiment,
    run_rate,
    theoretical_rate_alt,
    theoretical_rate_main,
    write_report,
)
from hermite_trend.rng import derive_seed
from hermite_trend.sde import PathConfig, _growth_factors, simulate_path, solve_ode
from hermite_trend.trends import parse_trend
from hermite_trend.validation import ParameterError

GOOD_RATE = """
# four-rung geometric ladder
kind = rate-main
trend = sin:0.5,0.8,3.0
q = 1
hurst = 0.7
kernel = legendre:1
eps = 0.125,0.0625,0.03125,0.015625
replications = 100
n = 1024
horizon = 2.0
window = 0.6,1.4
seed = 31415
"""


def config_text(**overrides):
    lines = {}
    for line in GOOD_RATE.strip().splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            key, _, value = stripped.partition("=")
            lines[key.strip()] = value.strip()
    lines.update({k: str(v) for k, v in overrides.items() if v is not None})
    for k, v in overrides.items():
        if v is None:
            lines.pop(k, None)
    return "\n".join(f"{k} = {v}" for k, v in lines.items())


class TestParser:
    def test_round_trip(self):
        cfg = parse_experiment_config(GOOD_RATE)
        assert cfg.kind == "rate-main"
        assert cfg.trends == ("sin:0.5,0.8,3.0",)
        assert cfg.ladder == (0.125, 0.0625, 0.03125, 0.015625)
        assert cfg.window == (0.6, 1.4)
        assert cfg.replications == 100

    def test_defaults_filled(self):
        cfg = parse_experiment_config(GOOD_RATE)
        assert cfg.x0 == 1.0
        assert cfg.eval_points == 21
        assert cfg.variant == "observable"
        assert cfg.var_tol == 0.25

    def test_trend_panel_split(self):
        cfg = parse_experiment_config(
            config_text(kind="consistency", trend="const:0.4 | sin:0.5,0.8,3.0", eps="0.2,0.05")
        )
        assert cfg.trends == ("const:0.4", "sin:0.5,0.8,3.0")

    def test_unknown_key_carries_line_number(self):
        text = "kind = rate-main\ntrend = const:0.5\nbogus = 3\n"
        with pytest.raises(ValueError, match="line 3.*bogus"):
            parse_experiment_config(text)

    def test_missing_separator_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_experiment_config("kind = clt\nno separator here\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="line 2.*duplicate"):
            parse_experiment_config("q = 1\nq = 2\n")

    def test_bad_type_names_key_and_line(self):
        text = config_text(replications="many")
        lineno = next(
            i for i, line in enumerate(text.splitlines(), 1) if line.startswith("replications")
        )
        with pytest.raises(ValueError, match=f"line {lineno}.*replications"):
            parse_experiment_config(text)

    @pytest.mark.parametrize("key, value", [("x0", "nan"), ("horizon", "inf"),
                                            ("var_tol", "-inf"), ("hurst", "nan")])
    def test_non_finite_float_names_key_and_line(self, key, value):
        text = config_text(**{key: value})
        lineno = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(key))
        with pytest.raises(ValueError, match=f"line {lineno}: '{key}' must be finite"):
            parse_experiment_config(text)

    def test_missing_required_keys_listed(self):
        with pytest.raises(ValueError, match="missing required keys.*seed"):
            parse_experiment_config("kind = rate-main\ntrend = const:0.5\n")

    def test_window_arity(self):
        with pytest.raises(ValueError, match="exactly two"):
            parse_experiment_config(config_text(window="0.6,1.0,1.4"))

    def test_bad_trend_string_propagates(self):
        with pytest.raises(ValueError):
            parse_experiment_config(config_text(trend="sin:1.0"))

    def test_comments_and_blanks_ignored(self):
        cfg = parse_experiment_config("# banner\n\n" + GOOD_RATE + "\n   # trailing\n")
        assert cfg.seed == 31415


class TestValidation:
    def test_ladder_must_decrease(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            parse_experiment_config(config_text(eps="0.125,0.125,0.0625,0.03125"))

    def test_eps_domain(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            parse_experiment_config(config_text(eps="1.5,0.7,0.3,0.1"))

    def test_replication_floor(self):
        with pytest.raises(ValueError, match=">= 100"):
            parse_experiment_config(config_text(replications="99"))

    def test_consistency_rejects_single_rung(self):
        with pytest.raises(ValueError, match="consistency needs >= 2"):
            parse_experiment_config(config_text(kind="consistency", eps="0.1"))

    def test_rate_needs_four_rungs(self):
        with pytest.raises(ValueError, match="rate-main needs >= 4"):
            parse_experiment_config(config_text(eps="0.125,0.0625,0.03125"))

    def test_clt_takes_exactly_one_rung(self):
        with pytest.raises(ValueError, match="exactly 1"):
            parse_experiment_config(config_text(kind="clt", t0="1.0", eps="0.1,0.05"))

    def test_clt_rejects_trend_panel(self):
        with pytest.raises(ValueError, match="single trend"):
            parse_experiment_config(
                config_text(kind="clt", t0="1.0", eps="0.05", trend="const:0.4|const:0.2")
            )

    def test_clt_t0_must_sit_in_window(self):
        with pytest.raises(ValueError, match="t0"):
            parse_experiment_config(config_text(kind="clt", eps="0.05", t0="1.9"))

    def test_alt_needs_rho_above_hurst(self):
        with pytest.raises(ValueError, match="rho > hurst"):
            parse_experiment_config(
                config_text(kind="rate-alt", kernel=None, rho="0.6", variant="oracle")
            )

    def test_alt_rejects_kernel_key(self):
        with pytest.raises(ValueError, match="drop the kernel key"):
            parse_experiment_config(config_text(kind="rate-alt", rho="2.0"))

    def test_main_needs_kernel(self):
        with pytest.raises(ValueError, match="legendre.*box"):
            parse_experiment_config(config_text(kernel=None))

    def test_kernel_grammar(self):
        with pytest.raises(ValueError, match="kernel"):
            parse_experiment_config(config_text(kernel="triangle:2"))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            parse_experiment_config(config_text(kind="bootstrap"))

    def test_window_inside_horizon(self):
        with pytest.raises(ValueError, match="window"):
            parse_experiment_config(config_text(window="0.6,2.0"))

    def test_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            parse_experiment_config(
                config_text(kind="rate-alt", kernel=None, rho="2.0", variant="exact")
            )

    def test_hurst_domain(self):
        with pytest.raises(ValueError, match="hurst"):
            parse_experiment_config(config_text(hurst="0.5"))

    def test_hermite_rank_domain(self):
        with pytest.raises(ValueError, match=r"q must lie in \[1, 8\]"):
            parse_experiment_config(config_text(q="9"))


# Configs the run cannot use, each with the key its error must name.  Each one
# used to pass the parser and fail in, or silently bend, the run itself.
WEIER = "weier:0.3,0.5,3,12"  # rho = 1 + log 2 / log 3 = 1.63
CLT = dict(kind="clt", trend="const:0.5", kernel="box:1", eps="0.01", horizon="1.0",
           window="0.45,0.55", t0="0.5")
REJECTED_AT_PARSE = {
    "x0-zero": (dict(x0="0"), "x0"),
    "seed-negative": (dict(seed="-1"), "seed"),
    "m-below-n": (dict(m="512"), "m"),
    "n-below-64": (dict(n="32"), "n"),
    "eval-points-zero": (dict(eval_points="0"), "eval_points"),
    "eval-points-negative": (dict(eval_points="-3"), "eval_points"),
    "slope-tol-negative": (dict(slope_tol="-1"), "slope_tol"),
    "ceiling-negative": (dict(kind="consistency", eps="0.2,0.05", ceiling="-1"), "ceiling"),
    "var-tol-negative": (dict(CLT, var_tol="-0.1"), "var_tol"),
    # phi is largest at the first rung, so the reach overflows there first
    "kernel-reach-overflow": (dict(window="0.2,1.8"), "eps"),
    # eps^{1/(rho-H)} underflows to 0 at the last rung only
    "bandwidth-zero-last-rung": (dict(kind="rate-alt", kernel=None, rho="0.71",
                                      eps="0.125,0.0625,0.03125,1e-300"), "eps"),
    # legendre:0 at H = 0.7 maps both eps to one bandwidth
    "consistency-tied-bandwidth": (dict(kind="consistency", kernel="legendre:0",
                                        eps="0.5,0.49999999999999994"), "eps"),
    "rho-above-trend-smoothness": (dict(kind="rate-alt", kernel=None, rho="2.0",
                                        trend=WEIER), "rho"),
    "clt-bias-needs-missing-derivative": (dict(kind="clt", trend=WEIER, kernel="legendre:1",
                                               eps="0.05", t0="1.0"), "kernel"),
}


def forbid_paths(monkeypatch):
    """Make every path draw raise: every replication route takes its streams here."""

    def no_streams(seed, key, reps):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(hermite, "philox_streams", no_streams)


class TestParseTimeChecks:
    """Each unusable config fails as it is read, naming its key; no path is drawn."""

    def test_valid_config_reaches_the_patched_draw(self, monkeypatch):
        # positive control: without it the test below could pass with the patch in the wrong place
        forbid_paths(monkeypatch)
        with pytest.raises(AssertionError, match="a path was drawn"):
            run_experiment(parse_experiment_config(config_text()))

    @pytest.mark.parametrize("case", sorted(REJECTED_AT_PARSE))
    def test_rejected_before_any_path(self, case, monkeypatch):
        forbid_paths(monkeypatch)
        overrides, key = REJECTED_AT_PARSE[case]
        with pytest.raises(ParameterError) as info:
            run_experiment(parse_experiment_config(config_text(**overrides)))
        assert info.value.field == key
        assert str(info.value).startswith(f"{key} ")

    @pytest.mark.parametrize("rho", ["0.9", "1.0"])
    def test_alt_rejects_rho_at_most_one_before_simulating(self, rho):
        # for H < rho <= 1 the alt rule keeps eps^2 phi^{2H-2} from falling: there is no rate
        with pytest.raises(ParameterError) as info:
            parse_experiment_config(
                config_text(kind="rate-alt", kernel=None, rho=rho, variant="oracle")
            )
        assert info.value.field == "rho"
        assert str(info.value).startswith("rho must exceed 1 ")

    def test_zero_keeps_kind_defaults(self):
        cfg = parse_experiment_config(config_text(slope_tol="0", ceiling="0"))
        assert experiments._slope_tolerance(cfg) == 0.35

    def test_rho_at_trend_smoothness_accepted(self):
        rho = parse_trend(WEIER).rho
        cfg = parse_experiment_config(
            config_text(kind="rate-alt", kernel=None, rho=repr(rho), trend=WEIER)
        )
        assert cfg.rho == rho


class TestTheoreticalRates:
    def test_main_values(self):
        assert math.isclose(theoretical_rate_main(1, 0.7), 40 / 23, rel_tol=1e-12)
        assert math.isclose(theoretical_rate_main(3, 0.7), 80 / 43, rel_tol=1e-12)
        assert math.isclose(theoretical_rate_main(0, 0.7), 20 / 13, rel_tol=1e-12)

    def test_alt_values(self):
        assert math.isclose(theoretical_rate_alt(2.0, 0.7), 20 / 13, rel_tol=1e-12)
        assert math.isclose(theoretical_rate_alt(1.4, 0.7), 8 / 7, rel_tol=1e-12)
        # the exponent of the noise factor eps^2 phi^{2H-2} under bandwidth_alt,
        # which stays below the bias exponent 2 rho/(rho-H)
        eps = 1e-3
        for rho, hurst in [(2.0, 0.7), (1.4, 0.7), (1.05, 0.9), (3.5, 0.55)]:
            phi = bandwidth_alt(eps, rho, hurst)
            noise = math.log(eps**2 * phi ** (2.0 * hurst - 2.0)) / math.log(eps)
            assert math.isclose(noise, 2.0 + (2.0 * hurst - 2.0) / (rho - hurst), rel_tol=1e-12)
            assert math.isclose(theoretical_rate_alt(rho, hurst), noise, rel_tol=1e-12)
            assert noise < 2.0 * rho / (rho - hurst)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 12])
    @pytest.mark.parametrize("hurst", [0.51, 0.6, 0.75, 0.9, 0.99])
    def test_main_cap_never_binds(self, k, hurst):
        assert theoretical_rate_main(k, hurst) < 2.0

    def test_domains(self):
        with pytest.raises(ValueError):
            theoretical_rate_main(-1, 0.7)
        with pytest.raises(ValueError):
            theoretical_rate_main(1, 0.4)
        with pytest.raises(ValueError):
            theoretical_rate_alt(0.6, 0.7)
        with pytest.raises(ValueError, match="exceed 1"):
            theoretical_rate_alt(1.0, 0.7)

    def test_side_condition_check(self):
        # main-rule bandwidths always satisfy both conditions
        consistency_side_conditions((0.2, 0.1), (0.59, 0.43), 0.7)
        with pytest.raises(ConditionViolated, match="bandwidth"):
            consistency_side_conditions((0.2, 0.1), (0.4, 0.5), 0.7)
        # tiny second bandwidth blows up the noise factor eps^2 phi^{2H-2}
        with pytest.raises(ConditionViolated, match="phi"):
            consistency_side_conditions((0.2, 0.1), (0.9, 0.0009), 0.7)


@pytest.fixture(scope="module")
def small_rate():
    return run_experiment(parse_experiment_config(GOOD_RATE))


@pytest.fixture(scope="module")
def small_consistency():
    cfg = parse_experiment_config(
        config_text(
            kind="consistency",
            trend="sin:0.5,0.8,3.0 | const:0.4",
            eps="0.2,0.05",
            n="512",
            seed="77",
        )
    )
    return run_experiment(cfg)


class TestRunners:
    def test_consistency_small(self, small_consistency):
        rep = small_consistency.report
        assert isinstance(rep, ConsistencyReport)
        assert rep.decreasing and rep.final_below and rep.passed
        assert all(s > 0 for s in rep.sup_mse)
        # default ceiling is a quarter of the first rung
        assert rep.ceiling == pytest.approx(rep.sup_mse[0] / 4)

    def test_explicit_ceiling_honored(self, small_consistency):
        cfg = small_consistency.config
        tight = ExperimentConfig(**{**_as_kwargs(cfg), "ceiling": 1e-12})
        rep = run_consistency(tight)
        assert not rep.final_below and not rep.passed

    def test_kind_dispatch_guards(self, small_consistency):
        cfg = small_consistency.config
        with pytest.raises(ValueError, match="kind"):
            run_rate(cfg)
        with pytest.raises(ValueError, match="kind"):
            run_clt(cfg)

    def test_rate_main_small(self, small_rate):
        rep = small_rate.report
        assert isinstance(rep, RateFit)
        # generous window: the point is that the fit lands near theory at all
        assert abs(rep.slope - rep.theoretical) < 0.6
        assert rep.passed
        assert rep.residual_norm < 1.0
        assert rep.tolerance == 0.35

    def test_clt_small(self):
        phi = 80 * 2**-12
        cfg = parse_experiment_config(
            config_text(
                kind="clt",
                trend="const:0.5",
                kernel="box:1",
                eps=repr(phi**1.3),
                replications="300",
                n="4096",
                horizon="1.0",
                window="0.45,0.55",
                t0="0.5",
                seed="2718",
            )
        )
        rep = run_experiment(cfg).report
        assert isinstance(rep, CltReport)
        # unit-width box: asymptotic variance is 1 for every H
        assert rep.sigma2 == pytest.approx(1.0, abs=1e-8)
        assert rep.mean_ok and rep.var_ok and rep.passed
        assert rep.count == 300

    def test_fit_degenerate(self, monkeypatch):
        cfg = parse_experiment_config(GOOD_RATE)
        monkeypatch.setattr(
            experiments, "_sup_mse_per_rung", lambda cfg, workers: np.zeros(len(cfg.ladder))
        )
        with pytest.raises(FitDegenerate):
            run_rate(cfg)

    def test_nan_block_raises_typed_error(self, monkeypatch):
        cfg = parse_experiment_config(GOOD_RATE)

        def nan_cell(cfg, rung, trend_idx):
            return lambda reps: np.full((len(reps), cfg.eval_points), np.nan)

        monkeypatch.setattr(experiments, "_cell", nan_cell)
        with pytest.raises(ReplicationFailure, match="NaN"):
            run_experiment(cfg)

    def test_pool_never_larger_than_task_list(self, monkeypatch, tmp_path):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return list(map(fn, *iterables))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = parse_experiment_config(
            config_text(kind="consistency", eps="0.2,0.05", n="64", seed="5")
        )
        cores = os.cpu_count() or 1
        real = run_experiment(cfg, workers=1000)  # no pool at all on one core
        assert sizes == ([min(cores, len(cfg.ladder) * cfg.replications)] if cores > 1 else [])
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: 1000)
        pooled = run_experiment(cfg, workers=1000)  # one replication per task
        assert sizes == [len(cfg.ladder) * cfg.replications]
        a = write_report(pooled, tmp_path / "pooled")
        b = write_report(run_experiment(cfg), tmp_path / "serial")
        c = write_report(real, tmp_path / "real")
        for pa, pb, pc in zip(a, b, c):
            assert open(pa, "rb").read() == open(pb, "rb").read() == open(pc, "rb").read()

    def test_workers_do_not_change_bytes(self, small_consistency, tmp_path):
        res2 = run_experiment(small_consistency.config, workers=2)
        a = write_report(small_consistency, tmp_path / "serial")
        b = write_report(res2, tmp_path / "pool")
        assert [os.path.basename(p) for p in a] == [os.path.basename(p) for p in b]
        for pa, pb in zip(a, b):
            assert open(pa, "rb").read() == open(pb, "rb").read()


def _as_kwargs(cfg):
    from dataclasses import asdict

    return asdict(cfg)


def per_replication_errors(cfg, rung, trend_idx, start, stop):
    """A cell's rows through the public per-path route: simulate, then estimate."""
    trend = parse_trend(cfg.trends[trend_idx], cfg.horizon)
    kernel = experiments._build_kernel(cfg)
    eps = cfg.ladder[rung]
    phi = experiments._bandwidth(cfg, kernel, eps)
    est = EstimatorConfig(kernel=kernel, bandwidth=phi, window=cfg.window,
                          horizon=cfg.horizon, eps=eps)
    pc = PathConfig(horizon=cfg.horizon, n=cfg.n, eps=eps, x0=cfg.x0,
                    order=cfg.q, hurst=cfg.hurst, m=cfg.m)
    ts = cfg.t0 if cfg.kind == "clt" else est.eval_grid(cfg.eval_points)
    estimates = []
    for r in range(start, stop):
        path = simulate_path(trend, pc, derive_seed(cfg.seed, rung, trend_idx, r))
        if cfg.kind == "rate-alt":
            estimates.append(alternate_estimate(path, est, ts, trend.bound, cfg.x0,
                                                cfg.variant, trend))
        else:
            estimates.append(kernel_estimate_product(path, est, ts))
    estimates = np.array(estimates).reshape(stop - start, -1)
    target = np.asarray(trend.value(ts), dtype=float)
    if cfg.kind != "rate-alt":
        grid = np.linspace(0.0, cfg.horizon, cfg.n + 1)
        target = target * np.interp(ts, grid, solve_ode(trend, cfg.x0, grid))
    if cfg.kind == "clt":
        k = kernel.order
        alpha = (k + 1.0) / (k - cfg.hurst + 2.0)
        center = target + phi ** (k + 1) * bias_center_term(trend, cfg.x0, cfg.t0, k, kernel)
        return eps ** (-alpha) * (estimates - center)
    return (estimates - target) ** 2


BLOCK_CASES = {
    "consistency-panel": (dict(kind="consistency", trend="sin:0.5,0.8,3.0 | const:0.4",
                               eps="0.2,0.05"), 1, 1),
    "rate-main-q2": (dict(q="2", kernel="legendre:2"), 2, 0),
    "clt": (dict(kind="clt", trend="const:0.5", kernel="box:1", eps="0.01",
                 horizon="1.0", window="0.45,0.55", t0="0.5"), 0, 0),
    "rate-alt-oracle": (dict(kind="rate-alt", kernel=None, rho="2.0",
                             variant="oracle"), 3, 0),
    "rate-alt-observable": (dict(kind="rate-alt", kernel=None, rho="2.0",
                                 variant="observable"), 1, 0),
}
# Started at x0 = +-0.15, 4 of the first 25 paths of rung 0 leave A_T, so the
# rate-alt cell's gate zeroes some rows and not others, for either sign.
GATED_CASES = {
    f"rate-alt-{variant}-x0={x0}": (dict(kind="rate-alt", kernel=None, rho="2.0",
                                         variant=variant, x0=x0), 0, 0)
    for variant in ("oracle", "observable") for x0 in ("0.15", "-0.15")
}
BLOCK_CASES.update(GATED_CASES)


def fold_tolerance(cfg, rung, trend_idx, start, stop, errors):
    """Per replication and eval point, how far the folded block may sit from ``errors``.

    The folded estimate c + B . z and the public route's weights . diff(X) / phi are
    both within about 2 n u (sum_j |W_j| / phi) M of the exact value, u = 2^-53, where
    M = max e^{I} (|x0| + eps sum_l e^{-I_l} |dZ_l|) bounds every partial sum of X's
    Stieltjes sum in absolute terms (see ``tests/test_sde.py::fold_bound``).  The
    tolerance is twice that, carried through the square of the sup-MSE kinds and
    the eps^{-alpha} scaling of clt.  At q = 1 the circulant transforms add about
    log2(2n) u per term on either route, far inside the tolerance at n >= 64
    (``tests/test_hermite.py::increments_bound`` covers any n).
    """
    trend = parse_trend(cfg.trends[trend_idx], cfg.horizon)
    est, _, ts = experiments._rung_setup(cfg, rung)
    eps, phi = cfg.ladder[rung], est.bandwidth
    grid = np.linspace(0.0, cfg.horizon, cfg.n + 1)
    weight_sums = np.abs(_weight_rows(grid, est.kernel, phi, ts)).sum(axis=1) / phi
    growth, decay = _growth_factors(trend, grid)
    pc = PathConfig(horizon=cfg.horizon, n=cfg.n, eps=eps, x0=cfg.x0,
                    order=cfg.q, hurst=cfg.hurst, m=cfg.m)
    bounds = []
    for r in range(start, stop):
        dz = np.diff(simulate_path(trend, pc, derive_seed(cfg.seed, rung, trend_idx, r)).noise)
        m = np.max(growth) * (abs(cfg.x0) + eps * np.sum(decay * np.abs(dz)))
        bounds.append(4 * cfg.n * 2.0**-53 * weight_sums * m)
    bound = np.array(bounds)
    if cfg.kind == "clt":
        k = est.kernel.order
        return eps ** (-(k + 1.0) / (k - cfg.hurst + 2.0)) * bound
    return bound * (2 * np.sqrt(errors) + bound)


class TestBlockEquivalence:
    """The cell's rows equal the per-path public route: bit for bit where it runs the
    public route's arithmetic (rate-alt), to the stated rounding bound where it folds the
    integrator and the sampler into its weights (the linear kinds)."""

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_block_rows_equal_public_route(self, case):
        overrides, rung, trend_idx = BLOCK_CASES[case]
        cfg = parse_experiment_config(config_text(**overrides))
        errors = experiments._cell(cfg, rung, trend_idx)
        block = errors(range(0, 25))
        assert block.shape == (25, 1 if cfg.kind == "clt" else cfg.eval_points)
        public = per_replication_errors(cfg, rung, trend_idx, 0, 25)
        if cfg.kind == "rate-alt":
            assert np.array_equal(block, public)
        else:
            tol = fold_tolerance(cfg, rung, trend_idx, 0, 25, public)
            np.testing.assert_array_less(np.abs(block - public), tol)
        if case in GATED_CASES:  # a gated row estimates 0, so its error is target^2
            ts = experiments._rung_setup(cfg, rung)[2]
            target = parse_trend(cfg.trends[trend_idx], cfg.horizon).value(ts)
            gated = np.all(block == target**2, axis=1)
            assert 0 < np.count_nonzero(gated) < len(block)
        # one cell draws any range, a one-row range (the size many workers give) included,
        # as a freshly built cell does, and carries nothing from one call to the next
        single = errors(range(7, 8))
        assert np.array_equal(single, block[7:8])
        fresh = experiments._cell(cfg, rung, trend_idx)
        assert np.array_equal(fresh(range(7, 8)), single)
        assert np.array_equal(fresh(range(0, 25)), block)
        assert np.array_equal(errors(range(0, 25)), block)

    def test_q1_cell_folds_once_for_any_number_of_ranges(self, monkeypatch):
        folds = []
        fold = hermite._fgn_fold
        monkeypatch.setattr(hermite, "_fgn_fold", lambda *args: folds.append(1) or fold(*args))
        cfg = parse_experiment_config(GOOD_RATE)
        assert cfg.q == 1
        errors = experiments._cell(cfg, 2, 0)
        blocks = [errors(range(start, start + 10)) for start in (0, 10, 20)]
        assert len(folds) == 1
        assert np.array_equal(np.concatenate(blocks), errors(range(0, 30)))


class TestReports:
    def test_rate_report_layout(self, small_rate, tmp_path):
        paths = write_report(small_rate, tmp_path)
        names = [os.path.basename(p) for p in paths]
        assert names == ["results.csv", "rate_fit.csv", "summary.txt"]
        results = open(paths[0]).read().splitlines()
        assert results[0] == "eps,sup_mse,log_eps,log_mse"
        assert len(results) == 5
        first = results[1].split(",")
        assert float(first[0]) == 0.125
        assert float(first[2]) == pytest.approx(math.log(0.125))
        fit = open(paths[1]).read().splitlines()
        assert fit[0] == "log_eps,log_mse,fitted,theory_line"
        assert len(fit) == 5

    def test_rate_summary_line(self, small_rate, tmp_path):
        summary = open(write_report(small_rate, tmp_path)[-1]).read()
        flat = [ln for ln in summary.splitlines() if not ln.startswith("#")]
        assert flat[0].startswith("slope=")
        assert ", theory=" in flat[0] and ", pass=True" in flat[0]

    def test_summary_echoes_resolved_config(self, small_consistency, tmp_path):
        summary = open(write_report(small_consistency, tmp_path)[-1]).read()
        # defaults show up even though the config file never set them
        assert "# x0 = 1" in summary
        assert "# eval_points = 21" in summary
        assert "# seed = 77" in summary
        assert "# trend = sin:0.5,0.8,3.0 | const:0.4" in summary

    def test_echo_round_trips(self, small_consistency, tmp_path):
        summary = open(write_report(small_consistency, tmp_path)[-1]).read()
        echoed = "\n".join(ln[2:] for ln in summary.splitlines() if ln.startswith("# "))
        assert parse_experiment_config(echoed) == small_consistency.config

    def test_consistency_summary_verdict(self, small_consistency, tmp_path):
        summary = open(write_report(small_consistency, tmp_path)[-1]).read()
        assert "decreasing=True" in summary
        assert "pass=True" in summary

    def test_reports_are_deterministic(self, small_consistency, tmp_path):
        a = write_report(small_consistency, tmp_path / "one")
        b = write_report(run_experiment(small_consistency.config), tmp_path / "two")
        for pa, pb in zip(a, b):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_clt_report_rows(self, tmp_path):
        phi = 80 * 2**-12
        cfg = parse_experiment_config(
            config_text(
                kind="clt",
                trend="const:0.5",
                kernel="box:1",
                eps=repr(phi**1.3),
                replications="100",
                n="2048",
                horizon="1.0",
                window="0.45,0.55",
                t0="0.5",
                seed="5",
            )
        )
        res = run_experiment(cfg)
        paths = write_report(res, tmp_path)
        rows = open(paths[0]).read().splitlines()
        assert rows[0] == "eps,statistic,value"
        stats = [row.split(",")[1] for row in rows[1:]]
        assert stats == ["count", "mean", "se", "variance", "sigma2", "var_lo", "var_hi"]


REPORT_SCRIPT = r'''
import sys
from hermite_trend import parse_experiment_config, run_experiment, write_report
cfg = parse_experiment_config(open(sys.argv[1]).read())
for path in write_report(run_experiment(cfg, workers=1), sys.argv[2]):
    print(path)
'''


class TestBlasThreads:
    """Report bytes do not depend on how many threads BLAS runs.

    OpenBLAS splits a dot product of more than 10000 terms over its threads, and the
    split changes the rounding.  At n = 16384 every weighted sum of a clt cell is that
    long (2n at q = 1, n at q = 2).  A q = 1 rate-main cell at n = 4096 turns each
    block of paths into 21 rows with one matrix product, which OpenBLAS threads too.
    So each config is run in a fresh interpreter under one and under two OpenBLAS
    threads.
    """

    @staticmethod
    def reports_by_threads(config, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            out = tmp_path / f"threads{threads}"
            done = subprocess.run([sys.executable, "-c", REPORT_SCRIPT, str(config), str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            reports.append({os.path.basename(p): open(p, "rb").read()
                            for p in done.stdout.split()})
        return reports

    @pytest.mark.parametrize("q", [1, 2])
    def test_clt_report_bytes_equal_across_blas_threads(self, q, tmp_path):
        config = tmp_path / "clt.txt"
        config.write_text(config_text(  # eps = 0.05: phi = 0.27, so 8900 nonzero weights
            kind="clt", trend="const:0.5", q=str(q), kernel="box:1", eps="0.05",
            replications="100", n="16384", m="16384" if q > 1 else None, horizon="1.0",
            window="0.45,0.55", t0="0.5", seed="953"))
        reports = self.reports_by_threads(config, tmp_path)
        assert reports[0].keys() == {"results.csv", "summary.txt"}
        assert reports[0] == reports[1]

    def test_rate_main_q1_report_bytes_equal_across_blas_threads(self, tmp_path):
        config = tmp_path / "rate.txt"
        config.write_text(config_text(n="4096", seed="953"))
        assert parse_experiment_config(config.read_text()).eval_points == 21
        reports = self.reports_by_threads(config, tmp_path)
        assert reports[0].keys() == {"results.csv", "rate_fit.csv", "summary.txt"}
        assert reports[0] == reports[1]
