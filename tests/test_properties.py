"""Property tests for the text parsers: the program's input surface."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hermite_trend.estimators import bandwidth_alt, bandwidth_main
from hermite_trend.experiments import (
    _KEY_TYPES,
    ExperimentConfig,
    _config_lines,
    _rung_setup,
    parse_experiment_config,
)
from hermite_trend.trends import parse_trend

FEW = settings(max_examples=60, deadline=None)

TRENDS = ("const:0.5", "sin:0.5,0.8,3.0", "poly:1,-0.5,0.25", "weier:0.3,0.5,3,12")
KERNELS = ("legendre:0", "legendre:3", "box:1", "box:0.5")


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def experiment_configs(draw):
    """Configs that can run: every rung's kernel reach fits the window."""
    kind = draw(st.sampled_from(("consistency", "rate-main", "clt", "rate-alt")))
    hurst = draw(_floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    rungs = {"consistency": (2, 5), "rate-main": (4, 6), "rate-alt": (4, 6), "clt": (1, 1)}
    ladder = sorted(
        draw(st.sets(_floats(0.0, 1.0, exclude_min=True),
                     min_size=rungs[kind][0], max_size=rungs[kind][1])),
        reverse=True,
    )
    if kind == "clt":
        trends = (draw(st.sampled_from(TRENDS)),)
    else:
        trends = tuple(draw(st.lists(st.sampled_from(TRENDS), min_size=1, max_size=3)))
    rough = any(t.startswith("weier") for t in trends)  # rho = 1 + gamma = 1.63...
    extra = {}
    if kind == "rate-alt":
        top = min(t.rho for t in (parse_trend(t) for t in trends))
        extra["rho"] = draw(_floats(hurst, min(top, 5.0), exclude_min=True))
        extra["variant"] = draw(st.sampled_from(("observable", "oracle")))
        bandwidths = [bandwidth_alt(e, extra["rho"], hurst) for e in ladder]
        reach = bandwidths[0]  # support [-1, 1]
    else:
        # the clt bias term needs theta^{(k+1)}, which weier certifies for k = 0 only
        kernels = ("legendre:0", "box:1", "box:0.5") if kind == "clt" and rough else KERNELS
        extra["kernel"] = draw(st.sampled_from(kernels))
        head, _, arg = extra["kernel"].partition(":")
        k, hi = (int(arg), 1.0) if head == "legendre" else (0, float(arg) / 2)
        bandwidths = [bandwidth_main(e, k, hurst) for e in ladder]
        reach = hi * bandwidths[0]  # the widest rung
    assume(bandwidths[-1] > 0)  # eps^{1/(rho-H)} can underflow
    horizon = draw(_floats(max(0.5, 2.5 * reach), 10.0))
    u, v = sorted(draw(st.lists(_floats(0.01, 0.99), min_size=2, max_size=2)))
    window = (reach + u * (horizon - 2 * reach), reach + v * (horizon - 2 * reach))
    if kind == "clt":
        extra["t0"] = draw(_floats(*window))
    n = draw(st.integers(64, 10**6))
    return ExperimentConfig(
        kind=kind,
        trends=trends,
        q=draw(st.integers(1, 8)),
        hurst=hurst,
        ladder=tuple(ladder),
        replications=draw(st.integers(100, 10**6)),
        n=n,
        horizon=horizon,
        window=window,
        seed=draw(st.integers(0, 2**63)),
        x0=draw(_floats(-1e6, 1e6).filter(lambda x0: x0 != 0)),
        m=draw(st.one_of(st.just(0), st.integers(n, 10**7))),
        eval_points=draw(st.integers(1, 100)),
        ceiling=draw(_floats(0.0, 1e3)),
        slope_tol=draw(_floats(0.0, 2.0)),
        var_tol=draw(_floats(0.0, 1.0)),
        **extra,
    )


@FEW
@given(experiment_configs())
def test_config_echo_reparses_to_equal_config(cfg):
    echoed = "\n".join(line[2:] for line in _config_lines(cfg))
    assert parse_experiment_config(echoed) == cfg


@FEW
@given(experiment_configs())
def test_accepted_config_builds_every_rung(cfg):
    for rung in range(len(cfg.ladder)):
        est, spec, ts = _rung_setup(cfg, rung)
        assert spec.m >= spec.n == cfg.n
        assert np.all((cfg.window[0] <= np.asarray(ts)) & (np.asarray(ts) <= cfg.window[1]))


# Lines shaped like config entries reach the per-key conversions and the
# cross-field checks, which free text almost never does.
config_lines = st.one_of(
    st.text(max_size=40),
    st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(sorted(_KEY_TYPES)),
              st.text(max_size=20)),
)


@FEW
@given(st.lists(config_lines, max_size=25))
def test_config_parser_raises_only_value_error(lines):
    try:
        parse_experiment_config("\n".join(lines))
    except ValueError:
        pass


trend_texts = st.one_of(
    st.text(max_size=40),
    st.builds(lambda kind, args: f"{kind}:" + ",".join(args),
              st.sampled_from(("const", "sin", "poly", "weier", "spline")),
              st.lists(st.one_of(st.text(max_size=8), st.floats().map(repr),
                                 st.integers(-10, 10**6).map(str)), max_size=5)),
)


@FEW
@given(trend_texts, _floats(0.1, 10.0))
def test_trend_parser_raises_only_value_error(text, horizon):
    try:
        parse_trend(text, horizon)
    except ValueError:
        pass
