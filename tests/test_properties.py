"""Property tests for the text parsers: the program's input surface."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_trend.experiments import (
    _KEY_TYPES,
    ExperimentConfig,
    _config_lines,
    parse_experiment_config,
)
from hermite_trend.trends import parse_trend

FEW = settings(max_examples=60, deadline=None)

TRENDS = ("const:0.5", "sin:0.5,0.8,3.0", "poly:1,-0.5,0.25", "weier:0.3,0.5,3,12")


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def experiment_configs(draw):
    kind = draw(st.sampled_from(("consistency", "rate-main", "clt", "rate-alt")))
    hurst = draw(_floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    rungs = {"consistency": (2, 5), "rate-main": (4, 6), "rate-alt": (4, 6), "clt": (1, 1)}
    ladder = sorted(
        draw(st.sets(_floats(0.0, 1.0, exclude_min=True),
                     min_size=rungs[kind][0], max_size=rungs[kind][1])),
        reverse=True,
    )
    horizon = draw(_floats(0.5, 10.0))
    a, b = sorted(draw(st.lists(_floats(0.01, 0.99), min_size=2, max_size=2)))
    window = (a * horizon, b * horizon)
    extra = {}
    if kind == "rate-alt":
        extra["rho"] = draw(_floats(hurst, 5.0, exclude_min=True))
        extra["variant"] = draw(st.sampled_from(("observable", "oracle")))
    else:
        extra["kernel"] = draw(st.sampled_from(("legendre:0", "legendre:3", "box:1", "box:0.5")))
    if kind == "clt":
        trends = (draw(st.sampled_from(TRENDS)),)
        extra["t0"] = draw(_floats(*window))
    else:
        trends = tuple(draw(st.lists(st.sampled_from(TRENDS), min_size=1, max_size=3)))
    return ExperimentConfig(
        kind=kind,
        trends=trends,
        q=draw(st.integers(1, 8)),
        hurst=hurst,
        ladder=tuple(ladder),
        replications=draw(st.integers(100, 10**6)),
        n=draw(st.integers(64, 10**6)),
        horizon=horizon,
        window=window,
        seed=draw(st.integers(-(2**63), 2**63)),
        x0=draw(_floats(-1e6, 1e6)),
        m=draw(st.integers(0, 10**7)),
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
