"""Property tests for the text parsers: the program's input surface."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hermite_trend import cli
from hermite_trend.estimators import bandwidth_alt, bandwidth_main
from hermite_trend.experiments import (
    _CLT_COLUMNS,
    _KEY_TYPES,
    _SUP_MSE_COLUMNS,
    ConditionViolated,
    ExperimentConfig,
    _config_lines,
    _rung_setup,
    consistency_side_conditions,
    parse_experiment_config,
)
from hermite_trend.trends import parse_trend
from hermite_trend.validation import ParameterError

FEW = settings(max_examples=60, deadline=None)

TRENDS = ("const:0.5", "sin:0.5,0.8,3.0", "poly:1,-0.5,0.25", "weier:0.3,0.5,3,12")
KERNELS = ("legendre:0", "legendre:3", "box:1", "box:0.5")


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def experiment_fields(draw):
    """(ExperimentConfig fields, each rung's bandwidth): every rung's kernel reach fits the window.

    The ladder need not have the rate its kind asks for; ``experiment_configs`` assumes it.
    """
    kind = draw(st.sampled_from(("consistency", "rate-main", "clt", "rate-alt")))
    hurst = draw(_floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    if kind == "clt":
        trends = (draw(st.sampled_from(TRENDS)),)
    else:
        trends = tuple(draw(st.lists(st.sampled_from(TRENDS), min_size=1, max_size=3)))
    rough = any(t.startswith("weier") for t in trends)  # rho = 1 + gamma = 1.63...
    extra, floor = {}, 0.0
    if kind == "rate-alt":
        top = min(t.rho for t in (parse_trend(t) for t in trends))
        # rho <= 1 leaves the alt rule without a rate; draw it as often as not
        lo, hi = (1.0, min(top, 5.0)) if draw(st.booleans()) else (hurst, 1.0)
        extra["rho"] = draw(_floats(lo, hi, exclude_min=True))
        extra["variant"] = draw(st.sampled_from(("observable", "oracle")))
        # above this eps, phi = eps^{1/(rho-H)} does not underflow below the least normal float
        floor = np.finfo(float).tiny ** (extra["rho"] - hurst)
    rungs = {"consistency": (2, 5), "rate-main": (4, 6), "rate-alt": (4, 6), "clt": (1, 1)}
    ladder = sorted(
        draw(st.sets(_floats(floor, 1.0, exclude_min=True),
                     min_size=rungs[kind][0], max_size=rungs[kind][1])),
        reverse=True,
    )
    if kind == "rate-alt":
        bandwidths = [bandwidth_alt(e, extra["rho"], hurst) for e in ladder]
        reach = bandwidths[0]  # support [-1, 1]
    else:
        # the clt bias term needs theta^{(k+1)}, which weier certifies for k = 0 only
        kernels = ("legendre:0", "box:1", "box:0.5") if kind == "clt" and rough else KERNELS
        extra["kernel"] = draw(st.sampled_from(kernels))
        head, _, arg = extra["kernel"].partition(":")
        k, hi = (int(arg), 1.0) if head == "legendre" else (0, float(arg) / 2)
        bandwidths = [bandwidth_main(e, k, hurst) for e in ladder]  # phi >= eps: k - H + 2 > 1
        reach = hi * bandwidths[0]  # the widest rung
    horizon = draw(_floats(max(0.5, 2.5 * reach), 10.0))
    u, v = sorted(draw(st.lists(_floats(0.01, 0.99), min_size=2, max_size=2)))
    window = (reach + u * (horizon - 2 * reach), reach + v * (horizon - 2 * reach))
    if kind == "clt":
        extra["t0"] = draw(_floats(*window))
    n = draw(st.integers(64, 10**6))
    fields = dict(
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
    return fields, bandwidths


def _has_its_rate(fields, bandwidths) -> bool:
    """rho > 1 for rate-alt; phi and eps^2 phi^{2H-2} falling for consistency and rate-alt."""
    if fields["kind"] == "rate-alt" and not fields["rho"] > 1.0:
        return False
    if fields["kind"] in ("consistency", "rate-alt"):
        try:
            consistency_side_conditions(fields["ladder"], bandwidths, fields["hurst"])
        except ConditionViolated:
            return False  # e.g. a subnormal eps, whose eps^2 rounds to 0 on every rung
    return True


@st.composite
def experiment_configs(draw):
    """Configs that can run: the reach fits the window and the ladder has its kind's rate."""
    fields, bandwidths = draw(experiment_fields())
    assume(_has_its_rate(fields, bandwidths))
    return ExperimentConfig(**fields)


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


@FEW
@given(experiment_fields())
def test_config_is_built_or_names_a_key(drawn):
    # without the rate assumption: a ladder without its rate is refused under a config key
    # (ConditionViolated names eps), never as a bare ValueError
    fields, bandwidths = drawn
    try:
        ExperimentConfig(**fields)
    except ParameterError as exc:
        assert exc.field in _KEY_TYPES, exc
        assert not _has_its_rate(fields, bandwidths), exc
    else:
        assert _has_its_rate(fields, bandwidths)


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


# The CSV readers of `estimate --in` and `report --in` exit 0 or 2 on any
# file: bad input is a usage error, never a runtime failure (3) or a raise.
# The files are mostly well formed, so most examples get past the first line
# check; strategies are built once, since building them per draw costs more
# than the command itself.
FILES = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

junk_lines = st.one_of(st.floats().map(repr), st.integers(-10, 10**6).map(str),
                       st.text(max_size=30))
edits = st.sampled_from(("none", "none", "replace", "insert"))
path_fields = st.tuples(
    st.one_of(_floats(0.5, 10.0), st.floats(-1.0, 0.5)),  # horizon
    st.integers(64, 72),  # n, at PathConfig's floor
    _floats(0.0, 1.0),  # eps
    _floats(0.45, 1.05),  # hurst
    _floats(-5.0, 5.0),  # x0
    st.one_of(st.none(), st.integers(1, 9)),  # q
    st.integers(0, 2**32 - 1),  # seed of the data columns
)
result_fields = {"statistic": st.sampled_from(("mean", "se", "count"))}
result_number = _floats(-1e3, 1e3).map(repr)
summary_lines = st.lists(st.sampled_from(("pass=True", "slope=-1.2, pass=False", "# x = 1")),
                         max_size=3)


def _edit_one_line(draw, lines):
    """lines as drawn, or with one line replaced or inserted at random."""
    edit = draw(edits)
    if edit != "none":
        at = draw(st.integers(0, len(lines)))
        lines[at:at + (edit == "replace")] = [draw(junk_lines)]
    return "\n".join(lines) + "\n"


@st.composite
def path_csvs(draw):
    """simulate-shaped files: a header, the t,Z,x,X line and n+1 rows on the header's grid."""
    horizon, n, eps, hurst, x0, q, seed = draw(path_fields)
    header = [f"# horizon = {horizon!r}", f"# eps = {eps!r}", f"# hurst = {hurst!r}",
              f"# x0 = {x0!r}"] + ([] if q is None else [f"# q = {q}"])
    # Drawing 3(n+1) floats one by one would dominate the test's time.
    data = np.random.default_rng(seed).normal(size=(n + 1, 3))
    rows = [",".join(repr(float(v)) for v in (t, *zxy))
            for t, zxy in zip(np.linspace(0.0, horizon, n + 1), data)]
    return _edit_one_line(draw, header + ["t,Z,x,X"] + rows)


@FILES
@given(path_csvs())
def test_estimate_reader_exits_zero_or_two(tmp_path, text):
    infile = tmp_path / "path.csv"
    infile.write_text(text, encoding="utf-8")
    code = cli.main(["estimate", "--in", str(infile), "--out", str(tmp_path / "est.csv")])
    assert code in (0, 2)


@st.composite
def report_dirs(draw):
    """(results.csv, summary.txt) texts shaped like write_report's."""
    columns = draw(st.sampled_from((_SUP_MSE_COLUMNS, _CLT_COLUMNS)))
    rows = [",".join(draw(result_fields.get(c, result_number)) for c in columns)
            for _ in range(draw(st.integers(0, 5)))]
    return (_edit_one_line(draw, [",".join(columns)] + rows),
            _edit_one_line(draw, draw(summary_lines)))


@FILES
@given(report_dirs())
def test_report_reader_exits_zero_or_two(tmp_path, texts):
    for name, text in zip(("results.csv", "summary.txt"), texts):
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert cli.main(["report", "--in", str(tmp_path)]) in (0, 2)
