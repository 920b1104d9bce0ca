"""Replicated Monte Carlo experiments over the estimator stack.

Four experiment kinds:

* ``consistency``  — sup-MSE of the product estimate along a decreasing eps
  ladder must fall monotonically and end below a ceiling.
* ``rate-main``    — OLS slope of log sup-MSE on log eps against the
  theoretical exponent min(2, 2(k+1)/(k+2-H)).
* ``rate-alt``     — same regression for the truncated estimator against
  2 - (2-2H)/(rho-H), the exponent its bandwidth rule delivers (rho > 1).
* ``clt``          — mean/variance of the normalized error at one interior t
  against the kernel's asymptotic variance.

``ExperimentConfig`` checks every key as it is built, the ladder's side
conditions and rate-alt's rho > 1 included, and names the key of each rejection
(a ``ParameterError``), so the runners only gather, reduce and report.
Everything downstream of an ExperimentConfig (master seed included) is a pure
function, so reports are byte-identical across reruns and worker counts:
replication r of rung i, trend j always draws from the stream derived from
(seed, i, j, r), and results land in a preallocated array by index before any
reduction happens.

Each check is a grid of (rung, trend) cells.  ``_cell`` builds a cell once and
returns ``errors(reps)`` for any replication range.  A built cell is read-only:
every buffer (the path drawer, the normals or increments, the rate-alt path)
belongs to one call of ``errors``, so one cell serves any number of ranges and
could serve several threads at once.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .estimators import (
    EstimatorConfig,
    _truncated_estimator,
    _weight_rows,
    bandwidth_alt,
    bandwidth_main,
    bias_center_term,
)
from .hermite import increment_sums, replicate
from .kernels import asymptotic_variance, box_kernel, vanishing_moment_kernel
from .rng import derive_seed
from .sde import PathConfig, _fold_integrator, _growth_factors, _variation_of_constants
from .trends import DerivativeUnavailable, parse_trend
from .validation import ParameterError, check_hurst

__all__ = [
    "ConditionViolated",
    "FitDegenerate",
    "ReplicationFailure",
    "ExperimentConfig",
    "ConsistencyReport",
    "RateFit",
    "CltReport",
    "ExperimentResult",
    "parse_experiment_config",
    "load_experiment_config",
    "theoretical_rate_main",
    "theoretical_rate_alt",
    "consistency_side_conditions",
    "run_consistency",
    "run_rate",
    "run_clt",
    "run_experiment",
    "write_report",
]

KINDS = ("consistency", "rate-main", "clt", "rate-alt")


class ConditionViolated(ParameterError):
    """A side condition needed for consistency fails for the configured ladder (field eps)."""


class FitDegenerate(RuntimeError):
    """Log-log regression impossible (nonpositive sup-MSE at some rung)."""


class ReplicationFailure(RuntimeError):
    """A gathered replication result is NaN (a cell left unfilled or a NaN error)."""


# ---------------------------------------------------------------- config ---


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    trends: tuple  # trend grammar strings; >1 entry = panel sup
    q: int
    hurst: float
    ladder: tuple  # eps values, strictly decreasing
    replications: int
    n: int
    horizon: float
    window: tuple
    seed: int
    kernel: str = ""  # "legendre:<k>" or "box:<width>"; alt kinds derive it
    rho: float = 0.0  # rate-alt only
    x0: float = 1.0
    m: int = 0  # Hermite rank-grid size; 0 = 8n
    eval_points: int = 21
    t0: float = 0.0  # clt only
    variant: str = "observable"  # rate-alt only
    ceiling: float = 0.0  # consistency only; 0 = first rung / 4
    slope_tol: float = 0.0  # 0 = kind default (0.35 main / 0.5 alt)
    var_tol: float = 0.25  # clt only

    def __post_init__(self):
        """Check every key before any path: build what each rung of the run builds."""
        if self.kind not in KINDS:
            raise ParameterError("kind", f"must be one of {'|'.join(KINDS)}, got {self.kind!r}")
        if not self.trends:
            raise ParameterError("trend", "needs at least one trend")
        trends = [parse_trend(t, self.horizon) for t in self.trends]
        if self.replications < 100:
            raise ParameterError("replications", f"must be >= 100, got {self.replications}")
        if any(a <= b for a, b in zip(self.ladder, self.ladder[1:])):
            raise ParameterError("eps", "ladder must be strictly decreasing")
        rungs = len(self.ladder)
        min_rungs = {"consistency": 2, "rate-main": 4, "rate-alt": 4, "clt": 1}[self.kind]
        if rungs < min_rungs:
            raise ParameterError("eps", f"{self.kind} needs >= {min_rungs} rungs, got {rungs}")
        if self.kind == "clt" and rungs > 1:
            raise ParameterError("eps", "ladder for clt takes exactly 1 eps value")
        if self.kind == "rate-alt":
            if self.variant not in ("observable", "oracle"):
                raise ParameterError("variant", f"must be observable|oracle, got {self.variant!r}")
            if self.kernel:
                raise ParameterError("kernel", "rate-alt derives it from rho; drop the kernel key")
        for key in ("ceiling", "slope_tol", "var_tol"):  # 0 = kind default for the first two
            if getattr(self, key) < 0:
                raise ParameterError(key, f"must be >= 0, got {getattr(self, key)}")
        try:
            ests = [_rung_setup(self, rung)[0] for rung in range(rungs)]
            derive_seed(self.seed)  # every stream of the run derives from it
            if self.kind == "rate-alt":
                theoretical_rate_alt(self.rho, self.hurst)  # rho > 1, or the rule has no rate
        except ParameterError as exc:  # rate-alt derives the kernel order k from rho
            alt_k = exc.field == "k" and self.kind == "rate-alt"
            raise exc.renamed("rho" if alt_k else _FIELD_KEYS.get(exc.field, exc.field)) from exc
        if self.kind in ("consistency", "rate-alt"):
            consistency_side_conditions(self.ladder, [e.bandwidth for e in ests], self.hurst)
        smoothness = min(t.rho for t in trends)  # k + gamma; inf for smooth trends
        if self.kind == "rate-alt" and self.rho > smoothness:
            raise ParameterError("rho", f"must not exceed the trend smoothness {smoothness:.6g}, "
                                 f"got {self.rho}")
        if self.kind == "clt":
            if len(self.trends) != 1:
                raise ParameterError("trend", "for clt must be a single trend, not a panel")
            a, b = self.window
            if not a <= self.t0 <= b:
                raise ParameterError("t0", f"must lie in the window [{a}, {b}], got {self.t0}")
            try:  # the bias centre needs theta^{(k+1)}
                trends[0].derivative(ests[0].kernel.order + 1)
            except DerivativeUnavailable as exc:
                raise ParameterError("kernel", f"needs more trend smoothness for the clt bias "
                                     f"term: {exc}") from exc


# Layer field -> config key, where the layer names the field differently.
_FIELD_KEYS = {"order": "q", "master_seed": "seed", "bandwidth": "eps",
               "points": "eval_points", "k": "kernel", "width": "kernel"}


def _build_kernel(cfg: ExperimentConfig):
    if cfg.kind == "rate-alt":
        # rho = k + gamma with gamma in (0, 1]
        return vanishing_moment_kernel(math.ceil(cfg.rho) - 1)
    head, _, arg = cfg.kernel.partition(":")
    try:
        value = int(arg) if head == "legendre" else float(arg)
    except ValueError:
        value = None
    if head not in ("legendre", "box") or value is None:
        raise ParameterError(
            "kernel", f"must be 'legendre:<order>' or 'box:<width>', got {cfg.kernel!r}"
        )
    return vanishing_moment_kernel(value) if head == "legendre" else box_kernel(value)


def _bandwidth(cfg: ExperimentConfig, kernel, eps: float) -> float:
    if cfg.kind == "rate-alt":
        return bandwidth_alt(eps, cfg.rho, cfg.hurst)
    return bandwidth_main(eps, kernel.order, cfg.hurst)


def _rung_setup(cfg: ExperimentConfig, rung: int) -> tuple:
    """(EstimatorConfig with kernel and bandwidth, HermiteSpec, eval times) of a rung."""
    kernel = _build_kernel(cfg)
    eps = cfg.ladder[rung]
    phi = _bandwidth(cfg, kernel, eps)
    spec = PathConfig(horizon=cfg.horizon, n=cfg.n, eps=eps, x0=cfg.x0,
                      order=cfg.q, hurst=cfg.hurst, m=cfg.m).hermite_spec()
    est = EstimatorConfig(kernel=kernel, bandwidth=phi, window=cfg.window, horizon=cfg.horizon)
    grid = est.eval_grid(cfg.eval_points)  # checks eval_points for every kind
    return est, spec, cfg.t0 if cfg.kind == "clt" else grid


def _slope_tolerance(cfg: ExperimentConfig) -> float:
    if cfg.slope_tol > 0:
        return cfg.slope_tol
    return 0.5 if cfg.kind == "rate-alt" else 0.35


# Each field is one config key, of the field's type; the tuples are parsed from text.
_KEY_OF = {"trends": "trend", "ladder": "eps"}
_KEY_TYPES = {_KEY_OF.get(f.name, f.name): {"int": int, "float": float}.get(f.type, str)
              for f in fields(ExperimentConfig)}
_REQUIRED_KEYS = tuple(_KEY_OF.get(f.name, f.name) for f in fields(ExperimentConfig)
                       if f.default is MISSING)


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value grammar (# comments, one key per line)."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError(f"line {lineno}: expected key = value, got {line.strip()!r}")
        if key not in _KEY_TYPES:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ValueError(f"line {lineno}: empty value for {key!r}")
        try:
            raw[key] = _KEY_TYPES[key](value)
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: cannot read {key!r} as {_KEY_TYPES[key].__name__}: {value!r}"
            ) from exc
        if isinstance(raw[key], float) and not math.isfinite(raw[key]):
            raise ValueError(f"line {lineno}: {key!r} must be finite, got {value!r}")
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    try:
        ladder = tuple(float(tok) for tok in raw["eps"].split(","))
        window = tuple(float(tok) for tok in raw["window"].split(","))
    except ValueError as exc:
        raise ValueError(f"eps/window must be comma-separated numbers: {exc}") from exc
    trends = tuple(tok.strip() for tok in raw["trend"].split("|"))
    kwargs = {key: value for key, value in raw.items() if key not in ("trend", "eps", "window")}
    return ExperimentConfig(**kwargs, trends=trends, ladder=ladder, window=window)


def load_experiment_config(path) -> ExperimentConfig:
    with open(path, "r") as fh:
        return parse_experiment_config(fh.read())


# --------------------------------------------------------- theory values ---


def theoretical_rate_main(k: int, hurst: float) -> float:
    """MSE decay exponent min(2, 2(k+1)/(k+2-H)); the cap never binds for H<1."""
    if k < 0:
        raise ValueError(f"kernel order must be >= 0, got {k}")
    check_hurst(hurst)
    return min(2.0, 2.0 * (k + 1) / (k + 2.0 - hurst))


def theoretical_rate_alt(rho: float, hurst: float) -> float:
    """MSE decay exponent 2 - (2-2H)/(rho-H) for the truncated estimator.

    The MSE is bias^2 + smoothed noise, of order phi^{2 rho} + eps^2 phi^{2H-2}.
    Under the alt rule phi = eps^{1/(rho-H)} the bias term decays as
    eps^{2 rho/(rho-H)} and the noise term as eps^{2 + (2H-2)/(rho-H)}, i.e.
    eps^{2(rho-1)/(rho-H)}.  The noise exponent is the smaller of the two for
    every rho, so it sets the rate.  It is positive only for rho > 1; for
    H < rho <= 1 the noise term does not shrink with eps and there is no rate.
    """
    check_hurst(hurst)
    if not rho > hurst:
        raise ParameterError("rho", f"must exceed hurst (rho > hurst), got rho={rho}, H={hurst}")
    if not rho > 1.0:
        raise ParameterError("rho", f"must exceed 1 for the alt rule to have a rate, got {rho}")
    return 2.0 - (2.0 - 2.0 * hurst) / (rho - hurst)


# -------------------------------------------------------------- reports ----


@dataclass(frozen=True)
class ConsistencyReport:
    eps: tuple
    sup_mse: tuple
    ceiling: float
    decreasing: bool
    final_below: bool
    passed: bool


@dataclass(frozen=True)
class RateFit:
    eps: tuple
    sup_mse: tuple
    log_eps: tuple
    log_mse: tuple
    slope: float
    intercept: float
    residual_norm: float
    theoretical: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class CltReport:
    eps: float
    count: int
    mean: float
    se: float
    variance: float
    sigma2: float
    var_lo: float
    var_hi: float
    mean_ok: bool
    var_ok: bool
    passed: bool


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    report: object  # one of the three report types

    @property
    def passed(self) -> bool:
        return self.report.passed


# ---------------------------------------------------------- replications ---


def _cell(cfg: ExperimentConfig, rung: int, trend_idx: int):
    """errors(reps) -> estimator errors of one (rung, trend) cell for the replications in reps.

    Rows are replications, columns evaluation points.  The sup-MSE kinds
    return squared errors on the eval grid; clt (rung 0, trend 0) returns the
    normalized error eps^{-alpha} (est - J(t0) - phi^{k+1} bias) at t0.

    The cell holds the trend integral and its growth factors, the target and
    the kernel weight matrix.  The product estimate of the linear kinds is
    affine in the driving noise, c + A . diff(Z) (``sde._fold_integrator``):
    the cell folds the integrator into its weight rows and hands them to
    ``increment_sums``, which at q = 1 folds the circulant FFT into them as
    well.  It equals ``kernel_estimate_product`` on ``simulate_sde``'s path to
    rounding.  The truncated estimator of rate-alt is not linear in the noise
    (the indicator, the division by X); the cell builds it once
    (``estimators._truncated_estimator``, as ``alternate_estimate`` does), and
    each path ``replicate`` draws is integrated into a buffer of the call, as
    ``simulate_sde`` integrates it, and handed to that estimator.
    """
    trend = parse_trend(cfg.trends[trend_idx], cfg.horizon)
    est, spec, ts = _rung_setup(cfg, rung)
    kernel, phi, eps = est.kernel, est.bandwidth, cfg.ladder[rung]
    grid = np.linspace(0.0, cfg.horizon, cfg.n + 1)
    growth, decay = _growth_factors(trend, grid)
    target = trend.value(ts)
    key = (rung, trend_idx)
    if cfg.kind == "rate-alt":
        truncated = _truncated_estimator(grid, kernel, phi, ts, cfg.x0, trend.bound,
                                         cfg.variant, trend, eps, cfg.horizon)

        def estimates(reps: range) -> np.ndarray:
            x = np.empty(cfg.n + 1)

            def estimate(z):
                _variation_of_constants(growth, decay, cfg.x0, eps, z, out=x)
                return truncated(x, z)

            return replicate(spec, cfg.seed, key, reps, estimate)
    else:  # the product estimate targets theta(t) x(t)
        target = target * np.interp(ts, grid, cfg.x0 * growth)
        weights = _weight_rows(grid, kernel, phi, ts)
        offset, fold = _fold_integrator(weights, growth, decay, cfg.x0, eps, phi)
        sums = increment_sums(spec, fold)

        def estimates(reps: range) -> np.ndarray:
            return offset + sums(cfg.seed, key, reps)
    if cfg.kind == "clt":
        k = kernel.order
        alpha = (k + 1.0) / (k - cfg.hurst + 2.0)
        center = target + phi ** (k + 1) * bias_center_term(trend, cfg.x0, cfg.t0, k, kernel)
        return lambda reps: eps ** (-alpha) * (estimates(reps) - center)
    return lambda reps: (estimates(reps) - target) ** 2


def _block(cfg: ExperimentConfig, rung: int, trend_idx: int, reps: range) -> np.ndarray:
    """One task of ``_gather``: the cell is built where its errors are drawn."""
    return _cell(cfg, rung, trend_idx)(reps)


def _gather(cfg: ExperimentConfig, workers: int) -> np.ndarray:
    """All replication results, indexed (rung, trend, rep, eval point)."""
    n_rungs, n_trends, reps = len(cfg.ladder), len(cfg.trends), cfg.replications
    points = 1 if cfg.kind == "clt" else cfg.eval_points
    out = np.full((n_rungs, n_trends, reps, points), np.nan)
    # one range per cell and worker, and never more workers than cores
    workers = min(workers, os.cpu_count() or 1)
    chunk = max(1, -(-reps // max(workers, 1)))
    tasks = [
        (rung, trend_idx, range(start, min(start + chunk, reps)))
        for rung in range(n_rungs)
        for trend_idx in range(n_trends)
        for start in range(0, reps, chunk)
    ]
    args = [cfg] * len(tasks), *zip(*tasks)
    if workers <= 1:
        blocks = map(_block, *args)
    else:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            blocks = list(pool.map(_block, *args))
    for (rung, trend_idx, span), rows in zip(tasks, blocks):
        out[rung, trend_idx, span.start:span.stop] = rows
    if np.isnan(out).any():
        raise ReplicationFailure(
            f"{int(np.isnan(out).sum())} of {out.size} replication results are NaN"
        )
    return out


# ------------------------------------------------------------- runners -----


def _sup_mse_per_rung(cfg: ExperimentConfig, workers: int) -> np.ndarray:
    blocks = _gather(cfg, workers)
    # mean over replications first (per t), then sup over trends and t
    mse = blocks.mean(axis=2)
    return mse.max(axis=(1, 2))


def consistency_side_conditions(ladder, bandwidths, hurst: float) -> None:
    """Require phi and eps^2 phi^{2H-2} to fall strictly along the ladder."""
    noise = [e**2 * p ** (2.0 * hurst - 2.0) for e, p in zip(ladder, bandwidths)]
    if any(b >= a for a, b in zip(bandwidths, bandwidths[1:])):
        raise ConditionViolated("eps", "bandwidth does not decrease along the ladder")
    if any(b >= a for a, b in zip(noise, noise[1:])):
        raise ConditionViolated(
            "eps", "the noise factor eps^2 phi^{2H-2} does not decrease along the ladder; the "
            "consistency conditions fail for this bandwidth rule"
        )


def run_consistency(cfg: ExperimentConfig, workers: int = 1) -> ConsistencyReport:
    if cfg.kind != "consistency":
        raise ValueError(f"expected kind=consistency, got {cfg.kind}")
    sup = _sup_mse_per_rung(cfg, workers)
    ceiling = cfg.ceiling if cfg.ceiling > 0 else float(sup[0]) / 4.0
    decreasing = bool(np.all(np.diff(sup) < 0))
    final_below = bool(sup[-1] < ceiling)
    return ConsistencyReport(
        eps=tuple(cfg.ladder),
        sup_mse=tuple(float(s) for s in sup),
        ceiling=float(ceiling),
        decreasing=decreasing,
        final_below=final_below,
        passed=decreasing and final_below,
    )


def run_rate(cfg: ExperimentConfig, workers: int = 1) -> RateFit:
    if cfg.kind not in ("rate-main", "rate-alt"):
        raise ValueError(f"expected a rate kind, got {cfg.kind}")
    if cfg.kind == "rate-main":
        theory = theoretical_rate_main(_build_kernel(cfg).order, cfg.hurst)
    else:
        theory = theoretical_rate_alt(cfg.rho, cfg.hurst)
    tol = _slope_tolerance(cfg)
    sup = _sup_mse_per_rung(cfg, workers)
    if np.any(sup <= 0):
        raise FitDegenerate("sup-MSE nonpositive at some rung; cannot take logs")
    log_eps = np.log(np.asarray(cfg.ladder))
    log_mse = np.log(sup)
    slope, intercept = np.polyfit(log_eps, log_mse, 1)
    resid = log_mse - (slope * log_eps + intercept)
    return RateFit(
        eps=tuple(cfg.ladder),
        sup_mse=tuple(float(s) for s in sup),
        log_eps=tuple(float(v) for v in log_eps),
        log_mse=tuple(float(v) for v in log_mse),
        slope=float(slope),
        intercept=float(intercept),
        residual_norm=float(np.sqrt(np.sum(resid**2))),
        theoretical=float(theory),
        tolerance=float(tol),
        passed=bool(abs(slope - theory) <= tol),
    )


def run_clt(cfg: ExperimentConfig, workers: int = 1) -> CltReport:
    if cfg.kind != "clt":
        raise ValueError(f"expected kind=clt, got {cfg.kind}")
    errors = _gather(cfg, workers)[0, 0, :, 0]
    kernel = _build_kernel(cfg)
    sigma2 = asymptotic_variance(kernel, cfg.hurst)
    mean = float(np.mean(errors))
    variance = float(np.var(errors, ddof=1))
    se = math.sqrt(variance / len(errors))
    var_lo, var_hi = sigma2 * (1.0 - cfg.var_tol), sigma2 * (1.0 + cfg.var_tol)
    mean_ok = abs(mean) <= 3.0 * se
    var_ok = var_lo <= variance <= var_hi
    return CltReport(
        eps=float(cfg.ladder[0]),
        count=len(errors),
        mean=mean,
        se=se,
        variance=variance,
        sigma2=float(sigma2),
        var_lo=float(var_lo),
        var_hi=float(var_hi),
        mean_ok=mean_ok,
        var_ok=var_ok,
        passed=mean_ok and var_ok,
    )


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    runner = {
        "consistency": run_consistency,
        "rate-main": run_rate,
        "rate-alt": run_rate,
        "clt": run_clt,
    }[cfg.kind]
    return ExperimentResult(config=cfg, report=runner(cfg, workers))


# -------------------------------------------------------------- reports ----


def _fmt(value) -> str:
    # shortest round-trip float formatting: exact and free of digit noise
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _header(pairs) -> list:
    """The '# key = value' lines every output artifact starts with; a tuple joins with ','."""
    lines = []
    for key, value in pairs:
        text = ",".join(_fmt(v) for v in value) if isinstance(value, tuple) else _fmt(value)
        lines.append(f"# {key} = {text}")
    return lines


def _config_lines(cfg: ExperimentConfig) -> list:
    """Echo the resolved config, re-parsable once the leading '# ' is dropped."""
    pairs = []
    for f in fields(cfg):
        key, value = _KEY_OF.get(f.name, f.name), getattr(cfg, f.name)
        if key == "trend":
            value = " | ".join(value)
        if key == "kernel" and not value:
            continue  # rate-alt derives the kernel; nothing to echo
        pairs.append((key, value))
    return _header(pairs)


# The two results.csv layouts: sup-MSE rows (consistency, rate) and CLT statistic rows.
_SUP_MSE_COLUMNS = ("eps", "sup_mse", "log_eps", "log_mse")
_CLT_COLUMNS = ("eps", "statistic", "value")


def write_report(result: ExperimentResult, out_dir) -> list:
    """results.csv + summary.txt (+ rate_fit.csv for rates), no timestamps; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name, text):
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        written.append(path)

    cfg, rep = result.config, result.report
    header = "\n".join(_config_lines(cfg))
    if isinstance(rep, CltReport):
        rows = [",".join(_CLT_COLUMNS)]
        for stat in ("count", "mean", "se", "variance", "sigma2", "var_lo", "var_hi"):
            rows.append(f"{_fmt(rep.eps)},{stat},{_fmt(getattr(rep, stat))}")
        emit("results.csv", "\n".join(rows) + "\n")
        summary = [
            header,
            f"mean={_fmt(rep.mean)}, se={_fmt(rep.se)}, pass={rep.mean_ok}",
            f"variance={_fmt(rep.variance)}, sigma2={_fmt(rep.sigma2)}, "
            f"band=[{_fmt(rep.var_lo)}, {_fmt(rep.var_hi)}], pass={rep.var_ok}",
            f"pass={rep.passed}",
        ]
        emit("summary.txt", "\n".join(summary) + "\n")
        return written

    rows = [",".join(_SUP_MSE_COLUMNS)]
    if isinstance(rep, RateFit):
        for e, s, le, lm in zip(rep.eps, rep.sup_mse, rep.log_eps, rep.log_mse):
            rows.append(f"{_fmt(e)},{_fmt(s)},{_fmt(le)},{_fmt(lm)}")
    else:
        for e, s in zip(rep.eps, rep.sup_mse):
            rows.append(f"{_fmt(e)},{_fmt(s)},{_fmt(math.log(e))},{_fmt(math.log(s))}")
    emit("results.csv", "\n".join(rows) + "\n")

    if isinstance(rep, RateFit):
        center_e = sum(rep.log_eps) / len(rep.log_eps)
        center_m = sum(rep.log_mse) / len(rep.log_mse)
        fit_rows = ["log_eps,log_mse,fitted,theory_line"]
        for le, lm in zip(rep.log_eps, rep.log_mse):
            fitted = rep.slope * le + rep.intercept
            theory = rep.theoretical * (le - center_e) + center_m
            fit_rows.append(f"{_fmt(le)},{_fmt(lm)},{_fmt(fitted)},{_fmt(theory)}")
        emit("rate_fit.csv", "\n".join(fit_rows) + "\n")
        summary = [
            header,
            f"slope={_fmt(rep.slope)}, theory={_fmt(rep.theoretical)}, pass={rep.passed}",
            f"tolerance={_fmt(rep.tolerance)}, intercept={_fmt(rep.intercept)}, "
            f"residual_norm={_fmt(rep.residual_norm)}",
        ]
    else:
        summary = [header]
        for e, s in zip(rep.eps, rep.sup_mse):
            summary.append(f"eps={_fmt(e)} sup_mse={_fmt(s)}")
        summary.append(
            f"decreasing={rep.decreasing}, final={_fmt(rep.sup_mse[-1])}, "
            f"ceiling={_fmt(rep.ceiling)}, pass={rep.passed}"
        )
    emit("summary.txt", "\n".join(summary) + "\n")
    return written
