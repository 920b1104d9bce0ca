"""Command-line front end: simulate | estimate | kernel | experiment | report.

Exit codes: 0 success, 1 experiment verdict FAIL, 2 usage or config
error, 3 runtime failure.  Every output artifact starts with its fully
resolved configuration as ``# key = value`` lines, written by the one
``experiments._header``, so a run can be reproduced from its own header;
nothing here writes timestamps.

Each parameter is checked by the layer that uses it, and exit 2 names the
flag (or the ``--in`` header key) that set it (``_FLAGS``).  So does each path
a flag names: one the OS refuses, or a file that does not decode, exits 2 as
``--flag: cannot use '<path>': <reason>``, and a bad ``--out`` fails before
any path is drawn or estimated.  An experiment config is checked
key by key when it is read, before any path is drawn: besides each key's own
domain, n >= 64, m = 0 or m >= n, seed >= 0, eval_points >= 1, ceiling,
slope_tol and var_tol >= 0, the kernel reach inside [0, horizon] at every rung,
for rate-alt 1 < rho <= the trend smoothness, for consistency and rate-alt phi
and eps^2 phi^{2H-2} strictly falling along the ladder and, for clt, a trend
with the derivative of order k + 1 the bias term needs.  Only a circulant
embedding that fails on rounding, or a write that fails once its file is open
(say, on a full disk), is met at run time (exit 3).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .estimators import EstimatorConfig, bandwidth_main, estimate_series
from .experiments import (
    _CLT_COLUMNS,
    _SUP_MSE_COLUMNS,
    _fmt,
    _header,
    load_experiment_config,
    run_experiment,
    write_report,
)
from .kernels import asymptotic_variance, box_kernel, kernel_moment, vanishing_moment_kernel
from .sde import PathConfig, SdePath, simulate_path
from .trends import parse_trend
from .validation import ParameterError

TREND_HELP = (
    "trend grammar: const:<c> | sin:<base>,<amp>,<omega> | "
    "poly:<c0>,<c1>,... | weier:<amp>,<decay>,<lacunarity>,<terms>"
)


def _on_path(flag: str, action, path, *args, **kwargs):
    """action(path, ...), with a refused path or undecodable text as a ValueError naming flag."""
    try:
        return action(path, *args, **kwargs)
    except (OSError, UnicodeDecodeError) as exc:  # a decode error has no strerror
        raise ValueError(f"{flag}: cannot use '{path}': {getattr(exc, 'strerror', 0) or exc}")


def _check_out(out: str) -> None:
    """Open --out to append and close it, so that a refused path exits 2 before any work;
    an existing file keeps its bytes, and a file made here is removed again."""
    if out != "-":
        made = not os.path.lexists(out)
        _on_path("--out", open, out, "a").close()
        if made:
            os.remove(out)


def _write_lines(out, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with _on_path("--out", open, out, "w", newline="") as fh:
            fh.write(text)


# PathConfig field -> the header key of an estimate --in file; q may be absent (then 1).
_HEADER_KEYS = {"horizon": "horizon", "eps": "eps", "hurst": "hurst", "x0": "x0", "order": "q"}

# Layer field -> the flag (or --in part) that sets it, per subcommand.
_FLAGS = {
    "simulate": {"order": "--q", "hurst": "--hurst", "horizon": "--horizon", "n": "--n",
                 "m": "--m", "eps": "--eps", "x0": "--x0", "seed": "--seed", "trend": "--trend"},
    "estimate": {"k": "--order", "bandwidth": "--bandwidth", "window": "--window",
                 "points": "--points", "n": "--in: n (data rows - 1)",
                 **{field: f"--in: header {key}" for field, key in _HEADER_KEYS.items()}},
    "kernel": {"k": "--order", "width": "--width", "hurst": "--hurst"},
}


def _floats(text: str) -> list:
    """argparse type: comma-separated numbers."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated numbers: {text!r}") from None


def _auto_or_number(text: str):
    """argparse type for --bandwidth."""
    try:
        return text if text == "auto" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {text!r}") from None


# ------------------------------------------------------------- simulate ----


def _cmd_simulate(args) -> int:
    cfg = PathConfig(
        horizon=args.horizon, n=args.n, eps=args.eps, x0=args.x0,
        order=args.q, hurst=args.hurst, m=args.m,
    )
    trend = parse_trend(args.trend, args.horizon)
    _check_out(args.out)
    path = simulate_path(trend, cfg, args.seed, method=args.method)
    lines = _header([("trend", args.trend), ("q", cfg.order), ("hurst", cfg.hurst),
                     ("horizon", cfg.horizon), ("n", cfg.n), ("m", cfg.hermite_spec().m),
                     ("eps", cfg.eps), ("x0", cfg.x0), ("seed", args.seed),
                     ("method", args.method)])
    lines.append("t,Z,x,X")
    for t, z, x, big_x in zip(path.times, path.noise, path.ode, path.values):
        lines.append(f"{_fmt(float(t))},{_fmt(float(z))},{_fmt(float(x))},{_fmt(float(big_x))}")
    _write_lines(args.out, lines)
    return 0


# ------------------------------------------------------------- estimate ----


def _finite_floats(tokens):
    """The tokens as a list of finite floats, or None if one is not."""
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def _read_path_csv(path: str) -> tuple:
    """(header pairs in file order, SdePath) of a simulate CSV; bad input names --in."""
    pairs = []
    rows, linenos = [], []
    columns = None
    text = _on_path("--in", Path.read_text, Path(path))
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line.lstrip("#").partition("=")
            if sep:
                pairs.append((key.strip(), value.strip()))
            continue
        if columns is None:
            columns = [c.strip() for c in line.split(",")]
            if columns != ["t", "Z", "x", "X"]:
                raise ValueError(f"--in: expected a t,Z,x,X path file, got columns {columns}")
            continue
        row = _finite_floats(line.split(","))
        if row is None or len(row) != 4:
            raise ValueError(f"--in: line {lineno} is not four finite numbers: {line!r}")
        rows.append(row)
        linenos.append(lineno)
    if columns is None:
        raise ValueError("--in: expected a t,Z,x,X path file, found no column line")
    header = dict(pairs)  # a repeated key reads its last value
    missing = [key for key in ("horizon", "eps", "hurst", "x0") if key not in header]
    if missing:
        raise ValueError(f"--in: header lacks {', '.join(missing)} ('# key = value' lines)")
    values = {}
    for field, key in _HEADER_KEYS.items():
        kind = int if key == "q" else float
        try:
            values[field] = kind(header.get(key, "1"))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"--in: header {key} must be {noun}, got {header[key]!r}") from None
    cfg = PathConfig(n=len(rows) - 1, **values)  # _FLAGS names --in for its errors
    data = np.asarray(rows)
    # The estimator reads the grid from the header; a t column off j*horizon/n
    # by more than a few ulps means the file and its header disagree.
    grid = np.linspace(0.0, cfg.horizon, cfg.n + 1)
    off = np.flatnonzero(np.abs(data[:, 0] - grid) > 4 * np.spacing(cfg.horizon))
    if off.size:
        j = int(off[0])
        raise ValueError(f"--in: line {linenos[j]} has t = {_fmt(float(data[j, 0]))}, but the "
                         f"header grid puts j*horizon/n = {_fmt(float(grid[j]))} there "
                         f"(j = {j}, horizon = {_fmt(cfg.horizon)}, n = {cfg.n})")
    return pairs, SdePath(times=data[:, 0], values=data[:, 3], ode=data[:, 2],
                          noise=data[:, 1], config=cfg)


def _cmd_estimate(args) -> int:
    pairs, path = _read_path_csv(args.infile)
    horizon, eps, hurst = path.config.horizon, path.config.eps, path.config.hurst
    kernel = vanishing_moment_kernel(args.order)
    rule = "main" if args.bandwidth == "auto" else "manual"
    phi = bandwidth_main(eps, args.order, hurst) if rule == "main" else args.bandwidth
    hi = float(kernel.support[1])
    if args.window is None and hi * phi >= horizon - hi * phi:
        raise ValueError(f"--bandwidth: bandwidth {_fmt(phi)} ({rule} rule) is too wide for "
                         f"horizon {_fmt(horizon)}: it leaves no default window "
                         f"[{_fmt(hi * phi)}, {_fmt(horizon - hi * phi)}]")
    est_cfg = EstimatorConfig(kernel=kernel, bandwidth=phi, horizon=horizon,
                              window=tuple(args.window or (hi * phi, horizon - hi * phi)))
    _check_out(args.out)
    series = estimate_series(path, est_cfg, points=args.points)
    lines = _header([*pairs, ("order", args.order), ("bandwidth", phi), ("rule", rule),
                     ("window", est_cfg.window), ("points", args.points)])
    lines.append("t,product_estimate,theta_hat,valid")
    for t, prod, theta, ok in zip(series.times, series.product, series.theta, series.valid):
        lines.append(f"{_fmt(float(t))},{_fmt(float(prod))},{_fmt(float(theta))},{bool(ok)}")
    _write_lines(args.out, lines)
    return 0


# --------------------------------------------------------------- kernel ----


def _cmd_kernel(args) -> int:
    if args.width is not None:
        kernel = box_kernel(args.width)
        label = f"box:{_fmt(args.width)}"
    else:
        kernel = vanishing_moment_kernel(args.order)
        label = f"legendre:{args.order}"
    lo, hi = kernel.support
    lines = _header([("kernel", label), ("order", kernel.order),
                     ("support", f"[{_fmt(lo)}, {_fmt(hi)}]")])
    for j in range(kernel.order + 2):
        lines.append(f"moment j={j}: {_fmt(float(kernel_moment(kernel, j)))}")
    for h in args.hurst:
        lines.append(f"sigma2 H={_fmt(h)}: {_fmt(asymptotic_variance(kernel, h))}")
    _write_lines(args.out, lines)
    return 0


# ----------------------------------------------------------- experiment ----


def _cmd_experiment(args) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise ValueError(f"--workers: must lie in [1, {cpus}] (the CPU count), got {args.workers}")
    cfg = _on_path("--config", load_experiment_config, args.config)
    _on_path("--out", os.makedirs, args.out, exist_ok=True)  # a bad --out fails before the run
    result = run_experiment(cfg, workers=args.workers)
    write_report(result, args.out)
    sys.stdout.write(Path(args.out, "summary.txt").read_text())
    return 0 if result.passed else 1


# results.csv columns of write_report -> the indices that hold numbers.
_RESULT_COLUMNS = {_SUP_MSE_COLUMNS: (0, 1, 2, 3), _CLT_COLUMNS: (0, 2)}


def _cmd_report(args) -> int:
    first, *rest = _on_path("--in", Path.read_text, Path(args.indir, "results.csv")).split("\n")
    columns = tuple(first.strip().split(","))
    rows = [(n, ln.strip().split(",")) for n, ln in enumerate(rest, start=2) if ln.strip()]
    numeric = _RESULT_COLUMNS.get(columns)
    if numeric is None:
        raise ValueError(f"--in: unrecognized results.csv columns {list(columns)}")
    if not rows:
        raise ValueError(f"--in: results.csv under {args.indir} has no result rows")
    for lineno, row in rows:
        if len(row) != len(columns) or _finite_floats(row[i] for i in numeric) is None:
            raise ValueError(f"--in: results.csv line {lineno} is not a well-formed "
                             f"{','.join(columns)} row: {','.join(row)!r}")
    if columns == _SUP_MSE_COLUMNS:
        for _, row in rows:
            sys.stdout.write(f"eps={row[0]} sup_mse={row[1]}\n")
        log_eps, log_mse = np.array([[float(r[2]), float(r[3])] for _, r in rows]).T
        distinct = len(np.unique(log_eps))
        if distinct >= 2:
            slope, intercept = np.polyfit(log_eps, log_mse, 1)
            sys.stdout.write(f"refit slope={_fmt(float(slope))}, "
                             f"intercept={_fmt(float(intercept))}\n")
        else:
            sys.stdout.write(f"no refit: a slope needs two distinct log_eps, the "
                             f"{len(rows)} row(s) have {distinct}\n")
    else:
        for _, row in rows:
            sys.stdout.write(f"{row[1]}={row[2]}\n")
    summary = Path(args.indir, "summary.txt")
    if summary.exists():
        lines = _on_path("--in", Path.read_text, summary).split("\n")
        sys.stdout.writelines(f"{ln}\n" for ln in lines if "pass=" in ln)
    return 0


# ----------------------------------------------------------------- main ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermite-trend",
        description="Simulate Hermite-noise SDE paths and estimate their trend multiplier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a t,Z,x,X path CSV", epilog=TREND_HELP)
    sim.add_argument("--trend", required=True, help=TREND_HELP)
    sim.add_argument("--q", type=int, default=1, help="Hermite rank (1 = fBm, 2 = Rosenblatt)")
    sim.add_argument("--hurst", "--H", type=float, default=0.7)
    sim.add_argument("--horizon", "--T", type=float, default=1.0)
    sim.add_argument("--n", type=int, default=1024, help="number of grid steps")
    sim.add_argument("--m", type=int, default=0, help="rank-grid size (0 = 8n)")
    sim.add_argument("--eps", type=float, default=0.1, help="noise amplitude in [0, 1]")
    sim.add_argument("--x0", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--method", choices=("exact", "euler"), default="exact")
    sim.add_argument("--out", default="-", help="output CSV path (default stdout)")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="kernel-estimate theta from a path CSV")
    est.add_argument("--in", dest="infile", required=True, help="simulate output CSV")
    est.add_argument("--order", type=int, default=1, help="vanishing-moment kernel order")
    est.add_argument("--bandwidth", type=_auto_or_number, default="auto",
                     help="'auto' (main rule) or a number")
    est.add_argument("--window", type=_floats, default=None,
                     help="a,b evaluation window (default widest)")
    est.add_argument("--points", type=int, default=21)
    est.add_argument("--out", default="-")
    est.set_defaults(func=_cmd_estimate)

    ker = sub.add_parser("kernel", help="print kernel moments and asymptotic variance")
    ker.add_argument("--order", type=int, default=0)
    ker.add_argument("--width", type=float, default=None,
                     help="use a box kernel of this width instead of --order")
    ker.add_argument("--hurst", "--H", type=_floats, default="0.7",
                     help="comma-separated H values")
    ker.add_argument("--out", default="-")
    ker.set_defaults(func=_cmd_kernel)

    exp = sub.add_parser("experiment", help="run a Monte Carlo experiment config")
    exp.add_argument("--config", required=True, help="flat key=value config file")
    exp.add_argument("--workers", type=int, default=1)
    exp.add_argument("--out", required=True, help="report directory")
    exp.set_defaults(func=_cmd_experiment)

    rep = sub.add_parser("report", help="re-render a summary from written results.csv")
    rep.add_argument("--in", dest="indir", required=True, help="report directory")
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        flag = isinstance(exc, ParameterError) and _FLAGS.get(args.command, {}).get(exc.field)
        print(f"error: {exc.renamed(flag) if flag else exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surfaced as a runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
