"""One benchmark sample in a fresh interpreter.

    python3 child.py run <record.json> <trace 0|1> experiment --config C --workers W --out D
    python3 child.py probe <record.json> <seed>
    python3 child.py env <record.json>

``run`` does what ``hermite-trend experiment`` does, in phases the parent can
time: parse the command line and the config, ``run_experiment``,
``write_report``; it exits 0 on a PASS verdict and 1 on FAIL, like the CLI.
Timestamps are ``perf_counter`` readings (CLOCK_MONOTONIC, shared with the
parent process).  ``probe`` times single stage calls for the ROADMAP
baselines; ``env`` records library versions.  The parent sets PYTHONPATH to
the checkout's ``src``.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from time import perf_counter


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(record_path: str, trace: bool, cli_argv: list) -> int:
    import hermite_trend
    from hermite_trend import cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def parse():
        args = cli.build_parser().parse_args(cli_argv)
        return args, hermite_trend.load_experiment_config(args.config)

    args, cfg = tracer.span("cli.parse", parse) if tracer else parse()
    ready = perf_counter()
    result = hermite_trend.run_experiment(cfg, workers=args.workers)
    ran = perf_counter()
    hermite_trend.write_report(result, args.out)
    done = perf_counter()
    record = {
        "module": hermite_trend.__file__,
        "ready": ready,
        "ran": ran,
        "done": done,
        "paths": cfg.replications * len(cfg.ladder) * len(cfg.trends),
        "passed": bool(result.passed),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer:
        record["trace"] = tracer.summary()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0 if result.passed else 1


def _median_ms(fn, repeats: int) -> float:
    fn()  # warm caches (circulant eigenvalues, kernel float pieces)
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


def probe(record_path: str, seed: int) -> int:
    """Per-call medians of the stages ROADMAP item 1 lists, tracing off."""
    from hermite_trend import (
        EstimatorConfig, HermiteSpec, PathConfig, bandwidth_main, kernel_estimate_product,
        parse_trend, sample_hermite, simulate_path, simulate_sde, vanishing_moment_kernel,
    )

    trend = parse_trend("sin:0.5,0.8,3.0", horizon=2.0)
    cfg = PathConfig(horizon=2.0, n=4096, eps=0.125, x0=1.0, order=1, hurst=0.7)
    noise = sample_hermite(cfg.hermite_spec(), seed)
    path = simulate_path(trend, cfg, seed)
    kernel = vanishing_moment_kernel(1)
    est = EstimatorConfig(kernel=kernel, bandwidth=bandwidth_main(cfg.eps, 1, cfg.hurst),
                          window=(0.6, 1.4), horizon=2.0, eps=cfg.eps, rule="main")
    ts = est.eval_grid(21)

    def hermite(q, n, m):
        spec = HermiteSpec(order=q, hurst=0.7, horizon=2.0, n=n, m=m)
        return lambda: sample_hermite(spec, seed)

    stages = {
        "stage.sample_hermite.q1_n4096.median_ms": (hermite(1, 4096, 0), 41),
        "stage.sample_hermite.q2_m32768.median_ms": (hermite(2, 4096, 32768), 15),
        "stage.sample_hermite.q2_m131072.median_ms": (hermite(2, 16384, 131072), 7),
        "stage.simulate_sde.median_ms": (lambda: simulate_sde(trend, cfg, noise), 41),
        "stage.kernel_estimate_product.21pt.median_ms": (
            lambda: kernel_estimate_product(path, est, ts), 41),
    }
    record = {name: _median_ms(fn, reps) for name, (fn, reps) in stages.items()}
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


def env(record_path: str) -> int:
    import platform

    import numpy
    import scipy

    import hermite_trend

    with open(record_path, "w") as fh:
        json.dump({
            "module": hermite_trend.__file__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }, fh)
    return 0


def main(argv) -> int:
    mode, record_path = argv[0], argv[1]
    try:
        if mode == "run":
            return run(record_path, argv[2] == "1", argv[3:])
        if mode == "probe":
            return probe(record_path, int(argv[2]))
        if mode == "env":
            return env(record_path)
    except Exception:  # noqa: BLE001 - reported to the parent as a failed run
        traceback.print_exc()
        return 3  # the CLI's runtime-failure code; 1 means a FAIL verdict
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
