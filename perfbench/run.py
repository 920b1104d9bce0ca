"""Benchmark of the hermite_trend Monte Carlo pipeline.

    python3 perfbench/run.py --workload rate-q1 --seed 1 --seconds 58 --trace 0

Run from the root of a checkout.  Each sample is a fresh interpreter
(``child.py``) that imports hermite_trend from ``src/``, parses the config
generated from ``--seed``, calls ``run_experiment`` and writes the report, the
same work as ``hermite-trend experiment``.  Samples repeat for ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
the samples, the times scaled to a nominal machine speed (see SCALED).
``--trace 1`` alternates traced and untraced samples at workers=1 and reports
the per-layer metrics, plus single-stage medians from one ``child.py probe``
run.  Every sample passes a correctness gate; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import VARIANTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60
# Reported numbers may drift from the reference by this relative amount: far
# above the 1e-15-level stream changes of an FFT or summation-order rewrite,
# far below any change in what an estimator computes.
RTOL = 1e-8
ATOL = 1e-15
# A shared virtual machine changes speed by a third and more from minute to
# minute, for all work alike.  Before and after every timed sample the
# parent times a fixed reference computation (make_calibration); each run's
# time metrics are scaled by CAL_NOMINAL_S / (median reference time), so that
# runs made at different machine speeds compare.  Metric name -> +1 for a time, -1 for a rate.
SCALED = {"setup_s": 1, "verdict_s": 1, "paths_per_s": -1}
CAL_NOMINAL_S = 0.055
CAL_LOOP = 400_000  # pure-Python multiply-adds
CAL_FFTS = 6  # numpy FFTs of CAL_FFT_SIZE real values
CAL_FFT_SIZE = 1 << 18
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


# ----------------------------------------------------------------- samples --


@dataclass
class Sample:
    returncode: int
    spawned: float  # perf_counter just before the child was started
    record: dict  # what the child wrote; empty if it failed
    files: dict  # report file name -> text
    stderr: str
    failures: list = field(default_factory=list)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list, timeout: float = CHILD_TIMEOUT_S):
    """Run child.py with args; returns (returncode, spawn time, stderr)."""
    spawned = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *map(str, args)], cwd=ROOT, env=_child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # so a timeout can stop pool workers too
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return -signal.SIGKILL, spawned, f"timed out after {timeout} s\n{err}"
    return proc.returncode, spawned, err


def read_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def run_sample(work: Path, config: Path, workers: int, trace: bool) -> Sample:
    out = Path(tempfile.mkdtemp(dir=work))
    record_path = out / "record.json"
    report = out / "report"
    rc, spawned, err = spawn(["run", record_path, int(trace), "experiment",
                              "--config", config, "--workers", workers, "--out", report])
    files = {}
    for name in sorted(os.listdir(report)) if report.is_dir() else []:
        files[name] = (report / name).read_text()
    sample = Sample(rc, spawned, read_json(record_path), files, err)
    shutil.rmtree(out)
    return sample


# --------------------------------------------------------- correctness gate --


def split_numbers(text: str):
    """(text with every number replaced by '#', the numbers as floats)."""
    return NUMBER.sub("#", text), [float(tok) for tok in NUMBER.findall(text)]


def compare_to_reference(files: dict, ref_files: dict) -> list:
    problems = []
    if sorted(files) != sorted(ref_files):
        return [f"report files {sorted(files)} != reference {sorted(ref_files)}"]
    for name in sorted(files):
        skeleton, numbers = split_numbers(files[name])
        ref_skeleton, ref_numbers = split_numbers(ref_files[name])
        if skeleton != ref_skeleton or len(numbers) != len(ref_numbers):
            problems.append(f"{name}: text differs from the reference beyond its numbers")
            continue
        for got, want in zip(numbers, ref_numbers):
            if not math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
                problems.append(f"{name}: {got!r} differs from reference {want!r}")
                break
    return problems


def gate(samples: list, workload, reference) -> None:
    """Record in each sample's failures why it fails the correctness gate."""
    first_files = next((s.files for s in samples if s.record), None)
    for s in samples:
        if s.returncode not in (0, 1) or not s.record:
            tail = s.stderr.strip().splitlines()[-1:] or ["no output"]
            s.failures.append(f"run failed with exit {s.returncode}: {tail[0]}")
            continue
        if not Path(s.record["module"]).resolve().is_relative_to(SRC):
            s.failures.append(f"imported hermite_trend from {s.record['module']}, not {SRC}")
        if reference is None:
            s.failures.append("no reference report for this config seed")
            continue
        expected = {"PASS": 0, "FAIL": 1}.get(workload.verdict, reference["exit"])
        if s.returncode != expected:
            s.failures.append(f"exit {s.returncode}, reference verdict exits {expected}")
        if s.files != first_files:
            s.failures.append("report bytes differ from the first run of this workload and seed")
        s.failures.extend(compare_to_reference(s.files, reference["files"]))


# ------------------------------------------------------------ statistics ---


def tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it: (pct, value) or None."""
    ordered = sorted(values)
    k = len(ordered) - 10  # the k-th smallest has ten samples above it
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def run_value(name: str, values: list, calibration: list) -> float:
    """One run's value of a metric: the median, scaled if the metric is in SCALED."""
    value = statistics.median(values)
    if name in SCALED:
        value *= (CAL_NOMINAL_S / statistics.median(calibration)) ** SCALED[name]
    return value


def describe(name: str, values: list) -> str:
    tail = tail_percentile(values)
    extra = f"p{tail[0]:.0f} {tail[1]:.6g}" if tail else "no tail percentile (< 11 samples)"
    scaled = f"scaled; unscaled {statistics.median(values):.6g}, " if name in SCALED else ""
    return f"{scaled}median of {len(values)} samples; {extra}"


def make_calibration():
    """A function that times the fixed reference computation, in seconds."""
    import numpy as np

    data = np.random.default_rng(0).standard_normal(CAL_FFT_SIZE)

    def calibrate() -> float:
        """Geometric mean of the times of the Python loop and of the FFTs."""
        start = perf_counter()
        total = 0
        for i in range(CAL_LOOP):
            total += i * i
        loop = perf_counter()
        for _ in range(CAL_FFTS):
            np.fft.fft(data)
        return math.sqrt((loop - start) * (perf_counter() - loop))

    calibrate()  # warm-up: numpy's FFT plan cache
    return calibrate


# ---------------------------------------------------------------- metrics ---


def end_to_end(samples: list) -> dict:
    good = [s for s in samples if s.record]
    rec = [s.record for s in good]
    return {
        "setup_s": [r["ready"] - s.spawned for s, r in zip(good, rec)],
        "verdict_s": [r["done"] - s.spawned for s, r in zip(good, rec)],
        "paths_per_s": [r["paths"] / (r["ran"] - r["ready"]) for r in rec],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rec],
    }


def per_layer(traced: list, untraced: list, stages: dict) -> dict:
    """Metric name -> list of values, one per traced sample."""
    import tracing

    names = list(tracing.ENTRY_POINTS) + ["cli.parse"]
    series = {}

    def add(name, value):
        series.setdefault(name, []).append(value)

    for s in traced:
        tr = s.record["trace"]
        spans, counts, distinct = tr["spans"], tr["counts"], tr["distinct"]
        for name in names:
            add(f"{name}.calls", spans.get(name, {}).get("calls", 0))
            add(f"{name}.self_s", spans.get(name, {}).get("self_s", 0.0))
        for name in tracing.DISTINCT:
            calls = spans.get(name, {}).get("calls", 0)
            # no calls means no repeated work
            add(f"{name}.distinct_ratio", distinct.get(name, 0) / calls if calls else 1.0)
        for name in ("gaussian.fft_bytes_computed", "estimators.madds_computed",
                     "kernels.Kernel.evaluate.points", "experiments.write_report.bytes"):
            add(name, counts.get(name, 0))
        for layer, self_s in tr["layer_self_s"].items():
            add(f"share.{layer}.self_frac", self_s / tr["traced_s"])
    run_s = lambda group: statistics.median(s.record["ran"] - s.record["ready"] for s in group)
    series["trace.overhead_frac"] = [run_s(traced) / run_s(untraced)]
    for name, value in stages.items():
        series[name] = [value]
    return series


def layer_checks(medians: dict) -> list:
    """The layer each workload was chosen to stress, read from the trace."""
    share = lambda *layers: sum(medians[f"share.{l}.self_frac"] for l in layers)
    sampler = share("gaussian", "hermite")
    estimator = share("estimators", "kernels", "sde")
    return [
        f"gaussian+hermite self share {sampler:.3f} "
        f"({'majority' if sampler > 0.5 else 'minority'} of traced time)",
        f"estimators+kernels+sde self share {estimator:.3f} "
        f"({'exceeds' if estimator > sampler else 'does not exceed'} gaussian+hermite)",
    ]


# ------------------------------------------------------------ environment --


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment(work: Path) -> dict:
    """Machine and library record; the env child also warms the import caches."""
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"l{level}_per_cpu0"] = _read(f"{index}/size")
    record_path = work / "env.json"
    rc, _, err = spawn(["env", record_path])
    if rc != 0:
        raise RuntimeError(f"cannot import hermite_trend from {SRC}:\n{err}")
    libs = read_json(record_path)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, **caches,
            "python": libs["python"], "numpy": libs["numpy"], "scipy": libs["scipy"]}


# -------------------------------------------------------------------- main --


def run_loop(seconds: float, step) -> None:
    """Call step() until the next call would end past the deadline (>= MIN_SAMPLES)."""
    start = perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        now = perf_counter()
        if calls >= MIN_SAMPLES and now + (now - start) / calls > start + seconds:
            return


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, reference: dict):
    """Returns (metric name -> list of values, samples)."""
    config = work / f"{workload.name}.cfg"
    config.write_text(workload.config_text(seed))
    ref = reference.get("workloads", {}).get(workload.name, {}).get(
        str(workload.config_seed(seed)))
    if not trace:
        samples, calibration = [], []
        calibrate = make_calibration()

        def step():
            before = calibrate()
            samples.append(run_sample(work, config, workload.workers, False))
            calibration.append((before, calibrate()))

        run_loop(seconds, step)
        series = end_to_end(samples)
        series["calibration_s"] = [c for pair, s in zip(calibration, samples) if s.record
                                   for c in pair]
        # worker-count determinism: the other worker count must give the same bytes
        samples.append(run_sample(work, config, 2 if workload.workers == 1 else 1, False))
    else:
        traced, untraced = [], []

        def step():
            traced.append(run_sample(work, config, 1, True))
            untraced.append(run_sample(work, config, 1, False))

        run_loop(seconds, step)
        samples = traced + untraced
        probe = work / "probe.json"
        rc, _, err = spawn(["probe", probe, seed])
        if rc != 0:
            raise RuntimeError(f"stage probe failed:\n{err}")
        traced = [s for s in traced if s.record]
        untraced = [s for s in untraced if s.record]
        series = per_layer(traced, untraced, read_json(probe)) if traced and untraced else {}
    gate(samples, workload, ref)
    return series, samples


def report(workload, seed, seconds, trace, wanted, series, samples, env):
    """Print the human-readable lines; returns (metrics for the JSON line, failed)."""
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# seed {seed} -> config seed {workload.config_seed(seed)} "
          f"(variant {workload.variant(seed)} of {VARIANTS}); seconds {seconds}; trace {trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for s in samples:
        for problem in s.failures:
            print(f"# FAILED run: {problem}")
    calibration = series.get("calibration_s", [])
    if calibration:
        print(f"# reference computation: median {statistics.median(calibration):.6g} s "
              f"of {len(calibration)}; times scaled to a median of {CAL_NOMINAL_S} s")
    metrics = {}
    for name, unit in wanted:
        if not series.get(name):
            raise RuntimeError(f"no run measured {name}")
        value = run_value(name, series[name], calibration)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<50} {value:>14.6g} {unit:<6} {describe(name, series[name])}")
    failed = sum(1 for s in samples if s.failures)
    print(f"{'fail_frac':<50} {failed / len(samples):>14.6g} {'1':<6} "
          f"{failed} of {len(samples)} runs failed the correctness gate")
    if trace:
        medians = {k: statistics.median(v) for k, v in series.items()}
        for line in layer_checks(medians):
            print(f"# {line}")
    return metrics, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "hermite_trend" / "__init__.py").is_file():
        print(f"error: no hermite_trend package under {SRC}", file=sys.stderr)
        return 2
    spec = read_json(BENCHMARK)
    wanted = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    reference = read_json(REFERENCE)
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    try:
        env = environment(work)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            workload = WORKLOADS[name]
            series, samples = measure(workload, args.seed, args.seconds, bool(args.trace),
                                      work, reference)
            got, bad = report(workload, args.seed, args.seconds, args.trace, wanted,
                              series, samples, env)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted += len(samples)
            failed += bad
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
