"""The package API the benchmark in ``perfbench/`` relies on still exists.

``perfbench/tracing.py`` wraps the entry points listed in its ``ENTRY_POINTS``
and counts work from their arguments; ``perfbench/child.py`` imports names from
``hermite_trend`` and builds an ``EstimatorConfig`` with ``eps=`` and ``rule=``.
Both files are read with ``ast`` and the tracer is never installed, so these
tests leave the package's module namespaces untouched.  A deletion that breaks
a benchmark run fails here first.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hermite_trend import (
    EstimatorConfig,
    FgnSpec,
    PathConfig,
    bandwidth_main,
    parse_trend,
    simulate_path,
    vanishing_moment_kernel,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def _entry_points() -> dict:
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no ENTRY_POINTS")


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:  # a submodule not imported yet
            obj = importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def _child_references() -> list:
    """(module, name) for every ``from hermite_trend... import name`` in child.py,
    and for every attribute read on a name bound to a hermite_trend module."""
    refs, modules = set(), {}
    tree = _tree("child.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hermite_trend":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hermite_trend"):
            for alias in node.names:
                refs.add((node.module, alias.name))
                modules.setdefault(alias.asname or alias.name, f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if module is not None:
                refs.add((module, node.attr))
    return sorted(refs)


ENTRY_POINTS = _entry_points()
CHILD_REFERENCES = _child_references()


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_traced_entry_point_resolves(name):
    module, attr = ENTRY_POINTS[name]
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize("module, name", CHILD_REFERENCES)
def test_child_reference_resolves(module, name):
    _resolve(module, name)


def test_child_references_found():
    # the run phase and the probe both reach the package; an empty scan tests nothing
    names = {name for _, name in CHILD_REFERENCES}
    assert {"run_experiment", "write_report", "build_parser", "EstimatorConfig",
            "kernel_estimate_product"} <= names


def test_probe_estimator_config_keywords():
    # child.py's probe passes eps= and rule=; the package reads neither
    est = EstimatorConfig(kernel=vanishing_moment_kernel(1),
                          bandwidth=bandwidth_main(0.125, 1, 0.7),
                          window=(0.6, 1.4), horizon=2.0, eps=0.125, rule="main")
    assert (est.eps, est.rule) == (0.125, "main")


def test_work_counters_read_existing_attributes():
    # each counter reads attributes of the wrapped function's arguments
    # (trend.horizon among them), so call every one with real arguments
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    trend = parse_trend("sin:0.5,0.8,3.0", horizon=2.0)
    path = simulate_path(trend, PathConfig(horizon=2.0, n=64, eps=0.125, x0=1.0), seed=0)
    kernel = vanishing_moment_kernel(1)
    est = EstimatorConfig(kernel=kernel, bandwidth=0.3, window=(0.6, 1.4), horizon=2.0)
    ts = est.eval_grid(3)
    arguments = {
        "gaussian.sample_fgn": (FgnSpec(hurst=0.7, n=64), 0),
        "hermite.discrete_normalizer": (2, 0.7, 512, 2.0),
        "sde.cumulative_trend_integral": (trend, path.times),
        "estimators.kernel_estimate_product": (path, est, ts),
        "estimators.alternate_estimate": (path, est, ts, trend.bound, 1.0),
        "kernels.Kernel.evaluate": (kernel, np.zeros(3)),
    }
    assert set(arguments) == set(tracing._COUNTERS)
    tracer = tracing.Tracer()
    for name, args in arguments.items():
        tracing._COUNTERS[name](tracer, *args)
    assert tracer.counts["estimators.madds_computed"] == 2 * 64 * 3
