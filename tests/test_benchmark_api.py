"""The package API the benchmark in ``perfbench/`` relies on still exists.

``perfbench/tracing.py`` wraps the entry points listed in its ``ENTRY_POINTS``
and counts work from their arguments; ``perfbench/child.py`` imports names from
``hermite_trend`` and builds an ``EstimatorConfig`` with ``eps=`` and ``rule=``.
Both files are read with ``ast`` and the tracer is never installed, so these
tests leave the package's module namespaces untouched.  Every call child.py
makes into the package is bound to the callee's current signature, since the
probe runs only under ``--trace 1``.  A deletion or a signature change that
breaks a benchmark run fails here first.
"""

import ast
import importlib
import importlib.util
import inspect
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


def _child_bindings() -> tuple:
    """({local name: hermite_trend module} of child.py, {local name: (module, name)} of
    every ``from hermite_trend... import name``)."""
    modules, names = {}, {}
    for node in ast.walk(_tree("child.py")):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hermite_trend":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hermite_trend"):
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
                modules.setdefault(alias.asname or alias.name, f"{node.module}.{alias.name}")
    return modules, names


def _child_references() -> list:
    """(module, name) for every ``from hermite_trend... import name`` in child.py,
    and for every attribute read on a name bound to a hermite_trend module."""
    modules, names = _child_bindings()
    refs = set(names.values())
    for node in ast.walk(_tree("child.py")):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if module is not None:
                refs.add((module, node.attr))
    return sorted(refs)


def _child_calls() -> list:
    """(source line, (module, name), positional count, keyword names) of every call in
    child.py whose callee is a name imported from hermite_trend or an attribute of an
    imported hermite_trend module."""
    modules, names = _child_bindings()
    calls = []
    for node in ast.walk(_tree("child.py")):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            target = names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in modules):
            target = (modules[func.value.id], func.attr)
        else:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
        assert all(kw.arg for kw in node.keywords), ast.unparse(node)
        calls.append((ast.unparse(node), target, len(node.args),
                      tuple(kw.arg for kw in node.keywords)))
    return calls


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


CHILD_CALLS = _child_calls()


@pytest.mark.parametrize("call, target, positional, keywords", CHILD_CALLS,
                         ids=[call for call, *_ in CHILD_CALLS])
def test_child_call_binds_to_current_signature(call, target, positional, keywords):
    # the probe runs only under --trace 1, so a signature it no longer fits fails here
    signature = inspect.signature(_resolve(*target))
    signature.bind(*[None] * positional, **dict.fromkeys(keywords))


def test_child_calls_found():
    called = {name for _, (_, name), *_ in CHILD_CALLS}
    assert {"build_parser", "run_experiment", "write_report", "simulate_sde", "simulate_path",
            "EstimatorConfig", "kernel_estimate_product", "sample_hermite"} <= called


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
        "estimators.alternate_estimate": (path, est, ts, trend.bound),
        "kernels.Kernel.evaluate": (kernel, np.zeros(3)),
    }
    assert set(arguments) == set(tracing._COUNTERS)
    tracer = tracing.Tracer()
    for name, args in arguments.items():
        tracing._COUNTERS[name](tracer, *args)
    assert tracer.counts["estimators.madds_computed"] == 2 * 64 * 3
