"""Span tracing around the public entry points of each hermite_trend layer.

The package itself holds no tracing code: ``Tracer.install`` replaces each
entry point with a wrapper in every loaded ``hermite_trend`` module namespace
that refers to it (the modules import each other's functions by name), and in
the class dict for ``Kernel.evaluate``.  Spans are kept in memory as
(name, start, end, parent) and reduced once, at the end of the run.

Only single-process runs can be traced: spans recorded in pool workers stay in
those workers.
"""

from __future__ import annotations

import hashlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# span name -> (module, attribute); the layer is the first dotted part
ENTRY_POINTS = {
    "rng.derive_seed": ("hermite_trend.rng", "derive_seed"),
    "rng.philox_generator": ("hermite_trend.rng", "philox_generator"),
    "gaussian.sample_fgn": ("hermite_trend.gaussian", "sample_fgn"),
    "hermite.sample_hermite": ("hermite_trend.hermite", "sample_hermite"),
    "hermite.discrete_normalizer": ("hermite_trend.hermite", "discrete_normalizer"),
    "trends.parse_trend": ("hermite_trend.trends", "parse_trend"),
    "sde.simulate_path": ("hermite_trend.sde", "simulate_path"),
    "sde.simulate_sde": ("hermite_trend.sde", "simulate_sde"),
    "sde.cumulative_trend_integral": ("hermite_trend.sde", "cumulative_trend_integral"),
    "sde.solve_ode": ("hermite_trend.sde", "solve_ode"),
    "kernels.vanishing_moment_kernel": ("hermite_trend.kernels", "vanishing_moment_kernel"),
    "kernels.box_kernel": ("hermite_trend.kernels", "box_kernel"),
    "kernels.asymptotic_variance": ("hermite_trend.kernels", "asymptotic_variance"),
    "kernels.Kernel.evaluate": ("hermite_trend.kernels", "Kernel.evaluate"),
    "estimators.kernel_estimate_product": (
        "hermite_trend.estimators", "kernel_estimate_product"),
    "estimators.alternate_estimate": ("hermite_trend.estimators", "alternate_estimate"),
    "estimators.bias_center_term": ("hermite_trend.estimators", "bias_center_term"),
    "experiments.parse_experiment_config": (
        "hermite_trend.experiments", "parse_experiment_config"),
    "experiments.run_experiment": ("hermite_trend.experiments", "run_experiment"),
    "experiments.write_report": ("hermite_trend.experiments", "write_report"),
}

LAYERS = ("cli", "rng", "gaussian", "hermite", "trends", "sde", "kernels",
          "estimators", "experiments")

# entry points whose distinct argument tuples are counted
DISTINCT = ("hermite.discrete_normalizer", "sde.cumulative_trend_integral")

COMPLEX_BYTES = 16


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []
        self.counts = Counter()  # computed work counts
        self._distinct = defaultdict(set)

    # ------------------------------------------------------------ spans --

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            if count is not None:
                count(self, *args, **kwargs)
            result = self.span(name, fn, *args, **kwargs)
            if name == "experiments.write_report":
                self.counts["experiments.write_report.bytes"] += sum(
                    os.path.getsize(p) for p in result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every entry point in ENTRY_POINTS wherever the package refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "hermite_trend" or n.startswith("hermite_trend.")]
        for name, (modname, attr) in ENTRY_POINTS.items():
            owner = sys.modules[modname]
            if "." in attr:  # a method: replace it in the class dict
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(name, original)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, key, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # ------------------------------------------------------- reduction --

    def distinct(self, name, key):
        self._distinct[name].add(key)

    def summary(self) -> dict:
        """Per span name: calls and self seconds; per layer: self seconds; plus counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, value in self_s.items():
            layer_self[name.split(".", 1)[0]] += value
        return {
            "traced_s": sum(end - start for _, start, end, parent in self.spans if parent < 0),
            "spans": {name: {"calls": calls[name], "self_s": self_s[name]} for name in calls},
            "layer_self_s": layer_self,
            "counts": dict(self.counts),
            "distinct": {name: len(keys) for name, keys in self._distinct.items()},
        }


# ---------------------------------------------------------------------------
# Computed work counts, taken from the arguments at each boundary.


def _count_fgn(tracer, spec, seed):
    # the circulant embedding of n samples transforms 2n complex values
    tracer.counts["gaussian.fft_bytes_computed"] += 2 * spec.n * COMPLEX_BYTES


def _count_normalizer(tracer, order, hurst, m, horizon):
    tracer.distinct(DISTINCT[0], (order, hurst, m, horizon))


def _count_trend_integral(tracer, trend, times):
    digest = hashlib.blake2b(np.ascontiguousarray(times).tobytes(), digest_size=16).digest()
    tracer.distinct(DISTINCT[1], (trend.label, trend.horizon, digest))


def _count_estimate(tracer, path, cfg, t, *args, **kwargs):
    # one multiply-add per grid step per evaluation point
    steps = len(path.times) - 1
    tracer.counts["estimators.madds_computed"] += steps * int(np.size(t))


def _count_evaluate(tracer, kernel, u):
    tracer.counts["kernels.Kernel.evaluate.points"] += int(np.size(u))


_COUNTERS = {
    "gaussian.sample_fgn": _count_fgn,
    "hermite.discrete_normalizer": _count_normalizer,
    "sde.cumulative_trend_integral": _count_trend_integral,
    "estimators.kernel_estimate_product": _count_estimate,
    "estimators.alternate_estimate": _count_estimate,
    "kernels.Kernel.evaluate": _count_evaluate,
}
