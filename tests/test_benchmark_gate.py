"""perfbench's correctness gate, run in the test suite.

The benchmark refuses a run whose report drifts from ``perfbench/reference.json``
by more than its relative tolerance (1e-8), or whose exit code differs from the
recorded verdict.  These tests run the same comparison in process, on the
benchmark's own configs, so a change that moves a random stream fails here
first.  ``perfbench/`` is only read: its ``run`` and ``workloads`` modules are
imported from there without writing bytecode.
"""

import os
import sys
from pathlib import Path

import pytest

from hermite_trend import parse_experiment_config, run_experiment, write_report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (workload, variant).  alt-oracle-w2 is left out: its recorded reports are
# stale and fail the gate on unchanged code too, until the reference is
# re-recorded (ROADMAP item 5).
RUNS = [("rate-q1", 0), ("rate-q1", 23), ("clt-q2", 23)]


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``run`` and ``workloads`` modules and its reference reports."""
    saved = sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return run, workloads, run.read_json(run.REFERENCE)["workloads"]


@pytest.mark.parametrize("name,variant", RUNS)
def test_report_matches_reference(perfbench, name, variant, tmp_path):
    run, workloads, reference = perfbench
    workload = workloads.WORKLOADS[name]
    recorded = reference[name][str(workload.config_seed(variant))]
    result = run_experiment(parse_experiment_config(workload.config_text(variant)), workers=1)
    files = {os.path.basename(p): Path(p).read_text() for p in write_report(result, tmp_path)}
    assert (0 if result.passed else 1) == recorded["exit"]
    assert run.compare_to_reference(files, recorded["files"]) == []
