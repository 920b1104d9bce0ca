"""The run path imports numpy only: scipy stays out of every run's interpreter.

Importing scipy takes several times as long as importing numpy, and longer
than a small experiment runs, so the package imports it only inside the
quadrature cross-checks.  The process pool's ``concurrent.futures`` pulls in
multiprocessing, socket, subprocess and logging, so it is imported only by a
run with more than one worker.  ``numpy.polynomial`` serves only the kernel
bank's exact algebra, so it loads when a kernel is built, not on import.  Each
check runs in a fresh interpreter, since this test process has all of these
loaded.
"""

import os
import pathlib
import subprocess
import sys

import hermite_trend

SRC = str(pathlib.Path(hermite_trend.__file__).resolve().parents[1])

SCRIPT = r'''
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def pool_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "multiprocessing" or m.startswith("concurrent.futures"))

def polynomial_modules():
    return sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "polynomial"])

import hermite_trend, hermite_trend.cli
assert not scipy_modules(), scipy_modules()
assert not pool_modules(), pool_modules()
assert not polynomial_modules(), polynomial_modules()
# numpy 2 loads these lazily; the package loads them on import, not in a timed run
assert "numpy.random" in sys.modules and "numpy.fft" in sys.modules

from hermite_trend import parse_experiment_config, run_experiment

RATE = """
kind = rate-main
trend = sin:0.5,0.8,3.0
q = 1
hurst = 0.7
kernel = legendre:1
eps = 0.125,0.0625,0.03125,0.015625
replications = 100
n = 256
horizon = 2.0
window = 0.6,1.4
seed = 820
"""
CLT = """
kind = clt
trend = const:0.5
q = 2
hurst = 0.7
kernel = box:1
eps = 0.05
replications = 100
n = 256
horizon = 1.0
window = 0.45,0.55
t0 = 0.5
seed = 930
"""
for text in (RATE, CLT):
    run_experiment(parse_experiment_config(text), workers=1)
    assert not scipy_modules(), scipy_modules()
    assert not pool_modules(), pool_modules()
print("ok")
'''


def test_import_and_runs_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
