"""Run a small Monte Carlo rate experiment and read its report.

The harness estimates sup-MSE over a time window at every rung of a
decreasing eps ladder, regresses log sup-MSE on log eps, and compares the
fitted slope with the theoretical exponent min(2, 2(k+1)/(k+2-H)).  Reports
are plain CSV + text, deterministic down to the byte for a fixed master
seed, whatever the worker count.

The CLI equivalent of this script:
    hermite-trend experiment --config rate.cfg --out report/
    hermite-trend report --in report/

Run:  python3 demos/04_rate_experiment.py
"""

import pathlib
import tempfile

from hermite_trend import parse_experiment_config, run_experiment, write_report

CONFIG = """
kind = rate-main
trend = sin:0.5,0.8,3.0
q = 1
hurst = 0.7
kernel = legendre:1
eps = 0.125,0.0625,0.03125,0.015625
replications = 200
n = 2048
horizon = 2.0
window = 0.6,1.4
seed = 424242
"""

cfg = parse_experiment_config(CONFIG)
print("resolved config:", cfg, sep="\n  ")

result = run_experiment(cfg)
fit = result.report
print("\nper-rung sup-MSE:")
for eps, mse in zip(fit.eps, fit.sup_mse):
    print(f"  eps={eps:<10} sup_mse={mse:.6f}")
print(f"\nfitted slope  {fit.slope:.4f}")
print(f"theory        {fit.theoretical:.4f}  (k=1, H=0.7)")
print(f"within +-{fit.tolerance}?  {fit.passed}")

with tempfile.TemporaryDirectory(prefix="rate_demo_") as tmp:
    for p in write_report(result, pathlib.Path(tmp)):
        print(f"\n--- {p} ---")
        print(open(p).read().rstrip())
