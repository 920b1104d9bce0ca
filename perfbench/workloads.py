"""Benchmark workloads: each one turns a seed into an experiment config text.

The shapes (kind, q, n, m, kernel, trend, ladder, workers) are fixed; the seed
only picks one of ``VARIANTS`` Monte Carlo master seeds, so that every config
the benchmark can generate has a reference report recorded in
``reference.json`` (see ``record_reference.py``).  Replications are sized so
that one sample takes a few seconds: the config minimum of 100, and 200 for
the two-worker workload.
"""

from __future__ import annotations

from dataclasses import dataclass

VARIANTS = 32

# AC08/AC10 eps ladder (six rungs, halving).
LADDER = "0.125,0.0625,0.03125,0.015625,0.0078125,0.00390625"
# AC09: phi = 80 dt on n = 2^14, eps = phi^1.3 so the main rule returns phi.
CLT_EPS = repr((80 * 2.0**-14) ** 1.3)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    template: str  # config text with a {seed} field
    base_seed: int  # master seed of variant 0 (the acceptance test's seed)
    workers: int
    verdict: str  # "PASS", "FAIL", or "recorded" (whatever the reference holds)

    def variant(self, seed: int) -> int:
        return seed % VARIANTS

    def config_seed(self, seed: int) -> int:
        return self.base_seed + self.variant(seed)

    def config_text(self, seed: int) -> str:
        return self.template.format(seed=self.config_seed(seed))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rate-q1",
            why=(
                "rate-main q=1 n=4096: fBm sampling is cheap, so the estimators/kernels "
                "and sde layers dominate; where replication batching should show"
            ),
            template=f"""\
kind = rate-main
trend = sin:0.5,0.8,3.0
q = 1
hurst = 0.7
kernel = legendre:1
eps = {LADDER}
replications = 100
n = 4096
horizon = 2.0
window = 0.6,1.4
seed = {{seed}}
""",
            base_seed=820,
            workers=1,
            verdict="PASS",
        ),
        Workload(
            name="clt-q2",
            why=(
                "clt q=2 n=16384 m=131072: the circulant FFT sampler dominates and the "
                "estimator sees one t0; where the half-spectrum FFT should show"
            ),
            template=f"""\
kind = clt
trend = const:0.5
q = 2
hurst = 0.7
kernel = box:1
eps = {CLT_EPS}
replications = 100
n = 16384
m = 0
horizon = 1.0
window = 0.45,0.55
t0 = 0.5
seed = {{seed}}
var_tol = 0.35
""",
            base_seed=930,
            workers=1,
            verdict="recorded",
        ),
        Workload(
            name="alt-oracle-w2",
            why=(
                "rate-alt oracle q=1 rho=2 on 2 workers: truncated estimator, reflected "
                "kernel and the process pool; verdict FAIL by design (AC10 gap)"
            ),
            template=f"""\
kind = rate-alt
trend = sin:0.5,0.8,3.0
q = 1
hurst = 0.7
rho = 2.0
eps = {LADDER}
replications = 200
n = 4096
horizon = 2.0
window = 0.6,1.4
seed = {{seed}}
variant = oracle
""",
            base_seed=1001,
            workers=2,
            verdict="FAIL",
        ),
    )
}
