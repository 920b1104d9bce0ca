"""Small-noise linear-multiplier SDE driven by a Hermite process.

dX_t = theta(t) X_t dt + eps dZ_t on [0, horizon], X_0 = x0 != 0.  The primary
integrator is variation of constants,
X_t = e^{I(t)} (x0 + eps * int_0^t e^{-I(s)} dZ_s) with I(t) = int_0^t theta,
which collapses exactly to the noiseless ODE solution when eps = 0 and is
exactly linear in the noise when theta == 0.  I is each trend's closed-form
integral evaluated on the grid, the same I the estimator's target and the
clt bias centre use.  An Euler scheme is kept as an independent
cross-check.  Pathwise and mean-square deviation bounds from the ODE solution
are checked by ``gronwall_check`` / ``mean_square_bound_check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hermite import HermitePath, HermiteSpec, _row_dots, replicate, sample_hermite
from .trends import TrendFunction
from .validation import ParameterError

__all__ = [
    "BoundViolation",
    "PathConfig",
    "SdePath",
    "GronwallReport",
    "MeanSquareReport",
    "cumulative_trend_integral",
    "solve_ode",
    "simulate_sde",
    "simulate_path",
    "gronwall_check",
    "mean_square_bound_check",
]


class BoundViolation(AssertionError):
    """A certified pathwise or mean-square bound failed on simulated data."""


# ---------------------------------------------------------------- types ----


@dataclass(frozen=True)
class PathConfig:
    """Grid, noise, and initial condition for one SDE path."""

    horizon: float
    n: int
    eps: float
    x0: float
    order: int = 1
    hurst: float = 0.7
    m: int = field(default=0)

    def __post_init__(self):
        if self.n < 64:
            raise ParameterError("n", f"must be >= 64 for integrator accuracy, got {self.n}")
        # eps = 0 is allowed: the path collapses to the noiseless ODE solution.
        if not 0.0 <= self.eps <= 1.0:
            raise ParameterError("eps", f"must lie in [0, 1], got {self.eps}")
        if self.x0 == 0 or not np.isfinite(self.x0):
            raise ParameterError("x0", f"must be finite and nonzero, got {self.x0}")
        self.hermite_spec()  # checks horizon, order, hurst and m

    def hermite_spec(self) -> HermiteSpec:
        return HermiteSpec(
            order=self.order, hurst=self.hurst, horizon=self.horizon, n=self.n, m=self.m
        )


@dataclass(frozen=True)
class SdePath:
    """Simulated SDE path with its driving noise and noiseless ODE companion."""

    times: np.ndarray
    values: np.ndarray  # X
    ode: np.ndarray  # x, the eps = 0 solution on the same grid
    noise: np.ndarray  # Z
    config: PathConfig


@dataclass(frozen=True)
class GronwallReport:
    max_ratio: float
    worst_time: float
    checked: int


@dataclass(frozen=True)
class MeanSquareReport:
    estimate: float
    bound: float
    rel_mc_error: float
    worst_time: float
    ok: bool


# ------------------------------------------------------------ integrators --


def cumulative_trend_integral(trend: TrendFunction, times: np.ndarray) -> np.ndarray:
    """I(t_j) = int_0^{t_j} theta(s) ds at every grid time, from the trend's closed form.

    A pass-through to ``trend.integral``, kept because perfbench's tracer wraps it.
    """
    return trend.integral(times)


def solve_ode(trend: TrendFunction, x0: float, times: np.ndarray) -> np.ndarray:
    """Noiseless solution x_t = x0 exp(int_0^t theta)."""
    return x0 * np.exp(cumulative_trend_integral(trend, times))


def _growth_factors(trend: TrendFunction, times: np.ndarray) -> tuple:
    """(e^{I}, e^{-I} at the left grid points): the noise-free half of the VoC integrator."""
    integral = cumulative_trend_integral(trend, times)
    return np.exp(integral), np.exp(-integral[:-1])


def _variation_of_constants(
    growth: np.ndarray, decay: np.ndarray, x0: float, eps: float, z: np.ndarray,
    out: np.ndarray = None,
) -> np.ndarray:
    """X = e^{I} (x0 + eps sum e^{-I} dZ), with the left-point Stieltjes sum.

    Written into ``out`` (n+1 values) when it is given, so that a replication
    loop allocates nothing per path; the operations are the same either way.
    """
    x = np.empty(len(z)) if out is None else out
    stieltjes = x[1:]
    np.subtract(z[1:], z[:-1], out=stieltjes)  # np.diff(z)
    np.cumsum(np.multiply(decay, stieltjes, out=stieltjes), out=stieltjes)
    x[0] = 0.0
    np.multiply(eps, x, out=x)
    np.add(x0, x, out=x)
    return np.multiply(growth, x, out=x)


def _fold_integrator(
    weights: np.ndarray, growth: np.ndarray, decay: np.ndarray, x0: float, eps: float,
    bandwidth: float,
) -> tuple:
    """(c, A) with weights . diff(X) / phi = c + A . diff(Z), X the variation-of-constants path.

    X is ``_variation_of_constants(growth, decay, x0, eps, Z)``, which is affine in Z, so
    each weighted sum of its increments is too.  Summing by parts, with W_n = 0,

        c = (x0/phi) W . diff(e^{I}),
        A_l = (eps/phi) e^{-I_l} sum_{k>l} e^{I_k} (W_{k-1} - W_k).

    ``weights`` is a (rows, n) matrix the caller owns; A is written over it.
    """
    c = _row_dots(weights, np.diff(growth)) * (x0 / bandwidth)
    np.subtract(weights[:, :-1], weights[:, 1:], out=weights[:, :-1])  # W_{k-1} - W_k, W_{n-1} - 0
    np.multiply(weights, growth[1:], out=weights)
    np.cumsum(weights[:, ::-1], axis=1, out=weights[:, ::-1])  # the sum over k > l
    np.multiply(weights, decay * (eps / bandwidth), out=weights)
    return c, weights


def simulate_sde(
    trend: TrendFunction,
    config: PathConfig,
    noise: HermitePath,
    method: str = "exact",
) -> SdePath:
    """Integrate the SDE against a given driving path on the same grid."""
    times = noise.times
    if noise.spec.n != config.n or noise.spec.horizon != config.horizon:
        raise ValueError(
            f"noise grid (n={noise.spec.n}, horizon={noise.spec.horizon}) does not "
            f"match config (n={config.n}, horizon={config.horizon})"
        )
    growth, decay = _growth_factors(trend, times)
    ode = config.x0 * growth
    z = noise.values
    if method == "exact":
        values = _variation_of_constants(growth, decay, config.x0, config.eps, z)
    elif method == "euler":
        dt = times[1] - times[0]
        theta_left = trend.value(times[:-1])
        dz = np.diff(z)
        values = np.empty_like(z)
        values[0] = config.x0
        for jj in range(config.n):
            values[jj + 1] = values[jj] * (1.0 + theta_left[jj] * dt) + config.eps * dz[jj]
    else:
        raise ValueError(f"unknown method {method!r} (expected 'exact' or 'euler')")
    return SdePath(times=times, values=values, ode=ode, noise=z, config=config)


def simulate_path(
    trend: TrendFunction, config: PathConfig, seed: int, method: str = "exact"
) -> SdePath:
    """Sample the driving Hermite path and integrate; pure in (trend, config, seed)."""
    noise = sample_hermite(config.hermite_spec(), seed)
    return simulate_sde(trend, config, noise, method=method)


# ------------------------------------------------------------ bound checks -


def gronwall_check(path: SdePath, bound_constant: float) -> GronwallReport:
    """Assert |X_t - x_t| <= eps e^{Lt} sup_{s<=t} |Z_s| at every grid time.

    bound_constant is the certified sup |theta| (the trend's L).  A slack of
    10 machine epsilons at the local scale absorbs float roundoff only; a
    genuine violation raises BoundViolation naming the worst time.
    """
    deviation = np.abs(path.values - path.ode)
    running_sup = np.maximum.accumulate(np.abs(path.noise))
    envelope = path.config.eps * np.exp(bound_constant * path.times) * running_sup
    scale = np.maximum(1.0, np.maximum(np.abs(path.values), np.abs(path.ode)))
    slack = 10.0 * np.finfo(float).eps * scale
    excess = deviation - envelope - slack
    if np.any(excess > 0):
        worst = int(np.argmax(excess))
        raise BoundViolation(
            f"pathwise bound violated at t={path.times[worst]:.6g}: "
            f"|X-x|={deviation[worst]:.6g} > envelope={envelope[worst]:.6g}"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(envelope > 0, deviation / envelope, 0.0)
    worst = int(np.argmax(ratio))
    return GronwallReport(
        max_ratio=float(ratio[worst]),
        worst_time=float(path.times[worst]),
        checked=len(path.times),
    )


def mean_square_bound_check(
    trend: TrendFunction, config: PathConfig, reps: int, seed: int
) -> MeanSquareReport:
    """Monte Carlo check of sup_t E(X_t - x_t)^2 <= e^{2LT} eps^2 T^{2H}.

    The estimate may exceed the bound only by 3x its own relative MC error;
    beyond that BoundViolation is raised.
    """
    if reps < 500:
        raise ValueError(f"reps must be >= 500 for a usable MC error, got {reps}")
    tgrid = np.linspace(0.0, config.horizon, config.n + 1)
    # only the noise differs between replications: integrate the trend once
    growth, decay = _growth_factors(trend, tgrid)
    ode = config.x0 * growth
    dev2 = replicate(config.hermite_spec(), seed, (), range(reps), lambda z: (
        _variation_of_constants(growth, decay, config.x0, config.eps, z) - ode) ** 2)
    mean = dev2.sum(axis=0) / reps
    worst = int(np.argmax(mean))
    estimate = float(mean[worst])
    second = np.square(dev2, out=dev2).sum(axis=0)  # in place: no second reps x (n+1) array
    var = max(float(second[worst] / reps - estimate**2), 0.0)
    rel_mc = float(np.sqrt(var / reps) / estimate) if estimate > 0 else 0.0
    bound = (
        np.exp(2.0 * trend.bound * config.horizon)
        * config.eps**2
        * config.horizon ** (2.0 * config.hurst)
    )
    ok = estimate <= bound * (1.0 + 3.0 * rel_mc)
    if not ok:
        raise BoundViolation(
            f"mean-square bound violated: sup_t E(X-x)^2 = {estimate:.6g} "
            f"> {bound:.6g} * (1 + 3*{rel_mc:.3g})"
        )
    return MeanSquareReport(
        estimate=estimate,
        bound=float(bound),
        rel_mc_error=rel_mc,
        worst_time=float(tgrid[worst]),
        ok=ok,
    )
