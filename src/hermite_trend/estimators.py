"""Kernel-type estimators of the trend multiplier.

The product estimator smooths path increments against a vanishing-moment
kernel: (1/phi) sum_j G((s_j - t)/phi) dX_j, estimating J(t) = theta(t) x_t.
Dividing by X_t (behind a floor guard) yields theta itself.  A truncated
variant multiplies by the indicator of the path staying above a decaying
threshold, in either an observable form (increments of dX/X) or an oracle
form that consumes the true trend and driving noise and therefore only makes
sense inside a simulation.  It is built once per grid, kernel, bandwidth and
set of evaluation points, then applied to each path; ``alternate_estimate`` and
the experiments' rate-alt cell share that builder.  The bias center term of
the normalized error reads x(t) from the trend's closed-form integral; nothing
here integrates numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import _row_dots
from .kernels import Kernel, kernel_moment
from .sde import SdePath
from .trends import TrendFunction
from .validation import ParameterError, check_hurst

__all__ = [
    "EstimatorConfig",
    "EstimateSeries",
    "bandwidth_main",
    "bandwidth_alt",
    "kernel_estimate_product",
    "estimate_series",
    "bias_center_term",
    "indicator_path",
    "alternate_estimate",
]


# ---------------------------------------------------------------- config ---


@dataclass(frozen=True)
class EstimatorConfig:
    """Kernel, bandwidth, and evaluation window for one estimation pass.

    The window constraint keeps the kernel support inside [0, horizon] for
    every evaluation point, in both orientations (s - t and t - s), so no
    estimate is ever truncated at the boundary.
    """

    kernel: Kernel
    bandwidth: float
    window: tuple
    horizon: float
    eps: float = 0.0
    rule: str = "manual"

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ParameterError("bandwidth", f"sets a bandwidth of {self.bandwidth}, not > 0")
        if len(self.window) != 2 or not 0.0 < self.window[0] <= self.window[1] < self.horizon:
            raise ParameterError("window", f"must be exactly two numbers a <= b strictly inside "
                                 f"(0, {self.horizon}), got {list(self.window)}")
        a, b = self.window
        lo, hi = self.kernel.support
        phi = self.bandwidth
        reach_lo = min(a - hi * phi, a + lo * phi)
        reach_hi = max(b - lo * phi, b + hi * phi)
        if reach_lo < 0.0 or reach_hi > self.horizon:
            raise ParameterError(
                "bandwidth", f"makes the kernel (bandwidth {phi:.6g}) reach [{reach_lo:.6g}, "
                f"{reach_hi:.6g}], which overflows [0, {self.horizon}]; shrink it or the window"
            )

    def eval_grid(self, points: int = 21) -> np.ndarray:
        if points < 1:
            raise ParameterError("points", f"must be >= 1, got {points}")
        a, b = self.window
        return np.linspace(a, b, points)


@dataclass(frozen=True)
class EstimateSeries:
    times: np.ndarray
    product: np.ndarray  # estimates of J(t) = theta(t) x_t
    theta: np.ndarray  # NaN where the division guard fired
    valid: np.ndarray  # False exactly where the guard fired


# ------------------------------------------------------------- bandwidth ---


def bandwidth_main(eps: float, k: int, hurst: float) -> float:
    """phi = eps^{1/(k - H + 2)}, the rate-optimal choice for order k."""
    if not 0.0 < eps <= 1.0:
        raise ParameterError("eps", f"must lie in (0, 1], got {eps}")
    check_hurst(hurst)
    if k < 0:
        raise ParameterError("k", f"must be >= 0, got {k}")
    return eps ** (1.0 / (k - hurst + 2.0))


def bandwidth_alt(eps: float, rho: float, hurst: float) -> float:
    """phi = eps^{1/(rho - H)} for the truncated estimator, rho > H."""
    if not 0.0 < eps <= 1.0:
        raise ParameterError("eps", f"must lie in (0, 1], got {eps}")
    if not rho > hurst:
        raise ParameterError("rho", f"must exceed hurst (rho > hurst), got rho={rho}, H={hurst}")
    return eps ** (1.0 / (rho - hurst))


# ----------------------------------------------------------- estimators ----


def _weight_rows(
    times: np.ndarray, kernel: Kernel, bandwidth: float, t, reflect: bool = False
) -> np.ndarray:
    """Kernel weights G(arg/phi) at the grid midpoints: a (len(t), n) matrix, 0 rows for no t."""
    mids = 0.5 * (times[:-1] + times[1:])
    s = np.asarray(t, dtype=float).reshape(-1, 1)
    return kernel.evaluate(((s - mids) if reflect else (mids - s)) / bandwidth)


def _divide_by_level(path: SdePath, t, product):
    """(product / X_t, valid): NaN wherever |X_t| < |x0| / 2, the division floor."""
    level = np.interp(t, path.times, path.values)
    valid = np.abs(level) >= 0.5 * abs(path.config.x0)
    return np.where(valid, product / np.where(valid, level, 1.0), np.nan), valid


def kernel_estimate_product(path: SdePath, cfg: EstimatorConfig, t):
    """Estimate J(t) = theta(t) x_t by kernel smoothing of the increments."""
    weights = _weight_rows(path.times, cfg.kernel, cfg.bandwidth, t)
    sums = _row_dots(weights, np.diff(path.values)) / cfg.bandwidth
    return float(sums[0]) if np.ndim(t) == 0 else sums


def estimate_series(
    path: SdePath,
    cfg: EstimatorConfig,
    points: int = 21,
) -> EstimateSeries:
    """Product and theta estimates over the evaluation window; theta is NaN
    wherever |X_t| < |x0| / 2, the division floor.
    """
    ts = cfg.eval_grid(points)
    prod = kernel_estimate_product(path, cfg, ts)
    theta, valid = _divide_by_level(path, ts, prod)
    return EstimateSeries(times=ts, product=prod, theta=theta, valid=valid)


# ------------------------------------------------------------ bias term ----


def bias_center_term(
    trend: TrendFunction, x0: float, t: float, k: int, kernel: Kernel
) -> float:
    """J^{(k+1)}(t) m_{k+1}(G) / (k+1)!, the center of the normalized error.

    Derivatives of J = theta * x come from the Leibniz rule with
    x^{(m+1)} = (theta x)^{(m)}, seeded by x(t) = x0 exp(int_0^t theta) with
    the trend's closed-form integral.  Raises DerivativeUnavailable through
    trend.derivative when the trend cannot certify theta^{(k+1)}.
    """
    integral = trend.integral(t)
    theta_derivs = [trend.derivative(i)(t) for i in range(k + 2)]
    d = [x0 * math.exp(integral)]  # d[m] = x^{(m)}(t)
    for m in range(k + 2):
        d.append(sum(math.comb(m, i) * theta_derivs[i] * d[m - i] for i in range(m + 1)))
    return d[k + 2] * kernel_moment(kernel, k + 1) / math.factorial(k + 1)


# ------------------------------------------------------ truncated variant --


def _gate(times: np.ndarray, x0: float, bound_constant: float):
    """above(values): sign(x0) X >= |x0| e^{-Lt} / 2 at each time, the threshold built once.

    L is a trend's certified bound on |theta|, so a negative one raises
    ``ParameterError``.
    """
    if not bound_constant >= 0.0:
        raise ParameterError("bound_constant", f"must be >= 0, got {bound_constant}")
    sign = math.copysign(1.0, x0)
    threshold = 0.5 * abs(x0) * np.exp(-bound_constant * times)
    return lambda values: sign * values >= threshold


def indicator_path(times: np.ndarray, values: np.ndarray, x0: float, bound_constant: float) -> np.ndarray:
    """Latched indicator of sign(x0) X staying at or above |x0| e^{-Lt} / 2 up to each time.

    Latching (once False, stays False) keeps the event path monotone even
    though the threshold itself decays.  With L >= 0 the threshold does not
    increase, so this is the event of the running minimum of sign(x0) X
    staying above it.  The sign makes the event mirror symmetric, as the SDE
    is: X(-x0, -Z) = -X(x0, Z).  A negative L raises ``ParameterError``.
    """
    return np.logical_and.accumulate(_gate(times, x0, bound_constant)(values))


def _truncated_estimator(times: np.ndarray, kernel: Kernel, bandwidth: float, t, x0: float,
                         bound_constant: float, variant: str, trend: TrendFunction,
                         eps: float, horizon: float):
    """estimate(X, Z) -> I(A_T) (1/phi) sum_j G((t - s_j)/phi) dY_j at every t, as an array.

    Everything but the path is built once: the reflected weight rows, the
    threshold of A_T and, for the oracle, theta dt and eps (2/x0) e^{LT}.
    On A_T the latched indicator is 1 at every step (and X stays away from 0),
    so dY is dX / X (observable) or theta dt + eps (2/x0) e^{LT} dZ (oracle);
    off A_T the estimate is 0.
    """
    if variant == "oracle":
        if trend is None:
            raise ValueError("variant 'oracle' needs the true trend")
        drift = trend.value(times[:-1]) * (times[1] - times[0])
        amp = eps * (2.0 / x0) * math.exp(bound_constant * horizon)
    elif variant != "observable":
        raise ValueError(f"unknown variant {variant!r} (expected 'observable' or 'oracle')")
    above = _gate(times, x0, bound_constant)
    weights = _weight_rows(times, kernel, bandwidth, t, reflect=True)

    def estimate(values: np.ndarray, noise: np.ndarray) -> np.ndarray:
        if not np.all(above(values)):
            return np.zeros(len(weights))
        if variant == "oracle":
            dy = drift + amp * np.diff(noise)
        else:
            dy = np.diff(values) / values[:-1]
        return _row_dots(weights, dy) / bandwidth

    return estimate


def alternate_estimate(
    path: SdePath,
    cfg: EstimatorConfig,
    t,
    bound_constant: float,
    x0: float,
    variant: str = "observable",
    trend: TrendFunction = None,
):
    """Truncated estimate I(A_T) (1/phi) sum_j G((t - s_j)/phi) dY_j; float for scalar t.

    variant "observable" builds dY = I dX / X from the path alone; variant
    "oracle" builds dY = theta I dt + eps (2/x0) e^{LT} I dZ from the true
    trend and driving noise, so it is only available in simulations.
    """
    estimate = _truncated_estimator(path.times, cfg.kernel, cfg.bandwidth, t, x0, bound_constant,
                                    variant, trend, path.config.eps, path.config.horizon)
    sums = estimate(path.values, path.noise)
    return float(sums[0]) if np.ndim(t) == 0 else sums
