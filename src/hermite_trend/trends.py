"""Trend (multiplier) function library with certified bounds and derivatives.

Every trend carries a certified bound on sup |theta| over [0, horizon] (used
by pathwise error bounds and by the truncated estimator's threshold), an
analytic derivative factory, its closed-form integral from 0 (the one route to
x(t) = x0 exp(int_0^t theta)) and one smoothness index rho: infinity for smooth
trends, k + gamma for a trend whose k-th derivative is gamma-Hoelder.  Rough
trends refuse derivative orders above ceil(rho) - 1.

A small grammar builds trends from strings, e.g. ``const:0.5``,
``sin:0,0.5,6.283185307179586``, ``poly:1,-0.5,0.25``,
``weier:0.3,0.5,3,12``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .validation import ParameterError

__all__ = [
    "DerivativeUnavailable",
    "TrendFunction",
    "constant_trend",
    "sinusoid_trend",
    "polynomial_trend",
    "weierstrass_trend",
    "parse_trend",
]


# Cap on weier partial-sum terms: value and derivative allocate len(t) x terms
# doubles per evaluation.  On [0, 1] the top-frequency check already stops
# lacunarity >= 2 by this count, so the cap binds only for lacunarity near 1.
MAX_WEIER_TERMS = 1024


class DerivativeUnavailable(ValueError):
    """Requested derivative order is not guaranteed for this trend's class."""


@dataclass(frozen=True)
class TrendFunction:
    """A multiplier t -> theta(t) on [0, horizon] with certified metadata.

    horizon : the interval of the bound; only perfbench/tracing.py reads it.
    bound   : certified sup_{[0, horizon]} |theta|.
    value   : t -> theta(t), elementwise on arrays.
    integral: t -> int_0^t theta(s) ds in closed form, elementwise on arrays.
    rho     : smoothness index k + gamma (the k-th derivative is gamma-Hoelder);
              infinity for smooth trends, whose every derivative is available.
    """

    label: str
    horizon: float
    bound: float
    value: Callable = field(compare=False, repr=False)
    _deriv: Callable = field(compare=False, repr=False)
    integral: Callable = field(compare=False, repr=False)
    rho: float = math.inf

    def derivative(self, order: int) -> Callable:
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        if order == 0:
            return self.value
        fn = self._deriv(order)
        if fn is None:
            raise DerivativeUnavailable(
                f"trend {self.label!r} guarantees derivatives only up to order "
                f"{math.ceil(self.rho) - 1}; order {order} requested"
            )
        return fn


# ---------------------------------------------------------- constructors ---


def _as_output(arr):
    return float(arr) if np.ndim(arr) == 0 else arr


def constant_trend(level: float, horizon: float = 1.0) -> TrendFunction:
    level = float(level)

    def value(t):
        return _as_output(np.full_like(np.asarray(t, dtype=float), level))

    def deriv(order):
        return lambda t: _as_output(np.zeros_like(np.asarray(t, dtype=float)))

    return TrendFunction(
        label=f"const:{level:g}",
        horizon=float(horizon),
        bound=abs(level),
        value=value,
        _deriv=deriv,
        integral=lambda t: _as_output(level * np.asarray(t, dtype=float)),
    )


def sinusoid_trend(
    offset: float, amplitude: float, omega: float, horizon: float = 1.0
) -> TrendFunction:
    """theta(t) = offset + amplitude * sin(omega t)."""
    offset, amplitude, omega = float(offset), float(amplitude), float(omega)

    def value(t):
        return _as_output(offset + amplitude * np.sin(omega * np.asarray(t, dtype=float)))

    def deriv(order):
        # d^m/dt^m sin(omega t) = omega^m sin(omega t + m pi/2)
        shift = order * math.pi / 2.0
        scale = amplitude * omega**order

        def fn(t):
            return _as_output(scale * np.sin(omega * np.asarray(t, dtype=float) + shift))

        return fn

    def integral(t):
        # offset t + amplitude (1 - cos omega t) / omega, with 1 - cos x = 2 sin^2(x/2)
        # so that small omega t keeps its digits; omega = 0 leaves offset t
        t = np.asarray(t, dtype=float)
        if omega == 0.0:
            return _as_output(offset * t)
        return _as_output(offset * t + amplitude * (2.0 * np.sin(0.5 * omega * t) ** 2) / omega)

    return TrendFunction(
        label=f"sin:{offset:g},{amplitude:g},{omega:g}",
        horizon=float(horizon),
        bound=abs(offset) + abs(amplitude),
        value=value,
        _deriv=deriv,
        integral=integral,
    )


def polynomial_trend(coeffs, horizon: float = 1.0) -> TrendFunction:
    """theta(t) = sum_i coeffs[i] t^i; bound certified as sum |c_i| horizon^i."""
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise ValueError("polynomial trend needs at least one coefficient")
    poly = np.polynomial.Polynomial(coeffs)
    antiderivative = poly.integ()  # the one vanishing at 0
    bound = sum(abs(c) * float(horizon) ** i for i, c in enumerate(coeffs))

    def deriv(order):
        dpoly = poly.deriv(order)
        return lambda t: _as_output(dpoly(np.asarray(t, dtype=float)))

    return TrendFunction(
        label="poly:" + ",".join(f"{c:g}" for c in coeffs),
        horizon=float(horizon),
        bound=bound,
        value=lambda t: _as_output(poly(np.asarray(t, dtype=float))),
        _deriv=deriv,
        integral=lambda t: _as_output(antiderivative(np.asarray(t, dtype=float))),
    )


def weierstrass_trend(
    amplitude: float, decay: float, lacunarity: float, terms: int, horizon: float = 1.0
) -> TrendFunction:
    """Integrated Weierstrass partial sum: rough first derivative.

    theta(t) = amplitude * sum_{j<terms} decay^j lacunarity^(-j) sin(lacunarity^j t).
    theta'(t) = amplitude * sum_j decay^j cos(lacunarity^j t) is gamma-Hoelder
    with gamma = min(1, ln(1/decay)/ln(lacunarity)); derivatives of order >= 2
    are deliberately unavailable (rho = 1 + gamma < 2 in the interesting range).
    """
    amplitude, decay, lacunarity = float(amplitude), float(decay), float(lacunarity)
    terms = int(terms)
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must lie in (0, 1), got {decay}")
    if lacunarity <= 1.0:
        raise ValueError(f"lacunarity must exceed 1, got {lacunarity}")
    if not 1 <= terms <= MAX_WEIER_TERMS:
        raise ValueError(f"weier terms must lie in [1, {MAX_WEIER_TERMS}], got {terms}")
    try:  # the largest sine argument, horizon * lacunarity^(terms-1), must be finite
        top_phase = horizon * math.pow(lacunarity, terms - 1)
    except OverflowError:
        top_phase = math.inf
    if not math.isfinite(top_phase):
        raise ValueError(
            f"weier top frequency {lacunarity:g}^{terms - 1} overflows on "
            f"[0, {horizon:g}]; use fewer terms"
        )
    j = np.arange(terms)
    weights = amplitude * decay**j / lacunarity**j
    freqs = lacunarity**j
    gamma = min(1.0, math.log(1.0 / decay) / math.log(lacunarity))

    def value(t):
        t = np.asarray(t, dtype=float)
        return _as_output(np.sum(weights * np.sin(np.multiply.outer(t, freqs)), axis=-1))

    def deriv(order):
        if order > 1:
            return None

        def fn(t):
            t = np.asarray(t, dtype=float)
            return _as_output(
                amplitude * np.sum(decay**j * np.cos(np.multiply.outer(t, freqs)), axis=-1)
            )

        return fn

    def integral(t):
        # sum_j w_j (1 - cos f_j t) / f_j, with 1 - cos x = 2 sin^2(x/2)
        t = np.asarray(t, dtype=float)
        half = np.sin(np.multiply.outer(t, 0.5 * freqs))
        return _as_output(np.sum(weights * (2.0 * half * half) / freqs, axis=-1))

    return TrendFunction(
        label=f"weier:{amplitude:g},{decay:g},{lacunarity:g},{terms}",
        horizon=float(horizon),
        bound=float(np.sum(np.abs(weights))),
        value=value,
        _deriv=deriv,
        integral=integral,
        rho=1 + gamma,
    )


# ---------------------------------------------------------------- parser ---


def parse_trend(text: str, horizon: float = 1.0) -> TrendFunction:
    """Build a trend from the mini-grammar ``kind:arg,arg,...``.

    Every bad spec raises ``ParameterError("trend", ...)``, quoting the spec.
    """
    try:
        return _build_trend(text, horizon)
    except ValueError as exc:
        raise ParameterError("trend", f"{text!r}: {exc}") from exc


def _build_trend(text: str, horizon: float) -> TrendFunction:
    kind, sep, argstr = text.strip().partition(":")
    if not sep:
        raise ValueError("lacks the ':' after the kind")
    try:
        args = [float(a) for a in argstr.split(",")] if argstr else []
    except ValueError as exc:
        raise ValueError("has a non-numeric argument") from exc
    if not all(math.isfinite(a) for a in args):
        raise ValueError("arguments must be finite")
    if kind == "const":
        if len(args) != 1:
            raise ValueError(f"const trend takes 1 argument, got {len(args)}")
        return constant_trend(args[0], horizon)
    if kind == "sin":
        if len(args) != 3:
            raise ValueError(f"sin trend takes 3 arguments (offset, amplitude, omega), got {len(args)}")
        return sinusoid_trend(*args, horizon=horizon)
    if kind == "poly":
        return polynomial_trend(args, horizon)
    if kind == "weier":
        if len(args) != 4:
            raise ValueError(
                f"weier trend takes 4 arguments (amplitude, decay, lacunarity, terms), got {len(args)}"
            )
        if args[3] != int(args[3]):
            raise ValueError(f"weier term count must be an integer, got {args[3]}")
        return weierstrass_trend(args[0], args[1], args[2], int(args[3]), horizon)
    raise ValueError(f"unknown trend kind {kind!r} (expected const|sin|poly|weier)")
