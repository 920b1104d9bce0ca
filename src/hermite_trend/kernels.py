"""Bank of compactly supported polynomial kernels with exact moment algebra.

A kernel is one polynomial with rational coefficients on one interval
[lo, hi], zero elsewhere.  Its autocorrelation psi(w) = int G(u) G(u+w) du is
even (substitute u -> u - w), so it is kept as one polynomial on [0, hi-lo]
and read at |w|.  Construction, moments and psi are exact: ``numpy.polynomial``
on object arrays of Fractions.  Floats appear only in evaluation and in the
irrational power-law step of the variance functional, so moment identities
hold to full double precision rather than to solver tolerance.  Each piece
converts its bounds and coefficients to floats once; numpy's ``polyval`` is the
one Horner evaluator, for ``Kernel.evaluate`` and ``kernel_autocorrelation``.

``vanishing_moment_kernel(k)`` solves the k+1 moment conditions in the even
Legendre basis with the endpoint condition G(1) = 0 for k >= 1; this yields
the box (k = 0), Epanechnikov (k = 1), and the quartic kernel (k = 3) as the
first representatives.

The two quadrature cross-checks, ``_autocorrelation_numeric`` and
``asymptotic_variance_quadrature``, import scipy when called; nothing on the
run path does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

import numpy as np

from .validation import ParameterError, check_hurst

__all__ = [
    "Kernel",
    "KernelPiece",
    "vanishing_moment_kernel",
    "box_kernel",
    "kernel_moment",
    "kernel_autocorrelation",
    "asymptotic_variance",
    "asymptotic_variance_quadrature",
    "MAX_KERNEL_ORDER",
]

# Beyond this the monomial coefficients overwhelm double precision when the
# kernel is finally evaluated in floats.
MAX_KERNEL_ORDER = 12


# ---------------------------------------------------------------- types ----


@dataclass(frozen=True)
class KernelPiece:
    lo: Fraction
    hi: Fraction
    coeffs: tuple  # Fractions, ascending powers

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"piece must have lo < hi, got [{self.lo}, {self.hi}]")

    @cached_property
    def _floats(self) -> tuple:
        """(lo, hi, coefficient array) in floats, converted once per piece."""
        return float(self.lo), float(self.hi), np.array([float(c) for c in self.coeffs])

    def evaluate(self, u):
        """Horner evaluation (``np.polyval``) on the closed interval [lo, hi], zero elsewhere."""
        lo, hi, coeffs = self._floats
        scalar = np.ndim(u) == 0
        arr = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.zeros_like(arr)
        mask = (arr >= lo) & (arr <= hi)
        out[mask] = np.polyval(coeffs[::-1], arr[mask])
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class Kernel:
    """One polynomial on one interval, with declared vanishing-moment order."""

    order: int
    piece: KernelPiece

    @property
    def support(self) -> tuple:
        return (float(self.piece.lo), float(self.piece.hi))

    def evaluate(self, u):
        return self.piece.evaluate(u)


# ----------------------------------------------------------- construction --


def _exact(coeffs) -> np.ndarray:
    """An object array of Fractions, on which numpy.polynomial is exact."""
    return np.array([Fraction(c) for c in coeffs], dtype=object)


def _from_legendre(series) -> tuple:
    """Exact monomial coefficients of sum_m series[m] P_m."""
    from numpy.polynomial.legendre import leg2poly

    return tuple(leg2poly(_exact(series)))


def _moment(coeffs, j: int, lo, hi) -> Fraction:
    """Exact int_lo^hi u^j p(u) du, p given by ascending coefficients."""
    from numpy.polynomial.polynomial import polyint, polyval

    return polyval(hi, polyint(_exact((0,) * j + tuple(coeffs)), lbnd=lo))


def order_k_legendre_coefficients(k: int) -> tuple:
    """Coefficients a_s of G = sum_s a_s P_{2s} solving the moment conditions.

    a_0 fixes int G = 1; a_1..a_r kill the even moments 2..2r (odd moments
    vanish by symmetry); the last coefficient enforces G(1) = 0.  The system
    is triangular thanks to Legendre orthogonality, so it solves exactly by
    forward substitution.
    """
    if k < 1:
        raise ValueError("Legendre solve only applies for k >= 1")
    r = k // 2
    a = [Fraction(0)] * (r + 2)
    a[0] = Fraction(1, 2)
    even_p = [_from_legendre((0,) * 2 * s + (1,)) for s in range(r + 1)]  # P_0, P_2, ..
    for tau in range(1, r + 1):
        acc = sum(a[s] * _moment(even_p[s], 2 * tau, -1, 1) for s in range(tau))
        a[tau] = -acc / _moment(even_p[tau], 2 * tau, -1, 1)
    a[r + 1] = -sum(a[: r + 1])  # P_m(1) = 1 for every m
    return tuple(a)


@lru_cache(maxsize=None, typed=True)
def vanishing_moment_kernel(k: int) -> Kernel:
    """Kernel on [-1, 1] with int G = 1 and int u^j G = 0 for j = 1..k.

    k = 0 is the box G = 1/2; k = 1 the Epanechnikov kernel; k = 3 the quartic
    kernel.  Orders above MAX_KERNEL_ORDER are rejected (float evaluation of
    the resulting coefficients would lose the moment guarantees).
    """
    if not 0 <= k <= MAX_KERNEL_ORDER:
        raise ParameterError(
            "k", f"gives kernel order {k}, outside [0, {MAX_KERNEL_ORDER}] (the conditioning guard)"
        )
    legendre = order_k_legendre_coefficients(k) if k else (Fraction(1, 2),)  # k = 0: the box
    even = [c for a in legendre for c in (a, 0)][:-1]  # G = sum_s a_s P_{2s}
    return Kernel(order=k, piece=KernelPiece(Fraction(-1), Fraction(1), _from_legendre(even)))


def box_kernel(width: float = 1.0) -> Kernel:
    """Uniform kernel of the given width centred at zero (order 0 by label)."""
    if not 0 < width < np.inf:
        raise ParameterError("width", f"must be positive and finite, got {width}")
    half = Fraction(width) / 2
    piece = KernelPiece(-half, half, (1 / Fraction(width),))
    return Kernel(order=0, piece=piece)


# ------------------------------------------------------------ functionals --


def kernel_moment(kernel: Kernel, j: int) -> float:
    """Exact int u^j G(u) du by closed-form integration."""
    if j < 0:
        raise ValueError(f"moment index must be >= 0, got {j}")
    p = kernel.piece
    return float(_moment(p.coeffs, j, p.lo, p.hi))


@lru_cache(maxsize=None)
def _autocorrelation_piece(kernel: Kernel) -> KernelPiece:
    """Exact psi(w) = int G(u) G(u+w) du on w in [0, hi-lo], the half that fixes psi.

    The supports overlap on [lo, hi-w], and G(u+w) = sum_j G^(j)(u) w^j / j! (Taylor), so
    psi(w) = sum_j (w^j / j!) A_j(hi-w) with A_j(x) = int_lo^x G G^(j).
    """
    from numpy.polynomial import Polynomial
    from numpy.polynomial.polynomial import polyadd, polyder, polyint, polymul, polyval

    p = kernel.piece
    g, psi = _exact(p.coeffs), _exact((0,))
    for j in range(len(g)):
        anti = polyint(polymul(g, polyder(g, j)), lbnd=p.lo)
        upper = polyval(Polynomial(_exact((p.hi, -1))), anti).coef  # A_j(hi - w), in w
        psi = polyadd(psi, np.concatenate((_exact((0,) * j), upper / factorial(j))))
    return KernelPiece(Fraction(0), p.hi - p.lo, tuple(psi))


def kernel_autocorrelation(kernel: Kernel, w) -> float:
    """psi(w) = int G(u) G(u+w) du, the exact half evaluated at |w|."""
    return _autocorrelation_piece(kernel).evaluate(np.abs(w))


def _power_law_piece_integral(piece: KernelPiece, exponent: float) -> float:
    """int_0^hi poly(w) w^exponent dw for a piece on [0, hi]."""
    hi = float(piece.hi)
    total = 0.0
    for m, c in enumerate(piece.coeffs):
        p = m + exponent + 1.0
        total += float(c) * hi**p / p
    return total


def asymptotic_variance(kernel: Kernel, hurst: float) -> float:
    """h(2h-1) * int psi(w) |w|^(2h-2) dw in closed form, twice the w >= 0 half.

    The exponent on each monomial term is m + 2h - 1 > 0, so the integral is
    proper despite the singular weight.  For the unit-width box this equals 1
    for every admissible h.
    """
    check_hurst(hurst)
    exponent = 2.0 * hurst - 2.0
    half = _power_law_piece_integral(_autocorrelation_piece(kernel), exponent)
    return hurst * (2.0 * hurst - 1.0) * (half + half)


def _autocorrelation_numeric(kernel: Kernel, w: float) -> float:
    """psi(w) by adaptive quadrature of G(u) G(u+w); independent of the exact route."""
    a, b = kernel.support
    lo, hi = max(a, a - w), min(b, b - w)
    if hi <= lo:
        return 0.0
    from scipy.integrate import quad

    val, _ = quad(lambda u: kernel.evaluate(u) * kernel.evaluate(u + w), lo, hi, limit=200)
    return val


def asymptotic_variance_quadrature(kernel: Kernel, hurst: float) -> float:
    """Adaptive-quadrature fallback for the variance functional.

    Integrates psi, itself evaluated numerically, against the |w|^(2h-2)
    singularity with QUADPACK algebraic weights on [-width, 0] and [0, width].
    Serves as the independent cross-check of the closed form.
    """
    from scipy.integrate import quad

    check_hurst(hurst)
    exponent = 2.0 * hurst - 2.0
    width = float(kernel.piece.hi - kernel.piece.lo)
    psi = lambda w: _autocorrelation_numeric(kernel, w)
    left, _ = quad(psi, -width, 0.0, weight="alg", wvar=(0.0, exponent), limit=200)
    right, _ = quad(psi, 0.0, width, weight="alg", wvar=(exponent, 0.0), limit=200)
    return hurst * (2.0 * hurst - 1.0) * (left + right)
