"""Bank of compactly supported polynomial kernels with exact moment algebra.

A kernel is one polynomial with rational coefficients on one interval
[lo, hi], zero elsewhere.  Its autocorrelation psi(w) = int G(u) G(u+w) du is
the piecewise object: two polynomials, on [lo-hi, 0] and [0, hi-lo].
Construction, moments, psi, and the power-law part of the asymptotic variance
functional are all computed in exact rational arithmetic (floats appear only
in the final irrational power-law step), so moment identities hold to full
double precision rather than to solver tolerance.

``vanishing_moment_kernel(k)`` solves the k+1 moment conditions in the even
Legendre basis with the endpoint condition G(1) = 0 for k >= 1; this yields
the box (k = 0), Epanechnikov (k = 1), and the quartic kernel (k = 3) as the
first representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import quad

from . import exactpoly as xp
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


@dataclass(frozen=True)
class Kernel:
    """One polynomial on one interval, with declared vanishing-moment order."""

    order: int
    piece: KernelPiece

    @property
    def support(self) -> tuple:
        return (float(self.piece.lo), float(self.piece.hi))

    @cached_property
    def _float_pieces(self):
        return _to_float_pieces((self.piece,))

    def evaluate(self, u):
        return _evaluate_pieces(self._float_pieces, u)


def _to_float_pieces(pieces) -> list:
    return [
        (float(p.lo), float(p.hi), np.array([float(c) for c in p.coeffs]))
        for p in pieces
    ]


def _evaluate_pieces(float_pieces, u):
    """Horner evaluation on pieces [lo, hi) (the last one closed), zero elsewhere."""
    scalar = np.ndim(u) == 0
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros_like(arr)
    last = len(float_pieces) - 1
    for i, (lo, hi, coeffs) in enumerate(float_pieces):
        mask = (arr >= lo) & (arr < hi) if i < last else (arr >= lo) & (arr <= hi)
        if mask.any():
            acc = np.zeros(int(mask.sum()))
            for c in coeffs[::-1]:
                acc = acc * arr[mask] + c
            out[mask] = acc
    return float(out[0]) if scalar else out


# ----------------------------------------------------------- construction --


@lru_cache(maxsize=None)
def _legendre_coeffs(degree: int) -> tuple:
    """Monomial coefficients of the Legendre polynomial P_degree, exact."""
    if degree == 0:
        return (Fraction(1),)
    if degree == 1:
        return (Fraction(0), Fraction(1))
    prev2, prev1 = _legendre_coeffs(degree - 2), _legendre_coeffs(degree - 1)
    shifted = (Fraction(0),) + prev1  # u * P_{degree-1}
    term1 = xp.poly_scale(shifted, Fraction(2 * degree - 1, degree))
    term2 = xp.poly_scale(prev2, Fraction(-(degree - 1), degree))
    return xp.poly_add(term1, term2)


def _monomial_moment(poly, j: int) -> Fraction:
    """Exact int_{-1}^{1} u^j poly(u) du."""
    total = Fraction(0)
    for c, coef in enumerate(poly):
        if (j + c) % 2 == 0:
            total += coef * Fraction(2, j + c + 1)
    return total


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
    for tau in range(1, r + 1):
        acc = sum(
            a[s] * _monomial_moment(_legendre_coeffs(2 * s), 2 * tau)
            for s in range(tau)
        )
        a[tau] = -acc / _monomial_moment(_legendre_coeffs(2 * tau), 2 * tau)
    a[r + 1] = -sum(a[: r + 1])  # P_m(1) = 1 for every m
    return tuple(a)


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
    if k == 0:
        piece = KernelPiece(Fraction(-1), Fraction(1), (Fraction(1, 2),))
        return Kernel(order=0, piece=piece)
    poly = ()
    for s, a in enumerate(order_k_legendre_coefficients(k)):
        poly = xp.poly_add(poly, xp.poly_scale(_legendre_coeffs(2 * s), a))
    piece = KernelPiece(Fraction(-1), Fraction(1), poly)
    return Kernel(order=k, piece=piece)


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
    total = Fraction(0)
    for c, coef in enumerate(p.coeffs):
        power = j + c + 1
        total += coef * (p.hi**power - p.lo**power) / power
    return float(total)


@lru_cache(maxsize=None)
def _autocorrelation_pieces(kernel: Kernel) -> tuple:
    """Exact psi(w) = int G(u) G(u+w) du as two pieces meeting at w = 0.

    With A(u, w) the u-antiderivative of G(u) G(u+w), the supports overlap on
    [lo-w, hi] for w in [lo-hi, 0] and on [lo, hi-w] for w in [0, hi-lo];
    substituting those bounds into A gives a polynomial in w on each side.
    """
    p = kernel.piece
    anti = xp.biv_antiderivative_u(xp.biv_product_shifted(p.coeffs, p.coeffs))

    def overlap(upper, lower):
        acc = xp.poly_add(upper, xp.poly_scale(lower, -1))
        return acc if acc else (Fraction(0),)

    left = overlap(xp.biv_substitute_u(anti, p.hi, 0), xp.biv_substitute_u(anti, p.lo, -1))
    right = overlap(xp.biv_substitute_u(anti, p.hi, -1), xp.biv_substitute_u(anti, p.lo, 0))
    zero = Fraction(0)
    return (
        KernelPiece(p.lo - p.hi, zero, left),
        KernelPiece(zero, p.hi - p.lo, right),
    )


def kernel_autocorrelation(kernel: Kernel, w) -> float:
    """psi(w) = int G(u) G(u+w) du, evaluated from the exact piecewise form."""
    return _evaluate_pieces(_to_float_pieces(_autocorrelation_pieces(kernel)), w)


def _power_law_piece_integral(piece: KernelPiece, exponent: float) -> float:
    """int_piece poly(w) |w|^exponent dw for a piece on one side of zero."""
    lo, hi = float(piece.lo), float(piece.hi)
    total = 0.0
    if lo >= 0.0:
        for m, c in enumerate(piece.coeffs):
            p = m + exponent + 1.0
            total += float(c) * (hi**p - lo**p) / p
    else:
        for m, c in enumerate(piece.coeffs):
            p = m + exponent + 1.0
            total += float(c) * (-1.0) ** m * ((-lo) ** p - (-hi) ** p) / p
    return total


def asymptotic_variance(kernel: Kernel, hurst: float) -> float:
    """h(2h-1) * int psi(w) |w|^(2h-2) dw in closed form.

    The exponent on each monomial term is m + 2h - 1 > 0, so the integral is
    proper despite the singular weight.  For the unit-width box this equals 1
    for every admissible h.
    """
    check_hurst(hurst)
    exponent = 2.0 * hurst - 2.0
    total = sum(
        _power_law_piece_integral(p, exponent) for p in _autocorrelation_pieces(kernel)
    )
    return hurst * (2.0 * hurst - 1.0) * total


def _autocorrelation_numeric(kernel: Kernel, w: float) -> float:
    """psi(w) by adaptive quadrature of G(u) G(u+w); independent of the exact route."""
    a, b = kernel.support
    lo, hi = max(a, a - w), min(b, b - w)
    if hi <= lo:
        return 0.0
    val, _ = quad(lambda u: kernel.evaluate(u) * kernel.evaluate(u + w), lo, hi, limit=200)
    return val


def asymptotic_variance_quadrature(kernel: Kernel, hurst: float) -> float:
    """Adaptive-quadrature fallback for the variance functional.

    Integrates psi, itself evaluated numerically, against the |w|^(2h-2)
    singularity with QUADPACK algebraic weights on [-width, 0] and [0, width].
    Serves as the independent cross-check of the closed form.
    """
    check_hurst(hurst)
    exponent = 2.0 * hurst - 2.0
    width = float(kernel.piece.hi - kernel.piece.lo)
    psi = lambda w: _autocorrelation_numeric(kernel, w)
    left, _ = quad(psi, -width, 0.0, weight="alg", wvar=(0.0, exponent), limit=200)
    right, _ = quad(psi, 0.0, width, weight="alg", wvar=(exponent, 0.0), limit=200)
    return hurst * (2.0 * hurst - 1.0) * (left + right)
