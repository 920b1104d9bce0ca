"""Exact rational polynomial arithmetic used by the kernel bank.

Univariate polynomials are tuples of Fractions in ascending powers.  The
autocorrelation of a polynomial kernel needs one bivariate step
(integrating G(u) G(u+w) over u with bounds linear in w); bivariate
polynomials are dicts {(power_of_u, power_of_w): Fraction}.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

Poly = tuple  # tuple[Fraction, ...]
BiPoly = dict  # dict[tuple[int, int], Fraction]

__all__ = [
    "poly_add",
    "poly_scale",
    "poly_trim",
    "biv_product_shifted",
    "biv_antiderivative_u",
    "biv_substitute_u",
]


def poly_trim(p) -> Poly:
    coeffs = list(p)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(p, q) -> Poly:
    n = max(len(p), len(q))
    return poly_trim(
        tuple(
            (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
        )
    )


def poly_scale(p, c) -> Poly:
    c = Fraction(c)
    return poly_trim(tuple(a * c for a in p))


def biv_product_shifted(p, q) -> BiPoly:
    """Bivariate expansion of p(u) * q(u + w)."""
    out: BiPoly = {}
    for c, qc in enumerate(q):
        if qc == 0:
            continue
        # (u + w)^c = sum_i C(c, i) u^i w^(c-i)
        for i in range(c + 1):
            term = qc * comb(c, i)
            for d, pc in enumerate(p):
                if pc == 0:
                    continue
                key = (d + i, c - i)
                out[key] = out.get(key, Fraction(0)) + pc * term
    return out


def biv_antiderivative_u(b: BiPoly) -> BiPoly:
    return {(i + 1, j): c / (i + 1) for (i, j), c in b.items()}


def biv_substitute_u(b: BiPoly, alpha, beta) -> Poly:
    """Substitute u = alpha + beta * w, returning a univariate polynomial in w."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    out = ()
    for (i, j), c in b.items():
        # (alpha + beta w)^i expanded, then shifted by w^j
        expanded = [Fraction(0)] * (i + j + 1)
        for s in range(i + 1):
            expanded[s + j] += c * comb(i, s) * alpha ** (i - s) * beta**s
        out = poly_add(out, tuple(expanded))
    return out
