"""Kernel bank: pinned shapes, exact moments, autocorrelation, variance functional."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.special import eval_legendre

from hermite_trend.kernels import (
    MAX_KERNEL_ORDER,
    Kernel,
    KernelPiece,
    _autocorrelation_piece,
    asymptotic_variance,
    asymptotic_variance_quadrature,
    box_kernel,
    kernel_autocorrelation,
    kernel_moment,
    order_k_legendre_coefficients,
    vanishing_moment_kernel,
)

H_GRID = [0.55, 0.7, 0.9]

# Kernels whose support is not centred at 0: a box on [-1/2, 1] and the
# quadratic 1 - u/2 + u^2/7 on [-1/3, 5/2].
OFF_CENTRE = [
    Kernel(order=0, piece=KernelPiece(Fraction(-1, 2), Fraction(1), (Fraction(2, 3),))),
    Kernel(
        order=0,
        piece=KernelPiece(
            Fraction(-1, 3), Fraction(5, 2), (Fraction(1), Fraction(-1, 2), Fraction(1, 7))
        ),
    ),
]


class TestConstruction:
    def test_order_zero_is_half_box(self):
        box = vanishing_moment_kernel(0)
        assert box.piece.coeffs == (Fraction(1, 2),)
        assert box.support == (-1.0, 1.0)
        assert box.evaluate(0.3) == 0.5
        assert box.evaluate(1.5) == 0.0

    def test_order_one_is_epanechnikov(self):
        epan = vanishing_moment_kernel(1)
        assert epan.piece.coeffs == (Fraction(3, 4), Fraction(0), Fraction(-3, 4))
        u = np.linspace(-1, 1, 41)
        assert epan.evaluate(u) == pytest.approx(0.75 * (1 - u**2), abs=1e-14)

    def test_order_three_is_quartic(self):
        quartic = vanishing_moment_kernel(3)
        expected = (
            Fraction(45, 32),
            Fraction(0),
            Fraction(-150, 32),
            Fraction(0),
            Fraction(105, 32),
        )
        assert quartic.piece.coeffs == expected
        u = np.linspace(-1, 1, 41)
        assert quartic.evaluate(u) == pytest.approx(
            (15 / 32) * (3 - 10 * u**2 + 7 * u**4), abs=1e-13
        )

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_matches_scipy_legendre_expansion(self, k):
        # Independent route: evaluate the solved expansion with scipy's Legendre.
        kernel = vanishing_moment_kernel(k)
        coeffs = order_k_legendre_coefficients(k)
        u = np.linspace(-1, 1, 17)
        expansion = sum(
            float(a) * eval_legendre(2 * s, u) for s, a in enumerate(coeffs)
        )
        assert kernel.evaluate(u) == pytest.approx(expansion, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 12])
    def test_vanishes_at_support_endpoints(self, k):
        kernel = vanishing_moment_kernel(k)
        assert kernel.evaluate(-1.0) == pytest.approx(0.0, abs=1e-9)
        assert kernel.evaluate(1.0) == pytest.approx(0.0, abs=1e-9)

    def test_conditioning_guard(self):
        with pytest.raises(ValueError):
            vanishing_moment_kernel(13)
        with pytest.raises(ValueError):
            vanishing_moment_kernel(-1)


class TestMoments:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 12])
    def test_moment_conditions_to_machine_precision(self, k):
        kernel = vanishing_moment_kernel(k)
        for j in range(k + 1):
            target = 1.0 if j == 0 else 0.0
            got = kernel_moment(kernel, j)
            assert abs(got - target) <= 1e-12, f"k={k} j={j}: {got}"

    def test_epanechnikov_second_moment(self):
        assert kernel_moment(vanishing_moment_kernel(1), 2) == pytest.approx(0.2, abs=1e-15)

    def test_quartic_fourth_moment(self):
        # First non-vanishing moment of the order-3 kernel: -1/21.
        got = kernel_moment(vanishing_moment_kernel(3), 4)
        assert got == pytest.approx(-1.0 / 21.0, abs=1e-15)

    def test_unit_box_moments(self):
        box = box_kernel(1.0)
        assert kernel_moment(box, 0) == pytest.approx(1.0, abs=1e-15)
        assert kernel_moment(box, 1) == pytest.approx(0.0, abs=1e-15)
        assert kernel_moment(box, 2) == pytest.approx(1.0 / 12.0, abs=1e-15)


class TestAutocorrelation:
    @pytest.mark.parametrize("w,expected", [(0.0, 1.0), (0.25, 0.75), (-0.25, 0.75), (0.99, 0.01)])
    def test_unit_box_triangle(self, w, expected):
        assert kernel_autocorrelation(box_kernel(1.0), w) == pytest.approx(expected, abs=1e-14)

    def test_zero_outside_support_difference(self):
        assert kernel_autocorrelation(box_kernel(1.0), 1.5) == 0.0
        assert kernel_autocorrelation(vanishing_moment_kernel(1), -2.5) == 0.0

    def test_epanechnikov_at_zero_is_l2_norm(self):
        # psi(0) = int G^2 = 3/5 for Epanechnikov.
        got = kernel_autocorrelation(vanishing_moment_kernel(1), 0.0)
        assert got == pytest.approx(0.6, abs=1e-14)

    @pytest.mark.parametrize("k", [1, 3])
    def test_even_in_w(self, k):
        kernel = vanishing_moment_kernel(k)
        ws = np.linspace(0.05, 1.9, 9)
        assert kernel_autocorrelation(kernel, ws) == pytest.approx(
            kernel_autocorrelation(kernel, -ws), abs=1e-13
        )

    @pytest.mark.parametrize("kernel", OFF_CENTRE, ids=["lopsided-box", "quadratic"])
    def test_even_in_w_off_centre(self, kernel):
        ws = np.linspace(-3.0, 3.0, 601)
        assert np.array_equal(
            kernel_autocorrelation(kernel, ws), kernel_autocorrelation(kernel, -ws)
        )

    def test_psi_floats_are_converted_once_per_kernel(self):
        kernel = vanishing_moment_kernel(5)
        kernel_autocorrelation(kernel, 0.3)
        first = _autocorrelation_piece(kernel)._floats[2]
        kernel_autocorrelation(kernel, np.array([0.1, 0.7]))
        assert _autocorrelation_piece(kernel)._floats[2] is first

    @pytest.mark.parametrize(
        "kernel",
        [vanishing_moment_kernel(k) for k in range(MAX_KERNEL_ORDER + 1)] + OFF_CENTRE,
        ids=[f"k{k}" for k in range(MAX_KERNEL_ORDER + 1)] + ["lopsided-box", "quadratic"],
    )
    def test_bits_of_a_float_horner_over_the_fractions(self, kernel):
        psi = _autocorrelation_piece(kernel)
        width = float(psi.hi)  # the support [0, hi - lo] of psi, read at |w|
        ws = np.linspace(-1.1, 1.1, 23) * width
        want = []
        for w in np.abs(ws).tolist():
            acc = 0.0
            for c in reversed(psi.coeffs):
                acc = acc * w + float(c)
            want.append(acc if w <= width else 0.0)
        assert [kernel_autocorrelation(kernel, w) for w in ws] == want
        assert kernel_autocorrelation(kernel, ws).tolist() == want

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_matches_direct_quadrature(self, k):
        from scipy.integrate import quad

        kernel = vanishing_moment_kernel(k)
        for w in (0.1, 0.7, 1.3):
            direct, _ = quad(
                lambda u: kernel.evaluate(u) * kernel.evaluate(u + w), -1.0, 1.0 - w
            )
            assert kernel_autocorrelation(kernel, w) == pytest.approx(direct, abs=1e-9)


class TestAsymptoticVariance:
    @pytest.mark.parametrize("hurst", H_GRID)
    def test_unit_box_identity(self, hurst):
        got = asymptotic_variance(box_kernel(1.0), hurst)
        print(f"unit box, hurst={hurst}: variance={got:.12f}")
        assert got == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("hurst", H_GRID)
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_closed_form_agrees_with_quadrature(self, k, hurst):
        kernel = vanishing_moment_kernel(k)
        exact = asymptotic_variance(kernel, hurst)
        numeric = asymptotic_variance_quadrature(kernel, hurst)
        print(f"k={k} hurst={hurst}: closed={exact:.10f} quad={numeric:.10f}")
        assert abs(exact - numeric) <= 1e-6

    def test_width_scaling_law(self):
        # G_s(u) = G(u/s)/s multiplies the variance functional by s^(2h-2).
        hurst = 0.7
        base_kernel = vanishing_moment_kernel(1)
        s = Fraction(2)
        p = base_kernel.piece
        scaled_kernel = Kernel(
            order=base_kernel.order,
            piece=KernelPiece(
                p.lo * s,
                p.hi * s,
                tuple(c / s ** (i + 1) for i, c in enumerate(p.coeffs)),
            ),
        )
        base = asymptotic_variance(base_kernel, hurst)
        scaled = asymptotic_variance(scaled_kernel, hurst)
        assert scaled == pytest.approx(2.0 ** (2 * hurst - 2) * base, rel=1e-12)
        # The box of width w is the unit box rescaled by w.
        for width in (0.5, 2.0, 3.0):
            got = asymptotic_variance(box_kernel(width), hurst)
            assert got == pytest.approx(width ** (2 * hurst - 2), rel=1e-12), width

    @pytest.mark.parametrize("hurst", H_GRID)
    @pytest.mark.parametrize("kernel", OFF_CENTRE, ids=["lopsided-box", "quadratic"])
    def test_off_centre_closed_form_agrees_with_quadrature(self, kernel, hurst):
        # The closed form builds psi from the overlap [lo, hi-w] for w >= 0 only
        # and mirrors it; the quadrature integrates both sides independently.
        exact = asymptotic_variance(kernel, hurst)
        numeric = asymptotic_variance_quadrature(kernel, hurst)
        assert exact == pytest.approx(numeric, rel=1e-12)

    def test_two_wide_box_from_scaling(self):
        # vanishing_moment_kernel(0) is the box of width 2.
        hurst = 0.7
        got = asymptotic_variance(vanishing_moment_kernel(0), hurst)
        assert got == pytest.approx(2.0 ** (2 * hurst - 2), rel=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_diffusive_limit_is_square_of_mass(self, k):
        got = asymptotic_variance(vanishing_moment_kernel(k), 1.0 - 1e-6)
        assert got == pytest.approx(1.0, abs=1e-4)

    def test_rejects_hurst_outside_range(self):
        with pytest.raises(ValueError):
            asymptotic_variance(box_kernel(1.0), 0.5)


# asymptotic_variance at H_GRID and kernel_autocorrelation at PINNED_W, as
# repr'd (clt summaries print sigma^2 with repr).  Building psi's half on
# [0, hi-lo] and mirroring it keeps these bits: the half for w < 0 has
# exactly the mirrored coefficients.
PINNED_KERNELS = {
    "k0": vanishing_moment_kernel(0),
    "k1": vanishing_moment_kernel(1),
    "k3": vanishing_moment_kernel(3),
    "box0.5": box_kernel(0.5),
    "box1": box_kernel(1.0),
    "box3": box_kernel(3.0),
    "lopsided-box": OFF_CENTRE[0],
    "quadratic": OFF_CENTRE[1],
}
PINNED_VARIANCE = {
    "k0": (0.5358867312681466, 0.6597539553864471, 0.8705505632961242),
    "k1": (0.6391709453997952, 0.7546205372067204, 0.9141119474589845),
    "k3": (1.2459594027550978, 1.195552232511954, 1.0742768613299951),
    "box0.5": (1.866065983073615, 1.5157165665103982, 1.1486983549970349),
    "box1": (1.0000000000000002, 0.9999999999999999, 1.0),
    "box3": (0.3720410580113015, 0.5172818579717865, 0.8027415617602307),
    "lopsided-box": (0.6942531626616071, 0.7840526816831157, 0.9221079114817275),
    "quadratic": (1.7105363204122799, 2.2711945892403276, 3.3964618804948836),
}
PINNED_W = (-1.3, -0.3, 0.0, 0.3, 1.3)
PINNED_PSI = {
    "k0": (0.175, 0.425, 0.5, 0.425, 0.175),
    "k1": (0.0867575625, 0.5425794374999999, 0.6, 0.5425794374999999, 0.0867575625),
    "k3": (-0.06636955959716806, 0.9117832671362305, 1.25, 0.9117832671362305,
           -0.06636955959716806),
    "box0.5": (0.0, 0.8, 2.0, 0.8, 0.0),
    "box1": (0.0, 0.7, 1.0, 0.7, 0.0),
    "box3": (0.18888888888888888, 0.3, 0.3333333333333333, 0.3, 0.18888888888888888),
    "lopsided-box": (0.0888888888888889, 0.5333333333333333, 0.6666666666666666,
                     0.5333333333333333, 0.0888888888888889),
    "quadratic": (0.7604238172503569, 1.3177341221130427, 1.5646465839422188,
                  1.3177341221130427, 0.7604238172503569),
}


class TestPinnedBits:
    @pytest.mark.parametrize("name", list(PINNED_KERNELS))
    def test_asymptotic_variance_bits(self, name):
        got = tuple(asymptotic_variance(PINNED_KERNELS[name], h) for h in H_GRID)
        assert got == PINNED_VARIANCE[name]

    @pytest.mark.parametrize("name", list(PINNED_KERNELS))
    def test_autocorrelation_bits(self, name):
        kernel = PINNED_KERNELS[name]
        assert tuple(kernel_autocorrelation(kernel, w) for w in PINNED_W) == PINNED_PSI[name]
        assert tuple(kernel_autocorrelation(kernel, np.array(PINNED_W))) == PINNED_PSI[name]


def _value(coeffs, x):
    return sum(c * x**m for m, c in enumerate(coeffs))


def _exact_psi(piece, w):
    """int_lo^(hi-w) G(u) G(u+w) du in Fractions, with G(u+w) expanded binomially in u."""
    shifted = [Fraction(0)] * len(piece.coeffs)
    for c, coef in enumerate(piece.coeffs):
        for i in range(c + 1):
            shifted[i] += coef * comb(c, i) * w ** (c - i)
    total = Fraction(0)
    for a, ga in enumerate(piece.coeffs):
        for b, gb in enumerate(shifted):
            n = a + b + 1
            total += ga * gb * ((piece.hi - w) ** n - piece.lo**n) / n
    return total


EXACT_KERNELS = {**{f"k{k}": vanishing_moment_kernel(k) for k in range(MAX_KERNEL_ORDER + 1)},
                 **PINNED_KERNELS}


class TestExactAlgebra:
    """The numpy.polynomial route against plain Fraction arithmetic that shares none of it."""

    @pytest.mark.parametrize("k", range(MAX_KERNEL_ORDER + 1))
    def test_moments_are_exactly_delta(self, k):
        p = vanishing_moment_kernel(k).piece
        for j in range(k + 1):
            moment = sum(c * (p.hi ** (j + m + 1) - p.lo ** (j + m + 1)) / (j + m + 1)
                         for m, c in enumerate(p.coeffs))
            assert moment == (1 if j == 0 else 0), f"k={k} j={j}: {moment}"

    @pytest.mark.parametrize("k", range(1, MAX_KERNEL_ORDER + 1))
    def test_vanishes_exactly_at_the_endpoints(self, k):
        coeffs = vanishing_moment_kernel(k).piece.coeffs
        assert _value(coeffs, Fraction(-1)) == 0 and _value(coeffs, Fraction(1)) == 0

    @pytest.mark.parametrize("name", list(EXACT_KERNELS))
    def test_every_coefficient_is_a_fraction(self, name):
        kernel = EXACT_KERNELS[name]
        coeffs = kernel.piece.coeffs + _autocorrelation_piece(kernel).coeffs
        assert all(type(c) is Fraction for c in coeffs)

    @pytest.mark.parametrize("name", list(PINNED_KERNELS))
    def test_psi_equals_the_exact_overlap_integral(self, name):
        kernel = PINNED_KERNELS[name]
        psi = _autocorrelation_piece(kernel)
        for t in (0, Fraction(1, 7), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6), 1):
            w = t * psi.hi
            assert _value(psi.coeffs, w) == _exact_psi(kernel.piece, w), f"w={w}"
