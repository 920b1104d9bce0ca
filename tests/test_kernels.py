"""Kernel bank: pinned shapes, exact moments, autocorrelation, variance functional."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_legendre

from hermite_trend.kernels import (
    Kernel,
    KernelPiece,
    asymptotic_variance,
    asymptotic_variance_quadrature,
    box_kernel,
    kernel_autocorrelation,
    kernel_moment,
    order_k_legendre_coefficients,
    vanishing_moment_kernel,
)

H_GRID = [0.55, 0.7, 0.9]


class TestConstruction:
    def test_order_zero_is_half_box(self):
        box = vanishing_moment_kernel(0)
        assert box.pieces[0].coeffs == (Fraction(1, 2),)
        assert box.support == (-1.0, 1.0)
        assert box.evaluate(0.3) == 0.5
        assert box.evaluate(1.5) == 0.0

    def test_order_one_is_epanechnikov(self):
        epan = vanishing_moment_kernel(1)
        assert epan.pieces[0].coeffs == (Fraction(3, 4), Fraction(0), Fraction(-3, 4))
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
        assert quartic.pieces[0].coeffs == expected
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

    def test_pieces_must_not_overlap(self):
        a = KernelPiece(Fraction(-1), Fraction(1), (Fraction(1, 2),))
        b = KernelPiece(Fraction(0), Fraction(2), (Fraction(1, 2),))
        with pytest.raises(ValueError):
            Kernel(order=0, pieces=(a, b))


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
        scaled_kernel = Kernel(
            order=base_kernel.order,
            pieces=tuple(
                KernelPiece(
                    p.lo * s,
                    p.hi * s,
                    tuple(c / s ** (i + 1) for i, c in enumerate(p.coeffs)),
                )
                for p in base_kernel.pieces
            ),
        )
        base = asymptotic_variance(base_kernel, hurst)
        scaled = asymptotic_variance(scaled_kernel, hurst)
        assert scaled == pytest.approx(2.0 ** (2 * hurst - 2) * base, rel=1e-12)
        # The box of width w is the unit box rescaled by w.
        for width in (0.5, 2.0, 3.0):
            got = asymptotic_variance(box_kernel(width), hurst)
            assert got == pytest.approx(width ** (2 * hurst - 2), rel=1e-12), width

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

