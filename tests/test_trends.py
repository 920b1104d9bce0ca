"""Trend catalogue: values, certified bounds, derivatives, text grammar."""

import numpy as np
import pytest

from hermite_trend.trends import (
    DerivativeUnavailable,
    constant_trend,
    parse_trend,
    polynomial_trend,
    sinusoid_trend,
    weierstrass_trend,
)
from hermite_trend.validation import ParameterError

# frozen by direct summation / closed form
W_AT_1 = 0.8925553267706385
W_AT_037 = 0.5276509974043655
W_GAMMA = 0.4649735207179272
# |cos x - cos y| <= 2^(1-gamma) |x-y|^gamma summed over the partial sum:
# amplitude 2^(1-gamma) sum_j (decay lacunarity^gamma)^j.
W_HOLDER_CONST = 17.387624984889342


def central_diff(f, t, h=1e-5):
    return (f(t + h) - f(t - h)) / (2.0 * h)


class TestValuesAndBounds:
    def test_constant(self):
        th = constant_trend(0.7, horizon=2.0)
        assert th.value(0.3) == 0.7
        assert np.all(th.value(np.linspace(0, 2, 50)) == 0.7)
        assert th.bound == 0.7
        assert th.rho == np.inf

    def test_sinusoid_value_and_bound(self):
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        ts = np.linspace(0.0, 2.0, 801)
        vals = th.value(ts)
        assert np.allclose(vals, 0.5 + 0.8 * np.sin(3.0 * ts), atol=0, rtol=1e-15)
        assert th.bound == pytest.approx(1.3)
        assert np.max(np.abs(vals)) <= th.bound + 1e-12

    def test_polynomial_value_and_bound(self):
        th = polynomial_trend([0.2, -0.4, 0.1], horizon=2.0)
        assert th.value(1.5) == pytest.approx(0.2 - 0.4 * 1.5 + 0.1 * 1.5**2)
        # bound sum |c_i| T^i dominates the dense-grid sup
        ts = np.linspace(0.0, 2.0, 2001)
        assert np.max(np.abs(th.value(ts))) <= th.bound + 1e-12
        assert th.bound == pytest.approx(0.2 + 0.8 + 0.4)

    def test_weierstrass_values(self):
        th = weierstrass_trend(
            amplitude=1.0, decay=0.6, lacunarity=3.0, terms=12, horizon=2.0
        )
        assert th.value(1.0) == pytest.approx(W_AT_1, abs=1e-14)
        assert th.value(0.37) == pytest.approx(W_AT_037, abs=1e-14)

    def test_weierstrass_holder_metadata(self):
        th = weierstrass_trend(
            amplitude=1.0, decay=0.6, lacunarity=3.0, terms=12, horizon=2.0
        )
        assert th.rho == pytest.approx(1.0 + W_GAMMA, abs=1e-15)

    def test_weierstrass_holder_inequality_sampled(self):
        # |theta'(t) - theta'(s)| <= C |t - s|^gamma, gamma = rho - 1, on a grid of pairs
        th = weierstrass_trend(
            amplitude=1.0, decay=0.6, lacunarity=3.0, terms=12, horizon=2.0
        )
        d1 = th.derivative(1)
        ts = np.linspace(0.0, 2.0, 257)
        vals = d1(ts)
        diff = np.abs(vals[:, None] - vals[None, :])
        gaps = np.abs(ts[:, None] - ts[None, :]) ** (th.rho - 1.0)
        mask = gaps > 0
        assert np.max(diff[mask] / gaps[mask]) <= W_HOLDER_CONST


class TestDerivatives:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_sinusoid_derivatives_match_finite_difference(self, order):
        th = sinusoid_trend(offset=0.5, amplitude=0.8, omega=3.0, horizon=2.0)
        d = th.derivative(order)
        lower = th.derivative(order - 1) if order > 1 else th.value
        for t in (0.2, 0.9, 1.6):
            assert d(t) == pytest.approx(central_diff(lower, t), abs=1e-6)

    def test_polynomial_derivatives_exact(self):
        th = polynomial_trend([0.2, -0.4, 0.1, 0.05], horizon=2.0)
        d2 = th.derivative(2)
        # 2*0.1 + 6*0.05*t
        assert d2(1.0) == pytest.approx(0.2 + 0.3, abs=1e-14)
        d5 = th.derivative(5)
        assert d5(0.7) == 0.0

    def test_constant_higher_derivatives_vanish(self):
        th = constant_trend(0.7, horizon=2.0)
        assert th.derivative(1)(0.5) == 0.0
        assert th.derivative(4)(1.2) == 0.0

    def test_weierstrass_first_derivative_only(self):
        th = weierstrass_trend(
            amplitude=1.0, decay=0.6, lacunarity=3.0, terms=12, horizon=2.0
        )
        d1 = th.derivative(1)
        # the h^2 truncation term carries a (decay * lac^2)^j factor, so the
        # finite difference is only loosely accurate here
        for t in (0.3, 1.1):
            assert d1(t) == pytest.approx(central_diff(th.value, t), abs=5e-3)
        with pytest.raises(DerivativeUnavailable):
            th.derivative(2)

    def test_derivative_order_zero_is_value(self):
        th = sinusoid_trend(offset=0.0, amplitude=1.0, omega=2.0, horizon=1.0)
        assert th.derivative(0)(0.4) == th.value(0.4)


class TestIntegral:
    """trend.integral(t) against the antiderivative evaluated in 40-digit mpmath."""

    TIMES = (0.0, 1e-3, 0.37, 1.0, 1.75, 2.0)

    @staticmethod
    def reference(kind, args, t):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        a, t = [mp.mpf(x) for x in args], mp.mpf(t)
        if kind == "const":
            return a[0] * t
        if kind == "sin":
            offset, amp, omega = a
            return offset * t + (amp * (1 - mp.cos(omega * t)) / omega if omega else 0)
        if kind == "poly":
            return sum(c * t ** (i + 1) / (i + 1) for i, c in enumerate(a))
        amp, decay, lac, terms = a
        return sum(amp * decay**j / lac**j * (1 - mp.cos(lac**j * t)) / lac**j
                   for j in range(int(terms)))

    @pytest.mark.parametrize("text", [
        "const:0.5", "const:-1.25", "sin:0.5,0.8,3", "sin:0.5,0.8,0", "sin:-0.2,1.1,1e-6",
        "poly:0.2,-0.4,0.1,0.05", "weier:0.3,0.5,3,12", "weier:1,0.6,3,10",
    ])
    def test_matches_mpmath(self, text):
        th = parse_trend(text, horizon=2.0)
        kind, _, argstr = text.partition(":")
        args = argstr.split(",")
        for t in self.TIMES:
            assert abs(th.integral(t) - float(self.reference(kind, args, t))) <= 1e-15, t
        # arrays are integrated elementwise, to the same bits as scalars
        ts = np.array(self.TIMES)
        assert np.array_equal(th.integral(ts), [th.integral(t) for t in self.TIMES])


class TestParser:
    def test_const(self):
        th = parse_trend("const:0.5", horizon=2.0)
        assert th.value(1.0) == 0.5
        assert th.label == "const:0.5"

    def test_sin(self):
        th = parse_trend("sin:0.5,0.8,3.0", horizon=2.0)
        assert th.value(0.7) == pytest.approx(0.5 + 0.8 * np.sin(2.1))

    def test_poly(self):
        th = parse_trend("poly:0.2,-0.4,0.1", horizon=2.0)
        assert th.value(1.5) == pytest.approx(0.2 - 0.6 + 0.225)

    def test_weier(self):
        th = parse_trend("weier:1.0,0.6,3.0,12", horizon=2.0)
        assert th.value(1.0) == pytest.approx(W_AT_1, abs=1e-14)

    @pytest.mark.parametrize(
        "text",
        [
            "const:",  # missing argument
            "sin:1.0,2.0",  # wrong arity
            "weier:1.0,0.6,3.0,12.5",  # non-integer term count
            "step:1.0",  # unknown kind
            "poly:",  # empty coefficient list
            "const:abc",
            "const:nan",
            "sin:0,0.5,inf",
            "poly:1,-inf",
            "weier:0.3,0.5,3,inf",  # infinite term count
            "weier:0.3,0.5,3,700",  # 3^699 overflows a double
            "weier:0.3,0.5,1.000001,1025",  # finite frequencies, but over the term cap
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParameterError) as err:
            parse_trend(text, horizon=2.0)
        assert err.value.field == "trend" and repr(text) in err.value.detail

    def test_longest_finite_weier_stays_finite(self):
        # 2 * 3^645 is the largest sine argument below the double maximum
        th = parse_trend("weier:0.3,0.5,3,646", horizon=2.0)
        ts = np.linspace(0.0, 2.0, 5)
        assert np.all(np.isfinite(th.value(ts))) and np.all(np.isfinite(th.derivative(1)(ts)))
        with pytest.raises(ValueError, match="top frequency"):
            parse_trend("weier:0.3,0.5,3,647", horizon=2.0)

    def test_weier_term_cap_names_the_limit(self):
        # near lacunarity 1 every frequency is finite, so only the cap bounds
        # the len(t) x terms arrays that each evaluation allocates
        th = parse_trend("weier:0.3,0.5,1.000001,1024", horizon=2.0)
        assert np.isfinite(th.value(1.0))
        with pytest.raises(ValueError, match="1024"):
            parse_trend("weier:0.3,0.5,1.000001,2000000", horizon=2.0)

    def test_error_names_the_kind(self):
        with pytest.raises(ValueError, match="sin"):
            parse_trend("sin:1.0", horizon=2.0)
