"""Pure functions reject a parameter outside their domain with a ParameterError naming it."""

import pytest

from hermite_trend.estimators import bandwidth_alt
from hermite_trend.experiments import theoretical_rate_main
from hermite_trend.hermite import discrete_normalizer, h_zero, hermite_polynomial
from hermite_trend.validation import ParameterError

# (call, the field its ParameterError names)
DOMAIN_HOLES = {
    "bandwidth_alt-hurst": (lambda: bandwidth_alt(0.5, 2.0, 1.5), "hurst"),
    "discrete_normalizer-horizon": (lambda: discrete_normalizer(2, 0.7, 10, -1.0), "horizon"),
    "discrete_normalizer-m": (lambda: discrete_normalizer(2, 0.7, 0, 1.0), "m"),
    "theoretical_rate_main-k": (lambda: theoretical_rate_main(-1, 0.7), "k"),
    "h_zero-order": (lambda: h_zero(0, 0.7), "order"),
    "hermite_polynomial-order": (lambda: hermite_polynomial(0, 1.0), "order"),
}


@pytest.mark.parametrize("call, field", DOMAIN_HOLES.values(), ids=DOMAIN_HOLES.keys())
def test_out_of_domain_names_the_parameter(call, field):
    with pytest.raises(ParameterError) as info:
        call()
    assert info.value.field == field
