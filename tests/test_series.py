import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from struveops import (
    ParameterError,
    PowerSeries,
    evaluate,
    hadamard,
)

finite_complex = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False, allow_subnormal=False
)


def series_strategy(order=6):
    return st.lists(finite_complex, min_size=order + 1, max_size=order + 1).map(
        lambda cs: PowerSeries(tuple(cs))
    )


class TestConstruction:
    def test_order_counts_coefficients(self):
        f = PowerSeries((0, 1, 2, 3))
        assert f.order == 3
        assert len(f) == 4

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            PowerSeries(())

    def test_normalization_predicate(self):
        assert PowerSeries((0, 1, 5)).is_normalized()
        assert not PowerSeries((1, 1)).is_normalized()
        assert not PowerSeries((0, 2)).is_normalized()
        assert not PowerSeries((7,)).is_normalized()

    def test_identity_series(self):
        f = PowerSeries.identity(5)
        assert f.coeffs == (0, 1, 0, 0, 0, 0)
        assert f.is_normalized()

    def test_pairs_round_trip(self):
        f = PowerSeries((complex(0, 0), complex(1, -2), complex(0.5, 3)))
        assert PowerSeries.from_pairs(f.to_pairs()) == f


class TestHadamard:
    def test_termwise_product(self):
        f = PowerSeries((0, 1, 1))
        g = PowerSeries((0, 1, 2))
        assert hadamard(f, g).coeffs == (0, 1, 2)

    def test_all_ones_is_identity(self):
        f = PowerSeries((3, 1 + 2j, -0.5, 0.25j))
        ones = PowerSeries((1,) * 4)
        assert hadamard(f, ones) == f

    def test_hand_multiplied_cubic(self):
        # (z + 3z^3) o (z - z^3): coefficients multiply slotwise
        f = PowerSeries((0, 1, 0, 3))
        g = PowerSeries((0, 1, 0, -1))
        assert hadamard(f, g).coeffs == (0, 1, 0, -3)

    def test_truncates_to_shorter(self):
        f = PowerSeries((1, 2, 3, 4, 5))
        g = PowerSeries((1, 1, 1))
        assert hadamard(f, g).order == 2

    @settings(max_examples=60)
    @given(series_strategy(), series_strategy())
    def test_commutative(self, f, g):
        left = hadamard(f, g)
        right = hadamard(g, f)
        assert all(
            abs(a - b) <= 1e-15 * max(1.0, abs(a))
            for a, b in zip(left.coeffs, right.coeffs)
        )

    @settings(max_examples=60)
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_associative(self, f, g, h):
        left = hadamard(hadamard(f, g), h)
        right = hadamard(f, hadamard(g, h))
        assert all(
            abs(a - b) <= 1e-15 * max(1.0, abs(a))
            for a, b in zip(left.coeffs, right.coeffs)
        )


class TestEvaluate:
    def test_at_zero(self):
        assert evaluate(PowerSeries((0, 1, 1)), 0) == 0

    def test_direct_substitution(self):
        assert evaluate(PowerSeries((0, 1, 1)), 0.5) == pytest.approx(0.75)

    def test_geometric_sum_oracle(self):
        # sum_{n=1}^{64} z^n at z=1/2: the closed form z/(1-z) = 1 minus a
        # tail below 1e-19, so the truncated value is 1 within 1e-12.
        f = PowerSeries((0,) + (1,) * 64)
        assert abs(evaluate(f, 0.5) - 1.0) <= 1e-12

    def test_exact_for_polynomials(self):
        f = PowerSeries((1, -2, 3))
        z = complex(0.3, -0.7)
        direct = 1 - 2 * z + 3 * z * z
        assert abs(evaluate(f, z) - direct) <= 1e-15 * abs(direct)


class TestLinearCombine:
    @settings(max_examples=60)
    @given(
        series_strategy(4),
        series_strategy(4),
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    )
    def test_evaluation_is_linear(self, f, g, a, b):
        z = complex(0.31, -0.42)
        combined = PowerSeries(tuple(a * x + b * y for x, y in zip(f.coeffs, g.coeffs)))
        direct = evaluate(combined, z)
        split = a * evaluate(f, z) + b * evaluate(g, z)
        assert abs(direct - split) <= 1e-13 * max(1.0, abs(split))
