import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from struveops import (
    ConvergenceError,
    DomainError,
    NumericsError,
    ParameterError,
    PoleError,
    PowerSeries,
    hadamard,
    ratio_sum,
)
from struveops import series
from struveops.hypergeom import HypergeomParams, f21_series
from struveops.series import BLOCK_TERMS, MAX_TERMS

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
        assert f.coeffs.tolist() == [0, 1, 0, 0, 0, 0]
        assert f.is_normalized()

    def test_pairs_round_trip(self):
        pairs = [[0.0, 0.0], [1.0, -2.0], [0.5, 3.0]]
        f = PowerSeries.from_pairs(pairs)
        assert f.coeffs.tolist() == [complex(0, 0), complex(1, -2), complex(0.5, 3)]
        assert [[c.real, c.imag] for c in f.coeffs] == pairs

    def test_pairs_are_read_without_arithmetic(self):
        # A product with (1, 1j) would turn an infinite real part into nan+infj.
        f = PowerSeries.from_pairs([[0, 0], [1, 0], [math.inf, -0.0], [-0.0, math.nan]])
        assert [repr(c) for c in f.coeffs.tolist()] == ["0j", "(1+0j)", "(inf-0j)", "(-0+nanj)"]

    @pytest.mark.parametrize("row", [[0.1, 0, 7], [0.1], [0.1, "x"], [0.1, "0"], [True, 0],
                                     [0.1, False], [0.1, None], "ab", 0.1])
    def test_pairs_need_two_numbers_per_row(self, row):
        with pytest.raises(ParameterError, match=r"^row 2 is not two numbers \[re, im\]: "):
            PowerSeries.from_pairs([[0, 0], [1, 0], row])

    def test_coefficients_are_read_only(self):
        f = PowerSeries((0, 1, 0.5))
        assert f.coeffs.dtype == complex and not f.coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            f.coeffs[2] = 7
        with pytest.raises(AttributeError):
            f.coeffs = np.zeros(3, complex)
        assert f.coeffs.tolist() == [0, 1, 0.5]

    def test_construction_copies_its_input(self):
        given = np.array([0, 1, 0.5], dtype=complex)
        f = PowerSeries(given)
        given[2] = 7
        assert f[2] == 0.5

    @pytest.mark.parametrize("coeffs", [[[0, 1], [2, 3]], np.zeros((2, 2)), 1.5, [], np.zeros(0),
                                        [0, 1, "x"], [0, 1, "2"], [0, 1, None], [0, 1, [2, 3]]])
    def test_must_be_a_non_empty_flat_array_of_numbers(self, coeffs):
        with pytest.raises(ParameterError, match="non-empty 1-D array of numbers"):
            PowerSeries(coeffs)


class TestHadamard:
    def test_termwise_product(self):
        f = PowerSeries((0, 1, 1))
        g = PowerSeries((0, 1, 2))
        assert hadamard(f, g).coeffs.tolist() == [0, 1, 2]

    def test_all_ones_is_identity(self):
        f = PowerSeries((3, 1 + 2j, -0.5, 0.25j))
        ones = PowerSeries((1,) * 4)
        assert hadamard(f, ones).coeffs.tolist() == f.coeffs.tolist()

    def test_hand_multiplied_cubic(self):
        # (z + 3z^3) o (z - z^3): coefficients multiply slotwise
        f = PowerSeries((0, 1, 0, 3))
        g = PowerSeries((0, 1, 0, -1))
        assert hadamard(f, g).coeffs.tolist() == [0, 1, 0, -3]

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
    """Evaluating a series at a point, which ``ratio_sum`` does from its
    first term and term ratio."""

    def test_at_zero(self):
        # z + z^2 at z = 0
        assert ratio_sum(0j, lambda n: 0j, 0.0, 1e-13) == (0, 0.0, 2)

    def test_direct_substitution(self):
        z = 0.5
        value, _, _ = ratio_sum(z, lambda n: z if n == 0 else 0.0, 0.0, 1e-13)
        assert value == pytest.approx(0.75)

    def test_geometric_sum_oracle(self):
        # sum_{n>=1} z^n at z = 1/2 is z/(1-z) = 1
        value, est, terms = ratio_sum(0.5, lambda n: 0.5, 0.5, 1e-13)
        assert abs(value - 1.0) <= est <= 1e-12
        assert terms == 45

    def test_exact_for_polynomials(self):
        # 1 - 2z + 3z^2: the ratios are -2z, -1.5z, then 0
        z = complex(0.3, -0.7)
        value, _, _ = ratio_sum(1.0, lambda n: (-2.0 * z, -1.5 * z, 0.0)[min(n, 2)], 0.0, 1e-13)
        direct = 1 - 2 * z + 3 * z * z
        assert abs(value - direct) <= 1e-15 * abs(direct)


def exp_series(x, tol=1e-13):
    return ratio_sum(1.0, lambda n: x / (n + 1.0), 0.0, tol)


class TestRatioSum:
    @pytest.mark.parametrize("x", [-5.0, -1.0, 0.5, 3.0, 20.0, complex(2.0, -7.0)])
    def test_bound_covers_the_error(self, x):
        value, est, _ = exp_series(x)
        assert abs(value - cmath.exp(x)) <= est

    def test_tail_bound_covers_an_early_stop(self):
        value, est, terms = ratio_sum(0.9, lambda n: 0.9, 0.9, 1e-2)
        assert abs(value - 9.0) <= est and terms < 100

    def test_no_correct_digit_raises(self):
        # e^-40 = 4e-18 from terms up to 40^40/40!, about 1e16
        with pytest.raises(ConvergenceError, match="no correct digit"):
            exp_series(-40.0)

    def test_zero_denominator_is_pole(self):
        with pytest.raises(PoleError, match="ratio of term 3 to term 2"):
            ratio_sum(1.0, lambda n: 1.0 / (2.0 - n), 0.0, 1e-13)

    def test_overflowing_term_is_domain_error(self):
        with pytest.raises(DomainError, match="term 2 is not finite"):
            ratio_sum(1.0, lambda n: 1e200, 0.0, 1e-13)

    def test_overflowing_sum_of_moduli_is_named(self):
        # Every term up to 2^1023 is finite; their moduli sum to 2^1024.
        with pytest.raises(DomainError, match=r"^sum \|t_n\| overflows double precision at term 1023$"):
            ratio_sum(1.0, lambda n: 2.0, 0.5, 1e-13)

    def test_overflowing_modulus_is_domain_error(self):
        # Both parts of 1.5e308 (1 + i) are finite, but abs() raised OverflowError.
        with pytest.raises(DomainError, match=r"modulus of series term 1 or of its ratio overflows"):
            ratio_sum(complex(1.5e8, 1.5e8), lambda n: 1e300, 0.5, 1e-13)

    def test_cap_is_convergence_error(self):
        with pytest.raises(ConvergenceError, match=f"within {MAX_TERMS} terms"):
            ratio_sum(1.0, lambda n: 1.0 - 1e-12, 1.0 - 1e-12, 1e-13)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ParameterError, match="tol must be > 0"):
            ratio_sum(1.0, lambda n: 0.5, 0.5, tol)

    @pytest.mark.parametrize("rho", [1.5, 1.0, -0.5, math.nan, math.inf])
    def test_rho_must_lie_in_the_unit_interval(self, rho):
        # rho = 1.5 once returned 1.5 for a sum of 2, with est_error -1.5; rho = 1
        # raised PoleError from the tail bound, and NaN ran MAX_TERMS terms.
        with pytest.raises(ParameterError, match=r"rho must lie in \[0, 1\)"):
            ratio_sum(1.0, lambda n: 0.5, rho, 1e-13)


#: ``(first, ratio, rho, start)`` of sums that reach the numpy blocks, each
#: ratio written once for an index and an index array; the events at n = 1000
#: fall inside one.
BLOCK_CASES = {
    "long sum": (1.0, lambda n: 0.999, 0.999, 0),  # a constant ratio is broadcast
    "cap": (1.0, lambda n: 1.0 - 1e-12, 1.0 - 1e-12, 0),
    # The zero denominator is a ZeroDivisionError in the loop and inf in a block.
    "pole": (1.0, lambda n: 0.5 / (1000.0 - n), 0.5, 2000),
    "overflow": (1.0, lambda n: 2.0, 0.5, 0),
    # Both parts of the term 1.5e308 (1 + i) are finite, but not its modulus.
    "modulus overflow": (complex(1.5e8, 1.5e8), lambda n: 1.0 + 1e100 * (n >= 1000), 0.5, 0),
    # The term is 0 from n = 2 on; abs() of the ratio at n = 1000 overflows.
    "ratio overflow": (1.0, lambda n: 1e-200 + complex(1.5e308, 1.5e308) * (n >= 1000),
                       0.5, 1000),
    # (1 - z)^(-5/2) i near the unit circle.
    "complex ratio": (1j, lambda n: complex(0.6, 0.79) * (n + 2.5) / (n + 1.0),
                      abs(complex(0.6, 0.79)), 0),
}


def _block_outcome(first, ratio, rho, start):
    try:
        return ratio_sum(first, ratio, rho, 1e-13, start)
    except NumericsError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocks_match_the_loop(case, monkeypatch):
    # Past SCALAR_TERMS the terms are summed in numpy blocks, which round as
    # numpy's complex arithmetic does; with SCALAR_TERMS at MAX_TERMS the loop
    # adds them one at a time.  Both raise the same exception, or stop at the
    # same term with values within the reported error.
    blocks = _block_outcome(*BLOCK_CASES[case])
    scalar_terms = series.SCALAR_TERMS
    monkeypatch.setattr(series, "SCALAR_TERMS", MAX_TERMS)
    loop = _block_outcome(*BLOCK_CASES[case])
    if isinstance(loop[0], str):
        assert blocks == loop
    else:
        assert blocks[2] == loop[2] > scalar_terms
        assert abs(blocks[0] - loop[0]) <= min(blocks[1], loop[1])


def _rows_ratio(b, c, points):
    """The ratio of ``f21_series`` at a = 1, real b and c, for ``ratio_sum_all``:
    rounded as ``ratio_sum`` rounds f21_series's complex ratio, a quotient in
    its loop and a product with 1/den (numpy's complex division) in its blocks."""
    def ratio(rows, n, looped):
        num, den = (1.0 + n) * (b + n), (c + n) * (n + 1.0)
        q = np.where(looped, num / den, num * (1.0 / den))
        z = points[rows, None]
        out = np.empty(np.broadcast_shapes(q.shape, z.shape), dtype=complex)
        out.real, out.imag = q * z.real - 0.0 * z.imag, q * z.imag + 0.0 * z.real
        return out
    return ratio


@pytest.mark.parametrize("block_terms", [BLOCK_TERMS, 256])
def test_ratio_sum_all_has_the_bits_of_each_ratio_sum(block_terms, monkeypatch):
    # Points from 2 terms to past MAX_TERMS (5,000 here): short sums in the
    # loop, long ones in numpy blocks, and sums that reach the cap, whose
    # terms read 0.  256 terms a block splits the live points into rows.
    monkeypatch.setattr(series, "MAX_TERMS", 5000)
    monkeypatch.setattr(series, "BLOCK_TERMS", block_terms)
    rng = np.random.default_rng(91)
    radii = np.concatenate(([0.0, 0.3, 0.9, 0.99, 0.999, 0.9999], rng.uniform(0.0, 0.999, 60)))
    points = radii * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, radii.size))
    b, c = 1.7, 2.7
    sums, est, terms = series.ratio_sum_all(1 + 0j, _rows_ratio(b, c, points),
                                            np.hypot(points.real, points.imag), 1e-13)
    capped = 0
    for z, value, bound, n in zip(points.tolist(), sums.tolist(), est.tolist(), terms.tolist()):
        try:
            expected = f21_series(HypergeomParams(1.0, b, c), z)
        except ConvergenceError:
            assert n == 0
            capped += 1
            continue
        assert (repr(value), repr(bound), n) == tuple(map(repr, expected[:2])) + (expected[2],)
    assert capped >= 1 and max(terms) > 3 * series.SCALAR_TERMS


def test_ratio_sum_all_checks_its_arguments():
    with pytest.raises(ParameterError, match=r"rho must lie in \[0, 1\), got 1.5"):
        series.ratio_sum_all(1 + 0j, None, np.array([0.5, 1.5, -1.0]), 1e-13)
    with pytest.raises(ParameterError, match="tol must be > 0"):
        series.ratio_sum_all(1 + 0j, None, np.array([0.5]), 0.0)
    sums, est, terms = series.ratio_sum_all(1 + 0j, None, np.array([]), 1e-13)
    assert sums.shape == est.shape == terms.shape == (0,)
