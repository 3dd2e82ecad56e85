import cmath
import math

import mpmath
import numpy as np
import pytest

from struveops import (
    DomainError,
    ParameterError,
    PoleError,
    StruveParams,
    evaluate,
    gamma,
    generalized_m,
    normalized_n_series,
    ode_residual_n,
    struve_h,
    struve_l,
)


def mp_struve_sum(p, z, sign, terms=200, dps=50):
    """Independent high-precision summation of the Struve-type series."""
    with mpmath.workdps(dps):
        p = mpmath.mpmathify(p)
        z = mpmath.mpmathify(z)
        w = z / 2
        total = mpmath.mpc(0)
        for n in range(terms):
            total += (
                sign**n
                * w ** (2 * n + p + 1)
                / (mpmath.gamma(n + mpmath.mpf(3) / 2) * mpmath.gamma(p + n + mpmath.mpf(3) / 2))
            )
        return complex(total)


class TestGamma:
    def test_factorial(self):
        assert abs(gamma(5) - 24.0) <= 1e-12 * 24.0

    def test_one(self):
        assert abs(gamma(1) - 1.0) <= 1e-13

    def test_half_is_sqrt_pi(self):
        assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-13

    def test_reflection_value(self):
        # Gamma(-1/2) = -2 sqrt(pi)
        assert abs(gamma(-0.5) - (-2.0 * math.sqrt(math.pi))) <= 1e-12

    @pytest.mark.parametrize("z", [0, -1, -2, -7, 0.0 + 0j])
    def test_poles_rejected(self, z):
        with pytest.raises(PoleError):
            gamma(z)

    @pytest.mark.parametrize("z", [171.5, 1000.0, -0.5 + 300j, -180.5])
    def test_overflow_is_domain_error(self, z):
        # These raised OverflowError from cmath.exp (171.5) or cmath.sin (-0.5+300j).
        with pytest.raises(DomainError):
            gamma(z)

    def test_struve_prefactor_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            struve_h(300, 1e3)

    def test_matches_libm_on_reals(self):
        for x in np.linspace(0.6, 20.0, 25):
            assert abs(gamma(x) - math.gamma(x)) <= 1e-12 * math.gamma(x)

    def test_functional_equation_complex(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = complex(rng.uniform(0.5, 10.0), rng.uniform(-5.0, 5.0))
            lhs = gamma(z + 1)
            rhs = z * gamma(z)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestStruveH:
    def test_zero_argument(self):
        assert struve_h(1.0, 0.0) == 0

    def test_half_order_closed_form(self):
        # H_{1/2}(z) = sqrt(2/(pi z)) (1 - cos z), evaluated at z = pi
        value = struve_h(0.5, math.pi, 64)
        oracle = math.sqrt(2.0 / (math.pi * math.pi)) * (1.0 - math.cos(math.pi))
        assert abs(value - oracle) <= 1e-13
        assert abs(value - 0.9003163161571062) <= 1e-12

    def test_brute_force_series_oracle(self):
        value = struve_h(0.0, 1.0, 64)
        oracle = mp_struve_sum(0.0, 1.0, -1)
        assert abs(value - oracle) <= 1e-12

    def test_terms_precondition(self):
        with pytest.raises(ParameterError):
            struve_h(0.5, 0.3, 0)


class TestStruveL:
    def test_zero_argument(self):
        assert struve_l(1.0, 0.0) == 0

    def test_cross_identity_with_h(self):
        # L_p(z) = -i e^(-i p pi/2) H_p(i z)
        p, z = 0.5, 0.3
        lhs = struve_l(p, z, 64)
        rhs = -1j * cmath.exp(-1j * p * math.pi / 2.0) * struve_h(p, 1j * z, 64)
        assert abs(lhs - rhs) <= 1e-11

    def test_brute_force_series_oracle(self):
        value = struve_l(0.0, 0.5, 64)
        oracle = mp_struve_sum(0.0, 0.5, 1)
        assert abs(value - oracle) <= 1e-12


class TestGeneralizedM:
    def test_reduces_to_struve_h(self):
        p, z = 0.25, 0.4
        sp = StruveParams(p, 1.0, 1.0)
        assert abs(generalized_m(sp, z, 64) - struve_h(p, z, 64)) <= 1e-13

    def test_reduces_to_struve_l(self):
        p, z = 0.25, 0.4
        sp = StruveParams(p, 1.0, -1.0)
        assert abs(generalized_m(sp, z, 64) - struve_l(p, z, 64)) <= 1e-13

    def test_zero_argument(self):
        assert generalized_m(StruveParams(0.5, 1.0, 2.0), 0.0) == 0


class TestStruveParams:
    def test_k_derivation(self):
        sp = StruveParams(0.5, 1.0, 1.0)
        assert sp.k == 2.0

    @pytest.mark.parametrize("p,b", [(-1.0, 0.0), (-2.0, 2.0), (-4.5, 5.0)])
    def test_nonpositive_integer_k_rejected(self, p, b):
        with pytest.raises(ParameterError):
            StruveParams(p, b, 1.0)

    def test_consistency_2p_plus_b(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                sp = StruveParams(p, b, 1.0)
            except ParameterError:
                continue
            lhs = 2.0 * sp.k - 2.0
            rhs = 2.0 * p + b
            assert abs(lhs - rhs) <= 1e-15 * max(1.0, abs(rhs))

    def test_shifted_moves_k_by_one(self):
        sp = StruveParams(0.25, 0.5, -1.0)
        assert sp.shifted().k == sp.k + 1.0


class TestNormalizedSeries:
    def test_constant_term(self):
        sp = StruveParams(complex(0.3, 0.8), complex(-0.4, 0.2), complex(2.0, -1.0))
        assert normalized_n_series(sp, 8)[0] == 1

    def test_c_zero_collapses(self):
        ns = normalized_n_series(StruveParams(0.5, 1.0, 0.0), 8)
        assert ns.coeffs == (1,) + (0,) * 8

    def test_first_coefficient(self):
        ns = normalized_n_series(StruveParams(0.5, 1.0, 1.0), 4)
        assert abs(ns[1] - (-1.0 / 12.0)) <= 1e-15

    def test_transformation_consistency(self):
        # N(z) = 2^p sqrt(pi) Gamma(k) z^(-(p+1)/2) M(sqrt z), principal
        # branches, checked off the negative real axis for |z| <= 0.8.
        rng = np.random.default_rng(17)
        for _ in range(25):
            sp = StruveParams(
                complex(rng.uniform(-1, 1.5), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1.5), rng.uniform(-1, 1)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            if abs(sp.k) < 0.2:
                continue
            r = rng.uniform(0.05, 0.8)
            theta = rng.uniform(-0.95 * math.pi, 0.95 * math.pi)
            z = r * cmath.exp(1j * theta)
            lhs = evaluate(normalized_n_series(sp, 64), z)
            rhs = (
                cmath.exp(sp.p * math.log(2.0))
                * math.sqrt(math.pi)
                * gamma(sp.k)
                * cmath.exp(-(sp.p + 1) / 2.0 * cmath.log(z))
                * generalized_m(sp, cmath.sqrt(z), 64)
            )
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestOdeResidual:
    def test_reference_params(self):
        assert ode_residual_n(StruveParams(0.5, 1.0, 1.0), 32) <= 1e-12

    def test_c_zero_balances_exactly(self):
        assert ode_residual_n(StruveParams(0.5, 1.0, 0.0), 16) == 0.0

    def test_seeded_complex_draws(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 100:
            p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            k = p + (b + 2) / 2
            if abs(k.imag) < 0.15 and k.real < 0.5 and abs(k - round(min(k.real, 0))) < 0.15:
                continue
            try:
                sp = StruveParams(p, b, c)
            except ParameterError:
                continue
            assert ode_residual_n(sp, 32) <= 1e-10
            done += 1

    def test_order_precondition(self):
        with pytest.raises(ParameterError):
            ode_residual_n(StruveParams(0.5, 1.0, 1.0), 1)
