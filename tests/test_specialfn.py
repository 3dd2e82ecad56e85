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
    digamma,
    gamma,
    generalized_m,
    normalized_n,
    normalized_n_series,
    ode_residual_n,
    struve_h,
    struve_l,
)
from struveops.specialfn import EULER_GAMMA, bernoulli_ratios, cpow


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


class TestCpow:
    def test_one(self):
        assert cpow(1.0, 0.7) == 1

    def test_principal_square_root(self):
        assert cpow(4.0, 0.5) == pytest.approx(2.0)

    def test_imaginary_base(self):
        assert cpow(1j, 0.5) == pytest.approx(cmath.exp(1j * math.pi / 4.0))

    def test_zero_rejected(self):
        with pytest.raises(PoleError):
            cpow(0.0, 0.5)


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


class TestDigamma:
    # Next to 1 and 2 the recurrence subtracts sums of 1/(a + i) close to
    # psi(a + m); next to its root 1.4616... psi itself cancels to 0.
    SPECIAL = [1.0, 2.0, 1.0 - 1e-12, 1.0 + 1e-12, 2.0 - 1e-12, 2.0 + 1e-12,
               1.4616321449683622, 10.0 - 1e-12, 10.0]

    def test_within_its_error_of_mpmath(self):
        with mpmath.workdps(40):
            for a in [*np.geomspace(1e-3, 1e6, 400).tolist(), *self.SPECIAL]:
                value, error = digamma(a)
                assert abs(value - mpmath.digamma(a)) <= error, a
                assert error <= 1e-13 * max(1.0, abs(value)), a

    def test_euler_gamma(self):
        assert digamma(1.0)[0] == pytest.approx(-EULER_GAMMA, abs=1e-15)

    @pytest.mark.parametrize("a", [0.0, -1.0, math.inf, math.nan])
    def test_outside_the_positive_reals_rejected(self, a):
        with pytest.raises(ParameterError):
            digamma(a)


def test_bernoulli_ratios_match_mpmath():
    ratios = bernoulli_ratios(101)
    assert not ratios.flags.writeable
    with mpmath.workdps(40):
        for j, ratio in enumerate(ratios.tolist()):
            exact = mpmath.bernoulli(j) / mpmath.factorial(j)
            assert abs(ratio - exact) <= 64 * 2.0**-53 * abs(exact), j


class TestStruveH:
    def test_zero_argument(self):
        assert struve_h(1.0, 0.0)[0] == 0

    def test_half_order_closed_form(self):
        # H_{1/2}(z) = sqrt(2/(pi z)) (1 - cos z), evaluated at z = pi
        value = struve_h(0.5, math.pi)[0]
        oracle = math.sqrt(2.0 / (math.pi * math.pi)) * (1.0 - math.cos(math.pi))
        assert abs(value - oracle) <= 1e-13
        assert abs(value - 0.9003163161571062) <= 1e-12

    def test_brute_force_series_oracle(self):
        value = struve_h(0.0, 1.0)[0]
        oracle = mp_struve_sum(0.0, 1.0, -1)
        assert abs(value - oracle) <= 1e-12

    def test_tol_precondition(self):
        with pytest.raises(ParameterError, match="tol must be > 0"):
            struve_h(0.5, 0.3, tol=0.0)


class TestStruveL:
    def test_zero_argument(self):
        assert struve_l(1.0, 0.0)[0] == 0

    def test_cross_identity_with_h(self):
        # L_p(z) = -i e^(-i p pi/2) H_p(i z)
        p, z = 0.5, 0.3
        lhs = struve_l(p, z)[0]
        rhs = -1j * cmath.exp(-1j * p * math.pi / 2.0) * struve_h(p, 1j * z)[0]
        assert abs(lhs - rhs) <= 1e-11

    def test_brute_force_series_oracle(self):
        value = struve_l(0.0, 0.5)[0]
        oracle = mp_struve_sum(0.0, 0.5, 1)
        assert abs(value - oracle) <= 1e-12


class TestGeneralizedM:
    def test_reduces_to_struve_h(self):
        p, z = 0.25, 0.4
        sp = StruveParams(p, 1.0, 1.0)
        assert abs(generalized_m(sp, z)[0] - struve_h(p, z)[0]) <= 1e-13

    def test_reduces_to_struve_l(self):
        p, z = 0.25, 0.4
        sp = StruveParams(p, 1.0, -1.0)
        assert abs(generalized_m(sp, z)[0] - struve_l(p, z)[0]) <= 1e-13

    def test_zero_argument(self):
        assert generalized_m(StruveParams(0.5, 1.0, 2.0), 0.0)[0] == 0


NAN, INF = float("nan"), float("inf")


class TestNonFinite:
    """Non-finite input raises instead of returning NaN."""

    @pytest.mark.parametrize("pbc", [(INF, 1, 1), (-INF, 1, 1), (0.5, NAN, 1), (0.5, 1, NAN),
                                     (0.5, 1, complex(1, INF))])
    def test_params_rejected(self, pbc):
        with pytest.raises(ParameterError, match="Struve parameters must be finite"):
            StruveParams(*pbc)

    @pytest.mark.parametrize("z", [NAN, complex(0.5, NAN), INF, complex(-INF, 1.0)])
    def test_z_is_domain_error(self, z):
        for value in (lambda: struve_h(0.5, z), lambda: struve_l(0.5, z),
                      lambda: generalized_m(StruveParams(0.5, 1, 1), z)):
            with pytest.raises(DomainError, match="Struve series needs a finite z"):
                value()
        with pytest.raises(DomainError, match="not finite"):
            normalized_n(StruveParams(0.5, 1, 1), z)


    @pytest.mark.parametrize("p", [NAN, INF, complex(0.5, -INF)])
    def test_order_rejected(self, p):
        # These raised "DomainError: gamma overflows double precision at z = (nan+0j)".
        for value in (lambda: struve_h(p, 1.0), lambda: struve_l(p, 1.0)):
            with pytest.raises(ParameterError, match="Struve order p must be finite"):
                value()


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
        assert ns.coeffs.tolist() == [1] + [0] * 8

    def test_first_coefficient(self):
        ns = normalized_n_series(StruveParams(0.5, 1.0, 1.0), 4)
        assert abs(ns[1] - (-1.0 / 12.0)) <= 1e-15

    def test_k_within_rounding_of_a_pole(self):
        # k = 1e-17: (k + 1) - 1 rounded to 0 at n = 1 and raised PoleError;
        # k + (1 - 1) keeps k, so A_1 = -c/(6k) and N and M are finite.
        sp = StruveParams(1e-17, -2.0, 1.0)
        assert normalized_n_series(sp, 8)[1] == -1.0 / 6e-17
        for compute, exact in (
                (lambda: normalized_n(sp, 0.5), "-7924038639496912.763685598199870026"),
                (lambda: generalized_m(sp, 0.5), "-0.01146271245320640991901836167271674")):
            value, est, _ = compute()
            assert abs(value - complex(mpmath.mpf(exact))) <= est
        assert normalized_n(sp, 0.5)[0] == -7924038639496913.0

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
            lhs = normalized_n(sp, z)[0]
            rhs = (
                cmath.exp(sp.p * math.log(2.0))
                * math.sqrt(math.pi)
                * gamma(sp.k)
                * cmath.exp(-(sp.p + 1) / 2.0 * cmath.log(z))
                * generalized_m(sp, cmath.sqrt(z))[0]
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


def seeded_params(rng):
    """Struve parameters drawn from [-2, 2]^2 each, k kept off its poles."""
    while True:
        p, b, c = (complex(*rng.uniform(-2, 2, 2)) for _ in range(3))
        k = p + (b + 2) / 2
        if abs(k.imag) < 0.15 and k.real < 0.5 and abs(k - round(min(k.real, 0))) < 0.15:
            continue
        try:
            return StruveParams(p, b, c)
        except ParameterError:
            continue


def scalar_normalized_n_series(params, order):
    """The loop ``normalized_n_series`` was: running products of the ratios
    ``(-c/4) / ((n + 1/2)(k + n - 1))`` in Python complex arithmetic."""
    coeffs = [1 + 0j]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * ((-params.c / 4.0) / ((n + 0.5) * (params.k + (n - 1)))))
    return coeffs


def scalar_ode_residual_n(params, order):
    """The loop ``ode_residual_n`` was, over the library's coefficients; also
    returns the largest sum of the moduli of a residual's terms."""
    a = normalized_n_series(params, order).coeffs.tolist()
    two_p_b = 2.0 * params.p + params.b
    worst = scale = 0.0
    for n in range(order):
        r = (4.0 * n * (n - 1) + 2.0 * (two_p_b + 3.0) * n + two_p_b) * a[n]
        term = params.c * a[n - 1] if n else -two_p_b
        worst = max(worst, abs(r + term))
        scale = max(scale, abs(r) + abs(term))
    return worst, scale


EPS = np.finfo(float).eps


class TestAgainstTheScalarLoops:
    """numpy rounds complex * and / as it does, not as Python does, so the
    array forms agree with the loops they replaced to a few ulps, not bit for bit."""

    @pytest.mark.parametrize("order", [1, 2, 7, 32, 64])
    def test_normalized_series(self, order):
        # Each ratio and product adds about an ulp: coefficient n agrees to 4n ulps.
        rng = np.random.default_rng([43, order])
        n = np.arange(order + 1)
        for _ in range(50):
            sp = seeded_params(rng)
            got = normalized_n_series(sp, order).coeffs
            ref = np.array(scalar_normalized_n_series(sp, order))
            assert (np.abs(got - ref) <= 4 * n * EPS * np.abs(ref)).all()

    @pytest.mark.parametrize("order", [2, 7, 32, 64])  # order 1 is rejected
    def test_ode_residual(self, order):
        rng = np.random.default_rng([47, order])
        for _ in range(50):
            sp = seeded_params(rng)
            worst, scale = scalar_ode_residual_n(sp, order)
            assert abs(ode_residual_n(sp, order) - worst) <= 4 * EPS * scale
