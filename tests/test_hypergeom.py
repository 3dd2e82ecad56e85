import cmath
import math

import mpmath
import numpy as np
import pytest

from struveops import (
    ConvergenceError,
    DomainError,
    HypergeomParams,
    NumericsError,
    ParameterError,
    f21,
    f21_euler,
    f21_lerch,
    f21_pfaff,
    f21_series,
    series,
)
from struveops.hypergeom import LERCH_AT, LERCH_REACH


def log_form(z):
    """Closed form of 2F1(1, 1, 2; z) = -log(1-z)/z."""
    z = complex(z)
    return -cmath.log(1.0 - z) / z


class TestSeries:
    def test_at_zero(self):
        assert f21_series(HypergeomParams(0.3 + 1j, -2.0, 4.5), 0.0)[0] == 1

    def test_log_anchor(self):
        value = f21_series(HypergeomParams(1, 1, 2), 0.5)[0]
        assert abs(value - 2.0 * math.log(2.0)) <= 1e-12
        assert abs(value - log_form(0.5)) <= 1e-12

    def test_binomial_anchor(self):
        # b = c reduces to (1-z)^(-a)
        value = f21_series(HypergeomParams(2, 3, 3), 0.25)[0]
        assert abs(value - 16.0 / 9.0) <= 1e-12

    def test_unit_disk_required(self):
        with pytest.raises(DomainError):
            f21_series(HypergeomParams(1, 1, 2), 1.0)

    def test_c_pole_rejected(self):
        with pytest.raises(ParameterError):
            HypergeomParams(1, 1, -3)

    def test_hard_cap_signaled(self):
        with pytest.raises(ConvergenceError):
            f21_series(HypergeomParams(1, 1, 2), 1.0 - 1e-14, tol=1e-300)


class TestEuler:
    def test_log_anchor(self):
        value = f21_euler(HypergeomParams(1, 1, 2), 0.5)[0]
        assert abs(value - 2.0 * math.log(2.0)) <= 1e-10

    def test_beta_normalization_at_zero(self):
        value = f21_euler(HypergeomParams(0.7 - 0.2j, 1.4, 3.1), 0.0)[0]
        assert abs(value - 1.0) <= 1e-12

    def test_cross_representation(self):
        hp = HypergeomParams(1.0, 0.7, 2.3)
        z = -0.6
        assert abs(f21_euler(hp, z)[0] - f21_series(hp, z)[0]) <= 1e-10

    def test_complex_a(self):
        hp = HypergeomParams(complex(0.5, 0.8), 1.1, 2.6)
        z = complex(0.2, -0.4)
        assert abs(f21_euler(hp, z)[0] - f21_series(hp, z)[0]) <= 1e-10

    def test_complex_bc_small_imaginary(self):
        # Imaginary endpoint exponents stay in the integrand as unit-modulus
        # factors; spectral accuracy degrades, so the contract is looser.
        hp = HypergeomParams(complex(0.5, 0.1), complex(1.2, 0.3), complex(2.7, -0.2))
        z = complex(-0.4, 0.2)
        assert abs(f21_euler(hp, z, nodes=256)[0] - f21_series(hp, z)[0]) <= 1e-5

    def test_ordering_precondition(self):
        with pytest.raises(ParameterError):
            f21_euler(HypergeomParams(1.0, 2.5, 2.0), 0.3)
        with pytest.raises(ParameterError):
            f21_euler(HypergeomParams(1.0, -0.5, 2.0), 0.3)

    def test_cut_rejected(self):
        with pytest.raises(DomainError):
            f21_euler(HypergeomParams(1.0, 1.0, 2.0), 1.5)


class TestPfaff:
    def test_at_zero(self):
        assert f21_pfaff(HypergeomParams(1.3, 0.4, 2.2), 0.0)[0] == 1

    def test_log_anchor_at_minus_one(self):
        # transform argument (-1)/(-2) = 1/2
        value = f21_pfaff(HypergeomParams(1, 1, 2), -1.0)[0]
        assert abs(value - math.log(2.0)) <= 1e-12

    def test_cross_representation_inside_disk(self):
        hp = HypergeomParams(1.0, 1.0, 2.5)
        for z in (-0.8, complex(-0.3, 0.55), complex(0.3, -0.5)):
            assert abs(f21_pfaff(hp, z)[0] - f21_series(hp, z)[0]) <= 1e-9

    def test_z_one_rejected(self):
        with pytest.raises(DomainError):
            f21_pfaff(HypergeomParams(1, 1, 2.5), 1.0)

    def test_transformed_argument_outside_disk_rejected(self):
        # Re z >= 1/2 maps outside the convergence region: |0.9/(0.9-1)| = 9.
        with pytest.raises(DomainError):
            f21_pfaff(HypergeomParams(1, 1, 2.5), 0.9)


def in_lerch_region(beta, x):
    t = cmath.log(x)
    return (abs(x) >= LERCH_REACH * max(1.0, abs(x - 1.0))
            and abs(t) <= 2.0 and (beta + 1.0) * abs(t) <= LERCH_AT)


class TestLerch:
    """``f21_lerch``: F_a(x) = 2F1(1, a; a+1; x) at a = beta + 1, by the
    expansion in Log x where the series and Pfaff are both slow, by ``f21``
    elsewhere."""

    def test_log_anchor_next_to_one(self):
        # F_1(x) = -log(1 - x)/x; the series needs 10^8 terms here.
        for x in (1.0 - 1e-8, 0.9999, complex(0.5, 0.866)):
            value, est, terms = f21_lerch(0.0, x)
            assert terms <= 30
            assert abs(value - log_form(x)) <= est + 4e-16 * abs(value)

    def test_within_its_error_of_mpmath_near_the_circle(self):
        rng = np.random.default_rng(1953)
        with mpmath.workdps(40):
            for i in range(200):
                beta = float(rng.choice([rng.uniform(0.0, 3.0), rng.uniform(-0.99, 0.0),
                                         10.0, 1000.0]))
                r = 1.0 - 10.0 ** -rng.uniform(1.0, 8.0)
                x = r * cmath.exp(1j * rng.uniform(-1.2, 1.2))
                try:
                    value, est, _ = f21_lerch(beta, x)
                except NumericsError:
                    assert not in_lerch_region(beta, x)  # the series past 100,000 terms
                    continue
                error = abs(value - complex(mpmath.hyp2f1(1, beta + 1, beta + 2, x)))
                assert error <= est, (i, beta, x, error, est)

    def test_at_most_30_terms_for_a_up_to_4(self):
        # a = beta + 1 for the dominant at beta <= 3, and |Log x| <= 1.1.
        for beta in np.linspace(-0.95, 3.0, 40).tolist():
            for r in (0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-8):
                for theta in np.linspace(0.0, 1.1, 12).tolist():
                    x = r * cmath.exp(1j * theta)
                    if in_lerch_region(beta, x) and abs(cmath.log(x)) <= 1.1:
                        assert f21_lerch(beta, x)[2] <= 30, (beta, x)

    @pytest.mark.parametrize("beta,x", [(1.5, 0.5), (1.5, -0.95), (1.5, 0.85j), (1.5, 0.89),
                                        (1.5, 0.95 * cmath.exp(1.5j)),
                                        (10.0, 0.99 * cmath.exp(1.05j))])
    def test_f21_outside_its_region(self, beta, x):
        # With the parameters of the dominant's closed form, bit for bit.
        assert not in_lerch_region(beta, x)
        assert f21_lerch(beta, x) == f21(HypergeomParams(1.0, beta + 1.0, beta + 2.0), x)

    def test_continues_past_the_disk_next_to_one(self):
        x = 1.05 * cmath.exp(0.3j)
        with pytest.raises(DomainError):
            f21(HypergeomParams(1.0, 2.5, 3.5), x)
        value, est, _ = f21_lerch(1.5, x)
        with mpmath.workdps(40):
            assert abs(value - complex(mpmath.hyp2f1(1, 2.5, 3.5, x))) <= est

    @pytest.mark.parametrize("x", [1.0, 1.5, complex(1.0 + 1e-9)])
    def test_cut_rejected(self, x):
        with pytest.raises(DomainError):
            f21_lerch(1.0, x)

    @pytest.mark.parametrize("beta", [-1.0, -2.0, math.inf, math.nan])
    def test_beta_rejected(self, beta):
        with pytest.raises(ParameterError):
            f21_lerch(beta, 0.99)


def symmetry_gap(hp, z):
    """|2F1(a,b,c;z) - 2F1(b,a,c;z)| through the series."""
    return abs(f21_series(hp, z)[0] - f21_series(HypergeomParams(hp.b, hp.a, hp.c), z)[0])


class TestSymmetry:
    def test_real_params(self):
        assert symmetry_gap(HypergeomParams(1, 2, 3), 0.3) <= 1e-13

    def test_complex_params(self):
        hp = HypergeomParams(complex(0.5, 0.1), 1.2, 2.7)
        assert symmetry_gap(hp, -0.4) <= 1e-12

    def test_equal_parameters_exact(self):
        assert symmetry_gap(HypergeomParams(1.7, 1.7, 3.1), 0.45) == 0.0


class TestDispatcher:
    def test_small_arguments_use_series(self):
        hp = HypergeomParams(1, 1, 2)
        assert f21(hp, 0.4) == f21_series(hp, 0.4)

    def test_left_half_plane_handled(self):
        hp = HypergeomParams(1, 1, 2)
        assert abs(f21(hp, -0.95)[0] - log_form(-0.95)) <= 1e-12

    def test_analytic_continuation_past_the_disk(self):
        # |z| > 1 but Re z < 1/2: only the Pfaff route reaches it.
        hp = HypergeomParams(1, 1, 2)
        z = complex(-2.0, 0.5)
        assert abs(f21(hp, z)[0] - log_form(z)) <= 1e-12

    def test_near_re_half_uses_series(self):
        # Pfaff's argument z/(z-1) has modulus ~1 here; it ran 100,000 terms.
        hp = HypergeomParams(1, 1, 2)
        z = complex(0.49999, 0.13)
        assert f21(hp, z) == f21_series(hp, z)
        assert abs(f21(hp, z)[0] - log_form(z)) <= 1e-13
        # |z/(z-1)| = 0.95 against |z| = 0.63: Pfaff's sum had no correct digit.
        z = complex(0.47738408101505003, 0.40630071161762465)
        value, est, _ = f21(HypergeomParams(19.229515266404327, -16.566421238049273,
                                            1.8522355983271444), z)
        assert abs(value - complex(5514.429468183848, -1547.7657781221574)) <= est

    def test_slow_series_region(self):
        hp = HypergeomParams(1, 1, 2)
        assert abs(f21(hp, 0.8)[0] - log_form(0.8)) <= 1e-11

    def test_unsupported_region_rejected(self):
        with pytest.raises(DomainError):
            f21(HypergeomParams(1, 1, 2), 1.2)

    def test_binomial_reduction_across_disk(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            a = rng.uniform(0.2, 2.0)
            b = rng.uniform(0.3, 2.0)
            z = rng.uniform(-0.9, 0.9)
            value = f21(HypergeomParams(a, b, b), z)[0]
            assert abs(value - (1.0 - z) ** (-a)) <= 1e-11


NAN, INF = float("nan"), float("inf")


class TestNonFinite:
    """Non-finite input raises instead of returning NaN or summing to the cap."""

    @pytest.mark.parametrize("abc", [(INF, 1, 2), (1, NAN, 2), (1, 1, INF), (1, 1, complex(2, NAN))])
    def test_params_rejected(self, abc):
        with pytest.raises(ParameterError, match="2F1 parameters must be finite"):
            HypergeomParams(*abc)

    @pytest.mark.parametrize("z", [NAN, complex(0.2, NAN), complex(NAN, 0.0), INF])
    @pytest.mark.parametrize("route", [f21_series, f21_euler, f21_pfaff, f21])
    def test_z_is_domain_error(self, route, z):
        with pytest.raises(DomainError):
            route(HypergeomParams(1, 1, 2), z)


def test_three_way_agreement_sample():
    rng = np.random.default_rng(31)
    for _ in range(15):
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        b = rng.uniform(0.4, 2.2)
        c = b + rng.uniform(0.4, 2.2)
        while True:
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if abs(z) <= 0.7 and z.real < 0.35:
                break
        hp = HypergeomParams(a, b, c)
        s = f21_series(hp, z)[0]
        assert abs(s - f21_euler(hp, z)[0]) <= 1e-9
        assert abs(s - f21_pfaff(hp, z)[0]) <= 1e-9


def _block_case(rng):
    """Complex a, b, c with |a|, |b| up to 100, c down to -30 and |Im c| up to
    1,000 (past n = |Im c| - Re c the ratio's denominator has |Im| > |Re|);
    1 - |z| down to 10^-3.5."""
    def draw(low, high, im):
        return complex(rng.uniform(low, high), rng.uniform(-im, im) if rng.uniform() < 0.7 else 0.0)
    scale = 10.0 ** rng.uniform(0.0, 2.0)
    hp = HypergeomParams(scale * draw(-1.0, 1.0, 3.0), scale * draw(-1.0, 1.0, 3.0),
                         draw(-30.0, 10.0, 10.0 ** rng.uniform(0.5, 3.0)))
    z = (1.0 - 10.0 ** (-3.5 * rng.uniform() ** 2)) * cmath.exp(2j * math.pi * rng.uniform())
    return hp, z, 10.0 ** -rng.uniform(6.0, 13.0)


def _outcome(hp, z, tol):
    try:
        return f21_series(hp, z, tol)
    except (NumericsError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def test_blocks_match_the_loop(monkeypatch):
    # ratio_sum sums f21_series's terms past SCALAR_TERMS in numpy blocks, from
    # the same ratio over an index array; with SCALAR_TERMS at MAX_TERMS it
    # adds them one at a time.  Blocks round as numpy's complex arithmetic, so
    # they raise the same exception type, or stop at the same term with a value
    # within the reported error.  A cap of 5,000 terms keeps the loop short,
    # and is reached inside a block.
    monkeypatch.setattr(series, "MAX_TERMS", 5000)
    rng = np.random.default_rng(14)
    cases = [_block_case(rng) for _ in range(1000)]
    blocks = [_outcome(*case) for case in cases]
    long_sums = sum(not isinstance(o[0], str) and o[2] > series.SCALAR_TERMS for o in blocks)
    monkeypatch.setattr(series, "SCALAR_TERMS", series.MAX_TERMS)
    for case, block in zip(cases, blocks):
        loop = _outcome(*case)
        if isinstance(loop[0], str):
            assert block[0] == loop[0], (case, block, loop)
        else:
            assert block[2] == loop[2] and abs(block[0] - loop[0]) <= loop[1], (case, block, loop)
    errors = [o for o in blocks if isinstance(o[0], str)]
    assert long_sums >= 200
    assert sum(kind == "DomainError" for kind, _ in errors) >= 3
    assert sum("no correct digit" in message for _, message in errors) >= 50
    assert sum("within 5000 terms" in message for _, message in errors) >= 50
