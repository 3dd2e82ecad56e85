import numpy as np
import pytest

from struveops import (
    ParameterError,
    PowerSeries,
    StruveParams,
    apply_s,
    hadamard,
    normalized_n,
    normalized_n_series,
    phi,
    phi_series,
    recurrence_residual,
)


def random_normalized(rng, order=32, scale=1.0):
    coeffs = [0j, 1 + 0j]
    for _ in range(order - 1):
        coeffs.append(complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)))
    return PowerSeries(tuple(coeffs))


def random_params(rng):
    while True:
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        k = p + (b + 2) / 2
        if abs(k.imag) < 0.15 and k.real < 0.5 and abs(k - round(min(k.real, 0))) < 0.15:
            continue
        try:
            return StruveParams(p, b, c)
        except ParameterError:
            continue


class TestPhiSeries:
    def test_c_zero_is_z(self):
        phi = phi_series(StruveParams(0.5, 1.0, 0.0), 6)
        assert phi.coeffs.tolist() == [0, 1, 0, 0, 0, 0, 0]

    def test_quadratic_coefficient(self):
        phi = phi_series(StruveParams(0.5, 1.0, 1.0), 4)
        assert abs(phi[2] - (-1.0 / 12.0)) <= 1e-15

    def test_linear_coefficient_always_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            assert phi_series(random_params(rng), 4)[1] == 1

    def test_matches_normalized_series_shifted(self):
        sp = StruveParams(complex(0.2, 0.4), complex(1.1, -0.3), complex(-0.8, 0.6))
        phi = phi_series(sp, 10)
        ns = normalized_n_series(sp, 9)
        assert all(phi[m + 1] == ns[m] for m in range(10))


class TestPhiValue:
    def test_is_z_times_n(self):
        sp = StruveParams(complex(0.2, 0.4), complex(1.1, -0.3), complex(-0.8, 0.6))
        z = complex(0.3, -0.5)
        value, est, terms = phi(sp, z)
        n_value, n_est, n_terms = normalized_n(sp, z)
        assert value == z * n_value and terms == n_terms
        assert abs(z) * n_est <= est <= 1e-14

    def test_matches_the_coefficients(self):
        sp = StruveParams(0.5, 1.0, 1.0)
        z = complex(0.6, 0.2)
        coeffs = phi_series(sp, 40).coeffs
        value, est, _ = phi(sp, z)
        assert abs(value - sum(c * z**n for n, c in enumerate(coeffs))) <= 1e-15

    def test_c_zero_is_z(self):
        value, est, terms = phi(StruveParams(0.5, 1.0, 0.0), 0.4)
        assert (value, terms) == (0.4, 2) and est <= 1e-15


class TestApplyS:
    def test_k_within_rounding_of_a_pole(self):
        # k = 1e-17: (k + 1) - 1 rounded to 0 and raised PoleError; k + (1 - 1)
        # keeps k, so the z^2 coefficient is 0.5 A_1 = -1/(12k).
        out = apply_s(StruveParams(1e-17, -2.0, 1.0), PowerSeries((0, 1, 0.5)))
        assert out.coeffs.tolist() == [0, 1, -1.0 / 12e-17]

    def test_identity_input(self):
        sp = StruveParams(0.5, 1.0, 1.0)
        assert apply_s(sp, PowerSeries.identity(8)).coeffs.tolist() == [0, 1] + [0] * 7

    def test_c_zero_kills_higher_terms(self):
        out = apply_s(StruveParams(0.5, 1.0, 0.0), PowerSeries((0, 1, 1)))
        assert out.coeffs.tolist() == [0, 1, 0]

    def test_quadratic_example(self):
        out = apply_s(StruveParams(0.5, 1.0, 1.0), PowerSeries((0, 1, 1)))
        assert out[0] == 0 and out[1] == 1
        assert abs(out[2] - (-1.0 / 12.0)) <= 1e-15

    def test_non_normalized_rejected(self):
        sp = StruveParams(0.5, 1.0, 1.0)
        with pytest.raises(ParameterError):
            apply_s(sp, PowerSeries((0, 2, 1)))
        with pytest.raises(ParameterError):
            apply_s(sp, PowerSeries((1, 1)))

    def test_c_zero_exact_for_random_series(self):
        rng = np.random.default_rng(8)
        sp = StruveParams(complex(0.3, 1.0), complex(0.2, -0.5), 0.0)
        f = random_normalized(rng, 16)
        out = apply_s(sp, f)
        assert out.coeffs.tolist() == [0, 1] + [0] * 15

    def test_linearity_on_zero_constant_series(self):
        # The coefficient map is linear; exercised through the kernel product
        # because apply_s itself insists on normalized input.
        rng = np.random.default_rng(9)
        sp = random_params(rng)
        phi = phi_series(sp, 12)
        u = PowerSeries((0,) + tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(12)))
        v = PowerSeries((0,) + tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(12)))
        s_sum = hadamard(phi, PowerSeries(tuple(a + b for a, b in zip(u.coeffs, v.coeffs))))
        split = tuple(
            a + b for a, b in zip(hadamard(phi, u).coeffs, hadamard(phi, v).coeffs)
        )
        assert all(abs(x - y) <= 1e-14 * max(1.0, abs(x)) for x, y in zip(s_sum.coeffs, split))


def struve_kernel(p, c):
    """(b, c) = (1, 1) is the plain Struve kernel, (1, -1) the modified one; k = p + 3/2."""
    return StruveParams(p, 1.0, c)


class TestSpecializations:
    def test_struve_kernel_example(self):
        out = apply_s(struve_kernel(0.5, 1.0), PowerSeries((0, 1, 1)))
        assert abs(out[2] - (-1.0 / 12.0)) <= 1e-15

    def test_modified_kernel_flips_sign(self):
        out = apply_s(struve_kernel(0.5, -1.0), PowerSeries((0, 1, 1)))
        assert abs(out[2] - (1.0 / 12.0)) <= 1e-15

    def test_identity_passthrough(self):
        for c in (1.0, -1.0):
            assert apply_s(struve_kernel(0.5, c), PowerSeries.identity(4)).coeffs.tolist() == [0, 1, 0, 0, 0]

    @pytest.mark.parametrize("c", [1.0, -1.0])
    def test_recursion_against_operator_pair(self, c):
        # z [S_{p+1} f]' = (p+3/2) S_p f - (p+1/2) S_{p+1} f, coefficientwise
        rng = np.random.default_rng(13)
        p = 0.5
        f = random_normalized(rng, 24)
        lo = apply_s(struve_kernel(p, c), f)
        hi = apply_s(struve_kernel(p + 1, c), f)
        worst = max(
            abs(n * hi[n] - (p + 1.5) * lo[n] + (p + 0.5) * hi[n])
            for n in range(f.order + 1)
        )
        assert worst <= 1e-13


class TestRecurrenceResidual:
    def test_identity_series_is_exact(self):
        sp = StruveParams(0.5, 1.0, 1.0)
        assert recurrence_residual(sp, PowerSeries.identity(8)) == 0.0

    def test_reference_params(self):
        rng = np.random.default_rng(21)
        f = random_normalized(rng, 32)
        assert recurrence_residual(StruveParams(0.5, 1.0, 1.0), f) <= 1e-13

    def test_nan_coefficient_gives_a_nan_residual(self):
        # max() over Python floats skipped a NaN residual, so the check read 0 and passed.
        f = PowerSeries((0, 1, 0.5, complex("nan")))
        assert np.isnan(recurrence_residual(StruveParams(0.5, 1.0, 1.0), f))

    def test_seeded_complex_draws(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            sp = random_params(rng)
            f = random_normalized(rng, 32)
            assert recurrence_residual(sp, f) <= 1e-12


def scalar_recurrence_residual(params, f):
    """The loop ``recurrence_residual`` was, in Python complex arithmetic; also
    returns the largest sum of the moduli of a residual's three terms."""
    lo = apply_s(params, f).coeffs.tolist()
    hi = apply_s(params.shifted(), f).coeffs.tolist()
    k = params.k
    worst = scale = 0.0
    for n in range(f.order + 1):
        r = n * hi[n] - k * lo[n] + (k - 1.0) * hi[n]
        worst = max(worst, abs(r))
        scale = max(scale, abs(n * hi[n]) + abs(k * lo[n]) + abs((k - 1.0) * hi[n]))
    return worst, scale


@pytest.mark.parametrize("order", [1, 2, 7, 32, 64])
def test_recurrence_residual_matches_the_scalar_loop(order):
    # numpy rounds complex * as it does, not as Python does: the two agree to
    # a few ulps of the residual's largest term, not bit for bit.
    rng = np.random.default_rng([41, order])
    for _ in range(50):
        sp = random_params(rng)
        f = random_normalized(rng, order)
        worst, scale = scalar_recurrence_residual(sp, f)
        assert abs(recurrence_residual(sp, f) - worst) <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("order", [1, 2, 7, 32])
def test_batched_recurrence_residual_is_the_per_set_calls(order):
    # One array pass over many sets has the bits of a call per set, a single
    # row included; a NaN coefficient spoils its own row only.
    rng = np.random.default_rng([53, order])
    sets = [random_params(rng) for _ in range(40)]
    stack = np.array([random_normalized(rng, order).coeffs for _ in sets])
    if order >= 2:
        stack[7, -1] = complex("nan")
    got = recurrence_residual(sets, stack)
    expected = [recurrence_residual(sp, PowerSeries(row)) for sp, row in zip(sets, stack)]
    assert got.shape == (len(sets),)
    assert [repr(v) for v in got.tolist()] == [repr(v) for v in expected]
    assert np.isnan(got).tolist() == [order >= 2 and i == 7 for i in range(len(sets))]
    assert [repr(v) for v in recurrence_residual(sets[:1], stack[:1]).tolist()] == [repr(expected[0])]


def test_batched_recurrence_residual_rejects_a_row_that_is_not_normalized():
    rng = np.random.default_rng(59)
    sets = [random_params(rng) for _ in range(3)]
    stack = np.array([random_normalized(rng, 8).coeffs for _ in sets])
    stack[2, 1] = 1.5
    with pytest.raises(ParameterError, match="normalized"):
        recurrence_residual(sets, stack)
    with pytest.raises(ParameterError, match="one row of coefficients per parameter set"):
        recurrence_residual(sets, stack[:2])
