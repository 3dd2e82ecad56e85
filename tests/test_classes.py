import cmath
import math

import mpmath
import numpy as np
import pytest

from struveops import (
    CONTAINMENT_TOL,
    ClassParams,
    DomainError,
    MobiusTarget,
    ParameterError,
    PowerSeries,
    StruveParams,
    apply_s,
    expression_evaluator,
    j_functional,
    lemma3_check,
    lemma6_check,
    membership_samples,
    membership_test,
    mobius_image_check,
    phi_series,
    power_mu,
)
from struveops.classes import verdict_from_samples

HALF_PLANE = MobiusTarget(1.0, -1.0)
REFERENCE = StruveParams(0.5, 1.0, 1.0)


def make_cp(alpha=0.0, lam=1.0, mu=0.5, struve=REFERENCE, target=HALF_PLANE):
    return ClassParams(alpha=alpha, lam=lam, mu=mu, struve=struve, target=target)


class TestMobiusTarget:
    def test_disk_geometry_formulas(self):
        t = MobiusTarget(0.5, -0.5)
        assert t.center == pytest.approx(5.0 / 3.0)
        assert t.radius == pytest.approx(4.0 / 3.0)

    def test_geometry_against_boundary_sampling(self):
        # The boundary image of |z| = 1 must trace the computed circle.
        for A, B in ((0.5, -0.5), (1.0, 0.0), (0.7, 0.3), (0.2, -0.9)):
            t = MobiusTarget(A, B)
            for j in range(360):
                w = t.phi(cmath.exp(2j * math.pi * j / 360))
                assert abs(abs(w - t.center) - t.radius) <= 1e-12

    def test_half_plane_mode(self):
        t = MobiusTarget(1.0, -1.0)
        assert t.is_half_plane
        assert t.half_plane_edge == 0.0
        with pytest.raises(ParameterError):
            t.center

    def test_value_at_zero_is_one(self):
        assert MobiusTarget(0.3, -0.8).phi(0.0) == 1.0

    @pytest.mark.parametrize("A,B", [(0.5, 0.5), (0.2, 0.7), (1.5, 0.0), (0.5, -1.5)])
    def test_invalid_params_rejected(self, A, B):
        with pytest.raises(ParameterError):
            MobiusTarget(A, B)


class TestImageCheck:
    def test_half_plane_margin(self):
        assert mobius_image_check(MobiusTarget(1.0, -1.0), 1.0) == 1.0

    def test_disk_center_margin_is_radius(self):
        t = MobiusTarget(0.5, -0.5)
        assert mobius_image_check(t, 5.0 / 3.0) == pytest.approx(4.0 / 3.0)

    def test_outside_point_negative(self):
        assert mobius_image_check(MobiusTarget(1.0, 0.0), 2.5) == pytest.approx(-0.5)

    @pytest.mark.parametrize("A,B", [(0.5, -0.5), (0.9, 0.3), (0.2, -0.99), (1.0, -1.0)])
    def test_scalar_and_array_margins_share_bits(self, A, B):
        # numpy's vectorised complex abs and Python's abs can differ in the
        # last bit, so the scalar and array paths both take np.hypot.
        t = MobiusTarget(A, B)
        rng = np.random.default_rng(4)
        c = 1.0 if t.is_half_plane else t.center
        w = c + 2.0 * rng.uniform(0.0, 1.0, 10_000) * np.exp(2j * np.pi * rng.uniform(size=10_000))
        array = mobius_image_check(t, w)
        scalar = [mobius_image_check(t, complex(x)) for x in w]
        assert array.tolist() == scalar
        if not t.is_half_plane:  # the scalar path kept the bits of Python abs
            assert scalar == [t.radius - abs(complex(x) - t.center) for x in w]


class TestPowerMu:
    def test_one(self):
        assert power_mu(1.0, 0.7) == 1

    def test_principal_square_root(self):
        assert power_mu(4.0, 0.5) == pytest.approx(2.0)

    def test_imaginary_base(self):
        assert power_mu(1j, 0.5) == pytest.approx(cmath.exp(1j * math.pi / 4.0))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            power_mu(0.0, 0.5)


class TestClassParams:
    def test_alpha_range_enforced(self):
        with pytest.raises(ParameterError):
            make_cp(alpha=math.pi / 2)

    def test_mu_range_enforced(self):
        with pytest.raises(ParameterError):
            make_cp(mu=1.0)
        with pytest.raises(ParameterError):
            make_cp(mu=0.0)


class TestClassExpression:
    def test_identity_series_gives_rotation(self):
        f = PowerSeries.identity(16)
        for alpha in (0.0, 0.4, -1.2):
            cp = make_cp(alpha=alpha, lam=complex(0.3, 0.8))
            expected = complex(math.cos(alpha), math.sin(alpha))
            for z in (0.0, 0.5, complex(-0.3, 0.6)):
                assert abs(expression_evaluator(cp, f)(z) - expected) <= 1e-14

    def test_trivial_parameters(self):
        cp = make_cp(alpha=0.0, lam=0.0)
        assert abs(expression_evaluator(cp, PowerSeries.identity(8))(0.7) - 1.0) <= 1e-14

    def test_against_independent_composition(self):
        # Second implementation path: operator coefficients from gamma-ratio
        # Pochhammers at high precision, plain power-sum evaluation, and the
        # expression composed in mpmath arithmetic.
        cp = make_cp(alpha=0.0, lam=1.0, mu=0.5)
        f = PowerSeries((0, 1, 1) + (0,) * 13)
        z = 0.1

        def op_value(k, zz, order=15):
            with mpmath.workdps(40):
                total = mpmath.mpc(0)
                for n in range(order):
                    a_n1 = 1 if n <= 1 else 0  # coefficients of z + z^2
                    if n == 0:
                        coeff = mpmath.mpf(1)
                    else:
                        coeff = (
                            (mpmath.mpf(-1) / 4) ** n
                            * mpmath.gamma(mpmath.mpf(3) / 2)
                            * mpmath.gamma(k)
                            / (mpmath.gamma(n + mpmath.mpf(3) / 2) * mpmath.gamma(k + n))
                        )
                    total += coeff * a_n1 * mpmath.mpc(zz) ** (n + 1)
                return total

        with mpmath.workdps(40):
            s_lo = op_value(2, z)
            s_hi = op_value(3, z)
            u = mpmath.power(mpmath.mpc(z) / s_hi, mpmath.mpf(1) / 2)
            oracle = complex((1 + 1) * u - 1 * (s_lo / s_hi) * u)
        assert abs(expression_evaluator(cp, f)(z) - oracle) <= 1e-10

    def test_vanishing_denominator_signaled(self):
        # S_{k+1} f = z (1 + s2 z) vanishes at z = -1/s2 inside the disk.
        sp = REFERENCE
        a2 = 20.0
        f = PowerSeries((0, 1, a2))
        s2 = (-1.0 / 4.0) * a2 / (1.5 * 3.0)  # kernel coefficient at k+1 = 3
        z0 = -1.0 / s2
        assert abs(z0) < 1.0
        cp = make_cp(struve=sp)
        with pytest.raises(DomainError):
            expression_evaluator(cp, f)(z0)


class TestJFunctional:
    def test_identity_anchor(self):
        rng = np.random.default_rng(41)
        f = PowerSeries.identity(16)
        for _ in range(25):
            cp = make_cp(
                alpha=rng.uniform(-1.4, 1.4),
                lam=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                mu=rng.uniform(0.05, 0.95),
            )
            z = 0.8 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert abs(j_functional(cp, f, z) - 1.0) <= 1e-14

    def test_alpha_zero_equals_expression(self):
        cp = make_cp(alpha=0.0, lam=2.0)
        f = PowerSeries((0, 1, 0.5, -0.25))
        z = complex(0.4, 0.1)
        assert j_functional(cp, f, z) == expression_evaluator(cp, f)(z)

    def test_rotated_identity(self):
        cp = make_cp(alpha=math.pi / 4)
        assert abs(j_functional(cp, PowerSeries.identity(8), 0.5) - 1.0) <= 1e-14


class TestMembership:
    def test_identity_passes_everywhere(self):
        rng = np.random.default_rng(43)
        f = PowerSeries.identity(16)
        for _ in range(5):
            B = rng.uniform(-1.0, 0.5)
            A = rng.uniform(B + 0.1, 1.0)
            cp = make_cp(
                alpha=rng.uniform(-1.0, 1.0),
                lam=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                target=MobiusTarget(A, B),
            )
            verdict = membership_test(cp, f, radii=(0.3, 0.6, 0.9), points_per_circle=60)
            assert verdict.passed and verdict.margin > 0
            assert verdict.witness_z is None
            assert verdict.samples_used == 180

    def test_degenerate_operator_c_zero(self):
        sp = StruveParams(0.5, 1.0, 0.0)
        rng = np.random.default_rng(44)
        coeffs = (0, 1) + tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(10))
        cp = make_cp(lam=complex(1.5, -0.4), struve=sp)
        verdict = membership_test(cp, PowerSeries(coeffs), radii=(0.5, 0.9),
                                  points_per_circle=36)
        assert verdict.passed

    def test_constructed_failure_with_witness(self):
        # f = z + 2 z^2 with a strongly weighted difference term dips below
        # Re J = 0 near z = -0.95; the brute-force sampler is the oracle.
        lam, a2 = 30.0, 2.0
        f = PowerSeries((0, 1, a2) + (0,) * 14)
        cp = make_cp(lam=lam)
        evaluator = expression_evaluator(cp, f)
        brute = min(
            evaluator(0.95 * cmath.exp(2j * math.pi * j / 720)).real
            for j in range(720)
        )
        assert brute < 0
        verdict = membership_test(cp, f)
        assert not verdict.passed
        assert verdict.margin < 0
        assert verdict.witness_z is not None
        assert evaluator(verdict.witness_z).real < 0
        assert abs(verdict.margin - brute) <= 1e-12

    def test_half_plane_margin_matches_image_check(self):
        cp = make_cp(lam=complex(0.5, 0.5))
        f = PowerSeries((0, 1, 0.3, -0.2j))
        _, values, margins = membership_samples(cp, f, radii=(0.5,), points_per_circle=16)
        assert len(values) == len(margins) == 16
        for value, margin in zip(values.tolist(), margins.tolist()):
            assert margin == mobius_image_check(cp.target, value)
            assert margin == value.real  # edge is 0 for (A, B) = (1, -1)

    def test_failure_monotone_in_radii(self):
        lam, a2 = 30.0, 2.0
        f = PowerSeries((0, 1, a2) + (0,) * 14)
        cp = make_cp(lam=lam)
        small = membership_test(cp, f, radii=(0.9, 0.95), points_per_circle=360)
        big = membership_test(cp, f, radii=(0.5, 0.9, 0.95), points_per_circle=360)
        assert not small.passed
        assert not big.passed
        assert big.margin <= small.margin + 1e-15

    def test_radii_validation(self):
        cp = make_cp()
        f = PowerSeries.identity(8)
        with pytest.raises(ParameterError):
            membership_test(cp, f, radii=(0.5, 0.4))
        with pytest.raises(ParameterError):
            membership_test(cp, f, radii=(0.0, 0.5))
        with pytest.raises(ParameterError):
            membership_test(cp, f, radii=())


class TestLemma6:
    def test_disk_in_half_plane(self):
        verdict = lemma6_check(MobiusTarget(0.5, 0.0), MobiusTarget(1.0, -1.0))
        assert verdict.passed and verdict.margin == pytest.approx(0.5)

    def test_equal_targets_margin_zero(self):
        t = MobiusTarget(0.6, -0.2)
        verdict = lemma6_check(t, t)
        assert verdict.passed and verdict.margin == pytest.approx(0.0, abs=1e-15)

    def test_same_b_wider_a(self):
        verdict = lemma6_check(MobiusTarget(0.9, -0.5), MobiusTarget(1.0, -0.5))
        assert verdict.passed and verdict.margin > 0

    def test_half_plane_in_half_plane(self):
        verdict = lemma6_check(MobiusTarget(0.8, -1.0), MobiusTarget(1.0, -1.0))
        assert verdict.passed and verdict.margin == pytest.approx(0.1)

    def test_ordering_violation_rejected(self):
        with pytest.raises(ParameterError):
            lemma6_check(MobiusTarget(0.5, -0.5), MobiusTarget(0.4, -0.2))

    def test_seeded_quadruples(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            vals = np.sort(rng.uniform(-1.0, 1.0, size=4))
            b1, b2, a2, a1 = (float(v) for v in vals)
            if a2 - b2 < 1e-3:
                continue
            verdict = lemma6_check(MobiusTarget(a2, b2), MobiusTarget(a1, b1))
            assert verdict.passed


class TestLemma3:
    def test_sigma_zero_matches_g(self):
        t = MobiusTarget(1.0, -1.0)
        f_vals = [complex(2.0, 0.3), complex(1.5, -0.2)]
        g_vals = [complex(0.4, 0.1), complex(0.8, 0.0)]
        combo = lemma3_check(t, f_vals, g_vals, 0.0)
        assert combo.margin == min(mobius_image_check(t, w) for w in g_vals)

    def test_sigma_one_matches_f(self):
        t = MobiusTarget(1.0, -1.0)
        f_vals = [complex(2.0, 0.3), complex(1.5, -0.2)]
        g_vals = [complex(0.4, 0.1), complex(0.8, 0.0)]
        combo = lemma3_check(t, f_vals, g_vals, 1.0)
        assert combo.margin == min(mobius_image_check(t, w) for w in f_vals)

    def test_center_and_interior_midpoint(self):
        t = MobiusTarget(0.5, 0.0)
        combo = lemma3_check(t, [complex(t.center)], [complex(t.center + 0.3)], 0.5)
        assert combo.passed

    def test_precondition_enforced(self):
        t = MobiusTarget(1.0, -1.0)
        with pytest.raises(ParameterError):
            lemma3_check(t, [complex(-1.0, 0.0)], [complex(1.0, 0.0)], 0.5)

    def test_sigma_range_enforced(self):
        t = MobiusTarget(1.0, -1.0)
        with pytest.raises(ParameterError):
            lemma3_check(t, [1.0 + 0j], [1.0 + 0j], 1.5)

    @pytest.mark.parametrize("f_vals,g_vals", [
        ([math.nan], [1.0]),  # passed with margin inf: nan < worst is never true
        ([1.0], [complex(1.0, math.inf)]),
        ([1.0, math.nan], [1.0, 1.0]),
        ([], []),  # min() of an empty sequence
        ([1.0], [1.0, 1.0]),
    ])
    def test_bad_sample_sets_rejected(self, f_vals, g_vals):
        with pytest.raises(ParameterError):
            lemma3_check(MobiusTarget(0.5, -0.5), f_vals, g_vals, 0.5)


def test_verdict_json_shape():
    cp = make_cp()
    verdict = membership_test(cp, PowerSeries.identity(8), radii=(0.5,),
                              points_per_circle=8)
    data = verdict.to_json()
    assert set(data) == {"passed", "witness", "margin", "samples_used"}
    assert data["passed"] is True
    assert data["witness"] is None
    assert data["samples_used"] == 8


def scalar_reference(cp, f, radii, points):
    """Per-point Horner sampling of the de-rotated functional: ``[(z, margin)]``.

    An independent scalar path (Python complex arithmetic, ``cmath``) for the
    array implementation to agree with.
    """

    def shifted_horner(s, z):
        acc = 0j
        for c in reversed(s.coeffs[1:]):
            acc = acc * z + c
        return acc

    s_lo = apply_s(cp.struve, f)
    s_hi = apply_s(cp.struve.shifted(), f)
    eia = complex(math.cos(cp.alpha), math.sin(cp.alpha))
    step = 2.0 * math.pi / points
    out = []
    for r in radii:
        for j in range(points):
            z = r * cmath.exp(1j * (step * j))
            den = shifted_horner(s_hi, z)
            if abs(den) < 1e-12:
                raise DomainError(f"S_(k+1) f vanishes at z = {z}")
            pm = power_mu(1.0 / den, cp.mu)
            value = eia * ((1.0 + cp.lam) * pm - cp.lam * (shifted_horner(s_lo, z) / den) * pm)
            value = (value - 1j * math.sin(cp.alpha)) / math.cos(cp.alpha)
            out.append((z, mobius_image_check(cp.target, value)))
    return out


def seeded_case(seed, half_plane):
    """A normalized series of order 8..64 and class parameters; the tail is
    scaled so S_{k+1} f / z stays off zero while J may leave the target."""
    rng = np.random.default_rng(seed)
    order = int(rng.integers(8, 65))
    sp = StruveParams(rng.uniform(-0.4, 2.0), 1.0, rng.uniform(-2.0, 2.0))
    if half_plane:
        target = MobiusTarget(rng.uniform(-0.8, 1.0), -1.0)
    else:
        B = rng.uniform(-0.9, 0.6)
        target = MobiusTarget(rng.uniform(B + 0.1, 1.0), B)
    raw = (rng.normal(size=order - 1) + 1j * rng.normal(size=order - 1)) / np.arange(2, order + 1) ** 1.5
    kernel = np.array(phi_series(sp.shifted(), order).coeffs[2:])
    raw *= rng.uniform(0.02, 0.9) / (np.abs(raw) * np.abs(kernel)).sum()
    f = PowerSeries((0, 1, *raw.tolist()))
    cp = ClassParams(
        alpha=rng.uniform(-1.2, 1.2),
        lam=complex(rng.uniform(-1.5, 2.5), rng.uniform(-0.5, 0.5)),
        mu=rng.uniform(0.1, 0.9),
        struve=sp,
        target=target,
    )
    return cp, f


class TestArrayEquivalence:
    RADII = (0.2, 0.5, 0.8, 0.95)
    POINTS = 90

    @pytest.mark.parametrize("half_plane", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_reference(self, seed, half_plane):
        cp, f = seeded_case(1000 + seed, half_plane)
        ref = scalar_reference(cp, f, self.RADII, self.POINTS)
        z, _, margins = membership_samples(cp, f, self.RADII, self.POINTS)
        ref_z = np.array([s[0] for s in ref])
        ref_margins = np.array([s[1] for s in ref])
        assert np.array_equal(z, ref_z)
        assert np.max(np.abs(margins - ref_margins)) <= 1e-12

        verdict = membership_test(cp, f, self.RADII, self.POINTS)
        assert verdict.samples_used == len(self.RADII) * self.POINTS
        assert abs(verdict.margin - ref_margins.min()) <= 1e-12
        assert verdict.passed == (verdict.margin >= -CONTAINMENT_TOL)
        if verdict.passed:
            assert verdict.witness_z is None
        else:
            first = int(np.flatnonzero(margins == margins.min())[0])
            assert verdict.witness_z == z[first]
            assert abs(ref_margins[first] - ref_margins.min()) <= 1e-12

    def test_seeded_cases_cover_both_verdicts(self):
        verdicts = [
            membership_test(*seeded_case(1000 + seed, half), self.RADII, self.POINTS).passed
            for seed in range(6) for half in (False, True)
        ]
        assert any(verdicts) and not all(verdicts)

    def test_witness_is_first_minimum(self):
        z = np.array([0.1, 0.2j, -0.3, 0.4j, 0.5])
        verdict = verdict_from_samples(z, np.array([0.3, -0.5, 0.1, -0.5, -0.5]))
        assert not verdict.passed
        assert verdict.margin == -0.5
        assert verdict.witness_z == 0.2j
        assert verdict.samples_used == 5

    def test_scalar_input_returns_complex(self):
        cp, f = seeded_case(7, False)
        evaluate_at = expression_evaluator(cp, f)
        z = complex(0.3, -0.4)
        assert type(evaluate_at(z)) is complex
        grid = np.array([[z, 0.1], [0.2j, -0.5]])
        values = evaluate_at(grid)
        assert values.shape == (2, 2)
        assert abs(values[0, 0] - evaluate_at(z)) <= 1e-15

    def test_vanishing_denominator_names_first_sample(self):
        # S_{k+1} f / z = (1 - z/z1)(1 - z/z2) with both roots on the grid:
        # z1 = 0.5i (index 18 of 72 on circle 0.5), z2 = -0.5 (index 36).
        z1, z2 = 0.5j, -0.5
        shifted = (1.0, -(1.0 / z1 + 1.0 / z2), 1.0 / (z1 * z2))
        kernel = phi_series(REFERENCE.shifted(), 3).coeffs
        f = PowerSeries((0, 1, shifted[1] / kernel[2], shifted[2] / kernel[3]))
        cp = make_cp()
        radii = (0.3, 0.5)
        with pytest.raises(DomainError) as ref:
            scalar_reference(cp, f, radii, 72)
        with pytest.raises(DomainError) as got:
            membership_samples(cp, f, radii, 72)
        assert str(got.value) == str(ref.value)
        expected = 0.5 * cmath.exp(1j * (2.0 * math.pi / 72 * 18))
        assert str(got.value).endswith(f"z = {expected}")

    @pytest.mark.parametrize(
        "radii,points",
        [((0.5, 0.4), 12), ((0.0, 0.5), 12), ((), 12), ((0.5, 1.0), 12), ((0.5,), 0)],
    )
    def test_bad_sampling_rejected_before_evaluation(self, monkeypatch, radii, points):
        from struveops import classes

        def fail(*args, **kwargs):
            raise AssertionError("evaluated before the sampling was validated")

        monkeypatch.setattr(classes, "expression_evaluator", fail)
        monkeypatch.setattr(classes, "apply_s", fail)
        with pytest.raises(ParameterError):
            membership_samples(make_cp(), PowerSeries.identity(8), radii, points)


class TestNonFinite:
    def test_nan_coefficient_raises(self):
        f = PowerSeries((0, 1, complex("nan")))
        with pytest.raises(DomainError, match=r"not finite at z = \(0\.5\+0j\)"):
            membership_test(make_cp(), f, radii=(0.5, 0.9), points_per_circle=12)

    def test_overflow_names_first_non_finite_sample(self):
        # S_k f / z = 1 + 1.2e308 (z + z^2): finite coefficients whose Horner
        # sum overflows once Re z > 0.4975, first at z = 0.5 in sample order.
        sp = StruveParams(0.5, 1.0, -40.0)
        kernel = phi_series(sp, 3).coeffs
        f = PowerSeries((0, 1, 1.2e308 / kernel[2], 1.2e308 / kernel[3]))
        cp = make_cp(struve=sp)
        radii = (0.3, 0.4, 0.5, 0.9)
        _, values, _ = membership_samples(cp, f, radii[:2], 36)
        assert np.isfinite(values).all()
        with pytest.raises(DomainError, match=r"not finite at z = \(0\.5\+0j\)"):
            membership_test(cp, f, radii=radii, points_per_circle=36)

    def test_no_runtime_warning(self, recwarn):
        f = PowerSeries((0, 1, complex("inf")))
        with pytest.raises(DomainError):
            membership_test(make_cp(), f, radii=(0.5,), points_per_circle=12)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
