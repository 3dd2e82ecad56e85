import cmath
import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from struveops import (
    ConvergenceError,
    DominantParams,
    DomainError,
    MobiusTarget,
    NumericsError,
    ParameterError,
    best_dominant_q,
    mobius_image_check,
    modulus_bounds,
    q_starlike_certificate,
    radius_factor,
    radius_positivity,
    re_bounds,
    re_zqprime_over_q,
    sharp_bound_h,
)
from struveops import bounds
from struveops.series import gamma_n
from struveops.suites import _bound_integral


def dominant(A, B, beta):
    return DominantParams(beta, MobiusTarget(A, B))


def trapezoid_q(A, B, beta, z, panels=1_000_000):
    """Brute-force oracle: beta * int_0^1 phi(zu) u^(beta-1) du by trapezoid.

    The u^(beta-1) factor is integrated exactly per panel (substitution
    s = u^beta makes the weight flat), so only phi contributes error.
    """
    s = np.linspace(0.0, 1.0, panels + 1)
    u = s ** (1.0 / beta)
    phi = (1.0 + A * z * u) / (1.0 + B * z * u)
    return complex(np.trapezoid(phi, s))


class TestBestDominantQ:
    def test_at_zero(self):
        q, _, _ = best_dominant_q(dominant(1.0, -1.0, 1.0), 0.0)
        assert abs(q - 1.0) <= 1e-13

    def test_b_zero_closed_form(self):
        for beta, A, z in ((1.0, 1.0, 0.5), (2.5, 0.7, -0.3), (0.4, 0.2, 0.25j)):
            value, _, _ = best_dominant_q(dominant(A, 0.0, beta), z)
            assert abs(value - (1.0 + beta / (beta + 1.0) * A * z)) <= 1e-12

    def test_unsettled_quadrature_is_convergence_error(self):
        # Near the pole of phi at z = 1, 16 and 8 nodes disagree.
        with pytest.raises(ConvergenceError, match=r"q\(\(0\.9999\+0j\)\) did not settle: 16 vs 8"):
            best_dominant_q(dominant(0.5, -1.0, 0.5), 0.9999, nodes=16)

    def test_half_plane_against_trapezoid_oracle(self):
        value, _, _ = best_dominant_q(dominant(1.0, -1.0, 1.0), 0.5)
        oracle = trapezoid_q(1.0, -1.0, 1.0, 0.5)
        assert abs(value - oracle) <= 1e-9
        # same case has the elementary antiderivative -1 + 4 ln 2
        assert abs(value - (-1.0 + 4.0 * math.log(2.0))) <= 1e-12

    def test_beta_precondition(self):
        with pytest.raises(ParameterError):
            best_dominant_q(dominant(1.0, 0.0, 0.0), 0.5)
        with pytest.raises(ParameterError):
            best_dominant_q(dominant(1.0, 0.0, -1.0), 0.5)


class TestBestDominantQArrays:
    """One code path for a scalar and an array of z: same bits, same errors."""

    @staticmethod
    def scalar_outcome(dp, z, nodes):
        try:
            return repr(best_dominant_q(dp, z, nodes)[0])
        except ConvergenceError as exc:
            return exc

    @pytest.mark.parametrize("nodes", [8, 17, 128, 255])
    def test_array_matches_scalar_calls_bit_for_bit(self, nodes):
        # q integrates all points in one pass, each settling on its own
        # rung: 40, 150 and 1,010 points (the dominant suite's per trial).
        rng = np.random.default_rng(20 + nodes)
        for i, B in enumerate((-1.0, 0.0, float(rng.uniform(-0.95, 0.9)),
                               float(rng.uniform(-0.95, 0.9)))):
            A = float(rng.uniform(B + 0.05 * (1.0 - B), 1.0))
            for j, beta in enumerate((0.05, float(np.exp(rng.uniform(np.log(0.05), np.log(50.0)))),
                                      50.0)):
                dp = dominant(A, B, beta)
                points = (40, 150, 1010)[(i + j) % 3]
                zs = [r * cmath.exp(1j * t) for r, t in
                      zip(rng.uniform(0.0, 0.95, points), rng.uniform(0.0, 2.0 * math.pi, points))]
                outcomes = [self.scalar_outcome(dp, z, nodes) for z in zs]
                failures = [o for o in outcomes if isinstance(o, ConvergenceError)]
                if failures:
                    with pytest.raises(ConvergenceError) as excinfo:
                        best_dominant_q(dp, np.array(zs), nodes)
                    assert str(excinfo.value) == str(failures[0])
                    continue
                values, _, _ = best_dominant_q(dp, np.array(zs), nodes)
                assert values.shape == (points,) and values.dtype == np.complex128
                assert [repr(v) for v in values.tolist()] == outcomes

    def test_scalar_in_complex_out_and_shape_kept(self):
        dp = dominant(0.7, -0.4, 1.3)
        assert type(best_dominant_q(dp, 0.5)[0]) is complex
        assert type(best_dominant_q(dp, np.complex128(0.5j))[0]) is complex
        grid = np.array([[0.1, 0.2j], [-0.3, 0.4 + 0.1j]])
        values, _, _ = best_dominant_q(dp, grid)
        assert values.shape == (2, 2)
        assert [repr(v) for v in values.ravel().tolist()] == [
            repr(best_dominant_q(dp, z)[0]) for z in grid.ravel().tolist()]

    def test_domain_error_names_first_point_outside_in_input_order(self):
        dp = dominant(1.0, -1.0, 1.0)
        with pytest.raises(DomainError, match=r"\|z\| = 1\.5$"):
            best_dominant_q(dp, np.array([0.1, 0.5j, 1.5, 2.0, complex("nan")]))
        with pytest.raises(DomainError, match=r"\|z\| = nan$"):
            best_dominant_q(dp, [0.1, complex("nan"), 2.0])
        with pytest.raises(DomainError, match=r"\|z\| = 1$"):
            best_dominant_q(dp, [0.1, -1.0])

    def test_convergence_error_names_first_unsettled_point_in_input_order(self):
        # 0.99999 has the largest gap, but 0.99 comes first.
        dp = dominant(0.5, -1.0, 0.5)
        with pytest.raises(ConvergenceError,
                           match=r"q\(\(0\.99\+0j\)\) did not settle: 16 vs 8 nodes differ by 0\.139199"):
            best_dominant_q(dp, np.array([0.1, -0.9999, 0.99, 0.99999]), nodes=16)

    def test_convergence_error_names_first_unsettled_point_of_a_long_array(self):
        # 0.99 at 130 comes after 128 settled points, and before the larger
        # gap of 0.99999 at 200.
        dp = dominant(0.5, -1.0, 0.5)
        zs = np.full(250, 0.1 + 0.2j)
        zs[[5, 130, 200]] = -0.9999, 0.99, 0.99999
        with pytest.raises(ConvergenceError,
                           match=r"q\(\(0\.99\+0j\)\) did not settle: 16 vs 8 nodes differ by 0\.139199"):
            best_dominant_q(dp, zs, nodes=16)
        zs[130] = 0.5
        with pytest.raises(ConvergenceError, match=r"q\(\(0\.99999\+0j\)\) did not settle"):
            best_dominant_q(dp, zs, nodes=16)
        # The disk check covers the whole array before any point is integrated.
        zs[240] = 1.5
        with pytest.raises(DomainError, match=r"\|z\| = 1\.5$"):
            best_dominant_q(dp, zs, nodes=16)

    def test_array_has_the_bits_of_one_settle_pass(self):
        # The (points x nodes) settle of every point at once, as reference.
        from struveops.quadrature import settle

        rng = np.random.default_rng(64)
        for points in (1, 63, 64, 65, 128, 129, 1010):
            dp = dominant(float(rng.uniform(0.0, 1.0)), float(rng.uniform(-0.95, -0.05)),
                          float(rng.uniform(0.25, 2.5)))
            zs = rng.uniform(0.0, 0.95, points) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, points))
            one_pass, gap, used = settle(lambda t, live: dp.target.phi(zs[live, None] * t),
                                         points, 128, 0.0, dp.beta - 1.0, dp.beta)
            q, q_gap, q_used = best_dominant_q(dp, zs)
            assert q.tobytes() == one_pass.tobytes() and q_gap.tobytes() == gap.tobytes()
            assert q_used.tolist() == used.tolist()
        assert best_dominant_q(dp, np.zeros(0, dtype=complex))[0].shape == (0,)

    def test_points_at_the_cap_keep_the_two_rule_bits(self):
        # A point that reaches --nodes gets the value of the fixed
        # nodes-vs-nodes // 2 pair that q used before the ladder, and the gap
        # a scalar call measured for it plus the rounding bound of the sum.
        from struveops.quadrature import jacobi_rule_01

        rng = np.random.default_rng(65)
        dp = dominant(0.6, -1.0, 0.8)
        zs = 1.0 - rng.uniform(0.05, 0.3, 200) * np.exp(1j * rng.uniform(-1.2, 1.2, 200))
        q, gap, used = best_dominant_q(dp, zs, 128)
        capped = used == 128
        assert 0 < np.count_nonzero(capped) < zs.size
        t, w = jacobi_rule_01(128, 0.0, dp.beta - 1.0)
        f = dp.target.phi(zs[capped, None] * t)
        full = dp.beta * np.vecdot(w, f)
        rounding = gamma_n(128) * dp.beta * np.vecdot(w, np.abs(f))
        t, w = jacobi_rule_01(64, 0.0, dp.beta - 1.0)
        half = dp.beta * np.vecdot(w, dp.target.phi(zs[capped, None] * t))
        assert q[capped].tobytes() == full.tobytes()
        assert gap[capped].tolist() == [abs(d) + r for d, r in zip((full - half).tolist(),
                                                                   rounding.tolist())]

    @pytest.mark.parametrize("z", [complex(math.nan, math.nan), complex(0.5, math.nan), complex(math.nan, 0.0)])
    def test_nan_point_is_domain_error(self, z):
        with pytest.raises(DomainError, match="best dominant defined on"):
            best_dominant_q(dominant(1.0, -1.0, 1.0), z)


class TestBestDominantQGap:
    """q comes with the full-vs-half gap its one integration measured, plus
    the rounding bound of the rule it stopped at."""

    def test_gap_is_the_difference_from_the_half_rule(self):
        # The gap is to the rung below the one q stopped at, the first rung
        # whose gap is within SETTLE_RTOL of the value scale, or the cap.
        from struveops.quadrature import SETTLE_RTOL, _ladder, jacobi_rule_01

        rng = np.random.default_rng(808)
        for _ in range(60):
            B = float(rng.uniform(-1.0, 0.9))
            A = float(rng.uniform(B + 0.05 * (1.0 - B), 1.0))
            dp = dominant(A, B, float(np.exp(rng.uniform(np.log(0.1), np.log(20.0)))))
            nodes = int(rng.integers(64, 256))  # the n // 2 call settles too
            z = float(rng.uniform(0.0, 0.8)) * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
            q, gap, used = best_dominant_q(dp, z, nodes)
            assert type(gap) is float and type(used) is int
            rungs = _ladder(nodes)
            below = rungs[rungs.index(used) - 1]
            coarse, _, _ = best_dominant_q(dp, z, below)
            t, w = jacobi_rule_01(used, 0.0, dp.beta - 1.0)
            # The factor is (beta - 1) + 1, the moment the weights sum to.
            factor = (dp.beta - 1.0) + 1.0
            rounding = gamma_n(used) * factor * np.vecdot(w, np.abs(dp.target.phi(z * t)))
            assert repr(gap) == repr(abs(q - coarse) + float(rounding))
            assert used == nodes or abs(q - coarse) <= SETTLE_RTOL * max(1.0, abs(q))
            for n in rungs[1:rungs.index(used)]:
                _, g, u = best_dominant_q(dp, z, n)
                assert u == n and g > SETTLE_RTOL * max(1.0, abs(q))

    def test_array_gap_has_the_shape_of_z(self):
        dp = dominant(0.7, -0.4, 1.3)
        grid = np.array([[0.1, 0.2j], [-0.3, 0.4 + 0.1j]])
        q, gap, used = best_dominant_q(dp, grid)
        assert q.shape == gap.shape == used.shape == (2, 2) and gap.dtype == np.float64
        assert gap.ravel().tolist() == [best_dominant_q(dp, z)[1] for z in grid.ravel().tolist()]

    @pytest.mark.parametrize("nodes", [1, 0, -2])
    def test_fewer_than_two_nodes_rejected(self, nodes):
        with pytest.raises(ParameterError, match=f"nodes >= 2, got {nodes}"):
            best_dominant_q(dominant(1.0, 0.0, 1.0), 0.5, nodes)


class TestSharpBoundH:
    def test_at_zero_both_branches(self):
        assert sharp_bound_h(dominant(1.0, 0.0, 1.0), 0.0)[0] == 1.0
        assert abs(sharp_bound_h(dominant(0.7, -0.4, 1.3), 0.0)[0] - 1.0) <= 1e-13

    def test_b_zero_branch(self):
        assert abs(sharp_bound_h(dominant(1.0, 0.0, 1.0), 0.5)[0] - 1.25) <= 1e-14

    def test_matches_quadrature_representation(self):
        value = sharp_bound_h(dominant(1.0, -1.0, 1.0), 0.5)[0]
        other, _, _ = best_dominant_q(dominant(1.0, -1.0, 1.0), 0.5)
        assert abs(value - other) <= 1e-9

    def test_agreement_on_seeded_points(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            B = rng.uniform(-0.95, 0.9)
            A = rng.uniform(B + 0.05, min(1.0, B + 2.0))
            beta = rng.uniform(0.3, 2.5)
            dp = dominant(A, B, beta)
            for _ in range(10):
                z = rng.uniform(0.05, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                assert abs(sharp_bound_h(dp, z)[0] - best_dominant_q(dp, z)[0]) <= 1e-9

    @pytest.mark.parametrize("z", [complex(math.nan, math.nan), complex(0.5, math.nan), complex(math.nan, 0.0)])
    @pytest.mark.parametrize("B", [-1.0, 0.0, 0.5])
    def test_nan_point_is_domain_error(self, z, B):
        with pytest.raises(DomainError, match="sharp bound defined on"):
            sharp_bound_h(dominant(1.0, B, 1.0), z)


def outcome(f, *args):
    """``repr`` of each part of a result, or the type and message of its error."""
    try:
        return tuple(repr(v) for v in f(*args))
    except NumericsError as exc:
        return type(exc).__name__, str(exc)


class TestSharpBoundHArrays:
    """An array of z sums the first terms of its short series together and
    every other point by its scalar call: each point keeps the route, value,
    error bound and term count of that call."""

    @staticmethod
    def mixed_points(B, rng):
        # Every route of F_a at x = -Bz: the series (a long one at |x| near
        # 0.9, which the scalar call sums in numpy blocks), Pfaff, the
        # expansion next to the circle (at B = -1) and z = 0.
        points = [0.0, 0.05j, 0.89, -0.89, 0.88j, 0.6 - 0.6j, complex(-0.7, 0.3)]
        points += [(1.0 - d) * cmath.exp(1j * t) for d in (1e-2, 1e-4, 1e-6, 1e-8)
                   for t in (0.0, 0.3, -1.0)]
        points += [r * cmath.exp(1j * t) for r, t in
                   zip(rng.uniform(0.0, 0.999, 40), rng.uniform(0.0, 2.0 * math.pi, 40))]
        return points

    @pytest.mark.parametrize("B", [-1.0, -0.95, -0.5, 0.0, 0.3, 0.9])
    def test_array_matches_scalar_calls_repr_for_repr(self, B):
        # Whole arrays sum F in numpy blocks; the prefixes take both sides of
        # the point count at which _closed_form switches from its loop.
        rng = np.random.default_rng(int(1000 * (B + 2.0)))
        routes = set()
        for beta in (0.05, 1.0, float(rng.uniform(0.25, 2.5)), 4.0):
            dp = dominant(float(rng.uniform(B + 0.01, 1.0)), B, beta)
            points = self.mixed_points(B, rng)
            if B == -1.0:
                routes.update(route(beta, -B * z) for z in points)
            for size in (1, 2, bounds._ARRAY_POINTS - 1, bounds._ARRAY_POINTS, len(points)):
                zs = points[:size]
                expected = [outcome(sharp_bound_h, dp, z) for z in zs]
                assert all(len(e) == 3 for e in expected)  # no scalar call raises here
                values, est, terms = sharp_bound_h(dp, np.array(zs))
                assert values.dtype == np.complex128 and values.shape == (len(zs),)
                assert list(zip(*([repr(v) for v in a.tolist()] for a in (values, est, terms)))) == expected
        if B == -1.0:
            assert routes == {"series", "blocks", "pfaff", "expansion"}

    def test_f21_lerch_all_runs_once_from_array_points(self, monkeypatch):
        calls = []
        lerch_all = bounds.f21_lerch_all

        def counted(beta, x, tol=1e-13):
            calls.append(x.shape)
            return lerch_all(beta, x, tol)

        monkeypatch.setattr(bounds, "f21_lerch_all", counted)
        dp = dominant(0.7, -0.4, 1.3)
        zs = 0.8 * np.exp(1j * np.linspace(0.0, 6.0, 50))
        sharp_bound_h(dp, zs)
        assert calls == [(50,)]
        for size in (1, 2, bounds._ARRAY_POINTS - 1):
            sharp_bound_h(dp, zs[:size])
        sharp_bound_h(dp, 0.5j)
        modulus_bounds(dp, np.array([0.2, 0.5]))
        re_bounds(dp)
        assert calls == [(50,)]

    @pytest.mark.parametrize("beta, xs", [
        # Short series and Pfaff points, a series past the loop (0.89, summed
        # in numpy blocks alone) and the expansion next to the circle.
        (1.0, [0.5, 0.89, 0.88j, 0.9999 * cmath.exp(0.3j), 0.2 - 0.1j, -0.7 + 0.3j,
               -0.89, 0.99, 0.3j]),
        # At beta = 100 next to the circle the series raises; the array stops there.
        (100.0, [0.5, 0.89, 0.9999 * cmath.exp(0.3j), 0.99999 * cmath.exp(0.5j), 0.1j]),
    ])
    def test_f21_lerch_all_leaves_to_f21_lerch_what_one_block_does_not_sum(
            self, beta, xs, monkeypatch):
        # One _in_block call sums the first SCALAR_TERMS terms of every point
        # away from the circle; each point it leaves is an f21_lerch call of
        # its own, in input order, up to the first that raises.
        from struveops import hypergeom, series

        blocks, scalar, inside = [], [], []
        in_block, lerch = series._in_block, hypergeom.f21_lerch

        def counted_block(r, *args):
            if not inside:  # not the blocks of a scalar call
                blocks.append(r.shape)
            return in_block(r, *args)

        def counted_lerch(beta, x, tol=1e-13):
            scalar.append(x)
            inside.append(x)
            try:
                return lerch(beta, x, tol)
            finally:
                inside.pop()

        outcomes = [outcome(lerch, beta, x) for x in xs]
        routes = [route(beta, x) if len(o) == 3 else "raises" for x, o in zip(xs, outcomes)]
        raising = "raises" in routes
        assert "blocks" in routes and ("expansion" in routes or raising)
        left = [r in ("blocks", "expansion", "raises") for r in routes]
        assert all(int(o[2]) <= series.SCALAR_TERMS + 1 for o, l in zip(outcomes, left) if not l)
        stop = routes.index("raises") + 1 if raising else len(xs)
        near = [hypergeom._near_circle(abs(x), abs(x - 1.0)) for x in xs]
        monkeypatch.setattr(series, "_in_block", counted_block)
        monkeypatch.setattr(hypergeom, "f21_lerch", counted_lerch)
        try:
            got = hypergeom.f21_lerch_all(beta, np.array(xs))
        except NumericsError as exc:
            assert (type(exc).__name__, str(exc)) == outcomes[stop - 1]
        else:
            assert not raising
            assert list(zip(*([repr(v) for v in a.tolist()] for a in got))) == outcomes
        assert blocks == [(near.count(False), series.SCALAR_TERMS)]
        assert scalar == [x for x, l in zip(xs[:stop], left) if l]

    def test_shape_kept(self):
        dp = dominant(0.7, -0.4, 1.3)
        grid = np.array([[0.1, 0.2j, 0.0], [-0.3, 0.4 + 0.1j, 0.899]])
        values, est, terms = sharp_bound_h(dp, grid)
        assert values.shape == est.shape == terms.shape == (2, 3)
        assert [repr(v) for v in values.ravel().tolist()] == [
            repr(sharp_bound_h(dp, z)[0]) for z in grid.ravel().tolist()]
        assert type(sharp_bound_h(dp, np.complex128(0.5j))[0]) is complex
        assert type(sharp_bound_h(dp, np.array(0.5j))[0]) is complex
        assert sharp_bound_h(dp, np.zeros((0, 4)))[0].shape == (0, 4)

    @pytest.mark.parametrize("B", [-1.0, 0.0, 0.5])
    def test_domain_error_names_first_point_outside_in_input_order(self, B):
        dp = dominant(1.0, B, 1.0)
        with pytest.raises(DomainError, match=r"\|z\| = 1\.5$"):
            sharp_bound_h(dp, np.array([0.1, 0.5j, 1.5, 2.0, complex("nan")]))
        with pytest.raises(DomainError, match=r"\|z\| = nan$"):
            sharp_bound_h(dp, [0.1, complex(0.5, math.nan), 2.0])
        with pytest.raises(DomainError, match=r"\|z\| = 1$"):
            sharp_bound_h(dp, [[0.1, 0.2], [-1.0, 0.3]])

    def test_first_failing_point_raises_its_scalar_error(self):
        # At beta = 100 next to the circle the expansion does not apply and
        # the series does not reach tol within MAX_TERMS terms; a point that
        # is fine comes first, and the failing ones in input order after it.
        dp = dominant(1.0, -1.0, 100.0)
        zs = [0.5, 0.9999 * cmath.exp(0.3j), 0.99999 * cmath.exp(0.5j), 0.1j]
        expected = outcome(sharp_bound_h, dp, zs[1])
        assert expected[0] == "ConvergenceError"
        assert outcome(sharp_bound_h, dp, np.array(zs)) == expected

    def test_modulus_bounds_over_radii_match_scalar_calls(self):
        rng = np.random.default_rng(72)
        radii = np.array([0.0, 0.1, 0.5, 0.9, 0.99, 0.9999, 1.0 - 1e-6, 1.0 - 1e-8, 1.0])
        cases = [(0.5, -1.0, 1.0), (1.0, -1.0, 0.0), (0.3, 0.0, 0.7), (0.9, -0.999, 2.5)]
        cases += [(float(rng.uniform(B, 1.0)), B, float(rng.uniform(0.0, 3.0)))
                  for B in rng.uniform(-1.0, 0.99, 8).tolist()]
        for A, B, beta in cases:
            dp = dominant(A, B, beta)
            lower, upper = modulus_bounds(dp, radii.reshape(3, 3))
            assert lower.shape == upper.shape == (3, 3)
            assert [(repr(lo), repr(up)) for lo, up in
                    zip(lower.ravel().tolist(), upper.ravel().tolist())] == [
                tuple(map(repr, modulus_bounds(dp, r))) for r in radii.tolist()]
            if B == -1.0:
                assert math.isinf(upper.flat[-1]) and np.isfinite(upper.flat[:-1]).all()

    def test_modulus_bounds_name_the_first_radius_outside(self):
        dp = dominant(0.5, 0.25, 1.0)
        for radii, bad in (([0.5, -0.1, 1.5], "-0.1"), ([0.2, 1.0 + 1e-12], "1.000000000001"),
                           ([0.3, math.nan, -1.0], "nan")):
            with pytest.raises(ParameterError, match=rf"got {re.escape(bad)}$"):
                modulus_bounds(dp, np.array(radii))


def route(beta, x):
    """Which route the scalar ``f21_lerch`` takes at x (``blocks``: the series
    past its loop, in numpy blocks)."""
    from struveops import hypergeom, series

    a = beta + 1.0
    if hypergeom._near_circle(abs(x), abs(x - 1.0)) and hypergeom._lerch_log(a, x) is not None:
        return "expansion"
    if hypergeom._takes_pfaff(x, abs(x), abs(x - 1.0)):
        return "pfaff"
    with mock.patch.object(series, "_in_block", wraps=series._in_block) as block:
        hypergeom.f21_lerch(beta, x)
    return "blocks" if block.called else "series"


class TestLowerBoundHminus1:
    def test_b_zero_formula(self):
        assert abs(re_bounds(dominant(1.0, 0.0, 1.0))[0] - 0.5) <= 1e-12
        assert abs(re_bounds(dominant(0.5, 0.0, 2.0))[0] - 2.0 / 3.0) <= 1e-12

    def test_log_antiderivative_oracle(self):
        # int_0^1 (1 - t/2)/(1 + t/2) dt = 4 ln(3/2) - 1
        value = re_bounds(dominant(0.5, -0.5, 1.0))[0]
        assert abs(value - (4.0 * math.log(1.5) - 1.0)) <= 1e-10

    def test_half_plane_target_is_proper_integral(self):
        # At B = -1 the integrand is (1 - A t)/(1 + t): bounded, convergent.
        value = re_bounds(dominant(0.3, -1.0, 1.5))[0]
        oracle, _ = quad(
            lambda t: 1.5 * t**0.5 * (1.0 - 0.3 * t) / (1.0 + t), 0.0, 1.0,
            epsabs=1e-12,
        )
        assert abs(value - oracle) <= 1e-9

    def test_matches_radial_limit_of_h(self):
        dp = dominant(0.8, -0.6, 1.2)
        limit = sharp_bound_h(dp, -(1.0 - 1e-7))[0].real
        assert abs(limit - _bound_integral(0.8, -0.6, 1.2, -1.0)) <= 1e-6


class TestRadius:
    def test_balanced_case_sqrt2(self):
        # lambda = mu k gives c = 1 and r* = sqrt(2) - 1
        assert abs(radius_positivity(1.0, 0.5, 2.0) - (math.sqrt(2.0) - 1.0)) <= 1e-14

    def test_small_c_approaches_one(self):
        value = radius_positivity(0.01, 1.0, 1.0)
        assert abs(value - (-0.01 + math.sqrt(1.0001))) <= 1e-15
        assert 0.99 < value < 1.0

    def test_c_two(self):
        value = radius_positivity(2.0, 1.0, 1.0)
        assert abs(value - (-2.0 + math.sqrt(5.0))) <= 1e-15

    def test_rejections(self):
        with pytest.raises(ParameterError):
            radius_positivity(1.0, 0.0, 2.0)
        with pytest.raises(ParameterError):
            radius_positivity(0.0, 0.5, 2.0)

    def test_factor_values(self):
        assert radius_factor(1.0, 0.5, 2.0, 0.0) == 1.0
        assert abs(radius_factor(1.0, 0.5, 2.0, math.sqrt(2.0) - 1.0)) <= 1e-12
        assert radius_factor(1.0, 0.5, 2.0, 0.5) == pytest.approx(-1.0 / 3.0)

    def test_factor_sign_matches_radius(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            c = rng.uniform(1e-3, 5.0)
            mu, k = rng.uniform(0.1, 0.9), rng.uniform(0.3, 4.0)
            lam = c * mu * k
            r_star = radius_positivity(lam, mu, k)
            assert radius_factor(lam, mu, k, max(0.0, r_star - 1e-6)) > 0.0
            assert radius_factor(lam, mu, k, min(1.0 - 1e-12, r_star + 1e-6)) < 0.0


class TestStarlike:
    def test_b_zero_is_constant_one(self):
        verdict = q_starlike_certificate(1.0, 0.0)
        assert verdict.passed
        assert verdict.margin == pytest.approx(1.0)

    @staticmethod
    def scalar_check_points():
        # The scalar draw loop the certificate ran before, as reference.
        rng = np.random.default_rng(20210)
        points = []
        for _ in range(20):
            r = float(rng.uniform(0.05, 0.9))
            psi = float(rng.uniform(0.0, 2.0 * math.pi))
            points.append((r, psi, r * cmath.exp(1j * psi)))
        return points

    def test_check_points_are_the_scalar_draws_of_seed_20210(self, monkeypatch):
        from struveops import bounds

        closed, direct = [], []
        monkeypatch.setattr(bounds, "re_zqprime_over_q",
                            lambda B, r, psi: closed.append((r, psi)) or re_zqprime_over_q(B, r, psi))
        quotient_rule = bounds._zqprime_over_q_direct
        monkeypatch.setattr(bounds, "_zqprime_over_q_direct",
                            lambda B, z: direct.append(z) or quotient_rule(B, z))
        assert q_starlike_certificate(0.5, -0.3).passed
        expected = self.scalar_check_points()
        _, (r, psi) = closed  # the grid, then the check points
        assert [repr(v) for v in r.tolist()] == [repr(p[0]) for p in expected]
        assert [repr(v) for v in psi.tolist()] == [repr(p[1]) for p in expected]
        assert [repr(z) for z in direct] == [repr(p[2]) for p in expected]

    @pytest.mark.parametrize("grid_r,grid_psi", [(50, 360), (80, 360), (10, 36), (7, 13), (1, 1)])
    def test_grid_margin_has_the_meshgrid_bits(self, grid_r, grid_psi):
        # cos and sin of the grid_psi angles broadcast against B r give the
        # bits of the (grid_r x grid_psi) meshgrid the grid was built on.
        rng = np.random.default_rng(grid_r * grid_psi)
        for B in (-0.99, -0.5, 0.0, 0.99, *rng.uniform(-0.99, 0.99, 6).tolist()):
            rs = np.linspace(0.99 / grid_r, 0.99, grid_r)
            psis = np.linspace(0.0, 2.0 * math.pi, grid_psi, endpoint=False)
            R, PSI = np.meshgrid(rs, psis, indexing="ij")
            br = B * R
            old = (1.0 - br * br) / ((1.0 + br * np.cos(PSI)) ** 2 + (br * np.sin(PSI)) ** 2)
            assert re_zqprime_over_q(B, rs[:, None], psis).tobytes() == old.tobytes()

    def test_margin_is_the_minimum_of_the_50_by_360_meshgrid(self):
        rs = np.linspace(0.99 / 50, 0.99, 50)
        psis = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        R, PSI = np.meshgrid(rs, psis, indexing="ij")
        for B in (-0.99, -0.5, 0.0, 0.99, *np.random.default_rng(18000).uniform(-0.99, 0.99, 6)):
            br = B * R
            old = (1.0 - br * br) / ((1.0 + br * np.cos(PSI)) ** 2 + (br * np.sin(PSI)) ** 2)
            verdict = q_starlike_certificate(1.0, float(B))
            assert repr(verdict.margin) == repr(float(old.min()))
            assert verdict.passed and verdict.samples_used == 50 * 360 + 20

    def test_first_inconsistent_check_point_is_the_witness(self, monkeypatch):
        from struveops import bounds

        points = [p[2] for p in self.scalar_check_points()]
        off = {points[7], points[12]}
        direct = bounds._zqprime_over_q_direct
        monkeypatch.setattr(bounds, "_zqprime_over_q_direct",
                            lambda B, z: direct(B, z) + (1e-9 if z in off else 0.0))
        verdict = q_starlike_certificate(0.5, -0.3)
        assert not verdict.passed and verdict.margin > 0.0
        assert repr(verdict.witness_z) == repr(points[7])

    def test_closed_form_spot_value(self):
        # B = -0.5, r = 0.8, psi = 0: (1 - 0.16)/(1 - 0.4)^2 = 0.84/0.36
        assert re_zqprime_over_q(-0.5, 0.8, 0.0) == pytest.approx(0.84 / 0.36)

    def test_strong_b_fine_grid(self):
        verdict = q_starlike_certificate(1.0, 0.99)
        assert verdict.passed
        assert verdict.margin > 0.0

    def test_closed_form_vs_independent_quotient_rule(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            B = rng.uniform(-0.95, 0.95)
            r = rng.uniform(0.05, 0.9)
            psi = rng.uniform(0.0, 2.0 * math.pi)
            z = r * cmath.exp(1j * psi)
            num, den = z, (1.0 + B * z) ** 2
            dnum, dden = 1.0, 2.0 * B * (1.0 + B * z)
            direct = (z * (dnum * den - num * dden) / den**2 / (num / den)).real
            assert abs(direct - re_zqprime_over_q(B, r, psi)) <= 1e-10


class TestReBounds:
    def test_b_zero(self):
        assert re_bounds(dominant(1.0, 0.0, 1.0)) == (0.5, 1.5)

    def test_log_closed_forms(self):
        lower, upper = re_bounds(dominant(0.5, 0.25, 1.0))
        # 2F1(1,1,2;x) = -ln(1-x)/x
        assert lower == pytest.approx(2.0 - 4.0 * math.log(4.0 / 3.0), abs=1e-10)
        assert upper == pytest.approx(2.0 - 4.0 * math.log(1.25), abs=1e-10)

    def test_lower_equals_h_minus1(self):
        dp = dominant(0.6, -0.4, 1.7)
        lower, _ = re_bounds(dp)
        assert abs(lower - _bound_integral(0.6, -0.4, 1.7, -1.0)) <= 1e-9

    def test_integral_representation_oracle(self):
        for A, B, beta in ((0.5, 0.25, 1.0), (0.9, -0.6, 0.7), (0.4, 0.1, 2.2)):
            lower, upper = re_bounds(dominant(A, B, beta))
            lo_int, _ = quad(
                lambda s: (1.0 - A * s ** (1.0 / beta)) / (1.0 - B * s ** (1.0 / beta)),
                0.0, 1.0, epsabs=1e-11,
            )
            up_int, _ = quad(
                lambda s: (1.0 + A * s ** (1.0 / beta)) / (1.0 + B * s ** (1.0 / beta)),
                0.0, 1.0, epsabs=1e-11,
            )
            assert abs(lower - lo_int) <= 1e-9
            assert abs(upper - up_int) <= 1e-9

    def test_half_plane_upper_is_unbounded(self):
        lower, upper = re_bounds(dominant(0.5, -1.0, 1.0))
        assert math.isinf(upper)
        assert lower == pytest.approx(-0.5 + 1.5 * math.log(2.0), abs=1e-10)

    def test_ordering_and_brackets_one(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            B = rng.uniform(-0.9, 0.9)
            A = rng.uniform(B + 0.05, min(1.0, B + 1.8))
            lower, upper = re_bounds(dominant(A, B, rng.uniform(0.2, 2.5)))
            assert lower < upper
            if A > 0 >= B and -A <= B:
                assert lower < 1.0 < upper


class TestModulusBounds:
    def test_r_zero_degenerates(self):
        assert modulus_bounds(dominant(0.5, 0.25, 1.0), 0.0) == (1.0, 1.0)

    def test_log_closed_forms(self):
        lower, upper = modulus_bounds(dominant(0.5, 0.25, 1.0), 0.5)
        f_plus = -math.log(1.0 - 0.125) / 0.125
        f_minus = -math.log(1.125) / -0.125
        assert lower == pytest.approx(2.0 - f_plus, abs=1e-10)
        assert upper == pytest.approx(2.0 - f_minus, abs=1e-10)

    def test_b_zero_carries_radius(self):
        lower, upper = modulus_bounds(dominant(1.0, 0.0, 1.0), 0.5)
        assert (lower, upper) == (0.75, 1.25)
        assert type(lower) is float and type(upper) is float

    def test_limit_matches_re_bounds(self):
        dp = dominant(1.0, 0.0, 1.0)
        lower, upper = modulus_bounds(dp, 1.0 - 1e-9)
        assert lower == pytest.approx(0.5, abs=1e-8)
        assert upper == pytest.approx(1.5, abs=1e-8)

    def test_monotone_nesting(self):
        dp = dominant(0.7, -0.45, 0.6)
        intervals = [modulus_bounds(dp, r) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        for (l1, u1), (l2, u2) in zip(intervals, intervals[1:]):
            assert l2 <= l1 and u1 <= u2
        lo_re, up_re = re_bounds(dp)
        for lo, up in intervals:
            assert lo_re <= lo <= up <= up_re

    def test_r_range_enforced(self):
        dp = dominant(0.5, 0.25, 1.0)
        assert modulus_bounds(dp, 1.0) == re_bounds(dp)
        for r in (-0.1, 1.0 + 1e-12, math.nan):
            with pytest.raises(ParameterError):
                modulus_bounds(dp, r)

    def test_half_plane_unbounded_only_at_r_one(self):
        dp = dominant(0.5, -1.0, 1.0)
        assert math.isinf(modulus_bounds(dp, 1.0)[1])
        assert re_bounds(dp)[1] == math.inf
        assert math.isfinite(modulus_bounds(dp, 0.9)[1])


def h_reference(A, B, beta, z):
    """Re h(z) at 40 digits, h = 1 + (A-B) z beta/(beta+1) 2F1(1, beta+1; beta+2; -Bz)."""
    with mpmath.workdps(40):
        A, B, beta, z = (mpmath.mpmathify(v) for v in (A, B, beta, z))
        h = 1 + (A - B) * z * beta / (beta + 1) * mpmath.hyp2f1(1, beta + 1, beta + 2, -B * z)
        return float(mpmath.re(h))


class TestBoundsNearTheHalfPlaneLimit:
    """The upper bound's 2F1 argument -Br tends to 1: the series summed
    100,000 terms there and raised ConvergenceError from r = 0.9999 on."""

    @pytest.mark.parametrize("r", [0.9999, 1.0 - 1e-6, 1.0 - 1e-8])
    @pytest.mark.parametrize("A,beta", [(1.0, 1.0), (0.5, 0.3), (-0.2, 2.5)])
    def test_modulus_bounds_at_b_minus_one(self, r, A, beta):
        for value, z in zip(modulus_bounds(dominant(A, -1.0, beta), r), (-r, r)):
            exact = h_reference(A, -1.0, beta, z)
            assert math.isfinite(value) and abs(value - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("A,beta", [(1.0, 1.0), (0.5, 0.3), (-0.2, 2.5)])
    def test_re_bounds_at_b_minus_0_999(self, A, beta):
        for value, z in zip(re_bounds(dominant(A, -0.999, beta)), (-1.0, 1.0)):
            exact = h_reference(A, -0.999, beta, z)
            assert math.isfinite(value) and abs(value - exact) <= 1e-12 * abs(exact)


class TestInclusionInterpolant:
    def test_interior_stays_interior(self):
        # The interpolation step behind the inclusion in the mixing weight:
        # (l1/l2) h1 + (1 - l1/l2) h2 stays inside a convex target.
        t = MobiusTarget(0.8, -0.3)
        h1 = complex(t.center + 0.2, 0.1)
        h2 = complex(t.center - 0.3, -0.2)
        sigma = 0.7 / 2.1
        assert mobius_image_check(t, sigma * h1 + (1.0 - sigma) * h2) > 0


class TestLambdaNegativeIdentity:
    def test_recovers_ratio_term_from_class_machinery(self):
        from struveops import ClassParams, PowerSeries, StruveParams, membership_samples

        lam = -2.5
        sp = StruveParams(0.5, 1.0, 1.0)
        f = PowerSeries((0, 1, 0.4, -0.3) + (0,) * 12)

        def expression(lam):
            # At alpha = 0 the sampled J is the expression itself.
            cp = ClassParams(alpha=0.0, lam=lam, mu=0.5, struve=sp,
                             target=MobiusTarget(1.0, -1.0))
            return membership_samples(cp, f, (abs(complex(0.3, 0.2)),), 12)[1]

        e2 = expression(lam)
        # e1 = the pure fractional-power term = expression at lambda = 0
        e1 = expression(0.0)
        # direct ratio term: lambda = -1 reduces the expression to it
        direct = expression(-1.0)
        # the rearrangement (1 + 1/lambda) e1 - (1/lambda) e2 recovers it
        value = (1.0 + 1.0 / lam) * e1 - (1.0 / lam) * e2
        assert np.abs(value - direct).max() <= 1e-12


def test_bound_report_schema():
    from struveops.suites import _bound_report

    dp = dominant(0.5, 0.25, 1.0)
    lower, upper = re_bounds(dp)
    record = _bound_report("re-bounds", dp, (lower, upper), 3e-14)
    assert record == {
        "theorem_id": "re-bounds",
        "params": {"A": 0.5, "B": 0.25, "beta": 1.0},
        "lower": lower,
        "upper": upper,
        "certificate_margin": 3e-14,
    }
    import json

    json.dumps(record)


def test_dominant_containment_in_target():
    rng = np.random.default_rng(67)
    for _ in range(5):
        B = rng.uniform(-0.95, 0.9)
        A = rng.uniform(B + 0.05, min(1.0, B + 2.0))
        dp = dominant(A, B, rng.uniform(0.3, 2.5))
        for r in (0.3, 0.95):
            for j in range(120):
                z = r * cmath.exp(2j * math.pi * j / 120)
                margin = mobius_image_check(dp.target, best_dominant_q(dp, z)[0])
                assert margin >= -1e-9


def test_run_dominant_evaluates_q_once_per_point_set(monkeypatch):
    # One call for the agreement points and one per containment circle.
    from struveops import suites

    calls = []

    def counted(dp, z, nodes=128):
        calls.append(np.shape(z))
        return best_dominant_q(dp, z, nodes)

    monkeypatch.setattr(suites, "best_dominant_q", counted)
    records = suites.run_dominant(seed=3, trials=4)
    assert len(records) == 8
    assert calls == [(50,), (240,), (240,), (240,), (240,)] * 4
