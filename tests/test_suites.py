"""The suites draw each trial's randomness in one Generator call.

Each test keeps the scalar draw loop the suite used before as its reference,
and checks that the array draw returns the same doubles (compared by
``repr``, so signed zeros count) and leaves the generator in the same state.
"""

import numpy as np
import pytest

from struveops import ConvergenceError, StruveParams
from struveops.specialfn import is_nonpositive_integer
from struveops.suites import (
    _bound_integral,
    _random_complexes,
    _random_hypergeom_case,
    _random_normalized_series,
    _random_struve_params,
    _rng,
)

SEEDS = range(60)


def scalar_complex(rng, scale=2.0):
    re, im = rng.uniform(-scale, scale, size=2)
    return complex(re, im)


def scalar_normalized_series(rng, order):
    coeffs = [0j, 1 + 0j]
    for _ in range(order - 1):
        coeffs.append(scalar_complex(rng, 1.0))
    return coeffs


def scalar_struve_params(rng):
    """The rejection loop with one scalar draw per parameter; also returns
    how many rounds it took."""
    rounds = 0
    while True:
        rounds += 1
        p = scalar_complex(rng)
        b = scalar_complex(rng)
        c = scalar_complex(rng)
        k = p + (b + 2.0) / 2.0
        if k.real <= 0.5 and abs(k.imag) < 0.15:
            nearest = round(min(k.real, 0.0))
            if abs(k - nearest) < 0.15:
                continue
        if is_nonpositive_integer(k):
            continue
        return StruveParams(p, b, c), rounds


def reprs(values):
    return [repr(complex(v)) for v in values]


def assert_same_state(rng, reference):
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("order", [1, 2, 7, 32])
def test_normalized_series_has_the_scalar_draws(order):
    for seed in SEEDS:
        rng, ref = _rng(seed, 2, order), _rng(seed, 2, order)
        series = _random_normalized_series(rng, order)
        assert reprs(series.coeffs) == reprs(scalar_normalized_series(ref, order))
        assert_same_state(rng, ref)


@pytest.mark.parametrize("scale", [0.7, 1.0, 1.5, 2.0])
def test_one_draw_of_n_complexes_is_n_scalar_draws(scale):
    for seed in SEEDS:
        rng, ref = _rng(seed, 5), _rng(seed, 5)
        assert reprs(_random_complexes(rng, 9, scale)) == reprs(
            scalar_complex(ref, scale) for _ in range(9))
        assert_same_state(rng, ref)


def test_struve_params_have_the_scalar_draws_rejections_included():
    rejected = 0
    for seed in range(2000):  # about 1 in 100 draws is rejected
        rng, ref = _rng(seed, 1, 3), _rng(seed, 1, 3)
        params = _random_struve_params(rng)
        expected, rounds = scalar_struve_params(ref)
        rejected += rounds - 1
        assert reprs((params.p, params.b, params.c)) == reprs(
            (expected.p, expected.b, expected.c))
        assert_same_state(rng, ref)
    assert rejected >= 10  # the rejection rounds were exercised


def test_hypergeom_case_has_the_scalar_draws():
    for seed in SEEDS:
        rng, ref = _rng(seed, 1, 0), _rng(seed, 1, 0)
        hp, z = _random_hypergeom_case(rng)
        a = scalar_complex(ref, 1.5)
        b = complex(ref.uniform(0.4, 2.2))
        c = b + complex(ref.uniform(0.4, 2.2))
        while True:
            w = scalar_complex(ref, 0.7)
            if abs(w) <= 0.7 and w.real < 0.35:
                break
        assert reprs((hp.a, hp.b, hp.c, z)) == reprs((a, b, c, w))
        assert_same_state(rng, ref)


def test_bound_oracle_matches_mpmath():
    # The re-bounds suite's domain: |B| <= 0.85, B < A <= 1, 1/4 <= beta <= 2.
    import mpmath

    rng = np.random.default_rng(1974)
    with mpmath.workdps(40):
        for _ in range(40):
            B = float(rng.uniform(-0.85, 0.85))
            A, beta = float(rng.uniform(B, 1.0)), float(rng.uniform(0.25, 2.0))
            for sign in (-1.0, 1.0):
                exact = mpmath.mpf(A) / B + (1 - mpmath.mpf(A) / B) * mpmath.hyp2f1(
                    1, beta, beta + 1, -sign * B)
                assert abs(_bound_integral(A, B, beta, sign) - exact) <= 1e-15 * abs(exact)


def test_unsettled_bound_oracle_is_convergence_error():
    # A pole at t = 1/2 inside the interval: no two levels ever agree.
    with pytest.raises(ConvergenceError, match="tanh-sinh rule .* did not settle"):
        _bound_integral(0.5, -2.0, 0.7, 1.0)


def test_hypergeom_suite_builds_each_rung_once(monkeypatch):
    # The 50 Euler integrals settle together: one batched rule build per rung
    # reached, for the cases still live there, not one per trial.
    from struveops import quadrature
    from struveops.suites import run_hypergeom

    builds = []
    jacobi_rules = quadrature.jacobi_rules

    def counted(n, alpha, beta):
        builds.append((n, len(alpha)))
        return jacobi_rules(n, alpha, beta)

    monkeypatch.setattr(quadrature, "jacobi_rules", counted)
    records = run_hypergeom(seed=1)
    assert all(r["passed"] for r in records)
    assert builds[:2] == [(16, 50), (32, 50)]
    assert [n for n, _ in builds] == quadrature._ladder(128)[:len(builds)]


@pytest.mark.parametrize("suite", ["dominant", "modulus-bounds", "re-bounds"])
def test_suite_evaluates_h_once_per_trial(suite, monkeypatch):
    # The 50 agreement points of a dominant trial, the 8 radii (16 ends) of a
    # modulus-bounds trial and the two ends of a re-bounds trial go to the
    # closed form as one array.
    from struveops import bounds
    from struveops.suites import SUITES

    calls = []
    closed_form = bounds._closed_form

    def counted(dp, z, tol=1e-13):
        calls.append(np.shape(z))
        return closed_form(dp, z, tol)

    monkeypatch.setattr(bounds, "_closed_form", counted)
    records = SUITES[suite](seed=1)
    assert all(r["passed"] for r in records)
    assert calls == [{"dominant": (50,), "modulus-bounds": (16,), "re-bounds": (2,)}[suite]] * 10
