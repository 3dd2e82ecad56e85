import math

import numpy as np
import pytest

from struveops import (
    ConvergenceError,
    DominantParams,
    HypergeomParams,
    MobiusTarget,
    ParameterError,
    best_dominant_q,
    f21_euler,
    re_bounds,
)
from struveops.errors import NumericsError
from struveops.quadrature import RULE_CACHE_SIZE, _ladder, jacobi_rule_01, jacobi_rules, settle


@pytest.fixture
def empty_cache():
    jacobi_rule_01.cache_clear()
    yield
    jacobi_rule_01.cache_clear()


def test_rules_are_read_only_and_integrate_the_weight(empty_cache):
    t, w = jacobi_rule_01(32, 0.0, -0.5)
    assert not t.flags.writeable and not w.flags.writeable
    # int_0^1 t^(-1/2) dt = 2
    assert abs(w.sum() - 2.0) < 1e-13


def test_cache_is_bounded(empty_cache):
    for k in range(RULE_CACHE_SIZE + 40):
        jacobi_rule_01(8, 0.0, k / (RULE_CACHE_SIZE + 40))
    info = jacobi_rule_01.cache_info()
    assert info.maxsize == RULE_CACHE_SIZE
    assert info.currsize == RULE_CACHE_SIZE


def test_evicted_rule_is_rebuilt_identically(empty_cache):
    t0, w0 = (a.copy() for a in jacobi_rule_01(64, 0.0, 0.3))
    for k in range(RULE_CACHE_SIZE):
        jacobi_rule_01(8, 0.0, 0.5 + k / RULE_CACHE_SIZE)
    misses = jacobi_rule_01.cache_info().misses
    t1, w1 = jacobi_rule_01(64, 0.0, 0.3)
    assert jacobi_rule_01.cache_info().misses == misses + 1
    np.testing.assert_array_equal(t0, t1)
    np.testing.assert_array_equal(w0, w1)


def test_a_verify_suite_fits_in_the_cache(empty_cache):
    from struveops.suites import SUITES, run_suite

    for name in SUITES:
        run_suite(name, seed=1)
    info = jacobi_rule_01.cache_info()
    assert info.currsize < RULE_CACHE_SIZE
    assert info.misses == info.currsize


@pytest.mark.parametrize("n,alpha,beta", [
    (0, 0.0, 0.0), (-3, 0.0, 0.0),
    (8, -1.0, 0.0), (8, 0.0, -1.0), (8, float("nan"), 0.0),
])
def test_invalid_rules_are_parameter_errors(n, alpha, beta):
    with pytest.raises(ParameterError):
        jacobi_rule_01(n, alpha, beta)


def test_every_quadrature_caller_gets_the_check():
    # beta - 1 rounds to -1, so no rule exists for a valid beta: q names beta
    # in a ConvergenceError before it asks for one.
    tiny = DominantParams(1e-300, MobiusTarget(1.0, 0.0))
    with pytest.raises(ParameterError):
        best_dominant_q(DominantParams(1.0, MobiusTarget(1.0, 0.0)), 0.5, nodes=0)
    with pytest.raises(ConvergenceError, match="beta = 1e-300 is below 2"):
        best_dominant_q(tiny, 0.5)
    with pytest.raises(ParameterError):
        f21_euler(HypergeomParams(1.0, 1e-300, 2.0), 0.5)


@pytest.mark.parametrize("beta", [1000.0, 1099.0, 2000.0, 1e4, 1e5, 1e6])
def test_large_exponents_keep_q_within_its_error(empty_cache, beta):
    # Rules built from a recurrence with beta^2 in it overflowed above
    # beta ~ 1,040, and below that their weights missed the moment 1/beta by
    # 1e-12.  q must lie within its est_error of the B = 0 closed form
    # 1 + beta/(beta+1) A z, and of 40-digit mpmath for B != 0.
    import mpmath

    with mpmath.workdps(40):
        for A, B, z in ((1.0, 0.0, 0.5), (1.0, 0.5, 0.5), (0.3, -1.0, 0.9j)):
            q, est, _ = best_dominant_q(DominantParams(beta, MobiusTarget(A, B)), z)
            if B == 0.0:
                exact = 1 + mpmath.mpf(beta) / (beta + 1) * A * z
            else:
                exact = A / mpmath.mpf(B) + (1 - A / mpmath.mpf(B)) * mpmath.hyp2f1(
                    1, beta, beta + 1, -B * mpmath.mpmathify(z))
            assert abs(q - complex(exact)) <= est
        h = re_bounds(DominantParams(beta, MobiusTarget(0.5, 0.0)))[0]
        assert abs(h - float(1 - mpmath.mpf(beta) / (beta + 1) / 2)) <= 1e-15
    t, w = jacobi_rule_01(128, 0.0, beta - 1.0)
    assert abs(w.sum() - 1.0 / beta) <= 1e-15 / beta


@pytest.mark.parametrize("n", [16, 128])
def test_moment_below_the_normal_range_is_convergence_error(empty_cache, n):
    # Weights of about 1e-307 / n round to subnormals, which can move their
    # sum, and q, by several units roundoff beyond its est_error.
    with pytest.raises(ConvergenceError, match="not representable in double precision"):
        jacobi_rule_01(n, 0.0, 1e307)
    t, w = jacobi_rule_01(n, 0.0, 1e300)
    assert (t == 1.0).all() and abs(w.sum() - 1e-300) <= 1e-315


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 16, 32])
def test_exponents_summing_to_minus_one_warn_nothing(empty_cache, n):
    # At beta = 1e-16 - 1, 2 + alpha + beta rounds to 1: the general r_0^2
    # divided by s - 1 = 0 there and printed a RuntimeWarning before its
    # closed form replaced it.  eval q --beta 1e-16 builds these rules.
    t, w = jacobi_rule_01(n, 0.0, 1e-16 - 1.0)
    assert np.isfinite(t).all() and abs(w.sum() - 1.0 / (1e-16 - 1.0 + 1.0)) <= 1e-15 * w.sum()


@pytest.mark.parametrize("nodes,rungs", [
    (128, [16, 32, 64, 128]), (192, [24, 48, 96, 192]), (255, [31, 63, 127, 255]),
    (32, [16, 32]), (31, [15, 31]), (8, [4, 8]), (2, [1, 2]),
])
def test_ladder_halves_down_to_sixteen(nodes, rungs):
    assert _ladder(nodes) == rungs


def test_each_point_stops_at_its_own_rung():
    # t^0, t^20 and t^60 against the weight 1: a rule of n nodes integrates
    # degree 2n - 1, so they are exact from 16, 16 and 32 nodes and stop one
    # rung later, where the gap first reads 0 to rounding.
    powers = np.array([0, 20, 60])
    value, gap, used = settle(lambda t, live: t ** powers[live, None], 3, 128, 0.0, 0.0)
    assert used.tolist() == [32, 32, 64]
    assert np.allclose(value, 1.0 / (powers + 1), rtol=1e-12, atol=0.0)
    assert (gap <= 1e-13).all()
    assert (gap > 0.0).all()  # the rounding bound of the sum, though the gap reads 0
    # A point the ladder never settles keeps the cap and its gap there.
    value, gap, used = settle(lambda t, live: np.abs(t - 0.3), 1, 64, 0.0, 0.0)
    assert used.tolist() == [64] and gap[0] > 1e-6


def reference_rule(n, alpha, beta):
    """The one-pair Golub-Welsch build that batches replaced: a loop over the
    rows of p on 1-D arrays, reduced by einsum."""
    k = np.arange(1.0, n)
    s = 2.0 * k + alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (alpha + beta + 2.0)
    diag[1:] = (beta - alpha) / s * ((beta + alpha) / (s + 2.0))
    off = np.empty(n - 1)
    off[:1] = (1.0 + alpha) / (2.0 + alpha + beta) * ((1.0 + beta) / (2.0 + alpha + beta)) \
        / (3.0 + alpha + beta)
    k, s = k[1:], s[1:]
    off[1:] = k / s * ((k + alpha) / s) * ((k + beta) / (s + 1.0)) * ((k + alpha + beta) / (s - 1.0))
    a = 0.5 * (1.0 + diag)
    r = np.sqrt(np.maximum(off, np.finfo(float).tiny))
    jacobi = np.diag(a)
    jacobi[range(1, n), range(n - 1)] = r
    t = np.linalg.eigvalsh(jacobi)
    p = np.ones((n, n))
    if n > 1:
        p[1] = (t - a[0]) / r[0]
        for j in range(1, n - 1):
            p[j + 1] = (t - a[j]) / r[j] * p[j] - r[j - 1] / r[j] * p[j - 1]
    w = 1.0 / np.einsum("ki,ki->i", p, p)
    if alpha == 0.0:
        moment = 1.0 / (beta + 1.0)
    else:
        moment = math.exp(math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0)
                          - math.lgamma(alpha + beta + 2.0))
    return t, w * (moment / w.sum())


@pytest.mark.parametrize("n", [1, 2, 3, 16, 24, 32, 48, 64, 128, 192])
def test_batched_rows_have_the_bits_of_one_pair(empty_cache, n):
    rng = np.random.default_rng([22, n])
    for size in (1, 2, 7, 60):
        alpha = np.where(rng.uniform(size=size) < 0.3, 0.0, rng.uniform(-1.0, 3.0, size))
        beta = np.expm1(rng.uniform(np.log(0.01), np.log(1e6 + 1.0), size))
        beta[rng.integers(size)] = 1e-16 - 1.0
        t, w = jacobi_rules(n, alpha, beta)
        assert t.shape == w.shape == (size, n)
        assert not t.flags.writeable and not w.flags.writeable
        for i in range(size):
            for t1, w1 in (jacobi_rule_01(n, alpha[i], beta[i]),
                           reference_rule(n, alpha[i], beta[i])):
                np.testing.assert_array_equal(t[i], t1)
                np.testing.assert_array_equal(w[i], w1)


def test_empty_batch_has_no_rows():
    t, w = jacobi_rules(16, [], [])
    assert t.shape == w.shape == (0, 16)


def _raised(call):
    with pytest.raises(NumericsError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad", [(-1.0, 0.0), (0.5, -1.5), (float("nan"), 0.0), (0.0, 1e307)])
def test_first_invalid_pair_raises_the_scalar_error(empty_cache, bad):
    # A valid pair, the invalid one, then another invalid pair: the batch
    # raises what a scalar call on the first invalid pair raises.
    alpha, beta = zip((0.2, 0.3), bad, (-2.0, 1e308))
    expected = _raised(lambda: jacobi_rule_01.__wrapped__(16, *bad))
    assert _raised(lambda: jacobi_rules(16, alpha, beta)) == expected
    assert _raised(lambda: jacobi_rules(0, alpha, beta)) == _raised(
        lambda: jacobi_rule_01.__wrapped__(0, 0.2, 0.3))


def test_per_point_exponents_settle_as_one_pair_each(empty_cache):
    # Each point's value, gap and rung are those of a settle of it alone,
    # whose scalar exponents take the cached rules.
    rng = np.random.default_rng(7)
    alpha, beta = rng.uniform(-0.9, 2.0, 40), rng.uniform(-0.9, 2.0, 40)
    alpha[::5] = 0.0
    shift, factor = rng.uniform(-0.9, 0.9, 40), rng.uniform(0.5, 2.0, 40)
    batch = settle(lambda t, live: np.cos(40.0 * shift[live, None] * t), 40, 128,
                   alpha, beta, factor)
    for i in range(40):
        alone = settle(lambda t, live: np.cos(40.0 * shift[i] * t), 1, 128,
                       alpha[i], beta[i], factor[i])
        assert [v[i] for v in batch] == [v[0] for v in alone]
    assert set(batch[2]) == {32, 64, 128}
