import re

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
    lower_bound_h_minus1,
)
from struveops.quadrature import RULE_CACHE_SIZE, jacobi_rule_01


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
    tiny = DominantParams(1e-300, MobiusTarget(1.0, 0.0))  # beta - 1 rounds to -1
    with pytest.raises(ParameterError):
        best_dominant_q(DominantParams(1.0, MobiusTarget(1.0, 0.0)), 0.5, nodes=0)
    with pytest.raises(ParameterError):
        best_dominant_q(tiny, 0.5)
    with pytest.raises(ParameterError):
        lower_bound_h_minus1(tiny)
    with pytest.raises(ParameterError):
        f21_euler(HypergeomParams(1.0, 1e-300, 2.0), 0.5)


@pytest.mark.parametrize("beta", [1099.0, 1e5, 1e300])
def test_rules_beyond_double_precision_are_convergence_errors(empty_cache, beta):
    # scipy's weights overflow (inf or NaN) or its eigensolver raises ValueError.
    with pytest.raises(ConvergenceError, match=re.escape(f"n=128, alpha=0.0, beta={beta}")):
        jacobi_rule_01(128, 0.0, beta)


def test_large_exponent_reaches_callers_as_convergence_error(empty_cache):
    dp = DominantParams(1100.0, MobiusTarget(1.0, 0.0))
    with pytest.raises(ConvergenceError):
        best_dominant_q(dp, 0.5)  # returned NaN
    with pytest.raises(ConvergenceError):
        lower_bound_h_minus1(dp)
    t, w = jacobi_rule_01(128, 0.0, 999.0)  # still representable
    assert abs(w.sum() - 1e-3) < 1e-15
