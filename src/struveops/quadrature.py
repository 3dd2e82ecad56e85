"""Gauss-Jacobi rules on [0, 1], cached and immutable once built, and the
ladder of rules every quadrature in the package settles on."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, ParameterError
from .series import gamma_n

#: Rules kept, least recently used evicted first.  The exponents are
#: continuous parameters, so across unrelated calls a key seldom recurs; the
#: cache serves the repeats inside one computation (``dominant`` reuses each
#: of its rules hundreds of times; batches of exponent pairs, such as the Euler
#: integrals of ``hypergeom``, bypass it).  Unbounded, it would grow with every
#: distinct exponent a long-lived process sees, and a call would cost 10x less
#: when some earlier call happened to use the same exponent.
RULE_CACHE_SIZE = 256
_TINY = np.finfo(float).tiny  # the smallest normal double


@lru_cache(maxsize=RULE_CACHE_SIZE)
def jacobi_rule_01(n: int, alpha: float, beta: float):
    """The rule of :func:`jacobi_rules` for one exponent pair, as (n,) arrays
    of nodes and weights, cached: they are shared across callers."""
    t, w = jacobi_rules(n, (alpha,), (beta,))
    return t[0], w[0]


def jacobi_rules(n: int, alpha: Sequence[float] | np.ndarray, beta: Sequence[float] | np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (pairs x n) arrays of nodes and weights, where row i has
    ``sum w_i f(t_i) ~ int_0^1 t^beta[i] (1-t)^alpha[i] f(t) dt``.

    ``alpha`` and ``beta`` are the endpoint exponents at t=1 and t=0; both must
    exceed -1, and ``n`` must be at least 1; otherwise ParameterError.  The
    nodes are the eigenvalues of the Jacobi matrix and the weights the squared
    first components of its eigenvectors (Golub & Welsch, Math. Comp. 23,
    1969), scaled to sum to the exact moment B(alpha+1, beta+1).  A rule with
    a non-finite node or weight, or a moment below ``n`` times the smallest
    normal double (beta above ~1e305 at alpha = 0), is a ConvergenceError.
    Each error names the first offending pair in input order.  The recurrence
    steps once for all the pairs, and each row has the bits of its pair alone.
    """
    if n < 1:
        raise ParameterError(f"a Gauss-Jacobi rule needs n >= 1 nodes, got {n}")
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    pairs = list(zip(alpha.tolist(), beta.tolist()))
    for i, (al, be) in enumerate(pairs):
        if not (al > -1.0 and be > -1.0):
            jacobi_rules(n, alpha[:i], beta[:i])  # an earlier pair's error comes first
            raise ParameterError(f"Gauss-Jacobi exponents must exceed -1, got alpha={al}, beta={be}")
    moment = np.array([1.0 / (be + 1.0) if al == 0.0 else math.exp(math.lgamma(al + 1.0)
                       + math.lgamma(be + 1.0) - math.lgamma(al + be + 2.0)) for al, be in pairs])
    # The recurrence r_k p_(k+1) = (t - a_k) p_k - r_(k-1) p_(k-1) of the
    # orthonormal polynomials of the Jacobi weight (1-x)^alpha (1+x)^beta on
    # [-1, 1], moved to t = (1+x)/2, and written as products of ratios so that
    # no beta^2 overflows.  The general r_0^2 divides by s - 1 = 1 + alpha + beta,
    # which is 0 when 2 + alpha + beta rounds to 1, so k = 1 takes its closed
    # form and the general one starts at k = 2.  A lone pair stays in Python
    # floats, which numpy broadcasts faster than a (1, 1) column.
    al, be = pairs[0] if len(pairs) == 1 else (alpha[:, None], beta[:, None])
    k = np.arange(1.0, n)
    s = 2.0 * k + al + be
    diag = np.empty((len(pairs), n))
    diag[:, :1] = (be - al) / (al + be + 2.0)
    diag[:, 1:] = (be - al) / s * ((be + al) / (s + 2.0))
    off = np.empty((len(pairs), n - 1))
    off[:, :1] = (1.0 + al) / (2.0 + al + be) * ((1.0 + be) / (2.0 + al + be)) / (3.0 + al + be)
    k, s = k[1:], s[..., 1:]
    off[:, 1:] = k / s * ((k + al) / s) * ((k + be) / (s + 1.0)) * ((k + al + be) / (s - 1.0))
    a = 0.5 * (1.0 + diag)
    # r_k^2 underflows to 0 above beta ~ 1e154, where every node is 1.0: the
    # smallest normal keeps the division below finite.
    r = np.sqrt(np.maximum(off, _TINY))
    jacobi = np.zeros((len(pairs), n * n))
    jacobi[:, ::n + 1] = a
    jacobi[:, n::n + 1] = r  # eigvalsh reads the lower triangle only
    t = np.linalg.eigvalsh(jacobi.reshape(len(pairs), n, n))
    # The eigenvector of node t_i is (p_0, ..., p_(n-1))(t_i), so its first
    # component squared is 1 / sum_k p_k(t_i)^2.  np.linalg.eigh finds
    # eigenvectors above 25 nodes by divide and conquer, whose BLAS calls wake
    # OpenBLAS threads that stall an op whenever the other CPU is busy.
    # p takes over the buffer of the matrix, which eigvalsh has copied from.
    # Row k + 1 starts as (t - a_k) / r_k and is completed in place on views
    # of the rows of p: a numpy call here costs more than its arithmetic.
    p = jacobi.reshape(n, len(pairs), n)
    p[0] = 1.0
    np.subtract(t, a[:, :-1].T[:, :, None], out=p[1:])
    p[1:] /= r.T[:, :, None]
    shrinks = r[:, :-1] / r[:, 1:]
    rows = list(p)
    for j, shrink in enumerate(shrinks[0].tolist() if len(pairs) == 1 else shrinks.T[:, :, None], 1):
        rows[j + 1] *= rows[j]
        rows[j + 1] -= shrink * rows[j - 1]
    p = p.reshape(n, t.size)
    w = (1.0 / np.einsum("ki,ki->i", p, p)).reshape(t.shape)
    w *= (moment / w.sum(axis=1))[:, None]
    # Below n times the smallest normal double, weights rounded to subnormals
    # could move their sum by more than a unit roundoff.
    ok = np.isfinite(t).all(axis=1) & np.isfinite(w).all(axis=1) & (moment >= n * _TINY)
    if not ok.all():
        raise ConvergenceError("Gauss-Jacobi rule n={}, alpha={}, beta={} is not representable "
                               "in double precision".format(n, *pairs[np.argmin(ok)]))
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


#: A point settles at the first rung whose gap to the rung below is at most
#: ``SETTLE_RTOL * max(1, |value|)``.
SETTLE_RTOL = 1e-13
#: Smallest rung a ladder of 32 nodes or more starts from.
_LOWEST_RUNG = 16


def _ladder(nodes: int) -> list[int]:
    """Rule sizes up to ``nodes``: ``nodes`` halved (rounding down) to the
    smallest size >= 16, so 128 gives 16, 32, 64, 128 and 192 gives 24, 48,
    96, 192; below 32 nodes, just ``nodes // 2`` and ``nodes``."""
    if nodes < 2:
        raise ParameterError(f"a settled quadrature compares nodes with nodes // 2, "
                             f"so it needs nodes >= 2, got {nodes}")
    rungs = [nodes, nodes // 2]
    while rungs[-1] // 2 >= _LOWEST_RUNG:
        rungs.append(rungs[-1] // 2)
    return rungs[::-1]


def settle(integrand: Callable[[np.ndarray, np.ndarray], np.ndarray], size: int, nodes: int,
           alpha: float | np.ndarray, beta: float | np.ndarray, factor: float | np.ndarray = 1.0
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``factor * int_0^1 t^beta (1-t)^alpha integrand(t) dt`` for ``size``
    points, each settled on the ladder of rules up to ``nodes`` (see
    :func:`_ladder`).

    ``integrand(t, live)`` returns the (points x nodes) array of the integrand
    at the nodes ``t`` for the point indices ``live``, or a (nodes,) array for
    a single integral.  ``alpha``, ``beta`` and ``factor`` may be arrays with
    one entry per point: each rung then builds the live points' rules in one
    uncached :func:`jacobi_rules` call, and ``t`` is (live points x nodes).
    Each rung's rule is reduced with ``np.vecdot``, which
    sums each row exactly as ``np.dot(w, row)`` does (``M @ w`` and ``einsum``
    do not, in the last bit), and compared with the rung below.  A point stops
    at the first rung where that gap is at most ``SETTLE_RTOL`` of
    ``max(1, |value|)``, so its bits do not depend on the other points; a
    point that reaches ``nodes`` keeps the last rung.  Returns the arrays
    ``(value, error, nodes used)`` over the points, where ``error`` is that
    gap plus the rounding bound ``gamma_n * |factor| * sum |w_i f_i|`` of
    the n-node rule, which a gap of 0 between exact rules leaves out.
    """
    per_point = np.ndim(alpha) > 0
    if per_point:
        alpha, beta, factor = np.broadcast_arrays(alpha, beta, factor)
    value = np.empty(size, dtype=complex)
    gap = np.empty(size)
    used = np.empty(size, dtype=int)
    live = np.arange(size)
    below = None
    for n in _ladder(nodes):
        (t, w), scale = ((jacobi_rules(n, alpha[live], beta[live]), factor[live]) if per_point
                         else (jacobi_rule_01(n, alpha, beta), factor))
        f = integrand(t, live)
        rung = (scale * np.vecdot(w, f)).reshape(live.shape)
        if below is not None:
            step = rung - below
            # hypot, as abs of a Python or numpy complex scalar rounds; abs of
            # a complex array differs from it in the last bit.
            step = np.hypot(step.real, step.imag)
            rounding = gamma_n(n) * abs(scale) * np.vecdot(w, np.abs(f)).reshape(live.shape)
            value[live], gap[live], used[live] = rung, step + rounding, n
            going = step > SETTLE_RTOL * np.maximum(1.0, abs(rung))
            live, rung = live[going], rung[going]
            if not live.size:
                break
        below = rung
    return value, gap, used
