"""Gauss-Jacobi rules on [0, 1], cached and immutable once built, and the
ladder of rules every quadrature in the package settles on."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, ParameterError
from .series import gamma_n

#: Rules kept, least recently used evicted first.  The exponents are
#: continuous parameters, so across unrelated calls a key seldom recurs; the
#: cache serves the repeats inside one computation (a verify suite builds at
#: most four rungs per exponent pair, so at most 200 rules for the 50 Euler
#: integrals of ``hypergeom``, and ``dominant`` reuses each of its rules
#: hundreds of times).  Unbounded, it would grow with every distinct exponent
#: a long-lived process sees, and a call would cost 10x less when some
#: earlier call happened to use the same exponent.
RULE_CACHE_SIZE = 256


@lru_cache(maxsize=RULE_CACHE_SIZE)
def jacobi_rule_01(n: int, alpha: float, beta: float):
    """Nodes/weights with ``sum w_i f(t_i) ~ int_0^1 t^beta (1-t)^alpha f(t) dt``.

    ``alpha`` and ``beta`` are the endpoint exponents at t=1 and t=0; both must
    exceed -1, and ``n`` must be at least 1; otherwise ParameterError.  The
    nodes are the eigenvalues of the Jacobi matrix and the weights the squared
    first components of its eigenvectors (Golub & Welsch, Math. Comp. 23,
    1969), scaled to sum to the exact moment B(alpha+1, beta+1).  A rule with
    a non-finite node or weight, or a moment below ``n`` times the smallest
    normal double (beta above ~1e305 at alpha = 0), is a ConvergenceError.
    The returned arrays are shared across callers and read-only.
    """
    if n < 1:
        raise ParameterError(f"a Gauss-Jacobi rule needs n >= 1 nodes, got {n}")
    if not (alpha > -1.0 and beta > -1.0):
        raise ParameterError(
            f"Gauss-Jacobi exponents must exceed -1, got alpha={alpha}, beta={beta}"
        )
    # The recurrence r_k p_(k+1) = (t - a_k) p_k - r_(k-1) p_(k-1) of the
    # orthonormal polynomials of the Jacobi weight (1-x)^alpha (1+x)^beta on
    # [-1, 1], moved to t = (1+x)/2, and written as products of ratios so that
    # no beta^2 overflows.  The general r_0^2 divides by s - 1 = 1 + alpha + beta,
    # which is 0 when 2 + alpha + beta rounds to 1, so k = 1 takes its closed
    # form and the general one starts at k = 2.
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
    # r_k^2 underflows to 0 above beta ~ 1e154, where every node is 1.0: the
    # smallest normal keeps the division below finite.
    r = np.sqrt(np.maximum(off, np.finfo(float).tiny))
    jacobi = np.diag(a)
    jacobi[range(1, n), range(n - 1)] = r  # eigvalsh reads the lower triangle only
    t = np.linalg.eigvalsh(jacobi)
    # The eigenvector of node t_i is (p_0, ..., p_(n-1))(t_i), so its first
    # component squared is 1 / sum_k p_k(t_i)^2.  np.linalg.eigh finds
    # eigenvectors above 25 nodes by divide and conquer, whose BLAS calls wake
    # OpenBLAS threads that stall an op whenever the other CPU is busy.
    p = np.ones((n, n))
    if n > 1:
        # In place on views of the rows of p: a numpy call here costs more
        # than its arithmetic.
        rows, steps = list(p), list((t - a[:-1, None]) / r[:, None])
        rows[1][:] = steps[0]
        for j, shrink in enumerate((r[:-1] / r[1:]).tolist(), 1):
            np.multiply(steps[j], rows[j], out=rows[j + 1])
            rows[j + 1] -= shrink * rows[j - 1]
    w = 1.0 / np.einsum("ki,ki->i", p, p)
    if alpha == 0.0:
        moment = 1.0 / (beta + 1.0)
    else:
        moment = math.exp(math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0)
                          - math.lgamma(alpha + beta + 2.0))
    w *= moment / w.sum()
    # Below n times the smallest normal double, weights rounded to subnormals
    # could move their sum by more than a unit roundoff.
    if not (np.isfinite([t, w]).all() and moment >= n * np.finfo(float).tiny):
        raise ConvergenceError(f"Gauss-Jacobi rule n={n}, alpha={alpha}, beta={beta} "
                               f"is not representable in double precision")
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
           alpha: float, beta: float, factor: float = 1.0
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``factor * int_0^1 t^beta (1-t)^alpha integrand(t) dt`` for ``size``
    points, each settled on the ladder of rules up to ``nodes`` (see
    :func:`_ladder`).

    ``integrand(t, live)`` returns the (points x nodes) array of the integrand
    at the nodes ``t`` for the point indices ``live``, or a (nodes,) array for
    a single integral.  Each rung's rule is reduced with ``np.vecdot``, which
    sums each row exactly as ``np.dot(w, row)`` does (``M @ w`` and ``einsum``
    do not, in the last bit), and compared with the rung below.  A point stops
    at the first rung where that gap is at most ``SETTLE_RTOL`` of
    ``max(1, |value|)``, so its bits do not depend on the other points; a
    point that reaches ``nodes`` keeps the last rung.  Returns the arrays
    ``(value, error, nodes used)`` over the points, where ``error`` is that
    gap plus the rounding bound ``gamma_n * |factor| * sum |w_i f_i|`` of
    the n-node rule, which a gap of 0 between exact rules leaves out.
    """
    value = np.empty(size, dtype=complex)
    gap = np.empty(size)
    used = np.empty(size, dtype=int)
    live = np.arange(size)
    below = None
    for n in _ladder(nodes):
        t, w = jacobi_rule_01(n, alpha, beta)
        f = integrand(t, live)
        rung = (factor * np.vecdot(w, f)).reshape(live.shape)
        if below is not None:
            step = rung - below
            # hypot, as abs of a Python or numpy complex scalar rounds; abs of
            # a complex array differs from it in the last bit.
            step = np.hypot(step.real, step.imag)
            rounding = gamma_n(n) * abs(factor) * np.vecdot(w, np.abs(f)).reshape(live.shape)
            value[live], gap[live], used[live] = rung, step + rounding, n
            going = step > SETTLE_RTOL * np.maximum(1.0, abs(rung))
            live, rung = live[going], rung[going]
            if not live.size:
                break
        below = rung
    return value, gap, used
