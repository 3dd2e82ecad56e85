"""Gauss-Jacobi rules on [0, 1], cached and immutable once built, and the
ladder of rules every quadrature in the package settles on."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, ParameterError

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
    exceed -1, and ``n`` must be at least 1; otherwise ParameterError.  A rule
    with a non-finite node or weight (beta above ~1,040) is a ConvergenceError.
    The returned arrays are shared across callers and read-only.
    """
    if n < 1:
        raise ParameterError(f"a Gauss-Jacobi rule needs n >= 1 nodes, got {n}")
    if not (alpha > -1.0 and beta > -1.0):
        raise ParameterError(
            f"Gauss-Jacobi exponents must exceed -1, got alpha={alpha}, beta={beta}"
        )
    from scipy.special import roots_jacobi  # on a cache miss only: a slow import

    with np.errstate(all="ignore"):
        try:
            x, w = roots_jacobi(n, alpha, beta)
        except ValueError:  # its eigensolver met the overflowed recurrence
            x = w = np.array([np.nan])
        t = 0.5 * (x + 1.0)
        w = w * 2.0 ** (-(alpha + beta + 1.0))
    if not np.isfinite([t, w]).all():
        raise ConvergenceError(f"Gauss-Jacobi rule n={n}, alpha={alpha}, beta={beta} is not finite")
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
    ``(value, gap, nodes used)`` over the points.
    """
    value = np.empty(size, dtype=complex)
    gap = np.empty(size)
    used = np.empty(size, dtype=int)
    live = np.arange(size)
    below = None
    for n in _ladder(nodes):
        t, w = jacobi_rule_01(n, alpha, beta)
        rung = (factor * np.vecdot(w, integrand(t, live))).reshape(live.shape)
        if below is not None:
            step = rung - below
            # hypot, as abs of a Python or numpy complex scalar rounds; abs of
            # a complex array differs from it in the last bit.
            step = np.hypot(step.real, step.imag)
            value[live], gap[live], used[live] = rung, step, n
            going = step > SETTLE_RTOL * np.maximum(1.0, abs(rung))
            live, rung = live[going], rung[going]
            if not live.size:
                break
        below = rung
    return value, gap, used
