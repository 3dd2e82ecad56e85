"""Gauss-Jacobi rules on [0, 1], cached and immutable once built."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ParameterError

#: Rules kept, least recently used evicted first.  The exponents are
#: continuous parameters, so across unrelated calls a key seldom recurs; the
#: cache serves the repeats inside one computation (a verify suite needs at
#: most 90 rules and reuses each hundreds of times).  Unbounded, it would grow
#: with every distinct exponent a long-lived process sees, and a call would
#: cost 10x less when some earlier call happened to use the same exponent.
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
