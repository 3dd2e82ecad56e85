"""Gamma and the Struve function family.

The Struve functions H_p and L_p are the generalized family at
``(b, c) = (1, +-1)`` and the normalized kernel N is that family rescaled
(see ``normalized_n_series``), so all four are one kernel sum
``sum x^n / ((3/2)_n (k)_n)`` by ``series.ratio_sum`` and return
``(value, est_error, terms)``; no large gamma value is ever formed.
Fractional powers use the principal branch throughout,
``w**e = exp(e Log w)`` with Log the principal logarithm; arguments are kept
off the negative real axis by the callers that care.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, ParameterError, PoleError
from .series import PowerSeries, Result, gamma_n, ratio_sum, scaled

# 15-term Lanczos coefficient set (g = 607/128) for the right half-plane.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

#: Relative error of ``gamma`` away from its poles.
GAMMA_RTOL = 1e-13
#: Euler's constant, ``-psi(1)``.
EULER_GAMMA = 0.5772156649015329
#: Terms of the eta series that Borwein's algorithm weights: its truncation
#: error is below 3 (3 + sqrt 8)^-24 / (1 - 2^(1-s)) < 1e-18 for s >= 2.
_BORWEIN_TERMS = 24


def is_nonpositive_integer(z: complex) -> bool:
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def cpow(w: complex, e: complex) -> complex:
    """Principal-branch power ``w**e = exp(e Log w)``; ``w`` must be nonzero."""
    w = complex(w)
    e = complex(e)
    if w == 0:
        raise PoleError("0 raised to a complex power has no principal value here")
    try:
        return cmath.exp(e * cmath.log(w))
    except OverflowError:
        raise DomainError(f"{w}**{e} overflows double precision") from None


def power_rtol(w: complex, e: complex) -> float:
    """Relative error bound of ``cpow(w, e)``: the roundings of ``w``, ``Log w``,
    ``e Log w`` and ``exp``, as ``exp(e Log w)`` amplifies them."""
    return gamma_n(4) * (1.0 + abs(e) + 2.0 * abs(e * cmath.log(w)))


def gamma(z: complex) -> complex:
    """Complex gamma via the 15-term Lanczos sum, reflection for Re z < 1/2.

    Relative error is ~1e-13 (GAMMA_RTOL) away from the poles.  Poles at the nonpositive
    integers raise PoleError and overflow raises DomainError, never infinities.
    """
    z = complex(z)
    if is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z.real:g}")
    if z.real < 0.5:
        # gamma(z) gamma(1-z) = pi / sin(pi z); sin overflows once |Im z| > ~225.
        # sin(pi z) = (-1)^n sin(pi (z - n)), n the nearest integer: z - n is exact.
        try:
            n = round(z.real)
            s = cmath.sin(math.pi * (z - n))
            return math.pi / ((-s if n % 2 else s) * gamma(1.0 - z))
        except OverflowError:
            raise DomainError(f"gamma overflows double precision at z = {z}") from None
    w = z - 1.0
    acc = complex(_LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    value = math.sqrt(2.0 * math.pi) * cpow(t, w + 0.5) * cmath.exp(-t) * acc
    if not cmath.isfinite(value):
        raise DomainError(f"gamma overflows double precision at z = {z}")
    return value


@lru_cache(maxsize=2)
def bernoulli_ratios(count: int) -> np.ndarray:
    """``B_j / j!`` for ``0 <= j < count``, the Taylor coefficients of
    ``s / (e^s - 1)``, as a read-only array built on first use.

    They are 1, -1/2, 0 at every odd j >= 3, and
    ``(-1)^(k+1) 2 zeta(2k) / (2 pi)^(2k)`` at j = 2k.  zeta(2k) is
    ``eta(2k) / (1 - 2^(1-2k))``, with the alternating series of eta weighted
    by Borwein's algorithm 2 (CMS Conf. Proc. 27, 2000); its weights are
    quotients of exact integers, rounded once.  Each ratio is within 64 units
    in the last place, most of them lost to the rounding of 2 pi raised to
    the power j.
    """
    n = _BORWEIN_TERMS
    d, acc = [], 0
    for i in range(n + 1):  # every term is an integer
        acc += (n * math.factorial(n + i - 1) * 4**i
                // (math.factorial(n - i) * math.factorial(2 * i)))
        d.append(acc)
    weights = np.array([(d[-1] - d_k) / d[-1] for d_k in d[:-1]])
    weights[1::2] *= -1.0
    s = np.arange(2.0, count, 2.0)
    zeta = np.arange(1.0, n + 1) ** -s[:, None] @ weights / (1.0 - 2.0 ** (1.0 - s))
    ratios = np.zeros(count)
    ratios[:2] = (1.0, -0.5)[:count]
    ratios[2::2] = 2.0 * zeta * (2.0 * math.pi) ** -s
    ratios[4::4] *= -1.0
    ratios.flags.writeable = False
    return ratios


@lru_cache(maxsize=1)
def _digamma_series() -> tuple[float, ...]:
    """``B_2k / (2k)`` for k = 8 down to 1, the asymptotic series of psi."""
    b = bernoulli_ratios(17)
    return tuple(float(b[2 * k]) * math.factorial(2 * k - 1) for k in range(8, 0, -1))


def digamma(a: float) -> tuple[float, float]:
    """``psi(a) = Gamma'(a) / Gamma(a)`` for real ``a > 0``, with a bound on
    its absolute error, as ``(psi, error)``.

    Below 10 the recurrence ``psi(a) = psi(a + m) - sum_(i<m) 1/(a + i)``
    lifts the argument to ``x = a + m >= 10``, where the asymptotic series
    ``ln x - 1/(2x) - sum_(k<=8) B_2k / (2k x^2k)`` (DLMF 5.11.2) leaves out
    less than 4e-18.  ``error`` bounds the rounding of both sums.
    """
    a = float(a)
    if not 0.0 < a < math.inf:  # NaN included
        raise ParameterError(f"digamma needs a finite a > 0, got {a}")
    m = max(0, math.ceil(10.0 - a))
    shift = math.fsum(1.0 / (a + i) for i in range(m))
    x = a + m
    s = 1.0 / (x * x)
    series = 0.0
    for c in _digamma_series():
        series = (series + c) * s
    log = math.log(x)
    return log - 0.5 / x - series - shift, gamma_n(m + 8) * (log + 1.0 + shift)


@dataclass(frozen=True)
class StruveParams:
    """Order/family parameters ``(p, b, c)`` with derived ``k = p + (b+2)/2``.

    ``k`` at a nonpositive integer makes every kernel coefficient beyond the
    pole meaningless, so such triples are rejected at construction.
    """

    p: complex
    b: complex
    c: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", complex(self.p))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))
        if not all(map(cmath.isfinite, (self.p, self.b, self.c))):
            raise ParameterError(
                f"Struve parameters must be finite, got p={self.p}, b={self.b}, c={self.c}"
            )
        if is_nonpositive_integer(self.k):
            raise ParameterError(
                f"k = p + (b+2)/2 = {self.k} is a nonpositive integer"
            )

    @property
    def k(self) -> complex:
        return self.p + (self.b + 2.0) / 2.0

    def shifted(self) -> "StruveParams":
        """Same family with ``p -> p + 1`` (hence ``k -> k + 1``)."""
        return StruveParams(self.p + 1, self.b, self.c)


def _growth(k: complex | np.ndarray, n: int | np.ndarray) -> complex | np.ndarray:
    """``(n + 1/2)(k + n - 1)``, ``n`` an int or an integer array and ``k`` a complex
    or a column of them: ``(3/2)_n (k)_n`` over its value at ``n - 1``.  The integer
    ``n - 1`` is formed first, so ``k`` is kept: it is 0 only at a pole of ``G(k)``,
    never for ``k`` within rounding of one."""
    return (n + 0.5) * (k + (n - 1))


def _kernel_sum(k: complex, x: complex, tol: float) -> Result:
    """``sum x^n / ((3/2)_n (k)_n)``, the series behind M and N."""
    return ratio_sum(1 + 0j, lambda n: x / _growth(k, n + 1), 0.0, tol)


def _m_sum(p: complex, k: complex, c: complex, z: complex, tol: float) -> Result:
    """``(z/2)^(p+1) / (G(3/2) G(k))`` times the kernel sum at ``x = -c (z/2)^2``."""
    if not cmath.isfinite(p):
        raise ParameterError(f"Struve order p must be finite, got p={p}")
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"Struve series needs a finite z, got {z}")
    if z == 0:
        return 0j, 0.0, 0
    w = z / 2.0
    factor = cpow(w, p + 1.0) / (gamma(1.5) * gamma(k))
    rtol = power_rtol(w, p + 1.0) + 2.0 * GAMMA_RTOL
    return scaled(factor, rtol, _kernel_sum(k, -c * w * w, tol))


def struve_h(p: complex, z: complex, tol: float = 1e-13) -> Result:
    """Struve function: ``sum (-1)^n (z/2)^(2n+p+1) / (G(n+3/2) G(p+n+3/2))``.

    The generalized family at ``(b, c) = (1, 1)``; a pole of ``G(p+3/2)``
    raises PoleError.  Returns ``(value, est_error, terms)``.
    """
    p = complex(p)
    return _m_sum(p, p + 1.5, 1 + 0j, z, tol)


def struve_l(p: complex, z: complex, tol: float = 1e-13) -> Result:
    """Modified Struve function: the generalized family at ``(b, c) = (1, -1)``."""
    p = complex(p)
    return _m_sum(p, p + 1.5, -1 + 0j, z, tol)


def generalized_m(params: StruveParams, z: complex, tol: float = 1e-13) -> Result:
    """Generalized family: ``sum (-1)^n c^n (z/2)^(2n+p+1) / (G(n+3/2) G(k+n))``."""
    return _m_sum(params.p, params.k, params.c, z, tol)


def normalized_n(params: StruveParams, z: complex, tol: float = 1e-13) -> Result:
    """``N(z) = sum A_n z^n`` (see ``normalized_n_series``): the kernel sum at
    ``x = -c z / 4``."""
    return _kernel_sum(params.k, -params.c * complex(z) / 4.0, tol)


def normalized_n_series(params: StruveParams, order: int = 64) -> PowerSeries:
    """Coefficients ``A_n = (-c/4)^n / ((3/2)_n (k)_n)``; constant term 1.

    This is the entire normalization of the generalized family:
    evaluated at z it equals
    ``2^p sqrt(pi) G(k) z^(-(p+1)/2) M(sqrt z)`` (principal branches).
    """
    return PowerSeries(kernel_rows([params], order)[0])


def kernel_rows(params: Sequence[StruveParams], order: int) -> np.ndarray:
    """``normalized_n_series``'s coefficients for each parameter set, one row
    per set: running products of the ratios ``(-c/4) / _growth(k, n)``, with
    each set's ``k`` and ``-c/4`` formed as for that set alone."""
    if order < 1:
        raise ParameterError("order must be >= 1")
    k = np.array([sp.k for sp in params], dtype=complex)[:, None]
    x = np.array([-sp.c / 4.0 for sp in params], dtype=complex)[:, None]
    rows = np.ones((len(params), order + 1), dtype=complex)
    rows[:, 1:] = x / _growth(k, np.arange(1, order + 1))
    return np.multiply.accumulate(rows, axis=1, out=rows)


def ode_residual_n(params: StruveParams | Sequence[StruveParams], order: int = 32
                   ) -> float | np.ndarray:
    """Max coefficientwise residual of the second-order ODE the normalized
    series satisfies:

        [4n(n-1) + 2(2p+b+3)n + (2p+b)] A_n + c A_{n-1} - (2p+b) [n=0]

    over ``n = 0 .. order-1``.  Zero (to rounding) certifies the coefficient
    recurrence.  Given a sequence of parameter sets, it returns an array of
    their residuals, each with the bits of its own call.
    """
    if isinstance(params, StruveParams):
        return float(ode_residual_n([params], order)[0])
    if order < 2:
        raise ParameterError("order must be >= 2")
    a = kernel_rows(params, order)
    two_p_b = [2.0 * sp.p + sp.b for sp in params]
    tpb, lin, c = (np.array(v, dtype=complex)[:, None] for v in
                   (two_p_b, [2.0 * (t + 3.0) for t in two_p_b], [sp.c for sp in params]))
    n = np.arange(order)
    r = (4.0 * n * (n - 1) + lin * n + tpb) * a[:, :-1]
    r[:, 1:] += c * a[:, :-2]
    r[:, 0] -= tpb[:, 0]
    return np.abs(r).max(axis=1)
