"""Gamma and the Struve function family.

The Struve functions H_p and L_p are the generalized family at
``(b, c) = (1, +-1)``, so all three are summed by one series; the normalized
kernel series is that family rescaled (see ``normalized_n_series``).  Each
n-th term is obtained from the previous one by a rational ratio, so no large
gamma values are ever formed and overflow cannot occur even for hundreds of
terms.  Fractional powers use the principal branch throughout,
``w**e = exp(e Log w)`` with Log the principal logarithm; arguments are kept
off the negative real axis by the callers that care.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, ParameterError, PoleError
from .series import PowerSeries

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


def gamma(z: complex) -> complex:
    """Complex gamma via the 15-term Lanczos sum, reflection for Re z < 1/2.

    Relative error is ~1e-13 away from the poles.  Poles at the nonpositive
    integers raise PoleError and overflow raises DomainError, never infinities.
    """
    z = complex(z)
    if is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z.real:g}")
    if z.real < 0.5:
        # gamma(z) gamma(1-z) = pi / sin(pi z); sin overflows once |Im z| > ~225
        try:
            return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
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


def _m_series(p: complex, k: complex, c: complex, z: complex, terms: int) -> complex:
    """``sum (-1)^n c^n (z/2)^(2n+p+1) / (G(n+3/2) G(k+n))`` over ``terms`` terms."""
    if terms < 1:
        raise ParameterError("terms must be >= 1")
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"Struve series needs a finite z, got {z}")
    if z == 0:
        return 0j
    w = z / 2.0
    term = cpow(w, p + 1.0) / (gamma(1.5) * gamma(k))
    total = term
    ratio = -c * w * w
    for n in range(1, terms):
        denom = (n + 0.5) * (k + n - 1.0)
        if denom == 0:
            raise PoleError(f"gamma pole encountered at series index n = {n}")
        term *= ratio / denom
        total += term
    return total


def struve_h(p: complex, z: complex, terms: int = 64) -> complex:
    """Struve function: ``sum (-1)^n (z/2)^(2n+p+1) / (G(n+3/2) G(p+n+3/2))``.

    The generalized family at ``(b, c) = (1, 1)``; a pole of ``G(p+3/2)``
    raises PoleError.
    """
    p = complex(p)
    return _m_series(p, p + 1.5, 1 + 0j, z, terms)


def struve_l(p: complex, z: complex, terms: int = 64) -> complex:
    """Modified Struve function: the generalized family at ``(b, c) = (1, -1)``."""
    p = complex(p)
    return _m_series(p, p + 1.5, -1 + 0j, z, terms)


def generalized_m(params: StruveParams, z: complex, terms: int = 64) -> complex:
    """Generalized family: ``sum (-1)^n c^n (z/2)^(2n+p+1) / (G(n+3/2) G(k+n))``."""
    return _m_series(params.p, params.k, params.c, z, terms)


def normalized_n_series(params: StruveParams, order: int = 64) -> PowerSeries:
    """Coefficients ``A_n = (-c/4)^n / ((3/2)_n (k)_n)``; constant term 1.

    This is the entire normalization of the generalized family:
    evaluated at z it equals
    ``2^p sqrt(pi) G(k) z^(-(p+1)/2) M(sqrt z)`` (principal branches).
    """
    if order < 1:
        raise ParameterError("order must be >= 1")
    coeffs = [1 + 0j]
    a = 1 + 0j
    for n in range(1, order + 1):
        a *= (-params.c / 4.0) / ((n + 0.5) * (params.k + n - 1.0))
        coeffs.append(a)
    return PowerSeries(tuple(coeffs))


def ode_residual_n(params: StruveParams, order: int = 32) -> float:
    """Max coefficientwise residual of the second-order ODE the normalized
    series satisfies:

        [4n(n-1) + 2(2p+b+3)n + (2p+b)] A_n + c A_{n-1} - (2p+b) [n=0]

    over ``n = 0 .. order-1``.  Zero (to rounding) certifies the coefficient
    recurrence.
    """
    if order < 2:
        raise ParameterError("order must be >= 2")
    a = normalized_n_series(params, order).coeffs
    two_p_b = 2.0 * params.p + params.b
    worst = 0.0
    for n in range(order):
        r = (4.0 * n * (n - 1) + 2.0 * (two_p_b + 3.0) * n + two_p_b) * a[n]
        if n >= 1:
            r += params.c * a[n - 1]
        else:
            r -= two_p_b
        worst = max(worst, abs(r))
    return worst
