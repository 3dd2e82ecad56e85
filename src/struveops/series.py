"""Truncated complex power series: the substrate everything else acts on.

A series is a finite coefficient tuple ``c0..cN`` read as ``sum c_n z^n`` on
the unit disk.  Combining two series of different lengths truncates to the
shorter order; nothing is ever zero-extended, so any coefficient you read back
was actually computed.  All values are immutable and all operations are pure.

``ratio_sum`` is the one loop that sums an infinite series from its first term
and term ratio, with a bound on its own error; ``scaled`` applies a factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import ConvergenceError, DomainError, ParameterError, PoleError

#: Most terms ``ratio_sum`` adds before it gives up.
MAX_TERMS = 100_000
#: ``(value, est_error, terms)``: what every series evaluator returns.
Result = tuple[complex, float, int]


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients ``c0..cN`` of ``sum c_n z^n``, truncated at order ``N``.

    A series representing a normalized analytic function (the class of
    ``z + a2 z^2 + ...`` maps of the unit disk) additionally has ``c0 = 0``
    and ``c1 = 1``; that is checked by :meth:`is_normalized`, not forced here,
    because derived series (derivatives, residuals) legitimately break it.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not coeffs:
            raise ParameterError("a power series needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> complex:
        return self.coeffs[n]

    def is_normalized(self) -> bool:
        """True when the series is ``z + a2 z^2 + ...`` to within 1e-12."""
        if self.order < 1:
            return False
        return abs(self.coeffs[0]) <= 1e-12 and abs(self.coeffs[1] - 1.0) <= 1e-12

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "PowerSeries":
        """From JSON: one ``[re, im]`` pair per power of z, index = power."""
        return cls(tuple(complex(p[0], p[1]) for p in pairs))

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The function ``z`` padded with zeros up to ``order``."""
        return cls((0j, 1 + 0j) + (0j,) * (order - 1))


def hadamard(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Termwise coefficient product, truncated to the shorter order."""
    n = min(f.order, g.order)
    return PowerSeries(tuple(f.coeffs[i] * g.coeffs[i] for i in range(n + 1)))


def gamma_n(n: int) -> float:
    """Higham's rounding constant ``n u / (1 - n u)``, ``u`` the unit roundoff 2^-53."""
    nu = n * 2.0**-53
    return nu / (1.0 - nu)


def ratio_sum(first: complex, ratio: Callable[[int], complex], rho: float, tol: float,
              start: int = 0) -> Result:
    """Sum ``t_0 = first``, ``t_(n+1) = t_n * ratio(n)`` up to the first ``t_N``
    with ``|t_N| / (1 - rho) < tol``, ``N > start`` and ``|ratio(N - 1)| < 1``;
    ``rho < 1`` is the limit of ``|ratio(n)|``, and ``start`` an index past
    which ``|ratio(n)|`` no longer climbs above ``max(rho, |ratio(N - 1)|)``.

    Returns ``(sum, est_error, N + 1)``.  ``est_error`` is the rounding bound
    ``gamma_(8N) sum |t_n|`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §4.2) plus the tail bound ``|t_N| r / (1 - r)``, ``r`` the
    larger of ``rho`` and ``|ratio(N - 1)|`` (Johansson, ACM TOMS 45(3), 2019).
    A zero denominator in ``ratio`` raises PoleError and a non-finite term
    DomainError; ConvergenceError means MAX_TERMS terms did not reach ``tol``,
    or a nonzero bound not below ``|sum|``: no digit of the sum is right.
    """
    if not tol > 0.0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    gap = 1.0 - rho
    term = total = complex(first)
    size = abs(term)
    try:
        for n in range(MAX_TERMS):
            r = ratio(n)
            term *= r
            total += term
            mag = abs(term)
            size += mag
            if mag / gap < tol and n >= start and abs(r) < 1.0:
                break
            if not size < math.inf:  # an infinite or NaN term never stops the loop
                raise DomainError(f"series term {n + 1} is not finite: {term}")
        else:
            raise ConvergenceError(f"series did not reach tol={tol:g} within {MAX_TERMS} terms")
    except ZeroDivisionError:
        raise PoleError(f"zero denominator in the ratio of term {n + 1} to term {n}") from None
    last = max(abs(r), rho)
    est = gamma_n(8 * (n + 1)) * size + mag * last / (1.0 - last)
    if est and not est < abs(total):
        raise ConvergenceError(f"no correct digit: error bound {est:g} >= |sum| "
                               f"{abs(total):g} after {n + 2} terms")
    return total, est, n + 2


def scaled(factor: complex, rtol: float, result: Result) -> Result:
    """``factor`` times ``result``, adding the factor's own relative error
    ``rtol`` to the bound."""
    value, est, terms = result
    value = factor * value
    return value, abs(factor) * est + abs(value) * rtol, terms
