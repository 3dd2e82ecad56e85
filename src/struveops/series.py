"""Truncated complex power series: the substrate everything else acts on.

A series is a finite coefficient tuple ``c0..cN`` read as ``sum c_n z^n`` on
the unit disk.  Combining two series of different lengths truncates to the
shorter order; nothing is ever zero-extended, so any coefficient you read back
was actually computed.  All values are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParameterError

#: Default truncation order.  Coefficients of the operator kernels decay
#: factorially, so 64 terms leave residuals far below 1e-12 for |z| <= 0.95.
DEFAULT_ORDER = 64


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

    def __len__(self) -> int:
        return len(self.coeffs)

    def is_normalized(self) -> bool:
        """True when the series is ``z + a2 z^2 + ...`` to within 1e-12."""
        if self.order < 1:
            return False
        return abs(self.coeffs[0]) <= 1e-12 and abs(self.coeffs[1] - 1.0) <= 1e-12

    def to_pairs(self) -> list[list[float]]:
        """JSON form: one ``[re, im]`` pair per power of z, index = power."""
        return [[c.real, c.imag] for c in self.coeffs]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "PowerSeries":
        """Inverse of :meth:`to_pairs`."""
        return cls(tuple(complex(p[0], p[1]) for p in pairs))

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "PowerSeries":
        """The function ``z`` padded with zeros up to ``order``."""
        return cls((0j, 1 + 0j) + (0j,) * (order - 1))


def hadamard(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Termwise coefficient product, truncated to the shorter order."""
    n = min(f.order, g.order)
    return PowerSeries(tuple(f.coeffs[i] * g.coeffs[i] for i in range(n + 1)))


def evaluate(f: PowerSeries, z: complex) -> complex:
    """Horner evaluation at ``z``; exact for polynomials of degree <= order.

    Arguments with ``|z| >= 1`` are not rejected, but the truncation error of
    a genuinely infinite series grows without bound there.
    """
    z = complex(z)
    acc = 0j
    for c in reversed(f.coeffs):
        acc = acc * z + c
    return acc
