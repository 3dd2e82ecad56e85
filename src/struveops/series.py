"""Truncated complex power series: the substrate everything else acts on.

A series is a read-only complex array ``c0..cN`` read as ``sum c_n z^n`` on
the unit disk.  Combining two series of different lengths truncates to the
shorter order; nothing is ever zero-extended, so any coefficient you read back
was actually computed.  All values are immutable and all operations are pure.

``ratio_sum`` is the one loop that sums an infinite series from its first term
and term ratio, with a bound on its own error, and sums a long one's tail in
numpy blocks from that ratio over index arrays; ``ratio_sum_all`` sums the
first terms, the ones that loop adds, of the series of many points in one
such block with a leading axis of points, each point that stops there with
the bits of its ``ratio_sum``; ``scaled`` applies a factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError, PoleError

#: Most terms ``ratio_sum`` adds before it gives up.
MAX_TERMS = 100_000
#: Terms ``ratio_sum`` adds one at a time before it sums in numpy blocks.
SCALAR_TERMS = 64
#: Most terms in one block, which keeps its arrays within a few hundred kB.
BLOCK_TERMS = 4096
#: ``(value, est_error, terms)``: what every series evaluator returns.
Result = tuple[complex, float, int]
#: A term ratio at an ``int`` index or over an integer array of indices.
Ratio = Callable[[int | np.ndarray], complex | np.ndarray]
#: The ratios of many points at the indices ``n``, one row per point, each
#: rounded as ``ratio_sum``'s loop rounds that point's ratio.
RowsRatio = Callable[[np.ndarray], np.ndarray]
#: Where a sum stops: the index n, ``ratio(n)`` and ``|t_(n+1)|``.
Stop = tuple[int, complex, float]


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Coefficients ``c0..cN`` of ``sum c_n z^n``, truncated at order ``N``, as a read-only
    1-D complex array copied from what is given.  A series representing a normalized
    analytic function (``z + a2 z^2 + ...`` on the unit disk) also has ``c0 = 0`` and
    ``c1 = 1``; :meth:`is_normalized` checks that, not this class, because derived
    series (derivatives, residuals) legitimately break it.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        try:
            coeffs = np.asarray(self.coeffs)
        except ValueError:  # a ragged nesting, rejected below as an object array
            coeffs = np.asarray(None)
        if coeffs.dtype.kind not in "biufc" or coeffs.ndim != 1 or not coeffs.size:
            raise ParameterError("a power series needs a non-empty 1-D array of numbers")
        coeffs = coeffs.astype(complex)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __getitem__(self, n: int) -> complex:
        return self.coeffs[n]

    def is_normalized(self) -> bool:
        """True when the series is ``z + a2 z^2 + ...`` to within 1e-12."""
        return bool(normalized_rows(self.coeffs))

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "PowerSeries":
        """From JSON: one ``[re, im]`` pair of ints or floats (not bools) per power of
        z, index = power, laid out as the complex array with no arithmetic."""
        for n, row in enumerate(pairs):
            if not (type(row) is list and len(row) == 2 and {int, float}.issuperset(map(type, row))):
                raise ParameterError(f"row {n} is not two numbers [re, im]: {row!r}")
        return cls(np.array(pairs, dtype=float).reshape(-1, 2).view(complex).ravel())

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The function ``z`` padded with zeros up to ``order``."""
        return cls(np.arange(order + 1) == 1)


def normalized_rows(coeffs: np.ndarray) -> np.ndarray:
    """Whether each row of coefficients ``c0..cN`` in a stack of them (or the
    one row of a 1-D array) is ``z + a2 z^2 + ...`` to within 1e-12."""
    if coeffs.shape[-1] < 2:
        return np.zeros(coeffs.shape[:-1], dtype=bool)
    return (abs(coeffs[..., 0]) <= 1e-12) & (abs(coeffs[..., 1] - 1.0) <= 1e-12)


def hadamard(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Termwise coefficient product, truncated to the shorter order."""
    n = min(f.order, g.order) + 1
    return PowerSeries(f.coeffs[:n] * g.coeffs[:n])


def gamma_n(n: int) -> float:
    """Higham's rounding constant ``n u / (1 - n u)``, ``u`` the unit roundoff 2^-53."""
    nu = n * 2.0**-53
    return nu / (1.0 - nu)


def ratio_sum(first: complex, ratio: Ratio, rho: float, tol: float, start: int = 0) -> Result:
    """Sum ``t_0 = first``, ``t_(n+1) = t_n * ratio(n)`` up to the first ``t_N``
    with ``|t_N| / (1 - rho) < tol``, ``N > start`` and ``|ratio(N - 1)| < 1``;
    ``0 <= rho < 1`` is the limit of ``|ratio(n)|``, and ``start`` an index past
    which ``|ratio(n)|`` no longer climbs above ``max(rho, |ratio(N - 1)|)``.

    Returns ``(sum, est_error, N + 1)``.  ``est_error`` is the rounding bound
    ``gamma_(8N) sum |t_n|`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §4.2) plus the tail bound ``|t_N| r / (1 - r)``, ``r`` the
    larger of ``rho`` and ``|ratio(N - 1)|`` (Johansson, ACM TOMS 45(3), 2019).
    A zero denominator in ``ratio`` raises PoleError; a non-finite term, or a
    modulus or ``sum |t_n|`` beyond double precision, DomainError;
    ConvergenceError means MAX_TERMS terms did not reach ``tol``, or a
    nonzero bound not below ``|sum|``: no digit of the sum is right.

    ``ratio`` takes an ``int`` index, and past the first SCALAR_TERMS terms an
    integer array of indices (a constant it returns is broadcast), whose terms
    are summed in numpy blocks.  These round as numpy's complex ``*`` and ``/``,
    and stop at the term and raise the exception of the one-at-a-time loop.
    """
    if not tol > 0.0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    if not 0.0 <= rho < 1.0:  # NaN included
        raise ParameterError(f"rho must lie in [0, 1), got {rho}")
    gap = 1.0 - rho
    term = complex(first)
    state = [term, term, abs(term)]  # the last term, the sum and sum |t_n| so far
    n = SCALAR_TERMS
    stop = _one_by_one(ratio, 0, n, state, gap, tol, start)
    block = 0
    while stop is None and n < MAX_TERMS:
        block = 2 * block if block else _first_block(abs(state[0]), rho, gap, tol)
        m = min(block, BLOCK_TERMS, MAX_TERMS - n)
        # A numpy block costs about as much as 100 terms of the loop, so a
        # short one runs in the loop; a block that meets a value that is not
        # finite (a pole's among them) is summed again by the loop, to raise.
        stop = _one_block(ratio, n, m, state, gap, tol, start) if m > 2 * SCALAR_TERMS else False
        if stop is False:
            stop = _one_by_one(ratio, n, n + m, state, gap, tol, start)
        n += m
    if stop is None:
        raise ConvergenceError(f"series did not reach tol={tol:g} within {MAX_TERMS} terms")
    n, r, mag = stop
    _, total, size = state
    last = max(abs(r), rho)
    est = gamma_n(8 * (n + 1)) * size + mag * last / (1.0 - last)
    if est and not est < abs(total):
        raise ConvergenceError(f"no correct digit: error bound {est:g} >= |sum| "
                               f"{abs(total):g} after {n + 2} terms")
    return total, est, n + 2


def ratio_sum_all(first: complex, ratio: RowsRatio, rho: np.ndarray, tol: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first SCALAR_TERMS terms of :func:`ratio_sum`, the ones its loop
    adds, at each point of a 1-D array of ``rho``, all from the same ``first``
    term and with ``start`` 0, as arrays ``(sums, est_errors, terms)``.

    ``ratio`` is a :data:`RowsRatio`, and every point is summed in one
    ``_in_block`` call, whose arrays peak at about 5 kB a point.  A point
    that stops within those terms has the bits of its own ``ratio_sum``; one
    that does not, or whose bound fails, has ``terms`` 0 and a sum and bound
    that are not to be read, and is for its caller to sum by ``ratio_sum``.
    """
    if not tol > 0.0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    rho = np.asarray(rho, dtype=float)
    inside = (0.0 <= rho) & (rho < 1.0)  # NaN excluded
    if not inside.all():
        raise ParameterError(f"rho must lie in [0, 1), got {float(rho[inside.argmin()])}")
    term = np.full(rho.size, complex(first))
    n = np.arange(SCALAR_TERMS)
    with np.errstate(all="ignore"):
        (_, total, size), at, r, mag = _in_block(
            ratio(n), n, (term, term, np.full(rho.size, abs(complex(first)))), 1.0 - rho, tol, 0)
        last = np.maximum(np.hypot(r.real, r.imag), rho)
        est = gamma_n(8 * (at + 1)) * size + mag * last / (1.0 - last)
        right = (est == 0.0) | (est < np.hypot(total.real, total.imag))
    return total, est, np.where((at >= 0) & right, at + 2, 0)


def _one_by_one(ratio: Ratio, n0: int, n1: int, state: list, gap: float, tol: float,
                start: int) -> Stop | None:
    """``ratio_sum``'s loop over ``n0 <= n < n1``: updates ``state`` and
    returns where the sum stops, or None."""
    term, total, size = state
    try:
        for n in range(n0, n1):
            r = ratio(n)
            term *= r
            total += term
            mag = abs(term)
            size += mag
            if mag / gap < tol and n >= start and abs(r) < 1.0:
                state[:] = term, total, size
                return n, r, mag
            if not size < math.inf:  # an infinite or NaN term never stops the loop
                if mag < math.inf:
                    raise DomainError(f"sum |t_n| overflows double precision at term {n + 1}")
                raise DomainError(f"series term {n + 1} is not finite: {term}")
    except ZeroDivisionError:
        raise PoleError(f"zero denominator in the ratio of term {n + 1} to term {n}") from None
    except OverflowError:  # abs() of a term or a ratio whose parts are finite
        raise DomainError(f"the modulus of series term {n + 1} or of its ratio overflows "
                          f"double precision: term {term}, ratio {r}") from None
    state[:] = term, total, size
    return None


def _first_block(mag: float, rho: float, gap: float, tol: float) -> int:
    """Terms until ``rho^n mag / (1 - rho) < tol``, plus a quarter and 16 more."""
    try:
        guess = max(0, math.ceil(math.log(tol * gap / mag) / math.log(rho)))
    except (ArithmeticError, ValueError):  # a zero term or rho, or no finite guess
        guess = 0
    return guess + guess // 4 + 16


def _one_block(ratio: Ratio, n0: int, m: int, state: list, gap: float, tol: float,
               start: int) -> Stop | None | bool:
    """``_one_by_one(ratio, n0, n0 + m, ...)`` as ``_in_block`` of one point.
    Returns False, with ``state`` untouched, when before the stop a ratio or
    ``sum |t_n|`` is not finite."""
    n = np.arange(n0, n0 + m)
    with np.errstate(all="ignore"):
        new, at, r_at, mag_at = _in_block(np.broadcast_to(ratio(n), n.shape)[None], n,
                                          tuple(np.array([v]) for v in state), np.array([gap]),
                                          tol, start)
    if at[0] == -2:
        return False
    state[:] = complex(new[0][0]), complex(new[1][0]), float(new[2][0])
    return (int(at[0]), complex(r_at[0]), float(mag_at[0])) if at[0] >= 0 else None


def _in_block(r: np.ndarray, n: np.ndarray, state: tuple[np.ndarray, np.ndarray, np.ndarray],
              gap: np.ndarray, tol: float, start: int) -> tuple:
    """``_one_by_one`` over the indices ``n`` in numpy, for a leading axis of
    points: ``r`` holds their ratios there, one row per point, and the last
    term, sum and ``sum |t_n|`` of ``state`` and ``gap`` one entry per point.
    Its caller ignores numpy's floating-point warnings.

    Complex ``multiply.accumulate`` and ``add.accumulate`` along a row take
    the terms in the loop's order and round as it does, and ``hypot`` rounds
    as ``abs``.  Returns the state at each point's stop, or at the end of the
    block, and per point the index it stops at (-1 for none in the block, -2
    where before it a ratio or ``sum |t_n|`` is not finite), with the ratio
    and ``|t_(n+1)|`` there.
    """
    term, total, size = state
    rows = np.arange(r.shape[0])
    terms = np.concatenate((term[:, None], r), axis=1)
    np.multiply.accumulate(terms, axis=1, out=terms)
    mag = np.hypot(terms.real, terms.imag)
    mag[:, 0] = size
    sizes = np.add.accumulate(mag, axis=1)  # mag[:, 1:] stays |t_n|
    rmag = np.hypot(r.real, r.imag)
    small = mag[:, 1:] / gap[:, None] < tol
    small &= rmag < 1.0
    if start > n[0]:
        small &= n >= start
    i = small.argmax(axis=1)
    hit = small[rows, i]
    i[~hit] = n.size - 1
    j = i + 1
    finite = sizes[rows, j] < math.inf
    if not rmag.max(initial=0.0) < math.inf:  # a ratio's modulus is not finite somewhere
        finite &= np.maximum.accumulate(rmag, axis=1)[rows, i] < math.inf
    last = terms[rows, j]
    terms[:, 0] = total
    at = np.where(finite, np.where(hit, n[0] + i, -1), -2)
    return ((last, np.add.accumulate(terms, axis=1)[rows, j], sizes[rows, j]), at, r[rows, i],
            mag[rows, j])


def scaled(factor: complex, rtol: float, result: Result) -> Result:
    """``factor`` times ``result``, adding the factor's own relative error
    ``rtol`` to the bound."""
    value, est, terms = result
    value = factor * value
    return value, abs(factor) * est + abs(value) * rtol, terms
