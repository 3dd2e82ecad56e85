"""Sharp bounds and certificates for the subordination chain.

Everything here is parameterized by the exponent ``beta = mu*k/lambda`` and a
Möbius target (A, B).  The central object is the best dominant

    q(z) = beta * int_0^1 phi(z u) u^(beta-1) du,            phi = (1+Aw)/(1+Bw),

computed by Gauss-Jacobi quadrature whose weight absorbs the u^(beta-1)
endpoint singularity.  Since phi(w) - 1 = (A-B) w / (1+Bw), its closed form is

    h(z) = 1 + (A-B) z beta/(beta+1) 2F1(1, beta+1; beta+2; -Bz),

written once, in ``_closed_form``: B = 0 is the argument 0, and no digit is
lost to a division by B.  ``hypergeom.f21_lerch`` evaluates its 2F1: the
series inside the disk, Pfaff at -Bz near -1, and the expansion in Log(-Bz)
where -Bz is near the rest of the unit circle, out to |z| = 1 - 1e-8 and to
-Br -> 1 in the bound pairs.  ``sharp_bound_h`` is h inside the disk, and the
modulus and real bound pairs are the real parts of h at -r and +r.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classes import MobiusTarget, Verdict
from .errors import ConvergenceError, DomainError, ParameterError
from .hypergeom import f21_lerch
from .quadrature import settle
from .series import Result, gamma_n, scaled


@dataclass(frozen=True)
class DominantParams:
    """Exponent ``beta = mu*k/lambda`` plus the Möbius target it dominates.

    beta's sign requirements differ per theorem (q and h need beta > 0, the
    bound pairs allow beta >= 0), so they are enforced per operation rather
    than at construction.
    """

    beta: float
    target: MobiusTarget

    def __post_init__(self) -> None:
        beta = float(self.beta)
        if not math.isfinite(beta):
            raise ParameterError(f"beta must be finite, got {beta}")
        object.__setattr__(self, "beta", beta)


def _settled_integral(beta: float, integrand: Callable, size: int, nodes: int,
                      label: Callable[[int], str]):
    """``beta * int_0^1 integrand(t, live) t^(beta-1) dt`` for ``size`` points,
    each settled on the ladder of Gauss-Jacobi rules up to ``nodes`` by
    :func:`quadrature.settle`, as its arrays ``(value, error, nodes used)``.

    The factor is ``(beta - 1) + 1``, the reciprocal of the moment the rules
    for the exponent ``beta - 1`` sum to (``beta`` is 1e-7 off at 1e-10);
    below 2^-53 that exponent rounds to -1, and no rule exists.  A point that
    reaches ``nodes`` with an error beyond 1e-8 of its value scale is reported
    as quadrature non-convergence of the integral ``label(i)``, for the first
    such point ``i`` (formatted only then).
    """
    exponent = beta - 1.0
    if exponent == -1.0:
        raise ConvergenceError(f"beta = {beta:g} is below 2^-53, where the Gauss-Jacobi "
                               f"exponent beta - 1 rounds to -1")
    value, error, used = settle(integrand, size, nodes, 0.0, exponent, exponent + 1.0)
    unsettled = np.flatnonzero(error > 1e-8 * np.maximum(1.0, abs(value)))
    if unsettled.size:
        i = unsettled[0]
        raise ConvergenceError(f"quadrature for {label(i)} did not settle: {nodes} vs "
                               f"{nodes // 2} nodes differ by {error[i]:g}")
    return value, error, used


def best_dominant_q(dp: DominantParams, z: complex | np.ndarray, nodes: int = 128
                    ) -> Result | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dominant ``beta * int_0^1 phi(zu) u^(beta-1) du`` inside the disk.

    Returns ``(q, error, nodes used)``: each point settles on the ladder of
    Gauss-Jacobi rules up to ``nodes`` (16, 32, 64, 128 by default), and
    ``error`` is its difference from the rung below the one it stopped at
    plus the rounding bound of that rung's sum.
    ``z`` is a scalar (a ``complex``, a ``float`` and an ``int``) or an array
    of points (arrays of its shape), all integrated in one (points x nodes)
    pass; each value has the bits a scalar call gives it.  A point unsettled
    at ``nodes`` with an error beyond 1e-8 of the value scale is a
    ConvergenceError, and a point not strictly inside the disk (NaN included)
    a DomainError, each naming the first offending z in input order.
    """
    if dp.beta <= 0:
        raise ParameterError(f"best dominant needs beta > 0, got {dp.beta}")
    z = np.asarray(z, dtype=complex)
    outside = ~(np.hypot(z.real, z.imag) < 1.0)
    if np.count_nonzero(outside):
        bad = complex(z.flat[np.flatnonzero(outside)[0]])
        raise DomainError(f"best dominant defined on |z| < 1, got |z| = {abs(bad):g}")
    flat = z.ravel()
    q, error, used = _settled_integral(dp.beta, lambda t, live: dp.target.phi(flat[live, None] * t),
                                     flat.size, nodes, lambda i: f"q({complex(flat[i])})")
    if z.ndim == 0:
        return complex(q[0]), float(error[0]), int(used[0])
    return q.reshape(z.shape), error.reshape(z.shape), used.reshape(z.shape)


def _product_error(c: float, w: float) -> float:
    """``c w - fl(c w)``, exact for products within the normal range: Dekker's
    product, with each factor split into halves of 26 bits by Veltkamp's
    ``2^27 + 1`` (Numer. Math. 18, 1971)."""
    product = c * w
    c_hi = 134217729.0 * c
    c_hi -= c_hi - c
    w_hi = 134217729.0 * w
    w_hi -= w_hi - w
    c_lo, w_lo = c - c_hi, w - w_hi
    return ((c_hi * w_hi - product) + c_hi * w_lo + c_lo * w_hi) + c_lo * w_lo


def _closed_form(dp: DominantParams, z: complex, tol: float = 1e-13) -> Result:
    """``h(z)`` of the module docstring as ``(value, est_error, terms)``: the
    2F1 bound, plus what the rounding of its argument -Bz moves it by, scaled
    by its prefactor, plus the rounding of the prefactor, of its product with
    2F1 and of the sum with 1."""
    A, B, beta = dp.target.A, dp.target.B, dp.beta
    a, x = beta + 1.0, -B * z
    f, est, terms = f21_lerch(beta, x, tol)
    # F is taken at x = -Bz as rounded.  The rounding dx, which is 0 at B = -1,
    # moves F by about |F'(x) dx| = a |1/(1 - x) - F| |dx / x|, since
    # x F'(x) = a (1/(1 - x) - F): near x = 1 this is F's conditioning.  It is
    # counted twice, for the change of F' between x and x + dx.
    dx = abs(complex(_product_error(-B, z.real), _product_error(-B, z.imag)))
    if dx:
        est += 2.0 * a * abs(1.0 / (1.0 - x) - f) * dx / abs(x)
    d = (A - B) * z * (beta / (beta + 1.0))
    value, est, terms = scaled(d, gamma_n(9), (f, est, terms))
    h = 1.0 + value
    return h, est + gamma_n(1) * abs(h), terms


def sharp_bound_h(dp: DominantParams, z: complex, tol: float = 1e-13) -> Result:
    """Closed form of the best dominant (see module docstring) on ``|z| < 1``,
    as ``(value, est_error, terms)``."""
    if dp.beta <= 0:
        raise ParameterError(f"sharp bound needs beta > 0, got {dp.beta}")
    z = complex(z)
    if not abs(z) < 1.0:
        raise DomainError(f"sharp bound defined on |z| < 1, got |z| = {abs(z):g}")
    return _closed_form(dp, z, tol)


def lower_bound_h_minus1(dp: DominantParams) -> float:
    """Radial limit ``h(-1) = beta int_0^1 (1-At)/(1-Bt) t^(beta-1) dt``.

    The integrand is bounded for every valid target: 1 - Bt only vanishes on
    [0, 1] when B = 1, which B < A <= 1 excludes (B = -1 gives 1 + t).  The
    value, the infimum of Re h over the disk, settles on Gauss-Jacobi rules of
    24, 48, 96 and at most 192 nodes.
    """
    if dp.beta <= 0:
        raise ParameterError(f"lower bound needs beta > 0, got {dp.beta}")
    value, _, _ = _settled_integral(dp.beta, lambda t, live: dp.target.phi(-t), 1, 192,
                                    lambda i: "h(-1)")
    return float(value[0].real)


def _radius_c(lam: float, mu: float, k: float) -> float:
    """``c = |lambda/(mu k)|``, the ratio both radius formulas are written in."""
    if mu * k == 0:
        raise ParameterError("mu*k = 0 leaves the ratio |lambda/(mu k)| undefined")
    return abs(lam / (mu * k))


def radius_positivity(lam: float, mu: float, k: float) -> float:
    """Radius ``r* = -c + sqrt(c^2 + 1)`` with ``c = |lambda/(mu k)|``.

    The membership functional keeps positive real part on |z| < r*; the
    formula lives in (0, 1) exactly when lambda != 0 and mu*k != 0.
    """
    c = _radius_c(lam, mu, k)
    if lam == 0:
        raise ParameterError("lambda = 0 degenerates the radius to the full disk")
    return -c + math.sqrt(c * c + 1.0)


def radius_factor(lam: float, mu: float, k: float, r: float) -> float:
    """Positivity factor ``(1 - r^2 - 2 c r) / (1 - r^2)``.

    Positive exactly when r < radius_positivity(lam, mu, k).
    """
    if not 0.0 <= r < 1.0:
        raise ParameterError(f"r must lie in [0, 1), got {r}")
    c = _radius_c(lam, mu, k)
    return (1.0 - r * r - 2.0 * c * r) / (1.0 - r * r)


def re_zqprime_over_q(B: float, r: float | np.ndarray,
                      psi: float | np.ndarray) -> float | np.ndarray:
    """Closed form of ``Re(z Q'(z)/Q(z))`` for ``Q(z) = const * z/(1+Bz)^2``:

        (1 - B^2 r^2) / ((1 + B r cos psi)^2 + B^2 r^2 sin^2 psi),

    at ``z = r e^(i psi)``.  Strictly positive for |B r| < 1, which is the
    starlikeness of Q on the unit disk.  Arrays of r and psi broadcast.
    """
    br = B * r
    return (1.0 - br * br) / (
        (1.0 + br * np.cos(psi)) ** 2 + (br * np.sin(psi)) ** 2
    )


def _zqprime_over_q_direct(B: float, z: complex) -> complex:
    # Quotient-rule evaluation of z Q'/Q for Q = z/(1+Bz)^2, no simplification.
    num = z
    den = (1.0 + B * z) ** 2
    dnum = 1.0
    dden = 2.0 * B * (1.0 + B * z)
    qprime = (dnum * den - num * dden) / (den * den)
    q = num / den
    return z * qprime / q


def q_starlike_certificate(A: float, B: float) -> Verdict:
    """Certify starlikeness of ``Q(z) = const * (A-B) z / (1+Bz)^2``.

    Sweeps the closed form of Re(z Q'/Q) over a 50 x 360 (r, psi) grid with
    r < 1 and additionally reconciles it against direct quotient-rule
    differentiation at 20 fixed interior points (the scalar prefactor cancels,
    so the certificate is independent of A up to parameter validation).
    """
    MobiusTarget(A, B)  # validates -1 <= B < A <= 1
    rs = np.linspace(0.99 / 50, 0.99, 50)
    psis = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    values = re_zqprime_over_q(B, rs[:, None], psis)  # cos and sin of psis only
    idx = np.unravel_index(np.argmin(values), values.shape)
    worst = float(values[idx])
    witness = rs[idx[0]] * cmath.exp(1j * psis[idx[1]])

    # The 20 fixed points are (r, psi) rows of one draw, made per call so that
    # importing the package does not load numpy.random.
    r, psi = np.random.default_rng(20210).uniform((0.05, 0.0), (0.9, math.tau), (20, 2)).T
    zs = [a * cmath.exp(1j * b) for a, b in zip(r.tolist(), psi.tolist())]
    closed = re_zqprime_over_q(B, r, psi).tolist()
    bad = [z for z, c in zip(zs, closed) if abs(_zqprime_over_q_direct(B, z).real - c) > 1e-10]
    witness = bad[0] if bad else witness
    passed = worst > 0.0 and not bad
    return Verdict(
        passed=passed,
        margin=worst,
        witness_z=None if passed else witness,
        samples_used=rs.size * psis.size + 20,
    )


def re_bounds(dp: DominantParams) -> tuple[float, float]:
    """Extremes of ``Re`` of the dominated functional over the whole disk:
    :func:`modulus_bounds` at ``r = 1``.  For the half-plane target B = -1 the
    image is unbounded above and the upper bound is inf.
    """
    return modulus_bounds(dp, 1.0)


def modulus_bounds(dp: DominantParams, r: float) -> tuple[float, float]:
    """Modulus extremes of the de-rotated functional on ``|z| <= r``: the real
    parts of the closed form at ``-r`` and ``+r``, for ``0 <= r <= 1``.  The
    intervals nest and ``r = 1`` gives the Re bounds.  At ``B r = -1`` the
    2F1 argument of the upper bound hits +1, where the function diverges, and
    the upper bound is inf.
    """
    if dp.beta < 0:
        raise ParameterError(f"bounds need beta >= 0, got {dp.beta}")
    if not 0.0 <= r <= 1.0:
        raise ParameterError(f"r must lie in [0, 1], got {r}")
    lower = _closed_form(dp, -r)[0].real
    if dp.target.B * r == -1.0:
        return lower, math.inf
    return lower, _closed_form(dp, r)[0].real
