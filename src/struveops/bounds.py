"""Sharp bounds and certificates for the subordination chain.

Everything here is parameterized by the exponent ``beta = mu*k/lambda`` and a
Möbius target (A, B).  The central object is the best dominant

    q(z) = beta * int_0^1 phi(z u) u^(beta-1) du,            phi = (1+Aw)/(1+Bw),

computed by Gauss-Jacobi quadrature whose weight absorbs the u^(beta-1)
endpoint singularity.  Since phi(w) - 1 = (A-B) w / (1+Bw), its closed form is

    h(z) = 1 + (A-B) z beta/(beta+1) 2F1(1, beta+1; beta+2; -Bz),

written once, in ``_closed_form``, over an array of z in CPython's complex
arithmetic: B = 0 is the argument 0, and no digit is lost to a division by B.
``hypergeom.f21_lerch`` evaluates its 2F1: the series inside the disk, Pfaff
at -Bz near -1, and the expansion in Log(-Bz) where -Bz is near the rest of
the unit circle, out to |z| = 1 - 1e-8 and to -Br -> 1 in the bound pairs.
For many points, ``f21_lerch_all`` sums the short series of them all at once
and leaves every other point to ``f21_lerch``.  ``sharp_bound_h`` is h inside
the disk, and the modulus and real bound pairs are the real parts of h at -r
and +r.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classes import MobiusTarget, Verdict
from .errors import ConvergenceError, DomainError, ParameterError
from .hypergeom import f21_lerch, f21_lerch_all
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
    # The factor is (beta - 1) + 1, the reciprocal of the moment the rules for
    # beta - 1 sum to (beta is 1e-7 off at 1e-10).  Below 2^-53 no rule exists.
    exponent = dp.beta - 1.0
    if exponent == -1.0:
        raise ConvergenceError(f"beta = {dp.beta:g} is below 2^-53, where the Gauss-Jacobi "
                               f"exponent beta - 1 rounds to -1")
    flat = z.ravel()
    q, error, used = settle(lambda t, live: dp.target.phi(flat[live, None] * t), flat.size,
                            nodes, 0.0, exponent, exponent + 1.0)
    unsettled = np.flatnonzero(error > 1e-8 * np.maximum(1.0, abs(q)))
    if unsettled.size:
        i = unsettled[0]
        raise ConvergenceError(f"quadrature for q({complex(flat[i])}) did not settle: {nodes} vs "
                               f"{nodes // 2} nodes differ by {error[i]:g}")
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


#: From this many points on, ``_closed_form`` sums F in one ``f21_lerch_all`` call,
#: not by ``f21_lerch`` per point.  In process (2-vCPU host, Python 3.11.7, numpy
#: 2.4.6, 20 seeded draws) that call costs 86-118 us up to 12 points, the loop 10-14
#: us a point: they cross at 8 points for ``dominant``, 8-9 for ``modulus-bounds``.
#: Its callers send 1, 2, 16 or 50 points, each on the same side from 3 to 16.
_ARRAY_POINTS = 12


def _closed_form(dp: DominantParams, z: np.ndarray, tol: float = 1e-13
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``h(z)`` of the module docstring at each point of the 1-D complex array
    ``z``, as arrays ``(values, est_errors, terms)``: the 2F1 bound, plus what
    the rounding of its argument -Bz moves it by, scaled by its prefactor,
    plus the rounding of the prefactor, of its product with 2F1 and of the
    sum with 1.  F is summed by one ``f21_lerch_all`` call from
    ``_ARRAY_POINTS`` points on, else by ``f21_lerch`` per point, with the
    same bits; the first point whose F raises raises its error."""
    A, B, beta = dp.target.A, dp.target.B, dp.beta
    a, k, minus_b = beta + 1.0, beta / (beta + 1.0), -B
    rtol_9, rtol_1 = gamma_n(9), gamma_n(1)
    zs = z.tolist()
    xs = [minus_b * w for w in zs]
    if len(xs) >= _ARRAY_POINTS:
        fs = zip(*(v.tolist() for v in f21_lerch_all(beta, np.array(xs), tol)))
    else:
        fs = (f21_lerch(beta, x, tol) for x in xs)
    h, est, terms = [], [], []
    for w, x, (f, e, n) in zip(zs, xs, fs):
        # F is taken at x = -Bz as rounded.  The rounding dx, which is 0 at B = -1,
        # moves F by about |F'(x) dx| = a |1/(1 - x) - F| |dx / x|, since x F'(x)
        # = a (1/(1 - x) - F): near x = 1 this is F's conditioning.  It is
        # counted twice, for the change of F' between x and x + dx.
        dx = abs(complex(_product_error(minus_b, w.real), _product_error(minus_b, w.imag)))
        if dx:
            e += 2.0 * a * abs(1.0 / (1.0 - x) - f) * dx / abs(x)
        value, e, n = scaled((A - B) * w * k, rtol_9, (f, e, n))
        h.append(1.0 + value)
        est.append(e + rtol_1 * abs(h[-1]))
        terms.append(n)
    return np.array(h, dtype=complex), np.array(est, dtype=float), np.array(terms, dtype=int)


def sharp_bound_h(dp: DominantParams, z: complex | np.ndarray, tol: float = 1e-13
                  ) -> Result | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed form of the best dominant (see module docstring) on ``|z| < 1``,
    as ``(value, est_error, terms)``.

    ``z`` is a scalar (a ``complex``, a ``float`` and an ``int``) or an array
    of points (arrays of its shape), each with the same bits alone or in an
    array.  A point not strictly inside the disk (NaN included) is a
    DomainError naming the first such z in input order; past that, the first
    point whose scalar call raises raises its error.
    """
    if dp.beta <= 0:
        raise ParameterError(f"sharp bound needs beta > 0, got {dp.beta}")
    z = np.asarray(z, dtype=complex)
    inside = np.hypot(z.real, z.imag) < 1.0
    if np.count_nonzero(inside) < z.size:
        bad = abs(complex(z.flat[inside.argmin()]))
        raise DomainError(f"sharp bound defined on |z| < 1, got |z| = {bad:g}")
    result = _closed_form(dp, z.ravel(), tol)
    return tuple(a.item() if z.ndim == 0 else a.reshape(z.shape) for a in result)


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


@lru_cache(maxsize=1)
def _check_points() -> tuple[np.ndarray, np.ndarray, tuple[complex, ...]]:
    """The certificate's 20 fixed points as read-only r and psi and as z: the
    (r, psi) rows of one draw of seed 20210, made on first use so that
    importing the package does not load numpy.random."""
    r, psi = np.random.default_rng(20210).uniform((0.05, 0.0), (0.9, math.tau), (20, 2)).T
    r.flags.writeable = psi.flags.writeable = False
    return r, psi, tuple(a * cmath.exp(1j * b) for a, b in zip(r.tolist(), psi.tolist()))


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

    r, psi, zs = _check_points()
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
    :func:`modulus_bounds` at ``r = 1``, so the lower one is the radial limit
    h(-1).  For the half-plane target B = -1 the upper bound is inf.
    """
    return modulus_bounds(dp, 1.0)


def modulus_bounds(dp: DominantParams, r: float | np.ndarray
                   ) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Modulus extremes of the de-rotated functional on ``|z| <= r``: the real
    parts of the closed form at ``-r`` and ``+r``, for ``0 <= r <= 1``.  The
    intervals nest and ``r = 1`` gives the Re bounds.  At ``B r = -1`` the
    2F1 argument of the upper bound hits +1, where the function diverges, and
    the upper bound is inf.

    ``r`` is a float, or an array of radii (arrays of its shape), both ends
    of every radius in one ``_closed_form`` call.  An r outside [0, 1] (NaN
    included) is a ParameterError naming the first such r in input order.
    """
    if dp.beta < 0:
        raise ParameterError(f"bounds need beta >= 0, got {dp.beta}")
    r = np.asarray(r, dtype=float)
    flat = r.ravel()
    inside = (0.0 <= flat) & (flat <= 1.0)
    if np.count_nonzero(inside) < flat.size:
        raise ParameterError(f"r must lie in [0, 1], got {float(flat[inside.argmin()])}")
    finite = dp.target.B * flat != -1.0
    h = _closed_form(dp, np.concatenate((-flat, flat[finite]), dtype=complex))[0].real
    upper = np.full(flat.size, math.inf)
    upper[finite] = h[flat.size:]
    return tuple(a.item() if r.ndim == 0 else a.reshape(r.shape) for a in (h[:flat.size], upper))
