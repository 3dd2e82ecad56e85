"""Gauss hypergeometric 2F1 through three mutually checking representations.

* ``f21_series``   -- the defining power series, valid on |z| < 1;
* ``f21_euler``    -- the Euler integral, valid for Re c > Re b > 0 and
                      z off [1, oo), evaluated by Gauss-Jacobi quadrature
                      whose weight absorbs the endpoint singularities;
* ``f21_pfaff``    -- the Pfaff transformation
                      ``(1-z)^(-a) 2F1(a, c-b, c; z/(z-1))``,
                      which maps the half-plane Re z < 1/2 into the unit disk
                      and therefore reaches arguments far outside it
                      (z -> -1 and beyond) at geometric convergence rates.

``f21`` takes the series or the Pfaff route, whichever argument is smaller;
the Euler integral is kept as the independent cross-check path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .quadrature import settle
from .series import Result, ratio_sum, scaled
from .specialfn import GAMMA_RTOL, cpow, gamma, is_nonpositive_integer, power_rtol


@dataclass(frozen=True)
class HypergeomParams:
    """Parameters (a, b, c) of 2F1; c at a nonpositive integer is rejected."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))
        if not all(map(cmath.isfinite, (self.a, self.b, self.c))):
            raise ParameterError(
                f"2F1 parameters must be finite, got a={self.a}, b={self.b}, c={self.c}"
            )
        if is_nonpositive_integer(self.c):
            raise ParameterError(f"2F1 parameter c = {self.c} is a nonpositive integer")


def f21_series(hp: HypergeomParams, z: complex, tol: float = 1e-13) -> Result:
    """``sum (a)_n (b)_n z^n / ((c)_n n!)`` on |z| < 1 by ``ratio_sum``.

    Returns ``(value, est_error, terms)``.  Summation stops once
    |term| / (1 - |z|) drops below ``tol``, but not before n passes -Re a,
    -Re b and -Re c: the terms can dip below ``tol`` there and swell again.
    Past ``series.SCALAR_TERMS`` terms the same ratio runs on numpy index arrays.
    """
    z = complex(z)
    r = abs(z)
    if not r < 1.0:  # NaN included
        raise DomainError(f"2F1 series needs |z| < 1, got |z| = {r:g}")
    a, b, c = hp.a, hp.b, hp.c
    start = math.ceil(max(0.0, -a.real, -b.real, -c.real))
    return ratio_sum(1 + 0j, lambda n: (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z, r, tol,
                     start)


def f21_euler(hp: HypergeomParams, z: complex, nodes: int = 128) -> Result:
    """Euler integral
    ``G(c)/(G(c-b)G(b)) int_0^1 t^(b-1) (1-t)^(c-b-1) (1-tz)^(-a) dt``.

    The real parts of the endpoint exponents go into the Gauss-Jacobi weight;
    any imaginary parts remain in the integrand as unit-modulus factors.  The
    integral settles on the ladder of rules up to ``nodes`` (16, 32, 64, 128
    by default), and the result is ``(value, est_error, nodes used)``: the
    gap to the rung below plus the rule's rounding bound, scaled by the gamma
    prefactor with its own error.
    A nonzero bound not below ``|value|`` raises ConvergenceError, as in
    ``ratio_sum``.  Requires Re c > Re b > 0 and z off the cut [1, oo).
    """
    z = complex(z)
    a, b, c = hp.a, hp.b, hp.c
    if not (c.real > b.real > 0.0):
        raise ParameterError(
            f"Euler integral needs Re c > Re b > 0, got b={b}, c={c}"
        )
    if not cmath.isfinite(z) or (z.imag == 0.0 and z.real >= 1.0):
        raise DomainError(f"Euler integral needs a finite z off the cut [1, oo), got z = {z}")

    def integrand(t: np.ndarray, live: np.ndarray) -> np.ndarray:
        f = np.exp(-a * np.log(1.0 - t * z))
        if b.imag != 0.0:
            f = f * np.exp(1j * b.imag * np.log(t))
        if (c - b).imag != 0.0:
            f = f * np.exp(1j * (c - b).imag * np.log(1.0 - t))
        return f
    value, error, used = settle(integrand, 1, nodes, c.real - b.real - 1.0, b.real - 1.0)
    prefactor = gamma(c) / (gamma(c - b) * gamma(b))
    value, est, used = scaled(prefactor, 3.0 * GAMMA_RTOL,
                              (complex(value[0]), float(error[0]), int(used[0])))
    if est and not est < abs(value):
        raise ConvergenceError(f"no correct digit: error bound {est:g} >= |value| "
                               f"{abs(value):g} at {used} nodes")
    return value, est, used


def f21_pfaff(hp: HypergeomParams, z: complex, tol: float = 1e-13) -> Result:
    """Pfaff transformation ``(1-z)^(-a) 2F1(a, c-b, c; z/(z-1))``.

    Defined whenever the transformed argument lies in the unit disk, i.e. for
    Re z < 1/2; this is how arguments approaching -1 (and past it) stay at
    geometric convergence.  Returns ``(value, est_error, terms)``.
    """
    z = complex(z)
    if z == 1.0:
        raise DomainError("Pfaff transformation undefined at z = 1")
    w = z / (z - 1.0)
    if abs(w) >= 1.0:
        raise DomainError(
            f"Pfaff argument z/(z-1) = {w} outside the unit disk (needs Re z < 1/2)"
        )
    inner = f21_series(HypergeomParams(hp.a, hp.c - hp.b, hp.c), w, tol)
    return scaled(cpow(1.0 - z, -hp.a), power_rtol(1.0 - z, -hp.a), inner)


def f21(hp: HypergeomParams, z: complex, tol: float = 1e-13) -> Result:
    """Dispatcher: series for small |z|, Pfaff where its argument z/(z-1) is
    the smaller (Re z < 1/2 and |z - 1| > 1), series on the rest of the disk.

    Covers every z with |z| < 1 plus the analytic continuation onto
    Re z < 1/2 (|z| >= 1 there implies |z - 1| > 1); arguments with |z| >= 1
    and Re z >= 1/2 are rejected.
    """
    z = complex(z)
    if abs(z) <= 0.5:
        return f21_series(hp, z, tol)
    if z.real < 0.5 and abs(z - 1.0) > 1.0:
        return f21_pfaff(hp, z, tol)
    if abs(z) < 1.0:
        return f21_series(hp, z, tol)
    raise DomainError(
        f"2F1 argument z = {z} outside the supported region (|z| < 1 or Re z < 1/2)"
    )
