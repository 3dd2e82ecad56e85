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

``f21_lerch`` evaluates the family ``2F1(1, a; a+1; x) = a Phi(x, 1, a)`` of
the best dominant (Phi the Lerch transcendent).  Near the unit circle, where
x and x/(x-1) are both close to it in modulus and both routes of ``f21`` sum
hundreds to 100,000 terms, it sums the expansion of Phi in ``t = Log x``
instead, in at most ``LERCH_TERMS`` terms; elsewhere it is ``f21``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .quadrature import settle
from .series import Result, gamma_n, ratio_sum, ratio_sum_all, scaled
from .specialfn import (EULER_GAMMA, GAMMA_RTOL, bernoulli_ratios, cpow, digamma, gamma,
                        is_nonpositive_integer, power_rtol)

#: ``f21_lerch`` sums the expansion in t = Log x where x and x/(x-1) both have
#: modulus at least LERCH_REACH, so that the series and Pfaff would each sum
#: some 300 terms or more, ...
LERCH_REACH = 0.9
#: ... where ``|t| <= LERCH_T``, which keeps the tail's ratio |t|/rho on the
#: circles of ``_LERCH_RHO`` at most 2/pi (near the disk |t| is below 1.3), ...
LERCH_T = 2.0
#: ... and where ``a |t| <= LERCH_AT``: the bracket cancels to about
#: ``e^(-a |t|)`` of its largest term, and past this bound the expansion
#: reports less than ~1e-10 of relative accuracy.
LERCH_AT = 6.0
#: Most terms of the expansion.
LERCH_TERMS = 64
#: Most points ``f21_lerch_all`` evaluates in one pass: more are taken in
#: input-order chunks of this many.  A pass peaks at about 4.9 kB a point
#: (tracemalloc, 256 to 20,000 points; 5.4 kB at 64), most of it
#: ``ratio_sum_all``'s arrays of 64 terms, so a chunk stays near 1.3 MB; the
#: cost a point is flat from 64 points on.
LERCH_CHUNK = 256
#: Radii below 2 pi of the circles on which Cauchy's estimate bounds B_r(a)/r!.
_LERCH_RHO = tuple(math.pi * m for m in (1.0, 1.25, 1.5, 1.75))


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
    """Euler integral ``G(c)/(G(c-b)G(b)) int_0^1 t^(b-1) (1-t)^(c-b-1) (1-tz)^(-a) dt``,
    as ``(value, est_error, nodes used)``: the batch of one of :func:`f21_euler_all`."""
    return f21_euler_all([(hp, z)], nodes)[0]


def f21_euler_all(cases: list[tuple[HypergeomParams, complex]], nodes: int = 128) -> list[Result]:
    """The Euler integral of each ``(HypergeomParams, z)`` pair of ``cases``.

    The real parts of the endpoint exponents go into the Gauss-Jacobi weight,
    any imaginary parts into the integrand as unit-modulus factors.  The cases
    settle together on the ladder of rules up to ``nodes`` (16, 32, 64, 128 by
    default), each case with the bits of its batch of one, as ``(value,
    est_error, nodes used)``: the gap to the rung below plus the rule's
    rounding bound, scaled by the gamma prefactor with its own error.  Errors
    name the first case in input order without Re c > Re b > 0
    (ParameterError) or with z not finite or on the cut [1, oo) (DomainError);
    failing that, the first with a nonzero bound not below ``|value|``
    (ConvergenceError, as in ``ratio_sum``).
    """
    cases = [(hp, complex(z)) for hp, z in cases]
    for hp, z in cases:
        if not (hp.c.real > hp.b.real > 0.0):
            raise ParameterError(f"Euler integral needs Re c > Re b > 0, got b={hp.b}, c={hp.c}")
        if not cmath.isfinite(z) or (z.imag == 0.0 and z.real >= 1.0):
            raise DomainError(f"Euler integral needs a finite z off the cut [1, oo), got z = {z}")
    a, b, c, z = np.array([(hp.a, hp.b, hp.c, z) for hp, z in cases], dtype=complex).reshape(-1, 4).T
    alpha, beta = c.real - b.real - 1.0, b.real - 1.0

    def integrand(t: np.ndarray, live: np.ndarray) -> np.ndarray:
        f = np.exp(-a[live, None] * np.log(1.0 - t * z[live, None]))
        for imag, base in ((b.imag[live], t), ((c - b).imag[live], 1.0 - t)):
            rows = np.flatnonzero(imag)
            if rows.size:
                f[rows] *= np.exp(1j * imag[rows, None] * np.log(base[rows]))
        return f
    settled = settle(integrand, len(cases), nodes, alpha, beta)
    results = []
    for (hp, _), al, be, *integral in zip(cases, alpha.tolist(), beta.tolist(),
                                          *(v.tolist() for v in settled)):
        # The rules integrate t^be (1-t)^al: b and c - b are those rounded
        # exponents plus 1, and c their sum (b itself put b = 1e-10 8e-8 off).
        rb, rcb = complex(be + 1.0, hp.b.imag), complex(al + 1.0, (hp.c - hp.b).imag)
        value, est, used = scaled(gamma(rb + rcb) / (gamma(rcb) * gamma(rb)), 3.0 * GAMMA_RTOL,
                                  integral)
        if est and not est < abs(value):
            raise ConvergenceError(f"no correct digit: error bound {est:g} >= |value| "
                                   f"{abs(value):g} at {used} nodes")
        results.append((value, est, used))
    return results


def f21_pfaff(hp: HypergeomParams, z: complex, tol: float = 1e-13) -> Result:
    """Pfaff transformation ``(1-z)^(-a) 2F1(a, c-b, c; z/(z-1))``.

    Defined whenever the transformed argument lies in the unit disk, i.e. for
    Re z < 1/2; this is how arguments approaching -1 (and past it) stay at
    geometric convergence.  Returns ``(value, est_error, terms)``.
    """
    z = complex(z)
    inner = f21_series(HypergeomParams(hp.a, hp.c - hp.b, hp.c), _pfaff_argument(z), tol)
    return scaled(cpow(1.0 - z, -hp.a), power_rtol(1.0 - z, -hp.a), inner)


def _pfaff_argument(z: complex) -> complex:
    """Pfaff's argument ``z/(z-1)``, or DomainError where it is not in the disk."""
    if z == 1.0:
        raise DomainError("Pfaff transformation undefined at z = 1")
    w = z / (z - 1.0)
    if abs(w) >= 1.0:
        raise DomainError(
            f"Pfaff argument z/(z-1) = {w} outside the unit disk (needs Re z < 1/2)"
        )
    return w


def _takes_pfaff(z: complex | np.ndarray, r: float | np.ndarray,
                 r1: float | np.ndarray) -> bool | np.ndarray:
    """Where ``f21`` takes Pfaff, from z, ``r = |z|`` and ``r1 = |z - 1|``:
    for scalars and for arrays alike."""
    return (r > 0.5) & (z.real < 0.5) & (r1 > 1.0)


def _near_circle(r: float | np.ndarray, r1: float | np.ndarray) -> bool | np.ndarray:
    """Where ``f21_lerch`` looks at the expansion in Log x, from ``r = |x|``
    and ``r1 = |x - 1|``: x finite with ``|x| >= LERCH_REACH max(1, |x - 1|)``."""
    return (r >= LERCH_REACH) & (r >= LERCH_REACH * r1) & (r < math.inf)


def _lerch_log(a: float, x: complex) -> complex | None:
    """``t = Log x`` where x, near the circle, is within reach of the
    expansion in t at ``a``: ``|t| <= LERCH_T`` and ``a |t| <= LERCH_AT``."""
    t = cmath.log(x)
    return t if abs(t) <= LERCH_T and a * abs(t) <= LERCH_AT else None


def f21(hp: HypergeomParams, z: complex, tol: float = 1e-13) -> Result:
    """Dispatcher: series for small |z|, Pfaff where its argument z/(z-1) is
    the smaller (Re z < 1/2 and |z - 1| > 1), series on the rest of the disk.

    Covers every z with |z| < 1 plus the analytic continuation onto
    Re z < 1/2 (|z| >= 1 there implies |z - 1| > 1); arguments with |z| >= 1
    and Re z >= 1/2 are rejected.
    """
    z = complex(z)
    r = abs(z)
    if _takes_pfaff(z, r, abs(z - 1.0)):
        return f21_pfaff(hp, z, tol)
    if r < 1.0:
        return f21_series(hp, z, tol)
    raise DomainError(
        f"2F1 argument z = {z} outside the supported region (|z| < 1 or Re z < 1/2)"
    )


@lru_cache(maxsize=1)
def _lerch_tables() -> tuple[np.ndarray, ...]:
    """The indices r, 1/r!, B_r / r! and |B_r / r!| for ``r <= LERCH_TERMS``."""
    r = np.arange(LERCH_TERMS + 1)
    ratios = bernoulli_ratios(LERCH_TERMS + 1)
    return r, np.cumprod(1.0 / np.maximum(r, 1)), ratios, np.abs(ratios)


def _lerch_terms(a: float, tau: float, log_tol: float) -> tuple[int, float]:
    """The least ``N <= LERCH_TERMS`` with a bound of
    ``sum_(r>N) |B_r(a) t^r / (r r!)|`` at ``|t| = tau`` below ``e^log_tol``,
    and the logarithm of that bound, or ConvergenceError: the least of
    Cauchy's estimates on the circles ``|s| = rho`` of ``_LERCH_RHO`` and at
    2, 4, 8 and 16 times tau, inside ``|s| <= 7 pi / 4``.

    ``B_r(a)/r!`` are the Taylor coefficients of
    ``f(s) = s e^(as) / (e^s - 1) = e^((a-1/2)s) w / sinh w``, ``w = s/2``.  On
    ``|w| = R < pi``, ``|sinh w|^2 = sinh^2 x + sin^2 y >= sin^2 R + x^4 / 3``
    (x = Re w: ``sin^2 R - sin^2 y <= R^2 - y^2 = x^2``), so with
    ``k = |2a - 1|``, ``|f| <= R e^(k x) / sqrt(sin^2 R + x^4/3)`` over
    ``0 <= x <= R``.  That grows with x when ``k^2 sin R >= 3/4``, and is at
    most ``R e^(kR) / sin R`` otherwise.  With ``M >= |f|`` on the circle and
    ``q = tau / rho``, the tail past N is at most ``M q^(N+1) / ((N+1)(1-q))``.
    """
    k = abs(2.0 * a - 1.0)
    best = (math.inf, math.inf)
    for rho in (*_LERCH_RHO, 2.0 * tau, 4.0 * tau, 8.0 * tau, 16.0 * tau):
        if not tau < rho <= _LERCH_RHO[-1]:
            continue
        R = 0.5 * rho
        sin = math.sin(R)
        quartic = R ** 4 / 3.0 if k * k * sin >= 0.75 else 0.0
        log_q = math.log(tau / rho)
        base = math.log(R) + k * R - 0.5 * math.log(sin * sin + quartic) - math.log1p(-tau / rho)
        # n = N + 1 >= 2: base + n log_q - log n < log_tol once base + n log_q <= log_tol.
        n = min(max(2, math.ceil((log_tol - base) / log_q)), LERCH_TERMS + 1)
        if base + n * log_q - math.log(n) >= log_tol:
            continue
        while n > 2 and base + (n - 1) * log_q - math.log(n - 1) < log_tol:
            n -= 1
        best = min(best, (n, base + n * log_q - math.log(n)))
    if best[0] == math.inf:
        raise ConvergenceError(f"the expansion in Log x needs more than {LERCH_TERMS} terms "
                               f"at a = {a:g}, |Log x| = {tau:g}")
    return best[0] - 1, best[1]


def _lerch_expansion(a: float, x: complex, t: complex, tol: float) -> Result:
    """``F_a(x) = a x^(-a) [-gamma_E - psi(a) - Log(-t) - sum_(r>=1) B_r(a) t^r / (r r!)]``
    with ``t = Log x`` (Erdelyi, *Higher Transcendental Functions* I, 1953,
    1.11 (8) at s -> 1), for ``0 < |t| < 7 pi / 4`` and x off the cut [1, oo).

    The sum stops at the first N whose tail bound (``_lerch_terms``) times
    ``a |x^-a|`` is below ``tol``.  ``B_r(a)/r!`` is the Cauchy product of
    ``B_j/j!`` and ``a^i/i!``, formed as ``(B_j/j!) |t|^j`` with
    ``(a |t|)^i / i!`` so that no power of a overflows, and summed by Horner's
    rule in ``t / |t|``.  ``est_error`` is that tail plus the rounding of
    psi, of the logarithms, of the sum (``gamma_(12N+80)`` times the same
    product of the moduli, which carries the bracket's cancellation) and of
    the prefactor; a bound not below ``|value|`` is a ConvergenceError.
    """
    if x.imag == 0.0 and x.real >= 1.0:
        raise DomainError(f"the expansion in Log x needs x off the cut [1, oo), got x = {x}")
    tau = abs(t)
    n, log_tail = _lerch_terms(a, tau, math.log(tol / a) + a * t.real)
    r, inverse_factorials, ratios, moduli = (v[:n + 1] for v in _lerch_tables())
    powers = tau ** r
    growth = (a * tau) ** r * inverse_factorials
    coefficients = (np.convolve(ratios * powers, growth)[1:n + 1] / r[1:]).tolist()
    size = float((np.convolve(moduli * powers, growth)[1:n + 1] / r[1:]).sum())
    unit = t / tau
    total = 0j
    for c in reversed(coefficients):
        total = (total + c) * unit
    psi, psi_error = digamma(a)
    head = -EULER_GAMMA - psi
    log = cmath.log(-t)
    prefactor = a * cmath.exp(-a * t)
    value = prefactor * (head - log - total)
    bracket_error = (psi_error
                     + gamma_n(8) * (1.0 + EULER_GAMMA + abs(head) + abs(log) + abs(total))
                     + gamma_n(12 * n + 80) * size + math.exp(log_tail))
    est = abs(prefactor) * bracket_error + abs(value) * (power_rtol(x, -a) + gamma_n(2))
    if not est < abs(value):
        raise ConvergenceError(f"no correct digit: error bound {est:g} >= |value| "
                               f"{abs(value):g} after {n} terms of the expansion in Log x")
    return value, est, n


def f21_lerch(beta: float, x: complex, tol: float = 1e-13) -> Result:
    """``F_a(x) = 2F1(1, a; a+1; x) = a Phi(x, 1, a)`` at ``a = beta + 1`` for
    real ``beta > -1``, Phi the Lerch transcendent, as
    ``(value, est_error, terms)``: the 2F1 of the best dominant.

    Where x and x/(x-1) both have modulus at least ``LERCH_REACH`` (near the
    unit circle, where the series and Pfaff are both slow), ``|Log x| <=
    LERCH_T`` and ``a |Log x| <= LERCH_AT``, the value is the expansion in
    ``t = Log x`` (see ``_lerch_expansion``), which converges for
    ``|t| < 2 pi`` and reaches 1 - |x| = 1e-8 in a few terms; this also
    continues F_a off the disk near x = 1.  Everywhere else it is
    ``f21(HypergeomParams(1, beta + 1, beta + 2), x)``, whose parameters are
    each rounded once.
    """
    beta = _lerch_beta(beta)
    x = complex(x)
    a = beta + 1.0
    t = _lerch_log(a, x) if _near_circle(abs(x), abs(x - 1.0)) else None
    if t is not None:
        return _lerch_expansion(a, x, t, tol)
    return f21(HypergeomParams(1.0, a, beta + 2.0), x, tol)


def _lerch_beta(beta: float) -> float:
    """``beta`` as a float, or ParameterError unless ``-1 < beta < inf``."""
    beta = float(beta)
    if not -1.0 < beta < math.inf:  # NaN included
        raise ParameterError(f"F_a needs a finite a = beta + 1 > 0, got beta = {beta}")
    return beta


def f21_lerch_all(beta: float, x: np.ndarray, tol: float = 1e-13
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`f21_lerch` at each point of the 1-D complex array ``x``, as
    arrays ``(values, est_errors, terms)``: each point takes the route and has
    the bits of its scalar call.  ``bounds._closed_form`` calls it from
    ``bounds._ARRAY_POINTS`` points on, where it beats a loop of scalar calls.

    The points of the series and of Pfaff away from the unit circle (not
    ``_near_circle``), routed by the test ``f21`` makes, have the first
    ``series.SCALAR_TERMS`` terms of their series summed together by one
    ``ratio_sum_all`` call, from real term ratios rounded as the scalar loop
    rounds them; Pfaff's argument and factor are formed per point, as
    ``f21_pfaff`` forms them.  Every other point, a longer sum or a failure
    among them, is its own ``f21_lerch`` call, in input order, so the first
    failing point raises its scalar error.  More than ``LERCH_CHUNK`` points
    are taken in chunks of that many, which bounds the memory a call takes.
    """
    beta = _lerch_beta(beta)
    if x.size > LERCH_CHUNK:
        parts = [f21_lerch_all(beta, x[i:i + LERCH_CHUNK], tol)
                 for i in range(0, x.size, LERCH_CHUNK)]
        return tuple(np.concatenate(v) for v in zip(*parts))
    hp = HypergeomParams(1.0, beta + 1.0, beta + 2.0)
    a, c = hp.b.real, hp.c.real
    r, r1 = np.hypot(x.real, x.imag), np.hypot(x.real - 1.0, x.imag)
    pfaff = _takes_pfaff(x, r, r1)
    # Pfaff's w is NaN at an infinite x, which its own call rejects.
    summed = ((pfaff | (r < 1.0)) & (r < math.inf) & ~_near_circle(r, r1)).nonzero()[0]
    # Each summed series' argument and b: x and b, or Pfaff's w and c - b.
    kind = pfaff[summed].astype(int)
    points = np.array([_pfaff_argument(z) if p else z
                       for z, p in zip(x[summed].tolist(), kind.tolist())], dtype=complex)
    bs = np.array([[a], [(hp.c - hp.b).real]])

    def ratio(n: np.ndarray) -> np.ndarray:
        # f21_series's (a + n)(b + n) / ((c + n)(n + 1)) z at a = 1, real b and
        # c: the quotient of its loop, times z as CPython multiplies by complex(q, 0).
        q = ((1.0 + n) * (bs + n) / ((c + n) * (n + 1.0)))[kind]
        z = points[:, None]
        out = np.empty(q.shape, dtype=complex)
        np.multiply(q, z.real, out=out.real)
        out.real -= 0.0 * z.imag
        np.multiply(q, z.imag, out=out.imag)
        out.imag += 0.0 * z.real
        return out

    value, est = np.zeros(x.size, dtype=complex), np.zeros(x.size)
    terms = np.zeros(x.size, dtype=int)
    value[summed], est[summed], terms[summed] = ratio_sum_all(
        1 + 0j, ratio, np.hypot(points.real, points.imag), tol)
    for i in (pfaff & (terms > 0)).nonzero()[0].tolist():
        z = complex(x[i])
        value[i], est[i], terms[i] = scaled(cpow(1.0 - z, -hp.a), power_rtol(1.0 - z, -hp.a),
                                            (complex(value[i]), float(est[i]), int(terms[i])))
    for i in (terms == 0).nonzero()[0].tolist():
        value[i], est[i], terms[i] = f21_lerch(beta, complex(x[i]), tol)
    return value, est, terms
