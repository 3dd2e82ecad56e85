"""Sharp bounds and certificates for the subordination chain.

Everything here is parameterized by the exponent ``beta = mu*k/lambda`` and a
Möbius target (A, B).  The central object is the best dominant

    q(z) = beta * int_0^1 phi(z u) u^(beta-1) du,            phi = (1+Aw)/(1+Bw),

computed by Gauss-Jacobi quadrature whose weight absorbs the u^(beta-1)
endpoint singularity, and its closed form

    h(z) = A/B + (1 - A/B) (1+Bz)^(-1) 2F1(1, 1, beta+1; Bz/(1+Bz))   (B != 0)
    h(z) = 1 + (beta/(beta+1)) A z                                    (B  = 0)

which the 2F1 dispatcher evaluates for every z in the disk (the Pfaff route
turns the argument Bz/(1+Bz) into -Bz, always inside the disk).  The real and
modulus bound pairs are the same closed form at the real arguments +-B and
+-Br.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .classes import MobiusTarget, Verdict
from .errors import ConvergenceError, DomainError, ParameterError
from .hypergeom import HypergeomParams, f21
from .quadrature import jacobi_rule_01


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


def _settled_integral(beta: float, integrand: Callable, nodes: int, what: str, *args):
    """``beta * int_0^1 integrand(t) t^(beta-1) dt`` by Gauss-Jacobi quadrature.

    Evaluated with ``nodes`` and with ``max(8, nodes // 2)`` nodes; a mismatch
    beyond 1e-8 of the value scale is reported as quadrature non-convergence
    of the integral named ``what % args`` (formatted only then: q is called
    ~10^4 times per verify run).
    """
    half_nodes = max(8, nodes // 2)
    t, w = jacobi_rule_01(nodes, 0.0, beta - 1.0)
    full = beta * np.dot(w, integrand(t))
    t, w = jacobi_rule_01(half_nodes, 0.0, beta - 1.0)
    half = beta * np.dot(w, integrand(t))
    if abs(full - half) > 1e-8 * max(1.0, abs(full)):
        raise ConvergenceError(
            f"quadrature for {what % args} did not settle: {nodes} vs {half_nodes} nodes "
            f"differ by {abs(full - half):g}"
        )
    return full


def best_dominant_q(dp: DominantParams, z: complex, nodes: int = 128) -> complex:
    """The dominant ``beta * int_0^1 phi(zu) u^(beta-1) du`` inside the disk.

    Evaluated twice (full and half node count); a mismatch beyond 1e-8 of the
    value scale is reported as quadrature non-convergence.
    """
    if dp.beta <= 0:
        raise ParameterError(f"best dominant needs beta > 0, got {dp.beta}")
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"best dominant defined on |z| < 1, got |z| = {abs(z):g}")
    A, B = dp.target.A, dp.target.B

    def phi_zu(t: np.ndarray) -> np.ndarray:
        zu = z * t
        return (1.0 + A * zu) / (1.0 + B * zu)

    return complex(_settled_integral(dp.beta, phi_zu, nodes, "q(%s)", z))


def sharp_bound_h(dp: DominantParams, z: complex, tol: float = 1e-13) -> complex:
    """Closed form of the best dominant (see module docstring)."""
    if dp.beta <= 0:
        raise ParameterError(f"sharp bound needs beta > 0, got {dp.beta}")
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"sharp bound defined on |z| < 1, got |z| = {abs(z):g}")
    A, B = dp.target.A, dp.target.B
    if B == 0.0:
        return 1.0 + dp.beta / (dp.beta + 1.0) * A * z
    w = B * z / (1.0 + B * z)
    value = f21(HypergeomParams(1.0, 1.0, dp.beta + 1.0), w, tol)
    return A / B + (1.0 - A / B) * value / (1.0 + B * z)


def lower_bound_h_minus1(dp: DominantParams) -> float:
    """Radial limit ``h(-1) = beta int_0^1 (1-At)/(1-Bt) t^(beta-1) dt``.

    The integrand is bounded for every valid target: 1 - Bt only vanishes on
    [0, 1] when B = 1, which B < A <= 1 excludes (B = -1 gives 1 + t).  The
    value, the infimum of Re h over the disk, takes 192 Gauss-Jacobi nodes.
    """
    if dp.beta <= 0:
        raise ParameterError(f"lower bound needs beta > 0, got {dp.beta}")
    A, B = dp.target.A, dp.target.B
    return float(_settled_integral(
        dp.beta, lambda t: (1.0 - A * t) / (1.0 - B * t), 192, "h(-1)"))


def radius_positivity(lam: float, mu: float, k: float) -> float:
    """Radius ``r* = -c + sqrt(c^2 + 1)`` with ``c = |lambda/(mu k)|``.

    The membership functional keeps positive real part on |z| < r*; the
    formula lives in (0, 1) exactly when lambda != 0 and mu*k != 0.
    """
    if mu * k == 0:
        raise ParameterError("mu*k = 0 leaves the ratio |lambda/(mu k)| undefined")
    if lam == 0:
        raise ParameterError("lambda = 0 degenerates the radius to the full disk")
    c = abs(lam / (mu * k))
    return -c + math.sqrt(c * c + 1.0)


def radius_factor(lam: float, mu: float, k: float, r: float) -> float:
    """Positivity factor ``(1 - r^2 - 2 c r) / (1 - r^2)``.

    Positive exactly when r < radius_positivity(lam, mu, k).
    """
    if not 0.0 <= r < 1.0:
        raise ParameterError(f"r must lie in [0, 1), got {r}")
    if mu * k == 0:
        raise ParameterError("mu*k = 0 leaves the ratio |lambda/(mu k)| undefined")
    c = abs(lam / (mu * k))
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


def q_starlike_certificate(A: float, B: float, grid_r: int = 50,
                           grid_psi: int = 360) -> Verdict:
    """Certify starlikeness of ``Q(z) = const * (A-B) z / (1+Bz)^2``.

    Sweeps the closed form of Re(z Q'/Q) over an (r, psi) grid with r < 1 and
    additionally reconciles it against direct quotient-rule differentiation at
    20 fixed interior points (the scalar prefactor cancels, so the certificate
    is independent of A up to parameter validation).
    """
    MobiusTarget(A, B)  # validates -1 <= B < A <= 1
    if grid_r < 1 or grid_psi < 1:
        raise ParameterError("grid sizes must be positive")
    rs = np.linspace(0.99 / grid_r, 0.99, grid_r)
    psis = np.linspace(0.0, 2.0 * math.pi, grid_psi, endpoint=False)
    values = re_zqprime_over_q(B, *np.meshgrid(rs, psis, indexing="ij"))
    idx = np.unravel_index(np.argmin(values), values.shape)
    worst = float(values[idx])
    witness = rs[idx[0]] * cmath.exp(1j * psis[idx[1]])

    rng = np.random.default_rng(20210)
    consistent = True
    for _ in range(20):
        r = float(rng.uniform(0.05, 0.9))
        psi = float(rng.uniform(0.0, 2.0 * math.pi))
        z = r * cmath.exp(1j * psi)
        direct = _zqprime_over_q_direct(B, z).real
        if abs(direct - re_zqprime_over_q(B, r, psi)) > 1e-10:
            consistent = False
            witness = z
            break

    passed = worst > 0.0 and consistent
    return Verdict(
        passed=passed,
        margin=worst,
        witness_z=None if passed else witness,
        samples_used=grid_r * grid_psi + 20,
    )


def re_bounds(dp: DominantParams) -> tuple[float, float]:
    """Extremes of ``Re`` of the dominated functional over the whole disk:
    :func:`modulus_bounds` at ``r = 1``.  For the half-plane target B = -1 the
    image is unbounded above and the upper bound is inf.
    """
    return modulus_bounds(dp, 1.0)


def modulus_bounds(dp: DominantParams, r: float) -> tuple[float, float]:
    """Modulus extremes of the de-rotated functional on ``|z| <= r``:

        A/B + (1 - A/B) 2F1(1, beta, beta+1; +-B r)               (B != 0)
        1 -+ (beta/(beta+1)) A r                                  (B  = 0)

    for ``0 <= r <= 1``; the intervals nest and ``r = 1`` gives the Re bounds.
    At ``B r = -1`` the upper 2F1 argument hits +1, where the function
    diverges, and the upper bound is inf.
    """
    if dp.beta < 0:
        raise ParameterError(f"bounds need beta >= 0, got {dp.beta}")
    if not 0.0 <= r <= 1.0:
        raise ParameterError(f"r must lie in [0, 1], got {r}")
    A, B = dp.target.A, dp.target.B
    if B == 0.0:
        d = dp.beta / (dp.beta + 1.0) * A * r
        return 1.0 - d, 1.0 + d
    hp = HypergeomParams(1.0, dp.beta, dp.beta + 1.0)
    lower = A / B + (1.0 - A / B) * f21(hp, B * r).real
    if B * r == -1.0:
        return lower, math.inf
    upper = A / B + (1.0 - A / B) * f21(hp, -B * r).real
    return lower, upper


def bound_report(theorem_id: str, dp: DominantParams,
                 bounds: tuple[float, float],
                 certificate_margin: Optional[float] = None) -> dict:
    """JSON-ready record for a certified bound pair."""
    return {
        "theorem_id": theorem_id,
        "params": {"A": dp.target.A, "B": dp.target.B, "beta": dp.beta},
        "lower": bounds[0],
        "upper": bounds[1],
        "certificate_margin": certificate_margin,
    }


def briot_bouquet_target(A: float, B: float, lam: float, mu: float, k: float,
                         z: complex, statement_variant: bool = False) -> complex:
    """Perturbed target ``(1+Az)/(1+Bz) + coef (A-B) z/(1+Bz)^2``.

    The consistent perturbation coefficient is ``lambda/(mu k)`` (the factor
    multiplying z p'(z) in the governing differential expression);
    ``statement_variant=True`` evaluates the transposed coefficient
    ``lambda mu / k`` for comparison.
    """
    MobiusTarget(A, B)
    if mu * k == 0:
        raise ParameterError("mu*k = 0 leaves the perturbation undefined")
    z = complex(z)
    coef = lam * mu / k if statement_variant else lam / (mu * k)
    return (1.0 + A * z) / (1.0 + B * z) + coef * (A - B) * z / (1.0 + B * z) ** 2
