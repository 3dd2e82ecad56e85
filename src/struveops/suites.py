"""Named verification suites behind ``struveops verify``.

Each suite replays one of the library's certified identities or bound
relations over seeded random draws and returns a list of plain-dict check
records for the CLI to stream as JSON lines.  All randomness flows through
``numpy.random.default_rng([seed, *stream])``, so a given seed reproduces the
report byte for byte, and per-trial streams keep the records independent of
evaluation order.

Suite names, default trial counts and default tolerances:

    recurrence       100 trials   1e-12   three-term operator recurrence
    ode              100 trials   1e-10   kernel coefficient ODE residual
    hypergeom         50 trials   1e-9    series vs Euler vs Pfaff + anchors
    dominant          10 trials   1e-9    closed form vs quadrature + containment
    radius            50 trials   1e-12   sign-change location vs formula
    starlike          20 trials   1e-10   grid positivity + direct derivative
    re-bounds         10 trials   1e-8    closed form vs adaptive quadrature
    modulus-bounds    10 trials   1e-5    nesting, monotonicity, radial limit
    inclusion        100 trials   1e-9    nested-target and convex-combination
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .bounds import (
    DominantParams,
    best_dominant_q,
    bound_report,
    lower_bound_h_minus1,
    modulus_bounds,
    q_starlike_certificate,
    radius_factor,
    radius_positivity,
    re_bounds,
    sharp_bound_h,
)
from .classes import MobiusTarget, lemma3_check, lemma6_check, mobius_image_check
from .errors import ParameterError
from .hypergeom import HypergeomParams, f21_euler, f21_pfaff, f21_series
from .operator import recurrence_residual
from .series import PowerSeries
from .specialfn import StruveParams, is_nonpositive_integer, ode_residual_n


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _record(suite: str, check: str, passed: bool, **extra) -> dict:
    rec = {"suite": suite, "check": check, "passed": bool(passed)}
    rec.update(extra)
    return rec


def _params(params: StruveParams | DominantParams) -> dict:
    """A record's ``params``: ``(p, b, c)`` as ``[re, im]`` pairs, or ``(A, B, beta)``."""
    if isinstance(params, StruveParams):
        return {name: [v.real, v.imag] for name, v in
                (("p", params.p), ("b", params.b), ("c", params.c))}
    return {"A": params.target.A, "B": params.target.B, "beta": params.beta}


def _random_complex(rng: np.random.Generator, scale: float = 2.0) -> complex:
    re, im = rng.uniform(-scale, scale, size=2)
    return complex(re, im)


def _random_struve_params(rng: np.random.Generator) -> StruveParams:
    # Reject k near a nonpositive integer: the kernel coefficients blow up
    # there and residual tolerances are absolute.
    while True:
        p = _random_complex(rng)
        b = _random_complex(rng)
        c = _random_complex(rng)
        k = p + (b + 2.0) / 2.0
        if k.real <= 0.5 and abs(k.imag) < 0.15:
            nearest = round(min(k.real, 0.0))
            if abs(k - nearest) < 0.15:
                continue
        if is_nonpositive_integer(k):
            continue
        return StruveParams(p, b, c)


def _random_normalized_series(rng: np.random.Generator, order: int) -> PowerSeries:
    coeffs = [0j, 1 + 0j]
    for _ in range(order - 1):
        coeffs.append(_random_complex(rng, 1.0))
    return PowerSeries(tuple(coeffs))


def _random_target(rng: np.random.Generator, b_low: float = -0.95,
                   b_high: float = 0.9) -> MobiusTarget:
    B = float(rng.uniform(b_low, b_high))
    gap = min(0.05, 0.5 * (1.0 - B))
    A = float(rng.uniform(B + gap, 1.0))
    return MobiusTarget(A, B)


def run_recurrence(seed: int = 0, trials: int = 100, tol: float = 1e-12) -> list[dict]:
    """Coefficient residual of ``z(S_{k+1}f)' = k S_k f - (k-1) S_{k+1} f``."""
    params = [_random_struve_params(_rng(seed, 1, i)) for i in range(20)]
    records = []
    for i in range(trials):
        f = _random_normalized_series(_rng(seed, 2, i), order=32)
        sp = params[i % len(params)]
        value = recurrence_residual(sp, f)
        records.append(
            _record("recurrence", f"trial-{i:03d}", value <= tol,
                    value=value, tol=tol, params=_params(sp))
        )
    return records


def run_ode(seed: int = 0, trials: int = 100, tol: float = 1e-10,
            order: int = 32) -> list[dict]:
    """Coefficientwise ODE residual of the normalized kernel series."""
    records = []
    for i in range(trials):
        sp = _random_struve_params(_rng(seed, 1, i))
        value = ode_residual_n(sp, order)
        records.append(
            _record("ode", f"trial-{i:03d}", value <= tol,
                    value=value, tol=tol, params=_params(sp))
        )
    return records


def _random_hypergeom_case(rng: np.random.Generator):
    a = _random_complex(rng, 1.5)
    b = complex(rng.uniform(0.4, 2.2))
    c = b + complex(rng.uniform(0.4, 2.2))
    # Keep Re z below the Pfaff threshold so all three routes converge.
    while True:
        z = _random_complex(rng, 0.7)
        if abs(z) <= 0.7 and z.real < 0.35:
            break
    return HypergeomParams(a, b, c), z


def run_hypergeom(seed: int = 0, trials: int = 50, tol: float = 1e-9) -> list[dict]:
    """Three-way series/Euler/Pfaff agreement plus closed-form anchors."""
    records = []
    for i in range(trials):
        hp, z = _random_hypergeom_case(_rng(seed, 1, i))
        s = f21_series(hp, z)
        e = f21_euler(hp, z)
        p = f21_pfaff(hp, z)
        value = max(abs(s - e), abs(s - p))
        records.append(
            _record("hypergeom", f"trial-{i:03d}", value <= tol, value=value, tol=tol)
        )
    anchor_tol = 1e-11
    log_anchor = abs(
        f21_series(HypergeomParams(1, 1, 2), 0.5) - 2.0 * math.log(2.0)
    )
    records.append(
        _record("hypergeom", "anchor-log", log_anchor <= anchor_tol,
                value=log_anchor, tol=anchor_tol)
    )
    rng = _rng(seed, 2)
    worst = 0.0
    for _ in range(10):
        a = complex(rng.uniform(0.2, 2.0))
        b = complex(rng.uniform(0.3, 2.0))
        z = complex(rng.uniform(-0.9, 0.9))
        lhs = f21_series(HypergeomParams(a, b, b), z)
        rhs = (1.0 - z) ** (-a)
        worst = max(worst, abs(lhs - rhs))
    records.append(
        _record("hypergeom", "anchor-binomial", worst <= anchor_tol,
                value=worst, tol=anchor_tol)
    )
    return records


def _random_dominant(rng: np.random.Generator, b_low: float = -0.95,
                     b_high: float = 0.9, beta_low: float = 0.25,
                     beta_high: float = 2.5) -> DominantParams:
    target = _random_target(rng, b_low, b_high)
    beta = float(rng.uniform(beta_low, beta_high))
    return DominantParams(beta, target)


def run_dominant(seed: int = 0, trials: int = 10, tol: float = 1e-9,
                 points: int = 50) -> list[dict]:
    """Closed form vs quadrature for the dominant, plus image containment."""
    records = []
    for i in range(trials):
        rng = _rng(seed, 1, i)
        dp = _random_dominant(rng)
        worst = 0.0
        for _ in range(points):
            r = float(rng.uniform(0.05, 0.9))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            z = r * cmath.exp(1j * theta)
            worst = max(worst, abs(sharp_bound_h(dp, z) - best_dominant_q(dp, z)))
        records.append(
            _record("dominant", f"agreement-{i:02d}", worst <= tol,
                    value=worst, tol=tol,
                    params=_params(dp))
        )
        q = [best_dominant_q(dp, r * cmath.exp(2j * math.pi * j / 240))
             for r in (0.25, 0.5, 0.75, 0.95) for j in range(240)]
        margin = float(mobius_image_check(dp.target, np.array(q)).min())
        records.append(
            _record("dominant", f"containment-{i:02d}", margin >= -1e-9,
                    margin=margin, tol=1e-9)
        )
    return records


def run_radius(seed: int = 0, trials: int = 50, tol: float = 1e-12) -> list[dict]:
    """Bisection of the positivity factor's sign change against the formula."""
    records = []
    for i in range(trials):
        rng = _rng(seed, 1, i)
        c = float(rng.uniform(1e-3, 5.0))
        mu = float(rng.uniform(0.1, 0.9))
        k = float(rng.uniform(0.3, 4.0))
        lam = c * mu * k
        r_formula = radius_positivity(lam, mu, k)
        lo, hi = 0.0, 1.0 - 1e-15
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if radius_factor(lam, mu, k, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        value = abs(0.5 * (lo + hi) - r_formula)
        records.append(
            _record("radius", f"trial-{i:03d}", value <= tol, value=value, tol=tol,
                    params={"c": c})
        )
    anchor = abs(radius_positivity(1.0, 0.5, 2.0) - (math.sqrt(2.0) - 1.0))
    records.append(
        _record("radius", "anchor-sqrt2", anchor <= 1e-14, value=anchor, tol=1e-14)
    )
    return records


def run_starlike(seed: int = 0, trials: int = 20, tol: float = 1e-10) -> list[dict]:
    """Grid positivity of Re(zQ'/Q) and its closed-form/direct agreement."""
    records = []
    for i in range(trials):
        rng = _rng(seed, 1, i)
        target = _random_target(rng, b_low=-0.99, b_high=0.99)
        verdict = q_starlike_certificate(target.A, target.B, grid_r=50, grid_psi=360)
        records.append(
            _record("starlike", f"trial-{i:02d}", verdict.passed,
                    margin=verdict.margin, tol=tol,
                    params={"A": target.A, "B": target.B})
        )
    return records


def _bound_integral(A: float, B: float, beta: float, sign: float) -> float:
    # beta * int_0^1 t^(beta-1) (1 + sign*A t)/(1 + sign*B t) dt via the exact
    # substitution s = t^beta, then adaptive quadrature on the smooth result.
    def integrand(s: float) -> float:
        t = s ** (1.0 / beta)
        return (1.0 + sign * A * t) / (1.0 + sign * B * t)

    value, _ = quad(integrand, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=200)
    return value


def run_re_bounds(seed: int = 0, trials: int = 10, tol: float = 1e-8) -> list[dict]:
    """Closed-form Re bounds against the independent integral representation."""
    records = []
    for i in range(trials):
        rng = _rng(seed, 1, i)
        dp = _random_dominant(rng, b_low=-0.85, b_high=0.85, beta_low=0.25,
                              beta_high=2.0)
        lower, upper = re_bounds(dp)
        value = max(
            abs(lower - _bound_integral(dp.target.A, dp.target.B, dp.beta, -1.0)),
            abs(upper - _bound_integral(dp.target.A, dp.target.B, dp.beta, 1.0)),
        )
        records.append(
            _record("re-bounds", f"trial-{i:02d}", value <= tol, value=value,
                    tol=tol,
                    report=bound_report("re-bounds", dp, (lower, upper), value))
        )
        anchor = abs(lower - lower_bound_h_minus1(dp))
        records.append(
            _record("re-bounds", f"h-minus1-{i:02d}", anchor <= 1e-9,
                    value=anchor, tol=1e-9)
        )
    return records


def run_modulus_bounds(seed: int = 0, trials: int = 10, tol: float = 1e-5) -> list[dict]:
    """Monotone nesting of the modulus interval and its radial limit."""
    grid = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
    records = []
    for i in range(trials):
        rng = _rng(seed, 1, i)
        dp = _random_dominant(rng, b_low=-0.5, b_high=0.5, beta_low=0.2,
                              beta_high=0.8)
        intervals = [modulus_bounds(dp, r) for r in grid]
        monotone = all(
            l2 <= l1 + 1e-12 and u1 <= u2 + 1e-12
            for (l1, u1), (l2, u2) in zip(intervals, intervals[1:])
        )
        records.append(
            _record("modulus-bounds", f"nesting-{i:02d}", monotone,
                    value=0.0 if monotone else 1.0, tol=0.0,
                    params=_params(dp))
        )
        lo_lim, up_lim = modulus_bounds(dp, 1.0 - 1e-6)
        lo_re, up_re = re_bounds(dp)
        value = max(abs(lo_lim - lo_re), abs(up_lim - up_re))
        records.append(
            _record("modulus-bounds", f"limit-{i:02d}", value <= tol,
                    value=value, tol=tol,
                    report=bound_report("modulus-bounds", dp, (lo_lim, up_lim), value))
        )
    return records


def run_inclusion(seed: int = 0, trials: int = 100, tol: float = 1e-9) -> list[dict]:
    """Nested-target containment and convex-combination containment."""
    records = []
    for i in range(trials):
        rng = _rng(seed, 1, i)
        vals = np.sort(rng.uniform(-1.0, 1.0, size=4))
        b1, b2, a2, a1 = (float(v) for v in vals)
        if a2 - b2 < 1e-3:
            a2 = min(1.0, b2 + 1e-3 + float(rng.uniform(0.0, 0.5)))
            a1 = max(a1, a2)
        verdict = lemma6_check(MobiusTarget(a2, b2), MobiusTarget(a1, b1))
        records.append(
            _record("inclusion", f"nested-{i:03d}", verdict.passed,
                    margin=verdict.margin, tol=tol)
        )
    for i in range(trials):
        rng = _rng(seed, 2, i)
        target = _random_target(rng)
        sigma = float(rng.uniform(0.0, 1.0))
        f_vals, g_vals = [], []
        for _ in range(16):
            for out in (f_vals, g_vals):
                if target.is_half_plane:
                    out.append(
                        complex(target.half_plane_edge + rng.uniform(0.01, 3.0),
                                rng.uniform(-3.0, 3.0))
                    )
                else:
                    rho = target.radius * math.sqrt(rng.uniform(0.0, 0.98))
                    ang = rng.uniform(0.0, 2.0 * math.pi)
                    out.append(target.center + rho * cmath.exp(1j * ang))
        verdict = lemma3_check(target, f_vals, g_vals, sigma)
        records.append(
            _record("inclusion", f"convex-{i:03d}", verdict.passed,
                    margin=verdict.margin, tol=tol)
        )
    return records


#: Suite registry in the order ``verify --suite all`` runs them.
SUITES: dict[str, Callable[..., list[dict]]] = {
    "recurrence": run_recurrence,
    "ode": run_ode,
    "hypergeom": run_hypergeom,
    "dominant": run_dominant,
    "radius": run_radius,
    "starlike": run_starlike,
    "re-bounds": run_re_bounds,
    "modulus-bounds": run_modulus_bounds,
    "inclusion": run_inclusion,
}


def run_suite(name: str, seed: int = 0, trials: Optional[int] = None,
              tol: Optional[float] = None) -> list[dict]:
    """Run one registered suite, overriding trial count / tolerance if given."""
    if name not in SUITES:
        raise ParameterError(f"unknown suite {name!r}; choices: {sorted(SUITES)}")
    kwargs = {"seed": seed}
    if trials is not None:
        kwargs["trials"] = trials
    if tol is not None:
        kwargs["tol"] = tol
    return SUITES[name](**kwargs)
