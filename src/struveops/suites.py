"""Named verification suites behind ``struveops verify``.

Each suite replays one of the library's certified identities or bound
relations over seeded random draws and returns a list of plain-dict check
records for the CLI to stream as JSON lines.  All randomness flows through
``numpy.random.default_rng([seed, *stream])``, so a given seed reproduces the
report byte for byte, and per-trial streams keep the records independent of
evaluation order: ``hypergeom`` draws all its trials, then settles their Euler
integrals in one batch.

Suite names, default trial counts and default tolerances:

    recurrence       100 trials   1e-12   three-term operator recurrence
    ode              100 trials   1e-10   kernel coefficient ODE residual
    hypergeom         50 trials   1e-9    series vs Euler vs Pfaff + anchors
    dominant          10 trials   1e-9    closed form vs quadrature + containment
    radius            50 trials   1e-12   sign-change location vs formula
    starlike          20 trials   1e-10   grid positivity + direct derivative
    re-bounds         10 trials   1e-8    closed form vs tanh-sinh quadrature
    modulus-bounds    10 trials   1e-5    nesting, monotonicity, radial limit
    inclusion        100 trials   1e-9    nested-target containment
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Optional

import numpy as np

from .bounds import (
    DominantParams,
    best_dominant_q,
    modulus_bounds,
    q_starlike_certificate,
    radius_factor,
    radius_positivity,
    re_bounds,
    sharp_bound_h,
)
from .classes import CONTAINMENT_TOL, MobiusTarget, lemma6_check, mobius_image_check
from .errors import ConvergenceError, ParameterError
from .hypergeom import HypergeomParams, f21_euler_all, f21_pfaff, f21_series
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


def _bound_report(theorem_id: str, dp: DominantParams, bounds: tuple[float, float],
                  certificate_margin: float) -> dict:
    """A record's ``report`` for a certified bound pair."""
    return {
        "theorem_id": theorem_id,
        "params": _params(dp),
        "lower": bounds[0],
        "upper": bounds[1],
        "certificate_margin": certificate_margin,
    }


def _random_complexes(rng: np.random.Generator, n: int, scale: float = 2.0) -> list[complex]:
    # One (n, 2) draw: the same doubles as n draws of (re, im).
    return [complex(re, im) for re, im in rng.uniform(-scale, scale, size=(n, 2)).tolist()]


def _random_struve_params(rng: np.random.Generator) -> StruveParams:
    # Reject k near a nonpositive integer: the kernel coefficients blow up
    # there and residual tolerances are absolute.
    while True:
        p, b, c = _random_complexes(rng, 3)
        k = p + (b + 2.0) / 2.0
        if k.real <= 0.5 and abs(k.imag) < 0.15:
            nearest = round(min(k.real, 0.0))
            if abs(k - nearest) < 0.15:
                continue
        if is_nonpositive_integer(k):
            continue
        return StruveParams(p, b, c)


def _random_normalized_series(rng: np.random.Generator, order: int) -> PowerSeries:
    return PowerSeries((0j, 1 + 0j, *_random_complexes(rng, order - 1, 1.0)))


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


def run_ode(seed: int = 0, trials: int = 100, tol: float = 1e-10) -> list[dict]:
    """Coefficientwise ODE residual of the normalized kernel series."""
    records = []
    for i in range(trials):
        sp = _random_struve_params(_rng(seed, 1, i))
        value = ode_residual_n(sp, 32)
        records.append(
            _record("ode", f"trial-{i:03d}", value <= tol,
                    value=value, tol=tol, params=_params(sp))
        )
    return records


def _random_hypergeom_case(rng: np.random.Generator):
    a = _random_complexes(rng, 1, 1.5)[0]
    b = complex(rng.uniform(0.4, 2.2))
    c = b + complex(rng.uniform(0.4, 2.2))
    # Keep Re z below the Pfaff threshold so all three routes converge.
    while True:
        z = _random_complexes(rng, 1, 0.7)[0]
        if abs(z) <= 0.7 and z.real < 0.35:
            break
    return HypergeomParams(a, b, c), z


def run_hypergeom(seed: int = 0, trials: int = 50, tol: float = 1e-9) -> list[dict]:
    """Three-way series/Euler/Pfaff agreement plus closed-form anchors."""
    records = []
    cases = [_random_hypergeom_case(_rng(seed, 1, i)) for i in range(trials)]
    for i, ((hp, z), (e, _, _)) in enumerate(zip(cases, f21_euler_all(cases))):
        s = f21_series(hp, z)[0]
        p = f21_pfaff(hp, z)[0]
        value = max(abs(s - e), abs(s - p))
        records.append(
            _record("hypergeom", f"trial-{i:03d}", value <= tol, value=value, tol=tol)
        )
    anchor_tol = 1e-11
    log_anchor = abs(
        f21_series(HypergeomParams(1, 1, 2), 0.5)[0] - 2.0 * math.log(2.0)
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
        lhs = f21_series(HypergeomParams(a, b, b), z)[0]
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


def run_dominant(seed: int = 0, trials: int = 10, tol: float = 1e-9) -> list[dict]:
    """Closed form vs quadrature for the dominant, plus image containment.

    q is evaluated once per trial on the agreement points and once per
    containment circle.  Each z is a Python complex from ``cmath.exp``
    (numpy's vectorised complex ``exp`` can differ in the last bit).
    """
    unit = [cmath.exp(2j * math.pi * j / 240) for j in range(240)]
    circles = [np.array([r * u for u in unit]) for r in (0.25, 0.5, 0.75, 0.95)]
    records = []
    for i in range(trials):
        rng = _rng(seed, 1, i)
        dp = _random_dominant(rng)
        zs = []
        for _ in range(50):
            r = float(rng.uniform(0.05, 0.9))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            zs.append(r * cmath.exp(1j * theta))
        zs = np.array(zs)
        gap = sharp_bound_h(dp, zs)[0] - best_dominant_q(dp, zs)[0]
        worst = float(np.hypot(gap.real, gap.imag).max(initial=0.0))
        records.append(
            _record("dominant", f"agreement-{i:02d}", worst <= tol,
                    value=worst, tol=tol,
                    params=_params(dp))
        )
        q = np.concatenate([best_dominant_q(dp, z)[0] for z in circles])
        margin = float(mobius_image_check(dp.target, q).min())
        records.append(
            _record("dominant", f"containment-{i:02d}", margin >= -CONTAINMENT_TOL,
                    margin=margin, tol=CONTAINMENT_TOL)
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
        verdict = q_starlike_certificate(target.A, target.B)
        records.append(
            _record("starlike", f"trial-{i:02d}", verdict.passed,
                    margin=verdict.margin, tol=tol,
                    params={"A": target.A, "B": target.B})
        )
    return records


def _bound_integral(A: float, B: float, beta: float, sign: float) -> float:
    """``beta int_0^1 t^(beta-1) (1 + sign A t)/(1 + sign B t) dt``, by the exact
    substitution s = t^beta and the tanh-sinh rule (Takahasi & Mori, Publ. RIMS
    9, 1974) on the result: s = 1/(1 + e^(-pi sinh u)) over u in [-4, 4], where
    the weight is below 1e-34, with the step halved until two levels agree to
    1e-13.  Neither the closed form nor a Gauss-Jacobi rule enters it.
    """
    def trapezoid(u: np.ndarray) -> float:
        e = np.exp(-math.pi * np.sinh(np.abs(u)))
        # s and 1 - s, the smaller one as e/(1+e), so it keeps its digits near 0.
        small, large = e / (1.0 + e), 1.0 / (1.0 + e)
        t = np.where(u < 0.0, small, large) ** (1.0 / beta)
        g = (1.0 + sign * A * t) / (1.0 + sign * B * t)
        return float(np.sum(g * (math.pi * np.cosh(u) * small * large)))

    h = 1.0
    value = trapezoid(np.arange(-4.0, 4.5))
    for _ in range(10):
        h /= 2.0
        below, value = value, value / 2.0 + h * trapezoid(np.arange(-4.0 + h, 4.0, 2.0 * h))
        if abs(value - below) <= 1e-13 * max(1.0, abs(value)):
            return value
    raise ConvergenceError(f"tanh-sinh rule for the bound at A={A}, B={B}, beta={beta}, "
                           f"sign={sign} did not settle: step {h} differs by {abs(value - below):g}")


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
                    report=_bound_report("re-bounds", dp, (lower, upper), value))
        )
    return records


def run_modulus_bounds(seed: int = 0, trials: int = 10, tol: float = 1e-5) -> list[dict]:
    """Monotone nesting of the modulus interval and its radial limit."""
    # The grid, the radial limit's radius and r = 1, where the bounds are re_bounds.
    radii = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6, 1.0])
    records = []
    for i in range(trials):
        rng = _rng(seed, 1, i)
        dp = _random_dominant(rng, b_low=-0.5, b_high=0.5, beta_low=0.2,
                              beta_high=0.8)
        *intervals, (lo_lim, up_lim), (lo_re, up_re) = zip(*(v.tolist() for v in
                                                             modulus_bounds(dp, radii)))
        monotone = all(
            l2 <= l1 + 1e-12 and u1 <= u2 + 1e-12
            for (l1, u1), (l2, u2) in zip(intervals, intervals[1:])
        )
        records.append(
            _record("modulus-bounds", f"nesting-{i:02d}", monotone,
                    value=0.0 if monotone else 1.0, tol=0.0,
                    params=_params(dp))
        )
        value = max(abs(lo_lim - lo_re), abs(up_lim - up_re))
        records.append(
            _record("modulus-bounds", f"limit-{i:02d}", value <= tol,
                    value=value, tol=tol,
                    report=_bound_report("modulus-bounds", dp, (lo_lim, up_lim), value))
        )
    return records


def run_inclusion(seed: int = 0, trials: int = 100, tol: float = 1e-9) -> list[dict]:
    """Nested-target containment of Möbius images."""
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
