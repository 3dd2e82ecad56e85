"""Acceptance suite: every certified property at its pinned tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them) and
asserts both the property and its runtime budget.  Seeds are fixed so the
whole suite is reproducible; the same checks are reachable from the command
line through ``struveops verify``.
"""

import cmath
import math
import time

import numpy as np

from struveops import (
    ClassParams,
    DominantParams,
    MobiusTarget,
    PowerSeries,
    StruveParams,
    apply_s,
    membership_samples,
    re_zqprime_over_q,
    sharp_bound_h,
)
from struveops.suites import (
    _bound_integral,
    run_dominant,
    run_hypergeom,
    run_inclusion,
    run_modulus_bounds,
    run_ode,
    run_radius,
    run_re_bounds,
    run_recurrence,
    run_starlike,
)

SEED = 42


def report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status}  {criterion}: {detail} [{elapsed:.2f}s < {budget:.0f}s]")
    assert ok, f"{criterion}: {detail}"
    assert elapsed < budget, f"{criterion}: runtime {elapsed:.2f}s over budget"


def test_criterion_01_recurrence_certificate():
    t0 = time.perf_counter()
    records = run_recurrence(seed=SEED, trials=100, tol=1e-12)
    elapsed = time.perf_counter() - t0
    worst = max(r["value"] for r in records)
    ok = all(r["passed"] for r in records) and len(records) == 100
    report("criterion-01 recurrence", ok,
           f"100 series x 20 param draws, max residual {worst:.3e} <= 1e-12",
           elapsed, 5.0)


def test_criterion_02_ode_certificate():
    t0 = time.perf_counter()
    records = run_ode(seed=SEED, trials=100, tol=1e-10)
    elapsed = time.perf_counter() - t0
    worst = max(r["value"] for r in records)
    ok = all(r["passed"] for r in records) and len(records) == 100
    report("criterion-02 ode", ok,
           f"100 param draws, max residual {worst:.3e} <= 1e-10", elapsed, 2.0)


def test_criterion_03_hypergeom_three_way():
    t0 = time.perf_counter()
    records = run_hypergeom(seed=SEED, trials=50, tol=1e-9)
    elapsed = time.perf_counter() - t0
    trials = [r for r in records if r["check"].startswith("trial")]
    anchors = [r for r in records if r["check"].startswith("anchor")]
    worst = max(r["value"] for r in trials)
    ok = (
        len(trials) == 50
        and all(r["passed"] for r in trials)
        and len(anchors) == 2
        and all(r["passed"] for r in anchors)
    )
    report("criterion-03 hypergeom", ok,
           f"50 triplets, max spread {worst:.3e} <= 1e-9; anchors <= 1e-11",
           elapsed, 5.0)


def test_criterion_04_best_dominant_consistency():
    t0 = time.perf_counter()
    records = run_dominant(seed=SEED, trials=10, tol=1e-9)
    elapsed = time.perf_counter() - t0
    agreement = [r for r in records if r["check"].startswith("agreement")]
    containment = [r for r in records if r["check"].startswith("containment")]
    worst = max(r["value"] for r in agreement)
    worst_margin = min(r["margin"] for r in containment)
    ok = (
        len(agreement) == 10
        and len(containment) == 10
        and all(r["passed"] for r in records)
    )
    report("criterion-04 dominant", ok,
           f"h vs q max {worst:.3e} <= 1e-9; containment margin {worst_margin:.3e} >= -1e-9",
           elapsed, 10.0)


def test_criterion_05_sharpness_limit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_gap = 0.0
    monotone = True
    for _ in range(10):
        B = float(rng.uniform(-0.85, 0.5))
        A = float(rng.uniform(B + 0.1, min(1.0, B + 1.05)))
        beta = float(rng.uniform(0.2, 0.8))
        dp = DominantParams(beta, MobiusTarget(A, B))
        values = [
            sharp_bound_h(dp, -r)[0].real for r in (0.5, 0.9, 0.99, 1.0 - 1e-6)
        ]
        monotone &= all(v1 > v2 for v1, v2 in zip(values, values[1:]))
        gap = abs(values[-1] - _bound_integral(A, B, beta, -1.0))
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - t0
    ok = monotone and worst_gap <= 1e-6
    report("criterion-05 sharpness", ok,
           f"Re h(-r) decreasing, gap at r=1-1e-6 {worst_gap:.3e} <= 1e-6",
           elapsed, 5.0)


def test_criterion_06_radius_theorem():
    t0 = time.perf_counter()
    records = run_radius(seed=SEED, trials=50, tol=1e-12)
    elapsed = time.perf_counter() - t0
    trials = [r for r in records if r["check"].startswith("trial")]
    anchor = [r for r in records if r["check"] == "anchor-sqrt2"]
    worst = max(r["value"] for r in trials)
    ok = (
        len(trials) == 50
        and all(r["passed"] for r in trials)
        and anchor and anchor[0]["passed"]
    )
    report("criterion-06 radius", ok,
           f"bisection agreement {worst:.3e} <= 1e-12; sqrt(2)-1 anchor <= 1e-14",
           elapsed, 1.0)


def test_criterion_07_starlikeness():
    t0 = time.perf_counter()
    records = run_starlike(seed=SEED, trials=20)
    # independent direct differentiation (local quotient rule, not library code)
    rng = np.random.default_rng(SEED + 7)
    worst_diff = 0.0
    for _ in range(20):
        B = float(rng.uniform(-0.95, 0.95))
        r = float(rng.uniform(0.05, 0.9))
        psi = float(rng.uniform(0.0, 2.0 * math.pi))
        z = r * cmath.exp(1j * psi)
        den = (1.0 + B * z) ** 2
        qprime = (den - z * 2.0 * B * (1.0 + B * z)) / den**2
        direct = (z * qprime / (z / den)).real
        worst_diff = max(worst_diff, abs(direct - re_zqprime_over_q(B, r, psi)))
    elapsed = time.perf_counter() - t0
    worst_margin = min(r["margin"] for r in records)
    ok = (
        len(records) == 20
        and all(r["passed"] for r in records)
        and worst_margin > 0.0
        and worst_diff <= 1e-10
    )
    report("criterion-07 starlike", ok,
           f"grid min {worst_margin:.3e} > 0; direct-diff max {worst_diff:.3e} <= 1e-10",
           elapsed, 5.0)


def test_criterion_08_re_and_modulus_bounds():
    t0 = time.perf_counter()
    re_records = run_re_bounds(seed=SEED, trials=10, tol=1e-8)
    mod_records = run_modulus_bounds(seed=SEED, trials=10)
    elapsed = time.perf_counter() - t0
    worst = max(r["value"] for r in re_records if r["check"].startswith("trial"))
    ok = all(r["passed"] for r in re_records) and all(r["passed"] for r in mod_records)
    report("criterion-08 bound-pairs", ok,
           f"integral oracle gap {worst:.3e} <= 1e-8; modulus nesting + radial limit",
           elapsed, 10.0)


def test_criterion_09_inclusion_machinery():
    t0 = time.perf_counter()
    records = run_inclusion(seed=SEED, trials=100)
    elapsed = time.perf_counter() - t0
    nested = [r for r in records if r["check"].startswith("nested")]
    ok = len(nested) == len(records) == 100 and all(r["passed"] for r in records)
    report("criterion-09 inclusion", ok, "100 nested quadruples contained", elapsed, 2.0)


def test_criterion_10_identity_anchors():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    f = PowerSeries.identity(32)
    worst = 0.0
    for _ in range(30):
        while True:
            p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            k = p + (b + 2) / 2
            if abs(k.imag) >= 0.15 or k.real >= 0.5 or abs(k - round(min(k.real, 0))) >= 0.15:
                break
        B = float(rng.uniform(-1.0, 0.8))
        A = float(rng.uniform(B + 0.05, 1.0))
        cp = ClassParams(
            alpha=float(rng.uniform(-1.4, 1.4)),
            lam=complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            mu=float(rng.uniform(0.05, 0.95)),
            struve=StruveParams(p, b, c),
            target=MobiusTarget(A, B),
        )
        r = float(rng.uniform(0.05, 0.9))
        j = membership_samples(cp, f, (r,), 16)[1]
        worst = max(worst, float(np.abs(j - 1.0).max()))
    # degenerate kernel: c = 0 reduces every normalized series to z, exactly
    exact = True
    for _ in range(10):
        coeffs = (0, 1) + tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(14)
        )
        sp = StruveParams(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), 1.0, 0.0
        )
        out = apply_s(sp, PowerSeries(coeffs))
        exact &= out.coeffs.tolist() == [0, 1] + [0] * 14
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-14 and exact
    report("criterion-10 identity", ok,
           f"|J - 1| max {worst:.3e} <= 1e-14 for f = z; c=0 collapse exact",
           elapsed, 1.0)
