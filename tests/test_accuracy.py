"""The error contract of the series targets: every value is within the
``est_error`` it reports of a 30-digit mpmath reference (K = 1), or the
evaluator raises a NumericsError.

Inputs are seeded draws over the domains the benchmark's eval mix times:
the three 2F1 routes (the outer one with 1 - |z| down to 1e-3, up to about
40,000 terms), ``struve-h`` for z <= 10, ``struve-l`` for z <= 50, the
generalized family, the normalized kernel N and phi = z N inside the disk;
h-bound over its whole accepted domain, against a 40-digit reference:
-1 <= B < A <= 1 (B = -1, 0 and +-1e-12 among them), beta in [0.2, 3] and
{10, 100, 1000}, every angle, 1 - |z| down to 1e-8;
and the Euler integral over the draws of the ``hypergeom`` verify suite.
At 40 digits: 2F1 with complex parameters in the numpy blocks of its long
sums; the dominant q near its pole at z = -1/B and, with h(-1), at beta down
to 1e-13; h at B = 0 and at B within 1e-8 of it; and gamma and the
generalized Struve function next to a pole of gamma.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from struveops import (
    ConvergenceError,
    DominantParams,
    HypergeomParams,
    MobiusTarget,
    NumericsError,
    StruveParams,
    best_dominant_q,
    f21,
    f21_euler,
    gamma,
    generalized_m,
    normalized_n,
    phi,
    re_bounds,
    sharp_bound_h,
    struve_h,
    struve_l,
)
from struveops.series import SCALAR_TERMS
from struveops.specialfn import GAMMA_RTOL

CASES = 300


def _disk_point(rng, r):
    t = 2.0 * math.pi * rng.uniform()
    return r * complex(math.cos(t), math.sin(t))


def _f21_case(rng, route):
    a, b, c = rng.uniform(-1.5, 2.5), rng.uniform(-1.5, 2.5), rng.uniform(0.3, 3.5)
    if route == "series":            # |z| <= 1/2
        z = _disk_point(rng, 0.5 * rng.uniform())
    elif route == "pfaff":           # |z| > 1/2, Re z < 1/2
        r = 0.5 + rng.uniform()
        t0 = math.acos(min(1.0, 0.4 / r))
        t = t0 + (2.0 * math.pi - 2.0 * t0) * rng.uniform()
        z = r * complex(math.cos(t), math.sin(t))
    else:                            # |z| > 1/2, Re z >= 1/2, 1 - |z| >= 1e-3
        r = 1.0 - 10.0 ** -rng.uniform(1.0, 3.0)
        t = math.acos(0.5 / r) * (2.0 * rng.uniform() - 1.0)
        z = r * complex(math.cos(t), math.sin(t))
    return (lambda: f21(HypergeomParams(a, b, c), z),
            lambda: mpmath.hyp2f1(a, b, c, z))


def _kernel_params(rng):
    return StruveParams(rng.uniform(-0.9, 3.0), rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0))


def _m_reference(sp, z):
    p, k, c = (mpmath.mpmathify(v) for v in (sp.p, sp.k, sp.c))
    w = mpmath.mpmathify(z) / 2
    return (w ** (p + 1) / (mpmath.gamma(1.5) * mpmath.gamma(k))
            * mpmath.hyp1f2(1, 1.5, k, -c * w * w))


def _struve_case(rng, target):
    p = rng.uniform(-0.9, 3.0)
    z = 1e-2 * (1e3 if target == "struve-h" else 5e3) ** rng.uniform()
    if target == "struve-h":
        return lambda: struve_h(p, z), lambda: mpmath.struveh(p, z)
    return lambda: struve_l(p, z), lambda: mpmath.struvel(p, z)


def _m_case(rng):
    sp = _kernel_params(rng)
    z = 1e-2 * 1e3 ** rng.uniform()
    return lambda: generalized_m(sp, z), lambda: _m_reference(sp, z)


def _n_case(rng, target):
    sp = _kernel_params(rng)
    z = _disk_point(rng, 0.95 * rng.uniform())

    def reference():
        n = mpmath.hyp1f2(1, 1.5, sp.k, -mpmath.mpmathify(sp.c) * z / 4)
        return n * z if target == "phi" else n
    return (lambda: (phi if target == "phi" else normalized_n)(sp, z)), reference


def _h_case(rng):
    # A quarter of the draws at large beta, where near the unit circle the
    # expansion in Log x leaves no digit and the series past 100,000 terms
    # raises; 30 % on the half-plane target and 10 % at B = 0 or +-1e-12.
    beta = rng.uniform(0.2, 3.0) if rng.uniform() < 0.75 else float(rng.choice([10, 100, 1000]))
    u = rng.uniform()
    B = -1.0 if u < 0.3 else float(rng.choice([0.0, 1e-12, -1e-12])) if u < 0.4 \
        else rng.uniform(-1.0, 1.0)
    A = rng.uniform(B, 1.0)
    z = _disk_point(rng, 1.0 - 10.0 ** (-8.0 * rng.uniform()))
    dp = DominantParams(beta, MobiusTarget(A, B))

    def reference():
        with mpmath.workdps(40):
            return complex(_h_reference(A, B, beta, z))
    return lambda: sharp_bound_h(dp, z), reference


def _h_reference(A, B, beta, z):
    # The closed form without A/B, whose division loses digits as B -> 0.
    A, B, beta, z = (mpmath.mpmathify(v) for v in (A, B, beta, z))
    return 1 + (A - B) * z * beta / (beta + 1) * mpmath.hyp2f1(1, beta + 1, beta + 2, -B * z)


def _euler_case(rng):
    # The hypergeom suite's draws: real 0 < b < c, complex a, |z| <= 0.7, Re z < 0.35.
    a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    b = rng.uniform(0.4, 2.2)
    c = b + rng.uniform(0.4, 2.2)
    while True:
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(z) <= 0.7 and z.real < 0.35:
            break
    return lambda: f21_euler(HypergeomParams(a, b, c), z), lambda: mpmath.hyp2f1(a, b, c, z)


TARGETS = {
    "f21-series": lambda rng: _f21_case(rng, "series"),
    "f21-pfaff": lambda rng: _f21_case(rng, "pfaff"),
    "f21-outer": lambda rng: _f21_case(rng, "outer"),
    "struve-h": lambda rng: _struve_case(rng, "struve-h"),
    "struve-l": lambda rng: _struve_case(rng, "struve-l"),
    "struve-m": _m_case,
    "struve-n": lambda rng: _n_case(rng, "struve-n"),
    "phi": lambda rng: _n_case(rng, "phi"),
    "h-bound": _h_case,
    "f21-euler": _euler_case,
}


@pytest.mark.parametrize("target", TARGETS)
def test_value_within_reported_error(target):
    rng = np.random.default_rng([2019, list(TARGETS).index(target)])
    checked = 0
    for i in range(CASES):
        compute, reference = TARGETS[target](rng)
        try:
            value, est, _ = compute()
        except NumericsError:
            continue
        with mpmath.workdps(30):
            error = abs(value - complex(reference()))
        assert error <= est, f"{target} case {i}: error {error:.3g} > est_error {est:.3g}"
        checked += 1
    assert checked >= CASES // 2


def test_f21_negative_c_within_reported_error():
    # With c < 0 the terms can dip below tol and swell again near n = -Re c,
    # where the series once stopped with a tail bound that did not hold.  A
    # 30-digit mpmath is itself wrong on some of these draws.
    rng = np.random.default_rng(7)
    checked = 0
    for i in range(200):
        a, b, c = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(-120.0, 0.0)
        z = _disk_point(rng, 0.99 * math.sqrt(rng.uniform()))
        try:
            value, est, _ = f21(HypergeomParams(a, b, c), z)
        except NumericsError:
            continue
        with mpmath.workdps(60):
            error = abs(value - complex(mpmath.hyp2f1(a, b, c, z)))
        assert error <= est, f"case {i}: error {error:.3g} > est_error {est:.3g}"
        checked += 1
    assert checked >= 150


@pytest.mark.parametrize("a,b,c,z", [
    (1.0, 1e-10, 2.0, 0.5), (0.7, 1e-6, 1.5, -0.6), (2.0, 1e-13, 1.0, 0.3 + 0.2j),
    (1.0, 1e-3, 1e-3 + 1e-10, 0.5), (0.7, 0.3, 0.3 + 1e-7, -0.5j),
])
def test_f21_euler_small_exponents_within_reported_error(a, b, c, z):
    # The rules integrate t^(Re b - 1) (1-t)^(Re(c-b) - 1) with both exponents
    # rounded.  A gamma prefactor at b and c - b themselves put these 8.3e-8,
    # 2.9e-11, 3.1e-4, 1.6e-7 and 5.1e-10 off, against est_errors near 3e-13.
    value, est, _ = f21_euler(HypergeomParams(a, b, c), z)
    with mpmath.workdps(40):
        exact = complex(mpmath.hyp2f1(a, b, c, z))
    assert abs(value - exact) <= est


def test_f21_euler_complex_exponents_within_reported_error():
    # Imaginary parts of b and c - b stay in the integrand as t^(i Im b),
    # which is not analytic at t = 0: the rungs converge slowly, and at 256
    # nodes the value is still 6.2e-7 off.
    hp = HypergeomParams(complex(0.5, 0.1), complex(1.2, 0.3), complex(2.7, -0.2))
    z = complex(-0.4, 0.2)
    with mpmath.workdps(30):
        exact = complex(mpmath.hyp2f1(hp.a, hp.b, hp.c, z))
    for nodes in (64, 128, 256):
        value, est, used = f21_euler(hp, z, nodes)
        assert used == nodes and abs(value - exact) <= est
    assert 5e-7 < abs(value - exact) < 1e-6
    # Where the rungs have not begun to converge the bound passes |value|:
    # this integral once returned 41.4 + 14.8i with est 84.5, no digit right.
    with pytest.raises(ConvergenceError, match="no correct digit"):
        f21_euler(HypergeomParams(1, complex(0.1, 1.0), 0.3), 0.6)


def test_f21_complex_parameters_in_blocks_within_reported_error():
    # The outer route's draws above are real.  Here a, b and c are complex,
    # and every sum runs past SCALAR_TERMS into the numpy blocks, which round
    # as numpy's complex arithmetic does.
    rng = np.random.default_rng(1502)
    checked = 0
    with mpmath.workdps(40):
        for i in range(60):
            a, b, c = (complex(rng.uniform(lo, hi), rng.uniform(-2.0, 2.0))
                       for lo, hi in ((-1.5, 2.5), (-1.5, 2.5), (0.3, 3.5)))
            r = 1.0 - 10.0 ** -rng.uniform(2.0, 3.0)
            z = r * cmath.exp(1j * math.acos(0.5 / r) * (2.0 * rng.uniform() - 1.0))
            try:
                value, est, terms = f21(HypergeomParams(a, b, c), z)
            except NumericsError:
                continue
            assert terms > 2 * SCALAR_TERMS
            error = abs(value - complex(mpmath.hyp2f1(a, b, c, z)))
            assert error <= est, f"case {i}: error {error:.3g} > est_error {est:.3g}"
            checked += 1
    assert checked >= 50


def test_q_near_the_unit_circle_within_reported_error():
    # B = -1 puts the pole of phi on the unit circle.  The rules of
    # scipy.special.roots_jacobi left q up to 4.2e-12 off here, beyond the gap
    # it reported, and a gap of 0 between exact rules once reported 0.0 for a
    # value 1 ulp off.
    rng = np.random.default_rng(1969)
    cases = [(1.0, 1.0, 0.99),
             (0.21379527362795125, 0.4719382483185858,
              complex(0.9831317928092228, 0.011847204080945294))]
    for _ in range(40):
        cases.append((rng.uniform(-0.9, 1.0), rng.uniform(0.2, 3.0),
                      _disk_point(rng, rng.uniform(0.95, 0.99))))
    with mpmath.workdps(40):
        for i, (A, beta, z) in enumerate(cases):
            q, est, _ = best_dominant_q(DominantParams(beta, MobiusTarget(A, -1.0)), z)
            exact = -A + (1 + A) * mpmath.hyp2f1(1, beta, beta + 1, mpmath.mpmathify(z))
            error = abs(q - complex(exact))
            assert error <= est, f"case {i}: error {error:.3g} > est_error {est:.3g}"


@pytest.mark.parametrize("beta", [1e-6, 1e-10, 1e-13])
def test_q_and_h_minus1_at_small_beta_within_reported_error(beta):
    # The rules for the exponent beta - 1 have weights that sum to
    # 1/((beta - 1) + 1).  With beta as their factor, q and h(-1) were off by
    # the relative (beta - 1 + 1)/beta - 1: 8.3e-8 at beta = 1e-10, reporting
    # 3.8e-15.  h(-1), the lower Re bound, reports no error and is held to
    # 1e-14.
    with mpmath.workdps(40):
        for A, B, z in ((1.0, 0.0, 0.5), (0.5, -1.0, complex(0.3, 0.8)), (0.9, 0.4, -0.95)):
            dp = DominantParams(beta, MobiusTarget(A, B))
            q, est, _ = best_dominant_q(dp, z)
            error = float(abs(q - _h_reference(A, B, beta, z)))
            assert error <= est, (A, B, z, error, est)
            error = float(abs(re_bounds(dp)[0] - _h_reference(A, B, beta, -1.0).real))
            assert error <= 1e-14, (A, B, error)


@pytest.mark.parametrize("B", [0.0, 1e-8, -1e-8, 1e-12, -1e-12])
def test_h_near_b_zero_within_reported_error(B):
    # The A/B form of h lost digits as 1/|B|: at B = -1e-12 its real part
    # printed 1.0 for 0.999999999999865, with an est_error of 1.8e-3.
    with mpmath.workdps(40):
        for A, beta, z in ((0.5, 1.0, 0.9j), (1.0, 0.3, complex(-0.6, 0.7)),
                           (0.2, 2.5, 0.99), (0.9, 0.75, complex(0.1, -0.2))):
            value, est, _ = sharp_bound_h(DominantParams(beta, MobiusTarget(A, B)), z)
            error = float(abs(value - _h_reference(A, B, beta, z)))
            assert error <= est <= 1e-13 * max(1.0, abs(value)), (A, beta, z, error, est)


def test_h_on_the_half_plane_target_answers_out_to_1e_8():
    # B = -1 is the paper's main case and member's default.  The 2F1 series
    # raised ConvergenceError past 1 - |z| ~ 4e-4; the expansion in Log x
    # answers every angle there, within its error.
    rng = np.random.default_rng(1953)
    with mpmath.workdps(40):
        for i in range(100):
            A, beta = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 3.0)
            z = _disk_point(rng, 1.0 - 10.0 ** -rng.uniform(3.0, 8.0))
            value, est, _ = sharp_bound_h(DominantParams(beta, MobiusTarget(A, -1.0)), z)
            error = abs(value - complex(_h_reference(A, -1.0, beta, z)))
            assert error <= est <= 1e-10 * abs(value), (i, A, beta, z, error, est)


@pytest.mark.parametrize("z", [complex(-2.0 + 1e-6), complex(-3.0 + 1e-9, 1e-3)])
def test_gamma_next_to_a_pole_within_its_rtol(z):
    # sin(pi z) through the rounded product pi z was 1.6e-10 off at -2 + 1e-6.
    with mpmath.workdps(40):
        exact = complex(mpmath.gamma(mpmath.mpmathify(z)))
    assert abs(gamma(z) - exact) <= GAMMA_RTOL * abs(exact)


def test_m_next_to_a_pole_of_gamma_within_reported_error():
    # k = p + 3/2 = -2 + 1e-6: the value was 4.5e-13 off, reporting 4.5e-16.
    sp = StruveParams(-3.5 + 1e-6, 1.0, 1.0)
    value, est, _ = generalized_m(sp, 0.7)
    with mpmath.workdps(40):
        error = abs(value - complex(_m_reference(sp, 0.7)))
    assert error <= est
