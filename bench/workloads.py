"""Seeded inputs, reference values and correctness checks for the workloads.

Every input is a pure function of ``(workload, seed)``: the same seed gives
byte-identical ops and coefficient files, another seed gives different ones.
Each op is the argument list of one ``struveops`` CLI call.  The program
receives only these arguments; the reference values the outputs are checked
against are computed here, in the benchmark process, never in the process
whose time and memory are measured.

verify-replay
    ``verify --suite all --seed s`` with ``s = seed + i``: the paper's replay
    path (bounds, suites and quadrature on its cache-hit path).
member-sweep
    ``member --coeffs <file>`` at the default 10 radii x 720 points over a
    pool of seeded normalized series of order 8..64: the per-point membership
    functional in ``classes``, with the quadrature and 2F1 layers idle.
eval-mix
    One ``eval`` per op from a seeded mix that reaches the Struve series, the
    three 2F1 dispatcher regions and the edge of the unit circle.  The timed
    mix stays inside the region where the program answers at ``EVAL_RTOL``:
    the outer 2F1 route at 1 - |z| >= 1e-2, ``struve-h`` at z <= 10, and q
    and h-bound at 1 - |z| >= 1e-3 and, with B = -1, |1 - z| >= 0.1.  Beyond
    them the program is known to fail (``convergence`` of the 2F1 series as
    |z| -> 1 and of q's quadrature near its pole, ``wrong`` Struve H values
    from cancellation at large z), so each run also evaluates a seeded *edge
    probe* of ``EDGE_OPS`` ops there, outside the timed phase, and reports its
    failures by kind.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("verify-replay", "member-sweep", "eval-mix")

#: The member check compares margins at this absolute tolerance.
MARGIN_TOL = 1e-9
#: The eval check compares values at this relative tolerance.
EVAL_RTOL = 1e-8
#: Containment tolerance the CLI applies to its own verdicts.
CONTAINMENT_TOL = 1e-9

MEMBER_POOL = 48
MEMBER_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
MEMBER_POINTS = 720

# One eval-mix block holds the mix in exact proportions, so every prefix of
# whole blocks has the same composition and the same share of hard inputs.
# Each entry is drawn stratified on its own: the slowest ops (h-bound with
# B = -1 near the unit circle) then come at a fixed rate, which keeps
# op_tail_ms from depending on how many of them a seed happens to draw.
EVAL_BLOCK = (
    ("f21-series", 32), ("f21-pfaff", 32), ("f21-outer", 32),  # 40 % f21
    ("struve-h", 30), ("struve-l", 30),                        # 25 % Struve
    ("q", 22), ("h-bound", 22),                                # 25 % dominant,
    ("q-half", 8), ("h-bound-half", 8),                        #   8 of 30 with B = -1
    ("phi", 12), ("struve-n", 12),                             # 10 % kernel
)
EVAL_BLOCKS = 100
VERIFY_OPS = 1000

#: Timed eval-mix domains: the outer 2F1 route draws 1 - |z| = 10^-U(1, 2);
#: ``struve-h`` draws z log-uniform on [1e-2, 10], ``struve-l`` on [1e-2, 50].
#: Up to 1 - |z| = 1e-2 and z = 10 the program's relative error stays below
#: 1e-10, two decades inside ``EVAL_RTOL``.
F21_OUTER_DECADES = (1.0, 2.0)
STRUVE_H_ZMAX = 10.0
STRUVE_L_ZMAX = 50.0
#: q and h-bound draw 1 - |z| = 10^-U(0, 3); with the half-plane target
#: (B = -1) z also keeps |1 - z| >= POLE_GAP from the pole of q's integrand,
#: which the 32- and 64-node Gauss-Jacobi rules resolve to 1e-11 there.
DOMINANT_DECADES = 3.0
POLE_GAP = 0.1
#: Edge probe, a quarter of each kind: the outer 2F1 route at
#: 1 - |z| = 10^-U(2, 4); ``struve-h`` at z log-uniform on [10, 50]; with
#: B = -1, h-bound at 1 - |z| = 10^-U(3, 4) and q at |1 - z| = 10^-U(1, 3).
EDGE_F21_DECADES = (2.0, 4.0)
EDGE_STRUVE_Z = (STRUVE_H_ZMAX, 50.0)
EDGE_DOMINANT_DECADES = (3.0, 4.0)
EDGE_POLE_DECADES = (1.0, 3.0)
EDGE_KINDS = ("f21-outer", "struve-h", "q", "h-bound")
EDGE_OPS = 64

# Stream ids keep the timed ops, the warm-up ops, the edge probe and the
# files independent.
_TIMED, _WARMUP, _EDGE = 1, 2, 3


@dataclass
class Inputs:
    """Everything one workload run feeds the program, plus what checks it."""

    workload: str
    ops: list[list[str]]
    meta: list[dict]
    warmup: list[list[str]]
    files: dict[str, bytes] = field(default_factory=dict)
    #: Ops outside the timed mix, where the program is known to fail.
    edge: list[list[str]] = field(default_factory=list)
    edge_meta: list[dict] = field(default_factory=list)

    def digest(self) -> str:
        """sha256 over the ops, the warm-up ops, the edge probe and every file."""
        h = hashlib.sha256()
        h.update(json.dumps([self.ops, self.warmup, self.edge], separators=(",", ":")).encode())
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(self.files[name])
        return h.hexdigest()


def generate(workload: str, seed: int, work_dir: str) -> Inputs:
    """Build the inputs of ``workload`` for ``seed``; files go under ``work_dir``."""
    if workload == "verify-replay":
        return _verify_inputs(seed)
    if workload == "member-sweep":
        return _member_inputs(seed, work_dir)
    if workload == "eval-mix":
        return _eval_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(WORKLOADS)}")


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms on [0, 1), one in each of ``n`` equal strata, shuffled."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def _num(x: float) -> str:
    return repr(float(x))


def _cplx(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    return f"{re!r}{'+' if math.copysign(1.0, im) > 0 else ''}{im!r}i"


# --------------------------------------------------------------- verify-replay


def _verify_inputs(seed: int) -> Inputs:
    ops = [["verify", "--suite", "all", "--seed", str(seed + i)] for i in range(VERIFY_OPS)]
    meta = [{"kind": "verify", "seed": seed + i} for i in range(VERIFY_OPS)]
    warmup = [["verify", "--suite", "all", "--trials", "1", "--seed", str(seed + 10**6)]]
    return Inputs("verify-replay", ops, meta, warmup)


def check_verify(meta: dict, rc: int, stdout: str) -> str | None:
    """None when the replay passed and its summaries add up, else the reason."""
    if rc != 0:
        return f"exit {rc}"
    per_suite: dict[str, int] = {}
    suites = total = 0
    final = None
    for line in stdout.splitlines():
        rec = json.loads(line)
        if not rec.get("summary"):
            if rec.get("passed") is not True:
                return f"record {rec.get('suite')}/{rec.get('check')} not passed"
            per_suite[rec["suite"]] = per_suite.get(rec["suite"], 0) + 1
            total += 1
        elif "suite" in rec:
            n = per_suite.get(rec["suite"], 0)
            if (rec["checks"], rec["passed"], rec["failed"], rec["seed"]) != (n, n, 0, meta["seed"]):
                return f"summary of {rec['suite']} inconsistent"
            suites += 1
        else:
            final = rec
    if final is None or (final["suites"], final["checks"], final["passed"], final["failed"]) != (
        suites, total, total, 0
    ) or suites != len(per_suite):
        return "final summary inconsistent"
    return None


# ---------------------------------------------------------------- member-sweep


def _kernel(c: float, k: float, n: int) -> np.ndarray:
    """``(-c/4)^m / ((3/2)_m (k)_m)`` for m = 0 .. n-1."""
    m = np.arange(1, n)
    return np.concatenate(([1.0], np.cumprod((-c / 4.0) / ((m + 0.5) * (k + m - 1.0)))))


def _member_case(rng: np.random.Generator, order: int, rho: float, half_plane: bool) -> dict:
    p = float(rng.uniform(-0.4, 2.0))
    c = float(rng.uniform(-2.0, 2.0))
    if half_plane:
        B, A = -1.0, float(rng.uniform(-0.8, 1.0))
    else:
        B = float(rng.uniform(-0.9, 0.6))
        A = float(rng.uniform(B + 0.1, 1.0))
    raw = (rng.normal(size=order - 1) + 1j * rng.normal(size=order - 1)) / np.arange(2, order + 1) ** 1.5
    # Scale the tail so that sum |a_n kernel_{n-1}(k+1)| = rho < 1: then
    # S_{k+1}f/z lies in the disk |w - 1| < rho on the closed unit disk, never
    # vanishes, and 1/den keeps off (-inf, 0].
    scale = rho / (np.abs(raw) * np.abs(_kernel(c, p + 2.5, order)[1:])).sum()
    coeffs = np.concatenate(([0.0, 1.0], raw * scale))
    return {
        "alpha": float(rng.uniform(-1.2, 1.2)),
        "lam": complex(rng.uniform(-1.5, 2.5), rng.uniform(-0.5, 0.5)),
        "mu": float(rng.uniform(0.1, 0.9)),
        "p": p, "b": 1.0, "c": c, "A": A, "B": B,
        "coeffs": coeffs,
    }


def _member_argv(path: str, case: dict) -> list[str]:
    return [
        "member", f"--coeffs={path}", f"--alpha={_num(case['alpha'])}",
        f"--lambda={_cplx(case['lam'])}", f"--mu={_num(case['mu'])}",
        f"--p={_num(case['p'])}", f"--c={_num(case['c'])}",
        f"--A={_num(case['A'])}", f"--B={_num(case['B'])}",
    ]


def _coeff_bytes(coeffs: np.ndarray) -> bytes:
    return json.dumps([[float(c.real), float(c.imag)] for c in coeffs]).encode()


def _member_inputs(seed: int, work_dir: str) -> Inputs:
    rng = _rng(seed, _TIMED)
    orders = 8 + np.floor(57 * _strata(rng, MEMBER_POOL)).astype(int)
    rhos = 0.02 + 0.88 * _strata(rng, MEMBER_POOL)
    half = rng.permutation(MEMBER_POOL) < MEMBER_POOL // 2
    ops, meta, files = [], [], {}
    for i in range(MEMBER_POOL):
        case = _member_case(_rng(seed, _TIMED, i), int(orders[i]), float(rhos[i]), bool(half[i]))
        name = f"f{i:03d}.json"
        files[name] = _coeff_bytes(case["coeffs"])
        ops.append(_member_argv(f"{work_dir}/{name}", case))
        meta.append({"kind": "member", **case})
    warm = _member_case(_rng(seed, _WARMUP), 32, 0.5, False)
    files["warmup.json"] = _coeff_bytes(warm["coeffs"])
    return Inputs("member-sweep", ops, meta,
                  [_member_argv(f"{work_dir}/warmup.json", warm)], files)


def member_reference(case: dict) -> float:
    """Worst margin of the de-rotated functional over the CLI's samples, in numpy."""
    a = np.asarray(case["coeffs"], dtype=complex)
    order = len(a) - 1
    k = case["p"] + (case["b"] + 2.0) / 2.0
    s_lo = a[1:] * _kernel(case["c"], k, order)
    s_hi = a[1:] * _kernel(case["c"], k + 1.0, order)
    step = 2.0 * math.pi / MEMBER_POINTS
    z = (np.asarray(MEMBER_RADII)[:, None] * np.exp(1j * step * np.arange(MEMBER_POINTS))).ravel()
    den = np.polyval(s_hi[::-1], z)
    num = np.polyval(s_lo[::-1], z)
    pm = np.exp(case["mu"] * np.log(1.0 / den))
    alpha, lam = case["alpha"], case["lam"]
    value = complex(math.cos(alpha), math.sin(alpha)) * ((1.0 + lam) * pm - lam * (num / den) * pm)
    w = (value - 1j * math.sin(alpha)) / math.cos(alpha)
    A, B = case["A"], case["B"]
    if B == -1.0:
        margins = w.real - (1.0 - A) / 2.0
    else:
        margins = (A - B) / (1.0 - B * B) - np.abs(w - (1.0 - A * B) / (1.0 - B * B))
    return float(margins.min())


def check_member(meta: dict, rc: int, stdout: str, reference: float) -> str | None:
    verdict = json.loads(stdout)
    margin, passed = verdict["margin"], verdict["passed"]
    if abs(margin - reference) > MARGIN_TOL:
        return f"margin {margin!r} vs reference {reference!r}"
    if passed != (margin >= -CONTAINMENT_TOL) or rc != (0 if passed else 1):
        return f"verdict passed={passed} inconsistent with margin {margin!r} (exit {rc})"
    if verdict["samples_used"] != len(MEMBER_RADII) * MEMBER_POINTS:
        return f"samples_used {verdict['samples_used']}"
    return None


# -------------------------------------------------------------------- eval-mix


def _eval_block(rng: np.random.Generator) -> list[dict]:
    cases: list[dict] = []
    for entry, n in EVAL_BLOCK:
        kind = entry.removesuffix("-half")
        u, v = _strata(rng, n), _strata(rng, n)
        for i in range(n):
            case = _eval_case(rng, kind, float(u[i]), float(v[i]))
            if entry != kind:  # the half-plane target
                case["B"] = -1.0
                case["A"] = float(rng.uniform(-0.9, 1.0))
                while abs(1.0 - case["z"]) < POLE_GAP:
                    theta = 2.0 * math.pi * float(rng.uniform())
                    case["z"] = abs(case["z"]) * complex(math.cos(theta), math.sin(theta))
            cases.append(case)
    return [cases[j] for j in rng.permutation(len(cases))]


def _eval_case(rng: np.random.Generator, kind: str, u: float, v: float,
               edge: bool = False) -> dict:
    """One eval input; ``u`` and ``v`` are stratified draws for the hard axes.
    ``edge`` moves the outer 2F1 route, ``struve-h``, ``q`` and ``h-bound``
    to the edge probe's domain."""
    if kind.startswith("f21"):
        case = {"kind": kind, "a": float(rng.uniform(-1.5, 2.5)),
                "b": float(rng.uniform(-1.5, 2.5)), "c": float(rng.uniform(0.3, 3.5))}
        if kind == "f21-series":                      # |z| <= 1/2
            r, theta = 0.5 * u, 2.0 * math.pi * v
        elif kind == "f21-pfaff":                     # |z| > 1/2, Re z < 1/2
            r = 0.5 + u
            t0 = math.acos(min(1.0, 0.4 / r))
            theta = t0 + (2.0 * math.pi - 2.0 * t0) * v
        else:                                         # |z| > 1/2, Re z >= 1/2
            lo, hi = EDGE_F21_DECADES if edge else F21_OUTER_DECADES
            r = 1.0 - 10.0 ** (-(lo + (hi - lo) * u))
            theta = math.acos(0.5 / r) * (2.0 * v - 1.0)
        case["z"] = r * complex(math.cos(theta), math.sin(theta))
        return case
    if kind in ("struve-h", "struve-l"):
        # Real order, z log-uniform on [z_lo, z_hi].
        z_lo, z_hi = (EDGE_STRUVE_Z if edge
                      else (1e-2, STRUVE_H_ZMAX if kind == "struve-h" else STRUVE_L_ZMAX))
        return {"kind": kind, "p": -0.9 + 3.9 * v, "z": z_lo * (z_hi / z_lo) ** u}
    if kind in ("q", "h-bound") and edge:
        # Half-plane target (B = -1): h-bound near the unit circle, q near
        # the pole of its integrand at z = 1.
        case = {"kind": kind, "beta": 0.2 + 2.8 * v, "B": -1.0, "A": float(rng.uniform(-0.9, 1.0))}
        if kind == "h-bound":
            lo, hi = EDGE_DOMINANT_DECADES
            theta = 2.0 * math.pi * float(rng.uniform())
            case["z"] = (1.0 - 10.0 ** (-(lo + (hi - lo) * u))) * complex(math.cos(theta), math.sin(theta))
        else:
            lo, hi = EDGE_POLE_DECADES
            phi = 1.2 * (2.0 * float(rng.uniform()) - 1.0)
            case["z"] = 1.0 - 10.0 ** (-(lo + (hi - lo) * u)) * complex(math.cos(phi), math.sin(phi))
        return case
    if kind in ("q", "h-bound"):
        B = float(rng.uniform(-0.95, 0.9))
        r = 1.0 - 10.0 ** (-DOMINANT_DECADES * u)     # |z| up to 1 - 1e-3
        theta = 2.0 * math.pi * float(rng.uniform())
        return {"kind": kind, "beta": 0.2 + 2.8 * v, "B": B,
                "A": float(rng.uniform(B + 0.05, 1.0)),
                "z": r * complex(math.cos(theta), math.sin(theta))}
    # phi / struve-n: the normalized kernel series inside the disk.
    r, theta = 0.95 * u, 2.0 * math.pi * v
    return {"kind": kind, "p": float(rng.uniform(-0.9, 3.0)), "b": float(rng.uniform(0.5, 2.0)),
            "c": float(rng.uniform(-3.0, 3.0)), "z": r * complex(math.cos(theta), math.sin(theta))}


def _eval_argv(case: dict) -> list[str]:
    kind = case["kind"]
    z = f"--z={_cplx(case['z'])}"
    if kind.startswith("f21"):
        return ["eval", "f21", f"--a={_num(case['a'])}", f"--b={_num(case['b'])}",
                f"--c={_num(case['c'])}", z]
    if kind in ("struve-h", "struve-l"):
        return ["eval", kind, f"--p={_num(case['p'])}", f"--z={_num(case['z'])}"]
    if kind in ("q", "h-bound"):
        return ["eval", kind, f"--A={_num(case['A'])}", f"--B={_num(case['B'])}",
                f"--beta={_num(case['beta'])}", z]
    return ["eval", kind, f"--p={_num(case['p'])}", f"--b={_num(case['b'])}",
            f"--c={_num(case['c'])}", z]


def _eval_inputs(seed: int) -> Inputs:
    meta = []
    for block in range(EVAL_BLOCKS):
        meta.extend(_eval_block(_rng(seed, _TIMED, block)))
    warm, seen = [], set()
    for case in _eval_block(_rng(seed, _WARMUP)):
        if case["kind"] not in seen:
            seen.add(case["kind"])
            warm.append(_eval_argv(case))
    edge = _edge_cases(_rng(seed, _EDGE))
    return Inputs("eval-mix", [_eval_argv(c) for c in meta], meta, warm,
                  edge=[_eval_argv(c) for c in edge], edge_meta=edge)


def _edge_cases(rng: np.random.Generator) -> list[dict]:
    cases = []
    for kind in EDGE_KINDS:
        n = EDGE_OPS // len(EDGE_KINDS)
        u, v = _strata(rng, n), _strata(rng, n)
        cases.extend(_eval_case(rng, kind, float(u[i]), float(v[i]), edge=True) for i in range(n))
    return cases


class EvalOracle:
    """Reference values for eval ops: scipy.special first, mpmath to decide.

    A value that agrees with scipy at ``EVAL_RTOL`` is accepted; otherwise
    mpmath at 30 digits decides, so a scipy inaccuracy never counts against
    the program and a program error is never excused by scipy.
    """

    def __init__(self) -> None:
        import mpmath
        import scipy.special

        self.mp = mpmath
        self.sp = scipy.special
        self.mp.mp.dps = 30

    def _fast(self, case: dict) -> complex | None:
        kind, z, sp = case["kind"], case["z"], self.sp
        if kind.startswith("f21"):
            return complex(sp.hyp2f1(case["a"], case["b"], case["c"], complex(z)))
        if kind == "struve-h":
            return complex(sp.struve(case["p"], z))
        if kind == "struve-l":
            return complex(sp.modstruve(case["p"], z))
        if kind in ("q", "h-bound"):
            A, B, beta = case["A"], case["B"], case["beta"]
            if B == 0.0:
                return 1.0 + beta / (beta + 1.0) * A * complex(z)
            # q(z) = beta int_0^1 (1+Azu)/(1+Bzu) u^(beta-1) du
            #      = A/B + (1 - A/B) 2F1(1, beta; beta+1; -Bz)
            return A / B + (1.0 - A / B) * complex(sp.hyp2f1(1.0, beta, beta + 1.0, -B * complex(z)))
        return None  # no scipy form for 1F2

    def _exact(self, case: dict) -> complex:
        kind, z, mp = case["kind"], case["z"], self.mp
        if kind.startswith("f21"):
            return complex(mp.hyp2f1(case["a"], case["b"], case["c"], z))
        if kind == "struve-h":
            return complex(mp.struveh(case["p"], z))
        if kind == "struve-l":
            return complex(mp.struvel(case["p"], z))
        if kind in ("q", "h-bound"):
            A, B, beta = case["A"], case["B"], case["beta"]
            if B == 0.0:
                return 1.0 + beta / (beta + 1.0) * A * complex(z)
            return complex(A / B + (1.0 - A / B) * mp.hyp2f1(1, beta, beta + 1, -B * mp.mpc(z)))
        k = case["p"] + (case["b"] + 2.0) / 2.0
        n = mp.hyp1f2(1, 1.5, k, -case["c"] * mp.mpc(z) / 4)
        return complex(n * z if kind == "phi" else n)

    def check(self, case: dict, value: complex) -> str | None:
        """None when ``value`` matches the reference at ``EVAL_RTOL``."""
        fast = self._fast(case)
        if fast is not None and _close(value, fast):
            return None
        exact = self._exact(case)
        if _close(value, exact):
            return None
        return f"value {value!r} vs reference {exact!r}"


def _close(value: complex, ref: complex) -> bool:
    return math.isfinite(abs(ref)) and abs(value - ref) <= EVAL_RTOL * abs(ref)


def check_eval(oracle: EvalOracle, meta: dict, stdout: str) -> str | None:
    out = json.loads(stdout)
    value = complex(*out["value"])
    if not math.isfinite(abs(value)):
        return f"non-finite value {value!r}"
    return oracle.check(meta, value)
