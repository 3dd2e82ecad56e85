"""Command-line front end.

Three subcommands:

    struveops eval <target> ...     point evaluation of one function
    struveops member ...            class membership of a coefficient file
    struveops verify --suite ...    the seeded verification suites

Reports are JSON, one object per line, on stdout; diagnostics go to stderr.
Complex flag values are accepted as ``re+imi`` strings (``0.3+0.1i``, ``-2i``,
``1.5``).  A negative value with an imaginary part or an exponent is read as
a flag unless written in ``--flag=value`` form: ``--z=-0.5+0.2i``, ``--B=-1e-3``.
Exit codes: 0 pass, 1 certified fail, 2 argument/usage error, 3 numeric error
(the library's error kind is reported).

Examples::

    struveops eval f21 --a 1 --b 1 --c 2 --z 0.5
    struveops eval q --A 1 --B 0 --beta 1 --z 0.5
    struveops member --coeffs f.json --alpha 0 --lambda 1 --mu 0.5 \\
        --p 0.5 --b 1 --c 1 --A 1 --B -1
    struveops verify --suite recurrence --trials 100 --seed 42 --tol 1e-10
"""

from __future__ import annotations

import argparse
import cmath
import ctypes
import functools
import json
import math
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from .bounds import DominantParams, best_dominant_q, sharp_bound_h
from .classes import (
    DEFAULT_RADII,
    ClassParams,
    MobiusTarget,
    membership_samples,
    verdict_from_samples,
)
from .errors import DomainError, NumericsError, ParameterError
from .hypergeom import HypergeomParams, f21
from .operator import phi
from .series import PowerSeries
from .specialfn import StruveParams, generalized_m, normalized_n, struve_h, struve_l
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def parse_complex(text: str) -> complex:
    """Parse finite ``re+imi`` strings; plain reals and pure imaginaries included."""
    s = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        value = complex(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from None
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def finite_float(text: str) -> float:
    """The type of every real-valued flag: a float that is neither nan nor inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def positive_float(text: str) -> float:
    """The type of ``--tol``: a finite float above 0."""
    value = finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def positive_int(text: str, least: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def seed_int(text: str) -> int:
    """The type of ``--seed``: numpy's seeded generators take no negative seed."""
    return positive_int(text, 0)


#: Largest ``eval q --nodes``, the top rung of q's node ladder: a Gauss-Jacobi
#: rule costs O(n^3) to build (dense eigenvalues), and q builds each rung up
#: to it that it needs.
MAX_NODES = 2048
MAX_SAMPLES = 1_000_000  #: Most ``member`` samples, ``--points`` x radii: 10^6 take ~150 MB.


def node_count(text: str) -> int:
    """The type of ``eval q --nodes``: at most MAX_NODES (below 2 is q's ParameterError)."""
    value = int(text)
    if value > MAX_NODES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_NODES}, got {value}")
    return value


def parse_radii(text: str) -> tuple[float, ...]:
    try:
        radii = tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a radius list: {text!r}") from None
    if not radii:
        raise argparse.ArgumentTypeError("empty radius list")
    return radii


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _struve(args: argparse.Namespace) -> StruveParams:
    return StruveParams(args.p, args.b, args.c)


def _dominant(args: argparse.Namespace) -> DominantParams:
    return DominantParams(args.beta, MobiusTarget(args.A, args.B))


#: eval target -> (required flags, which are also the ``input`` keys, and a
#: function of the parsed arguments giving (value, error estimate, terms or nodes)).
#: Library functions are looked up when called, so rebinding one is honoured.
EVAL_TARGETS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "struve-h": (("p", "z"), lambda a: struve_h(a.p, a.z, a.tol)),
    "struve-l": (("p", "z"), lambda a: struve_l(a.p, a.z, a.tol)),
    "struve-m": (("p", "b", "c", "z"), lambda a: generalized_m(_struve(a), a.z, a.tol)),
    "struve-n": (("p", "b", "c", "z"), lambda a: normalized_n(_struve(a), a.z, a.tol)),
    "f21": (("a", "b", "c", "z"), lambda a: f21(HypergeomParams(a.a, a.b, a.c), a.z, a.tol)),
    "phi": (("p", "b", "c", "z"), lambda a: phi(_struve(a), a.z, a.tol)),
    "q": (("A", "B", "beta", "z"), lambda a: best_dominant_q(_dominant(a), a.z, a.nodes)),
    "h-bound": (("A", "B", "beta", "z"), lambda a: sharp_bound_h(_dominant(a), a.z, a.tol)),
}


def cmd_eval(args: argparse.Namespace) -> int:
    flags, compute = EVAL_TARGETS[args.target]
    inputs = {n: getattr(args, n) for n in flags}
    missing = [f"--{n}" for n, v in inputs.items() if v is None]
    if missing:
        raise ParameterError(f"eval {args.target} requires {', '.join(missing)}")
    value, est, count = compute(args)
    value = complex(value)
    if not cmath.isfinite(value):
        raise DomainError(f"eval {args.target} is not finite here: {value}")
    # Complex flags are echoed as their str(), real ones as numbers.
    inputs = {n: str(v) if isinstance(v, complex) else v for n, v in inputs.items()}
    _emit(
        {
            "input": {"target": args.target, **inputs},
            "value": [value.real, value.imag],
            "terms_or_nodes": count,
            "est_error": est,
        }
    )
    return EXIT_OK


def _load_coefficients(path: str) -> PowerSeries:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("top-level JSON value must be an array")
        f = PowerSeries.from_pairs(data)
        bad = np.flatnonzero(~np.isfinite(f.coeffs))  # json accepts NaN, Infinity and 1e999
        if bad.size:
            raise ValueError(f"non-finite coefficient at power {bad[0]}: {f[bad[0]]}")
        return f
    except (OSError, ValueError, TypeError, IndexError, OverflowError) as exc:
        raise UsageError(f"malformed coefficient file {path!r}: {exc}") from exc


class UsageError(Exception):
    pass


def cmd_member(args: argparse.Namespace) -> int:
    radii = args.radii if args.radii is not None else DEFAULT_RADII
    if len(radii) * args.points > MAX_SAMPLES:
        raise UsageError(f"{len(radii)} radii x {args.points} points exceed "
                         f"{MAX_SAMPLES} samples")
    f = _load_coefficients(args.coeffs)
    if not f.is_normalized():
        raise UsageError("coefficient file must describe a normalized series "
                         "(c0 = 0, c1 = 1)")
    cp = ClassParams(
        alpha=args.alpha,
        lam=args.lam,
        mu=args.mu,
        struve=_struve(args),
        target=MobiusTarget(args.A, args.B),
    )
    z, value, margin = membership_samples(cp, f, radii, args.points)
    if args.dump:
        columns = (z.real, z.imag, value.real, value.imag, margin)
        try:
            with open(args.dump, "w", encoding="utf-8") as fh:
                fh.write("z_re,z_im,j_re,j_im,margin\n")
                for row in zip(*(col.tolist() for col in columns)):
                    fh.write(",".join(map(repr, row)) + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write dump file {args.dump!r}: {exc.strerror}") from exc
    verdict = verdict_from_samples(z, margin)
    _emit(verdict.to_json())
    return EXIT_OK if verdict.passed else EXIT_FAIL


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    total = passed = 0
    for name in names:
        records = run_suite(name, seed=args.seed, trials=args.trials, tol=args.tol)
        suite_pass = 0
        for rec in records:
            _emit(rec)
            total += 1
            suite_pass += bool(rec["passed"])
        passed += suite_pass
        _emit(
            {
                "suite": name,
                "summary": True,
                "checks": len(records),
                "passed": suite_pass,
                "failed": len(records) - suite_pass,
                "seed": args.seed,
            }
        )
    if len(names) > 1:
        _emit(
            {
                "summary": True,
                "suites": len(names),
                "checks": total,
                "passed": passed,
                "failed": total - passed,
                "seed": args.seed,
            }
        )
    return EXIT_OK if passed == total else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="struveops",
        description="Evaluation, membership and verification for the "
                    "Struve-kernel convolution operator library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at a point")
    p_eval.add_argument("target", choices=EVAL_TARGETS)
    p_eval.add_argument("--p", type=parse_complex)
    p_eval.add_argument("--b", type=parse_complex)
    p_eval.add_argument("--c", type=parse_complex)
    p_eval.add_argument("--a", type=parse_complex)
    p_eval.add_argument("--z", type=parse_complex)
    p_eval.add_argument("--A", type=finite_float)
    p_eval.add_argument("--B", type=finite_float)
    p_eval.add_argument("--beta", type=finite_float)
    p_eval.add_argument("--nodes", type=node_count, default=128,
                        help="most Gauss-Jacobi nodes for q; rules of nodes halved "
                             "down to 16 are tried first, smallest first")
    p_eval.add_argument("--tol", type=positive_float, default=1e-13)

    p_member = sub.add_parser("member", help="test class membership of a series")
    p_member.add_argument("--coeffs", required=True,
                          help="JSON file: array of [re, im], index = power of z")
    p_member.add_argument("--alpha", type=finite_float, default=0.0)
    p_member.add_argument("--lambda", dest="lam", type=parse_complex, default=1 + 0j)
    p_member.add_argument("--mu", type=finite_float, default=0.5)
    p_member.add_argument("--p", type=parse_complex, default=0.5 + 0j)
    p_member.add_argument("--b", type=parse_complex, default=1 + 0j)
    p_member.add_argument("--c", type=parse_complex, default=1 + 0j)
    p_member.add_argument("--A", type=finite_float, default=1.0)
    p_member.add_argument("--B", type=finite_float, default=-1.0)
    p_member.add_argument("--radii", type=parse_radii, default=None)
    p_member.add_argument("--points", type=int, default=720)
    p_member.add_argument("--dump", default=None,
                          help="write sampled functional values as CSV")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    p_verify.add_argument("--seed", type=seed_int, default=0)
    p_verify.add_argument("--trials", type=positive_int, default=None)
    p_verify.add_argument("--tol", type=positive_float, default=None)

    return parser


@functools.cache
def keep_freed_heap() -> None:
    """Once per process, have glibc keep up to 64 MiB of freed heap (M_TRIM_THRESHOLD, -1)
    and serve blocks under its own 32 MiB ceiling from it (M_MMAP_THRESHOLD, -3), so that
    a ``member`` call does not fault its ~1 MB of temporaries in again.  Elsewhere a no-op."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform != "win32" else None
    if mallopt is not None:
        mallopt(-1, 64 << 20)
        mallopt(-3, 32 << 20)


def main(argv: Optional[Sequence[str]] = None) -> int:
    keep_freed_heap()
    args = build_parser().parse_args(argv)
    # Looked up per call, so a rebound cmd_* is honoured by the cached parser.
    run = {"eval": cmd_eval, "member": cmd_member, "verify": cmd_verify}[args.command]
    try:
        return run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterError as exc:
        print(f"error [{exc.kind}]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"error [{exc.kind}]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
