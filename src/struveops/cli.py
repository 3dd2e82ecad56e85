"""Command-line front end.

Three subcommands:

    struveops eval <target> ...     point evaluation of one function
    struveops member ...            class membership of a coefficient file
    struveops verify --suite ...    the seeded verification suites

Reports are JSON, one object per line, on stdout; diagnostics go to stderr.
Complex flag values are accepted as ``re+imi`` strings (``0.3+0.1i``, ``-2i``,
``1.5``); values with a leading minus and an imaginary part need the
``--z=-0.5+0.2i`` form so the shell token is not mistaken for a flag.
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
import functools
import json
import math
import sys
from typing import Optional, Sequence

from .bounds import DominantParams, best_dominant_q, sharp_bound_h
from .classes import (
    DEFAULT_RADII,
    ClassParams,
    MobiusTarget,
    membership_samples,
    membership_test,
    verdict_from_samples,
)
from .errors import NumericsError, ParameterError
from .hypergeom import HypergeomParams, f21
from .operator import phi_series
from .series import PowerSeries, evaluate
from .specialfn import StruveParams, generalized_m, normalized_n_series, struve_h, struve_l
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def parse_complex(text: str) -> complex:
    """Parse ``re+imi`` strings; plain reals and pure imaginaries included."""
    s = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        return complex(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from None


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


def _require(args: argparse.Namespace, names: Sequence[str], target: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise ParameterError(f"eval {target} requires {flags}")


EVAL_TARGETS = (
    "struve-h", "struve-l", "struve-m", "struve-n", "f21", "phi", "q", "h-bound",
)


def _tail_estimate(last_coeff: complex, z: complex, order: int) -> float:
    r = abs(z)
    if r >= 1.0:
        return float("nan")
    return abs(last_coeff) * r**order / (1.0 - r)


def cmd_eval(args: argparse.Namespace) -> int:
    target = args.target
    used: dict = {"target": target}
    if target in ("struve-h", "struve-l"):
        _require(args, ("p", "z"), target)
        fn = struve_h if target == "struve-h" else struve_l
        value = fn(args.p, args.z, args.terms)
        refined = fn(args.p, args.z, 2 * args.terms)
        est = abs(value - refined)
        used.update(p=str(args.p), z=str(args.z))
        count = args.terms
    elif target == "struve-m":
        _require(args, ("p", "b", "c", "z"), target)
        sp = StruveParams(args.p, args.b, args.c)
        value = generalized_m(sp, args.z, args.terms)
        est = abs(value - generalized_m(sp, args.z, 2 * args.terms))
        used.update(p=str(args.p), b=str(args.b), c=str(args.c), z=str(args.z))
        count = args.terms
    elif target in ("struve-n", "phi"):
        _require(args, ("p", "b", "c", "z"), target)
        sp = StruveParams(args.p, args.b, args.c)
        series = (normalized_n_series if target == "struve-n" else phi_series)(
            sp, args.order
        )
        value = evaluate(series, args.z)
        est = _tail_estimate(series[series.order], args.z, series.order)
        used.update(p=str(args.p), b=str(args.b), c=str(args.c), z=str(args.z))
        count = args.order
    elif target == "f21":
        _require(args, ("a", "b", "c", "z"), target)
        value = f21(HypergeomParams(args.a, args.b, args.c), args.z, args.tol)
        est = args.tol
        used.update(a=str(args.a), b=str(args.b), c=str(args.c), z=str(args.z))
        count = 0
    elif target == "q":
        _require(args, ("A", "B", "beta", "z"), target)
        dp = DominantParams(args.beta, MobiusTarget(args.A, args.B))
        value = best_dominant_q(dp, args.z, args.nodes)
        coarse = best_dominant_q(dp, args.z, max(8, args.nodes // 2))
        est = abs(value - coarse)
        used.update(A=args.A, B=args.B, beta=args.beta, z=str(args.z))
        count = args.nodes
    elif target == "h-bound":
        _require(args, ("A", "B", "beta", "z"), target)
        dp = DominantParams(args.beta, MobiusTarget(args.A, args.B))
        value = sharp_bound_h(dp, args.z, args.tol)
        est = args.tol
        used.update(A=args.A, B=args.B, beta=args.beta, z=str(args.z))
        count = 0
    else:  # unreachable thanks to argparse choices
        raise ParameterError(f"unknown eval target {target!r}")
    value = complex(value)
    _emit(
        {
            "input": used,
            "value": [value.real, value.imag],
            "terms_or_nodes": count,
            "est_error": None if not math.isfinite(est) else est,
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
        for n, c in enumerate(f.coeffs):  # json accepts NaN, Infinity and 1e999
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient at power {n}: {c}")
        return f
    except (OSError, ValueError, TypeError, IndexError) as exc:
        raise UsageError(f"malformed coefficient file {path!r}: {exc}") from exc


class UsageError(Exception):
    pass


def cmd_member(args: argparse.Namespace) -> int:
    f = _load_coefficients(args.coeffs)
    if not f.is_normalized():
        raise UsageError("coefficient file must describe a normalized series "
                         "(c0 = 0, c1 = 1)")
    cp = ClassParams(
        alpha=args.alpha,
        lam=args.lam,
        mu=args.mu,
        struve=StruveParams(args.p, args.b, args.c),
        target=MobiusTarget(args.A, args.B),
    )
    radii = args.radii if args.radii is not None else DEFAULT_RADII
    if args.dump:
        z, value, margin = membership_samples(cp, f, radii, args.points)
        columns = (z.real, z.imag, value.real, value.imag, margin)
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write("z_re,z_im,j_re,j_im,margin\n")
            for row in zip(*(col.tolist() for col in columns)):
                fh.write(",".join(map(repr, row)) + "\n")
        verdict = verdict_from_samples(z, margin)
    else:
        verdict = membership_test(cp, f, radii, args.points)
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
    p_eval.add_argument("--A", type=float)
    p_eval.add_argument("--B", type=float)
    p_eval.add_argument("--beta", type=float)
    p_eval.add_argument("--terms", type=int, default=64)
    p_eval.add_argument("--order", type=int, default=64)
    p_eval.add_argument("--nodes", type=int, default=128)
    p_eval.add_argument("--tol", type=float, default=1e-13)

    p_member = sub.add_parser("member", help="test class membership of a series")
    p_member.add_argument("--coeffs", required=True,
                          help="JSON file: array of [re, im], index = power of z")
    p_member.add_argument("--alpha", type=float, default=0.0)
    p_member.add_argument("--lambda", dest="lam", type=parse_complex, default=1 + 0j)
    p_member.add_argument("--mu", type=float, default=0.5)
    p_member.add_argument("--p", type=parse_complex, default=0.5 + 0j)
    p_member.add_argument("--b", type=parse_complex, default=1 + 0j)
    p_member.add_argument("--c", type=parse_complex, default=1 + 0j)
    p_member.add_argument("--A", type=float, default=1.0)
    p_member.add_argument("--B", type=float, default=-1.0)
    p_member.add_argument("--radii", type=parse_radii, default=None)
    p_member.add_argument("--points", type=int, default=720)
    p_member.add_argument("--dump", default=None,
                          help="write sampled functional values as CSV")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
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
