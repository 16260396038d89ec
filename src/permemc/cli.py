"""Command-line surface.

Machine-readable JSON goes to standard output; short human-readable
summaries go to standard error.  Exit codes: 0 success (``conditional`` and
``vacuous`` checks do not fail), 1 check failure, 2 usage error, 3 I/O or
parse error.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import construct, core, counting, solvers, spread
from .io import (
    ParseError,
    _json_text,
    cells_json,
    family_json,
    fraction_json,
    load_family,
    load_matrix,
    parse_integers,
    save_report,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: The ``verify`` suites, listed here so that parsing needs no import of ``verify``.
SUITES = ("counts", "spread", "approx", "solvers", "extremal", "lemma16")


def _fraction(text: str) -> Fraction:
    try:
        if not text.isascii() or "_" in text:  # Fraction() also takes other Unicode digits and underscores
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _int(text: str) -> int:
    try:
        (value,) = parse_integers(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    return value


def _perm(text: str) -> tuple[int, ...]:
    try:
        image = parse_integers(text.replace(",", " "))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a permutation: {text!r}") from None
    if core.as_permutation(image, None) is None:
        raise argparse.ArgumentTypeError(f"not a permutation of [1..n]: {text!r}")
    return image


def _emit(payload: dict, summary: str) -> None:
    print(_json_text(payload))
    print(summary, file=sys.stderr)


def cmd_counts(args) -> int:
    n = args.n
    payload = {
        "n": n,
        "d_n": counting.derangement_count(n),
        "d_n1": counting.pointed_derangement_count(n) if n >= 2 else None,
        "factorial": math.factorial(n),
    }
    _emit(payload, f"n={n}: d_n={payload['d_n']} d_n1={payload['d_n1']} n!={payload['factorial']}")
    return EXIT_OK


def cmd_permanent(args) -> int:
    matrix = load_matrix(args.matrix)
    value = counting.permanent(matrix, args.method)
    _emit({"n": matrix.n, "method": args.method, "permanent": value}, f"perm = {value} ({args.method}, N={matrix.n})")
    return EXIT_OK


def cmd_nu(args) -> int:
    fam = load_family(args.family)
    value, witness = solvers.matching_number(fam)
    _emit(
        {"n": fam.n, "size": len(fam), "nu": value, "witness": [list(p) for p in witness]},
        f"nu = {value} on {len(fam)} members",
    )
    return EXIT_OK


def cmd_tau(args) -> int:
    fam = load_family(args.family)
    value, witness = solvers.covering_number(fam)
    _emit(
        {"n": fam.n, "size": len(fam), "tau": value, "witness": cells_json(witness)},
        f"tau = {value} on {len(fam)} members",
    )
    return EXIT_OK


def cmd_spread(args) -> int:
    fam = load_family(args.family)
    if args.q is None:
        report = spread.is_r_spread(fam, args.r, want_exact=args.exact)
        payload = {"n": fam.n, "size": len(fam), "r": fraction_json(args.r), **report.to_json()}
        _emit(payload, f"is {fraction_json(args.r)}-spread: {report.is_spread}")
    else:
        report = spread.is_rq_spread(fam, args.r, args.q)
        payload = {"n": fam.n, "size": len(fam), "r": fraction_json(args.r), "q": args.q, **report.to_json()}
        _emit(payload, f"is ({fraction_json(args.r)},{args.q})-spread: {report.is_spread}")
    return EXIT_OK


def _ambient(source: str, n: int) -> core.Family:
    if source == "sigma":
        return core.symmetric_group(n)
    if source == "derangements":
        return core.derangements(n)
    return load_family(source)


def cmd_approx(args) -> int:
    fam = load_family(args.family)
    ambient = _ambient(args.ambient, fam.n)
    result = spread.spread_approximate(fam, ambient, args.r, args.q)
    check = spread.verify_approximation(result, fam, ambient, args.r, args.q)
    payload = {
        "n": fam.n,
        "family_size": len(fam),
        "ambient_size": len(ambient),
        "r": fraction_json(args.r),
        "q": args.q,
        "result": result.to_json(),
        "verification": check.to_json(),
    }
    _emit(
        payload,
        f"{len(result.supports)} supports, remainder {len(result.remainder)}, "
        f"covering={check.covering_ok} branches-spread={check.branch_traces_spread} "
        f"remainder={check.remainder_status}",
    )
    return EXIT_OK if check.ok else EXIT_CHECK_FAILED


def _least_through(n: int, y: int):
    """The least permutation of [n] with p(1) = y, ``extremal``'s default sigma."""
    n = core._check_cap(n)  # checks n first
    if y > n:
        raise ValueError(f"no permutation of [{n}] maps 1 to {y}")
    return (y, *(v for v in range(1, n + 1) if v != y))


def cmd_extremal(args) -> int:
    n, s = args.n, args.s
    sigma = args.sigma
    disjoint = None
    if args.kind == "stars":
        union = construct.make_star_union(n, [(1, c) for c in range(1, s)])
        fam, disjoint = union.family, union.pairwise_disjoint
    elif args.kind == "derstars":
        union = construct.make_star_union(n, [(1, c + 1) for c in range(1, s)], derangement=True)
        fam, disjoint = union.family, union.pairwise_disjoint
    elif args.kind == "hm":
        sigma = sigma or _least_through(n, 2)
        fam = construct.make_hm(n, sigma)
    else:  # theorem3
        sigma = sigma or _least_through(n, s)
        fam = construct.make_hm_star_union(n, s, sigma)
    nu, _ = solvers.matching_number(fam)
    tau, _ = solvers.covering_number(fam) if len(fam) else (None, ())
    payload = {
        "kind": args.kind,
        "n": n,
        "s": s,
        "sigma": None if args.kind in ("stars", "derstars") else list(sigma),
        "size": len(fam),
        "nu": nu,
        "tau": tau,
        "pairwise_disjoint": disjoint,
        "family": family_json(fam),
    }
    _emit(payload, f"{args.kind}: size={len(fam)} nu={nu} tau={tau}")
    return EXIT_OK


def cmd_crossmatch(args) -> int:
    families = [load_family(path) for path in args.families]
    witness = solvers.cross_matching(families)
    payload = {
        "t": len(families),
        "witness": None if witness is None else [list(p) for p in witness],
    }
    _emit(payload, "cross matching: " + ("none" if witness is None else "found"))
    return EXIT_OK


def cmd_mc_spread(args) -> int:
    fam = load_family(args.family)
    estimate = spread.containment_probability(
        fam, args.p, "monte_carlo", samples=args.samples, seed=args.seed
    )
    payload = {"n": fam.n, "size": len(fam), "p": fraction_json(args.p), **estimate.to_json()}
    _emit(payload, f"Pr[contains a member] ~ {estimate.value:.6f} +- {estimate.standard_error:.6f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # imported here, so that parsing and the other commands do not load it

    report = verify.run_suite(args.suite, args.seed)
    if args.out:
        save_report(report, args.out)
    marks = {"pass": "ok", "fail": "FAIL", "conditional": "cond", "vacuous": "vac"}
    checks = [(rep["suite"], chk) for rep in report.get("suites", [report]) for chk in rep["checks"]]
    failed = sum(chk["status"] == "fail" for _, chk in checks)
    lines = [f"[{marks[chk['status']]:>4}] {suite}/{chk['id']}" for suite, chk in checks]
    _emit(report, "\n".join([*lines, f"failed checks: {failed}"]))
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permemc",
        description="Exact computations for families of permutations: counting "
        "kernels, spreadness calculus, matching/covering solvers, and "
        "extremal constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counts", help="derangement numbers and factorials")
    p.add_argument("--n", type=_int, required=True)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("permanent", help="exact permanent of a 0/1 matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--method", choices=("ryser", "brute"), default="ryser")
    p.set_defaults(func=cmd_permanent)

    p = sub.add_parser("nu", help="exact matching number of a family file")
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_nu)

    p = sub.add_parser("tau", help="exact covering number of a family file")
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("spread", help="exact r-spread or (r,q)-spread check")
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=_fraction, required=True)
    p.add_argument("--q", type=_int, default=None)
    p.add_argument("--exact", action="store_true", help="also report the exact spreadness value")
    p.set_defaults(func=cmd_spread)

    p = sub.add_parser("approx", help="greedy spread decomposition with verification")
    p.add_argument("--family", required=True)
    p.add_argument("--ambient", default="sigma", help="sigma | derangements | family file")
    p.add_argument("--r", type=_fraction, required=True)
    p.add_argument("--q", type=_int, required=True)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("extremal", help="emit an extremal construction with size/nu/tau")
    p.add_argument("--kind", choices=("stars", "hm", "theorem3", "derstars"), required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--s", type=_int, default=2)
    p.add_argument("--sigma", type=_perm, default=None)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("crossmatch", help="pairwise disjoint representatives across families")
    p.add_argument("--families", nargs="+", required=True)
    p.set_defaults(func=cmd_crossmatch)

    p = sub.add_parser("mc-spread", help="Monte Carlo containment probability")
    p.add_argument("--family", required=True)
    p.add_argument("--p", type=_fraction, required=True)
    p.add_argument("--samples", type=_int, required=True)
    p.add_argument("--seed", type=_int, required=True)
    p.set_defaults(func=cmd_mc_spread)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--out", default=None, help="also write the JSON report to this path")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (none) before Python 3.10.7
    try:
        if limit:  # print exact integers in full: n! passes the 4,300-digit default from n = 1,563
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit:  # put back for in-process callers
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
