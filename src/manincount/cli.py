"""Command line front end.

Subcommands: ``count`` (exact counters, optionally with their brute-force
oracles), ``constants`` (the constants bundle as JSON), ``verify``
(invariant suites) and ``scan`` (convergence CSV).  Exit codes: 0 ok,
1 verification/oracle failure, 2 usage, 3 resource budget, 4 internal
inconsistency.  ``--workers`` (default 1) sets the process count of the
counting sums; their output does not depend on it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from mpmath import mp, mpf, workdps

from . import asymptotics, counting, verify
from .arith import ResourceBudgetError
from .asymptotics import DomainError, InternalConsistencyError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INCONSISTENT = 4

_FLOAT_DIGITS = 17


class UsageError(Exception):
    pass


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _check_out_dir(out: str | None) -> None:
    """Reject --out before any work when its directory does not exist."""
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise UsageError(f"cannot write --out {out}: no such directory")


def _nstr(x, digits: int = _FLOAT_DIGITS) -> str:
    return mp.nstr(x, digits, strip_zeros=True)


# ---------------------------------------------------------------------------
# count


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def cmd_count(args: argparse.Namespace) -> int:
    mode = args.mode
    B, y, n, k = args.B, args.y, args.n, args.n // 4
    workers = args.workers
    fields: dict[str, str] = {"mode": mode, "B": str(B)}
    oracle_value = None
    if mode == "S":
        if y is None:
            raise UsageError("--y is required for --mode S")
        value = counting.s_sum(B, y, k, workers=workers)
        fields["y"] = str(y)
    elif mode == "T":
        value = counting.t_sum(B, k, workers=workers)
    elif mode == "M":
        if y is None:
            raise UsageError("--y is required for --mode M")
        value = counting.mean_value_M(B, y, k)
        fields["y"] = str(y)
    elif mode == "affine":
        value = counting.count_affine_exact(B, n, workers=workers)
        fields["n"] = str(n)
        if args.oracle:
            oracle_value = counting.count_affine_bruteforce(B, n)
    else:  # projective
        value = counting.count_projective(B, n, workers=workers)
        fields["n"] = str(n)
        if args.oracle:
            oracle_value = counting.count_projective_bruteforce(B, n)

    fields["exact"] = str(value)
    if oracle_value is not None:
        fields["oracle"] = str(oracle_value)
        fields["match"] = str(value == oracle_value).lower()

    if args.format == "json":
        text = json.dumps(fields, sort_keys=True) + "\n"
    elif args.format == "csv":
        keys = list(fields)
        text = ",".join(keys) + "\n" + ",".join(fields[k] for k in keys) + "\n"
    else:
        text = " ".join(f"{k}={v}" for k, v in fields.items()) + "\n"
    _write(text, args.out)

    if oracle_value is not None and oracle_value != value:
        print(f"oracle mismatch: exact={value} oracle={oracle_value}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# constants


def cmd_constants(args: argparse.Namespace) -> int:
    n, plim, digits = args.n, args.prime_limit, args.digits
    if digits < 30:
        raise UsageError("--digits must be at least 30 for constants work")
    bundle = asymptotics.constants_bundle(n, prime_limit=plim, digits=digits)
    poly = bundle.poly
    with workdps(digits + asymptotics._GUARD_DIGITS):
        doc: dict[str, object] = {
            "n": n,
            "C_script": _nstr(bundle.C_script, digits),
            "C_star": _nstr(bundle.C_star, digits),
            "C_proj": _nstr(bundle.C_proj, digits),
            "prime_limit": plim,
            "tail_bound": _nstr(bundle.tail_bound, 8),
            "digits": digits,
            "a0": _nstr(poly.a0, digits),
            "a1": _nstr(poly.a1, digits),
            "a2": _nstr(poly.a2, digits),
        }
        notes = list(bundle.notes)
        if n == 4:
            residual = abs(bundle.C_script - asymptotics.closed_form_C4(digits))
            doc["cross_route_residual"] = _nstr(residual, 8)
            notes.append("cross_route_residual = |C_script - 27 zeta(4)/(392 zeta(3)^2)|, "
                         "the truncation error of C_script = (3/16) G(1,1) at this prime "
                         "limit; it is positive and at most C_script * tail_bound")
        doc["notes"] = notes
    _write(json.dumps(doc, indent=2, sort_keys=False) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(args.suite, args.budget, seed=args.seed, workers=args.workers)
    for res in results:
        status = "ok" if res.ok else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
    failed = [r for r in results if not r.ok]
    summary = {
        "suite": args.suite,
        "budget": args.budget,
        "checks": len(results),
        "failed": len(failed),
        "failing_case": dataclasses.asdict(failed[0]) if failed else None,
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# scan


SCAN_HEADER = "B,n,exact,predicted,ratio,log_B,scaled_error"


def scan_rows(quantity: str, b_list: list[int], n: int, workers: int = 1) -> str:
    """CSV convergence report, one row per B, header fixed: the exact value,
    its leading-term prediction and the scaled error.

    T has a prediction only at n = 4; any other n raises UsageError before
    anything is counted.
    """
    if quantity == "T" and n != 4:
        raise UsageError("--quantity T has a prediction only for --n 4")
    k = n // 4
    rows = [SCAN_HEADER]
    # the predictors' default digits and their guard digits
    with workdps(asymptotics._DEFAULT_DIGITS + asymptotics._GUARD_DIGITS):
        for B in b_list:
            if quantity == "S":
                exact = counting.s_sum(B, B * B, k, workers=workers)
                predicted = asymptotics.predict_S(B, B * B, k, "leading")
            elif quantity == "T":
                exact = counting.t_sum(B, k, workers=workers)
                predicted = asymptotics.predict_T(B)
            elif quantity == "Nstar":
                exact = counting.count_affine_exact(B, n, workers=workers)
                predicted = asymptotics.predict_counts(B, n)[0]
            else:
                exact = counting.count_projective(B, n, workers=workers)
                predicted = asymptotics.predict_counts(B, n)[1]
            ratio = mpf(exact) / predicted
            logb = mp.log(B)
            rows.append(",".join([str(B), str(n), str(exact), _nstr(predicted), _nstr(ratio),
                                  _nstr(logb), _nstr(abs(ratio - 1) * logb)]))
    return "\n".join(rows) + "\n"


def cmd_scan(args: argparse.Namespace) -> int:
    try:
        b_list = [int(tok) for tok in args.B_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --B-list: {exc}") from None
    if not b_list or any(b < 1 for b in b_list):
        raise UsageError("--B-list needs a nonempty comma list of positive integers")
    text = scan_rows(args.quantity, b_list, args.n, workers=args.workers)
    _write(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _multiple_of_4(text: str) -> int:
    value = int(text)
    if value < 4 or value % 4 != 0:
        raise argparse.ArgumentTypeError(f"n must be a positive multiple of 4, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manincount",
        description="Exact point counts and asymptotic constants for x^3 = (y_1^2+...+y_n^2) z.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="exact counters, optionally with oracles")
    p_count.add_argument("--mode", required=True, choices=["affine", "projective", "S", "T", "M"])
    p_count.add_argument("--B", required=True, type=_positive_int)
    p_count.add_argument("--y", type=_positive_int)
    p_count.add_argument("--n", type=_multiple_of_4, default=4)
    p_count.add_argument("--oracle", action="store_true")
    p_count.add_argument("--out")
    p_count.add_argument("--format", choices=["plain", "csv", "json"], default="plain")
    p_count.add_argument("--workers", type=_positive_int, default=1)
    p_count.set_defaults(fn=cmd_count)

    p_const = sub.add_parser("constants", help="constants bundle as JSON")
    p_const.add_argument("--n", required=True, type=_multiple_of_4)
    p_const.add_argument("--prime-limit", dest="prime_limit", type=_positive_int, default=100_000)
    p_const.add_argument("--digits", type=_positive_int, default=30)
    p_const.add_argument("--out")
    p_const.set_defaults(fn=cmd_constants)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument("--suite", required=True,
                          choices=sorted(verify.SUITES) + ["all"])
    p_verify.add_argument("--budget", choices=verify.BUDGETS, default="quick")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--workers", type=_positive_int, default=1)
    p_verify.set_defaults(fn=cmd_verify)

    p_scan = sub.add_parser("scan", help="convergence CSV over a list of B")
    p_scan.add_argument("--quantity", required=True, choices=["S", "T", "Nstar", "Nproj"])
    p_scan.add_argument("--B-list", dest="B_list", required=True)
    p_scan.add_argument("--n", type=_multiple_of_4, default=4)
    p_scan.add_argument("--out")
    p_scan.add_argument("--workers", type=_positive_int, default=1)
    p_scan.set_defaults(fn=cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_out_dir(getattr(args, "out", None))
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ValueError) as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
