"""Command line front end: every computation as a subcommand.

Output is machine readable: line-delimited JSON (default) or CSV, one
flat record per result row.  Exact rationals are serialized as decimal
numerator/denominator strings plus a truncated decimal rendering, never
as floats.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 oracle size-bound violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from fractions import Fraction
from typing import Sequence

from .acceptance import run_all
from .asymptotics import (
    CONSTANT_NAMES,
    asym_P_X_ge,
    asym_P_Y_ge,
    constant,
    limit_pmf_X,
    limit_pmf_Y,
)
from .exact import dist_X_exact, dist_Y_exact, r_explicit
from .mellin import (
    eval_F,
    eval_G,
    check_F_functional_eq,
    check_G_functional_eq,
    mean_constant_from_F,
    reflection_term_F,
    reflection_term_G,
    second_moment_constant_from_G,
)
from .sampler import RNG_ALGORITHM, estimate_survival
from .trees import DEFAULT_ORACLE_BOUND, OracleBoundError, oracle_r, oracle_s

__all__ = ["main"]

_MELLIN_DEFAULT_X = (0.5, math.log(2.0), 1.0, 2.0, math.e, math.pi, 5.0)


def _decimal_string(value: Fraction, digits: int) -> str:
    """Truncate a rational toward zero to `digits` fractional digits."""
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**digits
    whole, frac = divmod(scaled.numerator // scaled.denominator, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def _rational_fields(prefix: str, value: Fraction, digits: int) -> dict[str, str]:
    return {
        f"{prefix}_num": str(value.numerator),
        f"{prefix}_den": str(value.denominator),
        f"{prefix}_decimal": _decimal_string(value, digits),
    }


def _parse_range(text: str) -> range:
    """Inclusive 'A:B' or a single 'N'."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            start = stop = int(parts[0])
        elif len(parts) == 2:
            start, stop = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A:B, got {text!r}") from None
    if start < 0 or stop < start:
        raise argparse.ArgumentTypeError(f"range {text!r} is empty or negative")
    return range(start, stop + 1)


def _cmd_oracle(args: argparse.Namespace) -> list[dict]:
    rows = []
    for n in args.n:
        for k in args.k:
            rows.append(
                {"kind": "r", "n": n, "k": k, "value": str(oracle_r(n, k, args.oracle_bound))}
            )
            rows.append(
                {"kind": "s", "n": n, "k": k, "value": str(oracle_s(n, k, args.oracle_bound))}
            )
    return rows


def _cmd_exact_dist(args: argparse.Namespace) -> list[dict]:
    dist = dist_X_exact if args.statistic == "X" else dist_Y_exact
    table = dist(args.n, method=args.method, oracle_bound=args.oracle_bound)
    rows = []
    for k in range(args.n):
        rows.append(
            {"kind": "survival", "k": k}
            | _rational_fields("value", table.survival_at(k), args.digits)
        )
    for k in range(args.n):
        rows.append(
            {"kind": "pmf", "k": k} | _rational_fields("value", table.pmf_at(k), args.digits)
        )
    for name in ("mean", "second_moment", "variance"):
        rows.append(
            {"kind": "moment", "name": name}
            | _rational_fields("value", getattr(table, name), args.digits)
        )
    return rows


def _cmd_r_explicit(args: argparse.Namespace) -> list[dict]:
    return [{"kind": "r", "n": args.n, "k": args.k, "value": str(r_explicit(args.n, args.k))}]


def _cmd_limit_dist(args: argparse.Namespace) -> list[dict]:
    pmf = limit_pmf_X if args.statistic == "X" else limit_pmf_Y
    rows = []
    for k in args.k:
        value = pmf(k)
        rows.append(
            {"kind": "leading", "k": k, "error_order": value.error_order}
            | _rational_fields("value", value.leading, args.digits)
        )
        rows.append(
            {"kind": "correction", "k": k, "error_order": value.error_order}
            | _rational_fields("value", value.correction, args.digits)
        )
    return rows


def _cmd_asym(args: argparse.Namespace) -> list[dict]:
    survival = asym_P_X_ge if args.statistic == "X" else asym_P_Y_ge
    value = survival(args.k)
    common = {"k": args.k, "error_order": value.error_order}
    return [
        {"kind": "survival_leading"} | common | _rational_fields("value", value.leading, args.digits),
        {"kind": "survival_correction"}
        | common
        | _rational_fields("value", value.correction, args.digits),
        {"kind": "survival_at", "n": args.n}
        | common
        | _rational_fields("value", value.at(args.n), args.digits),
    ]


def _cmd_constants(args: argparse.Namespace) -> list[dict]:
    names = args.names or list(CONSTANT_NAMES)
    rows = []
    for name in names:
        enclosure = constant(name, args.digits)
        rows.append(
            {
                "kind": "constant",
                "name": name,
                "digits": enclosure.digits,
                "decimal": enclosure.decimal,
                "lower_num": str(enclosure.lower.numerator),
                "lower_den": str(enclosure.lower.denominator),
                "upper_num": str(enclosure.upper.numerator),
                "upper_den": str(enclosure.upper.denominator),
            }
        )
    return rows


def _cmd_mellin_check(args: argparse.Namespace) -> list[dict]:
    xs = args.x if args.x else list(_MELLIN_DEFAULT_X)
    rows = []
    for x in xs:
        f = eval_F(x, args.tol)
        g = eval_G(x, args.tol)
        rows.append(
            {
                "kind": "functional_eq",
                "x": x,
                "F_value": f.value,
                "F_tail_bound": f.truncation_bound,
                "G_value": g.value,
                "G_tail_bound": g.truncation_bound,
                "F_residual": check_F_functional_eq(x, args.tol),
                "G_residual": check_G_functional_eq(x, args.tol),
            }
        )
    log2 = math.log(2.0)
    for name, value in (
        ("mean_constant_from_F", mean_constant_from_F(args.tol)),
        ("second_moment_constant_from_G", second_moment_constant_from_G(args.tol)),
        ("reflection_term_F_at_log2", reflection_term_F(log2, args.tol)),
        ("reflection_term_G_at_log2", reflection_term_G(log2, args.tol)),
    ):
        rows.append({"kind": "cross_link", "name": name, "value": value})
    return rows


def _cmd_sample(args: argparse.Namespace) -> list[dict]:
    stats = estimate_survival(args.statistic, args.n, args.trials, args.seed)
    rows = []
    for k in sorted(stats.survival_counts):
        rows.append(
            {
                "kind": "survival",
                "k": k,
                "count": str(stats.survival_counts[k]),
                "fraction": stats.survival_counts[k] / stats.trials,
            }
        )
    rows.append({"kind": "mean", "value": stats.mean})
    return rows


_PROVENANCE = {
    "oracle": "trees: exhaustive enumeration of plane trees",
    "r-explicit": "exact: alternating binomial sum for k-protected trees",
    "limit-dist": "asymptotics: limit law with 1/n correction",
    "asym": "asymptotics: survival expansion leading + correction/n",
    "constants": "asymptotics: certified rational enclosures",
    "mellin-check": "mellin: harmonic sums and functional equations",
    "sample": f"sampler: cycle-lemma uniform trees, {RNG_ALGORITHM}",
}

# exact-dist names the route that produced the table
_EXACT_DIST_PROVENANCE = {
    "oracle": _PROVENANCE["oracle"],
    "series": "exact: substitution recurrence on truncated power series",
    "explicit": "exact: alternating binomial sums over plain integers",
}


_HANDLERS = {
    "oracle": _cmd_oracle,
    "exact-dist": _cmd_exact_dist,
    "r-explicit": _cmd_r_explicit,
    "limit-dist": _cmd_limit_dist,
    "asym": _cmd_asym,
    "constants": _cmd_constants,
    "mellin-check": _cmd_mellin_check,
    "sample": _cmd_sample,
}

_PARAM_KEYS = {
    "oracle": ("n", "k", "oracle_bound"),
    "exact-dist": ("statistic", "n", "method", "oracle_bound", "digits"),
    "r-explicit": ("n", "k"),
    "limit-dist": ("statistic", "k", "digits"),
    "asym": ("statistic", "k", "n", "digits"),
    "constants": ("names", "digits"),
    "mellin-check": ("x", "tol"),
    "sample": ("statistic", "n", "trials", "seed"),
}


def _parameters(command: str, args: argparse.Namespace) -> dict:
    out = {}
    for key in _PARAM_KEYS[command]:
        value = getattr(args, key)
        if isinstance(value, range):
            value = f"{value.start}:{value.stop - 1}"
        out[key] = value
    if command == "sample":
        out["rng_algorithm"] = RNG_ALGORITHM
    return out


def _emit(rows: list[dict], fmt: str, stream) -> None:
    if fmt == "jsonl":
        for row in rows:
            stream.write(json.dumps(row) + "\n")
        return
    fields: list[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    writer = csv.DictWriter(stream, fieldnames=fields, restval="")
    writer.writeheader()
    writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeprotect",
        description="Protection-number statistics of random plane trees.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", parents=[common], help="brute-force r/s tables")
    p.add_argument("--n", type=_parse_range, required=True, help="size or A:B range")
    p.add_argument("--k", type=_parse_range, default=range(0, 9), help="level or A:B range")
    p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND)

    p = sub.add_parser("exact-dist", parents=[common], help="exact distribution at size n")
    p.add_argument("statistic", choices=("X", "Y"))
    p.add_argument("n", type=int)
    p.add_argument("method", nargs="?", default="explicit", choices=tuple(_EXACT_DIST_PROVENANCE))
    p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND)
    p.add_argument("--digits", type=int, default=30)

    p = sub.add_parser("r-explicit", parents=[common], help="one k-protected count")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("limit-dist", parents=[common], help="limit pmf with 1/n corrections")
    p.add_argument("statistic", choices=("X", "Y"))
    p.add_argument("--k", type=_parse_range, default=range(0, 11))
    p.add_argument("--digits", type=int, default=30)

    p = sub.add_parser("asym", parents=[common], help="survival expansion at one (k, n)")
    p.add_argument("statistic", choices=("X", "Y"))
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--digits", type=int, default=30)

    p = sub.add_parser("constants", parents=[common], help="certified constant enclosures")
    p.add_argument("names", nargs="*", metavar="name", help=f"any of {', '.join(CONSTANT_NAMES)}")
    p.add_argument("--digits", type=int, default=50)

    p = sub.add_parser("mellin-check", parents=[common], help="functional-equation residuals")
    p.add_argument("--x", type=float, nargs="*")
    p.add_argument("--tol", type=float, default=1e-14)

    p = sub.add_parser("sample", parents=[common], help="Monte Carlo survival estimate")
    p.add_argument("statistic", choices=("X", "Y"))
    p.add_argument("n", type=int)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=1)

    sub.add_parser("verify", parents=[common], help="run the full verification suite")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # enclosure numerators outgrow the 4300-digit int-to-str guard fast
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        results = run_all()
        return 0 if all(r.passed for r in results) else 1

    start = time.perf_counter()
    try:
        rows = _HANDLERS[args.command](args)
    except OracleBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = round(time.perf_counter() - start, 6)

    params = json.dumps(_parameters(args.command, args))
    if args.command == "exact-dist":
        provenance = _EXACT_DIST_PROVENANCE[args.method]
    else:
        provenance = _PROVENANCE[args.command]
    stamped = [
        {
            "command": args.command,
            "params": params,
            **row,
            "provenance": provenance,
            "elapsed_s": elapsed,
        }
        for row in rows
    ]
    _emit(stamped, args.format, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
