"""Command line front end: every computation as a subcommand.

Output is machine readable: line-delimited JSON (default) or CSV, one
flat record per result row.  Exact rationals are serialized as decimal
numerator/denominator strings plus a truncated decimal rendering, never
as floats.  A run encodes its stamp (command, parameters, provenance,
elapsed time) once and places each row's fields inside it.  A default is
the value it runs, so the stamp of `constants` without names lists all
eight and that of `mellin-check` without `--x` the seven abscissas.
`build_parser` is cached, so a process builds one parser.  Every
whole-number argument goes through one bounded type.  Digit counts,
range widths, `sample --trials`, the sizes of `oracle`, `exact-dist`,
`r-explicit` and `sample`, and the levels of `limit-dist` and `asym`
have caps (README lists each); `r-explicit`'s level and `asym`'s size
do not.  Exit codes: 0 success, 1 verification failure, 2 usage error
(an input past its cap included, such as an oracle size above 16, or a
bare `--x`), 141 output pipe closed by the reader (the status a shell
gives a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from typing import Sequence

import numpy

from .acceptance import run_all
from .asymptotics import (
    _MAX_DIGITS,
    CONSTANT_NAMES,
    asym_P_X_ge,
    asym_P_Y_ge,
    constant,
    limit_pmf_X,
    limit_pmf_Y,
    truncated_decimal,
)
from .exact import DistributionTable, dist_X_exact, dist_Y_exact, r_explicit
from .mellin import (
    MELLIN_ABSCISSAS,
    eval_F,
    eval_G,
    check_F_functional_eq,
    check_G_functional_eq,
    mean_constant_from_F,
    reflection_term_F,
    reflection_term_G,
    second_moment_constant_from_G,
)
from .sampler import RNG_ALGORITHM, RNG_STREAM, estimate_survival
from .trees import oracle_r, oracle_s

__all__ = ["main"]


def _rational_fields(num: int, den: int, digits: int) -> dict[str, str]:
    """`num / den` (den > 0, in any terms) in lowest terms and truncated to `digits` digits."""
    common = math.gcd(num, den)
    return {
        "value_num": str(num // common),
        "value_den": str(den // common),
        "value_decimal": truncated_decimal(num, den, digits),
    }


def _whole_number(what: str, low: int | None = None, high: int | None = None):
    """An argparse type: a whole number, named `what` in errors, from `low` to `high`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{what} must be at most {high}, got {value}")
        return value

    return parse


# every --digits shares the constants' certified limit: a rendering's cost and
# size grow with its digits, and `exact-dist Y 10000` prints 20,003 decimals
_digits = _whole_number("digits", 1, _MAX_DIGITS)

# an exact-dist table is held whole until written, and its output grows like n^2;
# one r-explicit count costs more than n^2 big-int steps
_exact_n = _whole_number("tree size", 1, 10_000)

# limit values are exact rationals whose digits grow linearly in the level
_MAX_LEVEL = 1000

# every value of a range becomes rows held in memory until the output is written
_MAX_RANGE = 1000


def _whole_range(what: str, high: int | None = None):
    """An argparse type: 'A:B' (inclusive) or 'N', from 0 to `high`, at most _MAX_RANGE values."""
    end = _whole_number(what, 0, high)

    def parse(text: str) -> range:
        parts = text.split(":")
        if len(parts) > 2:
            raise argparse.ArgumentTypeError(f"expected N or A:B, got {text!r}")
        start, stop = end(parts[0]), end(parts[-1])
        if stop < start:
            raise argparse.ArgumentTypeError(f"range {text!r} is empty")
        if stop - start >= _MAX_RANGE:
            raise argparse.ArgumentTypeError(f"range {text!r} has more than {_MAX_RANGE} values")
        return range(start, stop + 1)

    return parse


# exact-dist names the route that produced the table; oracle shares its stamp
_METHOD_PROVENANCE = {
    "oracle": "trees: exhaustive enumeration of plane trees by prefix-state counts",
    "explicit": "exact: alternating binomial sums over plain integers",
}

_SAMPLE_PROVENANCE = {
    "X": f"sampler: generation chain of a uniform tree, {RNG_ALGORITHM}",
    "Y": f"sampler: generation chain of a uniform tree of a drawn subtree size, {RNG_ALGORITHM}",
}


# each _cmd_* returns the provenance stamp of the route it ran and its rows
def _cmd_oracle(args: argparse.Namespace) -> tuple[str, list[dict]]:
    return _METHOD_PROVENANCE["oracle"], [
        {"kind": kind, "n": n, "k": k, "value": str(count(n, k))}
        for n in args.n
        for k in args.k
        for kind, count in (("r", oracle_r), ("s", oracle_s))
    ]


def _cmd_exact_dist(args: argparse.Namespace) -> tuple[str, list[dict]]:
    oracle, dist = (oracle_r, dist_X_exact) if args.statistic == "X" else (oracle_s, dist_Y_exact)
    if args.method == "oracle":
        table = DistributionTable(tuple(oracle(args.n, k) for k in range(args.n)))
    else:
        table = dist(args.n)
    # rows read the counts over counts[0] as they stand: no Fraction per row
    counts = table.counts
    pmf = (count - below for count, below in zip(counts, counts[1:] + (0,)))
    rows = [
        {"kind": kind, "k": k} | _rational_fields(count, counts[0], args.digits)
        for kind, column in (("survival", counts), ("pmf", pmf))
        for k, count in enumerate(column)
    ]
    for name in ("mean", "second_moment", "variance"):
        fields = _rational_fields(*getattr(table, name).as_integer_ratio(), args.digits)
        rows.append({"kind": "moment", "name": name} | fields)
    return _METHOD_PROVENANCE[args.method], rows


def _cmd_r_explicit(args: argparse.Namespace) -> tuple[str, list[dict]]:
    row = {"kind": "r", "n": args.n, "k": args.k, "value": str(r_explicit(args.n, args.k))}
    return "exact: alternating binomial sum for k-protected trees", [row]


def _cmd_limit_dist(args: argparse.Namespace) -> tuple[str, list[dict]]:
    pmf = limit_pmf_X if args.statistic == "X" else limit_pmf_Y
    rows = []
    for k in args.k:
        value = pmf(k)
        for kind in ("leading", "correction"):
            rows.append(
                {"kind": kind, "k": k, "error_order": value.error_order}
                | _rational_fields(*getattr(value, kind).as_integer_ratio(), args.digits)
            )
    return "asymptotics: limit law with 1/n correction", rows


def _cmd_asym(args: argparse.Namespace) -> tuple[str, list[dict]]:
    survival = asym_P_X_ge if args.statistic == "X" else asym_P_Y_ge
    value = survival(args.k)
    common = {"k": args.k, "error_order": value.error_order}
    terms = (
        ({"kind": "survival_leading"}, value.leading),
        ({"kind": "survival_correction"}, value.correction),
        ({"kind": "survival_at", "n": args.n}, value.at(args.n)),
    )
    rows = [
        head | common | _rational_fields(*v.as_integer_ratio(), args.digits)
        for head, v in terms
    ]
    return "asymptotics: survival expansion leading + correction/n", rows


def _cmd_constants(args: argparse.Namespace) -> tuple[str, list[dict]]:
    rows = []
    for name in args.names:
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
    return "asymptotics: certified rational enclosures", rows


def _cmd_mellin_check(args: argparse.Namespace) -> tuple[str, list[dict]]:
    rows = []
    for x in args.x:
        f = eval_F(x)
        g = eval_G(x)
        rows.append(
            {
                "kind": "functional_eq",
                "x": x,
                "F_value": f.value,
                "F_tail_bound": f.truncation_bound,
                "G_value": g.value,
                "G_tail_bound": g.truncation_bound,
                "F_residual": check_F_functional_eq(x),
                "G_residual": check_G_functional_eq(x),
            }
        )
    log2 = math.log(2.0)
    for name, value in (
        ("mean_constant_from_F", mean_constant_from_F()),
        ("second_moment_constant_from_G", second_moment_constant_from_G()),
        ("reflection_term_F_at_log2", reflection_term_F(log2)),
        ("reflection_term_G_at_log2", reflection_term_G(log2)),
    ):
        rows.append({"kind": "cross_link", "name": name, "value": value})
    return "mellin: harmonic sums and functional equations", rows


def _cmd_sample(args: argparse.Namespace) -> tuple[str, list[dict]]:
    stats = estimate_survival(args.statistic, args.n, args.trials, args.seed)
    rows = [
        {"kind": "survival", "k": k, "count": str(count), "fraction": count / stats.trials}
        for k, count in enumerate(stats.counts)
    ]
    return _SAMPLE_PROVENANCE[args.statistic], rows + [{"kind": "mean", "value": stats.mean}]


# namespace entries that select the computation rather than parameterize it
_UNSTAMPED = ("command", "format", "handler")

# jsonl lines joined per write; a line of `exact-dist Y 10000` is about 12 kB, and
# its peak RSS stays below that of writing line by line up to about 64 lines a write
_LINES_PER_WRITE = 64


def _emit(rows: list[dict], head: dict, tail: dict, fmt: str, stream) -> None:
    """Write each record `head | row | tail`; jsonl encodes the stamp halves once."""
    if fmt == "jsonl":
        # json.dumps builds a C encoder per call, a third of a row's cost: one serves the run
        encode = json.encoder.c_make_encoder(
            None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
            None, ": ", ", ", False, False, True,  # indent, separators, sort, skip, allow NaN
        )
        start, end = json.dumps(head)[:-1] + ", ", ", " + json.dumps(tail)[1:] + "\n"
        for first in range(0, len(rows), _LINES_PER_WRITE):
            chunk = rows[first : first + _LINES_PER_WRITE]
            stream.write("".join([start + "".join(encode(row, 0))[1:-1] + end for row in chunk]))
        return
    records = [head | row | tail for row in rows]
    fields = dict.fromkeys(key for record in records for key in record)
    writer = csv.DictWriter(stream, fieldnames=list(fields), restval="")
    writer.writeheader()
    writer.writerows(records)


# one parser per process, shared by main and every other caller; parse_args keeps
# no state between calls, each handler is bound when the parser is built, and
# every default is immutable
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeprotect",
        description="Protection-number statistics of random plane trees.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", parents=[common], help="brute-force r/s tables")
    p.set_defaults(handler=_cmd_oracle)
    p.add_argument("--n", type=_whole_range("tree size"), required=True, help="size or A:B range")
    p.add_argument("--k", type=_whole_range("level"), default=range(0, 9), help="level or A:B range")

    p = sub.add_parser("exact-dist", parents=[common], help="exact distribution at size n")
    p.set_defaults(handler=_cmd_exact_dist)
    p.add_argument("statistic", choices=("X", "Y"))
    p.add_argument("n", type=_exact_n)
    p.add_argument("method", nargs="?", default="explicit", choices=tuple(_METHOD_PROVENANCE))
    p.add_argument("--digits", type=_digits, default=30)

    p = sub.add_parser("r-explicit", parents=[common], help="one k-protected count")
    p.set_defaults(handler=_cmd_r_explicit)
    p.add_argument("n", type=_exact_n)
    p.add_argument("k", type=_whole_number("level"))

    p = sub.add_parser("limit-dist", parents=[common], help="limit pmf with 1/n corrections")
    p.set_defaults(handler=_cmd_limit_dist)
    p.add_argument("statistic", choices=("X", "Y"))
    p.add_argument("--k", type=_whole_range("level", _MAX_LEVEL), default=range(0, 11))
    p.add_argument("--digits", type=_digits, default=30)

    p = sub.add_parser("asym", parents=[common], help="survival expansion at one (k, n)")
    p.set_defaults(handler=_cmd_asym)
    p.add_argument("statistic", choices=("X", "Y"))
    p.add_argument("k", type=_whole_number("level", high=_MAX_LEVEL))
    p.add_argument("n", type=_whole_number("tree size", 1))
    p.add_argument("--digits", type=_digits, default=30)

    p = sub.add_parser("constants", parents=[common], help="certified constant enclosures")
    p.set_defaults(handler=_cmd_constants)
    known = ", ".join(CONSTANT_NAMES)
    p.add_argument("names", nargs="*", default=CONSTANT_NAMES, metavar="name", help=f"any of {known}")
    p.add_argument("--digits", type=_digits, default=50)

    p = sub.add_parser("mellin-check", parents=[common], help="functional-equation residuals")
    p.set_defaults(handler=_cmd_mellin_check)
    p.add_argument("--x", type=float, nargs="+", default=MELLIN_ABSCISSAS)

    p = sub.add_parser("sample", parents=[common], help="Monte Carlo survival estimate")
    p.add_argument("statistic", choices=("X", "Y"))
    p.add_argument("n", type=_whole_number("tree size", 1))
    # a trial walks only the generations above the first leaf, O(1) expected work at any n,
    # and trials at one state share one draw, so the cap bounds a run at O(10^7) chain
    # states whatever the size
    p.add_argument("--trials", type=_whole_number("trials", 1, 10**7), default=10000)
    p.add_argument("--seed", type=_whole_number("seed", 0), default=1)
    # the generator, the stream version and numpy's version, whose distribution
    # methods map the generator's bits to draws, are stamped after the parameters
    p.set_defaults(
        handler=_cmd_sample,
        rng_algorithm=RNG_ALGORITHM,
        rng_stream=RNG_STREAM,
        numpy_version=numpy.__version__,
    )

    sub.add_parser("verify", help="run the full verification suite")
    return parser


def _run(args: argparse.Namespace) -> int:
    """Run the parsed subcommand, write its records to stdout, return the exit status.

    Each record is the stamp `command`, `params`, the row, `provenance`,
    `elapsed_s`; the stamp is encoded once per run, not once per row.
    """
    if args.command == "verify":
        results = run_all()
        return 0 if all(r.passed for r in results) else 1

    start = time.perf_counter()
    try:
        provenance, rows = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = round(time.perf_counter() - start, 6)

    params = json.dumps(
        {
            key: f"{value.start}:{value.stop - 1}" if isinstance(value, range) else value
            for key, value in vars(args).items()
            if key not in _UNSTAMPED
        }
    )
    head = {"command": args.command, "params": params}
    _emit(rows, head, {"provenance": provenance, "elapsed_s": elapsed}, args.format, sys.stdout)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    # r-explicit and exact-dist counts pass the 4300-digit str() guard from n ~ 7200
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; drop what is left, or the flush at exit raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":
    sys.exit(main())
