"""Regenerate pins.json, the expected outputs the benchmark checks against.

Every exact value is computed by two routes and pinned only if they agree:

* the package, through the same call the benchmark job makes;
* an independent route: the substitution recurrence
  R_k = z R_{k-1} / (1 - R_{k-1}) on plain integer lists, written here,
  for tables, survival values and Monte Carlo probabilities; for the
  means, the sum of the package's ballot-number columns over k, against
  the package's totals kernel the job runs.

Constants are pinned as this commit's 200-digit certified decimals.

Run from the repository root:  python3 bench/pin.py   (a few minutes)
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from operator import mul
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.set_int_max_str_digits(0)

import checks  # noqa: E402
import jobs  # noqa: E402
import treeprotect  # noqa: E402
from treeprotect import cli  # noqa: E402


def protected_columns(order: int, levels: int) -> list[list[int]]:
    """r(n, k) for n = 0..order, one list per k = 0..levels."""
    r = [0] + [math.comb(2 * n - 2, n - 1) // n for n in range(1, order + 1)]
    columns = [r]
    for _ in range(levels):
        q: list[int] = []
        for m in range(order + 1):
            # q = z r / (1 - r):  q[m] = r[m-1] + sum_i r[i] q[m-i]
            q.append((r[m - 1] if m else 0) + sum(map(mul, r[1 : m + 1], reversed(q))))
        r = q
        columns.append(r)
    return columns


def vertex_count(column: list[int], n: int) -> int:
    """s(n, k) from the k-protected column: [z^n] R_k (1 + (1-4z)^(-1/2)) / 2."""
    total = column[n] + sum(column[m] * math.comb(2 * (n - m), n - m) for m in range(1, n + 1))
    if total % 2:
        raise ArithmeticError("odd vertex count")
    return total // 2


def table_content(n: int, counts: list[int], den: int) -> list[list]:
    """exact-dist rows built from survival counts, as checks.table_content reads them."""

    def row(kind, key, value):
        return [kind, key, str(value.numerator), str(value.denominator), checks.truncate(value, 30)]

    padded = counts + [0]
    mean = Fraction(sum(counts[1:]), den)
    second = Fraction(sum((2 * k - 1) * c for k, c in enumerate(counts) if k), den)
    return (
        [row("survival", k, Fraction(counts[k], den)) for k in range(n)]
        + [row("pmf", k, Fraction(padded[k] - padded[k + 1], den)) for k in range(n)]
        + [
            row("moment", "mean", mean),
            row("moment", "second_moment", second),
            row("moment", "variance", second - mean * mean),
        ]
    )


def cli_rows(argv: list[str]) -> list[dict]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        if cli.main(argv) != 0:
            raise RuntimeError(f"{argv} failed")
    return checks.jsonl(buffer.getvalue())


def agree(label: str, first, second):
    if first != second:
        raise SystemExit(f"routes disagree on {label}")
    return first


def pin_tables(pins: dict) -> None:
    sizes = sorted(
        {n for centre, half in jobs.TABLE_BANDS for n in jobs.band(centre, half)}
        | set(jobs.ORACLE_SIZES)
    )
    explicit = [n for low, high in jobs.EXPLICIT_BANDS for n in range(low, high + 1)]
    columns = protected_columns(max(explicit), max(explicit))
    for n in sizes + explicit:
        catalan = math.comb(2 * n - 2, n - 1) // n
        method = ["oracle"] if n in jobs.ORACLE_SIZES else ["explicit"] if n in explicit else []
        stats = "X" if n in explicit else "XY"
        for stat in stats:
            if stat == "X":
                counts = [columns[k][n] for k in range(n)]
                den = catalan
            else:
                counts = [vertex_count(columns[k], n) for k in range(n)]
                den = n * catalan
            rows = cli_rows(["exact-dist", stat, str(n)] + method)
            content = agree(f"{stat} table {n}", checks.table_content(rows), table_content(n, counts, den))
            pins["tables"][f"{stat}:{n}"] = checks.digest(content)
        print(f"tables n={n}", flush=True)


def _pair(value: Fraction) -> list[str]:
    return [str(value.numerator), str(value.denominator)]


def pin_survival(pins: dict) -> None:
    top = max(c + h for c, h, _, _ in jobs.SURVIVAL_BANDS)
    columns = protected_columns(top, 3)
    for centre, half, _, ks in jobs.SURVIVAL_BANDS:
        for n in jobs.band(centre, half):
            catalan = math.comb(2 * n - 2, n - 1) // n
            for k in ks:
                x = agree(
                    f"X {n} {k}",
                    treeprotect.survival_X_exact(n, k),
                    Fraction(columns[k][n], catalan),
                )
                y = agree(
                    f"Y {n} {k}",
                    treeprotect.survival_Y_exact(n, k),
                    Fraction(vertex_count(columns[k], n), n * catalan),
                )
                pins["survival"][f"X:{n}:{k}"] = checks.digest(_pair(x))
                pins["survival"][f"Y:{n}:{k}"] = checks.digest(_pair(y))
            print(f"survival n={n}", flush=True)


def pin_means(pins: dict) -> None:
    sizes = jobs.band(*jobs.MEAN_BAND)
    top = max(sizes)
    totals = [0] * (top + 1)
    column_kernel = treeprotect.exact.r_survival_column.__wrapped__
    for k in range(1, top):
        for m, count in enumerate(column_kernel(k, top)):
            totals[m] += count
    for n in sizes:
        catalan = math.comb(2 * n - 2, n - 1) // n
        x = agree(f"mean X {n}", treeprotect.mean_X_exact(n), Fraction(totals[n], catalan))
        num = totals[n] + sum(totals[m] * math.comb(2 * (n - m), n - m) for m in range(1, n + 1))
        y = agree(f"mean Y {n}", treeprotect.mean_Y_exact(n), Fraction(num, 2 * n * catalan))
        pins["mean"][f"X:{n}"] = checks.digest(_pair(x))
        pins["mean"][f"Y:{n}"] = checks.digest(_pair(y))
        print(f"mean n={n}", flush=True)


def pin_monte_carlo(pins: dict) -> None:
    for n in jobs.BULK_SIZES + (jobs.SPARSE_SIZE,):
        catalan = math.comb(2 * n - 2, n - 1) // n
        probabilities = {}
        for stat, exact in (("X", treeprotect.survival_X_exact), ("Y", treeprotect.survival_Y_exact)):
            probabilities[stat] = [Fraction(1)]
            for k in range(1, n):
                p = exact(n, k)
                if p < checks.MC_NEGLIGIBLE:
                    break
                probabilities[stat].append(p)
        columns = protected_columns(n, max(map(len, probabilities.values())))
        for stat, values in probabilities.items():
            for k, p in enumerate(values[1:], start=1):
                if stat == "X":
                    other = Fraction(columns[k][n], catalan)
                else:
                    other = Fraction(vertex_count(columns[k], n), n * catalan)
                agree(f"{stat} survival {n} {k}", p, other)
            pins["mc"][f"{stat}:{n}"] = [float(p) for p in values]
        print(f"mc n={n}", flush=True)


def main() -> None:
    pins: dict = {"constants": {}, "mc": {}, "mean": {}, "survival": {}, "tables": {}}
    for name in treeprotect.CONSTANT_NAMES:
        pins["constants"][name] = treeprotect.constant(name, 200).decimal
    pin_monte_carlo(pins)
    pin_tables(pins)
    pin_survival(pins)
    pin_means(pins)
    path = BENCH / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
