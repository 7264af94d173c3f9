"""CLI surface: record schemas, formats, exit codes."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeprotect
from treeprotect.asymptotics import truncated_decimal
from treeprotect.cli import build_parser, main
from treeprotect.exact import DistributionTable, catalan, dist_X_exact, dist_Y_exact
from treeprotect.mellin import MELLIN_ABSCISSAS
from treeprotect.sampler import RNG_STREAM
from treeprotect.trees import oracle_r, oracle_s


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _jsonl(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_exact_dist_survival_values(capsys):
    code, out = _run(capsys, ["exact-dist", "X", "4", "oracle"])
    assert code == 0
    rows = _jsonl(out)
    survival = {
        r["k"]: Fraction(int(r["value_num"]), int(r["value_den"]))
        for r in rows
        if r["kind"] == "survival"
    }
    assert survival == {0: 1, 1: 1, 2: Fraction(2, 5), 3: Fraction(1, 5)}
    moments = {r["name"]: r for r in rows if r["kind"] == "moment"}
    assert Fraction(
        int(moments["mean"]["value_num"]), int(moments["mean"]["value_den"])
    ) == Fraction(8, 5)


def test_every_record_is_stamped(capsys):
    code, out = _run(capsys, ["r-explicit", "6", "2"])
    assert code == 0
    rows = _jsonl(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["command"] == "r-explicit"
    assert "provenance" in row and "elapsed_s" in row
    assert json.loads(row["params"]) == {"n": 6, "k": 2}
    assert row["value"] == "18"


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["oracle", "--n", "3"], ["n", "k"]),
        (["exact-dist", "X", "4"], ["statistic", "n", "method", "digits"]),
        (["r-explicit", "6", "2"], ["n", "k"]),
        (["limit-dist", "X", "--k", "1"], ["statistic", "k", "digits"]),
        (["asym", "X", "2", "10"], ["statistic", "k", "n", "digits"]),
        (["constants", "c0", "--digits", "5"], ["names", "digits"]),
        (["mellin-check", "--x", "1.0"], ["x"]),
        (
            ["sample", "X", "5", "--trials", "10"],
            ["statistic", "n", "trials", "seed", "rng_algorithm", "rng_stream", "numpy_version"],
        ),
    ],
)
def test_params_keys_per_subcommand(capsys, argv, keys):
    code, out = _run(capsys, argv)
    assert code == 0
    for row in _jsonl(out):
        assert list(json.loads(row["params"])) == keys


def test_closed_pipe_exits_without_traceback():
    # about 0.5 MB of rows: far more than a pipe buffer holds, so the writer
    # is still writing when the reader goes away after one line
    env = dict(os.environ, PYTHONPATH=str(Path(treeprotect.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "treeprotect.cli", "exact-dist", "X", "400"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert json.loads(proc.stdout.readline())["command"] == "exact-dist"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert err == ""


def test_oracle_emits_both_tables(capsys):
    code, out = _run(capsys, ["oracle", "--n", "4", "--k", "0:3"])
    assert code == 0
    rows = _jsonl(out)
    table = {(r["kind"], r["n"], r["k"]): int(r["value"]) for r in rows}
    assert table[("r", 4, 2)] == 2
    assert table[("r", 4, 3)] == 1
    assert table[("s", 4, 0)] == 4 * 5


def test_oracle_at_the_cap_matches_the_exact_tables(capsys):
    code, out = _run(capsys, ["oracle", "--n", "16", "--k", "0:16"])
    assert code == 0
    table = {(r["kind"], r["k"]): int(r["value"]) for r in _jsonl(out)}
    for kind, dist in (("r", dist_X_exact), ("s", dist_Y_exact)):
        assert [table[(kind, k)] for k in range(17)] == [*dist(16).counts, 0]


def test_csv_round_trips(capsys):
    code, out = _run(capsys, ["exact-dist", "X", "4", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    survival = {
        int(r["k"]): Fraction(int(r["value_num"]), int(r["value_den"]))
        for r in rows
        if r["kind"] == "survival"
    }
    assert survival[2] == Fraction(2, 5)
    # one header, no ragged rows
    header = out.splitlines()[0].split(",")
    assert len(set(header)) == len(header)


def test_csv_and_jsonl_carry_same_data(capsys):
    _, out_j = _run(capsys, ["constants", "c0", "--digits", "10"])
    _, out_c = _run(capsys, ["constants", "c0", "--digits", "10", "--format", "csv"])
    row_j = _jsonl(out_j)[0]
    row_c = list(csv.DictReader(io.StringIO(out_c)))[0]
    assert row_j["decimal"] == row_c["decimal"] == "1.6229713847"
    assert row_j["lower_num"] == row_c["lower_num"]


def test_constants_default_names_cover_all_eight(capsys):
    code, out = _run(capsys, ["constants", "--digits", "6"])
    assert code == 0
    rows = _jsonl(out)
    names = [r["name"] for r in rows]
    assert names == ["c0", "c1", "c2", "c3", "d0", "d1", "d2", "d3"]
    # the stamp lists the names that ran
    assert all(json.loads(r["params"]) == {"names": names, "digits": 6} for r in rows)


def test_counts_past_the_int_to_str_cap_print(capsys):
    # r(7300, 1) = C_7299 has 4,389 digits, past the interpreter's default
    # 4300-digit str() cap, which main must lift
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = _run(capsys, ["r-explicit", "7300", "1"])
        assert code == 0
        value = _jsonl(out)[0]["value"]
        assert len(value) == 4389
        assert int(value) == catalan(7299)
    finally:
        sys.set_int_max_str_digits(previous)


def test_limit_dist_rows(capsys):
    code, out = _run(capsys, ["limit-dist", "X", "--k", "1:3", "--digits", "12"])
    assert code == 0
    rows = _jsonl(out)
    leading = {r["k"]: r for r in rows if r["kind"] == "leading"}
    assert set(leading) == {1, 2, 3}
    assert Fraction(
        int(leading[1]["value_num"]), int(leading[1]["value_den"])
    ) == Fraction(5, 9)
    assert all("error_order" in r for r in rows)


def test_asym_survival_at(capsys):
    code, out = _run(capsys, ["asym", "Y", "2", "100", "--digits", "15"])
    assert code == 0
    rows = {r["kind"]: r for r in _jsonl(out)}
    lead = Fraction(
        int(rows["survival_leading"]["value_num"]),
        int(rows["survival_leading"]["value_den"]),
    )
    assert lead == Fraction(3, 18)
    assert "survival_at" in rows


def test_sample_is_seed_deterministic(capsys):
    args = ["sample", "X", "10", "--trials", "2000", "--seed", "77"]
    _, first = _run(capsys, args)
    _, second = _run(capsys, args)

    def strip_timing(out):
        return [{k: v for k, v in r.items() if k != "elapsed_s"} for r in _jsonl(out)]

    assert strip_timing(first) == strip_timing(second)
    rows = _jsonl(first)
    counts = {r["k"]: int(r["count"]) for r in rows if r["kind"] == "survival"}
    assert counts[0] == 2000
    params = json.loads(rows[0]["params"])
    assert params["rng_algorithm"] == "numpy.random.PCG64"
    assert params["rng_stream"] == 9
    assert params["numpy_version"] == np.__version__


def test_sample_provenance_names_the_route(capsys):
    stamps = {}
    for statistic in "XY":
        _, out = _run(capsys, ["sample", statistic, "10", "--trials", "50"])
        stamps[statistic] = {r["provenance"] for r in _jsonl(out)}
    assert stamps["X"] == {"sampler: generation chain of a uniform tree, numpy.random.PCG64"}
    (y_stamp,) = stamps["Y"]
    assert "generation chain" in y_stamp and "subtree size" in y_stamp and "PCG64" in y_stamp


def test_mellin_check_rows(capsys):
    code, out = _run(capsys, ["mellin-check", "--x", "1.0", "2.0"])
    assert code == 0
    rows = _jsonl(out)
    eqs = [r for r in rows if r["kind"] == "functional_eq"]
    assert {r["x"] for r in eqs} == {1.0, 2.0}
    assert all(r["F_residual"] < 1e-12 and r["G_residual"] < 1e-12 for r in eqs)
    links = {r["name"] for r in rows if r["kind"] == "cross_link"}
    assert "mean_constant_from_F" in links


def test_mellin_check_default_stamps_the_abscissas_it_runs(capsys):
    code, out = _run(capsys, ["mellin-check"])
    assert code == 0
    rows = _jsonl(out)
    xs = [r["x"] for r in rows if r["kind"] == "functional_eq"]
    assert xs == list(MELLIN_ABSCISSAS) and len(xs) == 7
    assert all(json.loads(r["params"]) == {"x": xs} for r in rows)


def test_bare_x_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mellin-check", "--x"])
    assert exc.value.code == 2
    assert "expected at least one argument" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["1e-300", "1e6"])
def test_mellin_check_unreachable_tolerance_is_usage_error(capsys, x):
    # 1e-300 needs too many terms directly, 1e6 through its reflection pi^2/x
    code = main(["mellin-check", "--x", x])
    assert code == 2
    assert "tolerance" in capsys.readouterr().err


_DIGITS_COMMANDS = [
    ["exact-dist", "X", "5"], ["limit-dist", "Y"], ["asym", "X", "2", "10"], ["constants", "c0"]
]


@pytest.mark.parametrize("argv", _DIGITS_COMMANDS)
@pytest.mark.parametrize("digits", ["-1", "0"])
def test_digits_below_one_is_usage_error(capsys, argv, digits):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--digits", digits])
    assert exc.value.code == 2
    assert "digits must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", _DIGITS_COMMANDS)
def test_digits_past_200_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--digits", "201"])
    assert exc.value.code == 2
    assert "digits must be at most 200, got 201" in capsys.readouterr().err


@pytest.mark.parametrize("argv", _DIGITS_COMMANDS)
def test_digits_200_is_accepted(capsys, argv):
    code, out = _run(capsys, argv + ["--digits", "200"])
    assert code == 0
    rows = _jsonl(out)
    assert all(json.loads(row["params"])["digits"] == 200 for row in rows)
    decimals = [row.get("value_decimal", row.get("decimal")) for row in rows]
    assert all(len(d.split(".")[1]) == 200 for d in decimals)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["oracle"])  # missing required --n
    assert exc.value.code == 2


def test_value_error_maps_to_exit_2(capsys):
    code = main(["constants", "nosuch"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sample_past_the_size_cap_is_usage_error(capsys):
    code = main(["sample", "X", "4194305", "--trials", "1"])
    assert code == 2
    assert "at most 4194304" in capsys.readouterr().err


def test_sample_negative_seed_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "X", "5", "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: seed must be at least 0, got -1" in capsys.readouterr().err


def test_sample_trials_past_the_cap_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "X", "10", "--trials", "10000001"])
    assert exc.value.code == 2
    assert "trials must be at most 10000000, got 10000001" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["oracle", "--n", "17"], ["exact-dist", "X", "17", "oracle"]])
def test_oracle_bound_error_names_the_flag_and_limit(capsys, argv):
    # the bound is fixed at 16; the message names the tree-size argument and the cap
    assert main(argv) == 2
    assert "tree size must be at most 16 for enumeration, got 17" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["exact-dist", "X", "N"],
        ["exact-dist", "Y", "N"],
        ["exact-dist", "X", "N", "oracle"],
        ["exact-dist", "Y", "N", "oracle"],
        ["r-explicit", "N", "0"],
        ["sample", "X", "N"],
        ["asym", "X", "3", "N"],
    ],
)
def test_size_below_1_error_names_the_tree_size(capsys, argv, size):
    # both exact-dist routes, r-explicit, sample and asym reject it at parse time
    with pytest.raises(SystemExit) as exc:
        main([size if arg == "N" else arg for arg in argv])
    assert exc.value.code == 2
    assert f"argument n: tree size must be at least 1, got {size}" in capsys.readouterr().err


_ORACLE_COMMANDS = [["oracle", "--n", "3"], ["exact-dist", "X", "3", "oracle"]]


@pytest.mark.parametrize("argv", _ORACLE_COMMANDS)
@pytest.mark.parametrize("bound", ["-1", "0", "17"])
def test_oracle_bound_outside_1_to_16_is_usage_error(capsys, argv, bound):
    # --oracle-bound is gone, so every value of it is an unrecognized argument
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--oracle-bound", bound])
    assert exc.value.code == 2
    assert "unrecognized arguments: --oracle-bound" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["oracle", "--n", "16"], ["exact-dist", "X", "16", "oracle"]])
def test_oracle_bound_16_is_accepted(capsys, argv):
    # n = 16 passes the size check on both routes and runs the real oracle
    code, out = _run(capsys, argv)
    assert code == 0
    record = _jsonl(out)[0]
    assert json.loads(record["params"])["n"] in (16, "16:16")


def test_bad_range_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["oracle", "--n", "4:2:9"])


@pytest.mark.parametrize("argv", [["oracle", "--n", "3", "--k"], ["limit-dist", "X", "--k"]])
def test_range_wider_than_1000_values_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["0:1000"])
    assert exc.value.code == 2
    assert "more than 1000 values" in capsys.readouterr().err


def test_widest_accepted_range_has_1000_values(capsys):
    code, out = _run(capsys, ["oracle", "--n", "3", "--k", "0:999"])
    assert code == 0
    rows = _jsonl(out)
    assert len(rows) == 2 * 1000
    assert json.loads(rows[0]["params"])["k"] == "0:999"
    assert {r["k"] for r in rows} == set(range(1000))


@pytest.mark.parametrize(
    "argv",
    [
        ["exact-dist", "X", "4", "series"],
        ["mellin-check", "--tol", "1e-14"],
        ["verify", "--format", "csv"],
    ],
)
def test_removed_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_readme_cli_examples_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [line.split("#", 1)[0].split() for line in block.splitlines()]
    examples = [words[1:] for words in examples if words[:1] == ["treeprotect"]]
    assert len(examples) >= 10
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)


def test_readme_describes_the_stamped_stream():
    # the stream whose scheme README spells out is the one `sample` stamps
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = re.findall(r"Stream\s+(\d+)\s+is\s+the\s+scheme\s+below", text)
    assert named == [str(RNG_STREAM)]


def test_readme_names_the_word_routes_streams():
    # criterion 6's X cells read stream 4's word draws, its Y cells stream 3's
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = text[text.index("The word routes simulate") :].split("\n\n")[0]
    named = re.findall(r"stream\s+(\d+)'s\s+(?:draws\s+)?for\s+`([XY])`", paragraph)
    assert named == [("4", "X"), ("3", "Y")]


def _table_rows(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 0
    rows = _jsonl(out)
    values = [{k: v for k, v in r.items() if k not in ("params", "provenance", "elapsed_s")}
              for r in rows]
    return values, {r["provenance"] for r in rows}


def test_exact_dist_explicit_for_Y_matches_oracle(capsys):
    explicit, _ = _table_rows(capsys, ["exact-dist", "Y", "5", "explicit"])
    oracle, _ = _table_rows(capsys, ["exact-dist", "Y", "5", "oracle"])
    assert explicit == oracle
    for statistic in ("X", "Y"):
        with pytest.raises(SystemExit) as exc:
            main(["exact-dist", statistic, "5", "guess"])
        assert exc.value.code == 2


def test_exact_dist_provenance_names_the_route(capsys):
    stamps = {}
    for method in ("explicit", "oracle"):
        _, provenance = _table_rows(capsys, ["exact-dist", "X", "6", method])
        assert len(provenance) == 1
        stamps[method] = provenance.pop()
    assert len(set(stamps.values())) == 2
    assert "alternating binomial" in stamps["explicit"]
    assert "enumeration" in stamps["oracle"]
    _, default = _table_rows(capsys, ["exact-dist", "Y", "6"])
    assert default == {stamps["explicit"]}


@pytest.mark.parametrize("statistic", ["X", "Y"])
def test_exact_dist_past_the_size_cap_is_usage_error(capsys, statistic):
    with pytest.raises(SystemExit) as exc:
        main(["exact-dist", statistic, "10001"])
    assert exc.value.code == 2
    assert "tree size must be at most 10000, got 10001" in capsys.readouterr().err


def test_r_explicit_past_the_size_cap_is_usage_error(capsys):
    # one count costs more than n^2 big-int steps: n = 100000 ran 11 s
    with pytest.raises(SystemExit) as exc:
        main(["r-explicit", "100000", "1"])
    assert exc.value.code == 2
    assert "tree size must be at most 10000, got 100000" in capsys.readouterr().err


def test_exact_dist_small_size_is_accepted(capsys):
    code, out = _run(capsys, ["exact-dist", "Y", "3"])
    assert code == 0
    assert json.loads(_jsonl(out)[0]["params"])["n"] == 3


@pytest.mark.parametrize(
    "argv",
    [["limit-dist", "X", "--k", "1001"], ["limit-dist", "Y", "--k", "995:1001"], ["asym", "X", "1001", "10"]],
)
def test_level_past_the_cap_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "level must be at most 1000, got 1001" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["limit-dist", "Y", "--k", "1000"], ["asym", "X", "1000", "10"]])
def test_level_1000_is_accepted(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 0
    assert all(row["k"] == 1000 for row in _jsonl(out))


# Edge-heavy argv for every subcommand but verify.  Sizes and levels are
# drawn from fixed lists, so that no example runs past about a second:
# zero, negative, non-numeric and just-past-cap values, plus a few that work.
_STATISTICS = st.sampled_from(["X", "Y", "Z"])
_LEVELS = st.sampled_from(["-1", "0", "1", "3", "1000", "1001", "x"])
_LEVEL_RANGES = st.sampled_from(["0", "3", "1:4", "4:1", "-1", "0:1000", "995:1001", "1:2:3", "x"])
_DIGITS = st.sampled_from([[]] + [["--digits", d] for d in ("0", "1", "200", "201", "100000")])
_ABSCISSAS = st.lists(
    st.sampled_from(["nan", "inf", "0", "-1", "1e-300", "1e6", "0.7", "x"]), max_size=3
)

_EDGE_ARGV = st.one_of(
    st.tuples(
        st.just(["oracle", "--n"]),
        st.sampled_from(["-1", "0", "1", "12", "17", "x", "1:4", "4:1"]),
        st.sampled_from([[], ["--k", "0:3"], ["--k", "x"], ["--k", "0:1000"]]),
    ),
    st.tuples(
        st.just("exact-dist"),
        _STATISTICS,
        st.sampled_from(["-1", "0", "1", "7", "50", "10001", "x"]),
        st.sampled_from([[], ["explicit"], ["oracle"], ["guess"]]),
        _DIGITS,
    ),
    st.tuples(
        st.just("r-explicit"), st.sampled_from(["-1", "0", "1", "7", "500", "10001", "x"]), _LEVELS
    ),
    st.tuples(st.just("limit-dist"), _STATISTICS, st.just("--k"), _LEVEL_RANGES, _DIGITS),
    st.tuples(
        st.just("asym"), _STATISTICS, _LEVELS, st.sampled_from(["-1", "0", "100", "x"]), _DIGITS
    ),
    st.tuples(st.just("constants"), st.lists(st.sampled_from(["c0", "d3", "zz"])), _DIGITS),
    st.tuples(st.just(["mellin-check", "--x"]), _ABSCISSAS),
    st.tuples(
        st.just("sample"),
        _STATISTICS,
        st.sampled_from(["-1", "0", "1", "10", "4194305", "x"]),
        st.sampled_from([[]] + [["--trials", t] for t in ("-1", "0", "50", "10000001")]),
        st.sampled_from([[], ["--seed", "-1"], ["--seed", "7"]]),
    ),
).map(lambda parts: [w for part in parts for w in ([part] if isinstance(part, str) else part)])


@settings(deadline=None, max_examples=300)
@given(_EDGE_ARGV)
def test_edge_inputs_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _csv(out):
    return list(csv.DictReader(io.StringIO(out)))


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("statistic", ["X", "Y"])
def test_exact_dist_values_match_the_fraction_route(capsys, fmt, statistic):
    # rows are rendered from the integer counts; the reference reads each value
    # as a reduced Fraction of the table and truncates that
    dist = dist_X_exact if statistic == "X" else dist_Y_exact
    oracle = oracle_r if statistic == "X" else oracle_s
    read = _jsonl if fmt == "jsonl" else _csv
    for n in range(1, 41):
        for method in ("explicit", "oracle") if n <= 12 else ("explicit",):
            if method == "oracle":
                table = DistributionTable(tuple(oracle(n, k) for k in range(n)))
            else:
                table = dist(n)
            survival = [Fraction(c, table.counts[0]) for c in table.counts] + [Fraction(0)]
            expected = {("survival", k): survival[k] for k in range(n)}
            expected |= {("pmf", k): survival[k] - survival[k + 1] for k in range(n)}
            for name in ("mean", "second_moment", "variance"):
                expected["moment", name] = getattr(table, name)
            for digits in (1, 30, 200):
                argv = ["exact-dist", statistic, str(n), method, "--digits", str(digits)]
                code, out = _run(capsys, argv + ["--format", fmt])
                assert code == 0
                rows = read(out)
                assert len(rows) == len(expected)
                for row in rows:
                    key = row["name"] if row["kind"] == "moment" else int(row["k"])
                    value = expected[row["kind"], key]
                    assert row["value_num"] == str(value.numerator), (argv, row)
                    assert row["value_den"] == str(value.denominator), (argv, row)
                    decimal = truncated_decimal(value.numerator, value.denominator, digits)
                    assert row["value_decimal"] == decimal, (argv, row)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--n", "1:4", "--k", "0:3"],
        ["exact-dist", "X", "5"],
        # more rows than one write's chunk
        ["exact-dist", "Y", "300", "--digits", "3"],
        ["r-explicit", "9", "2"],
        ["limit-dist", "X", "--k", "0:4"],
        ["limit-dist", "Y", "--digits", "5"],
        ["asym", "X", "3", "10"],
        ["asym", "X", "2", "10"],
        ["constants", "c1", "d3", "--digits", "20"],
        ["mellin-check", "--x", "0.5", "1.5"],
        ["sample", "Y", "50", "--trials", "300", "--seed", "4"],
    ],
)
def test_every_line_is_the_encoded_merged_record(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines and out.endswith("\n")
    for line in lines:
        record = json.loads(line)
        # one key per field: a field written twice would not survive the round trip
        assert json.dumps(record) == line
        keys = list(record)
        assert keys[:2] == ["command", "params"] and keys[-2:] == ["provenance", "elapsed_s"]
        assert len(keys) > 4 and record["command"] == argv[0]
        # params is a JSON string inside the record, its quotes escaped
        assert line.startswith('{"command": "%s", "params": "{\\"' % argv[0])
    if argv[0] == "exact-dist":
        assert len(lines) == 2 * int(argv[2]) + 3


def test_records_carry_negative_decimals_and_floats(capsys):
    _, out = _run(capsys, ["asym", "X", "2", "10"])
    assert _jsonl(out)[1]["kind"] == "survival_correction"
    assert _jsonl(out)[1]["value_decimal"].startswith("-0.")
    _, out = _run(capsys, ["limit-dist", "X", "--k", "0:4"])
    assert any(r["value_decimal"].startswith("-") for r in _jsonl(out))
    _, out = _run(capsys, ["mellin-check", "--x", "0.5"])
    assert isinstance(_jsonl(out)[0]["F_residual"], float)
    _, out = _run(capsys, ["sample", "X", "10", "--trials", "100"])
    assert isinstance(_jsonl(out)[-1]["value"], float)


@pytest.mark.parametrize(
    "first, second, check",
    [
        (
            ["exact-dist", "X", "5", "--digits", "3"],
            ["exact-dist", "X", "5"],
            lambda rows: all(len(r["value_decimal"].split(".")[1]) == 30 for r in rows),
        ),
        (
            ["mellin-check", "--x", "0.7"],
            ["mellin-check"],
            lambda rows: [r["x"] for r in rows if r["kind"] == "functional_eq"]
            == list(MELLIN_ABSCISSAS),
        ),
        (
            ["r-explicit", "6", "2", "--format", "csv"],
            ["r-explicit", "6", "2"],
            lambda rows: rows[0]["value"] == "18"
            and json.loads(rows[0]["params"]) == {"n": 6, "k": 2},
        ),
    ],
)
def test_the_reused_parser_keeps_nothing_between_calls(capsys, first, second, check):
    assert main(first) == 0
    capsys.readouterr()
    code, out = _run(capsys, second)
    assert code == 0
    assert check(_jsonl(out))


def test_every_caller_shares_one_parser():
    # a caller that builds the parser ahead of main, as a warm-up, builds main's
    assert build_parser() is build_parser()


def test_a_usage_error_leaves_the_parser_whole(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact-dist", "X", "0:4", "--digits", "7"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = _run(capsys, ["exact-dist", "X", "4", "oracle"])
    assert code == 0
    rows = _jsonl(out)
    assert json.loads(rows[0]["params"]) == {
        "statistic": "X", "n": 4, "method": "oracle", "digits": 30
    }
    assert [r["value_num"] for r in rows if r["kind"] == "survival"] == ["1", "1", "2", "1"]
