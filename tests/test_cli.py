"""CLI surface: record schemas, formats, exit codes."""

import csv
import io
import json
from fractions import Fraction

import pytest

from treeprotect.cli import build_parser, main


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


def test_oracle_emits_both_tables(capsys):
    code, out = _run(capsys, ["oracle", "--n", "4", "--k", "0:3"])
    assert code == 0
    rows = _jsonl(out)
    table = {(r["kind"], r["n"], r["k"]): int(r["value"]) for r in rows}
    assert table[("r", 4, 2)] == 2
    assert table[("r", 4, 3)] == 1
    assert table[("s", 4, 0)] == 4 * 5


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
    names = [r["name"] for r in _jsonl(out)]
    assert names == ["c0", "c1", "c2", "c3", "d0", "d1", "d2", "d3"]


def test_constants_survive_huge_rationals(capsys):
    # 60-digit enclosures have numerators beyond the default int-to-str cap
    code, out = _run(capsys, ["constants", "c0", "--digits", "60"])
    assert code == 0
    row = _jsonl(out)[0]
    assert row["decimal"].startswith("1.62297138471535304951465820318434598963551366898406")
    assert len(row["lower_num"]) > 4300


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
    assert params["rng_stream"] == 2


def test_mellin_check_rows(capsys):
    code, out = _run(capsys, ["mellin-check", "--x", "1.0", "2.0"])
    assert code == 0
    rows = _jsonl(out)
    eqs = [r for r in rows if r["kind"] == "functional_eq"]
    assert {r["x"] for r in eqs} == {1.0, 2.0}
    assert all(r["F_residual"] < 1e-12 and r["G_residual"] < 1e-12 for r in eqs)
    links = {r["name"] for r in rows if r["kind"] == "cross_link"}
    assert "mean_constant_from_F" in links


@pytest.mark.parametrize("x", ["1e-300", "1e6"])
def test_mellin_check_unreachable_tolerance_is_usage_error(capsys, x):
    # 1e-300 needs too many terms directly, 1e6 through its reflection pi^2/x
    code = main(["mellin-check", "--x", x])
    assert code == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["exact-dist", "X", "5"], ["limit-dist", "Y"], ["asym", "X", "2", "10"], ["constants", "c0"]],
)
@pytest.mark.parametrize("digits", ["-1", "0"])
def test_digits_below_one_is_usage_error(capsys, argv, digits):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--digits", digits])
    assert exc.value.code == 2
    assert "digits must be at least 1" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["oracle"])  # missing required --n
    assert exc.value.code == 2


def test_value_error_maps_to_exit_2(capsys):
    code = main(["constants", "nosuch"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_oracle_bound_maps_to_exit_3(capsys):
    code = main(["oracle", "--n", "30"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_bad_range_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["oracle", "--n", "4:2:9"])


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
    for method in ("explicit", "series", "oracle"):
        _, provenance = _table_rows(capsys, ["exact-dist", "X", "6", method])
        assert len(provenance) == 1
        stamps[method] = provenance.pop()
    assert len(set(stamps.values())) == 3
    assert "alternating binomial" in stamps["explicit"]
    assert "recurrence" in stamps["series"]
    assert "enumeration" in stamps["oracle"]
    _, default = _table_rows(capsys, ["exact-dist", "Y", "6"])
    assert default == {stamps["explicit"]}
