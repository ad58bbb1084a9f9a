import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from matbalance.cli import (
    EXIT_DEFECT,
    EXIT_INCONSISTENT,
    EXIT_INVALID_INPUT,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    ParseError,
    main,
    parse_input,
    _parse_gauge,
)

from conftest import nathanson_limit


@pytest.fixture
def json_doc(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(
        json.dumps({"matrix": [[1, 2], [3, 4]], "row_sums": [1, 1], "col_sums": [1, 1]})
    )
    return str(path)


@pytest.fixture
def csv_doc(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("2,4\n3,6\n")
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseInput:
    def test_json_document(self, json_doc):
        matrix, rows, cols = parse_input(json_doc)
        assert matrix == [[1, 2], [3, 4]]
        assert rows == [1, 1] and cols == [1, 1]

    def test_csv_with_flags(self, csv_doc):
        matrix, rows, cols = parse_input(csv_doc, rows_flag="1,1", cols_flag="1,1")
        assert matrix == [[2.0, 4.0], [3.0, 6.0]]
        assert rows == [1.0, 1.0]

    def test_csv_requires_flags(self, csv_doc):
        with pytest.raises(ParseError):
            parse_input(csv_doc)

    def test_exact_decimal_parsing(self, tmp_path):
        path = tmp_path / "exact.json"
        path.write_text('{"matrix": [[0.1, 0.2]], "row_sums": [0.3], "col_sums": [0.1, 0.2]}')
        matrix, rows, cols = parse_input(str(path), exact=True)
        assert matrix[0][0] == Fraction(1, 10)
        assert rows[0] == Fraction(3, 10)

    def test_exact_csv_accepts_ratios(self, tmp_path):
        path = tmp_path / "exact.csv"
        path.write_text("1/3,2\n400,9999/17\n")
        matrix, _, _ = parse_input(str(path), rows_flag="1,1", cols_flag="1,1", exact=True)
        assert matrix[0][0] == Fraction(1, 3)
        assert matrix[1][1] == Fraction(9999, 17)

    def test_float_csv_accepts_ratios(self, tmp_path):
        path = tmp_path / "ratios.csv"
        path.write_text("1,2\n400,9999/17\n")
        matrix, _, _ = parse_input(str(path), rows_flag="1,1", cols_flag="1,1")
        assert matrix[1][1] == pytest.approx(9999 / 17)

    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"matrix": [[1, 2],\n [3, oops]]}')
        with pytest.raises(ParseError) as err:
            parse_input(str(path))
        assert err.value.line == 2

    def test_csv_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("1,2\n3,zebra\n")
        with pytest.raises(ParseError) as err:
            parse_input(str(path), rows_flag="1,1", cols_flag="1,1")
        assert (err.value.line, err.value.column) == (2, 2)

    @pytest.mark.parametrize("flag, column, field", [
        ("1,,1", 2, ""), ("1,1,", 3, ""), (",1", 1, ""), ("1,,x", 2, ""), ("1, ,x", 2, ""), ("1,1,x", 3, "x"),
    ])
    def test_vector_flag_fields_keep_their_positions(self, csv_doc, flag, column, field):
        with pytest.raises(ParseError) as err:
            parse_input(csv_doc, rows_flag=flag, cols_flag="1,1")
        assert (err.value.line, err.value.column) == (1, column)
        assert f"not a number: {field!r}" in str(err.value)

    def test_empty_field_in_vector_flag_exits_2(self, capsys, csv_doc):
        code, out, err = run_main(capsys, ["scale", csv_doc, "--rows", "1,,1", "--cols", "1,1"])
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == "error: not a number: '' (line 1, column 2)\n"

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_input("/nonexistent/input.json")

    def test_conflicting_targets_rejected(self, json_doc):
        with pytest.raises(ParseError):
            parse_input(json_doc, rows_flag="1,1", cols_flag="1,1")

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("doc, field", [
        ({"matrix": [[1, 2], [3, 4]], "row_sums": "11", "col_sums": [1, 1]}, "'row_sums'"),
        ({"matrix": [[1, 2], [3, 4]], "row_sums": [1, 1], "col_sums": 2}, "'col_sums'"),
        ({"matrix": [[1, 2], [3, 4]], "row_sums": [1, False], "col_sums": [1, 1]}, "'row_sums'"),
        ({"matrix": [[True, 2], [3, 4]], "row_sums": [1, 1], "col_sums": [1, 1]}, "'matrix'"),
        ({"matrix": [["1", 2], [3, 4]], "row_sums": [1, 1], "col_sums": [1, 1]}, "'matrix'"),
        ({"matrix": [[float("inf"), 2], [3, 4]], "row_sums": [1, 1], "col_sums": [1, 1]}, "Infinity"),
        ({"matrix": [[1, 2], [3, 4]], "row_sums": [float("nan"), 1], "col_sums": [1, 1]}, "NaN"),
    ])
    def test_json_fields_must_hold_numbers(self, tmp_path, doc, field, exact):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=field):
            parse_input(str(path), exact=exact)

    @pytest.mark.parametrize("command", ["scale", "degree-check"])
    @pytest.mark.parametrize("doc, message", [
        ({"matrix": [[1, 2], [3]], "row_sums": [1, 1], "col_sums": [1, 1]}, "matrix rows have unequal lengths"),
        ({"matrix": [], "row_sums": [1], "col_sums": [1]}, "matrix must be nonempty"),
        ({"matrix": [[]], "row_sums": [1], "col_sums": [1]}, "matrix must be nonempty"),
        ({"matrix": [[True, 2], [3, 4]], "row_sums": [1, 1], "col_sums": [1, 1]}, "'matrix' must be an array"),
        ({"matrix": [[1, 2], [3, 4]], "row_sums": "11", "col_sums": [1, 1]}, "'row_sums' must be an array"),
        ({"matrix": [[float("inf"), 2], [3, 4]], "row_sums": [1, 1], "col_sums": [1, 1]}, "Infinity is not"),
    ])
    def test_malformed_json_is_a_typed_error(self, capsys, tmp_path, command, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, [command, str(path)])
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith(f"error: {message}")

    def test_ragged_csv_is_a_typed_error(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        code, _, err = run_main(capsys, ["scale", str(path), "--rows", "1,1", "--cols", "1,1"])
        assert code == EXIT_INVALID_INPUT
        assert err == "error: matrix rows have unequal lengths\n"


class TestGaugeFlag:
    def test_parse(self):
        g = _parse_gauge("c,2")
        assert g.kind == "unit_col_factor" and g.index == 1
        g = _parse_gauge("r,1")
        assert g.kind == "unit_row_factor" and g.index == 0

    @pytest.mark.parametrize("bad", ["x,1", "c", "c,0", "c,zero"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            _parse_gauge(bad)


class TestFlagValidation:
    # The 2x2 input has a closed form, so scale-tol shows that --tol is
    # checked before any route is chosen.
    @pytest.mark.parametrize("argv, message", [
        (["scale", "{pair}", "--tol", "0"], "tolerance must be > 0"),
        (["scale", "{pair}", "--max-iters", "0"], "max_iterations must be >= 1"),
        (["compare", "{pair}", "--tol=-1e-9"], "tolerance must be > 0"),
        (["degree-check", "--seed", str(2**64)], "seed must fit in 64 bits"),
        (["degree-check", "--seed=-1"], "seed must fit in 64 bits"),
        (["degree-check", "--count", "0"], "--count must be >= 1, got 0"),
        (["degree-check", "--count=-2"], "--count must be >= 1, got -2"),
        (["degree-check", "--gauge", "r,9"], "--gauge cannot be used without an input file"),
        (["degree-check", "--rows", "1,1", "--cols", "1,1"], "--rows, --cols cannot be used without an input file"),
        (["degree-check", "{pair}", "--seed", "1"], "--seed cannot be used with an input file"),
        (["degree-check", "{pair}", "--count", "2"], "--count cannot be used with an input file"),
    ], ids=[
        "scale-tol", "scale-max-iters", "compare-tol", "seed-too-large", "seed-negative", "count-zero",
        "count-negative", "seeded-gauge", "seeded-rows-cols", "file-seed", "file-count",
    ])
    def test_bad_value_exits_2(self, capsys, json_doc, argv, message):
        argv = [arg.format(pair=json_doc) for arg in argv]
        code, out, err = run_main(capsys, argv)
        assert (code, out, err) == (EXIT_INVALID_INPUT, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["scale", "{pair}", "--count", "3"],
        ["scale", "{pair}", "--seed", "1"],
        ["scale", "{pair}", "--gauge", "c,1"],
        ["compare", "{pair}", "--method", "closed-form"],
        ["compare", "{pair}", "--gauge", "c,1"],
        ["factors", "{pair}", "--count", "3"],
        ["degree-check", "--tol", "0"],
        ["degree-check", "--method", "iterative"],
        ["degree-check", "--max-iters", "5"],
        ["degree-check", "--singularity-threshold", "0.1"],
    ])
    def test_flag_of_another_command_is_a_usage_error(self, capsys, json_doc, argv):
        argv = [arg.format(pair=json_doc) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_INVALID_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err


class TestScaleCommand:
    def test_auto_routes_to_closed_form(self, capsys, json_doc):
        code, out, _ = run_main(capsys, ["scale", json_doc])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["method"] == "closed_form_2x2"
        expected = nathanson_limit([[1, 2], [3, 4]])
        assert np.max(np.abs(np.array(doc["matrix"]) - expected)) <= 1e-12

    def test_emitted_matrix_passes_residuals(self, capsys, json_doc):
        _, out, _ = run_main(capsys, ["scale", json_doc, "--method", "iterative"])
        doc = json.loads(out)
        tol = doc["tolerance"]
        for res, target in zip(doc["row_residuals"], doc["row_targets"]):
            assert abs(res) <= tol * max(1.0, target)
        for res, target in zip(doc["col_residuals"], doc["col_targets"]):
            assert abs(res) <= tol * max(1.0, target)

    def test_csv_input_and_singular_route(self, capsys, csv_doc):
        code, out, _ = run_main(capsys, ["scale", csv_doc, "--rows", "1,1", "--cols", "1,1"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["method"] == "closed_form_2x2_singular"
        assert doc["matrix"] == [[0.5, 0.5], [0.5, 0.5]]

    def test_inconsistent_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"matrix": [[1, 2], [3, 4]], "row_sums": [1, 1], "col_sums": [1, 2]})
        )
        code, out, err = run_main(capsys, ["scale", str(path)])
        assert code == EXIT_INCONSISTENT
        assert out == ""
        assert "inconsistent" in err.lower()

    def test_nonpositive_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"matrix": [[1, -2], [3, 4]], "row_sums": [1, 1], "col_sums": [1, 1]})
        )
        code, _, _ = run_main(capsys, ["scale", str(path)])
        assert code == EXIT_INVALID_INPUT

    def test_not_converged_exits_4(self, capsys, json_doc):
        code, _, err = run_main(
            capsys, ["scale", json_doc, "--method", "iterative", "--max-iters", "1"]
        )
        assert code == EXIT_NOT_CONVERGED
        assert "convergence" in err or "iterations" in err

    def test_underflowing_closed_form_exits_defect_without_traceback(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        tiny = (1e-150 * np.array([[1.0, 2.0], [3.0, 4.0]])).tolist()
        path.write_text(json.dumps({"matrix": tiny, "row_sums": [1, 1], "col_sums": [1, 1]}))
        code, out, err = run_main(capsys, ["scale", str(path)])
        assert code == EXIT_DEFECT
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_factors_out_of_range_print_only_the_error_line(self, tmp_path):
        # Run as a process, so stderr holds whatever numpy would print too.
        path = tmp_path / "subnormal.json"
        tiny = (1e-320 * np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]])).tolist()
        path.write_text(json.dumps({"matrix": tiny, "row_sums": [1, 1, 1], "col_sums": [1, 1, 1]}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "matbalance.cli", "scale", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_INVALID_INPUT
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_closed_form_on_unsupported_shape_exits_2(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "matrix": [[1, 2, 3], [4, 5, 6], [7, 8, 9.5]],
                    "row_sums": [1, 1, 1],
                    "col_sums": [1, 1, 1],
                }
            )
        )
        code, _, _ = run_main(capsys, ["scale", str(path), "--method", "closed-form"])
        assert code == EXIT_INVALID_INPUT

    def test_auto_falls_back_to_iterative(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "matrix": [[1, 2, 3], [4, 5, 6], [7, 8, 9.5]],
                    "row_sums": [1, 1, 1],
                    "col_sums": [1, 1, 1],
                }
            )
        )
        code, out, _ = run_main(capsys, ["scale", str(path)])
        assert code == EXIT_OK
        assert json.loads(out)["method"] == "iterative"

    def test_csv_output_format(self, capsys, json_doc):
        code, out, _ = run_main(capsys, ["scale", json_doc, "--format", "csv"])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 2 and len(rows[0]) == 2
        assert float(rows[0][0]) == pytest.approx(2 / (2 + np.sqrt(6)), abs=1e-12)


class TestFactorsCommand:
    def test_golden_row_factor(self, capsys, json_doc):
        code, out, _ = run_main(capsys, ["factors", json_doc, "--gauge", "c,2"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["gauge"] == {"kind": "unit_col_factor", "index": 2}
        assert doc["row_factors"][1] == pytest.approx(0.112372, abs=1e-5)
        assert doc["col_factors"][1] == 1.0

    def test_default_gauge_is_last_column(self, capsys, json_doc):
        _, out, _ = run_main(capsys, ["factors", json_doc])
        doc = json.loads(out)
        assert doc["gauge"] == {"kind": "unit_col_factor", "index": 2}

    def test_singular_instance_falls_back_to_iterative(self, capsys, csv_doc):
        code, out, _ = run_main(
            capsys, ["factors", csv_doc, "--rows", "1,1", "--cols", "1,1"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["method"] == "iterative"
        assert len(doc["row_factors"]) == 2


class TestCompareCommand:
    def test_gap_below_tolerance(self, capsys, json_doc):
        code, out, _ = run_main(capsys, ["compare", json_doc])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["max_entrywise_gap"] <= 1e-6
        assert doc["closed_form"]["method"] == "closed_form_2x2"

    def test_unsupported_shape_reports_iterative_only(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "matrix": [[1, 2, 3], [4, 5, 6], [7, 8, 9.5]],
                    "row_sums": [1, 1, 1],
                    "col_sums": [1, 1, 1],
                }
            )
        )
        code, out, _ = run_main(capsys, ["compare", str(path)])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["closed_form"] is None
        assert doc["max_entrywise_gap"] is None


class TestDegreeCheckCommand:
    def test_sweep_small_count(self, capsys):
        code, out, _ = run_main(capsys, ["degree-check", "--seed", "42", "--count", "3"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["all_within_bound"] is True
        observed = {(s["rows"], s["cols"]): s for s in doc["shapes"]}
        assert observed[(1, 3)]["degrees"] == {"1": 3}
        assert observed[(2, 2)]["degrees"] == {"2": 3}
        assert observed[(2, 3)]["degrees"] == {"3": 3}
        assert observed[(2, 4)]["degrees"] == {"4": 3}

    def test_single_exact_input(self, capsys, tmp_path):
        path = tmp_path / "exact.json"
        path.write_text(
            json.dumps({"matrix": [[0.1, 0.2], [0.3, 0.4]], "row_sums": [1, 1], "col_sums": [1, 1]})
        )
        code, out, _ = run_main(capsys, ["degree-check", str(path)])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["degree"] == 2
        assert doc["within_bound"] is True

    def test_single_inconsistent_input_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"matrix": [[1, 2], [3, 4]], "row_sums": [1, 1], "col_sums": [1, 2]})
        )
        code, out, _ = run_main(capsys, ["degree-check", str(path)])
        assert code == EXIT_INCONSISTENT
        doc = json.loads(out)
        assert doc["unit_ideal"] is True
        assert doc["degree"] is None

    def test_exactly_singular_input_degree_one(self, capsys, tmp_path):
        path = tmp_path / "singular.csv"
        path.write_text("2,4\n3,6\n")
        code, out, _ = run_main(
            capsys, ["degree-check", str(path), "--rows", "1,1", "--cols", "1,1"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["degree"] == 1

    def test_csv_format(self, capsys):
        code, out, _ = run_main(
            capsys, ["degree-check", "--seed", "1", "--count", "2", "--format", "csv"]
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "rows,cols,bound,max_observed,within_bound"
        assert len(lines) == 5


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestGoldenStdout:
    """Stdout bytes of commands whose output does not depend on BLAS.

    The files under ``tests/golden/`` hold the expected bytes; any
    difference is a change in the output format.
    """

    @pytest.mark.parametrize("golden, argv", [
        ("scale_2x2.json", ["scale", "{pair}"]),
        ("scale_2x2.csv", ["scale", "{pair}", "--format", "csv"]),
        ("factors_2x2.json", ["factors", "{pair}"]),
        ("factors_2x2.csv", ["factors", "{pair}", "--format", "csv"]),
        ("scale_singular.json", ["scale", "{singular}", "--rows", "1,1", "--cols", "1,1"]),
        ("degree_check.json", ["degree-check", "--seed", "42", "--count", "3"]),
        ("degree_check.csv", ["degree-check", "--seed", "42", "--count", "3", "--format", "csv"]),
    ])
    def test_matches_recorded_bytes(self, capsys, json_doc, csv_doc, golden, argv):
        argv = [arg.format(pair=json_doc, singular=csv_doc) for arg in argv]
        code, out, err = run_main(capsys, argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


class TestDeterminism:
    def test_byte_identical_output(self, capsys, json_doc):
        outputs = []
        for _ in range(2):
            _, out, _ = run_main(capsys, ["scale", json_doc, "--method", "iterative"])
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_degree_check_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run_main(capsys, ["degree-check", "--seed", "9", "--count", "2"])
            outputs.append(out)
        assert outputs[0] == outputs[1]
