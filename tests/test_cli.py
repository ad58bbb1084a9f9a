import argparse
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from matbalance import Marginals, PositiveMatrix, ResourceLimit, exactalgebra, sinkhorn_iterate, validate_instance
from matbalance.cli import (
    EXIT_DEFECT,
    EXIT_INCONSISTENT,
    EXIT_INVALID_INPUT,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_RESOURCE_LIMIT,
    ParseError,
    build_parser,
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

    @pytest.mark.parametrize("command", ["scale", "degree-check"])
    @pytest.mark.parametrize("literal", ["inf", "-inf", "nan", "Infinity", "-NaN"])
    @pytest.mark.parametrize("where, position", [("cell", "line 2, column 1"), ("rows", "line 1, column 2")])
    def test_non_finite_literals_are_not_numbers_on_either_route(
        self, capsys, tmp_path, command, literal, where, position
    ):
        path = tmp_path / "matrix.csv"
        path.write_text(f"1,2\n{literal if where == 'cell' else 3},4\n")
        rows = f"1,{literal}" if where == "rows" else "1,1"
        code, out, err = run_main(capsys, [command, str(path), "--rows", rows, "--cols", "1,1"])
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert err == f"error: not a number: {literal!r} ({position})\n"

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400 + "/3"], ids=["1e400", "-1e400", "ratio"])
    def test_rationals_outside_the_float_range_are_refused_on_the_float_route(self, csv_doc, literal):
        with pytest.raises(ParseError, match=r"outside the float range: .* \(line 1, column 2\)"):
            parse_input(csv_doc, rows_flag=f"1,{literal}", cols_flag="1,1")
        _, rows, _ = parse_input(csv_doc, rows_flag=f"1,{literal}", cols_flag="1,1", exact=True)
        assert rows[1] == Fraction(literal)

    @pytest.mark.parametrize("command", ["scale", "factors", "compare", "degree-check"])
    @pytest.mark.parametrize("where, position", [("cell", "line 2, column 1"), ("rows", "line 1, column 2")])
    def test_literals_past_the_digit_limit(self, capsys, tmp_path, command, where, position):
        # Python will not convert an integer string this long, which is no
        # reason to call it "not a number".
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this interpreter has no integer-string digit limit")
        literal = "1" * (limit + 700)
        path = tmp_path / "matrix.csv"
        path.write_text(f"1,2\n{literal if where == 'cell' else 3},4\n")
        rows = f"1,{literal}" if where == "rows" else "1,1"
        code, out, err = run_main(capsys, [command, str(path), "--rows", rows, "--cols", "1,1"])
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        if command == "degree-check":
            reason = f"{limit + 700} digits, past Python's integer-string limit of {limit}"
        else:
            reason = "outside the float range"
        assert err == f"error: {reason}: {literal!r} ({position})\n"

    @pytest.mark.parametrize("command, reason", [
        ("scale", "outside the float range"), ("degree-check", "digits, past Python's integer-string limit"),
    ])
    def test_json_literal_past_the_digit_limit(self, capsys, tmp_path, command, reason):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this interpreter has no integer-string digit limit")
        path = tmp_path / "big.json"
        path.write_text('{"matrix": [[%s, 2], [3, 4]], "row_sums": [1, 1], "col_sums": [1, 1]}' % ("1" * (limit + 1)))
        code, out, err = run_main(capsys, [command, str(path)])
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert err.startswith("error: ") and reason in err

    @pytest.mark.parametrize("exponent", ["30000000", "-30000000", "{limit1}", "-{limit1}"])
    @pytest.mark.parametrize("where, position", [
        ("cell", "line 2, column 1"), ("rows", "line 1, column 2"), ("json", "line 1, column 1"),
    ])
    def test_exact_literal_with_an_exponent_past_the_digit_limit(self, capsys, tmp_path, exponent, where, position):
        # Fraction would build 10**exponent, with millions of digits for 1e30000000.
        limit = sys.get_int_max_str_digits() or 4300
        literal = "1e" + exponent.format(limit1=limit + 1)
        if where == "json":
            path = tmp_path / "big.json"
            path.write_text('{"matrix": [[%s, 2], [3, 4]], "row_sums": [1, 1], "col_sums": [1, 1]}' % literal)
            argv = ["degree-check", str(path)]
        else:
            path = tmp_path / "matrix.csv"
            path.write_text(f"1,2\n{literal if where == 'cell' else 3},4\n")
            rows = f"1,{literal}" if where == "rows" else "1,1"
            argv = ["degree-check", str(path), "--rows", rows, "--cols", "1,1"]
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert err == f"error: exponent past Python's integer-string limit of {limit}: {literal!r} ({position})\n"

    def test_exact_literals_with_exponents_within_the_digit_limit(self, csv_doc):
        limit = sys.get_int_max_str_digits() or 4300
        rows = f"1e400,1e-{limit}"
        _, parsed, _ = parse_input(csv_doc, rows_flag=rows, cols_flag=f"1e{limit},1", exact=True)
        assert parsed == [Fraction(10) ** 400, Fraction(1, 10**limit)]

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

    # Excel's "CSV UTF-8" export starts the file with a byte-order mark.
    @pytest.mark.parametrize("command", ["scale", "degree-check"])
    @pytest.mark.parametrize("text, flags", [
        ('{"matrix": [[1, 2], [3, 4]], "row_sums": [1, 1], "col_sums": [1, 1]}', []),
        ("1,2\n3,4\n", ["--rows", "1,1", "--cols", "1,1"]),
    ], ids=["json", "csv"])
    def test_a_byte_order_mark_is_skipped(self, capsys, tmp_path, command, text, flags):
        outputs = []
        for name, prefix in (("plain", ""), ("marked", "\ufeff")):
            path = tmp_path / name
            path.write_text(prefix + text, encoding="utf-8")
            outputs.append(run_main(capsys, [command, str(path), *flags]))
        assert outputs[0][0] == EXIT_OK
        assert outputs[1] == outputs[0]

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
        (["scale", "{pair}", "--tol", "inf", "--method", "iterative"], "tolerance must be finite, got inf"),
        (["factors", "{pair}", "--tol", "nan"], "tolerance must be finite, got nan"),
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
        "scale-tol", "scale-tol-inf", "factors-tol-nan", "scale-max-iters", "compare-tol", "seed-too-large",
        "seed-negative", "count-zero", "count-negative", "seeded-gauge", "seeded-rows-cols", "file-seed", "file-count",
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
        # The 2x2 singularity test is the fixed closedform.SINGULARITY_THRESHOLD.
        ["scale", "{pair}", "--singularity-threshold", "0.1"],
        ["factors", "{pair}", "--singularity-threshold", "0.1"],
        ["compare", "{pair}", "--singularity-threshold", "0.1"],
    ])
    def test_flag_of_another_command_is_a_usage_error(self, capsys, json_doc, argv):
        argv = [arg.format(pair=json_doc) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_INVALID_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_each_command_declares_the_flags_it_reads(self):
        subcommands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        flags = {
            name: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
            for name, p in subcommands.items()
        }
        assert flags == {
            "scale": ["--rows", "--cols", "--method", "--tol", "--max-iters", "--format"],
            "factors": ["--rows", "--cols", "--method", "--tol", "--max-iters", "--gauge", "--format"],
            "compare": ["--rows", "--cols", "--tol", "--max-iters", "--format"],
            "degree-check": ["--rows", "--cols", "--gauge", "--seed", "--count", "--format"],
        }


class TestDocumentShapes:
    """Input documents that are read as matrix-only, refused, or skipped around."""

    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("text, message", [
        ('{"row_sums": [1, 1], "col_sums": [1, 1]}', "document must be an object with a 'matrix' field"),
        ('{"matrix": [[1, 2], [3, 4]], "row_sums": [1, 1]}', "document needs both 'row_sums' and 'col_sums'"),
        ('{"matrix": [[1, 2], [3, 4]], "col_sums": [1, 1]}', "document needs both 'row_sums' and 'col_sums'"),
        # Only a document that starts with "{" is JSON; an array is read as CSV.
        ("[[1, 2], [3, 4]]", "not a number: '[[1'"),
        ("\n  \n\n", "empty matrix"),
    ], ids=["no-matrix", "no-col-sums", "no-row-sums", "array", "blank-csv"])
    @pytest.mark.parametrize("command", ["scale", "degree-check"])
    def test_refused_documents(self, capsys, tmp_path, command, text, message):
        argv = [command, self.write(tmp_path, "doc", text)]
        if "sums" not in text:
            argv += ["--rows", "1,1", "--cols", "1,1"]
        assert run_main(capsys, argv) == (EXIT_INVALID_INPUT, "", f"error: {message} (line 1, column 1)\n")

    @pytest.mark.parametrize("command", ["scale", "degree-check"])
    def test_matrix_only_json_takes_flag_targets(self, capsys, tmp_path, json_doc, command):
        matrix_only = self.write(tmp_path, "m.json", '{"matrix": [[1, 2], [3, 4]]}')
        expected = run_main(capsys, [command, json_doc])
        assert expected[0] == EXIT_OK
        assert run_main(capsys, [command, matrix_only, "--rows", "1,1", "--cols", "1,1"]) == expected

    def test_blank_lines_inside_a_csv_are_skipped(self, capsys, tmp_path, csv_doc):
        spaced = self.write(tmp_path, "spaced.csv", "\n2,4\n  \n3,6\n\n")
        targets = ["--rows", "1,1", "--cols", "1,1"]
        expected = run_main(capsys, ["scale", csv_doc, *targets])
        assert expected[0] == EXIT_OK
        assert run_main(capsys, ["scale", spaced, *targets]) == expected
        # Positions still count the skipped lines.
        broken = self.write(tmp_path, "broken.csv", "2,4\n\n3,x\n")
        assert run_main(capsys, ["scale", broken, *targets]) == (
            EXIT_INVALID_INPUT, "", "error: not a number: 'x' (line 3, column 2)\n"
        )

    @pytest.mark.parametrize("argv", [["compare", "{pair}"], ["degree-check", "{pair}"]])
    def test_csv_format_of_a_report_without_a_matrix_is_one_json_line(self, capsys, json_doc, argv):
        argv = [arg.format(pair=json_doc) for arg in argv]
        code, out, err = run_main(capsys, argv)
        assert (code, err) == (EXIT_OK, "")
        assert run_main(capsys, [*argv, "--format", "csv"]) == (EXIT_OK, json.dumps(json.loads(out)) + "\n", "")


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

    def test_csv_input_and_singular_matrix(self, capsys, csv_doc):
        # A singular matrix is the cross-ratio 1, an ordinary input of the 2x2 closed form.
        code, out, _ = run_main(capsys, ["scale", csv_doc, "--rows", "1,1", "--cols", "1,1"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["method"] == "closed_form_2x2"
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

    def test_targets_whose_total_overflows_validate(self, capsys, csv_doc):
        # Every warning is an error here, numpy's own reduce warning included.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(capsys, [
                "scale", csv_doc, "--rows", "1e308,1e308", "--cols", "1e308,1e308", "--method", "iterative",
            ])
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["converged"] is True
        np.testing.assert_allclose(np.array(doc["matrix"]).sum(axis=0), [1e308, 1e308], rtol=1e-9)

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

    def test_tiny_matrix_closed_form_gives_the_limit(self, capsys, tmp_path):
        # At scale 1e-150, a11*a22 underflows to 0; the cross-ratio does not.
        path = tmp_path / "tiny.json"
        tiny = (1e-150 * np.array([[1.0, 2.0], [3.0, 4.0]])).tolist()
        path.write_text(json.dumps({"matrix": tiny, "row_sums": [1, 1], "col_sums": [1, 1]}))
        code, out, err = run_main(capsys, ["scale", str(path)])
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["method"] == "closed_form_2x2"
        np.testing.assert_allclose(doc["matrix"], nathanson_limit([[1, 2], [3, 4]]), rtol=1e-15, atol=0)

    def test_subnormal_row_beside_a_normal_row_gives_the_limit(self, capsys, tmp_path):
        # The first row sum is subnormal while the largest entry is near 1; the
        # same matrix with that row moved up by 2**1062 has the same limit.
        path = tmp_path / "rows.csv"
        path.write_text("1e-320,3e-320,2e-320\n1,2,0.5\n")
        argv = ["scale", str(path), "--method", "iterative", "--rows", "1,1", "--cols", "2/3,2/3,2/3"]
        code, out, err = run_main(capsys, argv)
        assert (code, err) == (EXIT_OK, "")
        moved = [np.ldexp([1e-320, 3e-320, 2e-320], 1062), [1.0, 2.0, 0.5]]
        want = sinkhorn_iterate(validate_instance(PositiveMatrix(moved), Marginals([1, 1], [2 / 3] * 3))).matrix
        np.testing.assert_allclose(json.loads(out)["matrix"], want, rtol=1e-13, atol=0)

    def test_near_singular_at_targets_1e200_gives_the_limit(self, capsys, tmp_path):
        # The gate's discriminant overflows here; the closed form agrees with the iteration.
        path = tmp_path / "near_singular.csv"
        path.write_text("1,2\n3,6.0000001\n")
        argv = ["scale", str(path), "--rows", "1e200,1e180", "--cols", "5e199,5e199"]
        code, out, err = run_main(capsys, argv)
        assert (code, err) == (EXIT_OK, "")
        closed = json.loads(out)
        assert closed["method"] == "closed_form_2x2"
        code, out, _ = run_main(capsys, argv + ["--method", "iterative", "--tol", "1e-12"])
        assert code == EXIT_OK
        np.testing.assert_allclose(closed["matrix"], json.loads(out)["matrix"], rtol=1e-10, atol=0)

    def test_totals_ulps_apart_at_kappa_1e12_give_the_closed_form(self, capsys, tmp_path):
        # The defect between the totals lands on the largest target; the four
        # entries keep the cross-ratio and the command does not give up.
        path = tmp_path / "kappa_1e12.csv"
        path.write_text("1,1e-6\n1e-6,1\n")
        code, out, err = run_main(capsys, ["scale", str(path), "--rows", "1,1", "--cols", "1,1.00000000000001"])
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["method"] == "closed_form_2x2"
        (s11, s12), (s21, s22) = doc["matrix"]
        assert (s11 / s12) * (s22 / s21) == pytest.approx(1e12, rel=1e-14)

    @pytest.mark.parametrize("method", ["auto", "closed-form", "iterative"])
    def test_unrepresentable_cross_ratio_exits_defect_without_traceback(self, capsys, tmp_path, method):
        # The limit's off-diagonal entries are below the float range on every route.
        path = tmp_path / "kappa_inf.json"
        path.write_text(json.dumps({"matrix": [[1e300, 1e-300], [1e-300, 1e300]], "row_sums": [1, 1], "col_sums": [1, 1]}))
        code, out, err = run_main(capsys, ["scale", str(path), "--method", method])
        assert (code, out) == (EXIT_DEFECT, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("gauge, side", [("c,1", "column"), ("r,1", "row")])
    def test_factors_out_of_range_print_only_the_error_line(self, tmp_path, gauge, side):
        # Run as a process, so stderr holds whatever numpy would print too.
        # Pinning either factor to 1 pushes the other side past 1e308.
        path = tmp_path / "wide.csv"
        path.write_text("1e-310,1e-300\n1e-10,1\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "matbalance.cli", "factors", str(path),
             "--rows", "1,1", "--cols", "1,1", "--gauge", gauge],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_INVALID_INPUT
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: pinning {side} factor 1 to 1 puts the factors outside the positive float range"
        ]

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSubnormalMatrices:
    """Every entry near 1e-320: the limit is representable, factors with one of them pinned to 1 are not."""

    # Each entry is an exact multiple of 2024 subnormal spacings, so these
    # matrices are 1e-320-scaled copies of small integer ones.
    CASES = [
        ("1e-320,2e-320,3e-320", "6", "1,2,3", [[1.0, 2.0, 3.0]]),
        ("1e-320\n2e-320\n3e-320", "1,2,3", "6", [[1.0], [2.0], [3.0]]),
        ("1e-320,2e-320\n3e-320,4e-320", "1,1", "1,1", nathanson_limit([[1, 2], [3, 4]]).tolist()),
        ("1e-320,2e-320\n2e-320,4e-320", "1,1", "1,1", [[0.5, 0.5], [0.5, 0.5]]),
        (
            "1e-320,2e-320,3e-320\n4e-320,5e-320,6e-320\n7e-320,8e-320,1e-319", "1,1,1", "1,1,1",
            sinkhorn_iterate(validate_instance(
                PositiveMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]]), Marginals([1, 1, 1], [1, 1, 1])
            )).matrix.tolist(),
        ),
    ]
    IDS = ["1x3", "3x1", "2x2", "2x2 singular", "3x3"]

    @pytest.mark.parametrize("text, rows, cols, limit", CASES, ids=IDS)
    def test_scale_gives_the_limit(self, capsys, tmp_path, text, rows, cols, limit):
        path = tmp_path / "tiny.csv"
        path.write_text(text + "\n")
        code, out, err = run_main(capsys, ["scale", str(path), "--rows", rows, "--cols", cols])
        assert (code, err) == (EXIT_OK, "")
        np.testing.assert_allclose(json.loads(out)["matrix"], limit, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("text, rows, cols, limit", CASES, ids=IDS)
    def test_factors_is_a_typed_refusal(self, capsys, tmp_path, text, rows, cols, limit):
        path = tmp_path / "tiny.csv"
        path.write_text(text + "\n")
        code, out, err = run_main(capsys, ["factors", str(path), "--rows", rows, "--cols", cols])
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert err.startswith("error: pinning ") and err.endswith(" to 1 puts the factors outside the positive float range\n")


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

    def test_singular_instance_gives_closed_form_factors(self, capsys, csv_doc):
        code, out, _ = run_main(
            capsys, ["factors", csv_doc, "--rows", "1,1", "--cols", "1,1"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["method"] == "closed_form_2x2"
        assert doc["col_factors"][1] == 1.0
        r, c = np.array(doc["row_factors"]), np.array(doc["col_factors"])
        rebuilt = r[:, None] * np.array([[2.0, 4.0], [3.0, 6.0]]) * c[None, :]
        np.testing.assert_allclose(rebuilt, doc["matrix"], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("method", ["auto", "closed-form"])
    def test_factors_past_the_float_range_are_read_off_the_closed_form(self, capsys, tmp_path, method):
        # In the default r1 = 1 gauge the column factors 1e310 and 1e300 leave
        # the float range; pinning column 2 brings them back into it.
        path = tmp_path / "row.csv"
        path.write_text("1e-300,1e-290\n")
        argv = ["factors", str(path), "--rows", "2e10", "--cols", "1e10,1e10", "--gauge", "c,2", "--method", method]
        code, out, err = run_main(capsys, argv)
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert (doc["method"], doc["iterations"]) == ("closed_form_1xn", 0)
        assert doc["col_factors"] == [1e10, 1.0]

    @pytest.mark.parametrize("csv, rows, cols, want", [
        # a12 / a11 = 1e310 overflows, the factor c1 = (s11 / s12)(a12 / a11) = 1e300 does not.
        ("1e-300,1e10", "1.0000000001e20", "1e10,1e20", [1e300, 1.0]),
        # a12 / a11 = 1e-320 is subnormal, ~11 significant bits: c1 = 1e-300 came back ~1e-5 off.
        ("1e170,1e-150,1e-300", "1e10", "1e-120,1e-140,1e10", [1e-300, 1.0, 1e300]),
    ], ids=["quotient overflows", "quotient is subnormal"])
    def test_a_quotient_past_the_normal_range_keeps_the_factors_exact(self, capsys, tmp_path, csv, rows, cols, want):
        # The default r1 = 1 gauge's column factors leave the normal range; the c2 = 1 gauge's do not.
        path = tmp_path / "row.csv"
        path.write_text(csv + "\n")
        code, out, err = run_main(capsys, ["factors", str(path), "--rows", rows, "--cols", cols, "--gauge", "c,2"])
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert (doc["method"], doc["iterations"]) == ("closed_form_1xn", 0)
        a, s = [Fraction(x) for x in map(float, csv.split(","))], [Fraction(x) for x in doc["matrix"][0]]
        exact = [s[1] / a[1]], [(s[j] / s[1]) * (a[1] / a[j]) for j in range(len(a))]
        assert [float(v) for v in exact[1]] == pytest.approx(want, rel=1e-15)
        for got, values in zip((doc["row_factors"], doc["col_factors"]), exact):
            for value, v in zip(got, values):
                assert abs(Fraction(value) - v) <= 2 * Fraction(float(np.spacing(float(v))))

    def test_a_subnormal_closed_form_factor_does_not_skew_another_gauge(self, capsys, tmp_path):
        # The c2 = 1 factor r1 is ~4.4e-324, one significant bit as a float;
        # the r1 = 1 gauge's c1 is s11 / a11, not that factor's rounding moved.
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "matrix": [[1.1664760008782134e53, 4.216737633858644e137], [1.094136660865682e-133, 1.324518918656442e137]],
            "row_sums": [1.7048275848513759, 2.862177479714276],
            "col_sums": [3.8010373406904385, 0.765967723875213],
        }))
        code, out, err = run_main(capsys, ["factors", str(path), "--gauge", "r,1"])
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["method"] == "closed_form_2x2"
        assert doc["row_factors"][0] == 1.0
        assert abs(doc["col_factors"][0] - 1.461519639982177e-53) <= 2 * np.spacing(1.461519639982177e-53)


    def test_a_subnormal_limit_entry_does_not_skew_the_r1_gauge(self, capsys, tmp_path):
        # s22 = 2.5e-323 is subnormal, so the c2 = 1 factors read through it are off;
        # read off in the r1 = 1 gauge itself, c1 is s11 / a11.
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "matrix": [[7.267051069107025e-94, 1.6797814789737848e+73], [2845543151.505035, 3.7233363119662077e-56]],
            "row_sums": [9.514945619296461e+26, 6.1239717013651555e-33],
            "col_sums": [9.514945619296461e+26, 6.1239717013651555e-33],
        }))
        code, out, err = run_main(capsys, ["factors", str(path), "--gauge", "r,1"])
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["method"] == "closed_form_2x2"
        assert doc["row_factors"][0] == 1.0
        assert doc["col_factors"][0] == doc["matrix"][0][0] / 7.267051069107025e-94 == 1.3093269235089686e+120


class TestCompareCommand:
    def test_gap_below_tolerance(self, capsys, json_doc):
        code, out, _ = run_main(capsys, ["compare", json_doc])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["max_entrywise_gap"] <= 1e-6
        assert doc["closed_form"]["method"] == "closed_form_2x2"

    @pytest.mark.parametrize("target", ["1e-6", "1", "1e6", "1e12"])
    def test_gap_is_relative_at_every_target_scale(self, capsys, tmp_path, target):
        # At targets of 1e12 the entries are near 5e11, where an absolute gap
        # of 1e-6 would be a relative one of 2e-18.
        path = tmp_path / "matrix.csv"
        path.write_text("1,2\n3,4\n")
        targets = f"{target},{target}"
        code, out, _ = run_main(capsys, ["compare", str(path), "--rows", targets, "--cols", targets])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["max_entrywise_gap"] <= 1e-6

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

    @pytest.mark.parametrize("argv", [["degree-check", "--count", "1"], ["degree-check", "{pair}"]])
    def test_resource_limit_exits_5(self, capsys, monkeypatch, json_doc, argv):
        def exhausted(generators):
            raise ResourceLimit("pair budget 0 exhausted")

        # The runners import the engine when they run, so they look it up there.
        monkeypatch.setattr(exactalgebra, "buchberger", exhausted)
        argv = [arg.format(pair=json_doc) for arg in argv]
        assert run_main(capsys, argv) == (EXIT_RESOURCE_LIMIT, "", "error: pair budget 0 exhausted\n")

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
        ("factors_2x2_r1.csv", ["factors", "{pair}", "--gauge", "r,1", "--format", "csv"]),
        ("scale_singular.json", ["scale", "{singular}", "--rows", "1,1", "--cols", "1,1"]),
        ("degree_check.json", ["degree-check", "--seed", "42", "--count", "3"]),
        ("degree_check.csv", ["degree-check", "--seed", "42", "--count", "3", "--format", "csv"]),
        ("degree_check_file.json", ["degree-check", "{pair}", "--gauge", "r,1"]),
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
