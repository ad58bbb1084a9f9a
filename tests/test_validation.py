"""One validation, whichever route reads the instance.

Malformed input raises the same typed error with the same message through
the float library route, the exact library route and both CLI routes, and
the module structure that keeps each check in one place does not erode.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from matbalance import (
    GaugeFix,
    Marginals,
    NonPositiveInput,
    PositiveMatrix,
    RationalInstance,
    ShapeMismatch,
    extract_factors,
    sinkhorn_iterate,
    validate_instance,
)
from matbalance.cli import EXIT_INVALID_INPUT, main

PAIR = [[1, 2], [3, 4]]
FITTING = GaugeFix("unit_row_factor", 0)
POSITIVITY = "contains entries <= 0; all values must be strictly positive"

# (matrix, row targets, col targets, gauge or None, error, message)
MALFORMED = {
    "empty matrix": ([], [1], [1], None, ShapeMismatch, "matrix must be nonempty"),
    "empty row": ([[]], [1], [1], None, ShapeMismatch, "matrix must be nonempty"),
    "ragged rows": ([[1, 2], [3]], [1, 1], [1, 1], None, ShapeMismatch, "matrix rows have unequal lengths"),
    "row target length": (PAIR, [1, 1, 1], [1, 1], None, ShapeMismatch, "3 row targets for a matrix with 2 rows"),
    "col target length": (PAIR, [1, 1], [2], None, ShapeMismatch, "1 col targets for a matrix with 2 cols"),
    "zero entry": ([[1, 0], [3, 4]], [1, 1], [1, 1], None, NonPositiveInput, f"matrix {POSITIVITY}"),
    "negative entry": ([[1, 2], [-3, 4]], [1, 1], [1, 1], None, NonPositiveInput, f"matrix {POSITIVITY}"),
    "empty row targets": (PAIR, [], [1, 1], None, ShapeMismatch, "row_targets must be nonempty"),
    "empty col targets": (PAIR, [1, 1], [], None, ShapeMismatch, "col_targets must be nonempty"),
    "zero row target": (PAIR, [0, 2], [1, 1], None, NonPositiveInput, f"row_targets {POSITIVITY}"),
    "zero col target": (PAIR, [1, 1], [2, 0], None, NonPositiveInput, f"col_targets {POSITIVITY}"),
    # Two faults: the checks run in one order on every route.
    "zero entry and short targets": ([[1, 0], [3, 4]], [1, 1], [2], None, NonPositiveInput, f"matrix {POSITIVITY}"),
    "zero target and long targets": (PAIR, [0, 1, 1], [1, 1], None, NonPositiveInput, f"row_targets {POSITIVITY}"),
    "col gauge index": (PAIR, [1, 1], [1, 1], GaugeFix("unit_col_factor", 5), ShapeMismatch, "col gauge index 5 for 2 cols"),
    "row gauge index": (PAIR, [1, 1], [1, 1], GaugeFix("unit_row_factor", 2), ShapeMismatch, "row gauge index 2 for 2 rows"),
}
# --gauge is 1-based, so the CLI names the index as the user typed it.
CLI_MESSAGES = {
    "col gauge index": "col gauge index 6 for 2 cols",
    "row gauge index": "row gauge index 3 for 2 rows",
}


def _float_library(matrix, rows, cols, gauge):
    instance = validate_instance(PositiveMatrix(matrix), Marginals(rows, cols))
    if gauge is not None:
        extract_factors(instance, sinkhorn_iterate(instance), gauge)


def _exact_library(matrix, rows, cols, gauge):
    RationalInstance(
        entries=tuple(tuple(Fraction(v) for v in row) for row in matrix),
        row_targets=tuple(Fraction(v) for v in rows),
        col_targets=tuple(Fraction(v) for v in cols),
        gauge=gauge or FITTING,
    )


@pytest.mark.parametrize("route", [_float_library, _exact_library], ids=["validate_instance", "RationalInstance"])
@pytest.mark.parametrize("case", list(MALFORMED))
def test_library_routes_raise_the_same_error(case, route):
    matrix, rows, cols, gauge, error, message = MALFORMED[case]
    with pytest.raises(error) as raised:
        route(matrix, rows, cols, gauge)
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("command", ["scale", "degree-check"])
@pytest.mark.parametrize("case", list(MALFORMED))
def test_cli_routes_print_the_same_error(capsys, tmp_path, case, command):
    matrix, rows, cols, gauge, _, message = MALFORMED[case]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"matrix": matrix, "row_sums": rows, "col_sums": cols}))
    argv = [command, str(path)]
    if gauge is not None:
        # scale reads no gauge; factors is scale plus --gauge.
        argv[0] = "factors" if command == "scale" else command
        side = "r" if gauge.kind == "unit_row_factor" else "c"
        argv += ["--gauge", f"{side},{gauge.index + 1}"]
    code = main(argv)
    captured = capsys.readouterr()
    message = CLI_MESSAGES.get(case, message)
    assert (code, captured.out, captured.err) == (EXIT_INVALID_INPUT, "", f"error: {message}\n")


# A number past the float range, in the matrix or in the row targets, read
# from a JSON document or from a CSV cell or target flag; X stands for the
# number.  JSON positions are the document's, as for its other faults.
PAST_FLOAT_RANGE = {
    "json cell": ('{"matrix": [[1, 2], [X, 4]], "row_sums": [1, 1], "col_sums": [1, 1]}', [], "line 1, column 1"),
    "json target": ('{"matrix": [[1, 2], [3, 4]], "row_sums": [1, X], "col_sums": [1, 1]}', [], "line 1, column 1"),
    "csv cell": ("1,2\nX,4\n", ["--rows", "1,1", "--cols", "1,1"], "line 2, column 1"),
    "csv target": ("1,2\n3,4\n", ["--rows", "1,X", "--cols", "1,1"], "line 1, column 2"),
}


@pytest.mark.parametrize("command", ["scale", "factors", "compare"])
@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400], ids=["1e400", "-1e400", "integer"])
@pytest.mark.parametrize("case", list(PAST_FLOAT_RANGE))
def test_float_commands_refuse_numbers_past_the_float_range_from_json_and_csv(
    capsys, tmp_path, case, literal, command
):
    text, flags, position = PAST_FLOAT_RANGE[case]
    path = tmp_path / "instance.txt"
    path.write_text(text.replace("X", literal))
    code = main([command, str(path)] + [flag.replace("X", literal) for flag in flags])
    captured = capsys.readouterr()
    message = f"error: outside the float range: {literal!r} ({position})\n"
    assert (code, captured.out, captured.err) == (EXIT_INVALID_INPUT, "", message)


SOURCES = Path(__file__).resolve().parents[1] / "src" / "matbalance"


def _package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, relatively or by full name."""
    tree = ast.parse((SOURCES / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("matbalance")):
            path = (node.module or "").removeprefix("matbalance").lstrip(".")
            found.update([path.split(".")[0]] if path else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "matbalance")
    return found


def test_core_imports_no_sibling_module():
    assert _package_imports("core") == set()


def test_exactalgebra_does_not_import_iterative():
    imported = _package_imports("exactalgebra")
    assert "iterative" not in imported
    assert "core" in imported
