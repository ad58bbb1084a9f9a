"""Command-line front end.

Commands, and the flags each one reads:
    scale         balance a matrix to the target sums and print the result.
                  Flags: --rows/--cols (CSV or matrix-only input), --method,
                  --tol, --max-iters, --format.
    factors       as scale, and print the gauge-normalized scaling factors.
                  Flags: those of scale plus --gauge.
    compare       run both the iterative and closed-form routes and report
                  the entrywise gap between them.  Flags: --rows/--cols,
                  --tol, --max-iters, --format.
    degree-check  certify the algebraic-degree table on seeded random
                  exact-rational instances (--seed, --count), or on one
                  exact-parsed input file (--rows/--cols, --gauge).  Both
                  modes take --format.

A flag given to a command that does not read it is a usage error.  Inputs
are either a JSON document with fields ``matrix``, ``row_sums`` and
``col_sums``, or a matrix-only CSV with targets passed via --rows/--cols.
For degree-check, decimal strings are parsed exactly into rationals
(``0.1`` becomes 1/10), never through binary floats, so the algebra engine
sees the user's literal data.

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 cross-method defect, 2 invalid input, 3 inconsistent marginals,
4 not converged, 5 algebra resource limit.

At module level this file imports only the standard library and
:mod:`matbalance.errors`, which holds every error mapped to an exit code.
Each command imports its route where it runs: scale, factors and compare
load numpy, ``core``, ``iterative`` and ``closedform``; degree-check loads
only ``exactalgebra``, so it runs without numpy; ``fractions`` is loaded
only where a Fraction is built.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import random
import re
import sys
from typing import TYPE_CHECKING

from .errors import (
    GaugeFix,
    InconsistentMarginals,
    MatrixBalanceError,
    NotConverged,
    ResourceLimit,
    ShapeMismatch,
    UnitIdeal,
    check_grid,
    default_gauge,
)

if TYPE_CHECKING:
    from .core import ScaledResult, ValidatedInstance
    from .iterative import IterationConfig

SCHEMA_VERSION = 1
COMPARE_GAP_TOL = 1e-6
DEGREE_CHECK_SHAPES = ((1, 3), (2, 2), (2, 3), (2, 4))
DEGREE_CHECK_SEED = 42
DEGREE_CHECK_COUNT = 20

EXIT_OK = 0
EXIT_DEFECT = 1
EXIT_INVALID_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_NOT_CONVERGED = 4
EXIT_RESOURCE_LIMIT = 5


# The exponent of a decimal literal, in the syntax Fraction accepts.
_EXPONENT = re.compile(r"\A[-+]?[\d_.]*e[-+]?(\d+(?:_\d+)*)\Z", re.IGNORECASE)


class ParseError(MatrixBalanceError, ValueError):
    """Malformed input document; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _parse_number(text: str, exact: bool, line: int, column: int):
    text = text.strip()
    # Python refuses to convert integer strings past a digit limit
    # (3.10.7 and later; 0 means no limit, and 4300 is the default).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if exact and (exponent := _EXPONENT.match(text)) and float(exponent[1]) > (limit or 4300):
        # Refused before Fraction spends seconds building 10**exponent.
        raise ParseError(f"exponent past Python's integer-string limit of {limit or 4300}: {text!r}", line, column)
    try:
        if exact:
            from fractions import Fraction

            return Fraction(text)
        try:
            value = float(text)
        except ValueError:
            from fractions import Fraction

            value = float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        digits = sum(ch.isdigit() for ch in text)
        if limit and digits > limit:
            message = f"{digits} digits, past Python's integer-string limit of {limit}"
        else:
            message = "not a number"
        raise ParseError(f"{message}: {text!r}", line, column) from None
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    if math.isnan(value) or text.lstrip("+-").lower() in ("inf", "infinity"):
        # inf and nan are float literals, but not numbers on either route.
        raise ParseError(f"not a number: {text!r}", line, column)
    raise ParseError(f"outside the float range: {text!r}", line, column)


def _parse_vector_flag(flag: str, exact: bool):
    return [_parse_number(v, exact, 1, k) for k, v in enumerate(flag.split(","), start=1)]


def parse_input(
    path: str,
    rows_flag: str | None = None,
    cols_flag: str | None = None,
    exact: bool = False,
):
    """Read a matrix and its targets from a JSON document or a CSV file.

    Returns ``(matrix_rows, row_sums, col_sums)`` as nested lists of floats,
    or of exact rationals when ``exact`` is set.

    Raises:
        ParseError: malformed document, with 1-based line/column.
        ShapeMismatch: the matrix is empty or its rows differ in length.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}", 1, 1) from exc
    if text.lstrip().startswith("{"):
        matrix, sums = _parse_json_document(text, exact)
    else:
        matrix, sums = _parse_csv_matrix(text, exact)
    if sums and (rows_flag or cols_flag):
        raise ParseError("targets given both in the document and via flags", 1, 1)
    if not sums:
        if not (rows_flag and cols_flag):
            raise ParseError("matrix-only input requires --rows and --cols", 1, 1)
        sums = _parse_vector_flag(rows_flag, exact), _parse_vector_flag(cols_flag, exact)
    check_grid(matrix)
    return matrix, *sums


def _is_number_array(value) -> bool:
    # bool subclasses int, but a JSON true or false is not a number.
    return isinstance(value, list) and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in value
    )


def _reject_constant(name: str):
    raise ParseError(f"{name} is not a JSON number", 1, 1)


def _parse_json_document(text: str, exact: bool):
    # NaN and Infinity are not JSON, and no rational has their value.  On the
    # float route a number past the float range is refused as in a CSV cell.
    number = lambda literal: _parse_number(literal, exact, 1, 1)
    try:
        doc = json.loads(text, parse_float=number, parse_int=number, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    # The text starts with "{", so the document is an object.
    if "matrix" not in doc:
        raise ParseError("document must be an object with a 'matrix' field", 1, 1)
    matrix = doc["matrix"]
    if not isinstance(matrix, list) or not all(_is_number_array(row) for row in matrix):
        raise ParseError("'matrix' must be an array of arrays of numbers", 1, 1)
    if "row_sums" not in doc and "col_sums" not in doc:
        return matrix, None
    if "row_sums" not in doc or "col_sums" not in doc:
        raise ParseError("document needs both 'row_sums' and 'col_sums'", 1, 1)
    for name in ("row_sums", "col_sums"):
        if not _is_number_array(doc[name]):
            raise ParseError(f"'{name}' must be an array of numbers", 1, 1)
    return matrix, (doc["row_sums"], doc["col_sums"])


def _parse_csv_matrix(text: str, exact: bool):
    matrix = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = [
            _parse_number(cell, exact, lineno, colno)
            for colno, cell in enumerate(line.split(","), start=1)
        ]
        matrix.append(row)
    if not matrix:
        raise ParseError("empty matrix", 1, 1)
    return matrix, None


def _parse_gauge(flag: str | None) -> GaugeFix | None:
    """Parse ``r,I`` / ``c,I`` with 1-based index I into a GaugeFix."""
    if flag is None:
        return None
    parts = flag.split(",")
    if len(parts) != 2 or parts[0] not in ("r", "c"):
        raise ParseError(f"--gauge must look like r,1 or c,2, got {flag!r}", 1, 1)
    try:
        index = int(parts[1])
    except ValueError:
        raise ParseError(f"gauge index must be an integer, got {parts[1]!r}", 1, 1) from None
    if index < 1:
        raise ParseError("gauge index is 1-based and must be >= 1", 1, 1)
    kind = "unit_row_factor" if parts[0] == "r" else "unit_col_factor"
    return GaugeFix(kind, index - 1)


def _fit_gauge(gauge: GaugeFix | None, rows: int, cols: int) -> GaugeFix:
    """``gauge``, or the default gauge, checked against the shape; a misfit names the 1-based index."""
    if gauge is None:
        return default_gauge(rows, cols)
    try:
        gauge.check_fits(rows, cols)
    except ShapeMismatch:
        side, count = ("row", rows) if gauge.kind == "unit_row_factor" else ("col", cols)
        raise ShapeMismatch(f"{side} gauge index {gauge.index + 1} for {count} {side}s") from None
    return gauge


def _iteration_config(args: argparse.Namespace) -> IterationConfig:
    from .iterative import IterationConfig

    return IterationConfig(tolerance=args.tol, max_iterations=args.max_iters)


def _read_instance(args: argparse.Namespace) -> ValidatedInstance:
    import numpy as np

    from .core import Marginals, PositiveMatrix, validate_instance

    matrix, row_sums, col_sums = parse_input(args.input, args.rows, args.cols)
    return validate_instance(
        PositiveMatrix(np.array(matrix, dtype=float)),
        Marginals(np.array(row_sums, dtype=float), np.array(col_sums, dtype=float)),
    )


def _solve(args: argparse.Namespace, instance: ValidatedInstance, config: IterationConfig) -> ScaledResult:
    from .closedform import UnsupportedShape, closed_form_dispatch
    from .iterative import sinkhorn_iterate

    if args.method == "iterative":
        return sinkhorn_iterate(instance, config)
    if args.method == "closed-form":
        return closed_form_dispatch(instance)
    try:
        return closed_form_dispatch(instance)
    except UnsupportedShape:
        return sinkhorn_iterate(instance, config)


def _result_document(
    command: str, config: IterationConfig, instance: ValidatedInstance, result: ScaledResult
) -> dict:
    from .core import residuals

    row_res, col_res = residuals(result.matrix, instance.marginals)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "method": result.method,
        "matrix": [[float(v) for v in row] for row in result.matrix],
        "row_targets": [float(v) for v in instance.marginals.row_targets],
        "col_targets": [float(v) for v in instance.marginals.col_targets],
        "row_residuals": [float(v) for v in row_res],
        "col_residuals": [float(v) for v in col_res],
        "max_marginal_residual": result.max_marginal_residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "tolerance": config.tolerance,
    }


def _run_scale(args: argparse.Namespace) -> tuple[dict, int]:
    config = _iteration_config(args)
    instance = _read_instance(args)
    result = _solve(args, instance, config)
    return _result_document("scale", config, instance, result), EXIT_OK


def _run_factors(args: argparse.Namespace) -> tuple[dict, int]:
    from .iterative import extract_factors, sinkhorn_iterate

    config = _iteration_config(args)
    gauge = _parse_gauge(args.gauge)
    instance = _read_instance(args)
    gauge = _fit_gauge(gauge, instance.rows, instance.cols)
    result = _solve(args, instance, config)
    if result.factors is None:
        # Singular closed form carries no factors; rerun iteratively.
        result = sinkhorn_iterate(instance, config)
    pair = extract_factors(instance, result, gauge)
    doc = _result_document("factors", config, instance, result)
    doc["gauge"] = {"kind": gauge.kind, "index": gauge.index + 1}
    doc["row_factors"] = [float(v) for v in pair.row_factors]
    doc["col_factors"] = [float(v) for v in pair.col_factors]
    return doc, EXIT_OK


def _run_compare(args: argparse.Namespace) -> tuple[dict, int]:
    import numpy as np

    from .closedform import UnsupportedShape, closed_form_dispatch
    from .iterative import sinkhorn_iterate

    config = _iteration_config(args)
    instance = _read_instance(args)
    iterative_result = sinkhorn_iterate(instance, config)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "iterative": _result_document("compare", config, instance, iterative_result),
        "closed_form": None,
        "max_entrywise_gap": None,
        "gap_tolerance": COMPARE_GAP_TOL,
        "ok": True,
    }
    try:
        closed = closed_form_dispatch(instance)
    except UnsupportedShape:
        return doc, EXIT_OK
    gap = float(np.max(np.abs(closed.matrix - iterative_result.matrix)))
    doc["closed_form"] = _result_document("compare", config, instance, closed)
    doc["max_entrywise_gap"] = gap
    doc["ok"] = gap <= COMPARE_GAP_TOL
    return doc, EXIT_OK if doc["ok"] else EXIT_DEFECT


def _degree_bound(rows: int, cols: int) -> int:
    return math.comb(rows + cols - 2, rows - 1)


def _reject_flags(args: argparse.Namespace, names: tuple[str, ...], mode: str) -> None:
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{', '.join(given)} cannot be used {mode}")


def _run_degree_check(args: argparse.Namespace) -> tuple[dict, int]:
    from .exactalgebra import buchberger, build_scaling_ideal, elimination_degree, random_rational_instance

    if args.input is not None:
        _reject_flags(args, ("seed", "count"), "with an input file")
        return _degree_check_single(args)
    _reject_flags(args, ("gauge", "rows", "cols"), "without an input file")
    seed = DEGREE_CHECK_SEED if args.seed is None else args.seed
    count = DEGREE_CHECK_COUNT if args.count is None else args.count
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if count < 1:
        raise ValueError(f"--count must be >= 1, got {count}")
    shapes = []
    all_within = True
    for rows, cols in DEGREE_CHECK_SHAPES:
        rng = random.Random(f"{seed}:{rows}x{cols}")
        bound = _degree_bound(rows, cols)
        degrees = []
        for _ in range(count):
            inst = random_rational_instance(rows, cols, rng)
            basis = buchberger(build_scaling_ideal(inst))
            degrees.append(elimination_degree(basis, basis.variables[-1]))
        histogram = {str(d): degrees.count(d) for d in sorted(set(degrees))}
        within = max(degrees) <= bound
        all_within = all_within and within
        shapes.append(
            {
                "rows": rows,
                "cols": cols,
                "bound": bound,
                "count": count,
                "degrees": histogram,
                "max_observed": max(degrees),
                "within_bound": within,
            }
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "degree-check",
        "seed": seed,
        "count": count,
        "shapes": shapes,
        "all_within_bound": all_within,
    }
    return doc, EXIT_OK if all_within else EXIT_DEFECT


def _degree_check_single(args: argparse.Namespace) -> tuple[dict, int]:
    from .exactalgebra import RationalInstance, buchberger, build_scaling_ideal, elimination_degree

    gauge = _parse_gauge(args.gauge)
    matrix, row_sums, col_sums = parse_input(args.input, args.rows, args.cols, exact=True)
    rows, cols = len(matrix), len(matrix[0])
    # Checked with a gauge that fits first, so a misfit gauge is found last,
    # as on the float commands.
    instance = RationalInstance(matrix, row_sums, col_sums, default_gauge(rows, cols))
    instance = dataclasses.replace(instance, gauge=_fit_gauge(gauge, rows, cols))
    basis = buchberger(build_scaling_ideal(instance))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "degree-check",
        "rows": rows,
        "cols": cols,
        "bound": _degree_bound(rows, cols),
        "consistent": instance.is_consistent(),
        "unit_ideal": basis.is_unit,
    }
    if basis.is_unit:
        doc["degree"] = None
        doc["within_bound"] = None
        return doc, EXIT_INCONSISTENT
    degree = elimination_degree(basis, basis.variables[-1])
    doc["degree"] = degree
    doc["within_bound"] = degree <= doc["bound"]
    return doc, EXIT_OK if doc["within_bound"] else EXIT_DEFECT


def _emit_csv(doc: dict) -> str:
    lines = []
    if "matrix" in doc:
        for row in doc["matrix"]:
            lines.append(",".join(repr(v) for v in row))
    elif "shapes" in doc:
        lines.append("rows,cols,bound,max_observed,within_bound")
        for shape in doc["shapes"]:
            lines.append(
                f"{shape['rows']},{shape['cols']},{shape['bound']},"
                f"{shape['max_observed']},{shape['within_bound']}"
            )
    else:
        lines.append(json.dumps(doc))
    if "row_factors" in doc:
        lines.append("row_factors," + ",".join(repr(v) for v in doc["row_factors"]))
        lines.append("col_factors," + ",".join(repr(v) for v in doc["col_factors"]))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matbalance",
        description="Balance positive matrices to prescribed row/column sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scale = sub.add_parser("scale", help="balance a matrix")
    factors = sub.add_parser("factors", help="balance and report scaling factors")
    compare = sub.add_parser("compare", help="iterative vs closed form")
    degree = sub.add_parser("degree-check", help="certify the algebraic-degree table")
    scale.set_defaults(run=_run_scale)
    factors.set_defaults(run=_run_factors)
    compare.set_defaults(run=_run_compare)
    degree.set_defaults(run=_run_degree_check)

    for p in (scale, factors, compare):
        p.add_argument("input", help="JSON document or CSV matrix")
    degree.add_argument("input", nargs="?", default=None, help="JSON document or CSV matrix")
    for p in (scale, factors, compare, degree):
        p.add_argument("--rows", default=None, help="comma-separated row targets (CSV input)")
        p.add_argument("--cols", default=None, help="comma-separated col targets (CSV input)")
    for p in (scale, factors):
        p.add_argument("--method", choices=["auto", "iterative", "closed-form"], default="auto")
    for p in (scale, factors, compare):
        p.add_argument("--tol", type=float, default=1e-9, help="convergence tolerance")
        p.add_argument("--max-iters", type=int, default=1000)
    for p in (factors, degree):
        p.add_argument("--gauge", default=None, help="factor pinned to 1: r,INDEX or c,INDEX (1-based)")
    degree.add_argument("--seed", type=int, default=None, help=f"seeded mode only (default {DEGREE_CHECK_SEED})")
    degree.add_argument(
        "--count", type=int, default=None, help=f"instances per shape, seeded mode only (default {DEGREE_CHECK_COUNT})"
    )
    for p in (scale, factors, compare, degree):
        p.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.run(args)
    except InconsistentMarginals as exc:
        print(f"error: inconsistent marginals: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except (UnitIdeal, ValueError) as exc:
        # ParseError and every typed input error (shape, positivity) are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except MatrixBalanceError as exc:
        # Defect-class failures (branch analysis, discriminant) are nonzero
        # but distinct from usage errors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    if args.format == "csv":
        print(_emit_csv(doc))
    else:
        print(json.dumps(doc, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
