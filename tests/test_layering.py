"""Each command loads only the route it runs.

degree-check runs without numpy, the float commands without the exact
engine, and ``import matbalance`` loads no submodule until a name is used.
Module lists are read from a new interpreter, since this one has loaded
every route already.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matbalance

SOURCES = Path(__file__).resolve().parents[1] / "src" / "matbalance"
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SOURCES.parent), os.environ.get("PYTHONPATH")])),
}

# Runs cli.main on the arguments, then prints its exit code and the loaded modules.
PROBE = """
import contextlib, io, json, sys
from matbalance.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

# Every name the package exported before its namespace became lazy, with
# the module that defined it then, less the 2x2 singularity threshold, which
# went when kappa = 1 became an ordinary input of the 2x2 closed form, plus
# UnrepresentableLimit, the iterative route's typed error for a limit entry
# past the float range.
EXPORTS = {
    "core": (
        "DEFAULT_CONSISTENCY_TOL", "GaugeFix", "InconsistentMarginals", "Marginals", "MatrixBalanceError",
        "NonPositiveInput", "PositiveMatrix", "ScaledResult", "ScalingPair", "ShapeMismatch", "ValidatedInstance",
        "apply_scaling", "default_gauge", "max_abs_residual", "residuals", "transpose_instance", "validate_instance",
    ),
    "iterative": (
        "FactorsUnavailable", "IterationConfig", "NonPositiveLambda", "NotConverged", "UnrepresentableLimit",
        "extract_factors", "gauge_transform", "sinkhorn_iterate",
    ),
    "closedform": (
        "NearSingular", "NegativeDiscriminant", "NonPositiveRoot", "QuadraticData", "UnsupportedShape",
        "WrongShape", "closed_form_1xn", "closed_form_2x2", "closed_form_2x2_singular",
        "closed_form_dispatch", "closed_form_nx1", "quadratic_data", "r2_roots", "solve_r2",
    ),
    "exactalgebra": (
        "BigRational", "GroebnerBasis", "MissingAssignment", "MultivariatePolynomial", "NotZeroDimensional",
        "RationalInstance", "ResourceLimit", "UnitIdeal", "buchberger", "build_scaling_ideal", "elimination_degree",
        "normal_form", "random_inconsistent_instance", "random_rational_instance", "scaling_variables",
        "verify_solution_on_variety",
    ),
}


def _run(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _main_in_new_interpreter(argv: list[str]) -> tuple[int, set[str]]:
    code, modules = json.loads(_run(["-c", PROBE, *argv]))
    return code, set(modules)


@pytest.fixture
def decimal_pair(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"matrix": [[0.5, 2.25], [3.0, 4.1]], "row_sums": [1.5, 0.5], "col_sums": [1, 1]}))
    return str(path)


@pytest.mark.parametrize("mode", ["seeded", "file"])
def test_degree_check_runs_without_numpy(decimal_pair, mode):
    argv = ["degree-check", "--count", "1"] if mode == "seeded" else ["degree-check", decimal_pair]
    code, modules = _main_in_new_interpreter(argv)
    assert code == 0
    assert "matbalance.exactalgebra" in modules
    assert "numpy" not in modules


@pytest.mark.parametrize("command", ["scale", "factors", "compare"])
def test_float_commands_run_without_the_exact_route(decimal_pair, command):
    code, modules = _main_in_new_interpreter([command, decimal_pair])
    assert code == 0
    assert "numpy" in modules
    assert not modules & {"matbalance.exactalgebra", "matbalance._packed", "fractions"}


def test_import_loads_no_submodule():
    modules = json.loads(_run(["-c", "import json, sys, matbalance; print(json.dumps(sorted(sys.modules)))"]))
    assert [m for m in modules if m.startswith("matbalance.")] == []


def test_namespace_is_the_export_table():
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"matbalance.{module}")
        for name in names:
            assert getattr(matbalance, name) is getattr(source, name), name
    assert sorted(matbalance.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    assert set(matbalance.__all__) <= set(dir(matbalance))
    with pytest.raises(AttributeError, match="has no attribute 'sinkhorn'"):
        matbalance.sinkhorn  # noqa: B018
    assert not hasattr(matbalance, "np")


def test_only_the_float_modules_import_numpy_at_module_level():
    importers = set()
    for path in SOURCES.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.stem)
    assert importers == {"core", "iterative", "closedform"}
