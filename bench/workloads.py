"""The four seeded workloads: inputs, the calls into matbalance, and their checks.

Each workload turns a seed into one *round*: a fixed list of operations
whose make-up (kinds, shapes, counts) never depends on the seed; the seed
only draws the numbers.  A run repeats whole rounds, so every run attempts
the same mix and the share of failed operations is the same in every run.

``execute`` makes the calls a user of the package would make and returns
what they returned; ``check`` judges that output with :mod:`checks`, which
never uses the package.  Spans and counters go to the tracer given; the
untraced run passes :data:`spans.OFF`.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from matbalance import (
    GaugeFix,
    IterationConfig,
    Marginals,
    MatrixBalanceError,
    NotConverged,
    PositiveMatrix,
    UnsupportedShape,
    buchberger,
    build_scaling_ideal,
    closed_form_dispatch,
    elimination_degree,
    extract_factors,
    random_inconsistent_instance,
    random_rational_instance,
    scaling_variables,
    sinkhorn_iterate,
    validate_instance,
)

import checks
from checks import CheckFailed
from spans import OFF

ITERATION = IterationConfig(tolerance=1e-9)
# Errors that a known program fault can raise: a typed error, bare
# arithmetic, or a wrong result.  Any other error is a fault of the benchmark.
KNOWN_FAULT_ERRORS = (MatrixBalanceError, ArithmeticError, CheckFailed)


@dataclass
class Op:
    """One operation of a round.

    ``fault`` names the program fault that makes this operation fail today;
    it is set only on the fixed extreme-magnitude slice of ``small-mixed``.
    """

    kind: str
    data: dict = field(default_factory=dict)
    fault: str | None = None


def _gauge(rows: int, cols: int) -> GaugeFix:
    return GaugeFix("unit_row_factor", 0) if rows == 1 else GaugeFix("unit_col_factor", cols - 1)


def _pinned(gauge: GaugeFix) -> tuple[str, int]:
    return ("row" if gauge.kind == "unit_row_factor" else "col", gauge.index)


def _targets(rng: np.random.Generator, rows: int, cols: int, lo: float = 0.5, hi: float = 3.0):
    """Positive row targets and column targets with the same total."""
    row_targets = rng.uniform(lo, hi, rows)
    weights = rng.uniform(lo, hi, cols)
    return row_targets, row_targets.sum() * weights / weights.sum()


def _validate(entries, row_targets, col_targets, tracer):
    tracer.count("core.validate.calls")
    with tracer.span("core.validate"):
        return validate_instance(PositiveMatrix(entries), Marginals(row_targets, col_targets))


def _iterate(instance, tracer):
    tracer.count("iterative.solve.calls")
    try:
        with tracer.span("iterative.solve"):
            result = sinkhorn_iterate(instance, ITERATION)
    except NotConverged as exc:
        tracer.count("iterative.not_converged")
        tracer.count("iterative.sweeps", exc.result.iterations)
        raise
    tracer.count("iterative.sweeps", result.iterations)
    return result


def _factors(instance, result, tracer):
    with tracer.span("iterative.extract_factors"):
        return extract_factors(instance, result, _gauge(instance.rows, instance.cols))


def _check_solution(data: dict, output: dict) -> None:
    """Marginals, ``D1 A D2`` structure and (when returned) the gauge-fixed factors."""
    a, r, c, s = data["entries"], data["rows"], data["cols"], output["matrix"]
    checks.check_marginals(s, r, c)
    checks.check_cross_ratios(s, a)
    pair = output.get("factors")
    if pair is not None:
        gauge = _gauge(*a.shape)
        checks.check_factors(s, a, pair.row_factors, pair.col_factors, _pinned(gauge))


class Workload:
    """A seeded round of operations; subclasses fill in the four hooks."""

    name = ""
    rss_who = "self"

    def generate(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self, ops: list[Op]) -> None:
        """Run a few operations untimed so that lazy set-up is done before timing."""

    def execute(self, op: Op, tracer):
        raise NotImplementedError

    def check(self, op: Op, output, tracer) -> None:
        raise NotImplementedError

    def traced_round_extras(self, tracer) -> None:
        """Measurements taken once per traced round, outside the operations."""

    def close(self) -> None:
        """Remove whatever ``generate`` left on disk."""


class DenseIterative(Workload):
    """validate -> sinkhorn_iterate (tol 1e-9) -> extract_factors on dense matrices.

    The shapes and entry laws are fixed; sizes span a few hundred to 1,500 per
    side and every matrix stays under 32 MB.  Uniform entries converge in
    five sweeps, lognormal ones in six to fifteen.  The lognormal exponents
    are truncated at three standard deviations: untruncated, the largest of
    a million draws sets the sweep count, which then ranged over 24-52 on
    one shape across eight seeds and made the work of a run depend on its
    seed.
    """

    name = "dense-iterative"
    # Four small, four alike in the middle and four large, so the median
    # operation is one of the middle four on every seed.
    SPECS = (
        (300, 500, "uniform", 0.0),
        (500, 300, "lognormal", 1.0),
        (400, 700, "lognormal", 2.5),
        (700, 400, "uniform", 0.0),
        (800, 1000, "lognormal", 1.5),
        (1000, 800, "lognormal", 1.5),
        (800, 1000, "lognormal", 1.5),
        (1000, 800, "lognormal", 1.5),
        (1000, 1200, "lognormal", 2.5),
        (1200, 1000, "uniform", 0.0),
        (1200, 1500, "lognormal", 1.0),
        (1500, 1200, "lognormal", 2.0),
    )

    def generate(self, seed):
        ops = []
        for k, (rows, cols, law, sigma) in enumerate(self.SPECS):
            rng = np.random.default_rng((seed, k))
            if law == "uniform":
                entries = rng.uniform(0.2, 5.0, (rows, cols))
            else:
                entries = np.exp(sigma * np.clip(rng.standard_normal((rows, cols)), -3.0, 3.0))
            row_targets, col_targets = _targets(rng, rows, cols, 0.1, 10.0)
            ops.append(Op(f"{rows}x{cols}-{law}", {"entries": entries, "rows": row_targets, "cols": col_targets}))
        return ops

    def warm_up(self, ops):
        # The largest matrix, so every solver temporary has been allocated once.
        self.execute(max(ops, key=lambda op: op.data["entries"].size), OFF)

    def execute(self, op, tracer):
        d = op.data
        instance = _validate(d["entries"], d["rows"], d["cols"], tracer)
        result = _iterate(instance, tracer)
        return {"matrix": result.matrix, "factors": _factors(instance, result, tracer)}

    def check(self, op, output, tracer):
        _check_solution(op.data, output)


# Fixed, seed-independent extreme-magnitude slice of small-mixed.  The scale-1
# limit is the reference; ``fault`` names what goes wrong today, or None.
_B = np.array([[1.0, 2.0], [3.0, 4.0]])
_M = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5], [7.0, 8.0, 9.0]])
EXTREMES = (
    ("2x2 matrix x 1e-50", _B, 1e-50, 1.0, None),
    ("2x2 targets x 1e100", _B, 1.0, 1e100, None),
    ("2x2 targets x 1e150", _B, 1.0, 1e150, None),
    ("3x3 matrix x 1e-300", _M, 1e-300, 1.0, None),
    ("3x3 matrix x 1e300", _M, 1e300, 1.0, None),
    ("2x2 matrix x 1e80", _B, 1e80, 1.0, "closed_form_2x2 raises NonPositiveRoot at matrix scale >= 1e78"),
    ("2x2 targets x 1e200", _B, 1.0, 1e200, "closed_form_2x2 raises NonPositiveRoot at targets of 1e200"),
    ("2x2 matrix x 1e-150", _B, 1e-150, 1.0, "r2_roots raises a bare ZeroDivisionError at matrix scale 1e-140..1e-160"),
    ("2x2 matrix x 1e-200", _B, 1e-200, 1.0, "closed_form_dispatch takes the singular formula at matrix scale <= 1e-170"),
    ("2x2 matrix x 1e-80", _B, 1e-80, 1.0, "closed_form_dispatch is off by 1e-6 at matrix scale 1e-80"),
    ("3x3 matrix x 1e-320", _M, 1e-320, 1.0, "sinkhorn_iterate raises NonPositiveInput after 1,000 sweeps at scale 1e-320"),
    ("2x2 targets x 1e308", _B, 1.0, 1e308, "Marginals totals overflow at targets of 1e308 (defect nan)"),
)


class SmallMixed(Workload):
    """Thousands of small instances through the CLI's ``auto`` policy, in-process.

    ``closed_form_dispatch``, falling back to ``sinkhorn_iterate`` on
    ``UnsupportedShape``, then ``extract_factors`` when the route returned
    factors.  Every fourth generic 2x2 instance also runs the iterative
    route for comparison.
    """

    name = "small-mixed"
    # (kind, operations per round); the order is fixed.
    MIX = (
        ("1xn", 60),
        ("nx1", 60),
        ("2x2", 240),
        ("2x2-unit", 120),
        ("2x2-near-singular", 60),
        ("2x2-singular", 60),
        ("grid", 240),
        ("ill-conditioned", 60),
    )

    def generate(self, seed):
        ops = []
        for kind, count in self.MIX:
            for k in range(count):
                rng = np.random.default_rng((seed, len(ops)))
                ops.append(Op(kind, self._draw(kind, k, rng)))
        for label, base, scale, target, fault in EXTREMES:
            ones_r, ones_c = np.ones(base.shape[0]), np.ones(base.shape[1])
            reference = checks.reference_limit(base, ones_r, ones_c) * target
            data = {"entries": base * scale, "rows": ones_r * target, "cols": ones_c * target, "reference": reference}
            ops.append(Op(f"extreme {label}", data, fault))
        return ops

    @staticmethod
    def _draw(kind: str, k: int, rng: np.random.Generator) -> dict:
        if kind in ("1xn", "nx1"):
            n = 2 + k % 29
            shape = (1, n) if kind == "1xn" else (n, 1)
            entries = rng.uniform(0.2, 5.0, shape)
        elif kind in ("2x2", "2x2-unit"):
            entries = rng.uniform(0.2, 5.0, (2, 2))
        elif kind == "2x2-near-singular":
            a, b, c = rng.uniform(0.2, 5.0, 3)
            eps = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10.0, -7.0)
            entries = np.array([[a, b], [c, b * c / a * (1.0 + eps)]])
        elif kind == "2x2-singular":
            # Integer rows in an integer ratio, so the determinant is exactly 0.
            a, b = rng.integers(1, 1000, 2).astype(float)
            m = float(rng.integers(1, 10))
            entries = np.array([[a, b], [m * a, m * b]])
        elif kind == "grid":
            entries = rng.uniform(0.2, 5.0, (3 + k % 28, 3 + (k * 11) % 28))
        else:
            # Rank-one log-scale part (sigma 6) over a clipped lognormal core.
            rows, cols = 10 + k % 21, 10 + (k * 7) % 21
            u, v = rng.standard_normal(rows), rng.standard_normal(cols)
            core = np.clip(rng.standard_normal((rows, cols)), -2.0, 2.0)
            entries = np.exp(6.0 * (u[:, None] + v[None, :]) / np.sqrt(2.0) + 3.5 * core)
        if kind == "2x2-unit":
            row_targets, col_targets = np.ones(2), np.ones(2)
        else:
            row_targets, col_targets = _targets(rng, *entries.shape)
        return {"entries": entries, "rows": row_targets, "cols": col_targets, "compare": kind == "2x2" and k % 4 == 0}

    def warm_up(self, ops):
        for op in ops:
            if op.fault is None:
                self.execute(op, OFF)

    def execute(self, op, tracer):
        d = op.data
        instance = _validate(d["entries"], d["rows"], d["cols"], tracer)
        tracer.count("closedform.dispatch.calls")
        try:
            with tracer.span("closedform.dispatch"):
                result = closed_form_dispatch(instance)
        except UnsupportedShape:
            tracer.count("closedform.unsupported")
            result = _iterate(instance, tracer)
        except Exception:
            tracer.count("closedform.failures")
            raise
        if result.method == "closed_form_2x2_singular":
            tracer.count("closedform.singular_routes")
        output = {"matrix": result.matrix, "method": result.method, "factors": None}
        if result.factors is not None:
            output["factors"] = _factors(instance, result, tracer)
        if d.get("compare"):
            output["iterative"] = _iterate(instance, tracer).matrix
        return output

    def check(self, op, output, tracer):
        d, s = op.data, output["matrix"]
        _check_solution(d, output)
        if op.kind == "1xn":
            checks.check_close(s, d["cols"][None, :], 1e-12, "single-row limit")
        elif op.kind == "nx1":
            checks.check_close(s, d["rows"][:, None], 1e-12, "single-column limit")
        elif op.kind == "2x2-unit":
            checks.check_close(s, checks.unit_target_2x2(d["entries"]), 1e-11, "sqrt(ad):sqrt(bc) limit")
        elif op.kind == "2x2-singular":
            checks.check_close(s, checks.singular_2x2(d["rows"], d["cols"]), 1e-12, "singular limit")
        elif "reference" in d:
            checks.check_close(s, d["reference"], 1e-9, "limit of the same matrix at scale 1")
        if "iterative" in output:
            checks.check_close(output["iterative"], s, 1e-6, "iterative against closed form")
        if output["method"] != "iterative":
            tracer.count("closedform.useful")


class ExactDegree(Workload):
    """build_scaling_ideal -> buchberger -> elimination_degree at exact rational data.

    Per round: 12 instances each of 1x3, 2x2 and 2x3, 32 of 2x4, 24 each
    of 2x5 and 3x3, and 4 inconsistent instances each of 2x2, 2x3 and 3x3,
    which must give the unit ideal.  The 48 fastest and the 48 slowest
    operations flank the 2x4 block, so the median operation is a 2x4 one on
    every seed.  The time of one instance varies by up to half with its
    numbers, so a round holds many of each shape.
    """

    name = "exact-degree"
    MIX = (((1, 3), 12), ((2, 2), 12), ((2, 3), 12), ((2, 4), 32), ((2, 5), 24), ((3, 3), 24))
    INCONSISTENT = (((2, 2), 4), ((2, 3), 4), ((3, 3), 4))

    def generate(self, seed):
        ops = []
        for (rows, cols), count in self.MIX:
            for k in range(count):
                instance = random_rational_instance(rows, cols, random.Random(f"{seed}/{rows}x{cols}/{k}"))
                ops.append(Op(f"{rows}x{cols}", {"instance": instance}))
        for (rows, cols), count in self.INCONSISTENT:
            for k in range(count):
                instance = random_inconsistent_instance(rows, cols, random.Random(f"{seed}/{rows}x{cols}/bad/{k}"))
                ops.append(Op(f"{rows}x{cols}", {"instance": instance}))
        return ops

    @staticmethod
    def _float_root(instance) -> float:
        """The iterative solver's value of the last lex variable, in the same gauge."""
        floats = validate_instance(
            PositiveMatrix([[float(v) for v in row] for row in instance.entries]),
            Marginals([float(v) for v in instance.row_targets], [float(v) for v in instance.col_targets]),
        )
        result = sinkhorn_iterate(floats, ITERATION)
        pair = extract_factors(floats, result, instance.gauge)
        last = scaling_variables(instance.rows, instance.cols, instance.gauge)[-1]
        factors = pair.row_factors if last[0] == "r" else pair.col_factors
        return float(factors[int(last[1:]) - 1])

    def warm_up(self, ops):
        for op in ops[::4]:
            self.execute(op, OFF)

    def execute(self, op, tracer):
        instance, shape = op.data["instance"], op.kind
        with tracer.span(f"exactalgebra.ideal.{shape}"):
            generators = build_scaling_ideal(instance)
        tracer.count("exactalgebra.buchberger.calls")
        with tracer.span(f"exactalgebra.buchberger.{shape}"):
            basis = buchberger(generators)
        if basis.is_unit:
            tracer.count("exactalgebra.unit_ideals")
            return {"basis": basis, "degree": None}
        with tracer.span(f"exactalgebra.degree.{shape}"):
            degree = elimination_degree(basis, basis.variables[-1])
        if tracer.enabled:
            tracer.count(f"exactalgebra.basis.{shape}.size", len(basis.polynomials))
            bits = max(
                max(c.numerator.bit_length(), c.denominator.bit_length())
                for g in basis.polynomials
                for c in g.terms.values()
            )
            tracer.peak(f"exactalgebra.basis.{shape}.max_coeff_bits", bits)
        return {"basis": basis, "degree": degree}

    def check(self, op, output, tracer):
        instance, basis = op.data["instance"], output["basis"]
        checks.check_unit_ideal(basis.is_unit, len(basis.polynomials), instance.row_targets, instance.col_targets)
        if basis.is_unit:
            return
        checks.check_degree(instance.rows, instance.cols, output["degree"])
        last = len(basis.variables) - 1
        univariate = [
            g.terms for g in basis.polynomials
            if g.terms and all(not any(m[:last]) for m in g.terms)
        ]
        if len(univariate) != 1:
            raise CheckFailed(f"{len(univariate)} univariate basis elements in the last variable")
        coeffs = {m[last]: c for m, c in univariate[0].items()}
        if max(coeffs) != output["degree"]:
            raise CheckFailed(f"reported degree {output['degree']}, univariate element has degree {max(coeffs)}")
        # The reference root is computed here, outside the timed set-up and
        # operation, so that the iterative layer's speed moves neither.
        if "root" not in op.data:
            op.data["root"] = self._float_root(instance)
        checks.check_root(coeffs, op.data["root"])


EXACT_SHAPES = tuple(f"{rows}x{cols}" for (rows, cols), _ in ExactDegree.MIX)


CLI_COMMANDS = ("scale_2x2", "scale_csv", "factors", "compare", "degree_check")


class Cli(Workload):
    """Whole ``python -m matbalance.cli`` processes, one at a time.

    Inputs are written under ``bench/out/`` during set-up and removed at
    the end of the run.
    """

    name = "cli"
    rss_who = "children"

    def __init__(self):
        root = Path(__file__).resolve().parent.parent
        self.cwd = root
        self.workdir = Path(__file__).resolve().parent / "out" / f"cli-{os.getpid()}"
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.first_stdout: dict[str, bytes] = {}

    def _process(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=self.cwd, env=self.env, capture_output=True, timeout=120, check=False
        )

    def generate(self, seed):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        rng = np.random.default_rng((seed, 0))
        pair = rng.uniform(0.2, 5.0, (2, 2))
        pair_rows, pair_cols = _targets(rng, 2, 2)
        grid = rng.uniform(0.2, 5.0, (40, 40))
        grid_rows, grid_cols = _targets(rng, 40, 40)
        wide = rng.uniform(0.2, 5.0, (3, 4))
        wide_rows, wide_cols = _targets(rng, 3, 4)

        def write_json(name, entries, rows, cols):
            doc = {"matrix": entries.tolist(), "row_sums": rows.tolist(), "col_sums": cols.tolist()}
            path = self.workdir / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        def join(values):
            return ",".join(repr(float(v)) for v in values)

        pair_path = write_json("pair.json", pair, pair_rows, pair_cols)
        wide_path = write_json("wide.json", wide, wide_rows, wide_cols)
        grid_path = self.workdir / "grid.csv"
        grid_path.write_text("\n".join(join(row) for row in grid) + "\n", encoding="utf-8")
        cli = ["-m", "matbalance.cli"]
        pair_data = {"entries": pair, "rows": pair_rows, "cols": pair_cols}
        return [
            Op("scale_2x2", {"argv": [*cli, "scale", pair_path], **pair_data}),
            Op("scale_csv", {"argv": [*cli, "scale", str(grid_path), "--rows", join(grid_rows), "--cols", join(grid_cols)],
                             "entries": grid, "rows": grid_rows, "cols": grid_cols}),
            Op("factors", {"argv": [*cli, "factors", wide_path, "--gauge", "c,2"],
                           "entries": wide, "rows": wide_rows, "cols": wide_cols}),
            Op("compare", {"argv": [*cli, "compare", pair_path], **pair_data}),
            Op("degree_check", {"argv": [*cli, "degree-check", "--seed", str(seed % 2**63), "--count", "20"]}),
        ]

    def warm_up(self, ops):
        for op in ops:
            self._process(op.data["argv"])

    def execute(self, op, tracer):
        with tracer.span(f"cli.{op.kind}"):
            done = self._process(op.data["argv"])
        tracer.count("cli.stdout_bytes", len(done.stdout))
        if done.returncode != 0:
            raise RuntimeError(f"exit {done.returncode}: {done.stderr.decode(errors='replace')[-300:]}")
        return done.stdout

    def check(self, op, output, tracer):
        first = self.first_stdout.setdefault(op.kind, output)
        checks.check_same_bytes(first, output, op.kind)
        doc = json.loads(output)
        d = op.data
        if op.kind == "degree_check":
            if not doc["all_within_bound"]:
                raise CheckFailed("degree-check reports a degree above the bound")
            for shape in doc["shapes"]:
                for degree in map(int, shape["degrees"]):
                    checks.check_degree(shape["rows"], shape["cols"], degree)
            return
        if op.kind == "compare":
            if not doc["ok"]:
                raise CheckFailed(f"compare reports a gap of {doc['max_entrywise_gap']!r}")
            checks.check_close(doc["iterative"]["matrix"], doc["closed_form"]["matrix"], 1e-6, "compare routes")
            doc = doc["closed_form"]
        s = np.array(doc["matrix"])
        checks.check_marginals(s, d["rows"], d["cols"])
        checks.check_cross_ratios(s, d["entries"])
        if op.kind == "factors":
            checks.check_factors(s, d["entries"], doc["row_factors"], doc["col_factors"], ("col", 1))

    def traced_round_extras(self, tracer):
        with tracer.span("cli.interpreter_import"):
            self._process(["-c", "import matbalance.cli"])

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DenseIterative, SmallMixed, ExactDegree, Cli)}
