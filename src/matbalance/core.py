"""Float domain types, validation, and the entrywise-scaling algebra shared by the float solvers.

A balancing problem is a strictly positive matrix together with target row
and column sums.  A solution exists only when the two target totals agree,
so instances are validated once and the resulting :class:`ValidatedInstance`
is the sole currency accepted by the solvers.  The checks that the float and
exact routes share, shape, positivity and the gauge, live in the numpy-free
:mod:`matbalance.errors`; this module applies them to numpy arrays, decides
consistency (:meth:`Marginals.check_consistent`) and re-exports them, so
``from matbalance.core import GaugeFix`` keeps working.  That is the one
other module of the package it imports.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (  # noqa: F401  (re-exported: core was their home)
    DEFAULT_CONSISTENCY_TOL,
    GAUGE_KINDS,
    GaugeFix,
    InconsistentMarginals,
    MatrixBalanceError,
    NonPositiveInput,
    ShapeMismatch,
    check_grid,
    check_target_lengths,
    default_gauge,
    empty_error,
    nonpositive_error,
)


def _positive_array(values, name: str, ndim: int, copy: bool = True) -> np.ndarray:
    """Coerce to a read-only float array of strictly positive finite entries.

    With ``copy=False`` a float array is checked and made read-only in place.
    """
    arr = np.array(values, dtype=float) if copy else np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ShapeMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise empty_error(name)
    # NaN fails both comparisons, so one min and one max decide; the scans
    # below only word the error.
    if not (np.minimum.reduce(arr, axis=None) > 0 and np.maximum.reduce(arr, axis=None) < np.inf):
        if not np.all(np.isfinite(arr)):
            raise NonPositiveInput(f"{name} contains NaN or infinite entries")
        raise nonpositive_error(name)
    arr.setflags(write=False)
    return arr


def _sealed(cls, **fields):
    """A :class:`ScalingPair` or :class:`ScaledResult` of values its producer made and range-checked:
    the public constructor's rescan is skipped, and the arrays are only made read-only."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class PositiveMatrix:
    """Dense matrix with strictly positive entries, stored row-major."""

    entries: np.ndarray

    def __post_init__(self):
        # Rows given as lists are a grid to check, as on the exact route.
        if isinstance(self.entries, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in self.entries):
            check_grid(self.entries)
        object.__setattr__(self, "entries", _positive_array(self.entries, "matrix", 2))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def transpose(self) -> "PositiveMatrix":
        return PositiveMatrix(self.entries.T)


@dataclass(frozen=True, eq=False)
class Marginals:
    """Target row sums and column sums, all strictly positive."""

    row_targets: np.ndarray
    col_targets: np.ndarray

    def __post_init__(self):
        rows = _positive_array(self.row_targets, "row_targets", 1)
        cols = _positive_array(self.col_targets, "col_targets", 1)
        object.__setattr__(self, "row_targets", rows)
        object.__setattr__(self, "col_targets", cols)
        # ``(row total, col total, divisor)``, each target total summed once.
        # The divisor is 1 unless a total leaves the float range; then both are
        # summed again over the targets divided by a power of two, so finite
        # totals keep their bits and consistency stays decidable.
        scale = 1.0
        with np.errstate(over="ignore"):
            row, col = float(np.add.reduce(rows)), float(np.add.reduce(cols))
            if not (row < np.inf and col < np.inf):
                # n finite targets sum to less than 2**bit_length(n) times the largest float.
                scale = 2.0 ** (max(rows.size, cols.size).bit_length() + 1)
                row, col = float(np.add.reduce(rows / scale)), float(np.add.reduce(cols / scale))
        object.__setattr__(self, "_totals", (row, col, scale))

    def consistency_defect(self) -> float:
        """Absolute gap between the row-target total and the column-target total."""
        row, col, scale = self._totals
        return abs(row - col) * scale

    def is_consistent(self, tol: float) -> bool:
        """True when the defect is within ``tol`` relative to the larger total."""
        row, col, _ = self._totals
        return abs(row - col) <= tol * max(row, col)

    def check_consistent(self, tol: float) -> None:
        """Raise InconsistentMarginals unless :meth:`is_consistent` holds at ``tol``."""
        if not self.is_consistent(tol):
            row, col, scale = self._totals
            defect = self.consistency_defect()
            raise InconsistentMarginals(
                f"row targets total {row * scale!r} but col targets total {col * scale!r} "
                f"(defect {defect!r})",
                defect=defect,
            )

    def swap(self) -> "Marginals":
        return Marginals(self.col_targets, self.row_targets)


@dataclass(frozen=True, eq=False)
class ScalingPair:
    """Diagonal row/column scaling factors.

    The pairs ``(r, c)`` and ``(lam * r, c / lam)`` produce the same scaled
    matrix for any ``lam > 0``; callers pin this freedom with a gauge fix.
    """

    row_factors: np.ndarray
    col_factors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_factors", _positive_array(self.row_factors, "row_factors", 1))
        object.__setattr__(self, "col_factors", _positive_array(self.col_factors, "col_factors", 1))


@dataclass(frozen=True, eq=False)
class ScaledResult:
    """A balanced matrix plus convergence diagnostics.

    ``method`` is one of ``iterative``, ``closed_form_1xn``, ``closed_form_2x2``,
    ``transposed_delegate``, or ``closed_form_2x2_singular``, which only that function
    returns.  The matrix is taken over, not copied, and made read-only.  This constructor
    checks that it is positive and finite; the solvers check each value where they make it
    and build their results through ``_sealed``, without this second scan.
    """

    matrix: np.ndarray
    factors: "ScalingPair | None"
    iterations: int
    max_marginal_residual: float
    converged: bool
    method: str

    def __post_init__(self):
        object.__setattr__(self, "matrix", _positive_array(self.matrix, "result matrix", 2, copy=False))


@dataclass(frozen=True, eq=False)
class ValidatedInstance:
    """A balancing problem that passed shape and consistency validation.

    Solvers accept only this bundle, so every route sees identical data.
    """

    matrix: PositiveMatrix
    marginals: Marginals

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def cols(self) -> int:
        return self.matrix.cols


def validate_instance(
    matrix,
    marginals,
    consistency_tol: float = DEFAULT_CONSISTENCY_TOL,
) -> ValidatedInstance:
    """Check target lengths and marginal consistency, returning the solver-ready bundle.

    Raises:
        ShapeMismatch: target vector lengths disagree with the matrix shape.
        InconsistentMarginals: the totals differ by more than
            ``consistency_tol * max(total row targets, total col targets)``.
        NonPositiveInput: propagated from type construction.
        ValueError: ``consistency_tol`` is negative, NaN or infinite.
    """
    if not isinstance(matrix, PositiveMatrix):
        matrix = PositiveMatrix(matrix)
    if not isinstance(marginals, Marginals):
        raise TypeError("marginals must be a Marginals value")
    if not math.isfinite(consistency_tol):
        raise ValueError(f"consistency_tol must be finite, got {consistency_tol!r}")
    if consistency_tol < 0:
        raise ValueError("consistency_tol must be >= 0")
    check_target_lengths(matrix.rows, matrix.cols, marginals.row_targets.size, marginals.col_targets.size)
    marginals.check_consistent(consistency_tol)
    return ValidatedInstance(matrix=matrix, marginals=marginals)


def apply_scaling(matrix, factors: ScalingPair) -> np.ndarray:
    """Scale row i by ``row_factors[i]`` and column j by ``col_factors[j]``.

    Output entry (i, j) is ``r_i * a_ij * c_j``, evaluated in exactly that
    order so results are bitwise-reproducible against the iterative solver.
    """
    entries = matrix.entries if isinstance(matrix, PositiveMatrix) else np.asarray(matrix, dtype=float)
    r = factors.row_factors
    c = factors.col_factors
    if entries.shape != (r.size, c.size):
        raise ShapeMismatch(
            f"factors of lengths ({r.size}, {c.size}) for a matrix of shape {entries.shape}"
        )
    scaled = r[:, None] * entries
    scaled *= c[None, :]
    return scaled


def residuals(candidate, marginals: Marginals) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sum defects of a candidate matrix against the targets.

    Returns ``(row sums - row targets, col sums - col targets)``.
    """
    grid = np.asarray(candidate, dtype=float)
    if grid.ndim != 2:
        raise ShapeMismatch(f"candidate must be 2-dimensional, got shape {grid.shape}")
    check_target_lengths(*grid.shape, marginals.row_targets.size, marginals.col_targets.size)
    return _residuals(grid, marginals)


def _residuals(grid: np.ndarray, marginals: Marginals) -> tuple[np.ndarray, np.ndarray]:
    """:func:`residuals` of a float matrix whose shape fits the targets, unchecked."""
    row_sums, col_sums = np.add.reduce(grid, axis=1), np.add.reduce(grid, axis=0)
    return row_sums - marginals.row_targets, col_sums - marginals.col_targets


def max_abs_residual(candidate, marginals: Marginals) -> float:
    """Largest absolute row or column residual of a candidate matrix."""
    return _largest_abs(*residuals(candidate, marginals))


def _largest_abs(row_res: np.ndarray, col_res: np.ndarray) -> float:
    return float(max(np.maximum.reduce(np.abs(row_res)), np.maximum.reduce(np.abs(col_res))))


def transpose_instance(instance: ValidatedInstance) -> ValidatedInstance:
    """The instance for the transposed matrix with row/column targets swapped.

    Applying twice returns a bitwise-identical copy of the original.
    """
    return ValidatedInstance(matrix=instance.matrix.transpose(), marginals=instance.marginals.swap())
