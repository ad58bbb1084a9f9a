"""Domain types, validation, and the entrywise-scaling algebra shared by all solvers.

A balancing problem is a strictly positive matrix together with target row
and column sums.  A solution exists only when the two target totals agree,
so instances are validated once (shape + consistency) and the resulting
:class:`ValidatedInstance` is the sole currency accepted by the solvers.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_CONSISTENCY_TOL = 1e-9


class MatrixBalanceError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveInput(MatrixBalanceError, ValueError):
    """An entry, target sum, or factor is not strictly positive and finite."""


class ShapeMismatch(MatrixBalanceError, ValueError):
    """Vector lengths disagree with the matrix shape."""


class InconsistentMarginals(MatrixBalanceError, ValueError):
    """The row-target total differs from the column-target total."""

    def __init__(self, message: str, defect: float):
        super().__init__(message)
        self.defect = defect


def _positive_array(values, name: str, ndim: int, copy: bool = True) -> np.ndarray:
    """Coerce to a read-only float array of strictly positive finite entries.

    With ``copy=False`` a float array is checked and made read-only in place.
    """
    arr = np.array(values, dtype=float) if copy else np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ShapeMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeMismatch(f"{name} must be nonempty")
    # NaN fails both comparisons, so one min and one max decide; the scans
    # below only word the error.
    if not (arr.min() > 0 and arr.max() < np.inf):
        if not np.all(np.isfinite(arr)):
            raise NonPositiveInput(f"{name} contains NaN or infinite entries")
        raise NonPositiveInput(f"{name} contains entries <= 0; all values must be > 0")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PositiveMatrix:
    """Dense matrix with strictly positive entries, stored row-major."""

    entries: np.ndarray

    def __post_init__(self):
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
        object.__setattr__(self, "row_targets", _positive_array(self.row_targets, "row_targets", 1))
        object.__setattr__(self, "col_targets", _positive_array(self.col_targets, "col_targets", 1))

    def consistency_defect(self) -> float:
        """Absolute gap between the row-target total and the column-target total."""
        return abs(float(self.row_targets.sum()) - float(self.col_targets.sum()))

    def is_consistent(self, tol: float) -> bool:
        """True when the defect is within ``tol`` relative to the larger total."""
        scale = max(float(self.row_targets.sum()), float(self.col_targets.sum()))
        return self.consistency_defect() <= tol * scale

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
    ``closed_form_2x2_singular``, or ``transposed_delegate``.  The matrix is
    taken over, not copied: it is validated in place and made read-only.
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
    consistency_tol: float

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
    """Check shapes and marginal consistency, returning the solver-ready bundle.

    Raises:
        ShapeMismatch: target vector lengths disagree with the matrix shape.
        InconsistentMarginals: the totals differ by more than
            ``consistency_tol * max(total row targets, total col targets)``.
        NonPositiveInput: propagated from type construction.
    """
    if not isinstance(matrix, PositiveMatrix):
        matrix = PositiveMatrix(matrix)
    if not isinstance(marginals, Marginals):
        raise TypeError("marginals must be a Marginals value")
    if consistency_tol < 0:
        raise ValueError("consistency_tol must be >= 0")
    if marginals.row_targets.size != matrix.rows:
        raise ShapeMismatch(
            f"{marginals.row_targets.size} row targets for a matrix with {matrix.rows} rows"
        )
    if marginals.col_targets.size != matrix.cols:
        raise ShapeMismatch(
            f"{marginals.col_targets.size} col targets for a matrix with {matrix.cols} cols"
        )
    if not marginals.is_consistent(consistency_tol):
        defect = marginals.consistency_defect()
        raise InconsistentMarginals(
            f"row targets total {float(marginals.row_targets.sum())!r} but col targets "
            f"total {float(marginals.col_targets.sum())!r} (defect {defect!r})",
            defect=defect,
        )
    return ValidatedInstance(matrix=matrix, marginals=marginals, consistency_tol=consistency_tol)


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
    if grid.shape != (marginals.row_targets.size, marginals.col_targets.size):
        raise ShapeMismatch(
            f"candidate shape {grid.shape} does not match targets "
            f"({marginals.row_targets.size}, {marginals.col_targets.size})"
        )
    return grid.sum(axis=1) - marginals.row_targets, grid.sum(axis=0) - marginals.col_targets


def max_abs_residual(candidate, marginals: Marginals) -> float:
    """Largest absolute row or column residual of a candidate matrix."""
    row_res, col_res = residuals(candidate, marginals)
    return max(float(np.max(np.abs(row_res))), float(np.max(np.abs(col_res))))


def transpose_instance(instance: ValidatedInstance) -> ValidatedInstance:
    """The instance for the transposed matrix with row/column targets swapped.

    Applying twice returns a bitwise-identical copy of the original.
    """
    return ValidatedInstance(
        matrix=instance.matrix.transpose(),
        marginals=instance.marginals.swap(),
        consistency_tol=instance.consistency_tol,
    )
