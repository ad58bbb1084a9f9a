"""Typed errors and the input checks that both routes share.

Each validation decision of both input routes, float and exact, has its one
home here, so the two raise the same typed errors in the same words: shape
(:func:`check_grid`, :func:`check_target_lengths`, :func:`empty_error`),
positivity (:func:`nonpositive_error`) and the gauge (:class:`GaugeFix`,
:func:`default_gauge`).  Every error that the command line maps to an exit
code is defined here too.

This module imports only the standard library, so the exact route and the
command line load it without numpy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

DEFAULT_CONSISTENCY_TOL = 1e-9
GAUGE_KINDS = ("unit_row_factor", "unit_col_factor")


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


class NotConverged(MatrixBalanceError):
    """Iteration budget exhausted before meeting the convergence contract.

    The partial :class:`~matbalance.core.ScaledResult` is attached as ``result``.
    """

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


class ResourceLimit(MatrixBalanceError):
    """Basis computation exceeded the configured pair or term budget, or an
    exponent reached the packed field limit."""


class UnitIdeal(MatrixBalanceError):
    """The ideal is the whole ring (the system has no solution)."""


def empty_error(name: str) -> ShapeMismatch:
    """The error for an empty matrix or target vector ``name``, float or exact."""
    return ShapeMismatch(f"{name} must be nonempty")


def check_grid(grid) -> tuple[int, int]:
    """Shape of a matrix given as a sequence of rows; ShapeMismatch unless nonempty and rectangular."""
    if not (len(grid) and len(grid[0])):
        raise empty_error("matrix")
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise ShapeMismatch("matrix rows have unequal lengths")
    return len(grid), width


def check_target_lengths(rows: int, cols: int, row_targets: int, col_targets: int) -> None:
    """Raise ShapeMismatch unless there is one target per row and one per column."""
    if row_targets != rows:
        raise ShapeMismatch(f"{row_targets} row targets for a matrix with {rows} rows")
    if col_targets != cols:
        raise ShapeMismatch(f"{col_targets} col targets for a matrix with {cols} cols")


def nonpositive_error(name: str) -> NonPositiveInput:
    """The error for a zero or negative entry of ``name``, float or exact."""
    return NonPositiveInput(f"{name} contains entries <= 0; all values must be strictly positive")


@dataclass(frozen=True)
class GaugeFix:
    """Pin one scaling factor to 1: row factor ``index`` or column factor ``index``.

    ``index`` is stored as a plain int; a numpy integer is accepted, while a
    bool or a float is refused with TypeError rather than used as an index.
    """

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in GAUGE_KINDS:
            raise ValueError(f"gauge kind must be one of {GAUGE_KINDS}")
        try:
            if isinstance(self.index, bool):
                raise TypeError
            index = operator.index(self.index)
        except TypeError:
            raise TypeError(f"gauge index must be an integer, got {self.index!r}") from None
        if index < 0:
            raise ValueError("gauge index must be >= 0")
        object.__setattr__(self, "index", index)

    def check_fits(self, rows: int, cols: int) -> None:
        """Raise ShapeMismatch unless the pinned factor exists in a ``rows x cols`` problem."""
        if self.kind == "unit_row_factor":
            if self.index >= rows:
                raise ShapeMismatch(f"row gauge index {self.index} for {rows} rows")
        elif self.index >= cols:
            raise ShapeMismatch(f"col gauge index {self.index} for {cols} cols")


def default_gauge(rows: int, cols: int) -> GaugeFix:
    """Pin the last column factor, or the single row factor for one-row shapes."""
    return GaugeFix("unit_row_factor", 0) if rows == 1 else GaugeFix("unit_col_factor", cols - 1)
