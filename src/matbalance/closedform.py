"""Exact balancing formulas for the shapes that admit them.

Covered shapes: single-row matrices (the limit is just the column targets),
single-column matrices (by transposition), and 2x2 matrices, where each
limit entry is a root of a quadratic in the input data.  The 2x2 entries
are evaluated from their explicit forms rather than by back-substituting
the scaling factors, which sidesteps a removable singularity in the factor
equations.

Near a singular 2x2 matrix the quadratic's determinant denominator
vanishes; entries then switch to algebraically equivalent rationalized
forms with no determinant division, and the discriminant to a
cancellation-free expansion, keeping the formula accurate through the
seam to the dedicated singular formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_CONSISTENCY_TOL,
    Marginals,
    MatrixBalanceError,
    ScaledResult,
    ScalingPair,
    ValidatedInstance,
    max_abs_residual,
)

# |det| <= threshold * alpha routes to the singular formula.
DEFAULT_SINGULARITY_THRESHOLD = 1e-12
# |det| < ratio * alpha switches the nonsingular formula to compensated forms.
COMPENSATED_DET_RATIO = 1e-6


class WrongShape(MatrixBalanceError, ValueError):
    """The instance shape does not match the requested formula."""


class UnsupportedShape(MatrixBalanceError, ValueError):
    """No closed form exists for this shape; use the iterative solver."""


class NearSingular(MatrixBalanceError):
    """Determinant too close to zero for the nonsingular formula."""


class NegativeDiscriminant(MatrixBalanceError):
    """The quadratic discriminant came out negative (numeric failure)."""


class NonPositiveRoot(MatrixBalanceError):
    """The selected quadratic branch produced a nonpositive value."""

    def __init__(self, message: str, minus_root: float, plus_root: float):
        super().__init__(message)
        self.minus_root = minus_root
        self.plus_root = plus_root


@dataclass(frozen=True)
class QuadraticData:
    """Diagonal/antidiagonal products and discriminant of a 2x2 instance.

    ``lower_right`` is the bottom-right matrix entry; the quadratic for the
    second row factor carries it in its denominator, so it travels with the
    products rather than forcing callers back to the matrix.
    """

    alpha: float
    beta: float
    det: float
    delta: float
    lower_right: float


def _require_shape(instance: ValidatedInstance, rows: int | None, cols: int | None, what: str):
    if rows is not None and instance.rows != rows:
        raise WrongShape(f"{what} requires {rows} row(s), got {instance.rows}")
    if cols is not None and instance.cols != cols:
        raise WrongShape(f"{what} requires {cols} column(s), got {instance.cols}")


def _result(matrix: np.ndarray, factors: ScalingPair | None, marginals: Marginals, method: str) -> ScaledResult:
    """A closed-form result: no iterations, converged, with its measured residual."""
    return ScaledResult(matrix, factors, 0, max_abs_residual(matrix, marginals), True, method)


def _discriminant(alpha: float, beta: float, det: float, r2t: float, c1t: float, c2t: float) -> float:
    if abs(det) < COMPENSATED_DET_RATIO * alpha:
        # Cancellation-free expansion: every term is nonnegative for
        # consistent positive data (c1t + c2t - r2t is the first row target).
        return (
            alpha * alpha * (c2t - r2t) ** 2
            + 2.0 * alpha * beta * (c1t * c2t + r2t * (c1t + c2t - r2t))
            + beta * beta * (c1t - r2t) ** 2
        )
    total = alpha * (c2t + r2t) + beta * (c1t - r2t)
    return total * total - 4.0 * alpha * c2t * r2t * det


def quadratic_data(instance: ValidatedInstance) -> QuadraticData:
    """Products, determinant, and discriminant feeding the 2x2 formulas."""
    _require_shape(instance, 2, 2, "quadratic_data")
    a = instance.matrix.entries
    alpha = float(a[0, 0] * a[1, 1])
    beta = float(a[0, 1] * a[1, 0])
    det = alpha - beta
    r2t = float(instance.marginals.row_targets[1])
    c1t, c2t = (float(v) for v in instance.marginals.col_targets)
    delta = _discriminant(alpha, beta, det, r2t, c1t, c2t)
    if delta < 0:
        raise NegativeDiscriminant(
            f"discriminant {delta!r} < 0 for alpha={alpha!r}, beta={beta!r}, det={det!r}"
        )
    return QuadraticData(alpha=alpha, beta=beta, det=det, delta=delta, lower_right=float(a[1, 1]))


def r2_roots(data: QuadraticData, marginals: Marginals) -> tuple[float, float]:
    """Both branches of the quadratic for the second row factor (gauge c2 = 1)."""
    denom = 2.0 * data.lower_right * data.det
    if denom == 0:
        # det = 0, or a nonzero det whose product with a22 underflows.
        raise NearSingular(
            f"second-row-factor quadratic degenerates: 2 * a22 * det = 0 (det {data.det!r})"
        )
    r2t = float(marginals.row_targets[1])
    c1t, c2t = (float(v) for v in marginals.col_targets)
    total = data.alpha * (c2t + r2t) + data.beta * (c1t - r2t)
    root = math.sqrt(data.delta)
    return (total - root) / denom, (total + root) / denom


def solve_r2(data: QuadraticData, marginals: Marginals) -> float:
    """The admissible (minus square root) branch of the second row factor.

    The plus branch is extraneous: it goes negative on positive inputs.
    Positivity of the selected branch is asserted rather than assumed.
    """
    minus, plus = r2_roots(data, marginals)
    if not minus > 0:
        raise NonPositiveRoot(
            f"selected branch {minus!r} is not positive (rejected branch {plus!r})",
            minus_root=minus,
            plus_root=plus,
        )
    return minus


def closed_form_1xn(instance: ValidatedInstance) -> ScaledResult:
    """Single-row limit: the row of column targets, whatever the entries."""
    _require_shape(instance, 1, None, "closed_form_1xn")
    col_targets = instance.marginals.col_targets
    matrix = col_targets[None, :].copy()
    factors = ScalingPair(np.ones(1), col_targets / instance.matrix.entries[0, :])
    return _result(matrix, factors, instance.marginals, "closed_form_1xn")


def closed_form_nx1(instance: ValidatedInstance) -> ScaledResult:
    """Single-column limit: the column of row targets, the transposed single-row formula."""
    _require_shape(instance, None, 1, "closed_form_nx1")
    row_targets = instance.marginals.row_targets
    matrix = row_targets[:, None].copy()
    factors = ScalingPair(row_targets / instance.matrix.entries[:, 0], np.ones(1))
    return _result(matrix, factors, instance.marginals, "transposed_delegate")


def _entries_2x2(instance: ValidatedInstance, data: QuadraticData) -> tuple[float, float, float, float]:
    r1t, r2t = instance.marginals.row_targets
    c1t, c2t = instance.marginals.col_targets
    alpha, beta = data.alpha, data.beta
    root = math.sqrt(data.delta)
    n11 = alpha * (r2t - 2.0 * c1t - c2t) + beta * (c1t - r2t)
    n12 = alpha * (r2t - c2t) + beta * (c1t + 2.0 * c2t - r2t)
    n21 = alpha * (c2t - r2t) + beta * (c1t + r2t)
    total = alpha * (c2t + r2t) + beta * (c1t - r2t)
    if abs(data.det) < COMPENSATED_DET_RATIO * alpha:
        # Rationalized forms: numerator and denominator of each direct form
        # both vanish linearly in det, which cancels exactly.
        s11 = 2.0 * alpha * c1t * r1t / (root - n11)
        s12 = 2.0 * beta * c2t * r1t / (n12 + root)
        s21 = 2.0 * beta * c1t * r2t / (n21 + root)
        s22 = 2.0 * alpha * c2t * r2t / (total + root)
    else:
        denom = -2.0 * data.det
        s11 = (n11 + root) / denom
        s12 = (n12 - root) / denom
        s21 = (n21 - root) / denom
        s22 = (-total + root) / denom
    return s11, s12, s21, s22


def closed_form_2x2(
    instance: ValidatedInstance,
    singularity_threshold: float = DEFAULT_SINGULARITY_THRESHOLD,
) -> ScaledResult:
    """Nonsingular 2x2 limit from the explicit quadratic-root entries.

    All four entries must come out strictly positive; a nonpositive entry
    means the branch analysis failed for this input and is surfaced as
    :class:`NonPositiveRoot` instead of silently switching branches.
    """
    data = quadratic_data(instance)
    if abs(data.det) <= singularity_threshold * data.alpha:
        raise NearSingular(
            f"|det| = {abs(data.det)!r} <= {singularity_threshold!r} * alpha; "
            "use the singular formula"
        )
    return _nonsingular_2x2(instance, data)


def _nonsingular_2x2(instance: ValidatedInstance, data: QuadraticData) -> ScaledResult:
    """The body of :func:`closed_form_2x2` once ``data`` has passed the singularity test."""
    a = instance.matrix.entries
    # Overflow or NaN leaves an entry or a factor nonpositive or infinite,
    # raised below as a typed error, so numpy's warnings would only repeat it.
    with np.errstate(all="ignore"):
        s11, s12, s21, s22 = entries = _entries_2x2(instance, data)
        # Factors in the c2 = 1 gauge, read off the entries: s22 = a22 r2,
        # s12 = a12 r1, s21 = a21 r2 c1.
        row_factors = np.array([s12 / a[0, 1], s22 / a[1, 1]])
        col_factors = np.array([s21 * a[1, 1] / (a[1, 0] * s22), 1.0])
    if not (s11 > 0 and s12 > 0 and s21 > 0 and s22 > 0):
        minus, plus = r2_roots(data, instance.marginals)
        raise NonPositiveRoot(
            f"formula produced nonpositive entries {[float(s) for s in entries]!r} "
            f"(row-factor branches {minus!r} / {plus!r})",
            minus_root=minus,
            plus_root=plus,
        )
    matrix = np.array([[s11, s12], [s21, s22]])
    factors = ScalingPair(row_factors, col_factors)
    return _result(matrix, factors, instance.marginals, "closed_form_2x2")


def closed_form_2x2_singular(
    marginals: Marginals,
    consistency_tol: float = DEFAULT_CONSISTENCY_TOL,
) -> ScaledResult:
    """Singular 2x2 limit; depends on the targets only, not the matrix.

    This is the maximum entropy solution ``s_ij = R_i C_j / total``: a
    singular matrix carries only proportion information, so the limit is
    shaped entirely by the external constraints.
    """
    if marginals.row_targets.size != 2 or marginals.col_targets.size != 2:
        raise WrongShape("singular closed form requires 2 row and 2 col targets")
    marginals.check_consistent(consistency_tol)
    r2t = marginals.row_targets[1]
    c1t, c2t = marginals.col_targets
    ctotal = c1t + c2t
    s21 = c1t * r2t / ctotal
    s22 = c2t * r2t / ctotal
    matrix = np.array([[c1t - s21, c2t - s22], [s21, s22]])
    return _result(matrix, None, marginals, "closed_form_2x2_singular")


def closed_form_dispatch(
    instance: ValidatedInstance,
    singularity_threshold: float = DEFAULT_SINGULARITY_THRESHOLD,
) -> ScaledResult:
    """Route to the formula matching the instance shape.

    Raises:
        UnsupportedShape: no published formula covers this shape.
    """
    if instance.rows == 1:
        return closed_form_1xn(instance)
    if instance.cols == 1:
        return closed_form_nx1(instance)
    if instance.rows == 2 and instance.cols == 2:
        data = quadratic_data(instance)
        if abs(data.det) <= singularity_threshold * data.alpha:
            return closed_form_2x2_singular(instance.marginals, instance.consistency_tol)
        return _nonsingular_2x2(instance, data)
    raise UnsupportedShape(
        f"no closed form for shape {instance.rows}x{instance.cols}; use the iterative solver"
    )
