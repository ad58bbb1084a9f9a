"""Exact balancing formulas for the shapes that admit them.

Covered shapes: single-row matrices (the limit is just the column targets),
single-column matrices (by transposition), and 2x2 matrices.  Since
``S(D1 A D2) = S(A)``, a 2x2 matrix enters its limit only through the
cross-ratio ``kappa = (a11/a12)(a22/a21)``, taken on exact exponents, and each
limit entry is the positive root of its own quadratic in ``kappa`` and the
targets, evaluated where nothing overflows or cancels.  The singular limit
``R_i C_j / sum(R)`` is the case ``kappa = 1``, an ordinary input.  Each formula
returns the limit alone, without factors: :func:`~matbalance.iterative.extract_factors`
reads them off the limit and the matrix in the gauge asked for.  :func:`quadratic_data`,
:func:`r2_roots` and :func:`solve_r2` keep the paper's quadratic for the
second row factor, which the acceptance gate checks; the dispatch path does not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_CONSISTENCY_TOL,
    Marginals,
    MatrixBalanceError,
    ScaledResult,
    ValidatedInstance,
    _largest_abs,
    _residuals,
    _sealed,
)

_MIN_NORMAL = sys.float_info.min
# Terms that each underflow by a subnormal spacing leave a sum above this exact to rounding.
_MIN_PRECISE_SUM = _MIN_NORMAL / sys.float_info.epsilon


class WrongShape(MatrixBalanceError, ValueError):
    """The instance shape does not match the requested formula."""


class UnsupportedShape(MatrixBalanceError, ValueError):
    """No closed form exists for this shape; use the iterative solver."""


class NearSingular(MatrixBalanceError):
    """The paper's quadratic for the second row factor degenerates: ``2 a22 det`` is 0."""


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


def _result(matrix: np.ndarray, residual: float, method: str) -> ScaledResult:
    """A converged closed-form result of checked entries; its factors are read off on request."""
    return _sealed(
        ScaledResult, matrix=matrix, factors=None, iterations=0, max_marginal_residual=residual, converged=True,
        method=method,
    )


def quadratic_data(instance: ValidatedInstance) -> QuadraticData:
    """Products, determinant, and discriminant of the paper's quadratic for r2.

    It serves the acceptance gate, through :func:`r2_roots` and
    :func:`solve_r2`; the limit itself is evaluated from the cross-ratio.
    """
    _require_shape(instance, 2, 2, "quadratic_data")
    a = instance.matrix.entries
    alpha = float(a[0, 0] * a[1, 1])
    beta = float(a[0, 1] * a[1, 0])
    det = alpha - beta
    r2t = float(instance.marginals.row_targets[1])
    c1t, c2t = (float(v) for v in instance.marginals.col_targets)
    # Cancellation-free expansion: every term is nonnegative for consistent
    # positive data (c1t + c2t - r2t is the first row target).  Products,
    # not **: a float square past the range raises OverflowError.
    left, right = c2t - r2t, c1t - r2t
    delta = alpha * alpha * (left * left) + 2.0 * alpha * beta * (c1t * c2t + r2t * (c1t + c2t - r2t))
    delta += beta * beta * (right * right)
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
    matrix = instance.marginals.col_targets[None, :].copy()
    residual = _largest_abs(*_residuals(matrix, instance.marginals))
    return _result(matrix, residual, "closed_form_1xn")


def closed_form_nx1(instance: ValidatedInstance) -> ScaledResult:
    """Single-column limit: the column of row targets, the transposed single-row formula."""
    _require_shape(instance, None, 1, "closed_form_nx1")
    matrix = instance.marginals.row_targets[:, None].copy()
    residual = _largest_abs(*_residuals(matrix, instance.marginals))
    return _result(matrix, residual, "transposed_delegate")


def _ratio_product(numerators, denominators, exponent: int = 0) -> float:
    """``2**exponent * prod(numerators) / prod(denominators)``: exponents add exactly, mantissas round."""
    top = bottom = 1.0
    for x in numerators:
        mantissa, power = math.frexp(x)
        top, exponent = top * mantissa, exponent + power
    for x in denominators:
        mantissa, power = math.frexp(x)
        bottom, exponent = bottom * mantissa, exponent - power
    try:
        return math.ldexp(top / bottom, exponent)
    except OverflowError:
        return math.inf


def _positive_root(e: float, b: float, c: float, root: float) -> float:
    """The positive root of ``e y^2 + b y - c`` (``root`` is the discriminant's); 0 if ``c`` underflowed."""
    if b < 0:
        return (root - b) / (2.0 * e)
    return 2.0 * c / (b + root) if c >= _MIN_NORMAL else 0.0


def _entries_2x2(kappa: float, r1: float, r2: float, c1: float, c2: float) -> list[float]:
    """The 2x2 limit entries ``[s11, s12, s21, s22]`` for a cross-ratio ``kappa`` of full precision.

    Symmetries bring the frame to ``kappa <= 1`` with ``R2`` the largest target, moved by a power
    of two to [2^500, 2^501) and taken as ``C1 + C2 - R1``: totals that differ within tolerance leave
    their defect on the largest target alone.  Each term of the one discriminant is then nonnegative,
    each entry the root of its own quadratic in the form that adds two nonnegative numbers, and an
    entry below the frame's normal range is rebuilt in the targets' units from the other three.
    """
    if kappa > 1.0:  # swapping the columns turns kappa into 1 / kappa
        s11, s12, s21, s22 = _entries_2x2(1.0 / kappa, r1, r2, c2, c1)
        return [s12, s11, s22, s21]
    if max(c1, c2) > max(r1, r2):  # transposing keeps kappa
        s11, s12, s21, s22 = _entries_2x2(kappa, c1, c2, r1, r2)
        return [s11, s21, s12, s22]
    if r1 > r2:  # so does reversing both rows and columns
        return _entries_2x2(kappa, r2, r1, c2, c1)[::-1]
    k, shift = kappa, math.frexp(r2)[1] - 501
    r1, c1, c2 = (math.ldexp(t, -shift) for t in (r1, c1, c2))
    r2 = c1 + c2 - r1
    delta = (r1 - c2) * (r1 - c2) + 2.0 * k * (c1 * c2 + r1 * r2) + (k * (r1 - c1)) * (k * (r1 - c1))
    if min(r1, r2, c1, c2) < _MIN_NORMAL or delta < _MIN_PRECISE_SUM:
        raise NonPositiveRoot("targets too far apart for the 2x2 closed form", math.nan, math.nan)
    root = math.sqrt(delta)
    frame = [
        _positive_root(1.0 - k, (c2 - r1) + k * (r1 + c1), k * (r1 * c1), root),
        _positive_root(k - 1.0, (r1 + c2) + k * (c1 - r1), r1 * c2, root),
        _positive_root(k - 1.0, (c1 + r2) + k * (r1 - c1), c1 * r2, root),
        _positive_root(1.0 - k, (r1 - c2) + k * (r2 + c2), k * (r2 * c2), root),
    ]
    try:
        entries = [math.ldexp(f, shift) for f in frame]
    except OverflowError:
        raise NonPositiveRoot(f"an entry of {frame!r} passes the largest float", math.nan, math.nan) from None
    lost = [n for n, f in enumerate(frame) if f < _MIN_NORMAL]
    if len(lost) == 1:  # s11 s22 = k s12 s21 rebuilds the one entry the frame lost
        n = lost[0]
        diagonal, anti = (frame[0], frame[3]), (k, frame[1], frame[2])
        tops, bottoms = (anti, (frame[3 - n],)) if n in (0, 3) else (diagonal, (k, frame[3 - n]))
        entries[n] = _ratio_product(tops, bottoms, shift)
    if len(lost) > 1 or not all(0.0 < s < math.inf for s in entries):
        raise NonPositiveRoot(f"formula lost the entries {entries!r} to the float range", math.nan, math.nan)
    return entries


def _limit_2x2(kappa: float, marginals: Marginals) -> tuple[list[float], float]:
    """The 2x2 limit entries and their largest marginal residual, by the IEEE operations of ``max_abs_residual``."""
    r1, r2, c1, c2 = *marginals.row_targets.tolist(), *marginals.col_targets.tolist()
    s11, s12, s21, s22 = entries = _entries_2x2(kappa, r1, r2, c1, c2)
    return entries, max(abs((s11 + s12) - r1), abs((s21 + s22) - r2), abs((s11 + s21) - c1), abs((s12 + s22) - c2))


def closed_form_2x2(instance: ValidatedInstance) -> ScaledResult:
    """2x2 limit from the cross-ratio, singular or not.

    Raises :class:`NonPositiveRoot`, not a wrong answer, where the cross-ratio or an entry
    leaves the float range.
    """
    _require_shape(instance, 2, 2, "closed_form_2x2")
    (a11, a12), (a21, a22) = instance.matrix.entries.tolist()
    kappa = _ratio_product((a11, a22), (a12, a21))
    if not _MIN_NORMAL <= kappa <= 1.0 / _MIN_NORMAL:
        raise NonPositiveRoot(f"cross-ratio {kappa!r} is outside the normal float range", math.nan, math.nan)
    entries, residual = _limit_2x2(kappa, instance.marginals)
    return _result(np.array(entries).reshape(2, 2), residual, "closed_form_2x2")


def closed_form_2x2_singular(marginals: Marginals) -> ScaledResult:
    """Singular 2x2 limit ``s_ij = R_i C_j / total``: the maximum entropy solution, ``kappa = 1``.

    A singular matrix carries only proportions, so the targets alone shape the limit.  They must
    agree within ``DEFAULT_CONSISTENCY_TOL``; :class:`NonPositiveRoot` if the entries leave the float range.
    """
    if marginals.row_targets.size != 2 or marginals.col_targets.size != 2:
        raise WrongShape("singular closed form requires 2 row and 2 col targets")
    marginals.check_consistent(DEFAULT_CONSISTENCY_TOL)
    entries, residual = _limit_2x2(1.0, marginals)
    return _result(np.array(entries).reshape(2, 2), residual, "closed_form_2x2_singular")


def closed_form_dispatch(instance: ValidatedInstance) -> ScaledResult:
    """Route to the formula matching the instance shape; its targets are validated already.

    Raises:
        UnsupportedShape: no published formula covers this shape.
    """
    rows, cols = instance.matrix.entries.shape
    if rows == 1:
        return closed_form_1xn(instance)
    if cols == 1:
        return closed_form_nx1(instance)
    if rows == cols == 2:
        return closed_form_2x2(instance)
    raise UnsupportedShape(f"no closed form for shape {rows}x{cols}; use the iterative solver")
