"""Alternating row/column proportional fitting toward prescribed marginals.

Each sweep rescales every row to its target sum and then every column to
its target sum.  The state is the pair of scaling vectors ``(r, c)`` of the
iterate ``S = diag(r) A diag(c)``, and a sweep is two matrix-vector
products: ``r = R / (A c)``, then ``c = C / (A^T r)``.  Row and column sums
of the iterate are read off those products, so no sweep builds ``S``; it is
built once, from the final factors, by :func:`~matbalance.core.apply_scaling`,
which makes a result bitwise-reproducible from its reported factors.  Row
and column sums are strictly positive by construction, so the updates
divide safely without an epsilon guard.

A sweep writes in place into buffers allocated once per solve, each of
``rows + cols`` entries, rows then columns: the factors ``(r, c)``, the
sums ``(A c, A^T r)`` and the residual.  The range check of the factors is
then one min, and the residual test one max of the residual less its
gate, which matters because numpy calls, not arithmetic, are what a sweep
costs on small matrices; the largest factor is read only when that max is
not finite.  Each entry is computed by the same operations in the same order
as with separate row and column arrays.

The limit is defined by its marginals, so they are the whole stop test:
the iteration stops at the first sweep whose row and column sums are each
within ``tolerance`` times their own target.  The test is scale-free, as
the iteration is: multiplying every target by a power of two multiplies
``S`` and the row factors by it and leaves the stop sweep unchanged.

Each value is range-checked once, where it is made: the caller's data by
:func:`~matbalance.core.validate_instance`, the factors by each sweep, ``S``
once after the last (an entry can leave the float range while every factor
is in it), factors moved back by a power of two once more, and re-gauged
factors by :func:`extract_factors`.  Results skip the constructors' rescan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GaugeFix,
    MatrixBalanceError,
    NonPositiveInput,
    ScaledResult,
    ScalingPair,
    ValidatedInstance,
    _largest_abs,
    _residuals,
    _sealed,
    apply_scaling,
)
from .errors import NotConverged, check_integer


class FactorsUnavailable(MatrixBalanceError):
    """The result carries no scaling factors: a closed form whose factors leave the float range."""


class NonPositiveLambda(MatrixBalanceError, ValueError):
    """Gauge parameter must be strictly positive and finite."""


class UnrepresentableLimit(MatrixBalanceError):
    """The factors are in range, but an entry of ``D1 A D2`` is not a positive finite float."""


@dataclass(frozen=True)
class IterationConfig:
    """Stopping rule for the fixed-point iteration.

    The iteration stops once every row and column residual is within
    ``tolerance`` times its own target, ``|r_i (A c)_i - R_i| <= tolerance * R_i``
    and the same for columns, at every scale of the targets.  Rounding
    leaves a residual of about ``(rows + cols) * eps`` of its target, so a
    smaller ``tolerance``, or targets in the subnormal range, where the
    gate itself loses precision, end in NotConverged: after
    ``max_iterations`` sweeps, or earlier, once the column factors repeat
    bit for bit, which proves that no later sweep converges.
    ``max_iterations`` is stored as a plain int; a numpy integer is
    accepted, while a bool or a float is refused with TypeError.
    """

    tolerance: float = 1e-9
    max_iterations: int = 1000

    def __post_init__(self):
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance!r}")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        max_iterations = check_integer(self.max_iterations, "max_iterations")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        object.__setattr__(self, "max_iterations", max_iterations)


def sinkhorn_iterate(instance: ValidatedInstance, config: IterationConfig | None = None) -> ScaledResult:
    """Run row-then-column scaling sweeps until the marginals are met.

    Returns a converged :class:`~matbalance.core.ScaledResult` whose factors
    reproduce its matrix through :func:`~matbalance.core.apply_scaling`
    exactly.

    Raises:
        NotConverged: the iteration budget ran out first, or the column
            factors repeated; the partial result rides on the exception.
        NonPositiveInput: a scaling factor came out zero, infinite or NaN;
            the sweep number is in the message.
        UnrepresentableLimit: an entry of the scaled matrix is not a positive
            finite float, though every factor is.
    """
    if config is None:
        config = IterationConfig()
    entries, rows = instance.matrix.entries, instance.rows
    row_targets = instance.marginals.row_targets
    col_targets = instance.marginals.col_targets
    targets = np.concatenate((row_targets, col_targets))
    gate = config.tolerance * targets

    # The factors (r, c) and the sums (A c, A^T r), each with its halves.
    stacked, sums = np.ones((2, targets.size))
    r, c = stacked[:rows], stacked[rows:]
    a_c, at_r = sums[:rows], sums[rows:]
    residual = np.empty(targets.size)
    converged = False
    previous_worst, held = None, None

    # A factor out of range is caught by the check below and raised as a
    # typed error, so numpy's own warnings would only repeat it, untyped.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.dot(entries, c, out=a_c)
        # Row sums below the normal range, or past the float range, would
        # push a row factor out of range at sweep 1.  The sweeps then run on
        # A times the power of two 2**shift that brings its largest entry
        # near 1, and the factors take 2**shift back at the end.  Only a move
        # up helps small sums, and only a move down large ones; any other
        # move would round subnormal entries for nothing.
        shift = 0
        low = not np.minimum.reduce(a_c) >= 2.0**-1022
        if low or not np.maximum.reduce(a_c) < np.inf:
            move = -int(np.frexp(np.max(entries))[1])
            if (move > 0) == low:
                shift = move
                entries = np.ldexp(entries, shift)
                np.dot(entries, c, out=a_c)
        entries_t = entries.T
        for iterations in range(1, config.max_iterations + 1):
            np.divide(row_targets, a_c, out=r)
            np.dot(entries_t, r, out=at_r)
            np.divide(col_targets, at_r, out=c)
            np.dot(entries, c, out=a_c)

            # |(r, c) * (A c, A^T r) - (R, C)| - gate <= 0, both halves at once.
            np.multiply(stacked, sums, out=residual)
            residual -= targets
            np.abs(residual, out=residual)
            residual -= gate
            worst = np.maximum.reduce(residual)
            # NaN fails every comparison, so this also catches NaN factors.
            # An infinite factor makes its residual inf or NaN, so the
            # largest factor is read only when the worst residual is not finite.
            if not (np.minimum.reduce(stacked) > 0 and (worst < np.inf or np.maximum.reduce(stacked) < np.inf)):
                raise NonPositiveInput(
                    f"scaling factors left the positive float range at sweep {iterations}: "
                    "the matrix or target magnitudes exceed double precision"
                )
            if worst <= 0:
                converged = True
                break
            # A sweep is a function of c alone, so once c repeats, the sweeps
            # since cycle and none will converge.  An equal worst residual is
            # the cheap sign that c may have repeated.
            if worst == previous_worst:
                if held is not None and np.array_equal(c, held):
                    break
                held = c.copy()
            previous_worst = worst

    if shift:
        # Give the largest row and column factors one exponent; the public
        # constructor checks that the move kept them in range.
        row_shift = (shift + int(np.frexp(np.max(c))[1]) - int(np.frexp(np.max(r))[1])) // 2
        factors = ScalingPair(np.ldexp(r, row_shift), np.ldexp(c, shift - row_shift))
    else:
        # Copies: r and c are views of the loop's writable buffers.
        factors = _sealed(ScalingPair, row_factors=r.copy(), col_factors=c.copy())
    matrix = apply_scaling(instance.matrix, factors)
    if not (np.minimum.reduce(matrix, axis=None) > 0 and np.maximum.reduce(matrix, axis=None) < np.inf):
        raise UnrepresentableLimit(
            f"the scaled matrix of sweep {iterations} has an entry outside the positive float range "
            "(4.9e-324 to 1.8e308), though every scaling factor is in it"
        )
    result = _sealed(
        ScaledResult,
        matrix=matrix,
        factors=factors,
        iterations=iterations,
        max_marginal_residual=_largest_abs(*_residuals(matrix, instance.marginals)),
        converged=converged,
        method="iterative",
    )
    if not converged:
        raise NotConverged(
            f"no convergence after {iterations} iterations "
            f"(max marginal residual {result.max_marginal_residual!r})",
            result=result,
        )
    return result


def extract_factors(instance: ValidatedInstance, result: ScaledResult, gauge: GaugeFix) -> ScalingPair:
    """Gauge-normalize the tracked factors so the pinned factor equals 1.

    The pinned factor is made exactly 1.0 by dividing its own vector through
    by the pivot, so ``apply_scaling`` with the returned pair stays within a
    few ulps of the result matrix.

    Raises:
        NonPositiveInput: pinning that factor puts another outside the
            positive float range.
    """
    if result.factors is None:
        raise FactorsUnavailable(f"the {result.method} result carries no scaling factors")
    gauge.check_fits(instance.rows, instance.cols)
    r, c = result.factors.row_factors, result.factors.col_factors
    side = "row" if gauge.kind == "unit_row_factor" else "column"
    divided, multiplied = (r, c) if side == "row" else (c, r)
    pivot = float(divided[gauge.index])
    # Dividing positive finite floats by a pivot >= 1 can only underflow and
    # multiplying them only overflow, the reverse for a pivot < 1.  Rounding
    # is monotone, so one extreme of each vector, moved on Python floats,
    # decides its range exactly, and numpy never overflows.
    if pivot >= 1.0:
        low, high = float(np.minimum.reduce(divided)) / pivot, float(np.maximum.reduce(multiplied)) * pivot
    else:
        low, high = float(np.minimum.reduce(multiplied)) * pivot, float(np.maximum.reduce(divided)) / pivot
    if not (low > 0 and high < math.inf):
        raise NonPositiveInput(
            f"pinning {side} factor {gauge.index + 1} to 1 puts the factors outside the positive float range"
        )
    moved = (divided / pivot, multiplied * pivot)
    r, c = moved if side == "row" else moved[::-1]
    return _sealed(ScalingPair, row_factors=r, col_factors=c)


def gauge_transform(factors: ScalingPair, lam: float) -> ScalingPair:
    """Map ``(r, c)`` to ``(lam * r, c / lam)``; the scaled matrix is unchanged."""
    if not (np.isfinite(lam) and lam > 0):
        raise NonPositiveLambda(f"lambda must be a positive finite real, got {lam!r}")
    return ScalingPair(lam * factors.row_factors, factors.col_factors / lam)
