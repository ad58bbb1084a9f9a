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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MatrixBalanceError,
    NonPositiveInput,
    ScaledResult,
    ScalingPair,
    ShapeMismatch,
    ValidatedInstance,
    apply_scaling,
    max_abs_residual,
)

GAUGE_KINDS = ("unit_row_factor", "unit_col_factor")


class NotConverged(MatrixBalanceError):
    """Iteration budget exhausted before meeting the convergence contract.

    The partial :class:`~matbalance.core.ScaledResult` is attached as ``result``.
    """

    def __init__(self, message: str, result: ScaledResult):
        super().__init__(message)
        self.result = result


class FactorsUnavailable(MatrixBalanceError):
    """The result carries no scaling factors, as the singular 2x2 closed form gives none."""


class NonPositiveLambda(MatrixBalanceError, ValueError):
    """Gauge parameter must be strictly positive and finite."""


@dataclass(frozen=True)
class IterationConfig:
    """Stopping rule for the fixed-point iteration.

    The iteration stops once the Frobenius norm of the difference between
    successive iterates is below ``tolerance`` and every row/column residual
    is within ``tolerance`` relative to its target, which is the contract
    callers actually care about.
    """

    tolerance: float = 1e-9
    max_iterations: int = 1000

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class GaugeFix:
    """Pin one scaling factor to 1: row factor ``index`` or column factor ``index``."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in GAUGE_KINDS:
            raise ValueError(f"gauge kind must be one of {GAUGE_KINDS}")
        if self.index < 0:
            raise ValueError("gauge index must be >= 0")

    def check_fits(self, rows: int, cols: int) -> None:
        """Raise ShapeMismatch unless the pinned factor exists in a ``rows x cols`` problem."""
        if self.kind == "unit_row_factor":
            if self.index >= rows:
                raise ShapeMismatch(f"row gauge index {self.index} for {rows} rows")
        elif self.index >= cols:
            raise ShapeMismatch(f"col gauge index {self.index} for {cols} cols")


# Row blocks of the Frobenius difference hold about 64k entries, so their
# temporaries stay cache-sized at any column count.
_FROBENIUS_BLOCK_ENTRIES = 1 << 16


def _successive_frobenius(
    entries: np.ndarray, r0: np.ndarray, c0: np.ndarray, r1: np.ndarray, c1: np.ndarray
) -> float:
    """``||S1 - S0||_F`` for ``Sk = rk_i * a_ij * ck_j``, one row block at a time.

    Neither full iterate is built.  Each entry is evaluated as
    ``(rk_i * a_ij) * ck_j``, the order of :func:`~matbalance.core.apply_scaling`,
    so it is finite whenever the iterate is: ``rk_i * ck_j`` alone can
    overflow or underflow where the iterate does not.  A sum of squares beyond
    the float range reads inf, which fails any tolerance; the caller's
    ``np.errstate`` keeps that overflow quiet.
    """
    step = max(1, _FROBENIUS_BLOCK_ENTRIES // entries.shape[1])
    squares = 0.0
    for lo in range(0, entries.shape[0], step):
        block = entries[lo:lo + step]
        diff = (r1[lo:lo + step, None] * block) * c1 - (r0[lo:lo + step, None] * block) * c0
        flat = diff.ravel()
        squares += float(flat @ flat)
    return math.sqrt(squares)


def sinkhorn_iterate(instance: ValidatedInstance, config: IterationConfig | None = None) -> ScaledResult:
    """Run row-then-column scaling sweeps until the marginals are met.

    Returns a converged :class:`~matbalance.core.ScaledResult` whose factors
    reproduce its matrix through :func:`~matbalance.core.apply_scaling`
    exactly.

    Raises:
        NotConverged: the iteration budget ran out first; the partial result
            rides on the exception.
        NonPositiveInput: a scaling factor came out zero, infinite or NaN;
            the sweep number is in the message.
    """
    if config is None:
        config = IterationConfig()
    entries = instance.matrix.entries
    row_targets = instance.marginals.row_targets
    col_targets = instance.marginals.col_targets
    row_gate = config.tolerance * np.maximum(1.0, row_targets)
    col_gate = config.tolerance * np.maximum(1.0, col_targets)

    r = np.ones(instance.rows)
    c = np.ones(instance.cols)
    a_c = entries @ c
    iterations = 0
    converged = False
    metric = np.inf

    # A factor out of range is caught by the check below and raised as a
    # typed error, so numpy's own warnings would only repeat it, untyped.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while iterations < config.max_iterations:
            iterations += 1
            previous = r, c
            r = row_targets / a_c
            at_r = entries.T @ r
            c = col_targets / at_r
            a_c = entries @ c
            # NaN fails every comparison, so this also catches NaN factors.
            if not (r.min() > 0 and c.min() > 0 and r.max() < np.inf and c.max() < np.inf):
                raise NonPositiveInput(
                    f"scaling factors left the positive float range at sweep {iterations}: "
                    "the matrix or target magnitudes exceed double precision"
                )

            row_res = r * a_c - row_targets
            col_res = c * at_r - col_targets
            residuals_ok = bool(
                np.all(np.abs(row_res) <= row_gate) and np.all(np.abs(col_res) <= col_gate)
            )
            if residuals_ok or iterations == config.max_iterations:
                # Both stop conditions must hold, so the O(nm) norm is only
                # worth computing once the O(n+m) residual test has passed.
                metric = _successive_frobenius(entries, *previous, r, c)
            if metric < config.tolerance and residuals_ok:
                converged = True
                break

    factors = ScalingPair(r, c)
    matrix = apply_scaling(instance.matrix, factors)
    result = ScaledResult(
        matrix=matrix,
        factors=factors,
        iterations=iterations,
        max_marginal_residual=max_abs_residual(matrix, instance.marginals),
        converged=converged,
        method="iterative",
    )
    if not converged:
        raise NotConverged(
            f"no convergence after {iterations} iterations "
            f"(metric {metric!r}, max marginal residual {result.max_marginal_residual!r})",
            result=result,
        )
    return result


def extract_factors(instance: ValidatedInstance, result: ScaledResult, gauge: GaugeFix) -> ScalingPair:
    """Gauge-normalize the tracked factors so the pinned factor equals 1.

    The pinned factor is made exactly 1.0 by dividing its own vector through
    by the pivot, so ``apply_scaling`` with the returned pair stays within a
    few ulps of the result matrix.
    """
    if result.factors is None:
        raise FactorsUnavailable(f"the {result.method} result carries no scaling factors")
    gauge.check_fits(instance.rows, instance.cols)
    r = result.factors.row_factors
    c = result.factors.col_factors
    if gauge.kind == "unit_row_factor":
        pivot = r[gauge.index]
        return ScalingPair(r / pivot, c * pivot)
    pivot = c[gauge.index]
    return ScalingPair(r * pivot, c / pivot)


def gauge_transform(factors: ScalingPair, lam: float) -> ScalingPair:
    """Map ``(r, c)`` to ``(lam * r, c / lam)``; the scaled matrix is unchanged."""
    if not (np.isfinite(lam) and lam > 0):
        raise NonPositiveLambda(f"lambda must be a positive finite real, got {lam!r}")
    return ScalingPair(lam * factors.row_factors, factors.col_factors / lam)
