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
then one min and one max and the residual test one pass, which matters
because numpy calls, not arithmetic, are what a sweep costs on small
matrices.  Two factor buffers take turns, as the stop test compares the new
iterate with the previous one.  Each entry is computed by the same
operations in the same order as with separate row and column arrays.

The stop test ``||S1 - S0||_F < tol`` is decided, where it can be, without
an elementwise pass over ``S``.  With ``alpha = (r1 - r0) / r1``,
``rho = r0 / r1`` and ``beta = (c1 - c0) / c1``, the difference is
``S1 * (alpha 1^T + rho beta^T)``, so its squared norm is
``sum_i alpha_i^2 q_i + 2 alpha_i rho_i u_i + rho_i^2 w_i`` with ``q``, ``u``
and ``w`` three matrix-vector products with ``B = A * A`` (the Gram route).
The route answers only when a rounding-error certificate shows that the
blocked elementwise metric, :func:`_successive_frobenius`, would give the
same answer.  Otherwise that metric decides, as it does on the last allowed
sweep, on matrices that fit in one block, and wherever a square leaves the
normal float range.  So the stop sweep is the same on either route.
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
    apply_scaling,
    max_abs_residual,
)


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


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# A nonzero alpha_i or beta_j is a difference of two positive normal floats
# divided by one of them: at least 2**-54 in magnitude, so its square is at
# least this.
_MIN_SQUARED_CHANGE = 2.0**-108


def _gram_rows(
    entries: np.ndarray, c0: np.ndarray, r1: np.ndarray, c1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``q``, ``u`` and ``w``: ``r1^2 * (B (c1^2 * beta^k))`` for ``k = 0, 1, 2``, and ``min(B)``.

    ``B = A * A`` is squared one row block at a time, so it is never held
    whole and each block is read three times from cache.
    """
    beta = (c1 - c0) / c1
    c1_squared = c1 * c1
    weights = (c1_squared, c1_squared * beta, c1_squared * beta * beta)
    products = [np.empty(entries.shape[0]) for _ in weights]
    step = max(1, _FROBENIUS_BLOCK_ENTRIES // entries.shape[1])
    squares_min = math.inf
    for lo in range(0, entries.shape[0], step):
        block = np.square(entries[lo:lo + step])
        squares_min = min(squares_min, float(block.min()))
        for product, weight in zip(products, weights):
            np.dot(block, weight, out=product[lo:lo + step])
    r1_squared = r1 * r1
    for product in products:
        product *= r1_squared
    return (*products, squares_min)


def _gram_stop_test(
    entries: np.ndarray,
    r0: np.ndarray,
    c0: np.ndarray,
    r1: np.ndarray,
    c1: np.ndarray,
    tolerance: float,
) -> bool | None:
    """Decide ``_successive_frobenius(A, r0, c0, r1, c1) < tolerance`` from ``B = A * A``.

    Returns None when rounding leaves the answer open.  ``est``, the
    squared norm evaluated from three matrix-vector products with ``B``, is
    a sum of row terms that are nonnegative in exact arithmetic.  Row ``i``
    carries an absolute error of at most ``(cols + 16) * eps / 2`` times
    ``E_i = (|alpha_i| sqrt(q_i) + rho_i sqrt(w_i))^2``, which bounds the
    row's absolute terms by Cauchy-Schwarz, and the sums over rows add
    ``(rows + 2) * eps / 2`` times ``E_i``.  ``spread`` bounds the sum of the
    ``E_i``, again by Cauchy-Schwarz.  The blocked metric differs from the
    exact norm by at most ``2 eps ||S1||_F`` from its entry products, a
    relative ``(rows * cols / 4 + 3) * eps`` from its dot and subtractions,
    and an absolute ``sqrt(rows * cols) * 2**-537.5`` where its squares
    underflow.  Each bound below is padded by a factor of two or more.

    The analysis needs every product formed here and in the blocked metric
    to stay a normal float.  Each such product is at least the product of
    the lower bounds below, each capped at 1, so that one number is tested.
    """
    rows, cols = entries.shape
    spread_rate = 2.0 * (rows + cols + 18) * _EPS
    q, u, w, squares_min = _gram_rows(entries, c0, r1, c1)
    rho = r0 / r1
    roots = (min(r0.min(), r1.min()), min(c0.min(), c1.min()), rho.min())
    lower_bounds = (squares_min, _MIN_SQUARED_CHANGE, spread_rate) + tuple(
        min(1.0, float(root)) ** 2 for root in roots
    )
    if math.prod(min(1.0, bound) for bound in lower_bounds) < _TINY:
        return None
    alpha = (r1 - r0) / r1
    alpha_part = float(np.dot(alpha * alpha, q))
    rho_part = float(np.dot(rho * rho, w))
    est = alpha_part + 2.0 * float(np.dot(alpha * rho, u)) + rho_part
    spread = (math.sqrt(alpha_part) + math.sqrt(rho_part)) ** 2
    norm_s1_squared = float(q.sum())
    # inf or NaN here means a square or a product overflowed.
    if not (math.isfinite(est) and math.isfinite(spread) and math.isfinite(norm_s1_squared)):
        return None
    dot_rate = (rows * cols / 2 + 6) * _EPS
    slack = 4.0 * _EPS * math.sqrt(norm_s1_squared) + math.sqrt(rows * cols) * 2.0**-536
    if math.sqrt(max(est + spread_rate * spread, 0.0)) * (1.0 + dot_rate) + slack < tolerance:
        return True
    if math.sqrt(max(est - spread_rate * spread, 0.0)) * (1.0 - dot_rate) - slack > tolerance:
        return False
    return None


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
    entries, rows = instance.matrix.entries, instance.rows
    row_targets = instance.marginals.row_targets
    col_targets = instance.marginals.col_targets
    targets = np.concatenate((row_targets, col_targets))
    gate = config.tolerance * np.maximum(1.0, targets)
    # On one block the blocked metric is a single dot product, as cheap as
    # the Gram route.
    gram_route = entries.size > _FROBENIUS_BLOCK_ENTRIES

    # Two factor buffers (r, c) and the sums (A c, A^T r), each with its halves.
    buffers = [(stack, stack[:rows], stack[rows:]) for stack in np.ones((3, targets.size))]
    current, previous, (sums, a_c, at_r) = buffers
    residual = np.empty(targets.size)
    entries_t = entries.T
    np.dot(entries, current[2], out=a_c)
    iterations = 0
    converged = False
    metric = np.inf

    # A factor out of range is caught by the check below and raised as a
    # typed error, so numpy's own warnings would only repeat it, untyped.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while iterations < config.max_iterations:
            iterations += 1
            current, previous = previous, current
            stacked, r, c = current
            np.divide(row_targets, a_c, out=r)
            np.dot(entries_t, r, out=at_r)
            np.divide(col_targets, at_r, out=c)
            np.dot(entries, c, out=a_c)
            # NaN fails every comparison, so this also catches NaN factors.
            if not (np.minimum.reduce(stacked) > 0 and np.maximum.reduce(stacked) < np.inf):
                raise NonPositiveInput(
                    f"scaling factors left the positive float range at sweep {iterations}: "
                    "the matrix or target magnitudes exceed double precision"
                )

            # |(r, c) * (A c, A^T r) - (R, C)| <= gate, both halves at once.
            np.multiply(stacked, sums, out=residual)
            residual -= targets
            np.abs(residual, out=residual)
            residuals_ok = bool((residual <= gate).all())
            if not residuals_ok and iterations < config.max_iterations:
                # Both stop conditions must hold, so the O(nm) norm is only
                # worth computing once the O(n+m) residual test has passed.
                continue
            passed = None
            if gram_route and iterations < config.max_iterations:
                passed = _gram_stop_test(entries, *previous[1:], r, c, config.tolerance)
            if passed is None:
                # The last sweep always lands here, so NotConverged reports a metric.
                metric = _successive_frobenius(entries, *previous[1:], r, c)
                passed = metric < config.tolerance
            if passed and residuals_ok:
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
