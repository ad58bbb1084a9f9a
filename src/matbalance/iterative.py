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
is in it), and moved factors by :func:`extract_factors` and
:func:`gauge_transform`; :func:`extract_factors` passes a pair already in
the requested gauge through unmoved, and reads the factors of a result
that carries none off ``S`` and ``A``.  Results skip the constructors' rescan.  The targets come
from :class:`~matbalance.core.Marginals` as they are stored there, one
read-only array of rows then columns, so a sweep's gate, residual and stop
test read them without a copy.
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
    _read_off,
    _residuals,
    _sealed,
    apply_scaling,
)
from .errors import NotConverged, check_integer


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
    exactly.  The sweeps start from ``c = 1``, or from ``c = 2**k`` when a
    row sum of ``A 1`` leaves the normal range or, as sweep 2, when sweep 1
    from ``c = 1`` puts a factor outside the float range.

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
    marginals = instance.marginals
    row_targets, col_targets, targets = marginals.row_targets, marginals.col_targets, marginals._targets
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
        # The sweep from c = 2**k: 1 if row sums out of the normal range would lose digits or overflow.
        start = 0 if np.minimum.reduce(a_c) >= 2.0**-1022 and np.maximum.reduce(a_c) < np.inf else 1
        k = _start_exponent(entries, row_targets, col_targets) if start else 0
        entries_t = entries.T
        for iterations in range(1, config.max_iterations + 1):
            if iterations == start:
                c.fill(np.ldexp(1.0, k))
                np.dot(entries, c, out=a_c)
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
                # Only sweep 1 from c = 1 moves to c = 2**k, only if the budget has a sweep 2, and only
                # if k is not 0: from c = 2**0 = 1, sweep 2 would repeat sweep 1 bit for bit.
                final = start or iterations > 1 or iterations == config.max_iterations
                if final or not (k := _start_exponent(entries, row_targets, col_targets)):
                    raise NonPositiveInput(
                        f"scaling factors left the positive float range at sweep {iterations}: "
                        "the matrix or target magnitudes exceed double precision"
                    )
                start = 2
                continue
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


def _start_exponent(entries: np.ndarray, row_targets: np.ndarray, col_targets: np.ndarray) -> int:
    """The ``k`` of the start ``c = 2**k`` that keeps a sweep's values normal where any ``k`` does.

    S(D1 A D2) = S(A): the start cannot change the limit.  For row maxima 2**e and targets 2**t, the
    start 2**k, row sums 2**(e + k), row factors 2**(t - e - k) and products a_ij r_i up to 2**(t - k)
    are normal for k within ~1021 of 0, -e, t - e and t.  Column j's largest product is then about
    2**(g_j - k), g_j = max_i(exponent(a_ij) + t_i - e_i), so for column targets 2**u its factor
    2**(u_j - g_j + k) is normal for k within ~1021 of g_j - u_j: take the midpoint of them all.
    """
    a = np.frexp(entries)[1]  # exponent(a_ij), monotone in a_ij, so its row maxima are e
    e, t = np.maximum.reduce(a, axis=1), np.frexp(row_targets)[1]
    g = np.max(a + (t - e)[:, None], axis=0)
    exponents = np.concatenate(([0], -e, t - e, t, g - np.frexp(col_targets)[1]))
    return (int(np.max(exponents)) + int(np.min(exponents))) // 2


def extract_factors(instance: ValidatedInstance, result: ScaledResult, gauge: GaugeFix) -> ScalingPair:
    """The result's factors in the gauge that pins one factor to exactly 1.

    Tracked factors are moved: the pinned factor's vector is divided by it and
    the other multiplied, so ``apply_scaling`` with the pair stays within a few
    ulps of ``S``; a pair already pinned, as every closed form's is under
    :func:`~matbalance.core.default_gauge`, is returned as it is.  A result
    without factors has them read off ``S = D1 A D2``: with column ``p`` pinned
    and ``q`` the last row, ``r_i = s_ip / a_ip`` and ``c_j = (s_qj / s_qp)
    (a_qp / a_qj)`` on exact exponents, the closed forms' own read-off; a row
    on the transpose.

    Raises:
        NonPositiveInput: pinning that factor puts another outside the
            positive float range.
    """
    gauge.check_fits(instance.rows, instance.cols)
    side, p = "row" if gauge.kind == "unit_row_factor" else "column", gauge.index
    if result.factors is None:
        s, a = (m.T if side == "row" else m for m in (result.matrix, instance.matrix.entries))
        moved = [np.array(v) for v in _read_off(s, a, p)[::-1]]
        if not all(np.minimum.reduce(v) > 0 and np.maximum.reduce(v) < np.inf for v in moved):
            raise NonPositiveInput(
                f"pinning {side} factor {p + 1} to 1 puts the factors outside the positive float range"
            )
    else:
        r, c = result.factors.row_factors, result.factors.col_factors
        divided, multiplied = (r, c) if side == "row" else (c, r)
        pivot = float(divided[p])
        if pivot == 1.0:
            return result.factors
        moved = _moved(divided, multiplied, pivot, f"pinning {side} factor {p + 1} to 1")
    r, c = moved if side == "row" else moved[::-1]
    return _sealed(ScalingPair, row_factors=r, col_factors=c)


def gauge_transform(factors: ScalingPair, lam: float) -> ScalingPair:
    """Map ``(r, c)`` to ``(lam * r, c / lam)``, the same scaled matrix; NonPositiveInput past the float range."""
    if not (np.isfinite(lam) and lam > 0):
        raise NonPositiveLambda(f"lambda must be a positive finite real, got {lam!r}")
    c, r = _moved(factors.col_factors, factors.row_factors, float(lam), f"lam {lam!r}")
    return _sealed(ScalingPair, row_factors=r, col_factors=c)


def _moved(divided: np.ndarray, multiplied: np.ndarray, pivot: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``(divided / pivot, multiplied * pivot)``, or NonPositiveInput saying that ``what`` leaves the float range."""
    # Dividing positive finite floats by a pivot >= 1 can only underflow and
    # multiplying them only overflow, the reverse for a pivot < 1.  Rounding
    # is monotone, so one extreme of each vector, moved on Python floats,
    # decides its range exactly, and numpy never overflows.
    if pivot >= 1.0:
        low, high = float(np.minimum.reduce(divided)) / pivot, float(np.maximum.reduce(multiplied)) * pivot
    else:
        low, high = float(np.minimum.reduce(multiplied)) * pivot, float(np.maximum.reduce(divided)) / pivot
    if not (low > 0 and high < math.inf):
        raise NonPositiveInput(f"{what} puts the factors outside the positive float range")
    return divided / pivot, multiplied * pivot
