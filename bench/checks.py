"""Output checks that do not use matbalance.

Every check recomputes what it needs from the inputs with plain numpy or
exact ``Fraction`` arithmetic and raises :class:`CheckFailed` when the
program's output is wrong.  Nothing here imports the package under test,
so a fault in the program cannot hide a fault in its check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Degree of the univariate elimination polynomial for the shapes in the
# paper's table; other shapes are only bounded by binom(n + m - 2, n - 1).
PAPER_DEGREES = {(1, 3): 1, (2, 2): 2, (2, 3): 3, (2, 4): 4}
# Allowed marginal defect per entry, relative to max(1, target): ten times
# the solvers' own default stopping tolerance.
MARGINAL_TOL = 1e-8
CROSS_RATIO_TOL = 1e-9
# Largest relative gap between r_i a_ij c_j and the returned entry.
FACTOR_TOL = 1e-10
# Half-width of the bracket around a float root, relative to the root.
ROOT_REL_WIDTH = 1e-7
REFERENCE_SWEEPS = 10_000


class CheckFailed(AssertionError):
    """The program's output disagrees with an independent recomputation."""


def check_marginals(matrix, row_targets, col_targets) -> None:
    """Row and column sums, recomputed with numpy, meet the targets."""
    s = np.asarray(matrix, dtype=float)
    r = np.asarray(row_targets, dtype=float)
    c = np.asarray(col_targets, dtype=float)
    if s.shape != (r.size, c.size):
        raise CheckFailed(f"result shape {s.shape} for targets ({r.size}, {c.size})")
    if not (np.all(np.isfinite(s)) and np.all(s > 0)):
        raise CheckFailed("result has nonpositive or nonfinite entries")
    row_gap = np.abs(s.sum(axis=1) - r) / np.maximum(1.0, r)
    col_gap = np.abs(s.sum(axis=0) - c) / np.maximum(1.0, c)
    worst = max(float(row_gap.max()), float(col_gap.max()))
    if not worst <= MARGINAL_TOL:
        raise CheckFailed(f"marginal defect {worst:.3g} exceeds {MARGINAL_TOL:g}")


def _row_blocks(rows: int):
    """Row slices of at most 128 rows, so checks of large results need little memory."""
    return (slice(start, start + 128) for start in range(0, rows, 128))


def check_cross_ratios(matrix, entries) -> None:
    """The result has the form ``D1 A D2``: every cross-ratio of A is kept.

    ``D1 A D2`` leaves ``(s_ij s_kl) / (s_il s_kj)`` equal to the same
    ratio of ``A``.  The ratios are taken within a row first, so entries
    near the bottom of the float range never meet in a product.
    """
    s = np.asarray(matrix, dtype=float)
    a = np.asarray(entries, dtype=float)
    if s.shape != a.shape:
        raise CheckFailed(f"result shape {s.shape} for a matrix of shape {a.shape}")
    # Row i of x holds c_j / c_0 when s = D1 a D2; every row must match row 0.
    first = (s[0] / s[0, 0]) / (a[0] / a[0, 0])
    worst = 0.0
    for rows in _row_blocks(s.shape[0]):
        x = (s[rows] / s[rows, :1]) / (a[rows] / a[rows, :1])
        worst = max(worst, float(np.max(np.abs(x / first - 1.0))))
    if not worst <= CROSS_RATIO_TOL:
        raise CheckFailed(f"cross-ratio defect {worst:.3g} exceeds {CROSS_RATIO_TOL:g}: not of the form D1*A*D2")


def check_factors(matrix, entries, row_factors, col_factors, pinned: tuple[str, int]) -> None:
    """The pinned factor is exactly 1 and ``r_i a_ij c_j`` rebuilds the result."""
    r = np.asarray(row_factors, dtype=float)
    c = np.asarray(col_factors, dtype=float)
    kind, index = pinned
    value = r[index] if kind == "row" else c[index]
    if value != 1.0:
        raise CheckFailed(f"pinned {kind} factor {index} is {value!r}, not 1")
    s = np.asarray(matrix, dtype=float)
    a = np.asarray(entries, dtype=float)
    worst = 0.0
    for rows in _row_blocks(s.shape[0]):
        rebuilt = (r[rows, None] * a[rows]) * c[None, :]
        worst = max(worst, float(np.max(np.abs(rebuilt - s[rows]) / np.abs(s[rows]))))
    if not worst <= FACTOR_TOL:
        raise CheckFailed(f"factors rebuild the result only to {worst:.3g}")


def unit_target_2x2(entries) -> np.ndarray:
    """The classic unit-target 2x2 limit, weights ``sqrt(ad) : sqrt(bc)``."""
    (a, b), (c, d) = np.asarray(entries, dtype=float)
    p, q = math.sqrt(a * d), math.sqrt(b * c)
    return np.array([[p, q], [q, p]]) / (p + q)


def singular_2x2(row_targets, col_targets) -> np.ndarray:
    """The singular 2x2 limit ``R_i C_j / sum(R)``."""
    r = np.asarray(row_targets, dtype=float)
    c = np.asarray(col_targets, dtype=float)
    return np.outer(r, c) / r.sum()


def check_close(matrix, expected, rtol: float, what: str) -> None:
    """Entrywise ``|s - e| <= rtol * |e|``."""
    s = np.asarray(matrix, dtype=float)
    e = np.asarray(expected, dtype=float)
    if s.shape != e.shape:
        raise CheckFailed(f"{what}: shape {s.shape}, expected {e.shape}")
    worst = float(np.max(np.abs(s - e) / np.abs(e)))
    if not worst <= rtol:
        raise CheckFailed(f"{what}: relative gap {worst:.3g} exceeds {rtol:g}")


def reference_limit(entries, row_targets, col_targets) -> np.ndarray:
    """Plain alternating scaling to a fixed point, for small well-scaled data.

    Used only for the scale-1 references of the extreme-magnitude slice,
    whose matrices are tiny and well conditioned.
    """
    a = np.asarray(entries, dtype=float)
    r_t = np.asarray(row_targets, dtype=float)
    c_t = np.asarray(col_targets, dtype=float)
    r, c = np.ones(a.shape[0]), np.ones(a.shape[1])
    for _ in range(REFERENCE_SWEEPS):
        r = r_t / (a @ c)
        c_new = c_t / (a.T @ r)
        if np.max(np.abs(c_new - c) / c) < 1e-15:
            c = c_new
            break
        c = c_new
    return (r[:, None] * a) * c[None, :]


def degree_bound(rows: int, cols: int) -> int:
    return math.comb(rows + cols - 2, rows - 1)


def check_degree(rows: int, cols: int, degree: int) -> None:
    """Degree matches the paper's table where it has one, and never exceeds the bound."""
    bound = degree_bound(rows, cols)
    if not 1 <= degree <= bound:
        raise CheckFailed(f"degree {degree} for {rows}x{cols} outside [1, {bound}]")
    expected = PAPER_DEGREES.get((rows, cols))
    if expected is not None and degree != expected:
        raise CheckFailed(f"degree {degree} for {rows}x{cols}; the paper's table gives {expected}")


def eval_univariate(coeffs: dict[int, Fraction], x: Fraction) -> Fraction:
    """Exact value of ``sum(coeff * x**power)`` by Horner's rule."""
    value = Fraction(0)
    for power in range(max(coeffs), -1, -1):
        value = value * x + coeffs.get(power, 0)
    return value


def check_root(coeffs: dict[int, Fraction], x: float) -> None:
    """A float approximation ``x`` brackets a root of the exact polynomial.

    The polynomial is evaluated in ``Fraction`` at ``x * (1 -/+ ROOT_REL_WIDTH)``;
    an exact sign change (or an exact zero) proves a root in between.
    """
    if not (math.isfinite(x) and x > 0):
        raise CheckFailed(f"coordinate {x!r} is not a positive finite number")
    centre = Fraction(x)
    half = centre * Fraction(ROOT_REL_WIDTH)
    lo = eval_univariate(coeffs, centre - half)
    hi = eval_univariate(coeffs, centre + half)
    if lo * hi > 0:
        raise CheckFailed(f"no sign change of the elimination polynomial within {ROOT_REL_WIDTH:g} of {x!r}")


def check_unit_ideal(is_unit: bool, polynomial_count: int, row_targets, col_targets) -> None:
    """Exactly inconsistent targets give the unit ideal, and only they do."""
    inconsistent = sum(map(Fraction, row_targets)) != sum(map(Fraction, col_targets))
    if inconsistent and not (is_unit and polynomial_count == 1):
        raise CheckFailed("inconsistent targets but the basis is not {1}")
    if not inconsistent and is_unit:
        raise CheckFailed("consistent targets but the basis is {1}")


def check_same_bytes(first: bytes, again: bytes, what: str) -> None:
    if first != again:
        raise CheckFailed(f"{what}: stdout differs between identical invocations")
