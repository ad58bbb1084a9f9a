"""Shared generators and comparison helpers for the test suite."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from matbalance import Marginals, PositiveMatrix, default_gauge, extract_factors, validate_instance


def assert_within_ulps(actual, expected, ulps):
    """Entrywise |actual - expected| <= ulps * spacing(max magnitude)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    spacing = np.spacing(np.maximum(np.abs(actual), np.abs(expected)))
    gap = np.abs(actual - expected)
    worst = float(np.max(gap / spacing)) if gap.size else 0.0
    assert np.all(gap <= ulps * spacing), f"max gap {worst:.1f} ulps exceeds {ulps}"


def random_marginals(rng, rows, cols, lo=0.5, hi=3.0):
    """Positive targets whose totals agree to within a few ulps."""
    row_targets = rng.uniform(lo, hi, size=rows)
    total = row_targets.sum()
    weights = rng.uniform(lo, hi, size=cols)
    col_targets = total * (weights / weights.sum())
    return Marginals(row_targets, col_targets)


def random_instance(rng, rows, cols, entry_lo=0.2, entry_hi=5.0):
    entries = rng.uniform(entry_lo, entry_hi, size=(rows, cols))
    return validate_instance(PositiveMatrix(entries), random_marginals(rng, rows, cols))


def random_unit_target_2x2(rng, entry_lo=0.2, entry_hi=5.0, min_det_ratio=1e-3):
    """Solidly nonsingular 2x2 instance with unit targets."""
    while True:
        entries = rng.uniform(entry_lo, entry_hi, size=(2, 2))
        alpha = entries[0, 0] * entries[1, 1]
        if abs(alpha - entries[0, 1] * entries[1, 0]) > min_det_ratio * alpha:
            return validate_instance(PositiveMatrix(entries), Marginals([1.0, 1.0], [1.0, 1.0]))


def random_nonsingular_2x2(rng, min_det_ratio=1e-3):
    while True:
        inst = random_instance(rng, 2, 2)
        a = inst.matrix.entries
        alpha = a[0, 0] * a[1, 1]
        if abs(alpha - a[0, 1] * a[1, 0]) > min_det_ratio * alpha:
            return inst


def nathanson_limit(entries):
    """Classic unit-target 2x2 limit: weights sqrt(ad) and sqrt(bc)."""
    a, b = entries[0]
    c, d = entries[1]
    p = np.sqrt(a * d)
    q = np.sqrt(b * c)
    return np.array([[p, q], [q, p]]) / (p + q)


def default_factors(instance, result):
    """A closed-form result's factors, which it does not carry, read off in the default gauge."""
    assert result.factors is None
    return extract_factors(instance, result, default_gauge(instance.rows, instance.cols))


def formula_factors(instance, matrix):
    """The default-gauge factors of a closed form's limit, by the formulas, and if they round as plain quotients.

    Only the 2x2's ``c1 = (s21 / s22)(a22 / a21)`` takes more than one rounding.  Where its plain quotients are
    normal, the read-off rounds as they do; where one is not, it keeps the exponents exact, so ``c1`` here is the
    exact value, correctly rounded.
    """
    a = instance.matrix.entries
    with np.errstate(over="ignore"):
        if instance.rows == 1:
            return (np.ones(1), instance.marginals.col_targets / a[0]), True
        if instance.cols == 1:
            return (instance.marginals.row_targets / a[:, 0], np.ones(1)), True
    (s11, s12), (s21, s22) = matrix.tolist()
    (a11, a12), (a21, a22) = a.tolist()
    quotients = (s21 / s22, a22 / a21)
    c1 = quotients[0] * quotients[1]
    plain = all(sys.float_info.min <= v < math.inf for v in (*quotients, c1))
    if not plain:
        exact = Fraction(s21) / Fraction(s22) * Fraction(a22) / Fraction(a21)
        c1 = float(exact) if exact <= sys.float_info.max else math.inf
    return ([s12 / a12, s22 / a22], [c1, 1.0]), plain


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
