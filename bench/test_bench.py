"""Tests of the benchmark's own checks and input generators.

    python3 -m pytest bench

Each check must accept a known-right output and reject a known-wrong one;
each workload must draw the same inputs from the same seed.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

B = np.array([[1.0, 2.0], [3.0, 4.0]])


def test_all_half_matrix_passes_marginals_but_not_structure():
    # What the closed form returns for B * 1e-200: right sums, wrong limit.
    wrong = np.full((2, 2), 0.5)
    checks.check_marginals(wrong, [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(CheckFailed, match="cross-ratio"):
        checks.check_cross_ratios(wrong, B * 1e-200)
    with pytest.raises(CheckFailed):
        checks.check_close(wrong, checks.unit_target_2x2(B), 1e-9, "scale-1 limit")


def test_true_limit_passes_structure_at_tiny_scale():
    limit = checks.unit_target_2x2(B)
    checks.check_marginals(limit, [1.0, 1.0], [1.0, 1.0])
    checks.check_cross_ratios(limit, B * 1e-200)
    checks.check_cross_ratios(limit, B * 1e-320)


def test_marginals_reject_a_moved_entry():
    limit = checks.unit_target_2x2(B)
    limit[0, 0] += 1e-6
    with pytest.raises(CheckFailed, match="marginal"):
        checks.check_marginals(limit, [1.0, 1.0], [1.0, 1.0])


def test_reference_limit_matches_unit_target_formula():
    reference = checks.reference_limit(B, np.ones(2), np.ones(2))
    checks.check_close(reference, checks.unit_target_2x2(B), 1e-13, "reference")


def test_singular_limit_and_factors():
    r, c = np.array([1.0, 3.0]), np.array([2.5, 1.5])
    s = checks.singular_2x2(r, c)
    checks.check_marginals(s, r, c)
    entries = np.array([[1.0, 2.0], [2.0, 4.0]])
    checks.check_cross_ratios(s, entries)
    row_f, col_f = np.array([0.5, 0.75]), np.array([2.0, 1.0])
    checks.check_factors((row_f[:, None] * entries) * col_f, entries, row_f, col_f, ("col", 1))
    with pytest.raises(CheckFailed, match="pinned"):
        checks.check_factors((row_f[:, None] * entries) * col_f, entries, row_f, col_f, ("col", 0))


@pytest.mark.parametrize("shape, degree", [((1, 3), 1), ((2, 2), 2), ((2, 3), 3), ((2, 4), 4)])
def test_degree_off_by_one_is_rejected(shape, degree):
    checks.check_degree(*shape, degree)
    for wrong in (degree - 1, degree + 1):
        with pytest.raises(CheckFailed):
            checks.check_degree(*shape, wrong)


def test_degree_above_bound_is_rejected():
    checks.check_degree(3, 3, math.comb(4, 2))
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_degree(3, 3, math.comb(4, 2) + 1)


def test_root_check_accepts_root_and_rejects_perturbed_root():
    # x^2 - 2: the root sqrt(2) is irrational, so only a bracket can prove it.
    coeffs = {2: Fraction(1), 0: Fraction(-2)}
    checks.check_root(coeffs, math.sqrt(2.0))
    with pytest.raises(CheckFailed, match="sign change"):
        checks.check_root(coeffs, math.sqrt(2.0) * (1 + 1e-5))


def test_unit_ideal_check():
    checks.check_unit_ideal(True, 1, [1, 2], [1, 3])
    with pytest.raises(CheckFailed):
        checks.check_unit_ideal(False, 3, [1, 2], [1, 3])
    with pytest.raises(CheckFailed):
        checks.check_unit_ideal(True, 1, [1, 2], [2, 1])


def test_same_bytes():
    checks.check_same_bytes(b"{}\n", b"{}\n", "scale")
    with pytest.raises(CheckFailed):
        checks.check_same_bytes(b"{}\n", b"{ }\n", "scale")


def test_exact_degree_root_check_on_real_output():
    """A perturbed root from the solver's own output is rejected."""
    workload = workloads.ExactDegree()
    op = workload.generate(7)[30]  # a 2x3 instance
    output = workload.execute(op, workloads.OFF)
    workload.check(op, output, workloads.OFF)
    op.data["root"] *= 1 + 1e-4
    with pytest.raises(CheckFailed, match="sign change"):
        workload.check(op, output, workloads.OFF)


def _fingerprint(value):
    """Hashable summary of generated inputs, with arrays compared bitwise."""
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.tobytes())
    if isinstance(value, dict):
        return tuple((k, _fingerprint(v)) for k, v in sorted(value.items()) if k != "argv")
    if isinstance(value, (list, tuple)):
        return tuple(_fingerprint(v) for v in value)
    return repr(value)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_reproduces_inputs_from_seed(name):
    workload = workloads.WORKLOADS[name]()
    try:
        first = [(op.kind, op.fault, _fingerprint(op.data)) for op in workload.generate(11)]
        again = [(op.kind, op.fault, _fingerprint(op.data)) for op in workload.generate(11)]
        other = [(op.kind, op.fault, _fingerprint(op.data)) for op in workload.generate(12)]
    finally:
        workload.close()
    assert first == again
    assert [k for k, _, _ in first] == [k for k, _, _ in other]  # same make-up
    assert first != other  # different numbers
