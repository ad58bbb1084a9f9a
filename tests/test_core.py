import warnings

import numpy as np
import pytest

from matbalance import (
    InconsistentMarginals,
    Marginals,
    NonPositiveInput,
    PositiveMatrix,
    ScaledResult,
    ScalingPair,
    ShapeMismatch,
    apply_scaling,
    residuals,
    transpose_instance,
    validate_instance,
)

from matbalance.errors import empty_error, nonpositive_error

from conftest import assert_within_ulps, random_instance


class TestConstruction:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_matrix_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(NonPositiveInput):
            PositiveMatrix([[1.0, bad], [3.0, 4.0]])

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.nan, np.inf])
    def test_marginals_reject_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(NonPositiveInput):
            Marginals([1.0, bad], [1.0, 1.0])
        with pytest.raises(NonPositiveInput):
            Marginals([1.0, 1.0], [bad, 2.0])

    def test_matrix_requires_two_dimensions(self):
        with pytest.raises(ShapeMismatch):
            PositiveMatrix([1.0, 2.0])

    def test_entries_are_read_only(self):
        m = PositiveMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_result_matrix_is_taken_over_not_copied(self):
        fresh = np.array([[1.0, 2.0], [3.0, 4.0]])
        result = ScaledResult(fresh, None, 0, 0.0, True, "iterative")
        assert result.matrix is fresh
        with pytest.raises(ValueError):
            result.matrix[0, 0] = 5.0

    @pytest.mark.parametrize(
        "bad,error",
        [
            ([[1.0, 0.0]], NonPositiveInput),
            ([[1.0, -2.0]], NonPositiveInput),
            ([[1.0, np.nan]], NonPositiveInput),
            ([[np.inf, 1.0]], NonPositiveInput),
            ([[-np.inf, 1.0]], NonPositiveInput),
            ([1.0, 2.0], ShapeMismatch),
            (np.empty((0, 2)), ShapeMismatch),
        ],
    )
    def test_result_matrix_rejects_bad_values(self, bad, error):
        with pytest.raises(error, match="result matrix"):
            ScaledResult(np.array(bad, dtype=float), None, 0, 0.0, True, "iterative")

    def test_scaling_pair_rejects_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            ScalingPair([1.0, 0.0], [1.0])


class TestValidateInstance:
    def test_unit_targets_valid(self):
        inst = validate_instance(
            PositiveMatrix([[1, 2], [3, 4]]), Marginals([1, 1], [1, 1]), 1e-12
        )
        assert inst.rows == 2 and inst.cols == 2

    def test_arbitrary_sums_valid(self):
        # Both totals are 65/51 exactly in rationals; float defect is ulp-level.
        inst = validate_instance(
            PositiveMatrix([[1, 2], [400, 9999 / 17]]),
            Marginals([1 / 3, 16 / 17], [1 / 2, 79 / 102]),
            1e-12,
        )
        assert inst.marginals.consistency_defect() <= 1e-15

    def test_inconsistent_reports_defect(self):
        with pytest.raises(InconsistentMarginals) as err:
            validate_instance(
                PositiveMatrix([[1, 2], [3, 4]]), Marginals([1, 1], [1, 2]), 1e-12
            )
        assert err.value.defect == pytest.approx(1.0, abs=0)

    # An infinite tolerance would accept any targets, and a NaN one would
    # refuse consistent targets with a defect of 0.
    @pytest.mark.parametrize("tol, message", [
        (-1e-9, "consistency_tol must be >= 0"),
        (np.inf, "consistency_tol must be finite, got inf"),
        (np.nan, "consistency_tol must be finite, got nan"),
    ], ids=["negative", "inf", "nan"])
    def test_rejects_bad_consistency_tolerance(self, tol, message):
        with pytest.raises(ValueError) as err:
            validate_instance(PositiveMatrix([[1, 2], [3, 4]]), Marginals([1, 1], [5, 5]), tol)
        assert str(err.value) == message

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            validate_instance(PositiveMatrix([[1, 2], [3, 4]]), Marginals([1, 1, 1], [1, 1]))
        with pytest.raises(ShapeMismatch):
            validate_instance(PositiveMatrix([[1, 2], [3, 4]]), Marginals([2, 2], [1, 1, 2]))


class TestOverflowSafeTotals:
    # The pyproject filter misses warnings raised inside numpy's own Python
    # wrappers, so these tests turn every warning into an error themselves.

    @pytest.mark.parametrize("target", [1e308, np.finfo(float).max])
    def test_consistent_targets_past_the_float_range_validate(self, target):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            marginals = Marginals([target, target], [target, target])
            inst = validate_instance(PositiveMatrix([[1, 2], [3, 4]]), marginals)
            assert marginals.consistency_defect() == 0.0
            assert marginals.is_consistent(0.0)
        assert inst.rows == 2

    def test_inconsistent_targets_past_the_float_range_report_a_finite_defect(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InconsistentMarginals) as err:
                validate_instance(PositiveMatrix([[1, 2], [3, 4]]), Marginals([1e308, 1e308], [1e308, 1.5e308]))
        assert err.value.defect == pytest.approx(5e307, rel=1e-15)
        assert "(defect 5e+307)" in str(err.value)

    def test_one_long_vector_of_large_targets(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            marginals = Marginals(np.full(1000, 1e306), np.full(10, 1e308))
            assert marginals.is_consistent(1e-12)
            assert not Marginals(np.full(1000, 1e306), np.full(10, 1.01e308)).is_consistent(1e-9)

    def test_finite_totals_keep_their_bits(self, rng):
        for _ in range(200):
            row_targets = rng.uniform(0.5, 3.0, int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-200, 200)
            col_targets = rng.uniform(0.5, 3.0, int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-200, 200)
            marginals = Marginals(row_targets, col_targets)
            row, col = float(row_targets.sum()), float(col_targets.sum())
            assert marginals.consistency_defect() == abs(row - col)
            for tol in (0.0, 1e-9, 0.5, 2.0):
                assert marginals.is_consistent(tol) == (abs(row - col) <= tol * max(row, col))


def per_side_targets(values, name):
    """The check each target vector had on its own before the two were joined: shape, size, then values."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ShapeMismatch(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise empty_error(name)
    if not np.all(np.isfinite(arr)):
        raise NonPositiveInput(f"{name} contains NaN or infinite entries")
    if not np.all(arr > 0):
        raise nonpositive_error(name)


TARGET_INPUTS = {
    "good": [1.0, 2.0],
    "NaN": [1.0, np.nan],
    "inf": [np.inf, 1.0],
    "zero": [1.0, 0.0],
    "negative": [-1.0, 2.0],
    "negative and NaN": [-1.0, np.nan],
    "empty": [],
    "2-D": [[1.0, 2.0]],
    "0-D": 3.0,
    "text": ["x", 1.0],
    "int past the float range": [10**400, 1],
}


class TestOneArrayOfTargets:
    @pytest.mark.parametrize("convert", [np.array, list, lambda v: np.array(v, dtype=int)], ids=["floats", "list", "ints"])
    def test_the_sides_are_read_only_views_of_one_copy(self, convert):
        row_in, col_in = convert([1.0, 2.0, 3.0]), convert([2.0, 4.0])
        marginals = Marginals(row_in, col_in)
        joined = marginals.row_targets.base
        assert joined is not None and marginals.col_targets.base is joined
        assert joined.dtype == float and joined.tobytes() == np.array([1.0, 2.0, 3.0, 2.0, 4.0]).tobytes()
        for array in (joined, marginals.row_targets, marginals.col_targets):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
        # The caller's arrays are free to change afterwards.
        row_in[0], col_in[1] = 7, 9
        np.testing.assert_array_equal(marginals.row_targets, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(marginals.col_targets, [2.0, 4.0])

    @pytest.mark.parametrize(
        "row, col",
        [(row, col) for row in TARGET_INPUTS for col in TARGET_INPUTS if (row, col) != ("good", "good")],
        ids=lambda name: name,
    )
    def test_errors_are_those_of_the_sides_checked_in_turn(self, row, col):
        rows, cols = TARGET_INPUTS[row], TARGET_INPUTS[col]
        with pytest.raises(Exception) as expected:
            per_side_targets(rows, "row_targets")
            per_side_targets(cols, "col_targets")
        with pytest.raises(Exception) as err:
            Marginals(rows, cols)
        assert type(err.value) is type(expected.value)
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("rows, cols", [
        ([0.3, 1e-300, 2.5], [2.8]),
        ([4e307, 4e307], [8e307]),
        ([1e308, 5e307], [1.5e308]),
        (np.full(3, 5e307), [1e308, 5e307]),
        ([8.98e307, 8.98e307], [1.796e308]),
    ], ids=["small", "2 n max in range", "2 n max past the range", "three of 5e307", "totals near the largest float"])
    def test_totals_are_the_per_side_sums(self, rows, cols):
        row_total = float(np.add.reduce(np.array(rows, dtype=float)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            col_total = float(np.add.reduce(np.array(cols, dtype=float)))
            assert Marginals(rows, cols).consistency_defect() == abs(row_total - col_total)
            with pytest.raises(InconsistentMarginals) as err:
                Marginals(rows, np.array(cols) / 2).check_consistent(0.0)
        col_total = float(np.add.reduce(np.array(cols) / 2))
        assert str(err.value).startswith(f"row targets total {row_total!r} but col targets total {col_total!r} ")

    def test_totals_of_drawn_targets_are_the_per_side_sums(self, rng):
        for _ in range(300):
            rows = rng.uniform(0.5, 3.0, int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-300, 306)
            cols = rng.uniform(0.5, 3.0, int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-300, 306)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                marginals = Marginals(rows, cols)
                row_total, col_total = float(np.add.reduce(rows)), float(np.add.reduce(cols))
            assert marginals.consistency_defect() == abs(row_total - col_total)


class TestApplyScaling:
    def test_identity_scaling(self):
        m = PositiveMatrix([[1, 2], [3, 4]])
        out = apply_scaling(m, ScalingPair([1, 1], [1, 1]))
        np.testing.assert_array_equal(out, m.entries)

    def test_gauge_two_is_identity(self):
        m = PositiveMatrix([[1, 2], [3, 4]])
        out = apply_scaling(m, ScalingPair([2, 2], [0.5, 0.5]))
        np.testing.assert_array_equal(out, m.entries)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            apply_scaling(PositiveMatrix([[1, 2], [3, 4]]), ScalingPair([1, 1, 1], [1, 1]))

    @pytest.mark.parametrize("lam", [1e-3, 0.5, 2.0, 1e3])
    def test_gauge_invariance_within_4_ulps(self, rng, lam):
        for _ in range(50):
            inst = random_instance(rng, 3, 4)
            r = rng.uniform(0.1, 10.0, size=3)
            c = rng.uniform(0.1, 10.0, size=4)
            base = apply_scaling(inst.matrix, ScalingPair(r, c))
            moved = apply_scaling(inst.matrix, ScalingPair(lam * r, c / lam))
            assert_within_ulps(moved, base, 4)


class TestPublicInputChecks:
    """Input checks of the public functions that no other test reaches."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: validate_instance([[1, 2], [3, 4]], ([1, 1], [1, 1])), TypeError, "marginals must be a Marginals value"),
        (lambda: validate_instance([[1, 2], [3]], Marginals([1, 1], [1, 1])), ShapeMismatch, "matrix rows have unequal lengths"),
        (lambda: validate_instance([[1, 0], [3, 4]], Marginals([1, 1], [1, 1])), NonPositiveInput, "matrix contains entries <= 0"),
        (lambda: residuals([0.5, 0.5], Marginals([1], [1])), ShapeMismatch, r"candidate must be 2-dimensional, got shape \(2,\)"),
    ], ids=["marginals not Marginals", "ragged nested-list matrix", "nonpositive nested-list matrix", "1-D candidate"])
    def test_refused_with_the_typed_error(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_nested_list_matrix_is_coerced(self):
        inst = validate_instance([[1, 2], [3, 4]], Marginals([1, 1], [1, 1]))
        assert isinstance(inst.matrix, PositiveMatrix)
        np.testing.assert_array_equal(inst.matrix.entries, [[1.0, 2.0], [3.0, 4.0]])


class TestResiduals:
    def test_exact_match_is_zero(self):
        row, col = residuals([[0.5, 0.5], [0.5, 0.5]], Marginals([1, 1], [1, 1]))
        np.testing.assert_array_equal(row, [0, 0])
        np.testing.assert_array_equal(col, [0, 0])

    def test_singular_limit_matches_targets(self):
        row, col = residuals([[5, 25], [5, 25]], Marginals([30, 30], [10, 50]))
        np.testing.assert_array_equal(row, [0, 0])
        np.testing.assert_array_equal(col, [0, 0])

    def test_plain_sums_minus_targets(self):
        row, col = residuals([[1, 2], [3, 4]], Marginals([1, 1], [1, 1]))
        np.testing.assert_array_equal(row, [2, 6])
        np.testing.assert_array_equal(col, [3, 5])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            residuals([[1, 2]], Marginals([1, 1], [1, 1]))

    def test_scaling_defect_roundtrip(self, rng):
        inst = random_instance(rng, 2, 3)
        pair = ScalingPair(rng.uniform(0.5, 2, 2), rng.uniform(0.5, 2, 3))
        scaled = apply_scaling(inst.matrix, pair)
        row, col = residuals(scaled, inst.marginals)
        np.testing.assert_array_equal(row, scaled.sum(axis=1) - inst.marginals.row_targets)
        np.testing.assert_array_equal(col, scaled.sum(axis=0) - inst.marginals.col_targets)


class TestTransposeInstance:
    def test_square_example(self):
        inst = validate_instance(PositiveMatrix([[1, 2], [3, 4]]), Marginals([1, 1], [1, 1]))
        t = transpose_instance(inst)
        np.testing.assert_array_equal(t.matrix.entries, [[1, 3], [2, 4]])
        np.testing.assert_array_equal(t.marginals.row_targets, [1, 1])

    def test_shape_swap(self):
        inst = validate_instance(PositiveMatrix([[1, 1, 1]]), Marginals([6], [1, 2, 3]))
        t = transpose_instance(inst)
        assert (t.rows, t.cols) == (3, 1)
        np.testing.assert_array_equal(t.marginals.row_targets, [1, 2, 3])
        np.testing.assert_array_equal(t.marginals.col_targets, [6])

    def test_involution_is_exact(self, rng):
        for _ in range(100):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            inst = random_instance(rng, rows, cols)
            back = transpose_instance(transpose_instance(inst))
            np.testing.assert_array_equal(back.matrix.entries, inst.matrix.entries)
            np.testing.assert_array_equal(back.marginals.row_targets, inst.marginals.row_targets)
            np.testing.assert_array_equal(back.marginals.col_targets, inst.marginals.col_targets)

    def test_residuals_swap_roles(self, rng):
        inst = random_instance(rng, 3, 2)
        grid = rng.uniform(0.5, 2.0, size=(3, 2))
        row, col = residuals(grid, inst.marginals)
        t = transpose_instance(inst)
        trow, tcol = residuals(grid.T, t.marginals)
        np.testing.assert_array_equal(trow, col)
        np.testing.assert_array_equal(tcol, row)
