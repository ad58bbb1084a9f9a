import warnings

import numpy as np
import pytest

from matbalance import (
    InconsistentMarginals,
    Marginals,
    NearSingular,
    NonPositiveRoot,
    PositiveMatrix,
    UnsupportedShape,
    WrongShape,
    apply_scaling,
    closed_form_1xn,
    closed_form_2x2,
    closed_form_2x2_singular,
    closed_form_dispatch,
    closed_form_nx1,
    max_abs_residual,
    quadratic_data,
    r2_roots,
    residuals,
    sinkhorn_iterate,
    solve_r2,
    transpose_instance,
    validate_instance,
)

from conftest import (
    nathanson_limit,
    random_instance,
    random_marginals,
    random_nonsingular_2x2,
    random_unit_target_2x2,
)


def make_instance(entries, row_targets, col_targets):
    return validate_instance(PositiveMatrix(entries), Marginals(row_targets, col_targets))


NATHANSON_INSTANCE = ([[1, 2], [3, 4]], [1, 1], [1, 1])


class TestSingleRow:
    def test_limit_is_the_column_targets(self):
        result = closed_form_1xn(make_instance([[5, 7, 11]], [6], [1, 2, 3]))
        np.testing.assert_array_equal(result.matrix, [[1, 2, 3]])
        assert result.method == "closed_form_1xn"
        assert result.converged

    def test_one_by_one(self):
        result = closed_form_1xn(make_instance([[1]], [4], [4]))
        np.testing.assert_array_equal(result.matrix, [[4]])

    def test_matches_iterative(self, rng):
        for _ in range(100):
            inst = random_instance(rng, 1, 5)
            closed = closed_form_1xn(inst)
            iterated = sinkhorn_iterate(inst)
            np.testing.assert_allclose(closed.matrix, iterated.matrix, atol=1e-9)

    def test_wrong_shape(self):
        with pytest.raises(WrongShape):
            closed_form_1xn(make_instance([[1, 2], [3, 4]], [1, 1], [1, 1]))

    def test_factors_reproduce_matrix(self, rng):
        inst = random_instance(rng, 1, 4)
        result = closed_form_1xn(inst)
        np.testing.assert_allclose(
            apply_scaling(inst.matrix, result.factors), result.matrix, rtol=1e-15
        )


class TestSingleColumn:
    def test_transposed_delegate(self):
        result = closed_form_nx1(make_instance([[5], [7], [11]], [1, 2, 3], [6]))
        np.testing.assert_array_equal(result.matrix, [[1], [2], [3]])
        assert result.method == "transposed_delegate"

    def test_one_by_one(self):
        result = closed_form_nx1(make_instance([[1]], [4], [4]))
        np.testing.assert_array_equal(result.matrix, [[4]])

    def test_matches_iterative(self, rng):
        for _ in range(100):
            inst = random_instance(rng, 4, 1)
            closed = closed_form_nx1(inst)
            iterated = sinkhorn_iterate(inst)
            np.testing.assert_allclose(closed.matrix, iterated.matrix, atol=1e-9)

    def test_wrong_shape(self):
        with pytest.raises(WrongShape):
            closed_form_nx1(make_instance([[1, 2]], [3], [1, 2]))

    @pytest.mark.parametrize("rows", [1, 2, 5, 29, 1001, 3000])
    def test_bitwise_equal_to_transposed_single_row(self, rows):
        # Reference: the single-row formula on the transposed instance, with
        # the factors swapped back.
        rng = np.random.default_rng(rows)
        row_targets = rng.uniform(0.5, 3.0, rows)
        entries = rng.uniform(0.2, 5.0, (rows, 1)) * 10.0 ** rng.uniform(-5, 5, (rows, 1))
        # A column target off by 1e-12, so the residual depends on the summation order.
        inst = make_instance(entries, row_targets, [row_targets.sum() * (1 + 1e-12)])
        inner = closed_form_1xn(transpose_instance(inst))
        result = closed_form_nx1(inst)
        assert result.matrix.tobytes() == inner.matrix.T.tobytes()
        assert result.matrix.shape == (rows, 1)
        assert result.factors.row_factors.tobytes() == inner.factors.col_factors.tobytes()
        assert result.factors.col_factors.tobytes() == inner.factors.row_factors.tobytes()
        assert result.max_marginal_residual == inner.max_marginal_residual > 0
        assert (result.iterations, result.converged, result.method) == (0, True, "transposed_delegate")


class TestQuadraticData:
    def test_golden_values(self):
        data = quadratic_data(make_instance(*NATHANSON_INSTANCE))
        assert data.alpha == 4
        assert data.beta == 6
        assert data.det == -2
        assert data.delta == 96
        assert data.lower_right == 4

    def test_singular_symmetric(self):
        data = quadratic_data(make_instance([[1, 1], [1, 1]], [1, 1], [1, 1]))
        assert data.alpha == 1 and data.beta == 1 and data.det == 0

    def test_discriminant_positive_on_random_instances(self, rng):
        for _ in range(1000):
            data = quadratic_data(random_instance(rng, 2, 2))
            assert data.delta > 0

    def test_wrong_shape(self):
        with pytest.raises(WrongShape):
            quadratic_data(make_instance([[1, 2, 3]], [6], [1, 2, 3]))


class TestSolveR2:
    def test_golden_branches(self):
        inst = make_instance(*NATHANSON_INSTANCE)
        data = quadratic_data(inst)
        assert solve_r2(data, inst.marginals) == pytest.approx(0.112372, abs=1e-5)
        minus, plus = r2_roots(data, inst.marginals)
        assert plus == pytest.approx(-1.11237, abs=1e-4)
        assert minus == solve_r2(data, inst.marginals)

    def test_selected_branch_positive_on_random_instances(self, rng):
        for _ in range(1000):
            inst = random_nonsingular_2x2(rng)
            data = quadratic_data(inst)
            assert solve_r2(data, inst.marginals) > 0

    def test_degenerate_quadratic(self):
        inst = make_instance([[1, 1], [1, 1]], [1, 1], [1, 1])
        with pytest.raises(NearSingular):
            r2_roots(quadratic_data(inst), inst.marginals)

    def test_underflowing_denominator_is_typed(self):
        # det = -2e-300 is nonzero, but 2 * a22 * det underflows to 0.
        inst = make_instance(1e-150 * np.array([[1.0, 2.0], [3.0, 4.0]]), [1, 1], [1, 1])
        data = quadratic_data(inst)
        assert data.det != 0
        with pytest.raises(NearSingular):
            r2_roots(data, inst.marginals)


class TestClosedForm2x2:
    def test_nathanson_golden(self):
        result = closed_form_2x2(make_instance(*NATHANSON_INSTANCE))
        np.testing.assert_allclose(
            result.matrix, nathanson_limit([[1, 2], [3, 4]]), atol=1e-12
        )
        assert result.method == "closed_form_2x2"

    def test_lower_right_entry_from_row_factor(self):
        # s22 = a22 * r2 in the unit-lower-right-column-factor gauge.
        result = closed_form_2x2(make_instance(*NATHANSON_INSTANCE))
        assert result.matrix[1, 1] == pytest.approx(4 * 0.112372, abs=1e-5)
        assert result.factors.col_factors[1] == 1.0
        assert result.factors.row_factors[1] == pytest.approx(0.112372, abs=1e-5)

    def test_matches_iterative(self, rng):
        for _ in range(200):
            inst = random_nonsingular_2x2(rng)
            closed = closed_form_2x2(inst)
            iterated = sinkhorn_iterate(inst)
            np.testing.assert_allclose(closed.matrix, iterated.matrix, atol=1e-6)

    def test_sums_match_targets_tightly(self, rng):
        for _ in range(200):
            inst = random_nonsingular_2x2(rng)
            result = closed_form_2x2(inst)
            row_res, col_res = residuals(result.matrix, inst.marginals)
            scale = float(inst.marginals.row_targets.sum())
            assert np.max(np.abs(row_res)) <= 1e-12 * scale
            assert np.max(np.abs(col_res)) <= 1e-12 * scale

    def test_near_singular_is_rejected(self):
        inst = make_instance([[2, 4], [3, 6]], [1, 1], [1, 1])
        with pytest.raises(NearSingular):
            closed_form_2x2(inst)

    # The formula overflows at these scales (ROADMAP item 1).  Until it is
    # fixed the failure is a typed error alone, with no numpy warning before
    # it, and it words the entries as plain floats.
    @pytest.mark.parametrize("scale, target", [(1.0, 1e308), (1e80, 1.0)], ids=["targets 1e308", "matrix 1e80"])
    def test_overflow_raises_typed_error_without_warnings(self, scale, target):
        inst = make_instance(np.array([[1.0, 2.0], [3.0, 4.0]]) * scale, [target] * 2, [target] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveRoot) as raised:
                closed_form_2x2(inst)
        listed = str(raised.value).removeprefix("formula produced nonpositive entries [").split("]")[0]
        assert len([float(v) for v in listed.split(", ")]) == 4

    def test_factors_reproduce_matrix(self, rng):
        for _ in range(50):
            inst = random_nonsingular_2x2(rng)
            result = closed_form_2x2(inst)
            np.testing.assert_allclose(
                apply_scaling(inst.matrix, result.factors), result.matrix, rtol=1e-12
            )


class TestClosedForm2x2Singular:
    def test_golden(self):
        result = closed_form_2x2_singular(Marginals([30, 30], [10, 50]))
        np.testing.assert_allclose(result.matrix, [[5, 25], [5, 25]], atol=1e-12)
        assert result.method == "closed_form_2x2_singular"

    def test_uniform(self):
        result = closed_form_2x2_singular(Marginals([1, 1], [1, 1]))
        np.testing.assert_array_equal(result.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_matches_iterative_on_singular_matrix(self, rng):
        for _ in range(50):
            marg = random_marginals(rng, 2, 2)
            inst = validate_instance(
                PositiveMatrix(np.outer(rng.uniform(0.5, 2, 2), rng.uniform(0.5, 2, 2))),
                marg,
            )
            closed = closed_form_2x2_singular(inst.marginals)
            iterated = sinkhorn_iterate(inst)
            np.testing.assert_allclose(closed.matrix, iterated.matrix, atol=1e-8)

    def test_maximum_entropy_form(self, rng):
        marg = random_marginals(rng, 2, 2)
        result = closed_form_2x2_singular(marg)
        expected = np.outer(marg.row_targets, marg.col_targets) / marg.row_targets.sum()
        np.testing.assert_allclose(result.matrix, expected, rtol=1e-12)

    def test_inconsistent_rejected(self):
        with pytest.raises(InconsistentMarginals):
            closed_form_2x2_singular(Marginals([1, 1], [1, 2]))

    def test_inconsistency_worded_as_in_validation(self):
        marginals = Marginals([1.0, 1.0], [1.0, 2.5])
        with pytest.raises(InconsistentMarginals) as singular:
            closed_form_2x2_singular(marginals, 1e-12)
        with pytest.raises(InconsistentMarginals) as validated:
            validate_instance(PositiveMatrix([[2, 4], [3, 6]]), marginals, 1e-12)
        assert str(singular.value) == str(validated.value)
        assert singular.value.defect == validated.value.defect == 1.5

    def test_wrong_shape(self):
        with pytest.raises(WrongShape):
            closed_form_2x2_singular(Marginals([1, 1, 1], [1, 1, 1]))


class TestDispatch:
    def test_unsupported_shape(self, rng):
        with pytest.raises(UnsupportedShape):
            closed_form_dispatch(random_instance(rng, 3, 3))

    def test_exact_zero_det_routes_singular(self):
        result = closed_form_dispatch(make_instance([[2, 4], [3, 6]], [1, 1], [1, 1]))
        assert result.method == "closed_form_2x2_singular"

    def test_nonsingular_routes_to_formula(self):
        result = closed_form_dispatch(make_instance(*NATHANSON_INSTANCE))
        assert result.method == "closed_form_2x2"
        np.testing.assert_allclose(
            result.matrix, nathanson_limit([[1, 2], [3, 4]]), atol=1e-12
        )

    @pytest.mark.parametrize("shape,method", [
        ((1, 4), "closed_form_1xn"),
        ((4, 1), "transposed_delegate"),
    ])
    def test_vector_shapes(self, rng, shape, method):
        result = closed_form_dispatch(random_instance(rng, *shape))
        assert result.method == method


class TestFormulaProperties:
    def test_exact_shape_residuals_tiny(self, rng):
        for _ in range(100):
            inst = random_instance(rng, 1, int(rng.integers(1, 6)))
            result = closed_form_1xn(inst)
            bound = 1e-12 * max(float(inst.marginals.row_targets.sum()), 1.0)
            assert max_abs_residual(result.matrix, inst.marginals) <= bound
        for _ in range(100):
            marg = random_marginals(rng, 2, 2)
            result = closed_form_2x2_singular(marg)
            bound = 1e-12 * max(float(marg.row_targets.sum()), 1.0)
            assert max_abs_residual(result.matrix, marg) <= bound

    def test_nathanson_recovery_sweep(self, rng):
        for _ in range(1000):
            inst = random_unit_target_2x2(rng)
            result = closed_form_2x2(inst)
            expected = nathanson_limit(inst.matrix.entries)
            assert np.max(np.abs(result.matrix - expected)) <= 1e-12

    def test_transpose_invariance_all_supported_shapes(self, rng):
        cases = []
        for _ in range(50):
            cases.append(random_instance(rng, 1, int(rng.integers(2, 5))))
            cases.append(random_instance(rng, int(rng.integers(2, 5)), 1))
            cases.append(random_nonsingular_2x2(rng))
        for inst in cases:
            direct = closed_form_dispatch(inst)
            flipped = closed_form_dispatch(transpose_instance(inst))
            np.testing.assert_allclose(flipped.matrix, direct.matrix.T, atol=1e-12)

    def test_singular_limit_continuity(self):
        # Perturbation family around an exactly singular matrix.
        marg = Marginals([30, 30], [10, 50])
        singular = closed_form_2x2_singular(marg).matrix
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6):
            inst = validate_instance(PositiveMatrix([[1, 2 + eps], [3, 6]]), marg)
            near = closed_form_2x2(inst)
            gaps.append(float(np.max(np.abs(near.matrix - singular))))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-4

    @pytest.mark.parametrize("mu", [1e-6, 1e6])
    def test_matrix_scale_invariance(self, rng, mu):
        for _ in range(100):
            inst = random_nonsingular_2x2(rng)
            scaled = validate_instance(
                PositiveMatrix(mu * inst.matrix.entries), inst.marginals
            )
            base = closed_form_2x2(inst)
            moved = closed_form_2x2(scaled)
            assert np.max(np.abs(moved.matrix - base.matrix)) <= 1e-12

    def test_compensated_seam_agrees_with_direct_form(self):
        # Straddle the compensation threshold: the two evaluation paths must
        # agree far beyond the promised formula accuracy.
        marg = Marginals([30, 30], [10, 50])
        for eps in (5.9e-7, 6.1e-7):
            # det = -3 eps, alpha = 6: ratio eps/2 brackets 3e-7.
            inst = validate_instance(PositiveMatrix([[1, 2 + eps], [3, 6]]), marg)
            result = closed_form_2x2(inst)
            row_res, col_res = residuals(result.matrix, inst.marginals)
            assert np.max(np.abs(row_res)) <= 1e-10 * 60
            assert np.max(np.abs(col_res)) <= 1e-10 * 60

    def test_dispatch_matches_iterative_broadly(self, rng):
        for _ in range(200):
            inst = random_instance(rng, 2, 2)
            closed = closed_form_dispatch(inst)
            iterated = sinkhorn_iterate(inst)
            np.testing.assert_allclose(closed.matrix, iterated.matrix, atol=1e-6)
