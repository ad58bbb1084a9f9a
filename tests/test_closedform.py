import math
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from matbalance import (
    GaugeFix,
    InconsistentMarginals,
    Marginals,
    MatrixBalanceError,
    NearSingular,
    NonPositiveInput,
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
    default_gauge,
    extract_factors,
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
    assert_within_ulps,
    default_factors,
    formula_factors,
    nathanson_limit,
    random_instance,
    random_marginals,
    random_nonsingular_2x2,
    random_unit_target_2x2,
)


def make_instance(entries, row_targets, col_targets):
    return validate_instance(PositiveMatrix(entries), Marginals(row_targets, col_targets))


NATHANSON_INSTANCE = ([[1, 2], [3, 4]], [1, 1], [1, 1])
# Targets 1e369 apart with kappa ~ 4e-124: two entries fall below the
# normal range of the closed form's power-of-two frame.
FRAME_LOST = (
    [[68550829416.276245, 3.1584126424125777e74], [9.46279055561426e118, 5.27782833334734e-113]],
    [3.6486123170513485e-190, 5.274518657411852e179],
    [5.274518657411852e179, 3.6486123170513485e-190],
)
SMALLEST_NORMAL = Decimal(2) ** -1022
SUBNORMAL_SPACING = Decimal(2) ** -1074


def decimal_limit(entries, row_targets, col_targets):
    """The 2x2 limit ``[s11, s12, s21, s22]`` at 1,500 digits, from the exact float data.

    Validation lets the totals differ; the largest target takes the defect,
    as in the closed form.  ``s21`` is the small root of its quadratic where
    kappa <= 1 (swapping the columns otherwise); the rest follow from the targets.
    """
    with localcontext() as ctx:
        ctx.prec = 1500
        (a11, a12), (a21, a22) = ([Decimal(float(v)) for v in row] for row in entries)
        targets = [Decimal(float(v)) for v in (*row_targets, *col_targets)]
        top = max(range(4), key=targets.__getitem__)
        side = 2 if top < 2 else 0
        targets[top] = targets[side] + targets[side + 1] - targets[top ^ 1]
        r1, r2, c1, c2 = targets
        kappa = (a11 * a22) / (a12 * a21)
        swap = kappa > 1
        if swap:
            kappa, c1, c2 = 1 / kappa, c2, c1
        b = c1 + r2 + kappa * (c2 - r2)
        s21 = 2 * c1 * r2 / (b + (b * b - 4 * (1 - kappa) * c1 * r2).sqrt())
        limit = [c1 - s21, r1 - c1 + s21, s21, r2 - s21]
        return [limit[1], limit[0], limit[3], limit[2]] if swap else limit


def assert_near_limit(matrix, limit, rtol):
    """Each entry within ``rtol`` of the limit, or within one spacing where the limit is subnormal."""
    for got, want in zip(np.ravel(matrix).tolist(), limit):
        gap = abs(Decimal(got) - want)
        assert gap <= Decimal(rtol) * want or (want < SMALLEST_NORMAL and gap <= SUBNORMAL_SPACING), (got, want)


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
            apply_scaling(inst.matrix, default_factors(inst, result)), result.matrix, rtol=1e-15
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
        # the factors, read off with the column and the row pinned, swapped back.
        rng = np.random.default_rng(rows)
        row_targets = rng.uniform(0.5, 3.0, rows)
        entries = rng.uniform(0.2, 5.0, (rows, 1)) * 10.0 ** rng.uniform(-5, 5, (rows, 1))
        # A column target off by 1e-12, so the residual depends on the summation order.
        inst = make_instance(entries, row_targets, [row_targets.sum() * (1 + 1e-12)])
        inner = closed_form_1xn(transpose_instance(inst))
        result = closed_form_nx1(inst)
        assert result.matrix.tobytes() == inner.matrix.T.tobytes()
        assert result.matrix.shape == (rows, 1)
        pair = extract_factors(inst, result, GaugeFix("unit_col_factor", 0))
        inner_pair = extract_factors(transpose_instance(inst), inner, GaugeFix("unit_row_factor", 0))
        assert pair.row_factors.tobytes() == inner_pair.col_factors.tobytes()
        assert pair.col_factors.tobytes() == inner_pair.row_factors.tobytes()
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

    def test_overflowing_gate_discriminant_leaves_the_limit_exact(self):
        # The gate's discriminant of this near-singular instance passes the
        # float range, which reads inf instead of raising OverflowError; the
        # closed form never forms it and gives the limit.
        entries, rows, cols = [[1, 2], [3, 6.0000001]], [1e200, 1e180], [5e199, 5e199]
        inst = make_instance(entries, rows, cols)
        assert quadratic_data(inst).delta == float("inf")
        result = closed_form_dispatch(inst)
        assert result.method == "closed_form_2x2"
        assert_near_limit(result.matrix, decimal_limit(entries, rows, cols), 1e-14)


class TestClosedForm2x2:
    def test_nathanson_golden(self):
        result = closed_form_2x2(make_instance(*NATHANSON_INSTANCE))
        np.testing.assert_allclose(
            result.matrix, nathanson_limit([[1, 2], [3, 4]]), atol=1e-12
        )
        assert result.method == "closed_form_2x2"

    def test_lower_right_entry_from_row_factor(self):
        # s22 = a22 * r2 in the unit-lower-right-column-factor gauge.
        inst = make_instance(*NATHANSON_INSTANCE)
        result = closed_form_2x2(inst)
        assert result.matrix[1, 1] == pytest.approx(4 * 0.112372, abs=1e-5)
        pair = default_factors(inst, result)
        assert pair.col_factors[1] == 1.0
        assert pair.row_factors[1] == pytest.approx(0.112372, abs=1e-5)

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

    def test_singular_matrix_gives_the_limit_and_factors(self):
        # kappa = 1 is an ordinary input: the limit R_i C_j / total, with c2 = 1 factors.
        inst = make_instance([[2, 4], [3, 6]], [30, 30], [10, 50])
        result = closed_form_2x2(inst)
        assert result.method == "closed_form_2x2"
        np.testing.assert_allclose(result.matrix, [[5, 25], [5, 25]], rtol=1e-15, atol=0)
        pair = default_factors(inst, result)
        assert pair.col_factors[1] == 1.0
        np.testing.assert_allclose(apply_scaling(inst.matrix, pair), result.matrix, rtol=1e-15, atol=0)

    # At these scales a11*a22 or the targets' products pass the float range;
    # the cross-ratio and the power-of-two target frame do not.
    @pytest.mark.parametrize("scale, target", [(1.0, 1e308), (1e80, 1.0)], ids=["targets 1e308", "matrix 1e80"])
    def test_extreme_scales_give_the_scaled_limit_without_warnings(self, scale, target):
        base = closed_form_2x2(make_instance(*NATHANSON_INSTANCE)).matrix
        inst = make_instance(np.array([[1.0, 2.0], [3.0, 4.0]]) * scale, [target] * 2, [target] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = closed_form_2x2(inst)
        np.testing.assert_allclose(result.matrix, base * target, rtol=1e-15, atol=0)

    # No float limit, or one the formula cannot keep: a typed error with no
    # numpy warning before it, and no row-factor branch to report.
    @pytest.mark.parametrize("entries, rows, cols", [
        ([[1e300, 1e-300], [1e-300, 1e300]], [1.0, 1.0], [1.0, 1.0]),
        ([[1e-300, 1e300], [1e300, 1e-300]], [1.0, 1.0], [1.0, 1.0]),
        FRAME_LOST,
    ], ids=["kappa inf", "kappa 0", "two entries lost"])
    def test_unkept_limit_raises_typed_error_without_warnings(self, entries, rows, cols):
        inst = make_instance(entries, rows, cols)
        for solve in (closed_form_2x2, closed_form_dispatch):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonPositiveRoot) as raised:
                    solve(inst)
            assert math.isnan(raised.value.minus_root) and math.isnan(raised.value.plus_root)

    def test_factors_reproduce_matrix(self, rng):
        for _ in range(50):
            inst = random_nonsingular_2x2(rng)
            result = closed_form_2x2(inst)
            np.testing.assert_allclose(
                apply_scaling(inst.matrix, default_factors(inst, result)), result.matrix, rtol=1e-12
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
            closed_form_2x2_singular(marginals)
        with pytest.raises(InconsistentMarginals) as validated:
            validate_instance(PositiveMatrix([[2, 4], [3, 6]]), marginals)
        assert str(singular.value) == str(validated.value)
        assert singular.value.defect == validated.value.defect == 1.5

    def test_wrong_shape(self):
        with pytest.raises(WrongShape):
            closed_form_2x2_singular(Marginals([1, 1, 1], [1, 1, 1]))


class TestDispatch:
    def test_unsupported_shape(self, rng):
        with pytest.raises(UnsupportedShape):
            closed_form_dispatch(random_instance(rng, 3, 3))

    def test_exact_zero_det_takes_the_2x2_formula(self):
        inst = make_instance([[2, 4], [3, 6]], [1, 1], [1, 1])
        result = closed_form_dispatch(inst)
        assert result.method == "closed_form_2x2"
        np.testing.assert_array_equal(result.matrix, [[0.5, 0.5], [0.5, 0.5]])
        assert default_factors(inst, result).col_factors[1] == 1.0

    def test_nonsingular_routes_to_formula(self):
        result = closed_form_dispatch(make_instance(*NATHANSON_INSTANCE))
        assert result.method == "closed_form_2x2"
        np.testing.assert_allclose(
            result.matrix, nathanson_limit([[1, 2], [3, 4]]), atol=1e-12
        )

    @pytest.mark.parametrize("entries", [[[1, 2], [3, 4]], [[2, 4], [3, 6]]], ids=["nonsingular", "singular"])
    @pytest.mark.parametrize("defect", [1e-14, 1e-11, 9e-10])
    def test_target_totals_that_differ_within_tolerance_give_one_matrix(self, entries, defect):
        # Validation accepts totals 1e-9 apart; the four entries must still
        # be one D1 A D2, with the defect left on the largest target alone.
        inst = make_instance(entries, [1, 1], [1, 1 + defect])
        result = closed_form_dispatch(inst)
        (a11, a12), (a21, a22) = entries
        (s11, s12), (s21, s22) = result.matrix.tolist()
        assert (s11 / s12) * (s22 / s21) == pytest.approx((a11 / a12) * (a22 / a21), rel=1e-14)
        row_res, col_res = residuals(result.matrix, inst.marginals)
        assert max(abs(row_res[0]), abs(row_res[1]), abs(col_res[0])) <= 2.3e-16
        assert abs(col_res[1]) == pytest.approx((1 + defect) - 1, rel=1e-6)

    def test_singular_takes_the_instance_tolerance(self):
        # Validated at 1e-2, the singular limit is not checked again at the default tolerance.
        inst = validate_instance(PositiveMatrix([[1, 2], [2, 4]]), Marginals([1, 1], [1, 1.001]), consistency_tol=1e-2)
        result = closed_form_dispatch(inst)
        assert result.method == "closed_form_2x2"
        assert_near_limit(result.matrix, decimal_limit([[1, 2], [2, 4]], [1, 1], [1, 1.001]), 1e-15)

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

    def test_near_singular_entries_meet_the_targets(self):
        # Near-singular: det/alpha = eps/2, 2.95e-7 and 3.05e-7.
        marg = Marginals([30, 30], [10, 50])
        for eps in (5.9e-7, 6.1e-7):
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


def _draw(rng, k):
    """Draw k of a seeded mix over 1xn, nx1 and generic, near-singular and singular 2x2."""
    kind = k % 5
    n = 2 + k % 7
    shape = {0: (1, n), 1: (n, 1)}.get(kind, (2, 2))
    entries = rng.uniform(0.2, 5.0, shape)
    if kind == 3:
        a, b, c = entries.ravel()[:3]
        entries[1, 1] = b * c / a * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10.0, -7.0))
    elif kind == 4:
        entries[1] = entries[0] * float(rng.integers(1, 10))
    rows = rng.uniform(0.5, 3.0, shape[0])
    weights = rng.uniform(0.5, 3.0, shape[1])
    return entries, rows, rows.sum() * weights / weights.sum()


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want) / want))


class TestClosedFormInvariances:
    """``S(D1 A D2; R, C) = S(A; R, C)`` and its relatives, on closed_form_dispatch."""

    DRAWS = 200

    def test_power_of_two_target_scaling_is_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for k in range(self.DRAWS):
            entries, rows, cols = _draw(rng, k)
            power = int(rng.integers(-1000, 1001))
            base = closed_form_dispatch(make_instance(entries, rows, cols))
            moved = closed_form_dispatch(make_instance(entries, np.ldexp(rows, power), np.ldexp(cols, power)))
            assert moved.method == base.method
            assert moved.matrix.tobytes() == np.ldexp(base.matrix, power).tobytes()

    def test_scalings_transposition_and_permutations(self):
        rng = np.random.default_rng(43)
        for k in range(self.DRAWS):
            entries, rows, cols = _draw(rng, k)
            base = closed_form_dispatch(make_instance(entries, rows, cols)).matrix
            lam, mu = 10.0 ** rng.uniform(-300, 300, 2)
            d1, d2 = 10.0 ** rng.uniform(-100, 100, rows.size), 10.0 ** rng.uniform(-100, 100, cols.size)
            p, q = rng.permutation(rows.size), rng.permutation(cols.size)
            cases = {
                "targets x 10^U(-300,300)": (entries, lam * rows, lam * cols, lam * base),
                "matrix x 10^U(-300,300)": (mu * entries, rows, cols, base),
                "D1 A D2": (d1[:, None] * entries * d2[None, :], rows, cols, base),
                "transposed": (entries.T, cols, rows, base.T),
                "permuted": (entries[p][:, q], rows[p], cols[q], base[p][:, q]),
            }
            for what, (a, r, c, want) in cases.items():
                got = closed_form_dispatch(make_instance(a, r, c)).matrix
                assert _relative_gap(got, want) <= 1e-14, (k, what)


class TestNearSingular:
    """A cross-ratio within 1e-12 of 1 is an ordinary input, not rounded to the singular limit."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_draws_land_within_1e_14_of_the_limit(self):
        rng = np.random.default_rng(53)
        for _ in range(500):
            a, b, c = rng.uniform(0.2, 5.0, 3)
            eps = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -12.0)
            entries = [[a, b], [c, b * c / a * (1.0 + eps)]]
            rows, weights = rng.uniform(0.5, 3.0, 2), rng.uniform(0.5, 3.0, 2)
            cols = rows.sum() * weights / weights.sum()
            result = closed_form_dispatch(make_instance(entries, rows, cols))
            assert result.method == "closed_form_2x2"
            assert_near_limit(result.matrix, decimal_limit(entries, rows, cols), 1e-14)


class TestAdversarialMagnitudes:
    """Entries 10^U(-150,150) and targets 10^U(-300,300), exactly consistent.

    Each draw gives the limit to 1e-12 (or to one spacing where it is
    subnormal), or a typed error; never a wrong answer or a bare one.
    """

    def test_limit_or_typed_error(self):
        rng = np.random.default_rng(47)
        answered = 0
        for _ in range(400):
            entries = 10.0 ** rng.uniform(-150, 150, (2, 2))
            rows = 10.0 ** rng.uniform(-300, 300, 2)
            cols = rows.copy() if rng.uniform() < 0.5 else rows[::-1].copy()
            try:
                result = closed_form_dispatch(make_instance(entries, rows, cols))
            except MatrixBalanceError:
                continue
            assert_near_limit(result.matrix, decimal_limit(entries, rows, cols), 1e-12)
            answered += 1
        assert answered >= 150

    # Entry ratios past the float range with kappa inside it; targets so far
    # apart that the smallest entry leaves the frame's range and is rebuilt;
    # kappa 1e12 with totals a few ulps apart.
    @pytest.mark.parametrize("entries, rows, cols", [
        ([[1e-170, 1e150], [1e-140, 1e140]], [1, 1], [1, 1]),
        ([[1e160, 1e-160], [1e140, 1e-140]], [1, 1], [1, 1]),
        ([[1, 2], [2, 4]], [1e150, 1e-10], [1e150, 1e-10]),
        ([[1, 2], [2, 4]], [1e300, 1e10], [1e300, 1e10]),
        ([[1, 2], [3, 4]], [1e300, 1e10], [1e300, 1e10]),
        ([[1, 1e-6], [1e-6, 1]], [1, 1], [1, 1 + 1e-14]),
        (
            [[3.656738580577423e47, 6.007777028048442e-142], [1.813517776426316e-16, 2.815975604125253e-118]],
            [7.341633690908898e92, 4.046282994774649e-66],
            [7.341633690908898e92, 4.046282994774649e-66],
        ),
    ], ids=["a11/a12 1e-320", "a11/a12 1e320", "singular 1e160 apart", "singular rebuilt", "rebuilt",
            "kappa 1e12 totals apart", "kappa 9.5e86 targets 1e158 apart"])
    def test_extreme_ratios_give_the_limit(self, entries, rows, cols):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = closed_form_dispatch(make_instance(entries, rows, cols))
        assert_near_limit(result.matrix, decimal_limit(entries, rows, cols), 1e-14)


class TestCheckedWhereMade:
    """Closed forms skip the public constructors' scans: what they report must equal what those give."""

    def _draws(self):
        rng = np.random.default_rng(61)
        for k in range(200):  # 1xn, nx1, and generic, near-singular and singular (kappa = 1) 2x2
            yield _draw(rng, k)
        for _ in range(400):  # the magnitudes of TestAdversarialMagnitudes
            entries = 10.0 ** rng.uniform(-150, 150, (2, 2))
            rows = 10.0 ** rng.uniform(-300, 300, 2)
            yield entries, rows, rows.copy() if rng.uniform() < 0.5 else rows[::-1].copy()
        for k in range(100):  # single rows and columns, some with factors past the float range
            n = 1 + k % 6
            entries = 10.0 ** rng.uniform(-320, 300, n)
            targets = 10.0 ** rng.uniform(-300, 300, n)
            total = np.array([targets.sum()])
            yield (entries[None, :], total, targets) if k % 2 else (entries[:, None], targets, total)

    @pytest.mark.parametrize("kind", ["1xn", "nx1", "2x2", "2x2-unit", "2x2-near-singular", "2x2-singular"])
    def test_benchmark_kinds_default_gauge_rebuilds_s_within_8_ulps(self, kind):
        # The closed-form kinds of the small-mixed benchmark, whose results carry no factors to check.
        rng = np.random.default_rng(83)
        for k in range(100):
            if kind in ("1xn", "nx1"):
                n = 2 + k % 29
                entries = rng.uniform(0.2, 5.0, (1, n) if kind == "1xn" else (n, 1))
            elif kind == "2x2-near-singular":
                a, b, c = rng.uniform(0.2, 5.0, 3)
                eps = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10.0, -7.0)
                entries = np.array([[a, b], [c, b * c / a * (1.0 + eps)]])
            elif kind == "2x2-singular":
                a, b = rng.integers(1, 1000, 2).astype(float)
                entries = np.array([[a, b], [a, b]]) * [[1.0], [float(rng.integers(1, 10))]]
            else:
                entries = rng.uniform(0.2, 5.0, (2, 2))
            if kind == "2x2-unit":
                instance = make_instance(entries, np.ones(2), np.ones(2))
            else:
                instance = validate_instance(PositiveMatrix(entries), random_marginals(rng, *entries.shape))
            result = closed_form_dispatch(instance)
            pair = default_factors(instance, result)
            gauge = default_gauge(instance.rows, instance.cols)
            pinned = pair.row_factors if gauge.kind == "unit_row_factor" else pair.col_factors
            assert pinned[gauge.index] == 1.0
            assert_within_ulps(apply_scaling(instance.matrix, pair), result.matrix, 8)

    def test_residual_and_factors_match_the_public_checks(self):
        normal = subnormal = refused = exact = 0
        for entries, rows, cols in self._draws():
            instance = make_instance(entries, rows, cols)
            try:
                result = closed_form_dispatch(instance)
            except MatrixBalanceError:
                continue
            assert result.max_marginal_residual == max_abs_residual(result.matrix, instance.marginals)
            want, plain = formula_factors(instance, result.matrix)
            want = [np.asarray(v) for v in want]
            # Read off in the default gauge, the factors are the formula's, or refused if one leaves the float range.
            if not all(np.all((v > 0) & (v < np.inf)) for v in want):
                with pytest.raises(NonPositiveInput):
                    default_factors(instance, result)
                refused += 1
                continue
            pair = default_factors(instance, result)
            np.testing.assert_array_equal(pair.row_factors, want[0])
            if plain:
                np.testing.assert_array_equal(pair.col_factors, want[1])
            else:
                assert_within_ulps(pair.col_factors, want[1], 2)
                exact += 1
            if all(np.all(v >= sys.float_info.min) for v in want):
                normal += 1
            else:
                subnormal += 1
        assert normal >= 300 and subnormal >= 1 and refused >= 50 and exact >= 1
