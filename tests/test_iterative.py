import re

import numpy as np
import pytest

from matbalance import (
    FactorsUnavailable,
    GaugeFix,
    IterationConfig,
    Marginals,
    MatrixBalanceError,
    NonPositiveInput,
    NonPositiveLambda,
    NotConverged,
    PositiveMatrix,
    ScaledResult,
    ScalingPair,
    UnrepresentableLimit,
    UnsupportedShape,
    apply_scaling,
    closed_form_2x2_singular,
    closed_form_dispatch,
    extract_factors,
    gauge_transform,
    max_abs_residual,
    residuals,
    sinkhorn_iterate,
    transpose_instance,
    validate_instance,
)

from conftest import assert_within_ulps, nathanson_limit, random_instance, random_marginals


_GENERIC_3X3 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5], [7.0, 8.0, 9.0]])
# Rank one: balanced after one sweep.
_RANK_ONE_3X3 = np.outer([1.0, 2.0, 3.0], [1.0, 1.5, 2.0])
_TARGETS_3X3 = Marginals([1.0, 2.0, 3.0], [2.5, 2.0, 1.5])

EXTREME_SCALE_CASES = [
    pytest.param(base, scale * base, _TARGETS_3X3, id=f"{name}-{scale:g}")
    for name, base in [("generic", _GENERIC_3X3), ("rank-one", _RANK_ONE_3X3)]
    for scale in (1e300, 1e-300)
] + [
    # After one sweep r = [1e160, 1e10] and c = [5e149, 0.5]: r_1 * c_1 is
    # 5e309, beyond the float range, while every iterate entry stays near 5e9.
    pytest.param(
        np.ones((2, 2)),
        np.outer([1e-150, 1.0], [1e-150, 1.0]),
        Marginals([1e10, 1e10], [1e10, 1e10]),
        id="split-rank-one",
    ),
]


def unit_2x2(entries):
    return validate_instance(PositiveMatrix(entries), Marginals([1, 1], [1, 1]))


class TestConfig:
    def test_defaults(self):
        cfg = IterationConfig()
        assert cfg.tolerance == 1e-9
        assert cfg.max_iterations == 1000

    @pytest.mark.parametrize("kwargs", [
        {"tolerance": 0.0},
        {"tolerance": -1e-9},
        {"tolerance": np.inf},
        {"tolerance": np.nan},
        {"max_iterations": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            IterationConfig(**kwargs)

    @pytest.mark.parametrize("max_iterations", [2.5, 3.0, True, False, "3", None])
    def test_rejects_non_integer_max_iterations(self, max_iterations):
        # 2.5 would run 3 sweeps and True 1.
        with pytest.raises(TypeError, match="max_iterations must be an integer"):
            IterationConfig(max_iterations=max_iterations)

    @pytest.mark.parametrize("max_iterations", [np.int64(7), np.uint8(7), 7])
    def test_max_iterations_is_stored_as_int(self, max_iterations):
        cfg = IterationConfig(max_iterations=max_iterations)
        assert type(cfg.max_iterations) is int and cfg.max_iterations == 7

    def test_gauge_fix_validation(self):
        with pytest.raises(ValueError):
            GaugeFix("diagonal", 0)
        with pytest.raises(ValueError):
            GaugeFix("unit_row_factor", -1)


class TestSinkhornIterate:
    def test_rank_one_limit_is_outer_product(self):
        result = sinkhorn_iterate(unit_2x2([[2, 4], [3, 6]]))
        np.testing.assert_allclose(result.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-9)

    def test_nathanson_golden(self):
        result = sinkhorn_iterate(unit_2x2([[1, 2], [3, 4]]))
        expected = nathanson_limit([[1, 2], [3, 4]])
        np.testing.assert_allclose(result.matrix, expected, atol=1e-8)

    def test_arbitrary_sums_example_converges(self):
        inst = validate_instance(
            PositiveMatrix([[1, 2], [400, 9999 / 17]]),
            Marginals([1 / 3, 16 / 17], [1 / 2, 79 / 102]),
        )
        result = sinkhorn_iterate(inst)
        assert result.converged
        assert max_abs_residual(result.matrix, inst.marginals) <= 1e-9

    def test_converged_results_meet_scaled_residual_bounds(self, rng):
        for _ in range(50):
            inst = random_instance(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            result = sinkhorn_iterate(inst)
            row_res = result.matrix.sum(axis=1) - inst.marginals.row_targets
            col_res = result.matrix.sum(axis=0) - inst.marginals.col_targets
            assert np.all(np.abs(row_res) <= 1e-9 * np.maximum(1, inst.marginals.row_targets))
            assert np.all(np.abs(col_res) <= 1e-9 * np.maximum(1, inst.marginals.col_targets))

    def test_factors_reproduce_matrix_exactly(self, rng):
        for _ in range(25):
            inst = random_instance(rng, 3, 4)
            result = sinkhorn_iterate(inst)
            rebuilt = apply_scaling(inst.matrix, result.factors)
            np.testing.assert_array_equal(rebuilt, result.matrix)

    def test_transpose_commutation(self, rng):
        for _ in range(25):
            inst = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            direct = sinkhorn_iterate(inst)
            flipped = sinkhorn_iterate(transpose_instance(inst))
            np.testing.assert_allclose(flipped.matrix, direct.matrix.T, atol=1e-8)

    def test_rank_one_maximum_entropy(self, rng):
        for _ in range(25):
            rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            u = rng.uniform(0.5, 2.0, rows)
            v = rng.uniform(0.5, 2.0, cols)
            inst = random_instance(rng, rows, cols)
            inst = validate_instance(PositiveMatrix(np.outer(u, v)), inst.marginals)
            result = sinkhorn_iterate(inst)
            expected = np.outer(
                inst.marginals.row_targets, inst.marginals.col_targets
            ) / inst.marginals.row_targets.sum()
            np.testing.assert_allclose(result.matrix, expected, atol=1e-8)

    @pytest.mark.parametrize("mu", [1e-4, 0.1, 10.0, 1e4])
    def test_matrix_scale_absorbed_by_gauge(self, rng, mu):
        inst = random_instance(rng, 3, 3)
        scaled = validate_instance(PositiveMatrix(mu * inst.matrix.entries), inst.marginals)
        base = sinkhorn_iterate(inst)
        moved = sinkhorn_iterate(scaled)
        np.testing.assert_allclose(moved.matrix, base.matrix, atol=1e-8)

    def test_not_converged_carries_partial_result(self):
        cfg = IterationConfig(max_iterations=2)
        with pytest.raises(NotConverged) as err:
            sinkhorn_iterate(unit_2x2([[1, 1000], [1, 1]]), cfg)
        partial = err.value.result
        assert not partial.converged
        assert partial.iterations == 2
        assert partial.matrix.shape == (2, 2)

    def test_limit_past_the_float_range_is_typed(self):
        # The factors stay in range, but the off-diagonal entries of the
        # limit underflow to 0: a defect of the float route, not bad input.
        inst = unit_2x2([[1e300, 1e-300], [1e-300, 1e300]])
        with pytest.raises(UnrepresentableLimit, match=r"positive float range \(4\.9e-324 to 1\.8e308\)") as err:
            sinkhorn_iterate(inst)
        assert not isinstance(err.value, ValueError)

    def test_not_converged_message_reports_finite_metric(self):
        cfg = IterationConfig(max_iterations=2)
        with pytest.raises(NotConverged) as err:
            sinkhorn_iterate(unit_2x2([[1, 1000], [1, 1]]), cfg)
        residual = re.search(r"max marginal residual (\S+)\)", str(err.value))
        assert residual is not None
        assert np.isfinite(float(residual.group(1)))
        assert float(residual.group(1)) == err.value.result.max_marginal_residual

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("base_entries, moved_entries, targets", EXTREME_SCALE_CASES)
    def test_extreme_matrix_scale_solves_without_warnings(self, base_entries, moved_entries, targets):
        # moved_entries is a diagonal rescaling of base_entries, so both share one limit.
        base = sinkhorn_iterate(validate_instance(PositiveMatrix(base_entries), targets))
        moved = sinkhorn_iterate(validate_instance(PositiveMatrix(moved_entries), targets))
        assert moved.converged
        atol = 1e-9 * max(1.0, float(targets.row_targets.max()))
        np.testing.assert_allclose(moved.matrix, base.matrix, rtol=0, atol=atol)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-320, 1e307], ids=["subnormal row sums", "row sums overflow"])
    @pytest.mark.parametrize("targets", [Marginals([1, 1, 1], [1, 1, 1]), _TARGETS_3X3], ids=["unit", "mixed"])
    def test_matrix_past_the_normal_range_gives_the_scale_one_limit(self, scale, targets):
        # Row sums of 1e-320 * A are subnormal, and those of 1e307 * A
        # overflow.  1e-320 is an exact multiple of the subnormal spacing, so
        # that matrix is exactly proportional to A; 1e307 * A is within
        # rounding of it.
        base = sinkhorn_iterate(validate_instance(PositiveMatrix(_GENERIC_3X3), targets))
        moved = sinkhorn_iterate(validate_instance(PositiveMatrix(_GENERIC_3X3 * scale), targets))
        assert moved.iterations == base.iterations
        assert np.max(np.abs(moved.matrix - base.matrix) / base.matrix) <= 1e-15
        # The sweeps ran on the matrix moved near 1 by a power of two, and the
        # factors carry that power back without changing a bit of the limit.
        shift = -np.frexp(np.max(_GENERIC_3X3 * scale))[1]
        near_one = sinkhorn_iterate(validate_instance(PositiveMatrix(np.ldexp(_GENERIC_3X3 * scale, shift)), targets))
        np.testing.assert_array_equal(moved.matrix, near_one.matrix)
        np.testing.assert_array_equal(apply_scaling(_GENERIC_3X3 * scale, moved.factors), moved.matrix)

    def test_stop_metrics_agree_with_plain_scaling(self):
        rng = np.random.default_rng(7)
        entries = np.exp(rng.normal(0.0, 1.0, size=(200, 300)))
        targets = random_marginals(rng, 200, 300)
        inst = validate_instance(PositiveMatrix(entries), targets)
        by_norm = sinkhorn_iterate(inst)
        reference = entries.copy()
        for _ in range(200):
            reference *= (targets.row_targets / reference.sum(axis=1))[:, None]
            reference *= targets.col_targets / reference.sum(axis=0)
        assert max_abs_residual(reference, targets) < 1e-13
        np.testing.assert_allclose(by_norm.matrix, reference, rtol=0, atol=1e-9)

    def test_iteration_count_reported(self):
        result = sinkhorn_iterate(unit_2x2([[1, 2], [3, 4]]))
        assert 1 <= result.iterations <= 1000
        assert result.method == "iterative"


def scaled_targets(instance, scale):
    marginals = instance.marginals
    return validate_instance(
        instance.matrix, Marginals(scale * marginals.row_targets, scale * marginals.col_targets)
    )


class TestTargetScaleInvariance:
    """``S(A; s R, s C) = s S(A; R, C)`` on the iterative route, in the sweeps of the scale-1 solve."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaled_targets_give_the_scaled_limit(self):
        rng = np.random.default_rng(15)
        for draw in range(200):
            base = random_instance(rng, int(rng.integers(1, 31)), int(rng.integers(2, 21)))
            scale = 10.0 ** rng.uniform(-300.0, 300.0)
            expected = sinkhorn_iterate(base)
            moved = sinkhorn_iterate(scaled_targets(base, scale))
            what = f"draw {draw}: {base.rows}x{base.cols}, targets x{scale:.3g}"
            assert moved.iterations == expected.iterations, what
            np.testing.assert_allclose(moved.matrix / scale, expected.matrix, rtol=1e-12, atol=0, err_msg=what)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_targets_give_the_limit_or_a_typed_error(self):
        # Targets of 1e-315 carry about 8 significant digits, too few to meet
        # a tolerance of 1e-9.
        base = random_instance(np.random.default_rng(16), 12, 15)
        expected = sinkhorn_iterate(base)
        try:
            moved = sinkhorn_iterate(scaled_targets(base, 1e-315))
        except MatrixBalanceError:
            return
        np.testing.assert_allclose(moved.matrix / 1e-315, expected.matrix, rtol=1e-9, atol=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rows, cols", [(5, 7), (12, 15), (30, 20)])
    def test_subnormal_targets_stop_once_the_factors_repeat(self, rows, cols):
        # At targets of 1e-315 the residuals cannot reach a gate of 1e-9 of
        # them, and the sweeps soon return to factors already seen.
        base = random_instance(np.random.default_rng(0), rows, cols)
        with pytest.raises(NotConverged) as err:
            sinkhorn_iterate(scaled_targets(base, 1e-315))
        partial = err.value.result
        assert partial.iterations <= 20
        assert str(err.value) == (
            f"no convergence after {partial.iterations} iterations "
            f"(max marginal residual {partial.max_marginal_residual!r})"
        )
        # Subnormal entries are spaced 2**-1074 apart; the partial result lies
        # within a few spacings of the limit.
        limit = 1e-315 * sinkhorn_iterate(base).matrix
        assert np.max(np.abs(partial.matrix - limit)) <= 8 * np.nextafter(0.0, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-250, 1e-100, 1e-12, 1e-6, 1e6, 1e12, 1e100, 1e250])
    def test_lands_as_near_the_limit_at_every_target_scale(self, scale):
        base = random_instance(np.random.default_rng(17), 4, 5)
        limit = sinkhorn_iterate(base, IterationConfig(tolerance=1e-14)).matrix
        at_scale_one = sinkhorn_iterate(base)
        moved = sinkhorn_iterate(scaled_targets(base, scale))
        assert moved.iterations == at_scale_one.iterations
        gap = np.max(np.abs(moved.matrix / scale - limit) / limit)
        assert gap < 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("matrix_exponent, target_exponent", [
        (0, 900), (0, -900), (900, 0), (-900, 0), (600, 600), (-600, -600), (450, -450), (-450, 450),
    ])
    @pytest.mark.parametrize("case", ["grid 12x15", "ill-conditioned 19x24"])
    def test_power_of_two_scales_commute_bit_for_bit(self, case, matrix_exponent, target_exponent):
        # Scaling A by 2**m and the targets by 2**t scales every rounded
        # quantity of a sweep by an exact power of two, the stop test included.
        base = stacked_loop_instance(case, 0)
        matrix_scale, target_scale = 2.0**matrix_exponent, 2.0**target_exponent
        moved = validate_instance(
            PositiveMatrix(base.matrix.entries * matrix_scale),
            Marginals(base.marginals.row_targets * target_scale, base.marginals.col_targets * target_scale),
        )
        expected, result = sinkhorn_iterate(base), sinkhorn_iterate(moved)
        assert result.iterations == expected.iterations
        np.testing.assert_array_equal(result.matrix, expected.matrix * target_scale)
        np.testing.assert_array_equal(
            result.factors.row_factors, expected.factors.row_factors * (target_scale / matrix_scale)
        )
        np.testing.assert_array_equal(result.factors.col_factors, expected.factors.col_factors)
        assert result.max_marginal_residual == expected.max_marginal_residual * target_scale


class TestMatrixSideInvariance:
    """``S(mu A) = S(D1 A D2) = S(A)``, and ``S`` commutes with transposition and permutations.

    Seeded draws from 1x1 to 30x30 at tolerance 1e-12, each checked against
    the solve of the untransformed instance.  A matrix scale or a
    permutation changes only the rounding of the same sweeps, so the two
    agree within 1e-14 relative.  ``D1 A D2`` and the transpose start from
    another iterate and stop at another sweep; each stop is within a few
    tolerances of the limit, so they agree within 1e-10.  A case may
    instead raise a typed :class:`MatrixBalanceError`, never anything else.
    """

    TIGHT = IterationConfig(tolerance=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_transformed_matrices_give_the_same_limit(self):
        rng = np.random.default_rng(59)
        for draw in range(200):
            base = random_instance(rng, int(rng.integers(1, 31)), int(rng.integers(1, 31)))
            a, r, c = base.matrix.entries, base.marginals.row_targets, base.marginals.col_targets
            want = sinkhorn_iterate(base, self.TIGHT).matrix
            mu = 10.0 ** rng.uniform(-300.0, 300.0)
            d1, d2 = 10.0 ** rng.uniform(-100.0, 100.0, r.size), 10.0 ** rng.uniform(-100.0, 100.0, c.size)
            p, q = rng.permutation(r.size), rng.permutation(c.size)
            cases = {
                "matrix x 10^U(-300,300)": (mu * a, r, c, want, 1e-14),
                "permuted": (a[p][:, q], r[p], c[q], want[p][:, q], 1e-14),
                "D1 A D2": (d1[:, None] * a * d2[None, :], r, c, want, 1e-10),
                "transposed": (a.T, c, r, want.T, 1e-10),
            }
            for what, (entries, rows, cols, limit, bound) in cases.items():
                instance = validate_instance(PositiveMatrix(entries), Marginals(rows, cols))
                try:
                    got = sinkhorn_iterate(instance, self.TIGHT).matrix
                except MatrixBalanceError:
                    continue
                assert np.max(np.abs(got - limit) / limit) <= bound, (draw, what)


class TestToleranceBelowRounding:
    @pytest.mark.parametrize("case", ["grid 3x5", "grid 12x15", "grid 30x30"])
    def test_ends_in_not_converged(self, case):
        # (rows + cols) * eps is at least 1.8e-15 here; no residual stays
        # within 1e-20 of its target.
        instance = stacked_loop_instance(case, 0)
        with pytest.raises(NotConverged) as err:
            sinkhorn_iterate(instance, IterationConfig(tolerance=1e-20, max_iterations=200))
        result = err.value.result
        # The run may stop early, once the factors repeat.
        assert result.iterations <= 200
        assert 0 < result.max_marginal_residual < 1e-12


def separate_halves_loop(instance, config):
    """``sinkhorn_iterate`` as written before its stacked buffers: fresh row and column arrays per sweep.

    The reference for the stacked loop, which must give the same bits.
    """
    entries = instance.matrix.entries
    row_targets = instance.marginals.row_targets
    col_targets = instance.marginals.col_targets
    row_gate = config.tolerance * row_targets
    col_gate = config.tolerance * col_targets
    r, c = np.ones(instance.rows), np.ones(instance.cols)
    a_c = entries @ c
    iterations, converged = 0, False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while iterations < config.max_iterations:
            iterations += 1
            r = row_targets / a_c
            at_r = entries.T @ r
            c = col_targets / at_r
            a_c = entries @ c
            if not (r.min() > 0 and c.min() > 0 and r.max() < np.inf and c.max() < np.inf):
                raise NonPositiveInput(
                    f"scaling factors left the positive float range at sweep {iterations}: "
                    "the matrix or target magnitudes exceed double precision"
                )
            if np.all(np.abs(r * a_c - row_targets) <= row_gate) and np.all(
                np.abs(c * at_r - col_targets) <= col_gate
            ):
                converged = True
                break
    factors = ScalingPair(r, c)
    matrix = apply_scaling(instance.matrix, factors)
    row_res, col_res = residuals(matrix, instance.marginals)
    residual = max(float(np.max(np.abs(row_res))), float(np.max(np.abs(col_res))))
    result = ScaledResult(matrix, factors, iterations, residual, converged, "iterative")
    if not converged:
        raise NotConverged(
            f"no convergence after {iterations} iterations "
            f"(max marginal residual {residual!r})",
            result=result,
        )
    return result


def solve_outcome(solve, instance, config):
    """The error type and text, if any, then the bits of matrix, factors, iterations and max residual."""
    try:
        result, error = solve(instance, config), None
    except NotConverged as exc:
        result, error = exc.result, (NotConverged, str(exc))
    except NonPositiveInput as exc:
        return (NonPositiveInput, str(exc)), None
    arrays = [result.matrix, result.factors.row_factors, result.factors.col_factors]
    bits = [(a.shape, a.tobytes()) for a in arrays]
    return error, (bits, result.iterations, np.float64(result.max_marginal_residual).tobytes())


STACKED_LOOP_CASES = {
    **{f"{rows}x{cols}": (rows, cols, "uniform") for rows, cols in [(1, 1), (1, 7), (1, 29), (7, 1), (29, 1), (2, 2)]},
    **{f"grid {rows}x{cols}": (rows, cols, "uniform") for rows, cols in [(3, 5), (12, 15), (30, 30), (17, 4)]},
    **{f"ill-conditioned {rows}x{cols}": (rows, cols, "ill") for rows, cols in [(10, 10), (19, 24), (30, 13)]},
    "large 300x250": (300, 250, "uniform"),
}


def stacked_loop_instance(case, seed):
    """Uniform entries, or a rank-one log-scale part over a clipped lognormal core (log-entries of sigma ~6.7)."""
    rows, cols, family = STACKED_LOOP_CASES[case]
    rng = np.random.default_rng(seed)
    if family == "uniform":
        return random_instance(rng, rows, cols)
    u, v = rng.standard_normal(rows), rng.standard_normal(cols)
    core = np.clip(rng.standard_normal((rows, cols)), -2.0, 2.0)
    entries = np.exp(6.0 * (u[:, None] + v[None, :]) / np.sqrt(2.0) + 3.5 * core)
    return validate_instance(PositiveMatrix(entries), random_marginals(rng, rows, cols))


class TestStackedLoop:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("case", list(STACKED_LOOP_CASES))
    def test_matches_separate_halves_bit_for_bit(self, case, seed):
        instance = stacked_loop_instance(case, seed)
        expected = solve_outcome(separate_halves_loop, instance, IterationConfig())
        assert expected[0] is None
        assert solve_outcome(sinkhorn_iterate, instance, IterationConfig()) == expected

    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("case", ["grid 12x15", "ill-conditioned 19x24", "large 300x250"])
    def test_not_converged_matches_bit_for_bit(self, case, budget):
        instance = stacked_loop_instance(case, 0)
        config = IterationConfig(max_iterations=budget)
        expected = solve_outcome(separate_halves_loop, instance, config)
        assert expected[0][0] is NotConverged
        assert solve_outcome(sinkhorn_iterate, instance, config) == expected

    @pytest.mark.parametrize(
        "entries, targets",
        [
            # Row factors of 1e308 push a column sum past the float range, so
            # a column factor is the first to reach 0.
            (np.array([[1.0, 1e-20], [1.0, 1e-20]]), Marginals([1e308, 1e308], [1e308, 1e308])),
        ],
        ids=["column sum overflows"],
    )
    def test_nonpositive_input_at_the_same_sweep(self, entries, targets):
        instance = validate_instance(PositiveMatrix(entries), targets)
        expected = solve_outcome(separate_halves_loop, instance, IterationConfig())
        assert expected[0][0] is NonPositiveInput
        assert solve_outcome(sinkhorn_iterate, instance, IterationConfig()) == expected

    def test_subnormal_row_beside_large_entries_runs_unmoved(self):
        # The first row sum is subnormal, but the largest entry is already
        # near 1, and a move down would round the subnormal entries; the
        # sweeps run on the matrix as given.
        instance = validate_instance(
            PositiveMatrix([[1e-320, 3e-320, 2e-320], [1.0, 2.0, 0.5]]),
            Marginals([1e-300, 1.0], [0.25, 0.5, 0.25]),
        )
        expected = solve_outcome(separate_halves_loop, instance, IterationConfig())
        assert expected[0] is None
        assert solve_outcome(sinkhorn_iterate, instance, IterationConfig()) == expected


class TestExtractFactors:
    def test_identity_case_gives_unit_factors(self):
        # Matrix already satisfies the targets, so no sweep changes anything.
        inst = validate_instance(
            PositiveMatrix([[0.25, 0.25], [0.25, 0.25]]), Marginals([0.5, 0.5], [0.5, 0.5])
        )
        result = sinkhorn_iterate(inst)
        for gauge in (GaugeFix("unit_row_factor", 0), GaugeFix("unit_col_factor", 1)):
            pair = extract_factors(inst, result, gauge)
            np.testing.assert_array_equal(pair.row_factors, [1.0, 1.0])
            np.testing.assert_array_equal(pair.col_factors, [1.0, 1.0])

    def test_golden_row_factor(self):
        inst = unit_2x2([[1, 2], [3, 4]])
        result = sinkhorn_iterate(inst)
        pair = extract_factors(inst, result, GaugeFix("unit_col_factor", 1))
        assert pair.col_factors[1] == 1.0
        assert pair.row_factors[1] == pytest.approx(0.112372, abs=1e-5)

    def test_gauges_differ_by_single_lambda(self, rng):
        for _ in range(20):
            inst = random_instance(rng, 2, 2)
            result = sinkhorn_iterate(inst)
            by_row = extract_factors(inst, result, GaugeFix("unit_row_factor", 0))
            by_col = extract_factors(inst, result, GaugeFix("unit_col_factor", 1))
            lam = by_row.row_factors / by_col.row_factors
            assert_within_ulps(lam, np.full_like(lam, lam[0]), 4)
            assert_within_ulps(by_col.col_factors / by_row.col_factors, lam, 8)
            out_row = apply_scaling(inst.matrix, by_row)
            out_col = apply_scaling(inst.matrix, by_col)
            assert_within_ulps(out_row, out_col, 8)

    def test_gauged_factor_is_exactly_one(self, rng):
        inst = random_instance(rng, 3, 4)
        result = sinkhorn_iterate(inst)
        assert extract_factors(inst, result, GaugeFix("unit_row_factor", 2)).row_factors[2] == 1.0
        assert extract_factors(inst, result, GaugeFix("unit_col_factor", 0)).col_factors[0] == 1.0

    def test_reproduction_within_8_ulps(self, rng):
        for _ in range(20):
            inst = random_instance(rng, 3, 3)
            result = sinkhorn_iterate(inst)
            pair = extract_factors(inst, result, GaugeFix("unit_col_factor", 2))
            assert_within_ulps(apply_scaling(inst.matrix, pair), result.matrix, 8)

    def test_requires_tracked_factors(self):
        # The singular 2x2 closed form on the targets alone returns the limit without factors.
        inst = unit_2x2([[2, 4], [3, 6]])
        result = closed_form_2x2_singular(inst.marginals)
        assert result.method == "closed_form_2x2_singular" and result.factors is None
        with pytest.raises(FactorsUnavailable, match="closed_form_2x2_singular"):
            extract_factors(inst, result, GaugeFix("unit_col_factor", 1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gauge, side", [
        (GaugeFix("unit_col_factor", 0), "column"),
        (GaugeFix("unit_row_factor", 0), "row"),
    ])
    def test_pinned_factor_pushing_the_others_out_of_range_is_typed(self, gauge, side):
        # The limit's factors span ~1e310, so any factor pinned to 1 leaves
        # another past the float range.
        inst = unit_2x2([[1e-310, 1e-300], [1e-10, 1.0]])
        result = sinkhorn_iterate(inst)
        with pytest.raises(NonPositiveInput, match=f"^pinning {side} factor 1 to 1 puts the factors outside"):
            extract_factors(inst, result, gauge)

    def test_range_test_agrees_with_the_moved_factors(self):
        # Factors 10^U(-300, 300) apart: the extremes decide the range exactly,
        # for pivots above and below 1, and a pair in range is moved bit for bit.
        rng = np.random.default_rng(67)
        inst = validate_instance(PositiveMatrix(np.ones((3, 4))), Marginals(np.full(3, 4.0), np.full(4, 3.0)))
        outcomes = set()
        for _ in range(300):
            factors = ScalingPair(10.0 ** rng.uniform(-300, 300, 3), 10.0 ** rng.uniform(-300, 300, 4))
            result = ScaledResult(np.ones((3, 4)), factors, 1, 0.0, True, "iterative")
            r, c = factors.row_factors, factors.col_factors
            gauges = GaugeFix("unit_row_factor", int(rng.integers(3))), GaugeFix("unit_col_factor", int(rng.integers(4)))
            for gauge in gauges:
                with np.errstate(over="ignore", under="ignore"):
                    if gauge.kind == "unit_row_factor":
                        want = r / r[gauge.index], c * r[gauge.index]
                    else:
                        want = r * c[gauge.index], c / c[gauge.index]
                fits = all(np.all((v > 0) & (v < np.inf)) for v in want)
                try:
                    pair = extract_factors(inst, result, gauge)
                except NonPositiveInput:
                    assert not fits
                    outcomes.add((gauge.kind, False))
                    continue
                assert fits
                assert pair.row_factors.tobytes() == want[0].tobytes()
                assert pair.col_factors.tobytes() == want[1].tobytes()
                outcomes.add((gauge.kind, True))
        assert len(outcomes) == 4

    def test_subnormal_3x3_pinning_the_last_column_is_typed(self):
        # The benchmark's known fault: the auto route on the generic 3x3 at
        # 1e-320 solves, and pinning column factor 3 then leaves the range.
        inst = validate_instance(PositiveMatrix(_GENERIC_3X3 * 1e-320), Marginals(np.ones(3), np.ones(3)))
        with pytest.raises(UnsupportedShape):
            closed_form_dispatch(inst)
        result = sinkhorn_iterate(inst)
        with pytest.raises(NonPositiveInput) as err:
            extract_factors(inst, result, GaugeFix("unit_col_factor", 2))
        assert type(err.value) is NonPositiveInput
        assert str(err.value) == "pinning column factor 3 to 1 puts the factors outside the positive float range"

    def test_gauge_index_out_of_range(self):
        inst = unit_2x2([[1, 2], [3, 4]])
        result = sinkhorn_iterate(inst)
        from matbalance import ShapeMismatch

        with pytest.raises(ShapeMismatch):
            extract_factors(inst, result, GaugeFix("unit_col_factor", 5))


class TestGaugeTransform:
    def test_simple_example(self):
        pair = gauge_transform(ScalingPair([1, 1], [1, 1]), 2.0)
        np.testing.assert_array_equal(pair.row_factors, [2, 2])
        np.testing.assert_array_equal(pair.col_factors, [0.5, 0.5])

    def test_power_of_two_roundtrip_is_exact(self, rng):
        pair = ScalingPair(rng.uniform(0.1, 10, 3), rng.uniform(0.1, 10, 4))
        for lam in (0.25, 0.5, 2.0, 1024.0):
            back = gauge_transform(gauge_transform(pair, lam), 1.0 / lam)
            np.testing.assert_array_equal(back.row_factors, pair.row_factors)
            np.testing.assert_array_equal(back.col_factors, pair.col_factors)

    def test_apply_scaling_invariant(self, rng):
        for _ in range(25):
            inst = random_instance(rng, 2, 3)
            pair = ScalingPair(rng.uniform(0.1, 10, 2), rng.uniform(0.1, 10, 3))
            lam = float(rng.uniform(0.05, 20.0))
            base = apply_scaling(inst.matrix, pair)
            moved = apply_scaling(inst.matrix, gauge_transform(pair, lam))
            assert_within_ulps(moved, base, 4)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_lambda(self, lam):
        with pytest.raises(NonPositiveLambda):
            gauge_transform(ScalingPair([1], [1]), lam)


def assert_sealed(*arrays):
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
        assert np.all(array > 0) and np.all(np.isfinite(array))


class TestPackageMadeValuesAreSealed:
    """Every matrix and factor array the package returns is read-only, positive and finite."""

    @pytest.mark.parametrize("entries, targets", [
        ([[1.0, 2.0, 3.0]], Marginals([6.0], [1.0, 2.0, 3.0])),
        ([[1.0], [2.0], [3.0]], Marginals([1.0, 2.0, 3.0], [6.0])),
        ([[1.0, 2.0], [3.0, 4.0]], Marginals([1.0, 2.0], [1.5, 1.5])),
    ], ids=["1xn", "nx1", "2x2"])
    def test_closed_forms(self, entries, targets):
        result = closed_form_dispatch(validate_instance(PositiveMatrix(entries), targets))
        assert_sealed(result.matrix, result.factors.row_factors, result.factors.col_factors)

    @pytest.mark.parametrize("scale", [1.0, 1e307], ids=["unmoved", "shift branch"])
    def test_iterative_results_and_their_gauges(self, scale):
        inst = validate_instance(PositiveMatrix(_GENERIC_3X3 * scale), _TARGETS_3X3)
        result = sinkhorn_iterate(inst)
        assert_sealed(result.matrix, result.factors.row_factors, result.factors.col_factors)
        for gauge in (GaugeFix("unit_row_factor", 1), GaugeFix("unit_col_factor", 2)):
            pair = extract_factors(inst, result, gauge)
            assert_sealed(pair.row_factors, pair.col_factors)
        pair = gauge_transform(result.factors, 3.0)
        assert_sealed(pair.row_factors, pair.col_factors)

    def test_not_converged_partial_result(self):
        with pytest.raises(NotConverged) as err:
            sinkhorn_iterate(unit_2x2([[1, 1000], [1, 1]]), IterationConfig(max_iterations=2))
        partial = err.value.result
        assert_sealed(partial.matrix, partial.factors.row_factors, partial.factors.col_factors)
