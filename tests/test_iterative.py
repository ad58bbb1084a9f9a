import re

import numpy as np
import pytest

from matbalance import (
    FactorsUnavailable,
    GaugeFix,
    IterationConfig,
    Marginals,
    NonPositiveInput,
    NonPositiveLambda,
    NotConverged,
    PositiveMatrix,
    ScaledResult,
    ScalingPair,
    apply_scaling,
    closed_form_dispatch,
    extract_factors,
    gauge_transform,
    max_abs_residual,
    residuals,
    sinkhorn_iterate,
    transpose_instance,
    validate_instance,
)

import matbalance.iterative as iterative
from matbalance.iterative import _gram_stop_test, _successive_frobenius

from conftest import assert_within_ulps, nathanson_limit, random_instance, random_marginals


_GENERIC_3X3 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5], [7.0, 8.0, 9.0]])
# Rank one: balanced after one sweep, so the first norm spans the whole scale.
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


def blocked_reference(instance, config):
    """The sweeps of ``sinkhorn_iterate`` with every stop test decided by the blocked metric.

    Returns the stop sweep, the factors and the metric at the stop sweep.
    """
    entries = instance.matrix.entries
    row_targets = instance.marginals.row_targets
    col_targets = instance.marginals.col_targets
    row_gate = config.tolerance * np.maximum(1.0, row_targets)
    col_gate = config.tolerance * np.maximum(1.0, col_targets)
    r, c = np.ones(instance.rows), np.ones(instance.cols)
    a_c = entries @ c
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for sweep in range(1, config.max_iterations + 1):
            previous = r, c
            r = row_targets / a_c
            at_r = entries.T @ r
            c = col_targets / at_r
            a_c = entries @ c
            if np.all(np.abs(r * a_c - row_targets) <= row_gate) and np.all(
                np.abs(c * at_r - col_targets) <= col_gate
            ):
                metric = _successive_frobenius(entries, *previous, r, c)
                if metric < config.tolerance:
                    return sweep, r, c, metric
    raise AssertionError("the reference loop did not converge")


def lognormal_instance(shape, scale=1.0):
    """sigma-2 lognormal entries times ``scale``; "split" spreads rows and columns over 1e100."""
    rng = np.random.default_rng(5)
    entries = np.exp(2.0 * rng.standard_normal(shape))
    if scale == "split":
        entries *= np.outer(np.logspace(-100, 0, shape[0]), np.logspace(0, -100, shape[1]))
    else:
        entries *= scale
    return validate_instance(PositiveMatrix(entries), random_marginals(rng, *shape))


def assert_matches_reference(instance, config):
    sweep, r, c, _ = blocked_reference(instance, config)
    result = sinkhorn_iterate(instance, config)
    assert result.iterations == sweep
    np.testing.assert_array_equal(result.factors.row_factors, r)
    np.testing.assert_array_equal(result.factors.col_factors, c)
    np.testing.assert_array_equal(result.matrix, (r[:, None] * instance.matrix.entries) * c)


class TestConfig:
    def test_defaults(self):
        cfg = IterationConfig()
        assert cfg.tolerance == 1e-9
        assert cfg.max_iterations == 1000

    @pytest.mark.parametrize("kwargs", [
        {"tolerance": 0.0},
        {"tolerance": -1e-9},
        {"max_iterations": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            IterationConfig(**kwargs)

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

    def test_not_converged_message_reports_finite_metric(self):
        cfg = IterationConfig(max_iterations=2)
        with pytest.raises(NotConverged) as err:
            sinkhorn_iterate(unit_2x2([[1, 1000], [1, 1]]), cfg)
        metric = re.search(r"metric (\S+),", str(err.value))
        assert metric is not None
        assert np.isfinite(float(metric.group(1)))

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
    def test_factors_out_of_float_range_stop_early(self):
        # Row sums of 1e-320 * M are subnormal, so 1 / (A c) overflows.
        entries = 1e-320 * np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5], [7.0, 8.0, 9.0]])
        inst = validate_instance(PositiveMatrix(entries), Marginals([1, 1, 1], [1, 1, 1]))
        with pytest.raises(NonPositiveInput) as err:
            sinkhorn_iterate(inst)
        sweep = re.search(r"at sweep (\d+)", str(err.value))
        assert sweep is not None
        assert int(sweep.group(1)) <= 2

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

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (3, 3), (300, 400)])
    def test_blocked_frobenius_matches_full_difference(self, rng, shape):
        # 300 x 400 spans two row blocks.
        entries = np.exp(rng.normal(0.0, 1.0, size=shape))
        r0, c0 = rng.uniform(0.5, 2.0, shape[0]), rng.uniform(0.5, 2.0, shape[1])
        r1 = r0 * rng.uniform(0.999, 1.001, shape[0])
        c1 = c0 * rng.uniform(0.999, 1.001, shape[1])
        full = np.linalg.norm((r1[:, None] * entries) * c1 - (r0[:, None] * entries) * c0)
        blocked = _successive_frobenius(entries, r0, c0, r1, c1)
        assert blocked == pytest.approx(full, rel=1e-10)

    def test_iteration_count_reported(self):
        result = sinkhorn_iterate(unit_2x2([[1, 2], [3, 4]]))
        assert 1 <= result.iterations <= 1000
        assert result.method == "iterative"


# Both span several blocks of the blocked metric, so the Gram route runs.
MULTI_BLOCK_SHAPES = [(300, 400), (1000, 70)]


class TestGramStopTest:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shape", MULTI_BLOCK_SHAPES)
    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100, 1e150, 1e-150, 1e300, 1e-300, "split"])
    def test_matches_blocked_reference_bit_for_bit(self, shape, scale):
        assert_matches_reference(lognormal_instance(shape, scale), IterationConfig())

    @pytest.mark.parametrize("shape", MULTI_BLOCK_SHAPES)
    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100])
    def test_decides_without_the_blocked_metric(self, monkeypatch, shape, scale):
        def blocked_metric(*args):
            raise AssertionError("the blocked metric ran")

        monkeypatch.setattr(iterative, "_successive_frobenius", blocked_metric)
        assert sinkhorn_iterate(lognormal_instance(shape, scale)).converged

    def test_not_converged_reports_the_blocked_metric(self):
        # The last sweep's metric comes from the blocked test even where the
        # Gram route could decide it.
        with pytest.raises(NotConverged) as err:
            sinkhorn_iterate(lognormal_instance((300, 400)), IterationConfig(max_iterations=2))
        metric = re.search(r"metric (\S+),", str(err.value))
        assert metric is not None
        assert np.isfinite(float(metric.group(1)))

    @pytest.mark.parametrize("shape", MULTI_BLOCK_SHAPES)
    def test_tolerance_at_the_metric_falls_back(self, monkeypatch, shape):
        instance = lognormal_instance(shape)
        _, _, _, metric = blocked_reference(instance, IterationConfig())
        calls = []
        monkeypatch.setattr(
            iterative, "_successive_frobenius", lambda *args: calls.append(args) or _successive_frobenius(*args)
        )
        sweeps = []
        for tolerance in (metric, np.nextafter(metric, np.inf)):
            config = IterationConfig(tolerance=float(tolerance))
            assert_matches_reference(instance, config)
            sweeps.append(blocked_reference(instance, config)[0])
        # At tolerance == metric that sweep fails the test, one ulp above it passes.
        assert sweeps[0] > sweeps[1]
        assert calls

    @pytest.mark.parametrize("step", ["generic", "near-gauge", "one-ulp", "split-range"])
    def test_certificate_never_contradicts_the_blocked_metric(self, step):
        rng = np.random.default_rng(3)
        # With rows and columns spread over 1e82, squares in one corner of
        # A * A are subnormal and lose their precision; the range guard must
        # see it.
        row_spread = np.logspace(-82, 0, 300) if step == "split-range" else np.ones(300)
        col_spread = np.logspace(-82, 0, 250) if step == "split-range" else np.ones(250)
        for _ in range(8):
            entries = np.exp(rng.normal(0.0, 2.0, (300, 250))) * np.outer(row_spread, col_spread)
            r0 = np.exp(rng.normal(0.0, 2.0, 300)) / row_spread
            c0 = np.exp(rng.normal(0.0, 2.0, 250)) / col_spread
            change = 10.0 ** rng.uniform(-15.0, -2.0)
            if step in ("generic", "split-range"):
                r1 = r0 * (1.0 + change * rng.standard_normal(300))
                c1 = c0 * (1.0 + change * rng.standard_normal(250))
            elif step == "near-gauge":
                # S1 - S0 cancels almost entirely, so the certificate is wide.
                r1 = r0 * (1.0 + change) * (1.0 + 1e-6 * change * rng.standard_normal(300))
                c1 = c0 / (1.0 + change)
            else:
                # The blocked metric is its own rounding error here.
                r1, c1 = np.nextafter(r0, np.inf), c0
            metric = _successive_frobenius(entries, r0, c0, r1, c1)
            answers = {}
            tolerances = (metric, np.nextafter(metric, np.inf), metric * (1 - 1e-3), metric * (1 + 1e-3))
            for tolerance in tolerances + (metric * 0.5, metric * 2):
                answers[tolerance] = _gram_stop_test(entries, r0, c0, r1, c1, float(tolerance))
                assert answers[tolerance] in (None, metric < tolerance)
            assert answers[metric] is None
            if step == "generic":
                assert (answers[metric * 0.5], answers[metric * 2]) == (False, True)


def separate_halves_loop(instance, config):
    """``sinkhorn_iterate`` as written before its stacked buffers: fresh row and column arrays per sweep.

    The reference for the stacked loop, which must give the same bits.
    """
    entries = instance.matrix.entries
    row_targets = instance.marginals.row_targets
    col_targets = instance.marginals.col_targets
    row_gate = config.tolerance * np.maximum(1.0, row_targets)
    col_gate = config.tolerance * np.maximum(1.0, col_targets)
    gram_route = entries.size > iterative._FROBENIUS_BLOCK_ENTRIES
    r, c = np.ones(instance.rows), np.ones(instance.cols)
    a_c = entries @ c
    iterations, converged, metric = 0, False, np.inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while iterations < config.max_iterations:
            iterations += 1
            previous = r, c
            r = row_targets / a_c
            at_r = entries.T @ r
            c = col_targets / at_r
            a_c = entries @ c
            if not (r.min() > 0 and c.min() > 0 and r.max() < np.inf and c.max() < np.inf):
                raise NonPositiveInput(
                    f"scaling factors left the positive float range at sweep {iterations}: "
                    "the matrix or target magnitudes exceed double precision"
                )
            residuals_ok = bool(
                np.all(np.abs(r * a_c - row_targets) <= row_gate)
                and np.all(np.abs(c * at_r - col_targets) <= col_gate)
            )
            if not residuals_ok and iterations < config.max_iterations:
                continue
            passed = None
            if gram_route and iterations < config.max_iterations:
                passed = _gram_stop_test(entries, *previous, r, c, config.tolerance)
            if passed is None:
                metric = _successive_frobenius(entries, *previous, r, c)
                passed = metric < config.tolerance
            if passed and residuals_ok:
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
            f"(metric {metric!r}, max marginal residual {residual!r})",
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
    "gram route 300x250": (300, 250, "uniform"),
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
    @pytest.mark.parametrize("case", ["grid 12x15", "ill-conditioned 19x24", "gram route 300x250"])
    def test_not_converged_matches_bit_for_bit(self, case, budget):
        instance = stacked_loop_instance(case, 0)
        config = IterationConfig(max_iterations=budget)
        expected = solve_outcome(separate_halves_loop, instance, config)
        assert expected[0][0] is NotConverged
        assert solve_outcome(sinkhorn_iterate, instance, config) == expected

    @pytest.mark.parametrize(
        "entries, targets",
        [
            (_GENERIC_3X3 * 1e-320, _TARGETS_3X3),
            # Row factors of 1e308 push a column sum past the float range, so
            # a column factor is the first to reach 0.
            (np.array([[1.0, 1e-20], [1.0, 1e-20]]), Marginals([1e308, 1e308], [1e308, 1e308])),
        ],
        ids=["matrix 1e-320", "column sum overflows"],
    )
    def test_nonpositive_input_at_the_same_sweep(self, entries, targets):
        instance = validate_instance(PositiveMatrix(entries), targets)
        expected = solve_outcome(separate_halves_loop, instance, IterationConfig())
        assert expected[0][0] is NonPositiveInput
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
        # The singular 2x2 closed form returns the limit without factors.
        inst = unit_2x2([[2, 4], [3, 6]])
        result = closed_form_dispatch(inst)
        assert result.method == "closed_form_2x2_singular" and result.factors is None
        with pytest.raises(FactorsUnavailable, match="closed_form_2x2_singular"):
            extract_factors(inst, result, GaugeFix("unit_col_factor", 1))

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
