import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from matbalance import (
    GaugeFix,
    Marginals,
    MissingAssignment,
    MultivariatePolynomial,
    NonPositiveInput,
    NotConverged,
    NotZeroDimensional,
    PositiveMatrix,
    RationalInstance,
    ResourceLimit,
    UnitIdeal,
    buchberger,
    build_scaling_ideal,
    default_gauge,
    elimination_degree,
    extract_factors,
    normal_form,
    quadratic_data,
    random_inconsistent_instance,
    random_rational_instance,
    scaling_variables,
    sinkhorn_iterate,
    solve_r2,
    validate_instance,
    verify_solution_on_variety,
)
from matbalance import exactalgebra
from matbalance.cli import DEGREE_CHECK_SHAPES
from matbalance.exactalgebra import s_polynomial

from conftest import random_nonsingular_2x2


def poly(variables, terms):
    return MultivariatePolynomial(variables, terms)


class TestBigRational:
    def test_arithmetic_is_exact(self):
        rng = random.Random(3)
        for _ in range(500):
            a = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
            b = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
            assert (a + b) - b == a
            assert (a * b) / b == a

    def test_canonical_form(self):
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(1, -2).denominator > 0
        assert Fraction(0, 7) == Fraction(0, 1)


class TestPolynomialArithmetic:
    VS = ("x", "y")

    def test_zero_coefficients_dropped(self):
        p = poly(self.VS, {(1, 0): 1, (0, 1): 0})
        assert list(p.terms) == [(1, 0)]

    def test_lex_leading_monomial(self):
        p = poly(self.VS, {(1, 2): 1, (2, 0): 1, (0, 5): 1})
        assert p.leading_monomial() == (2, 0)

    def test_evaluate(self):
        p = poly(self.VS, {(1, 1): Fraction(3, 2), (0, 0): -1})
        assert p.evaluate({"x": 2.0, "y": 4.0}) == pytest.approx(11.0)
        with pytest.raises(MissingAssignment):
            p.evaluate({"x": 2.0})

    def test_variable_order_mismatch_rejected(self):
        p = poly(("x", "y"), {(1, 0): 1})
        q = poly(("y", "x"), {(1, 0): 1})
        with pytest.raises(ValueError, match="variable order"):
            buchberger([p, q])
        with pytest.raises(ValueError, match="variable order"):
            normal_form(p, [q])
        with pytest.raises(ValueError, match="variable order"):
            s_polynomial(p, q)


class TestBuildScalingIdeal:
    def test_2x2_gauge_c2_matches_hand_expansion(self):
        inst = RationalInstance(
            entries=((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))),
            row_targets=(Fraction(1), Fraction(1)),
            col_targets=(Fraction(1), Fraction(1)),
            gauge=GaugeFix("unit_col_factor", 1),
        )
        gens = build_scaling_ideal(inst)
        vs = ("r1", "r2", "c1")
        assert [g.variables for g in gens] == [vs] * 4
        expected = [
            # r1 a11 c1 + r1 a12 - R1
            poly(vs, {(1, 0, 1): 1, (1, 0, 0): 2, (0, 0, 0): -1}),
            # r2 a21 c1 + r2 a22 - R2
            poly(vs, {(0, 1, 1): 3, (0, 1, 0): 4, (0, 0, 0): -1}),
            # r1 a11 c1 + r2 a21 c1 - C1
            poly(vs, {(1, 0, 1): 1, (0, 1, 1): 3, (0, 0, 0): -1}),
            # r1 a12 + r2 a22 - C2
            poly(vs, {(1, 0, 0): 2, (0, 1, 0): 4, (0, 0, 0): -1}),
        ]
        assert gens == expected

    def test_2x2_gauge_r1_matches_hand_expansion(self):
        inst = RationalInstance(
            entries=((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))),
            row_targets=(Fraction(2), Fraction(3)),
            col_targets=(Fraction(4), Fraction(1)),
            gauge=GaugeFix("unit_row_factor", 0),
        )
        gens = build_scaling_ideal(inst)
        vs = ("r2", "c1", "c2")
        expected = [
            # a11 c1 + a12 c2 - R1
            poly(vs, {(0, 1, 0): 1, (0, 0, 1): 2, (0, 0, 0): -2}),
            # r2 a21 c1 + r2 a22 c2 - R2
            poly(vs, {(1, 1, 0): 3, (1, 0, 1): 4, (0, 0, 0): -3}),
            # a11 c1 + r2 a21 c1 - C1
            poly(vs, {(0, 1, 0): 1, (1, 1, 0): 3, (0, 0, 0): -4}),
            # a12 c2 + r2 a22 c2 - C2
            poly(vs, {(0, 0, 1): 2, (1, 0, 1): 4, (0, 0, 0): -1}),
        ]
        assert gens == expected
        # The same terms in the same order: the order fixes the trace key.
        assert [list(g.terms) for g in gens] == [list(g.terms) for g in expected]

    def test_1x2_gauge_r1_is_linear(self):
        inst = RationalInstance(
            entries=((Fraction(5), Fraction(7)),),
            row_targets=(Fraction(3),),
            col_targets=(Fraction(1), Fraction(2)),
            gauge=GaugeFix("unit_row_factor", 0),
        )
        gens = build_scaling_ideal(inst)
        vs = ("c1", "c2")
        expected = [
            poly(vs, {(1, 0): 5, (0, 1): 7, (0, 0): -3}),
            poly(vs, {(1, 0): 5, (0, 0): -1}),
            poly(vs, {(0, 1): 7, (0, 0): -2}),
        ]
        assert gens == expected

    def test_generator_count_and_degree(self):
        rng = random.Random(11)
        for rows, cols in [(1, 3), (2, 2), (2, 3), (3, 3)]:
            inst = random_rational_instance(rows, cols, rng)
            gens = build_scaling_ideal(inst)
            assert len(gens) == rows + cols
            assert all(g.total_degree() <= 2 for g in gens)

    def test_custom_variable_order(self):
        inst = random_rational_instance(2, 2, random.Random(5))
        order = ("c1", "r2", "r1")
        gens = build_scaling_ideal(inst, variables=order)
        assert all(g.variables == order for g in gens)
        with pytest.raises(ValueError, match="permutation"):
            build_scaling_ideal(inst, variables=("c1", "r2", "bogus"))
        # A repeated name is no permutation, however the set compares.
        with pytest.raises(ValueError, match="permutation"):
            build_scaling_ideal(inst, variables=("r1", "r2", "c1", "c1"))


class TestBuchberger:
    def test_textbook_pair(self):
        vs = ("x", "y")
        f1 = poly(vs, {(2, 0): 1, (0, 0): -1})
        f2 = poly(vs, {(1, 1): 1, (0, 0): -1})
        basis = buchberger([f1, f2])
        expected = [
            poly(vs, {(1, 0): 1, (0, 1): -1}),  # x - y
            poly(vs, {(0, 2): 1, (0, 0): -1}),  # y^2 - 1
        ]
        assert list(basis.polynomials) == expected
        # Two-way membership: each set reduces to zero modulo the other.
        assert all(normal_form(g, basis).is_zero() for g in (f1, f2))
        recomputed = buchberger(expected)
        assert all(normal_form(g, recomputed).is_zero() for g in basis.polynomials)

    def test_inconsistent_instance_gives_unit_basis(self):
        rng = random.Random(17)
        for _ in range(10):
            inst = random_inconsistent_instance(2, 2, rng)
            basis = buchberger(build_scaling_ideal(inst))
            assert basis.is_unit

    def test_consistent_instance_membership(self):
        rng = random.Random(23)
        for _ in range(5):
            inst = random_rational_instance(2, 3, rng)
            gens = build_scaling_ideal(inst)
            basis = buchberger(gens)
            assert not basis.is_unit
            assert all(normal_form(g, basis).is_zero() for g in gens)

    def test_basis_is_reduced_and_monic(self):
        rng = random.Random(29)
        for rows, cols in [(2, 2), (2, 3)]:
            basis = buchberger(build_scaling_ideal(random_rational_instance(rows, cols, rng)))
            leads = [g.leading_monomial() for g in basis.polynomials]
            for i, g in enumerate(basis.polynomials):
                assert g.leading_coefficient() == 1
                for j, lead in enumerate(leads):
                    if i == j:
                        continue
                    assert not any(
                        all(le <= me for le, me in zip(lead, mono)) for mono in g.terms
                    )

    def test_s_polynomial_is_exact(self):
        vs = ("x", "y")
        f = poly(vs, {(2, 0): 2, (0, 0): -2})
        g = poly(vs, {(1, 1): Fraction(3, 5), (0, 0): Fraction(-3, 5)})
        # y * f / 2 - x * g * 5/3 = x - y
        assert s_polynomial(f, g) == poly(vs, {(1, 0): 1, (0, 1): -1})
        assert s_polynomial(g, f) == poly(vs, {(1, 0): -1, (0, 1): 1})

    def test_all_s_polynomials_reduce_to_zero(self):
        rng = random.Random(31)
        for rows, cols in [(2, 2), (2, 3), (2, 4)]:
            basis = buchberger(build_scaling_ideal(random_rational_instance(rows, cols, rng)))
            polys = basis.polynomials
            for i in range(len(polys)):
                for j in range(i):
                    assert normal_form(s_polynomial(polys[i], polys[j]), basis).is_zero()

    def test_resource_limit(self):
        inst = random_rational_instance(2, 4, random.Random(37))
        with pytest.raises(ResourceLimit):
            buchberger(build_scaling_ideal(inst), max_pairs=2)
        with pytest.raises(ResourceLimit):
            buchberger(build_scaling_ideal(inst), max_terms=10)

    def test_matches_sympy_reduced_basis(self):
        rng = random.Random(41)
        for rows, cols in [(1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (3, 3)]:
            gens = build_scaling_ideal(random_rational_instance(rows, cols, rng))
            assert _matches_sympy(gens, buchberger(gens))

    def test_exponent_past_packed_field_raises(self):
        vs = ("x", "y")
        limit = 1 << 15
        with pytest.raises(ResourceLimit):
            buchberger([poly(vs, {(limit, 0): 1, (0, 0): -1})])
        # x - y^e turns x^2 into y^(2e) during reduction.
        near = limit // 2 - 1
        basis = buchberger([poly(vs, {(1, 0): 1, (0, near): -1}), poly(vs, {(2, 0): 1, (0, 0): -1})])
        assert [g.leading_monomial() for g in basis.polynomials] == [(1, 0), (0, 2 * near)]
        with pytest.raises(ResourceLimit):
            buchberger([poly(vs, {(1, 0): 1, (0, near + 1): -1}), poly(vs, {(2, 0): 1, (0, 0): -1})])
        with pytest.raises(ResourceLimit):
            normal_form(poly(vs, {(2, 0): 1}), [poly(vs, {(1, 0): 1, (0, near + 1): -1})])


def _matches_sympy(gens, mine):
    syms = {name: sp.Symbol(name) for name in mine.variables}
    gens_sp = [_to_sympy(g, syms) for g in gens]
    order = [syms[v] for v in mine.variables]
    ref = sp.groebner(gens_sp, *order, order="lex", domain="QQ")
    ref_monic = {
        sp.expand(e / sp.Poly(e, *order).LC(order="lex")) for e in ref.exprs
    }
    mine_exprs = {sp.expand(_to_sympy(g, syms)) for g in mine.polynomials}
    return mine_exprs == ref_monic


def _to_sympy(p, syms):
    expr = sp.Integer(0)
    for mono, coeff in p.terms.items():
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for name, e in zip(p.variables, mono):
            if e:
                term *= syms[name] ** e
        expr += term
    return expr


# The exact-degree benchmark's shapes, and those it also draws inconsistent.
BENCH_SHAPES = ((1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (3, 3))
INCONSISTENT_SHAPES = ((2, 2), (2, 3), (3, 3))


@pytest.fixture
def traces(monkeypatch):
    """An empty trace store of this test's own, and counts of the runs taken."""
    store = {}
    runs = {"full": 0, "replay": 0}
    full_run, replay = exactalgebra._full_run, exactalgebra._replay

    def counted_full_run(*args):
        runs["full"] += 1
        return full_run(*args)

    def counted_replay(*args):
        runs["replay"] += 1
        return replay(*args)

    monkeypatch.setattr(exactalgebra, "_TRACES", store)
    monkeypatch.setattr(exactalgebra, "_full_run", counted_full_run)
    monkeypatch.setattr(exactalgebra, "_replay", counted_replay)
    return store, runs


def cold(store, gens):
    """``buchberger`` on an empty store, which it leaves holding the new trace."""
    store.clear()
    return buchberger(gens)


def _two_products(d):
    """``{xy - 1, xz - 1, y - d z}`` in lex x > y > z: consistent at d = 1, the unit ideal otherwise.

    No generator reduces another to a constant, but the S-pair of the first
    and the last, ``(xy - 1) - x (y - d z) = d xz - 1``, reduces by the
    second to the constant ``d - 1``.
    """
    variables = ("x", "y", "z")
    return [
        poly(variables, {(1, 1, 0): 1, (0, 0, 0): -1}),
        poly(variables, {(1, 0, 1): 1, (0, 0, 0): -1}),
        poly(variables, {(0, 1, 0): 1, (0, 0, 1): -d}),
    ]


def outcome(gens, **budgets):
    try:
        return buchberger(gens, **budgets)
    except ResourceLimit as exc:
        return str(exc)


class TestTraceReplay:
    """The store of productive S-pair traces must never change a basis."""

    def test_warm_bases_equal_cold_ones(self, traces):
        store, runs = traces
        shapes = sorted(set(BENCH_SHAPES) | set(DEGREE_CHECK_SHAPES))
        for rows, cols in shapes:
            for seed in range(3):
                rng = random.Random(f"{seed}/{rows}x{cols}")
                draws = [random_rational_instance(rows, cols, rng) for _ in range(3)]
                if (rows, cols) in INCONSISTENT_SHAPES:
                    draws += [random_inconsistent_instance(rows, cols, rng) for _ in range(2)]
                expected = [cold(store, build_scaling_ideal(inst)) for inst in draws]
                # One trace, from the first draw, for all the others.
                store.clear()
                runs.update(full=0, replay=0)
                assert [buchberger(build_scaling_ideal(inst)) for inst in draws] == expected
                assert runs == {"full": 1, "replay": len(draws) - 1}
                assert [b.is_unit for b in expected[3:]] == [True] * (len(draws) - 3)

    @pytest.mark.parametrize("entries", [
        ((1, 2, 3), (2, 4, 6)),  # rank one
        ((5, 5, 5), (5, 5, 5)),  # all equal
    ], ids=["rank-one", "all-equal"])
    def test_non_generic_instance_on_a_generic_trace(self, traces, entries):
        store, runs = traces
        inst = RationalInstance(
            entries=tuple(tuple(Fraction(v) for v in row) for row in entries),
            row_targets=(Fraction(2), Fraction(1)),
            col_targets=(Fraction(1), Fraction(1, 2), Fraction(3, 2)),
            gauge=default_gauge(2, 3),
        )
        gens = build_scaling_ideal(inst)
        expected = cold(store, gens)
        generic = build_scaling_ideal(random_rational_instance(2, 3, random.Random(5)))
        cold(store, generic)
        runs.update(full=0, replay=0)
        assert buchberger(gens) == expected
        assert runs == {"full": 1, "replay": 1}
        assert elimination_degree(expected, expected.variables[-1]) == 1

    def test_wrong_leading_monomial_falls_back(self, traces):
        store, runs = traces
        gens = build_scaling_ideal(random_rational_instance(2, 4, random.Random(7)))
        expected = cold(store, gens)
        (key, trace), = store.items()
        i, j, lead = trace.pairs[1]
        store[key] = trace._replace(pairs=(trace.pairs[0], (i, j, lead + 1), *trace.pairs[2:]))
        runs.update(full=0, replay=0)
        assert buchberger(gens) == expected
        assert runs == {"full": 1, "replay": 1}
        # The fallback's own trace replaced the wrong one.
        assert store[key] == trace

    def test_repeated_pair_gives_a_zero_remainder_and_falls_back(self, traces):
        store, runs = traces
        gens = build_scaling_ideal(random_rational_instance(2, 4, random.Random(7)))
        expected = cold(store, gens)
        (key, trace), = store.items()
        # The first pair's remainder joins the basis, so the same pair again reduces to 0.
        store[key] = trace._replace(pairs=(trace.pairs[0], *trace.pairs))
        runs.update(full=0, replay=0)
        assert buchberger(gens) == expected
        assert runs == {"full": 1, "replay": 1}
        assert store[key] == trace

    def test_pair_index_past_the_basis_falls_back(self, traces):
        store, runs = traces
        gens = build_scaling_ideal(random_rational_instance(2, 4, random.Random(7)))
        expected = cold(store, gens)
        (key, trace), = store.items()
        i, _, lead = trace.pairs[0]
        # Before any pair, the basis holds at most the generators.
        store[key] = trace._replace(pairs=((i, len(gens), lead), *trace.pairs[1:]))
        runs.update(full=0, replay=0)
        assert buchberger(gens) == expected
        assert runs == {"full": 1, "replay": 1}
        assert store[key] == trace

    def test_constant_s_pair_remainder_gives_the_unit_basis(self, traces):
        store, runs = traces
        basis = cold(store, _two_products(2))
        assert basis.is_unit
        assert runs == {"full": 1, "replay": 0}
        # A run cut short by a constant leaves no trace.
        assert not store

    def test_constant_remainder_in_a_replay_gives_the_unit_basis(self, traces):
        store, runs = traces
        unit = cold(store, _two_products(2))
        assert not cold(store, _two_products(1)).is_unit
        (key, trace), = store.items()
        # At d = 1 both S-pairs reduce to 0, so the trace holds none; give it
        # the pair of the first and the last generator, with the lead xz of
        # its S-polynomial.
        assert trace.pairs == ()
        xz = exactalgebra.Packing(3).pack((1, 0, 1))
        store[key] = trace._replace(pairs=((0, 2, xz),))
        runs.update(full=0, replay=0)
        assert buchberger(_two_products(2)) == unit
        assert unit.is_unit
        assert runs == {"full": 0, "replay": 1}

    def test_trace_missing_a_productive_pair_fails_the_certificate(self, traces, monkeypatch):
        store, runs = traces
        gens = build_scaling_ideal(random_rational_instance(2, 3, random.Random(11)))
        expected = cold(store, gens)
        (key, trace), = store.items()
        short = trace._replace(pairs=trace.pairs[:-1])
        store[key] = short
        runs.update(full=0, replay=0)
        assert buchberger(gens) == expected
        assert runs == {"full": 1, "replay": 1}
        # Every traced pair replays as recorded, so only the certificate
        # stands between the short trace and a wrong basis.
        monkeypatch.setattr(exactalgebra, "_certified", lambda *args: True)
        store[key] = short
        assert buchberger(gens) != expected

    def test_certificate_checks_the_s_pairs_of_the_basis(self):
        # Lex x > y.  Both generators of {x^2 - y, xy - 1} reduce to 0 modulo
        # themselves, but their S-pair y(x^2 - y) - x(xy - 1) = x - y^2 does
        # not, so they are no Groebner basis; {x - y^2, y^3 - 1} is one.
        packing = exactalgebra.Packing(2)

        def poly(*terms):
            return {packing.pack(mono): coeff for mono, coeff in terms}

        gens = [poly(((2, 0), 1), ((0, 1), -1)), poly(((1, 1), 1), ((0, 0), -1))]
        assert not exactalgebra._certified(gens, gens, packing)
        basis = [poly(((1, 0), 1), ((0, 2), -1)), poly(((0, 3), 1), ((0, 0), -1))]
        assert exactalgebra._certified(basis, gens, packing)

    def test_budgets_raise_alike_warm_and_cold(self, traces):
        store, _ = traces
        gens = build_scaling_ideal(random_rational_instance(2, 4, random.Random(13)))
        other = build_scaling_ideal(random_rational_instance(2, 4, random.Random(17)))
        cold(store, gens)
        (trace,) = store.values()
        basis = buchberger(gens)
        terms = sum(len(g.terms) for g in basis.polynomials)
        budgets = [{"max_pairs": n} for n in (0, 1, trace.processed - 1, trace.processed)]
        budgets += [{"max_terms": n} for n in (1, 10, terms, 4 * terms)]
        for budget in budgets:
            store.clear()
            expected = outcome(gens, **budget)
            cold(store, other)
            assert outcome(gens, **budget) == expected, budget
        assert outcome(gens, max_pairs=trace.processed - 1) == f"processed pairs exceeded {trace.processed - 1}"
        assert outcome(gens, max_terms=10) == "stored terms exceeded 10"
        assert outcome(gens, max_pairs=trace.processed) == basis

    def test_store_stops_growing_at_its_cap(self, traces, monkeypatch):
        store, runs = traces
        monkeypatch.setattr(exactalgebra, "TRACE_CACHE_SIZE", 3)
        rng = random.Random(19)
        sizes = []
        for rows, cols in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3)):
            gens = build_scaling_ideal(random_rational_instance(rows, cols, rng))
            expected = buchberger(gens)
            assert buchberger(gens) == expected
            sizes.append(len(store))
        assert sizes == [1, 2, 3, 3, 3]
        assert runs == {"full": 7, "replay": 3}
        keys = list(store)
        # A full key is still refreshed: a fallback replaces its trace.
        gens = build_scaling_ideal(random_rational_instance(2, 2, rng))
        trace = store[keys[0]]
        i, j, lead = trace.pairs[0]
        store[keys[0]] = trace._replace(pairs=((i, j, lead + 1), *trace.pairs[1:]))
        buchberger(gens)
        assert store[keys[0]] == trace

    def test_warm_bases_match_sympy(self, traces):
        store, runs = traces
        rng = random.Random(43)
        for rows, cols in BENCH_SHAPES:
            buchberger(build_scaling_ideal(random_rational_instance(rows, cols, rng)))
        runs.update(full=0, replay=0)
        for rows, cols in BENCH_SHAPES:
            gens = build_scaling_ideal(random_rational_instance(rows, cols, rng))
            assert _matches_sympy(gens, buchberger(gens))
        assert runs == {"full": 0, "replay": len(BENCH_SHAPES)}

    def test_threads_on_a_cold_store_agree_with_a_serial_run(self, traces):
        store, _ = traces
        rng = random.Random(47)
        work = [[build_scaling_ideal(random_rational_instance(3, 3, rng)) for _ in range(3)] for _ in range(4)]
        serial = [[cold(store, gens) for gens in part] for part in work]
        store.clear()
        assert _in_threads([lambda part=part: [buchberger(gens) for gens in part] for part in work]) == serial
        assert len(store) == 1

    def test_threads_keep_the_store_within_its_cap(self, traces, monkeypatch):
        store, _ = traces
        monkeypatch.setattr(exactalgebra, "TRACE_CACHE_SIZE", 2)
        inst = random_rational_instance(2, 2, random.Random(53))
        # Six variable orders give six keys; each thread offers all of them.
        orders = list(itertools.permutations(scaling_variables(2, 2, inst.gauge)))
        work = [[build_scaling_ideal(inst, order) for order in orders[k:] + orders[:k]] for k in range(6)]
        _in_threads([lambda part=part: [buchberger(gens) for gens in part] for part in work])
        assert len(store) == 2


def _in_threads(jobs):
    """Run each job in its own thread, all started together with a short switch interval; their results."""
    results = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def run(k):
        start.wait()
        results[k] = jobs[k]()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


class TestNormalForm:
    def test_remainder_is_exact(self):
        rng = random.Random(42)
        inst = random_rational_instance(2, 3, rng)
        basis = buchberger(build_scaling_ideal(inst))
        vs = basis.variables
        syms = {name: sp.Symbol(name) for name in vs}
        order = [syms[v] for v in vs]
        for _ in range(5):
            terms = {
                tuple(rng.randint(0, 3) for _ in vs): Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                for _ in range(6)
            }
            p = poly(vs, terms)
            mine = normal_form(p, basis)
            _, ref = sp.reduced(
                _to_sympy(p, syms), [_to_sympy(g, syms) for g in basis.polynomials],
                *order, order="lex", domain="QQ",
            )
            assert sp.expand(_to_sympy(mine, syms) - ref) == 0

    def test_member_reduces_to_zero(self):
        vs = ("x", "y")
        g = poly(vs, {(1, 0): 1, (0, 1): -1})
        basis = buchberger([g])
        assert normal_form(g, basis).is_zero()

    def test_unit_ideal_absorbs_constants(self):
        vs = ("x",)
        basis = buchberger([poly(vs, {(0,): 5})])
        assert basis.is_unit
        assert normal_form(poly(vs, {(0,): 1}), basis).is_zero()

    def test_every_generator_reduces_to_zero(self):
        inst = random_rational_instance(2, 2, random.Random(43))
        gens = build_scaling_ideal(inst)
        basis = buchberger(gens)
        for g in gens:
            assert normal_form(g, basis).is_zero()


class TestEliminationDegree:
    @pytest.mark.parametrize("rows,cols,expected", [(1, 3, 1), (2, 2, 2), (2, 3, 3), (2, 4, 4)])
    def test_degree_table(self, rows, cols, expected):
        rng = random.Random(1000 + rows * 10 + cols)
        for _ in range(3):
            inst = random_rational_instance(rows, cols, rng)
            basis = buchberger(build_scaling_ideal(inst))
            assert elimination_degree(basis, basis.variables[-1]) == expected

    def test_3x4_reaches_the_bound(self):
        for seed in range(3):
            inst = random_rational_instance(3, 4, random.Random(2000 + seed))
            basis = buchberger(build_scaling_ideal(inst))
            assert elimination_degree(basis, basis.variables[-1]) == 10

    @pytest.mark.parametrize("rows,cols", [(2, 5), (3, 3), (3, 4)])
    def test_iterative_coordinate_is_a_root(self, rows, cols):
        # Cross-route check: the iterative solver's gauge-fixed last
        # coordinate brackets a root of the certified univariate element.
        inst = random_rational_instance(rows, cols, random.Random(3000 + 10 * rows + cols))
        basis = buchberger(build_scaling_ideal(inst))
        last = basis.variables[-1]
        (univariate,) = [g for g in basis.polynomials if g.uses_only(last)]
        floats = validate_instance(
            PositiveMatrix([[float(v) for v in row] for row in inst.entries]),
            Marginals([float(v) for v in inst.row_targets], [float(v) for v in inst.col_targets]),
        )
        pair = extract_factors(floats, sinkhorn_iterate(floats), inst.gauge)
        factors = pair.row_factors if last[0] == "r" else pair.col_factors
        x = Fraction(float(factors[int(last[1:]) - 1]))
        k = basis.variables.index(last)

        def value(at):
            return sum(c * at ** m[k] for m, c in univariate.terms.items())

        width = x * Fraction(1, 10**7)
        assert value(x - width) * value(x + width) <= 0

    def test_exactly_singular_2x2_drops_to_one(self):
        inst = RationalInstance(
            entries=((Fraction(2), Fraction(4)), (Fraction(3), Fraction(6))),
            row_targets=(Fraction(1), Fraction(1)),
            col_targets=(Fraction(1), Fraction(1)),
            gauge=GaugeFix("unit_col_factor", 1),
        )
        basis = buchberger(build_scaling_ideal(inst))
        assert elimination_degree(basis, basis.variables[-1]) == 1

    def test_gauge_independent(self):
        rng = random.Random(47)
        for rows, cols in [(2, 2), (2, 3)]:
            raw = random_rational_instance(rows, cols, rng)
            degrees = set()
            for gauge in (GaugeFix("unit_row_factor", 0), GaugeFix("unit_col_factor", cols - 1)):
                inst = RationalInstance(raw.entries, raw.row_targets, raw.col_targets, gauge)
                basis = buchberger(build_scaling_ideal(inst))
                degrees.add(elimination_degree(basis, basis.variables[-1]))
            assert len(degrees) == 1

    def test_unit_ideal_raises(self):
        inst = random_inconsistent_instance(2, 2, random.Random(53))
        basis = buchberger(build_scaling_ideal(inst))
        with pytest.raises(UnitIdeal):
            elimination_degree(basis, basis.variables[-1])

    def test_positive_dimensional_raises(self):
        vs = ("x", "y")
        basis = buchberger([poly(vs, {(1, 0): 1, (0, 1): -1})])
        with pytest.raises(NotZeroDimensional):
            elimination_degree(basis, "y")

    def test_requires_last_variable(self):
        inst = random_rational_instance(2, 2, random.Random(59))
        basis = buchberger(build_scaling_ideal(inst))
        with pytest.raises(ValueError):
            elimination_degree(basis, basis.variables[0])

    def test_degree_never_exceeds_bound_and_generic_data_hits_it(self):
        rng = random.Random(61)
        hits = 0
        total = 40
        for k in range(total):
            rows, cols = (2, 2) if k % 2 else (2, 3)
            bound = math.comb(rows + cols - 2, rows - 1)
            inst = random_rational_instance(rows, cols, rng)
            basis = buchberger(build_scaling_ideal(inst))
            degree = elimination_degree(basis, basis.variables[-1])
            assert degree <= bound
            hits += degree == bound
        assert hits / total >= 0.95


def _rational(rng):
    return Fraction(rng.randint(1, 50), rng.randint(1, 50))


class TestExactRouteInvariances:
    """The certified degree is unchanged by the exact symmetries of the limit."""

    @staticmethod
    def _degree(entries, row_targets, col_targets, gauge):
        basis = buchberger(build_scaling_ideal(RationalInstance(entries, row_targets, col_targets, gauge)))
        return elimination_degree(basis, basis.variables[-1])

    @pytest.mark.parametrize("rows,cols", [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
    def test_degree_invariances(self, rows, cols):
        for seed in range(6):
            rng = random.Random(f"invariance/{rows}x{cols}/{seed}")
            gauge = rng.choice(
                [GaugeFix("unit_row_factor", i) for i in range(rows)]
                + [GaugeFix("unit_col_factor", j) for j in range(cols)]
            )
            base = random_rational_instance(rows, cols, rng, gauge)
            a, rt, ct = base.entries, base.row_targets, base.col_targets
            degree = self._degree(a, rt, ct, gauge)
            assert 1 <= degree <= math.comb(rows + cols - 2, rows - 1)

            # Rational diagonal equivalence D1 A D2 rescales the unknowns.
            d1 = [_rational(rng) for _ in range(rows)]
            d2 = [_rational(rng) for _ in range(cols)]
            scaled = tuple(tuple(d1[i] * a[i][j] * d2[j] for j in range(cols)) for i in range(rows))
            assert self._degree(scaled, rt, ct, gauge) == degree

            # Row and column permutations; the gauged factor moves with its line.
            pr, pc = rng.sample(range(rows), rows), rng.sample(range(cols), cols)
            permuted = tuple(tuple(a[i][j] for j in pc) for i in pr)
            moved = GaugeFix(gauge.kind, (pr if gauge.kind == "unit_row_factor" else pc).index(gauge.index))
            assert self._degree(permuted, [rt[i] for i in pr], [ct[j] for j in pc], moved) == degree

            # Transposition swaps the targets and the gauge kind.
            swapped = GaugeFix(
                "unit_col_factor" if gauge.kind == "unit_row_factor" else "unit_row_factor", gauge.index
            )
            assert self._degree(tuple(zip(*a)), ct, rt, swapped) == degree


class TestVerifyOnVariety:
    def _float_to_rational_instance(self, inst, gauge):
        entries = tuple(tuple(Fraction(float(v)) for v in row) for row in inst.matrix.entries)
        return RationalInstance(
            entries=entries,
            row_targets=tuple(Fraction(float(v)) for v in inst.marginals.row_targets),
            col_targets=tuple(Fraction(float(v)) for v in inst.marginals.col_targets),
            gauge=gauge,
        )

    def test_closed_form_assignment_on_variety(self):
        inst = validate_instance(PositiveMatrix([[1, 2], [3, 4]]), Marginals([1, 1], [1, 1]))
        a = inst.matrix.entries
        data = quadratic_data(inst)
        r2 = solve_r2(data, inst.marginals)
        c1 = (inst.marginals.row_targets[1] - a[1, 1] * r2) / (a[1, 0] * r2)
        r1 = (
            a[1, 0] * r2 / a[0, 0]
        ) * (inst.marginals.col_targets[0] / (inst.marginals.row_targets[1] - a[1, 1] * r2) - 1)
        gens = build_scaling_ideal(
            self._float_to_rational_instance(inst, GaugeFix("unit_col_factor", 1))
        )
        report = verify_solution_on_variety(gens, {"r1": r1, "r2": r2, "c1": c1}, tol=1e-9)
        assert report.passed
        assert report.max_abs_residual <= 1e-9

    def test_iterative_assignment_on_variety(self, rng):
        inst = random_nonsingular_2x2(rng)
        result = sinkhorn_iterate(inst)
        pair = extract_factors(inst, result, GaugeFix("unit_col_factor", 1))
        gens = build_scaling_ideal(
            self._float_to_rational_instance(inst, GaugeFix("unit_col_factor", 1))
        )
        assignment = {
            "r1": pair.row_factors[0],
            "r2": pair.row_factors[1],
            "c1": pair.col_factors[0],
        }
        report = verify_solution_on_variety(gens, assignment, tol=1e-6)
        assert report.passed

    def test_perturbed_assignment_fails(self):
        inst = validate_instance(PositiveMatrix([[1, 2], [3, 4]]), Marginals([1, 1], [1, 1]))
        data = quadratic_data(inst)
        r2 = solve_r2(data, inst.marginals)
        a = inst.matrix.entries
        c1 = (1 - a[1, 1] * r2) / (a[1, 0] * r2)
        r1 = (a[1, 0] * r2 / a[0, 0]) * (1 / (1 - a[1, 1] * r2) - 1)
        gens = build_scaling_ideal(
            self._float_to_rational_instance(inst, GaugeFix("unit_col_factor", 1))
        )
        report = verify_solution_on_variety(
            gens, {"r1": r1, "r2": r2 + 0.1, "c1": c1}, tol=1e-6
        )
        assert not report.passed

    def test_missing_assignment(self):
        gens = build_scaling_ideal(random_rational_instance(2, 2, random.Random(67)))
        with pytest.raises(MissingAssignment):
            verify_solution_on_variety(gens, {"r1": 1.0}, tol=1e-6)

    @pytest.mark.parametrize(
        "terms,x,value",
        [
            ({(2,): 1, (0,): -1}, 1e200, math.inf),  # x^2 overflows
            ({(3,): -1}, 1e200, -math.inf),
            # The coefficient alone overflows a float; the term is 3.3e99.
            ({(1,): Fraction(10**400, 3), (0,): -1}, 1e-300, 10**100 / 3),
            # The assigned value alone overflows a float.
            pytest.param({(1,): 1, (0,): -1}, 10**400, math.inf, id="int 1e400"),
            pytest.param({(1,): 1, (0,): -1}, Fraction(10**400, 3), math.inf, id="Fraction 1e400/3"),
            pytest.param({(1,): 1, (0,): -1}, -(10**400), -math.inf, id="int -1e400"),
        ],
    )
    def test_values_past_the_float_range(self, terms, x, value):
        report = verify_solution_on_variety([poly(("x",), terms)], {"x": x}, tol=1e-6)
        assert report.residuals[0] == pytest.approx(value, rel=1e-15)
        assert not report.passed

    @pytest.mark.parametrize(
        "terms,assignment",
        [
            pytest.param({(1, 0): 1, (0, 0): -(10**400)}, {"x": 10**400, "y": 1.0}, id="int root 1e400"),
            pytest.param({(1, 0): 3, (0, 0): -(10**400)}, {"x": Fraction(10**400, 3), "y": 1.0}, id="Fraction root"),
            # A float value beside an exact one is taken at its exact value.
            pytest.param({(1, 1): 1, (0, 0): -5 * 10**399}, {"x": 10**400, "y": 0.5}, id="int times float"),
            pytest.param({(2, 0): 1, (0, 1): -(10**800)}, {"x": -(10**400), "y": 1}, id="square of -1e400"),
        ],
    )
    def test_exact_roots_past_the_float_range_read_zero(self, terms, assignment):
        report = verify_solution_on_variety([poly(("x", "y"), terms)], assignment, tol=1e-6)
        assert report.residuals == (0.0,)
        assert report.passed

    def test_exact_values_round_once(self):
        # x - 10**400 at 10**400 + 1: the float path would read inf - inf = nan.
        report = verify_solution_on_variety([poly(("x",), {(1,): 1, (0,): -(10**400)})], {"x": 10**400 + 1}, tol=2.0)
        assert report.residuals == (1.0,) and report.passed

    def test_float_values_are_summed_exactly(self):
        # x + y - 3/10 at 0.1 and 0.2: the floats' exact values, summed
        # exactly and rounded once, not the floating-point sum of the terms.
        report = verify_solution_on_variety(
            [poly(("x", "y"), {(1, 0): 1, (0, 1): 1, (0, 0): Fraction(-3, 10)})], {"x": 0.1, "y": 0.2}, tol=1e-6
        )
        assert report.residuals == (float(Fraction(0.1) + Fraction(0.2) - Fraction(3, 10)),)
        assert report.residuals != ((-0.3 + 0.2) + 0.1,)

    # An infinite tolerance would pass any residual, and a NaN one would fail every report.
    @pytest.mark.parametrize("tol, message", [
        (-1e-6, "tol must be > 0"),
        (0.0, "tol must be > 0"),
        (math.inf, "tol must be finite, got inf"),
        (math.nan, "tol must be finite, got nan"),
    ], ids=["negative", "zero", "inf", "nan"])
    def test_rejects_bad_tolerance(self, tol, message):
        with pytest.raises(ValueError) as err:
            verify_solution_on_variety([poly(("x",), {(1,): 1, (0,): -1})], {"x": 1.0}, tol=tol)
        assert str(err.value) == message

    def test_nan_residual_fails_wherever_it_falls(self):
        # x^2 - x at x = inf is nan; a finite residual before it must not pass the report.
        vs = ("x", "y")
        polys = [poly(vs, {(0, 1): 1}), poly(vs, {(2, 0): 1, (1, 0): -1})]
        for ordered in (polys, polys[::-1]):
            report = verify_solution_on_variety(ordered, {"x": math.inf, "y": 1.0}, tol=2.0)
            assert math.isnan(report.max_abs_residual)
            assert not report.passed


class TestRationalInstances:
    def test_random_instances_are_consistent(self):
        rng = random.Random(71)
        for _ in range(20):
            inst = random_rational_instance(2, 3, rng)
            assert inst.is_consistent()
            assert all(v > 0 for row in inst.entries for v in row)

    def test_inconsistent_generator_defect(self):
        rng = random.Random(73)
        for _ in range(20):
            inst = random_inconsistent_instance(2, 2, rng)
            assert not inst.is_consistent()

    def test_default_gauge(self):
        assert default_gauge(1, 5) == GaugeFix("unit_row_factor", 0)
        assert default_gauge(2, 4) == GaugeFix("unit_col_factor", 3)

    def test_scaling_variables(self):
        assert scaling_variables(2, 2, GaugeFix("unit_col_factor", 1)) == ("r1", "r2", "c1")
        assert scaling_variables(1, 3, GaugeFix("unit_row_factor", 0)) == ("c1", "c2", "c3")

    def test_validation(self):
        from matbalance import ShapeMismatch

        with pytest.raises(ShapeMismatch):
            RationalInstance(
                entries=((Fraction(1),),),
                row_targets=(Fraction(1), Fraction(1)),
                col_targets=(Fraction(1),),
                gauge=GaugeFix("unit_row_factor", 0),
            )
        with pytest.raises(ValueError):
            RationalInstance(
                entries=((Fraction(-1),),),
                row_targets=(Fraction(1),),
                col_targets=(Fraction(1),),
                gauge=GaugeFix("unit_row_factor", 0),
            )

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1, 3)])
    @pytest.mark.parametrize("where", ["entries", "row_targets", "col_targets"])
    def test_nonpositive_data_raises_typed_error(self, bad, where):
        data = {
            "entries": ((Fraction(1), Fraction(2)),),
            "row_targets": (Fraction(3),),
            "col_targets": (Fraction(1), Fraction(2)),
        }
        if where == "entries":
            data[where] = ((Fraction(1), bad),)
        else:
            data[where] = data[where][:-1] + (bad,)
        with pytest.raises(NonPositiveInput, match="strictly positive"):
            RationalInstance(**data, gauge=GaugeFix("unit_row_factor", 0))

    @pytest.mark.parametrize("gauge, message", [
        (GaugeFix("unit_row_factor", 2), "row gauge index 2 for 2 rows"),
        (GaugeFix("unit_col_factor", 3), "col gauge index 3 for 3 cols"),
        (GaugeFix("unit_row_factor", 5), "row gauge index 5 for 2 rows"),
    ])
    def test_gauge_index_checked_as_in_extract_factors(self, gauge, message):
        from matbalance import ShapeMismatch

        entries = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.5]]
        with pytest.raises(ShapeMismatch, match=message):
            RationalInstance(
                entries=tuple(tuple(Fraction(v) for v in row) for row in entries),
                row_targets=(Fraction(3), Fraction(3)),
                col_targets=(Fraction(2), Fraction(2), Fraction(2)),
                gauge=gauge,
            )
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            scaling_variables(2, 3, gauge)
        inst = validate_instance(PositiveMatrix(entries), Marginals([3, 3], [2, 2, 2]))
        with pytest.raises(ShapeMismatch, match=message):
            extract_factors(inst, sinkhorn_iterate(inst), gauge)


class TestPublicInputChecks:
    """Input checks of the public exact-route functions that no other test reaches."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: poly(("x", "y"), {(1,): 1}), ValueError, r"monomial \(1,\) has 1 exponents, expected 2"),
        (lambda: buchberger([]), ValueError, "buchberger requires at least one generator"),
        (
            lambda: elimination_degree(buchberger(build_scaling_ideal(random_rational_instance(2, 2, 5))), "z"),
            ValueError,
            "unknown variable 'z'",
        ),
        (
            lambda: normal_form(poly(("x",), {(-1,): 1}), [poly(("x",), {(1,): 1})]),
            ValueError,
            r"negative exponent in \(-1,\)",
        ),
    ], ids=["monomial of the wrong width", "no generators", "unknown variable", "negative exponent"])
    def test_refused_with_the_typed_error(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_an_int_rng_seeds_random(self):
        # The README's rng=42 form.
        assert random_rational_instance(2, 3, 7) == random_rational_instance(2, 3, random.Random(7))


class TestFloatCounterpartOfInconsistency:
    def test_iterative_flags_inconsistent_data(self):
        rng = random.Random(79)
        inst = random_inconsistent_instance(2, 2, rng)
        matrix = PositiveMatrix(np.array([[float(v) for v in row] for row in inst.entries]))
        marginals = Marginals(
            np.array([float(v) for v in inst.row_targets]),
            np.array([float(v) for v in inst.col_targets]),
        )
        loose = validate_instance(matrix, marginals, consistency_tol=1.0)
        with pytest.raises(NotConverged) as err:
            sinkhorn_iterate(loose)
        assert err.value.result.max_marginal_residual > 1e-9
