"""Exact-rational polynomial engine for the gauge-fixed scaling equations.

Feeding rational matrix data and targets into the row/column sum equations
(with one factor pinned to 1) yields a small zero-dimensional polynomial
system.  This module computes its reduced lex Groebner basis with
Buchberger's algorithm over exact rationals and reads off the degree of
the univariate elimination polynomial in the last variable, which is the
algebraic degree of that coordinate over the input data.

Numeric parameters are substituted before the basis computation, so the
ideals live in at most a handful of unknowns; symbolic parameters are out
of scope.  Everything is exact.  :class:`MultivariatePolynomial`, with
exact rational coefficients, is the value type at the engine boundary: it
has no arithmetic of its own.  All polynomial arithmetic (generator
reduction, S-polynomials, normal forms, Buchberger) runs fraction-free over
the integers in :mod:`matbalance._packed`, and degree results are
certificates, not approximations.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._packed import Divisor, Packing, reduce, reduce_basis, s_work, update_pairs
from .errors import (
    GaugeFix,
    MatrixBalanceError,
    ResourceLimit,
    UnitIdeal,
    check_grid,
    check_target_lengths,
    default_gauge,
    empty_error,
    nonpositive_error,
)

# Arbitrary-precision rational: always lowest terms, positive denominator,
# canonical zero 0/1.  The stdlib type satisfies every invariant we need.
BigRational = Fraction

# Exponent vector, one entry per unknown in the ambient variable order.
# Plain tuples compare lexicographically, which *is* the lex monomial order.
Monomial = tuple[int, ...]

DEFAULT_MAX_PAIRS = 100_000
DEFAULT_MAX_TERMS = 1_000_000


class NotZeroDimensional(MatrixBalanceError):
    """No univariate elimination polynomial exists in the last variable."""


class MissingAssignment(MatrixBalanceError, KeyError):
    """A variable required for evaluation has no assigned value."""


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


class MultivariatePolynomial:
    """Polynomial over the rationals in a fixed ordered tuple of unknowns.

    The value type at the engine boundary: it is built, compared, queried
    and evaluated, and all arithmetic on it runs in :mod:`matbalance._packed`.
    Terms map exponent tuples to nonzero coefficients; zero coefficients
    are never stored, so equal polynomials have equal term maps.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, Fraction] | None = None):
        self.variables = tuple(variables)
        width = len(self.variables)
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != width:
                    raise ValueError(f"monomial {mono} has {len(mono)} exponents, expected {width}")
                coeff = Fraction(coeff)
                if coeff:
                    clean[tuple(mono)] = coeff
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(any(m) for m in self.terms)

    def leading_monomial(self) -> Monomial:
        return max(self.terms)

    def leading_coefficient(self) -> Fraction:
        return self.terms[max(self.terms)]

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        idx = self.variables.index(name)
        return max((m[idx] for m in self.terms), default=0)

    def uses_only(self, name: str) -> bool:
        """True when every term involves no unknown other than ``name``."""
        idx = self.variables.index(name)
        return all(
            all(e == 0 for k, e in enumerate(m) if k != idx) for m in self.terms
        )

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """Value at the assignment, every unknown required: the exact sum, rounded once.

        A term with an inf or nan value is taken in floats, its finite factors rounded first.
        """
        values = []
        for name in self.variables:
            if name not in assignment:
                raise MissingAssignment(name)
            values.append(assignment[name])
        exact, nonfinite = Fraction(0), 0.0
        for mono, coeff in self.terms.items():
            powers = [(v, e) for v, e in zip(values, mono) if e]
            term = coeff * math.prod(Fraction(v) ** e for v, e in powers if abs(v) < math.inf)
            floats = [v**e for v, e in powers if not abs(v) < math.inf]
            if floats:
                nonfinite += _float_value(term) * math.prod(floats)
            else:
                exact += term
        return _float_value(exact) + nonfinite

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultivariatePolynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, reverse=True):
            coeff = self.terms[mono]
            names = [
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(self.variables, mono)
                if e
            ]
            body = "*".join(names)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def _float_value(value) -> float:
    """``float(value)``, an infinity of its sign past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic lex basis, sorted by decreasing leading monomial."""

    polynomials: tuple[MultivariatePolynomial, ...]
    variables: tuple[str, ...]

    @property
    def is_unit(self) -> bool:
        return len(self.polynomials) == 1 and self.polynomials[0].is_constant() and not self.polynomials[0].is_zero()


def _unpacked(packing: Packing, variables: tuple[str, ...], terms: dict[int, int], den: int) -> MultivariatePolynomial:
    """The public polynomial ``terms / den``."""
    out = MultivariatePolynomial(variables)
    out.terms = {packing.unpack(m): Fraction(c, den) for m, c in terms.items()}
    return out


def normal_form(
    poly: MultivariatePolynomial,
    basis: "GroebnerBasis | Iterable[MultivariatePolynomial]",
) -> MultivariatePolynomial:
    """Remainder of multivariate division by the basis; zero iff a member of the ideal.

    The divisors are tried in order, and the remainder is the exact rational
    one.

    Raises:
        ResourceLimit: an exponent reached the packed field limit.
    """
    divisors = list(basis.polynomials) if isinstance(basis, GroebnerBasis) else [g for g in basis if not g.is_zero()]
    for g in divisors:
        if g.variables != poly.variables:
            raise ValueError("normal_form requires a common variable order")
    packing = Packing(len(poly.variables))
    records = [packing.divisor(packing.integer_terms(g.terms)[0]) for g in divisors]
    work, den = packing.integer_terms(poly.terms)
    remainder, scale = reduce(work, records, packing)
    return _unpacked(packing, poly.variables, remainder, den * scale)


def s_polynomial(f: MultivariatePolynomial, g: MultivariatePolynomial) -> MultivariatePolynomial:
    """The S-polynomial ``(L/lm f) f/lc f - (L/lm g) g/lc g``, with ``L`` the lcm of the leads."""
    if f.variables != g.variables:
        raise ValueError("s_polynomial requires a common variable order")
    packing = Packing(len(f.variables))
    f_int, g_int = (packing.divisor(packing.integer_terms(p.terms)[0]) for p in (f, g))
    return _unpacked(packing, f.variables, s_work(f_int, g_int, packing), math.lcm(f_int.coeff, g_int.coeff))


# The productive S-pairs of the last full run per key of buchberger, and the
# most keys kept.  Traces are immutable, so threads share them freely.
TRACE_CACHE_SIZE = 64
_TRACES: dict[tuple, "_Trace"] = {}
_TRACES_LOCK = threading.Lock()


class _Trace(NamedTuple):
    """What a full :func:`buchberger` run did, for replay on the same supports.

    ``leads`` are the leading monomials of the reduced generators, ``pairs``
    the S-pairs ``(i, j, leading monomial of the remainder)`` that gave a
    nonzero remainder, in order, and ``processed`` counts every pair taken.
    """

    leads: tuple[int, ...]
    pairs: tuple[tuple[int, int, int], ...]
    processed: int


class _Basis:
    """Basis elements appended so far, under the stored-term budget."""

    def __init__(self, packing: Packing, max_terms: int):
        self.packing = packing
        self.max_terms = max_terms
        self.divisors: list[Divisor] = []
        self.leads: list[int] = []
        self.terms = 0

    def append(self, remainder: dict[int, int]) -> None:
        g = self.packing.divisor(remainder)
        self.divisors.append(g)
        self.leads.append(g.lead)
        self.terms += len(remainder)
        if self.terms > self.max_terms:
            raise ResourceLimit(f"stored terms exceeded {self.max_terms}")

    def add_generators(self, packed: list[dict[int, int]]) -> bool:
        """Append the nonzero remainder of each generator by the elements before it.

        Returns False, and stops, at a nonzero constant remainder.
        """
        for g in packed:
            r, _ = reduce(dict(g), self.divisors, self.packing)
            if not r:
                continue
            # Remainder terms come out in decreasing order: a zero leading
            # monomial means a nonzero constant.
            if not next(iter(r)):
                return False
            self.append(r)
        return True


# The reduced integer terms of the unit ideal's basis {1}.
_UNIT_TERMS: tuple[dict[int, int], ...] = ({0: 1},)


def _full_run(
    packed: list[dict[int, int]], packing: Packing, max_pairs: int, max_terms: int
) -> tuple[Sequence[dict[int, int]], _Trace | None]:
    """Buchberger's algorithm with the normal strategy; the reduced basis terms and the run's trace.

    The trace is None when a nonzero constant cut the run short.
    """
    basis = _Basis(packing, max_terms)
    if not basis.add_generators(packed):
        return _UNIT_TERMS, None
    leads = tuple(basis.leads)
    pairs: list[tuple[int, int, int]] = []
    for t in range(len(leads)):
        pairs = update_pairs(pairs, basis.leads, t, packing)
    productive: list[tuple[int, int, int]] = []
    processed = 0
    while pairs:
        processed += 1
        if processed > max_pairs:
            raise ResourceLimit(f"processed pairs exceeded {max_pairs}")
        _, i, j = heapq.heappop(pairs)
        r, _ = reduce(s_work(basis.divisors[i], basis.divisors[j], packing), basis.divisors, packing)
        if not r:
            continue
        top = next(iter(r))
        if not top:
            return _UNIT_TERMS, None
        productive.append((i, j, top))
        basis.append(r)
        pairs = update_pairs(pairs, basis.leads, len(basis.leads) - 1, packing)
    return reduce_basis(basis.divisors, packing), _Trace(leads, tuple(productive), processed)


def _replay(
    packed: list[dict[int, int]], trace: _Trace, packing: Packing, max_terms: int
) -> Sequence[dict[int, int]] | None:
    """The reduced basis terms from the traced pairs alone, or None once the run diverges.

    A divergence is a different generator lead, a zero remainder, a
    different remainder lead, or a pair index past the basis.
    """
    basis = _Basis(packing, max_terms)
    if not basis.add_generators(packed):
        return _UNIT_TERMS
    if tuple(basis.leads) != trace.leads:
        return None
    for i, j, lead in trace.pairs:
        if j >= len(basis.divisors):
            return None
        r, _ = reduce(s_work(basis.divisors[i], basis.divisors[j], packing), basis.divisors, packing)
        if not r:
            return None
        top = next(iter(r))
        if not top:
            # The constant lies in the ideal, whatever the pairs skipped.
            return _UNIT_TERMS
        if top != lead:
            return None
        basis.append(r)
    reduced = reduce_basis(basis.divisors, packing)
    return reduced if _certified(reduced, packed, packing) else None


def _certified(reduced: Sequence[dict[int, int]], packed: list[dict[int, int]], packing: Packing) -> bool:
    """True when ``reduced`` is a Groebner basis of the ideal of the generators.

    Its S-pairs must reduce to 0 modulo itself (Buchberger's criterion;
    coprime leading monomials pass without a reduction), so it is a
    Groebner basis of the ideal it generates.  Every element of it lies in
    the generators' ideal, and every generator must reduce to 0, so the two
    ideals are equal.
    """
    divisors = [packing.divisor(r) for r in reduced]
    for f, g in itertools.combinations(divisors, 2):
        if packing.lcm(f.lead, g.lead) != f.lead + g.lead and reduce(s_work(f, g, packing), divisors, packing)[0]:
            return False
    return not any(reduce(dict(g), divisors, packing)[0] for g in packed)


def _store(key: tuple, trace: _Trace) -> None:
    with _TRACES_LOCK:
        if key in _TRACES or len(_TRACES) < TRACE_CACHE_SIZE:
            _TRACES[key] = trace


def buchberger(
    generators: Sequence[MultivariatePolynomial],
    max_pairs: int = DEFAULT_MAX_PAIRS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> GroebnerBasis:
    """Reduced monic lex Groebner basis of the generated ideal.

    Pairs are processed smallest lcm in the lex order first (Buchberger's
    normal strategy).  A nonzero constant remainder short-circuits to the
    unit basis.

    Trace replay (after Traverso 1988).  A call is keyed by the variables
    and the supports of the generators, which :func:`build_scaling_ideal`
    fixes per shape and gauge.  A full run that ends in a basis records the
    S-pairs that gave a nonzero remainder, with their leading monomials,
    and the number of pairs processed.  A later call with the same key
    reduces only those pairs, in order, with no pair queue.  A nonzero
    constant remainder returns the unit basis, since the constant lies in
    the ideal.  A zero remainder or a different leading monomial abandons
    the replay.  A replayed basis is returned only behind a certificate:
    after tail reduction, each of its S-pairs with non-coprime leading
    monomials, and each generator, must reduce to 0 modulo it.  It is then
    the unique reduced basis of the ideal, so the result is ``==`` to the
    full run's.  A replay that diverges, fails the certificate, or meets a
    budget or the packed field limit falls back to the full run, whose
    trace then replaces the stored one.  At most ``TRACE_CACHE_SIZE`` keys
    are kept; past that, new keys run in full and are not stored.  The
    store is shared by every thread of the process.

    Raises:
        ResourceLimit: the pair or stored-term budget was exceeded, or an
            exponent reached the packed field limit.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("buchberger requires at least one generator")
    variables = generators[0].variables
    for g in generators:
        if g.variables != variables:
            raise ValueError("generators must share one variable order")

    packing = Packing(len(variables))
    packed = [packing.integer_terms(g.terms)[0] for g in generators]
    key = (variables, tuple(tuple(sorted(g)) for g in packed))
    trace = _TRACES.get(key)
    reduced = None
    if trace is not None and trace.processed <= max_pairs:
        try:
            reduced = _replay(packed, trace, packing, max_terms)
        except ResourceLimit:
            # The full run raises it where it applies to this instance.
            pass
    if reduced is None:
        reduced, trace = _full_run(packed, packing, max_pairs, max_terms)
        if trace is not None:
            _store(key, trace)
    polynomials = tuple(_unpacked(packing, variables, r, next(iter(r.values()))) for r in reduced)
    return GroebnerBasis(polynomials=polynomials, variables=variables)


def elimination_degree(basis: GroebnerBasis, variable: str) -> int:
    """Degree of the univariate basis element in the last lex variable.

    This is the algebraic degree of that coordinate over the data field.

    Raises:
        UnitIdeal: the system has no solution at all.
        NotZeroDimensional: no univariate element exists.
    """
    if variable not in basis.variables:
        raise ValueError(f"unknown variable {variable!r}; order is {basis.variables}")
    if basis.variables[-1] != variable:
        raise ValueError(
            f"{variable!r} is not last in the lex order {basis.variables}; "
            "elimination reads off the final coordinate only"
        )
    if basis.is_unit:
        raise UnitIdeal("inconsistent system: basis is {1}")
    univariate = [g for g in basis.polynomials if g.uses_only(variable) and not g.is_zero()]
    if not univariate:
        raise NotZeroDimensional(f"no univariate basis element in {variable!r}")
    # A reduced basis cannot contain two: one leading power would divide the other.
    assert len(univariate) == 1
    return univariate[0].degree_in(variable)


@dataclass(frozen=True)
class VarietyReport:
    """Float evaluation of a polynomial family at a candidate point."""

    residuals: tuple[float, ...]
    max_abs_residual: float
    tolerance: float
    passed: bool


def verify_solution_on_variety(
    polynomials: "GroebnerBasis | Sequence[MultivariatePolynomial]",
    assignment: Mapping[str, float],
    tol: float,
) -> VarietyReport:
    """Evaluate every polynomial at the assignment and compare against ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    polys = list(polynomials.polynomials) if isinstance(polynomials, GroebnerBasis) else list(polynomials)
    residuals = tuple(p.evaluate(assignment) for p in polys)
    # A nan residual fails the report, wherever it falls.
    worst = math.nan if any(map(math.isnan, residuals)) else max(map(abs, residuals), default=0.0)
    return VarietyReport(
        residuals=residuals,
        max_abs_residual=worst,
        tolerance=tol,
        passed=worst <= tol,
    )


@dataclass(frozen=True)
class RationalInstance:
    """A balancing problem at exact rational data plus a gauge choice."""

    entries: tuple[tuple[Fraction, ...], ...]
    row_targets: tuple[Fraction, ...]
    col_targets: tuple[Fraction, ...]
    gauge: GaugeFix

    def __post_init__(self):
        entries = tuple(tuple(Fraction(v) for v in row) for row in self.entries)
        rows = tuple(Fraction(v) for v in self.row_targets)
        cols = tuple(Fraction(v) for v in self.col_targets)
        # Checked in the order of the float route (matrix, targets, lengths),
        # so a fault raises the same error on both.
        height, width = check_grid(entries)
        matrix = tuple(itertools.chain.from_iterable(entries))
        for name, values in (("matrix", matrix), ("row_targets", rows), ("col_targets", cols)):
            if not values:
                raise empty_error(name)
            for value in values:
                if value <= 0:
                    raise nonpositive_error(name)
        check_target_lengths(height, width, len(rows), len(cols))
        self.gauge.check_fits(height, width)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "row_targets", rows)
        object.__setattr__(self, "col_targets", cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def is_consistent(self) -> bool:
        return sum(self.row_targets) == sum(self.col_targets)


def scaling_variables(rows: int, cols: int, gauge: GaugeFix) -> tuple[str, ...]:
    """Unknown names r1..rn, c1..cm with the gauge-fixed one removed."""
    names = [f"r{i + 1}" for i in range(rows)] + [f"c{j + 1}" for j in range(cols)]
    if gauge.kind == "unit_row_factor":
        names.remove(f"r{gauge.index + 1}")
    else:
        names.remove(f"c{gauge.index + 1}")
    return tuple(names)


def build_scaling_ideal(
    instance: RationalInstance,
    variables: Sequence[str] | None = None,
) -> list[MultivariatePolynomial]:
    """The n + m gauge-fixed row/column sum polynomials of the instance.

    Row i contributes ``sum_j a_ij r_i c_j - R_i`` and column j contributes
    ``sum_i a_ij r_i c_j - C_j``, with the gauged factor replaced by 1.
    Every generator has total degree at most 2.
    """
    expected = scaling_variables(instance.rows, instance.cols, instance.gauge)
    variables = expected if variables is None else tuple(variables)
    if len(variables) != len(expected) or set(variables) != set(expected):
        raise ValueError(f"variables must be a permutation of {sorted(expected)}")
    one = (0,) * len(variables)
    # The gauged factor is fixed to 1, so it keeps the monomial 1.
    unit = {name: one[:k] + (1,) + one[k + 1 :] for k, name in enumerate(variables)}
    row_monos = [unit.get(f"r{i + 1}", one) for i in range(instance.rows)]
    col_monos = [unit.get(f"c{j + 1}", one) for j in range(instance.cols)]

    def generator(monos: Iterable[Monomial], coeffs: Iterable[Fraction], target: Fraction) -> MultivariatePolynomial:
        # Only one factor is gauged, so the monomials of a generator are
        # distinct and none is 1.
        terms = dict(zip(monos, coeffs))
        terms[one] = -target
        return MultivariatePolynomial(variables, terms)

    cells = [[monomial_mul(rm, cm) for cm in col_monos] for rm in row_monos]
    rows = [generator(*line) for line in zip(cells, instance.entries, instance.row_targets)]
    cols = [generator(*line) for line in zip(zip(*cells), zip(*instance.entries), instance.col_targets)]
    return rows + cols


def _random_fraction(rng: random.Random, high: int = 100) -> Fraction:
    return Fraction(rng.randint(1, high), rng.randint(1, high))


def random_rational_instance(
    rows: int,
    cols: int,
    rng: random.Random | int,
    gauge: GaugeFix | None = None,
) -> RationalInstance:
    """Seeded random positive instance with exactly consistent targets.

    Entries and row targets draw numerator and denominator uniformly from
    [1, 100]; column targets split the row total along random rational
    weights, so consistency holds exactly.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    entries = tuple(tuple(_random_fraction(rng) for _ in range(cols)) for _ in range(rows))
    row_targets = tuple(_random_fraction(rng) for _ in range(rows))
    total = sum(row_targets)
    weights = [_random_fraction(rng) for _ in range(cols)]
    weight_sum = sum(weights)
    col_targets = tuple(total * w / weight_sum for w in weights)
    return RationalInstance(
        entries=entries,
        row_targets=row_targets,
        col_targets=col_targets,
        gauge=gauge if gauge is not None else default_gauge(rows, cols),
    )


def random_inconsistent_instance(
    rows: int,
    cols: int,
    rng: random.Random | int,
    gauge: GaugeFix | None = None,
) -> RationalInstance:
    """Like :func:`random_rational_instance` but with a deliberate target defect."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    base = random_rational_instance(rows, cols, rng, gauge)
    defect = sum(base.row_targets) * Fraction(rng.randint(1, 3), 10)
    bumped = list(base.col_targets)
    bumped[rng.randrange(cols)] += defect
    return RationalInstance(
        entries=base.entries,
        row_targets=base.row_targets,
        col_targets=tuple(bumped),
        gauge=base.gauge,
    )
