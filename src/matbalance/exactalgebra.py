"""Exact-rational polynomial engine for the gauge-fixed scaling equations.

Feeding rational matrix data and targets into the row/column sum equations
(with one factor pinned to 1) yields a small zero-dimensional polynomial
system.  This module computes its reduced lex Groebner basis with
Buchberger's algorithm over exact rationals and reads off the degree of
the univariate elimination polynomial in the last variable, which is the
algebraic degree of that coordinate over the input data.

Numeric parameters are substituted before the basis computation, so the
ideals live in at most a handful of unknowns; symbolic parameters are out
of scope.  Everything is exact: the public polynomial types carry exact
rationals, the reduction inside is fraction-free over the integers, and
degree results are certificates, not approximations.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._packed import Divisor, Packing, ResourceLimit, reduce, reduce_basis, s_work, update_pairs
from .core import (
    GaugeFix,
    MatrixBalanceError,
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


class UnitIdeal(MatrixBalanceError):
    """The ideal is the whole ring (the system has no solution)."""


class MissingAssignment(MatrixBalanceError, KeyError):
    """A variable required for evaluation has no assigned value."""


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_degree(a: Monomial) -> int:
    return sum(a)


class MultivariatePolynomial:
    """Polynomial over the rationals in a fixed ordered tuple of unknowns.

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

    @classmethod
    def constant(cls, value, variables: Sequence[str]) -> "MultivariatePolynomial":
        mono = (0,) * len(tuple(variables))
        return cls(variables, {mono: Fraction(value)})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "MultivariatePolynomial":
        variables = tuple(variables)
        idx = variables.index(name)
        mono = tuple(1 if k == idx else 0 for k in range(len(variables)))
        return cls(variables, {mono: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(monomial_degree(m) == 0 for m in self.terms)

    def leading_monomial(self) -> Monomial:
        return max(self.terms)

    def leading_coefficient(self) -> Fraction:
        return self.terms[max(self.terms)]

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(monomial_degree(m) for m in self.terms)

    def degree_in(self, name: str) -> int:
        idx = self.variables.index(name)
        if not self.terms:
            return 0
        return max(m[idx] for m in self.terms)

    def uses_only(self, name: str) -> bool:
        """True when every term involves no unknown other than ``name``."""
        idx = self.variables.index(name)
        return all(
            all(e == 0 for k, e in enumerate(m) if k != idx) for m in self.terms
        )

    def monic(self) -> "MultivariatePolynomial":
        if not self.terms:
            return self
        lead = self.leading_coefficient()
        if lead == 1:
            return self
        out = MultivariatePolynomial(self.variables)
        out.terms = {m: c / lead for m, c in self.terms.items()}
        return out

    def _check_compatible(self, other: "MultivariatePolynomial"):
        if self.variables != other.variables:
            raise ValueError(f"variable orders differ: {self.variables} vs {other.variables}")

    def _combine(self, other: "MultivariatePolynomial", sign: int) -> "MultivariatePolynomial":
        """``self + sign * other`` for a sign of +1 or -1."""
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, _ZERO) + sign * c
            if s:
                terms[m] = s
            elif m in terms:
                del terms[m]
        out = MultivariatePolynomial(self.variables)
        out.terms = terms
        return out

    def __add__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "MultivariatePolynomial":
        out = MultivariatePolynomial(self.variables)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __mul__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        self._check_compatible(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                s = terms.get(m, _ZERO) + c1 * c2
                if s:
                    terms[m] = s
                elif m in terms:
                    del terms[m]
        out = MultivariatePolynomial(self.variables)
        out.terms = terms
        return out

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """Floating-point value at the assignment; every unknown must be present."""
        values = []
        for name in self.variables:
            if name not in assignment:
                raise MissingAssignment(name)
            values.append(float(assignment[name]))
        total = 0.0
        for mono, coeff in sorted(self.terms.items()):
            term = float(coeff)
            for v, e in zip(values, mono):
                if e:
                    term *= v**e
            total += term
        return total

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


_ZERO = Fraction(0)


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


def buchberger(
    generators: Sequence[MultivariatePolynomial],
    max_pairs: int = DEFAULT_MAX_PAIRS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> GroebnerBasis:
    """Reduced monic lex Groebner basis of the generated ideal.

    Pairs are processed smallest lcm in the lex order first (Buchberger's
    normal strategy).  A nonzero constant remainder short-circuits to the
    unit basis.

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

    unit = GroebnerBasis(
        polynomials=(MultivariatePolynomial.constant(1, variables),), variables=variables
    )
    packing = Packing(len(variables))

    basis: list[Divisor] = []
    lead: list[int] = []
    pairs: list[tuple[int, int, int]] = []
    term_count = 0

    def append(remainder: dict[int, int]):
        nonlocal pairs, term_count
        g = packing.divisor(remainder)
        basis.append(g)
        lead.append(g.lead)
        term_count += len(remainder)
        if term_count > max_terms:
            raise ResourceLimit(f"stored terms exceeded {max_terms}")
        pairs = update_pairs(pairs, lead, len(basis) - 1, packing)

    for g in generators:
        r, _ = reduce(packing.integer_terms(g.terms)[0], basis, packing)
        if not r:
            continue
        # Remainder terms come out in decreasing order: a zero leading
        # monomial means a nonzero constant.
        if not next(iter(r)):
            return unit
        append(r)

    processed = 0
    while pairs:
        processed += 1
        if processed > max_pairs:
            raise ResourceLimit(f"processed pairs exceeded {max_pairs}")
        _, i, j = heapq.heappop(pairs)
        r, _ = reduce(s_work(basis[i], basis[j], packing), basis, packing)
        if not r:
            continue
        if not next(iter(r)):
            return unit
        append(r)

    reduced = [_unpacked(packing, variables, r, next(iter(r.values()))) for r in reduce_basis(basis, packing)]
    return GroebnerBasis(polynomials=tuple(reduced), variables=variables)


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
    worst = max((abs(v) for v in residuals), default=0.0)
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
    if variables is None:
        variables = scaling_variables(instance.rows, instance.cols, instance.gauge)
    variables = tuple(variables)
    expected = set(scaling_variables(instance.rows, instance.cols, instance.gauge))
    if set(variables) != expected:
        raise ValueError(f"variables must be a permutation of {sorted(expected)}")
    index = {name: k for k, name in enumerate(variables)}
    width = len(variables)

    def factor_mono(name: str) -> Monomial | None:
        # None means the factor is gauge-fixed to 1.
        if name not in index:
            return None
        return tuple(1 if k == index[name] else 0 for k in range(width))

    row_monos = [factor_mono(f"r{i + 1}") for i in range(instance.rows)]
    col_monos = [factor_mono(f"c{j + 1}") for j in range(instance.cols)]
    zero_mono = (0,) * width

    def cell_mono(i: int, j: int) -> Monomial:
        rm, cm = row_monos[i], col_monos[j]
        if rm is None and cm is None:
            return zero_mono
        if rm is None:
            return cm
        if cm is None:
            return rm
        return monomial_mul(rm, cm)

    polys = []
    for i in range(instance.rows):
        terms: dict[Monomial, Fraction] = {}
        for j in range(instance.cols):
            mono = cell_mono(i, j)
            terms[mono] = terms.get(mono, _ZERO) + instance.entries[i][j]
        terms[zero_mono] = terms.get(zero_mono, _ZERO) - instance.row_targets[i]
        polys.append(MultivariatePolynomial(variables, terms))
    for j in range(instance.cols):
        terms = {}
        for i in range(instance.rows):
            mono = cell_mono(i, j)
            terms[mono] = terms.get(mono, _ZERO) + instance.entries[i][j]
        terms[zero_mono] = terms.get(zero_mono, _ZERO) - instance.col_targets[j]
        polys.append(MultivariatePolynomial(variables, terms))
    return polys


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
