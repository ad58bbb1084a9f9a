"""Packed monomials and fraction-free integer reduction.

This is the inside of the lex Buchberger engine in
:mod:`matbalance.exactalgebra`, which converts to and from its public
rational types at the boundary.

A monomial is one int: each exponent fills a field of ``FIELD_BITS`` bits,
the first unknown in the most significant field, so lex order is integer
order and a product of monomials is a sum.  The top bit of each field is a
guard that stays clear while every exponent is below ``EXPONENT_LIMIT``;
then ``lm`` divides ``m`` exactly when ``(m - lm) & guard`` is 0, because a
field of ``m`` below that of ``lm`` borrows into a guard.  Polynomials are
dicts from packed monomials to int coefficients.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .core import MatrixBalanceError

FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)


class ResourceLimit(MatrixBalanceError):
    """Basis computation exceeded the configured pair or term budget, or an
    exponent reached the packed field limit."""


class Divisor(NamedTuple):
    """A primitive integer polynomial, split for reduction.

    ``tail`` holds the other terms in decreasing order, and ``span`` is the
    lcm of all its monomials, so ``x^d * self`` stays inside the packed
    fields exactly when ``d + span`` has no guard bit set.
    """

    lead: int
    coeff: int
    tail: list[tuple[int, int]]
    span: int


class Packing:
    """Packed monomials in a fixed number of unknowns."""

    def __init__(self, nvars: int):
        self.shifts = tuple(FIELD_BITS * k for k in reversed(range(nvars)))
        self.guard = sum(EXPONENT_LIMIT << shift for shift in self.shifts)

    def pack(self, mono: Sequence[int]) -> int:
        packed = 0
        for e in mono:
            if e < 0:
                raise ValueError(f"negative exponent in {mono}")
            if e >= EXPONENT_LIMIT:
                raise ResourceLimit(f"exponent {e} reached the packed field limit {EXPONENT_LIMIT}")
            packed = (packed << FIELD_BITS) | e
        return packed

    def unpack(self, packed: int) -> tuple[int, ...]:
        return tuple((packed >> shift) & (EXPONENT_LIMIT - 1) for shift in self.shifts)

    def lcm(self, a: int, b: int) -> int:
        # Guard bits mark the fields where a >= b; widen them to field masks.
        a_wins = ((a | self.guard) - b) & self.guard
        a_wins -= a_wins >> (FIELD_BITS - 1)
        return (a & a_wins) | (b & ~a_wins)

    def check(self, packed: int) -> None:
        if packed & self.guard:
            raise ResourceLimit(f"an exponent reached the packed field limit {EXPONENT_LIMIT}")

    def integer_terms(self, terms: Mapping[tuple[int, ...], Fraction]) -> tuple[dict[int, int], int]:
        """Packed integer terms equal to ``den`` times the rational ones, and ``den``."""
        den = math.lcm(*(c.denominator for c in terms.values()))
        return {self.pack(m): c.numerator * (den // c.denominator) for m, c in terms.items()}, den

    def divisor(self, terms: dict[int, int]) -> Divisor:
        """The primitive part of nonzero integer terms, with a positive lead."""
        monos = sorted(terms, reverse=True)
        lead = monos[0]
        content = math.gcd(*terms.values())
        if terms[lead] < 0:
            content = -content
        span = lead
        for m in monos:
            span = self.lcm(span, m)
        return Divisor(lead, terms[lead] // content, [(m, terms[m] // content) for m in monos[1:]], span)


def reduce(work: dict[int, int], divisors: Sequence[Divisor], packing: Packing) -> tuple[dict[int, int], int]:
    """Fraction-free remainder of ``work`` by the divisors, tried in order.

    Each step is ``p <- (lc/h) p - (c/h) x^d g`` with ``h = gcd(lc, c)``, a
    nonzero multiple of the rational step, so the remainder comes out as
    ``scale`` times the exact one.  ``work`` is consumed.  Returns the
    remainder terms, in decreasing order, and ``scale``.
    """
    guard = packing.guard
    heap = [-m for m in work]
    heapq.heapify(heap)
    remainder: dict[int, int] = {}
    scale = 1
    while heap:
        mono = -heapq.heappop(heap)
        coeff = work.pop(mono, 0)
        if not coeff:
            # A cancelled term, or a second heap entry for one already done.
            continue
        for lead, lead_coeff, tail, span in divisors:
            shift = mono - lead
            if shift & guard:
                continue
            packing.check(shift + span)
            h = math.gcd(lead_coeff, coeff)
            up, factor = lead_coeff // h, coeff // h
            if up != 1:
                scale *= up
                for m in work:
                    work[m] *= up
                for m in remainder:
                    remainder[m] *= up
            for m, c in tail:
                target = m + shift
                s = work.get(target)
                if s is None:
                    work[target] = -factor * c
                    heapq.heappush(heap, -target)
                else:
                    s -= factor * c
                    if s:
                        work[target] = s
                    else:
                        del work[target]
            break
        else:
            remainder[mono] = coeff
    return remainder, scale


def s_work(f: Divisor, g: Divisor, packing: Packing) -> dict[int, int]:
    """The S-polynomial of ``f`` and ``g`` times the lcm of their leading coefficients."""
    lcm = packing.lcm(f.lead, g.lead)
    f_shift, g_shift = lcm - f.lead, lcm - g.lead
    packing.check(f_shift + f.span)
    packing.check(g_shift + g.span)
    h = math.gcd(f.coeff, g.coeff)
    f_factor, g_factor = g.coeff // h, f.coeff // h
    work = {m + f_shift: f_factor * c for m, c in f.tail}
    for m, c in g.tail:
        target = m + g_shift
        s = work.get(target, 0) - g_factor * c
        if s:
            work[target] = s
        else:
            del work[target]
    return work


def update_pairs(
    pairs: list[tuple[int, int, int]],
    lead: list[int],
    t: int,
    packing: Packing,
) -> list[tuple[int, int, int]]:
    """Gebauer-Moeller pair update when basis element ``t`` is appended.

    Installs Buchberger's two classical discarding criteria: pairs whose
    leading monomials are coprime reduce to zero, and pairs dominated by a
    chain through the new element are redundant.  Pairs are heap entries
    ``(lcm, i, j)``, so the smallest lcm in the lex order comes first.
    """
    guard = packing.guard
    new_lead = lead[t]
    lcms = [packing.lcm(lead[i], new_lead) for i in range(t)]

    # Drop old pairs strictly dominated by the new element.
    survivors = [
        (lcm_ij, i, j)
        for lcm_ij, i, j in pairs
        if (lcm_ij - new_lead) & guard or lcms[i] == lcm_ij or lcms[j] == lcm_ij
    ]
    heapq.heapify(survivors)

    # Among the new pairs, drop those whose lcm is a multiple of a kept new
    # pair's lcm, which keeps one representative per equal lcm.
    kept: list[int] = []
    kept_lcms: list[int] = []
    for i in sorted(range(t), key=lcms.__getitem__):
        lcm_it = lcms[i]
        if any(not (lcm_it - other) & guard for other in kept_lcms):
            continue
        kept.append(i)
        kept_lcms.append(lcm_it)

    # Product criterion: coprime leading monomials reduce to zero.
    for i, lcm_it in zip(kept, kept_lcms):
        if lcm_it != lead[i] + new_lead:
            heapq.heappush(survivors, (lcm_it, i, t))
    return survivors


def reduce_basis(basis: list[Divisor], packing: Packing) -> list[dict[int, int]]:
    """Minimalize (no leading monomial divides another), then tail-reduce.

    Returns the integer terms of each element, sorted by decreasing leading
    monomial, with the leading term first.
    """
    minimal: list[Divisor] = []
    for g in sorted(basis, key=lambda g: g.lead):
        if any(not (g.lead - h.lead) & packing.guard for h in minimal):
            continue
        minimal.append(g)
    reduced = [
        reduce(dict([(g.lead, g.coeff), *g.tail]), minimal[:idx] + minimal[idx + 1 :], packing)[0]
        for idx, g in enumerate(minimal)
    ]
    return reduced[::-1]
