"""Scan-independent (essential) exponents, semigroup checks, favourability.

The essential exponents of a cyclic module, taken with respect to a monomial
order, are those whose images are independent from all strictly smaller
monomial images.  Across tensor levels they generate a semigroup with a
distinguished absorbing bottom element; favourability asks every higher-level
essential exponent to split off a level-one essential summand.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import NamedTuple

from .liesuper import AlgebraContext, NegativeBasis, negative_basis
from .modules import CyclicModule, HighestWeightRealization, ProgramFault, cyclic_span
from .superpoly import ExponentFile, MonomialOrder, MultiExponent

__all__ = [
    "EssentialSet",
    "BOTTOM",
    "essential_monomials",
    "semigroup_add",
    "SemigroupReport",
    "check_semigroup_property",
    "FavourabilityReport",
    "is_favourable",
    "decompose_to_chain",
    "CatalogMatch",
    "search_order_catalog",
    "serialize_essential_set",
    "parse_essential_set",
]


class EssentialSet:
    """Essential exponents of a level-``level`` cyclic module, scan order
    ascending, plus the monomial order and variable labels used."""

    __slots__ = ("level", "n", "q", "monomials", "order", "labels", "_members")

    def __init__(
        self,
        level: int,
        n: int,
        q: int,
        monomials: list[MultiExponent],
        order: MonomialOrder,
        labels: dict[str, str] | None = None,
    ):
        self.level = level
        self.n = n
        self.q = q
        self.monomials = monomials
        self.order = order
        self.labels = {} if labels is None else labels
        self._members = frozenset(monomials)

    @property
    def size(self) -> int:
        return len(self.monomials)

    def __contains__(self, exp: MultiExponent) -> bool:
        return exp in self._members


class _Bottom:
    """Absorbing bottom element of the exponent semigroup."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOTTOM"


BOTTOM = _Bottom()


def essential_monomials(
    real: HighestWeightRealization,
    basis: NegativeBasis,
    order: MonomialOrder | None = None,
) -> tuple[EssentialSet, CyclicModule]:
    """Essential exponents of the cyclic module generated inside ``real``.

    The cyclic-span scan runs ascending in the monomial order (weighted
    orders need positive integer weights), so it already yields the
    essential exponents.
    """
    module = cyclic_span(real, basis, order=order)
    es = EssentialSet(
        level=real.level,
        n=basis.n,
        q=basis.q,
        monomials=module.essential_exponents(),
        order=module.order,
        labels=basis.labels(),
    )
    return es, module


# ---------------------------------------------------------------------------
# Semigroup structure
# ---------------------------------------------------------------------------


def semigroup_add(a, b):
    """Add two (exponent, level) pairs; odd collisions give BOTTOM."""
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    (ea, ka), (eb, kb) = a, b
    combined = ea.combine(eb)
    if combined is None:
        return BOTTOM
    return (combined, ka + kb)


class SemigroupReport(NamedTuple):
    checked: int
    violations: list[tuple[MultiExponent, MultiExponent]]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_semigroup_property(
    es1: EssentialSet, es2: EssentialSet, es_sum: EssentialSet
) -> SemigroupReport:
    """Verify es(k1) + es(k2) lands inside es(k1+k2) (bottom absorbs)."""
    violations = []
    checked = 0
    for a in es1.monomials:
        for b in es2.monomials:
            checked += 1
            s = semigroup_add((a, es1.level), (b, es2.level))
            if s is BOTTOM:
                continue
            exp, level = s
            if level != es_sum.level:
                raise ProgramFault("level bookkeeping mismatch in semigroup check")
            if exp not in es_sum:
                violations.append((a, b))
    return SemigroupReport(checked=checked, violations=violations)


class FavourabilityReport(NamedTuple):
    max_level: int
    failures: list[tuple[int, MultiExponent]]

    @property
    def favourable(self) -> bool:
        return not self.failures


def decompose_to_chain(
    exp: MultiExponent,
    level: int,
    es_by_level: dict[int, EssentialSet],
    _memo: dict | None = None,
) -> list[MultiExponent] | None:
    """A list of level-1 essential summands of ``exp`` whose partial sums are
    essential at every level, or None when no such chain exists."""
    if _memo is None:
        _memo = {}
    key = (level, exp)
    if key in _memo:
        return _memo[key]
    if level == 1:
        result = [exp] if exp in es_by_level[1] else None
        _memo[key] = result
        return result
    result = None
    if exp in es_by_level[level]:
        for a in es_by_level[1].monomials:
            rest_odd = tuple(x - y for x, y in zip(exp.odd, a.odd))
            rest_even = tuple(x - y for x, y in zip(exp.even, a.even))
            if any(v < 0 for v in rest_odd) or any(v < 0 for v in rest_even):
                continue
            rest = MultiExponent(rest_odd, rest_even)
            chain = decompose_to_chain(rest, level - 1, es_by_level, _memo)
            if chain is not None:
                result = chain + [a]
                break
    _memo[key] = result
    return result


def is_favourable(es_levels: Sequence[EssentialSet]) -> FavourabilityReport:
    """Check that every essential exponent at level k >= 2 splits as a
    level-(k-1) essential plus a level-1 essential (hence admits a full
    chain of essential partial sums)."""
    es_by_level = {es.level: es for es in es_levels}
    max_level = max(es_by_level)
    if set(es_by_level) != set(range(1, max_level + 1)):
        raise ProgramFault("need essential sets for every level 1..K")
    memo: dict = {}
    failures = [
        (k, exp)
        for k in range(2, max_level + 1)
        for exp in es_by_level[k].monomials
        if decompose_to_chain(exp, k, es_by_level, memo) is None
    ]
    return FavourabilityReport(max_level=max_level, failures=failures)


# ---------------------------------------------------------------------------
# Order catalog search
# ---------------------------------------------------------------------------


class CatalogMatch(NamedTuple):
    kind: str
    permutation: tuple[int, ...]
    essential: EssentialSet


def search_order_catalog(
    context: AlgebraContext,
    real: HighestWeightRealization,
    target_labeled: set[frozenset],
) -> list[CatalogMatch]:
    """Scan all basis permutations x {graded-lex, graded-revlex} and return
    the combinations whose essential exponents match ``target_labeled``
    (as sets of label -> multiplicity dictionaries).

    Under every basis order and monomial order the essential set has
    exactly dim M elements, since ordered monomials in any order span the
    same module, and ``exponent_as_labeled`` is injective.  So the first
    scan certifies the answer [] when ``target_labeled`` has another size.
    """
    default = negative_basis(context.borel)
    matches: list[CatalogMatch] = []
    for perm in itertools.permutations(range(len(default.elements))):
        basis_p = default.permuted(perm)
        for kind in ("graded-lex", "graded-revlex"):
            es, _ = essential_monomials(real, basis_p, MonomialOrder(kind))
            if es.size != len(target_labeled):
                return []
            labeled = {basis_p.exponent_as_labeled(e) for e in es.monomials}
            if labeled == target_labeled:
                matches.append(
                    CatalogMatch(kind=kind, permutation=tuple(perm), essential=es)
                )
    return matches


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_essential_set(es: EssentialSet) -> str:
    points = [(exp, es.level) for exp in es.monomials]
    return str(ExponentFile(es.n, es.q, points, es.labels, es.order))


def parse_essential_set(text: str) -> EssentialSet:
    """Read an exponent file (``ExponentFile.parse``, which names a malformed
    line) whose points all carry the same level k."""
    data = ExponentFile.parse(text)
    level = data.points[0][1] if data.points else 1
    for exp, k in data.points:
        if k != level:
            raise ValueError(f"mixed levels in essential-set file: {exp} k={k}")
    return EssentialSet(
        level=level,
        n=data.n,
        q=data.q,
        monomials=[exp for exp, _ in data.points],
        order=data.order or MonomialOrder("graded-lex"),
        labels=data.labels,
    )
