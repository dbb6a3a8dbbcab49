"""Structure constants, graded kernel ideals, lifting, and flat families.

Level K of the tower is the cyclic module M_K generated by the
highest-weight vector of M_{K-1} (x) M_1, both factors written on their
essential vectors; it is the Cartan component, of highest weight K lambda.
The factors embed g-equivariantly in the ambient representations with the
highest-weight vector fixed, so the scan sees the same linear dependencies
as in the K-th tensor power of the level-1 representation, on a space of
dimension dim M_{K-1} * dim M_1 instead of d^K.

The dual basis of a cyclic module tower multiplies with structure constants
read off the essential vectors of M_{k1} (x) M_{k2}: the entry of u's vector
at the pair (e1, e2) is, up to the sign (-1)^{|e1||e2|}, the coefficient of
u in eta_{e1} * eta_{e2}.  A product's value is memoized as its prefix's
value times one table product.  Grouping presentation-ring monomials by
semigroup component yields the kernel of the degenerate (initial) algebra:
each component's signed collapse map is one row of +-1 entries, so its
kernel is spanned by binomials in closed form.  Lifting rewrites each
binomial as an exact relation by absorbing higher components, and a weight
vector turns the corrections into positive powers of one parameter t,
giving a family with fibers interpolating between the original algebra
(t = 1) and its monomial degeneration (t = 0); each fiber's ideal is ranked
degree by degree, I_h = R_1 I_{h-1} + (generators of degree h).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from typing import NamedTuple

from .linalg import RankAccumulator, Rat, fourier_motzkin_solve
from .liesuper import NegativeBasis
from .modules import (
    CyclicModule, HighestWeightRealization, ProgramFault, pbw_act, tensor
)
from .essential import BOTTOM, EssentialSet, decompose_to_chain, essential_monomials
from .superpoly import (
    MonomialOrder,
    MultiExponent,
    SuperPolynomial,
    koszul_count,
    monomials_of_degree,
)

__all__ = [
    "LevelTower",
    "StructureTable",
    "structure_constants",
    "SRing",
    "GradedRelation",
    "gr_ideal",
    "evaluate_in_tower",
    "lift_relations",
    "find_weight_vector",
    "DegenerationFamily",
    "family_ideal",
    "HilbertReport",
    "hilbert_check",
    "LiftError",
]


class LiftError(RuntimeError):
    """A verdict on the input, not a fault: a residual component has no
    essential-chain decomposition."""


def _add(dst: dict, key, c: Rat) -> None:
    """dst[key] += c, dropping the entry when it becomes zero."""
    val = dst.get(key, 0) + c
    if val:
        dst[key] = val
    else:
        dst.pop(key, None)


# ---------------------------------------------------------------------------
# Tower of tensor levels
# ---------------------------------------------------------------------------


class LevelTower:
    """Essential sets and cyclic modules of levels 1..K, scanned upward in
    one loop: ``levels[k - 1]`` is level k's ``essential_monomials`` pair.

    Level K >= 2 is realized in M_{K-1} (x) M_1, each factor written on its
    own essential vectors (``CyclicModule.on_essentials``), not in the K-th
    tensor power of the level-1 representation.  M_{K-1} (x) M_1 embeds in
    rep_{K-1} (x) rep_1 by an injective g-map that fixes the highest-weight
    vector, so every monomial image has the same linear dependencies there:
    essential sets, expansions and structure tables do not change.
    ``table(k, 1)`` relies on this layout: it reads the products off the
    level-(k+1) essential vectors, whose entries are indexed by pairs of
    level-k and level-1 essentials.
    """

    def __init__(
        self,
        basis: NegativeBasis,
        real1: HighestWeightRealization,
        order: MonomialOrder | None = None,
    ):
        self.basis = basis
        self.order = order if order is not None else MonomialOrder("graded-lex")
        self.levels: list[tuple[EssentialSet, CyclicModule]] = [
            essential_monomials(real1, basis, self.order)
        ]
        self._tables: dict[tuple[int, int], "StructureTable"] = {}
        self._values: dict[tuple[MultiExponent, ...], dict[MultiExponent, Rat]] = {}

    def _level(self, k: int) -> tuple[EssentialSet, CyclicModule]:
        if k < 1:
            raise ProgramFault(f"tower level must be >= 1, got {k}")
        while len(self.levels) < k:
            real = self._level_realization(len(self.levels) + 1)
            self.levels.append(essential_monomials(real, self.basis, self.order))
        return self.levels[k - 1]

    def _level_realization(self, k: int) -> HighestWeightRealization:
        """Level k >= 2 inside M_{k-1} (x) M_1; levels below k are built."""
        below, first = self.levels[k - 2][1], self.levels[0][1]
        return tensor(below.on_essentials, first.on_essentials)

    def essential(self, k: int) -> EssentialSet:
        return self._level(k)[0]

    def module(self, k: int) -> CyclicModule:
        return self._level(k)[1]

    def table(self, k1: int, k2: int) -> "StructureTable":
        key = (k1, k2)
        if key not in self._tables:
            self._tables[key] = structure_constants(self, k1, k2)
        return self._tables[key]

    def value(self, factors: tuple[MultiExponent, ...]) -> dict[MultiExponent, Rat]:
        """The product of level-1 essentials, left to right, over the
        level-len(factors) dual basis; memoized, each value is its prefix's
        value times one (k, 1) table product.  Callers must not change it."""
        val = self._values.get(factors)
        if val is None:
            if len(factors) == 1:
                val = {factors[0]: 1}
            else:
                table, last, val = self.table(len(factors) - 1, 1), factors[-1], {}
                for u, c in self.value(factors[:-1]).items():
                    for u2, c2 in table.product(u, last).items():
                        _add(val, u2, c * c2)
            self._values[factors] = val
        return val


# ---------------------------------------------------------------------------
# Structure constants of the dual basis
# ---------------------------------------------------------------------------


class StructureTable(NamedTuple):
    """Products eta_{e1,k1} * eta_{e2,k2} expanded over the level-(k1+k2)
    dual basis: products[(e1, e2)] = {u: coefficient}."""

    products: dict[tuple[MultiExponent, MultiExponent], dict[MultiExponent, Rat]]

    def product(self, e1: MultiExponent, e2: MultiExponent) -> dict[MultiExponent, Rat]:
        return self.products.get((e1, e2), {})


def structure_constants(tower: LevelTower, k1: int, k2: int) -> StructureTable:
    """Expand all pairwise dual-basis products of levels (k1, k2).

    The vector of a level-(k1+k2) essential exponent u in M_k1 (x) M_k2,
    both factors written on their essential vectors, has entry c at the pair
    (e1, e2) exactly when eta_{e1} * eta_{e2} has coefficient
    (-1)^{|e1||e2|} c on u: evaluating a tensor of functionals picks up that
    parity factor.  For k2 = 1 these are the vectors the tower scanned at
    level k1 + 1; otherwise each is ``pbw_act`` of u in the tensor product.
    """
    ess1, ess2 = tower.module(k1).essentials, tower.module(k2).essentials
    if k2 == 1:
        vectors = tower.module(k1 + 1).essentials
    else:
        real = tensor(
            tower.module(k1).on_essentials, tower.module(k2).on_essentials
        )
        vectors = [
            (u, pbw_act(real, tower.basis, u))
            for u in tower.essential(k1 + k2).monomials
        ]
    d = len(ess2)
    products: dict[
        tuple[MultiExponent, MultiExponent], dict[MultiExponent, Rat]
    ] = {}
    for u, vec in vectors:
        for i, c in vec.items():
            e1, e2 = ess1[i // d][0], ess2[i % d][0]
            sign = -1 if (e1.parity and e2.parity) else 1
            products.setdefault((e1, e2), {})[u] = sign * c
    return StructureTable(products)


# ---------------------------------------------------------------------------
# Presentation ring bookkeeping
# ---------------------------------------------------------------------------


class SRing:
    """Free polynomial superring with one variable per level-1 essential.

    Even-parity essential exponents give commuting variables x1.. (ascending
    scan order, the empty exponent included), odd-parity ones give
    anticommuting variables xi1...  A ring monomial maps to the module
    monomial obtained by multiplying generator images in canonical written
    order (odd variables descending, then even variables); the image is a
    single signed monomial or zero, giving the monomial's semigroup
    component and reordering sign.
    """

    def __init__(self, es1: EssentialSet):
        self.es = es1
        self.even_gens = [e for e in es1.monomials if e.parity == 0]
        self.odd_gens = [e for e in es1.monomials if e.parity == 1]
        self.nS = len(self.even_gens)
        self.qS = len(self.odd_gens)
        self.n_mod = es1.n
        self.q_mod = es1.q
        self._gamma_cache: dict[MultiExponent, tuple[object, int]] = {}
        self._factors: dict[MultiExponent, tuple[MultiExponent, ...]] = {}
        self._leads: dict[MultiExponent, MultiExponent] = {}
        self._components: dict[int, dict[object, list[tuple[MultiExponent, int]]]] = {}
        self._shifts: dict[int, list[dict[int, tuple[int, int]]]] = {}

    def factors(self, sexp: MultiExponent) -> tuple[MultiExponent, ...]:
        """Generator images in canonical written order (odds desc, evens
        asc).  Memoized per ring monomial."""
        out = self._factors.get(sexp)
        if out is None:
            out = tuple(
                self.odd_gens[s] for s in range(self.qS - 1, -1, -1) if sexp.odd[s]
            ) + tuple(
                g for g, m in zip(self.even_gens, sexp.even) for _ in range(m)
            )
            self._factors[sexp] = out
        return out

    def lead_exponent(self, poly: SuperPolynomial) -> MultiExponent:
        """The unreduced sum of the factor exponents of ``poly``'s first
        monomial, odd coordinates adding with multiplicity: the exponent the
        filtration grades a product by.  Every monomial of a component's
        relation sums to that component's exponent; a bottom monomial gets a
        2 where its factors collide.  Memoized per ring monomial."""
        sexp = next(iter(poly.terms))
        out = self._leads.get(sexp)
        if out is None:
            factors = self.factors(sexp)
            out = self._leads[sexp] = MultiExponent(
                tuple(map(sum, zip(*(f.odd for f in factors)))),
                tuple(map(sum, zip(*(f.even for f in factors)))),
            )
        return out

    def exponent_of_chain(self, chain: Sequence[MultiExponent]) -> MultiExponent:
        """The ring monomial using each listed level-1 essential once."""
        even = [0] * self.nS
        odd = [0] * self.qS
        for e in chain:
            if e.parity == 0:
                even[self.even_gens.index(e)] += 1
            else:
                s = self.odd_gens.index(e)
                if odd[s]:  # chain summands have disjoint odd parts
                    raise ProgramFault("odd generator repeated in chain")
                odd[s] = 1
        return MultiExponent(tuple(odd), tuple(even))

    def gamma_and_sign(self, sexp: MultiExponent):
        """(component, sign): the module monomial hit by the ring monomial.

        Returns ((exponent, level), +-1) or (BOTTOM, 0) when odd module
        coordinates collide.  The factors are summed left to right, each
        step flipping the sign on K(f, exp), the new factor's odd part first:
        the tower's law (eta_e1 * eta_e2 leads with (-1)^K(e2, e1)), which
        is ``multiply`` with each new factor on the left.  Memoized, and
        built from the memoized result of the monomial without its last
        factor f (the last even variable, else the lowest odd one) by one
        such step.
        """
        cached = self._gamma_cache.get(sexp)
        if cached is not None:
            return cached
        odd, even = sexp
        t = next((t for t in range(self.nS - 1, -1, -1) if even[t]), None)
        if t is not None:
            f = self.even_gens[t]
            prefix = (odd, even[:t] + (even[t] - 1,) + even[t + 1:])
        elif 1 in odd:
            s = odd.index(1)
            f = self.odd_gens[s]
            prefix = (odd[:s] + (0,) + odd[s + 1:], even)
        else:
            return (MultiExponent.zero(self.n_mod, self.q_mod), 0), 1
        comp, sign = self.gamma_and_sign(MultiExponent(*prefix))
        exp = None if comp is BOTTOM else comp[0].combine(f)
        if exp is None:
            result = (BOTTOM, 0)
        else:
            flip = koszul_count(f.odd, comp[0].odd) % 2
            result = ((exp, comp[1] + 1), -sign if flip else sign)
        self._gamma_cache[sexp] = result
        return result

    def collapse(self, poly: SuperPolynomial) -> dict:
        """``poly`` under the component-collapse ring map (BOTTOM's sign is 0)."""
        out: dict = {}
        for sexp, coeff in poly.terms.items():
            comp, sign = self.gamma_and_sign(sexp)
            _add(out, comp, sign * coeff)
        return out

    def monomials_of_degree(self, h: int) -> list[MultiExponent]:
        return monomials_of_degree(MonomialOrder("graded-lex"), h, self.nS, self.qS)

    def shifts(self, h: int) -> list[dict[int, tuple[int, int]]]:
        """Left multiplication by each variable from degree h to h + 1:
        shifts(h)[j][i] = (i2, sign) when variable j times degree-h monomial
        i is sign times degree-(h+1) monomial i2 (absent when an odd
        variable repeats).  Memoized: callers must not change the result."""
        maps = self._shifts.get(h)
        if maps is None:
            index = {m: i for i, m in enumerate(self.monomials_of_degree(h + 1))}
            maps = []
            for x in self.monomials_of_degree(1):
                maps.append({})
                for i, m in enumerate(self.monomials_of_degree(h)):
                    combined = x.combine(m)
                    if combined is not None:
                        sign = -1 if koszul_count(x.odd, m.odd) % 2 else 1
                        maps[-1][i] = (index[combined], sign)
            self._shifts[h] = maps
        return maps

    def components(self, h: int) -> dict[object, list[tuple[MultiExponent, int]]]:
        """Degree-h ring monomials grouped by component, each with its sign
        (BOTTOM collects the monomials whose odd coordinates collide).
        Memoized: callers must not change the result."""
        groups = self._components.get(h)
        if groups is None:
            groups = self._components[h] = {}
            for sexp in self.monomials_of_degree(h):
                comp, sign = self.gamma_and_sign(sexp)
                groups.setdefault(comp, []).append((sexp, sign))
        return groups

    def kernel_binomials(
        self, items: Sequence[tuple[MultiExponent, int]]
    ) -> list[SuperPolynomial]:
        """Kernel of one component's signed collapse map.

        With signs s_0..s_k the map sends x^{e_i} to s_i times the component,
        so its kernel is spanned by x^{e_i} - s_0*s_i*x^{e_0} for i >= 1.
        """
        (e0, s0), rest = items[0], items[1:]
        return [
            SuperPolynomial(self.nS, self.qS, {e: 1, e0: Rat(-s0 * s)})
            for e, s in rest
        ]


# ---------------------------------------------------------------------------
# Graded kernel ideal
# ---------------------------------------------------------------------------


class GradedRelation(NamedTuple):
    """A presentation-ring relation attached to a semigroup component.

    ``lead`` is the component's kernel combination (the t^0 part);
    ``corrections`` list (component, monomial) pairs filled in by lifting
    (empty for purely graded relations): each monomial's tower value leads
    at its component with only strictly larger terms, so the components
    strictly ascend, all above the lead's.
    """

    degree: int
    component: object  # (MultiExponent, level) or BOTTOM
    lead: SuperPolynomial
    corrections: list[tuple[tuple[MultiExponent, int], SuperPolynomial]]

    def total(self) -> SuperPolynomial:
        return sum((poly for _, poly in self.corrections), self.lead)


def gr_ideal(ring: SRing, degree_bound: int) -> list[GradedRelation]:
    """Kernel generators of the component-collapse map up to ``degree_bound``.

    Degree by degree, ring monomials are grouped by semigroup component;
    within a component the signed collapse map has the closed-form binomial
    kernel of ``SRing.kernel_binomials``.  Monomials with bottom component
    are themselves kernel generators.
    """
    relations: list[GradedRelation] = []
    for h in range(2, degree_bound + 1):
        groups = ring.components(h)
        for comp in sorted(groups, key=sort_key_component):
            if comp is BOTTOM:
                leads = [
                    SuperPolynomial.monomial(ring.nS, ring.qS, sexp)
                    for sexp, _ in groups[comp]
                ]
            else:
                leads = ring.kernel_binomials(groups[comp])
            relations.extend(
                GradedRelation(degree=h, component=comp, lead=lead, corrections=[])
                for lead in leads
            )
    return relations


def sort_key_component(comp) -> tuple:
    if comp is BOTTOM:
        return (0,)
    exp, level = comp
    return (1, level, exp.as_vector())


# ---------------------------------------------------------------------------
# Evaluation in the tower and lifting
# ---------------------------------------------------------------------------


def evaluate_in_tower(
    tower: LevelTower, ring: SRing, poly: SuperPolynomial
) -> dict[tuple[MultiExponent, int], Rat]:
    """Evaluate a homogeneous ring polynomial as a dual-basis combination:
    the sum of the memoized tower values of its monomials' generator images
    in the canonical written order, over level-h essential exponents."""
    out: dict[tuple[MultiExponent, int], Rat] = {}
    for sexp, coeff in poly.terms.items():
        factors = ring.factors(sexp)
        if not factors:
            raise ProgramFault("cannot evaluate a constant term")
        for u, c in tower.value(factors).items():
            _add(out, (u, len(factors)), coeff * c)
    return out


def lift_relations(
    relations: Sequence[GradedRelation],
    tower: LevelTower,
    ring: SRing,
) -> list[GradedRelation]:
    """Rewrite graded kernel generators as exact relations of the dual
    algebra, absorbing strictly larger components in one ascending pass.

    While the residual (the value of the running polynomial) is nonzero,
    take its smallest component, subtract the signed ring monomial of an
    essential-chain decomposition of that component and add that monomial's
    value to the residual.  The tower's law makes this triangular: a
    product's value has terms only at or after the sum of its factors'
    exponents, and only after it when that sum collides in an odd
    coordinate, so the smallest component strictly climbs from the floor
    (``SRing.lead_exponent``, then each step's own); one that fails to
    climb is a ProgramFault.  So the corrections ascend, one monomial per
    component, at most |es(h)| of them.  All relations share one chain memo and one
    level map, grown as they need.
    """
    key = tower.order.key
    chains: dict = {}
    es_by_level: dict[int, EssentialSet] = {}
    lifted: list[GradedRelation] = []
    for rel in relations:
        h = rel.degree
        for k in range(len(es_by_level) + 1, h + 1):
            es_by_level[k] = tower.essential(k)
        residual = evaluate_in_tower(tower, ring, rel.lead)
        floor = ring.lead_exponent(rel.lead)
        corrections: list[tuple[tuple[MultiExponent, int], SuperPolynomial]] = []
        while residual:
            u_min = min((u for (u, _) in residual), key=key)
            if not key(floor) < key(u_min):
                raise ProgramFault(
                    f"residual component {u_min} does not climb above "
                    f"component {floor}"
                )
            chain = decompose_to_chain(u_min, h, es_by_level, chains)
            if chain is None:
                raise LiftError(
                    f"residual component {u_min} at level {h} admits no "
                    "essential-chain decomposition; the essential sets are "
                    "not favourable enough to lift this relation"
                )
            sexp = ring.exponent_of_chain(chain)
            comp, sign = ring.gamma_and_sign(sexp)
            if comp is BOTTOM or comp != (u_min, h):
                # disjoint odd parts adding up to u_min hit (u_min, h)
                raise ProgramFault(
                    f"chain decomposition of {u_min} hit the wrong component"
                )
            c = residual[(u_min, h)] * sign
            mono = SuperPolynomial.monomial(ring.nS, ring.qS, sexp, -c)
            for k, v in evaluate_in_tower(tower, ring, mono).items():
                _add(residual, k, v)
            corrections.append(((u_min, h), mono))
            floor = u_min
        lifted.append(rel._replace(corrections=corrections))
    return lifted


def find_weight_vector(
    relations: Sequence[GradedRelation],
    ring: SRing,
) -> tuple[int, ...] | None:
    """An integer vector w (in module exponent coordinates, even block first)
    with w . (u - lead) >= 1 for every correction component u of every
    lifted relation, where lead is the relation's ``SRing.lead_exponent``;
    None when infeasible, and () when there is no relation.
    """
    nvars = ring.n_mod + ring.q_mod if relations else 0
    diffs: set[tuple[int, ...]] = set()  # distinct u - lead: w . diff >= 1 each
    for rel in relations:
        lead_vec = ring.lead_exponent(rel.lead).as_vector()
        for (u, _level), _poly in rel.corrections:
            if len(u.as_vector()) != nvars:
                raise ProgramFault(  # the relations come from the ring's tower
                    f"correction component {u} does not have the ring's "
                    f"{nvars} module exponent coordinates"
                )
            diffs.add(tuple(b - a for a, b in zip(lead_vec, u.as_vector())))
    if not diffs:
        return (0,) * nvars
    sol = fourier_motzkin_solve([([-d for d in diff], -1) for diff in diffs], nvars)
    if sol is None:
        return None
    denom = math.lcm(*(c.denominator for c in sol))
    return tuple(int(c * denom) for c in sol)


# ---------------------------------------------------------------------------
# The one-parameter family
# ---------------------------------------------------------------------------


class DegenerationFamily(NamedTuple):
    """The t-family: in each generator, pieces[p] enters with coefficient t^p."""

    ring: SRing
    generators: list[dict[int, SuperPolynomial]]

    def all_specialized(self, a: Rat) -> list[SuperPolynomial]:
        """The nonzero fiber generators at t = a."""
        a, ring = Rat(a), self.ring
        out = (
            SuperPolynomial(ring.nS, ring.qS, (
                (e, scale * c)
                for p, poly in sorted(pieces.items()) if (scale := a ** p)
                for e, c in poly.terms.items()
            ))
            for pieces in self.generators
        )
        return [p for p in out if not p.is_zero()]


def family_ideal(
    lifted: Sequence[GradedRelation],
    weight: Sequence[int],
    ring: SRing,
) -> DegenerationFamily:
    """Assemble the t-family of the lifted relations: each correction enters
    at t^{w.(u - lead)}, lead the relation's ``SRing.lead_exponent``, a power
    >= 1 for ``find_weight_vector``'s w."""
    generators: list[dict[int, SuperPolynomial]] = []
    for rel in lifted:
        pieces: dict[int, SuperPolynomial] = {0: rel.lead}
        lead_vec = ring.lead_exponent(rel.lead).as_vector()
        for (u, _level), poly in rel.corrections:
            power = sum(
                w * (b - a) for w, a, b in zip(weight, lead_vec, u.as_vector())
            )
            if power < 1:
                raise ProgramFault(
                    f"family_ideal: weight vector gives non-positive power {power} "
                    f"for correction component {u}"
                )
            prev = pieces.get(power, SuperPolynomial.zero(ring.nS, ring.qS))
            pieces[power] = prev + poly
        generators.append(pieces)
    return DegenerationFamily(ring=ring, generators=generators)


# ---------------------------------------------------------------------------
# Hilbert function comparison across fibers
# ---------------------------------------------------------------------------


class HilbertReport(NamedTuple):
    samples: list[Rat]
    degrees: list[int]
    table: dict[tuple[Rat, int], int]
    expected: dict[int, int]

    @property
    def passed(self) -> bool:
        return all(
            self.table[(a, h)] == self.expected[h]
            for a in self.samples
            for h in self.degrees
        )


def hilbert_check(
    family: DegenerationFamily,
    tower: LevelTower,
    samples: Sequence[Rat | int],
    max_degree: int,
) -> HilbertReport:
    """Per-fiber graded dimensions versus essential-set sizes.

    Each distinct fiber is ranked once, degree by degree (Macaulay's matrix).
    R is generated in degree 1 and the specialized generators are
    homogeneous, so I_h = R_1 I_{h-1} + (generators of degree h): the rows are
    those generators and x_j b for every variable x_j and every b in I_{h-1}'s
    basis (its rows whose insert grew the rank).  The degree-h fiber
    dimension is the monomial count minus that exact rank.

    The t = 0 and t = 1 fibers stop each degree at a ceiling they prove.
    When a ring map sends every generator of degree <= max_degree to zero,
    their ideal lies in its kernel (an ideal), so the degree-h rank is at
    most the monomial count minus the map's image dimension: the non-bottom
    components for ``SRing.collapse`` at t = 0, |es(h)| for
    ``evaluate_in_tower`` at t = 1 (R maps onto the dual algebra).  Any other
    fiber runs every row.
    """
    ring = family.ring
    samples = [Rat(a) for a in samples]
    degrees = list(range(1, max_degree + 1))
    table: dict[tuple[Rat, int], int] = {}
    expected = {h: tower.essential(h).size for h in degrees}
    for a in dict.fromkeys(samples):
        by_degree: dict[int, list[SuperPolynomial]] = {}
        for g in family.all_specialized(a):
            h, *rest = {e.degree for e in g.terms}
            if rest:  # leads and chain corrections of a relation share its degree
                raise ProgramFault(f"generator {g.to_text()} is not homogeneous")
            by_degree.setdefault(h, []).append(g)
        seen = [g for h in degrees for g in by_degree.get(h, ())]
        image = {}  # of a ring map whose kernel holds every generator the table sees
        if a == 0 and not any(map(ring.collapse, seen)):
            image = {h: len(ring.components(h).keys() - {BOTTOM}) for h in degrees}
        elif a == 1 and not any(evaluate_in_tower(tower, ring, g) for g in seen):
            image = expected
        basis: list[dict[int, Rat]] = []
        for h in degrees:
            index = {m: i for i, m in enumerate(ring.monomials_of_degree(h))}
            gens = (
                {index[e]: c for e, c in g.terms.items()} for g in by_degree.get(h, ())
            )
            shifted = (  # shifts(h - 1) is asked for only when I_{h-1} is nonzero
                {shift[i][0]: shift[i][1] * c for i, c in b.items() if i in shift}
                for b in basis for shift in ring.shifts(h - 1)
            )
            ceiling = len(index) - image[h] if image else None
            rows, acc, basis = itertools.chain(gens, shifted), RankAccumulator(), []
            # rows are made one at a time; only the basis is kept
            while acc.rank != ceiling and (row := next(rows, None)) is not None:
                if acc.insert(row):
                    basis.append(row)
            table[(a, h)] = len(index) - acc.rank
    return HilbertReport(
        samples=samples, degrees=degrees, table=table, expected=expected
    )
