"""Structure constants, graded kernel ideals, lifting, and flat families.

The dual basis of a cyclic module tower multiplies with structure constants
computed by splitting ordered monomials across tensor factors and expanding
each factor over the essential vectors.  Grouping presentation-ring monomials
by their semigroup component yields the kernel of the degenerate (initial)
algebra: each component's signed collapse map is one row of +-1 entries, so
its kernel is spanned by binomials written down in closed form.  Lifting
rewrites each binomial as an exact relation by absorbing higher components,
and a weight vector turns the corrections into positive powers of one
parameter t, giving a family with fibers interpolating between the original
algebra (t = 1) and its monomial degeneration (t = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .linalg import RankAccumulator, Rat, SparseVector, fourier_motzkin_solve
from .liesuper import NegativeBasis
from .modules import (
    CyclicModule,
    HighestWeightRealization,
    cartan_expand,
    tensor,
)
from .essential import BOTTOM, EssentialSet, decompose_to_chain, essential_monomials
from .superpoly import (
    MonomialOrder,
    MultiExponent,
    SuperPolynomial,
    monomials_of_degree,
    multiply,
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
    "FamilyGenerator",
    "DegenerationFamily",
    "family_ideal",
    "HilbertReport",
    "hilbert_check",
    "LiftError",
]


class LiftError(RuntimeError):
    """A relation could not be rewritten as an exact identity."""


# ---------------------------------------------------------------------------
# Tower of tensor levels
# ---------------------------------------------------------------------------


class LevelTower:
    """Realizations, cyclic modules, and essential sets for levels 1..K;
    ``degree_cap`` bounds the span scan of every level."""

    def __init__(
        self,
        basis: NegativeBasis,
        real1: HighestWeightRealization,
        order: MonomialOrder | None = None,
        degree_cap: int | None = None,
    ):
        self.basis = basis
        self.order = order if order is not None else MonomialOrder("graded-lex")
        self.degree_cap = degree_cap
        self.reals: dict[int, HighestWeightRealization] = {1: real1}
        self.modules: dict[int, CyclicModule] = {}
        self.es: dict[int, EssentialSet] = {}
        self._tables: dict[tuple[int, int], "StructureTable"] = {}
        self._ensure_level(1)

    def _ensure_level(self, k: int) -> None:
        if k in self.es:
            return
        if k < 1:
            raise ValueError(f"tower level must be >= 1, got {k}")
        if k not in self.reals:
            self._ensure_level(k - 1)
            self.reals[k] = tensor(self.reals[k - 1], self.reals[1])
        es, module = essential_monomials(
            self.reals[k], self.basis, self.order, degree_cap=self.degree_cap
        )
        self.es[k] = es
        self.modules[k] = module

    def essential(self, k: int) -> EssentialSet:
        self._ensure_level(k)
        return self.es[k]

    def module(self, k: int) -> CyclicModule:
        self._ensure_level(k)
        return self.modules[k]

    def realization(self, k: int) -> HighestWeightRealization:
        self._ensure_level(k)
        return self.reals[k]

    def table(self, k1: int, k2: int) -> "StructureTable":
        key = (k1, k2)
        if key not in self._tables:
            self._tables[key] = structure_constants(self, k1, k2)
        return self._tables[key]

    def es_by_level(self, max_level: int) -> dict[int, EssentialSet]:
        for k in range(1, max_level + 1):
            self._ensure_level(k)
        return {k: self.es[k] for k in range(1, max_level + 1)}


# ---------------------------------------------------------------------------
# Structure constants of the dual basis
# ---------------------------------------------------------------------------


@dataclass
class StructureTable:
    """Products eta_{e1,k1} * eta_{e2,k2} expanded over the level-(k1+k2)
    dual basis: products[(e1, e2)] = {u: coefficient}."""

    k1: int
    k2: int
    products: dict[tuple[MultiExponent, MultiExponent], dict[MultiExponent, Rat]]

    def product(self, e1: MultiExponent, e2: MultiExponent) -> dict[MultiExponent, Rat]:
        return self.products.get((e1, e2), {})


def structure_constants(tower: LevelTower, k1: int, k2: int) -> StructureTable:
    """Expand all pairwise dual-basis products of levels (k1, k2).

    For each level-(k1+k2) essential exponent u, the ordered monomial is
    split across the k1|k2 tensor factorization (first slot acting on the
    level-k1 factor); expanding the two slots over their essential vectors
    and pairing in order picks up the global parity factor
    (-1)^{|e1||e2|} from evaluating a tensor of functionals.
    """
    es12 = tower.essential(k1 + k2)
    mod1 = tower.module(k1)
    mod2 = tower.module(k2)
    products: dict[
        tuple[MultiExponent, MultiExponent], dict[MultiExponent, Rat]
    ] = {}
    for u in es12.monomials:
        for (a, b), coeff in cartan_expand(u, divided=True):
            pa = mod1.expand(a)
            if not pa:
                continue
            pb = mod2.expand(b)
            if not pb:
                continue
            for e1, c1 in pa.items():
                for e2, c2 in pb.items():
                    sign = -1 if (e1.parity and e2.parity) else 1
                    dst = products.setdefault((e1, e2), {})
                    val = dst.get(u, Rat(0)) + sign * coeff * c1 * c2
                    if val == 0:
                        dst.pop(u, None)
                    else:
                        dst[u] = val
    products = {k: v for k, v in products.items() if v}
    return StructureTable(k1=k1, k2=k2, products=products)


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
        self._components: dict[int, dict[object, list[tuple[MultiExponent, int]]]] = {}

    def generator_names(self) -> dict[str, MultiExponent]:
        names: dict[str, MultiExponent] = {}
        for t, e in enumerate(self.even_gens):
            names[f"x{t + 1}"] = e
        for s, e in enumerate(self.odd_gens):
            names[f"xi{s + 1}"] = e
        return names

    def factors(self, sexp: MultiExponent) -> list[MultiExponent]:
        """Generator images in canonical written order (odds desc, evens asc)."""
        out = [
            self.odd_gens[s]
            for s in range(self.qS - 1, -1, -1)
            if sexp.odd[s]
        ]
        for t in range(self.nS):
            out.extend([self.even_gens[t]] * sexp.even[t])
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
                if odd[s]:
                    raise ValueError("odd generator repeated in chain")
                odd[s] = 1
        return MultiExponent(tuple(odd), tuple(even))

    def gamma_and_sign(self, sexp: MultiExponent):
        """(component, sign): the module monomial hit by the ring monomial.

        Returns ((exponent, level), +-1) or (BOTTOM, 0) when odd module
        coordinates collide.
        """
        cached = self._gamma_cache.get(sexp)
        if cached is not None:
            return cached
        poly = SuperPolynomial.one(self.n_mod, self.q_mod)
        for f in self.factors(sexp):
            poly = multiply(
                poly, SuperPolynomial.monomial(self.n_mod, self.q_mod, f)
            )
            if poly.is_zero():
                break
        if poly.is_zero():
            result = (BOTTOM, 0)
        else:
            [(exp, coeff)] = poly.terms.items()
            if coeff not in (1, -1):
                raise RuntimeError("reordering sign must be a unit")
            result = ((exp, sexp.degree), int(coeff))
        self._gamma_cache[sexp] = result
        return result

    def monomials_of_degree(self, h: int) -> list[MultiExponent]:
        return monomials_of_degree(MonomialOrder("graded-lex"), h, self.nS, self.qS)

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
            SuperPolynomial(self.nS, self.qS, {e: Rat(1), e0: Rat(-s0 * s)})
            for e, s in rest
        ]


# ---------------------------------------------------------------------------
# Graded kernel ideal
# ---------------------------------------------------------------------------


@dataclass
class GradedRelation:
    """A presentation-ring relation attached to a semigroup component.

    ``lead`` is the component's kernel combination (the t^0 part);
    ``corrections`` list (component, polynomial) pairs on strictly larger
    components, filled in by lifting (empty for purely graded relations).
    """

    degree: int
    component: object  # (MultiExponent, level) or BOTTOM
    lead: SuperPolynomial
    corrections: list[tuple[tuple[MultiExponent, int], SuperPolynomial]] = field(
        default_factory=list
    )

    def total(self) -> SuperPolynomial:
        out = self.lead
        for _, poly in self.corrections:
            out = out + poly
        return out


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
                GradedRelation(degree=h, component=comp, lead=lead)
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
    """Evaluate a homogeneous ring polynomial as a dual-basis combination.

    Each monomial's generator images are multiplied left to right in the
    canonical written order through the (k, 1) structure tables; the result
    is a coefficient dictionary over level-h essential exponents.
    """
    out: dict[tuple[MultiExponent, int], Rat] = {}
    for sexp, coeff in poly.terms.items():
        h = sexp.degree
        factors = ring.factors(sexp)
        if not factors:
            raise ValueError("cannot evaluate a constant term")
        current: dict[MultiExponent, Rat] = {factors[0]: Rat(1)}
        level = 1
        for f in factors[1:]:
            table = tower.table(level, 1)
            nxt: dict[MultiExponent, Rat] = {}
            for u, c in current.items():
                for u2, c2 in table.product(u, f).items():
                    val = nxt.get(u2, Rat(0)) + c * c2
                    if val == 0:
                        nxt.pop(u2, None)
                    else:
                        nxt[u2] = val
            current = nxt
            level += 1
            if not current:
                break
        for u, c in current.items():
            key = (u, h)
            val = out.get(key, Rat(0)) + coeff * c
            if val == 0:
                out.pop(key, None)
            else:
                out[key] = val
    return out


def lift_relations(
    relations: Sequence[GradedRelation],
    tower: LevelTower,
    ring: SRing,
    order: MonomialOrder | None = None,
) -> list[GradedRelation]:
    """Rewrite graded kernel generators as exact relations of the dual
    algebra by absorbing strictly larger components.

    Repeatedly evaluates the running polynomial, locates the smallest
    component in the residual, and subtracts the signed ring monomial given
    by an essential-chain decomposition of that component.  The final
    polynomial evaluates to exactly zero.
    """
    if order is None:
        order = tower.order
    key = order.key
    lifted: list[GradedRelation] = []
    for rel in relations:
        h = rel.degree
        es_by_level = tower.es_by_level(h)
        g = rel.lead
        corrections: dict[tuple[MultiExponent, int], SuperPolynomial] = {}
        max_steps = len(tower.essential(h).monomials) + 1
        for _ in range(max_steps):
            residual = evaluate_in_tower(tower, ring, g)
            if not residual:
                break
            u_min = min((u for (u, _) in residual), key=key)
            if rel.component is not BOTTOM and not (
                key(rel.component[0]) < key(u_min)
            ):
                raise LiftError(
                    f"residual component {u_min} does not exceed the lead "
                    f"component {rel.component[0]}"
                )
            chain = decompose_to_chain(u_min, h, es_by_level)
            if chain is None:
                raise LiftError(
                    f"residual component {u_min} at level {h} admits no "
                    "essential-chain decomposition; the essential sets are "
                    "not favourable enough to lift this relation"
                )
            sexp = ring.exponent_of_chain(chain)
            comp, sign = ring.gamma_and_sign(sexp)
            if comp is BOTTOM or comp != (u_min, h):
                raise LiftError("chain decomposition hit the wrong component")
            c = residual[(u_min, h)] * sign
            mono = SuperPolynomial.monomial(ring.nS, ring.qS, sexp, -c)
            g = g + mono
            prev = corrections.get((u_min, h), SuperPolynomial.zero(ring.nS, ring.qS))
            corrections[(u_min, h)] = prev + mono
        else:
            raise LiftError(
                f"lifting did not terminate within {max_steps} steps"
            )
        lifted.append(
            GradedRelation(
                degree=h,
                component=rel.component,
                lead=rel.lead,
                corrections=[
                    (comp, poly)
                    for comp, poly in sorted(
                        corrections.items(), key=lambda kv: key(kv[0][0])
                    )
                    if not poly.is_zero()
                ],
            )
        )
    return lifted


def find_weight_vector(
    relations: Sequence[GradedRelation], nvars: int | None = None
) -> tuple[int, ...] | None:
    """An integer vector w (in module exponent coordinates, even block first)
    with w . (correction - lead) >= 1 for every correction component of every
    lifted relation; None when infeasible."""
    constraints: list[tuple[list[Rat], Rat]] = []
    for rel in relations:
        if rel.component is BOTTOM:
            if rel.corrections:
                raise LiftError(
                    "bottom-component relation with corrections has no "
                    "reference exponent for weight selection"
                )
            continue
        lead_vec = rel.component[0].as_vector()
        if nvars is None:
            nvars = len(lead_vec)
        elif nvars != len(lead_vec):
            raise ValueError(
                "nvars must match the module exponent dimension "
                f"({len(lead_vec)}), got {nvars}"
            )
        for (u, _level), _poly in rel.corrections:
            diff = [Rat(b - a) for a, b in zip(lead_vec, u.as_vector())]
            constraints.append(([-d for d in diff], Rat(-1)))
    if not constraints:
        return tuple(0 for _ in range(nvars if nvars is not None else 0))
    sol = fourier_motzkin_solve(constraints, nvars)
    if sol is None:
        return None
    denom = math.lcm(*(c.denominator for c in sol))
    return tuple(int(c * denom) for c in sol)


# ---------------------------------------------------------------------------
# The one-parameter family
# ---------------------------------------------------------------------------


@dataclass
class FamilyGenerator:
    """One family relation: pieces[p] enters with coefficient t^p."""

    degree: int
    component: object
    pieces: dict[int, SuperPolynomial]

    def specialize(self, a: Rat) -> SuperPolynomial:
        terms = sorted(self.pieces.items())
        out = None
        for p, poly in terms:
            scaled = poly.scaled(Rat(a) ** p)
            out = scaled if out is None else out + scaled
        return out


@dataclass
class DegenerationFamily:
    ring: SRing
    weight: tuple[int, ...]
    generators: list[FamilyGenerator]
    exchange: list[GradedRelation]
    degree_bound: int

    def all_specialized(self, a: Rat) -> list[SuperPolynomial]:
        out = [g.specialize(a) for g in self.generators]
        out.extend(rel.lead for rel in self.exchange)
        return [p for p in out if not p.is_zero()]


def family_ideal(
    lifted: Sequence[GradedRelation],
    weight: Sequence[int],
    tower: LevelTower,
    ring: SRing,
    degree_bound: int,
    order: MonomialOrder | None = None,
) -> DegenerationFamily:
    """Assemble the t-family: each correction enters at t^{w.(u - lead)}.

    Additionally, for every degree up to the bound, kernel binomials of the
    order-maximal component are appended t-free (maximality leaves no room
    for corrections; each is validated to evaluate to zero exactly).
    """
    if order is None:
        order = tower.order
    key = order.key
    generators: list[FamilyGenerator] = []
    for rel in lifted:
        pieces: dict[int, SuperPolynomial] = {0: rel.lead}
        if rel.component is BOTTOM:
            if rel.corrections:
                raise LiftError(
                    "bottom-component relation with corrections cannot be "
                    "graded by a weight vector"
                )
        else:
            lead_vec = rel.component[0].as_vector()
            for (u, _level), poly in rel.corrections:
                power = sum(
                    w * (b - a)
                    for w, a, b in zip(weight, lead_vec, u.as_vector())
                )
                if power < 1:
                    raise LiftError(
                        f"weight vector gives non-positive power {power} for "
                        f"correction component {u}"
                    )
                prev = pieces.get(power, SuperPolynomial.zero(ring.nS, ring.qS))
                pieces[power] = prev + poly
        generators.append(
            FamilyGenerator(degree=rel.degree, component=rel.component, pieces=pieces)
        )

    exchange: list[GradedRelation] = []
    already = {(rel.component, rel.lead) for rel in lifted if not rel.corrections}
    for h in range(2, degree_bound + 1):
        groups = ring.components(h)
        eligible = [
            c for c, items in groups.items() if c is not BOTTOM and len(items) >= 2
        ]
        if not eligible:
            continue
        top = max(eligible, key=lambda c: key(c[0]))
        for poly in ring.kernel_binomials(groups[top]):
            if evaluate_in_tower(tower, ring, poly):
                raise LiftError(
                    "order-maximal component produced a non-exact binomial; "
                    "component bookkeeping is inconsistent"
                )
            if (top, poly) in already:
                continue
            exchange.append(
                GradedRelation(degree=h, component=top, lead=poly)
            )
    return DegenerationFamily(
        ring=ring,
        weight=tuple(weight),
        generators=generators,
        exchange=exchange,
        degree_bound=degree_bound,
    )


# ---------------------------------------------------------------------------
# Hilbert function comparison across fibers
# ---------------------------------------------------------------------------


@dataclass
class HilbertReport:
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

    The degree-h fiber dimension is the monomial count minus the rank of all
    multiples of the specialized generators, computed exactly.
    """
    ring = family.ring
    samples = [Rat(a) for a in samples]
    degrees = list(range(1, max_degree + 1))
    table: dict[tuple[Rat, int], int] = {}
    expected = {h: tower.essential(h).size for h in degrees}
    for a in samples:
        gens = family.all_specialized(a)
        for h in degrees:
            monoms = ring.monomials_of_degree(h)
            index = {m: i for i, m in enumerate(monoms)}
            acc = RankAccumulator()
            for g in gens:
                dg = g.max_degree()
                if dg > h or g.is_zero():
                    continue
                for m in ring.monomials_of_degree(h - dg):
                    shifted = multiply(
                        SuperPolynomial.monomial(ring.nS, ring.qS, m), g
                    )
                    if shifted.is_zero():
                        continue
                    vec = SparseVector(
                        {index[e]: c for e, c in shifted.terms.items()}
                    )
                    acc.insert(vec)
            table[(a, h)] = len(monoms) - acc.rank
    return HilbertReport(
        samples=samples, degrees=degrees, table=table, expected=expected
    )
