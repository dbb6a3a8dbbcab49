"""Finite-dimensional weight representations and cyclic highest-weight data.

Representations act on graded coordinate spaces with a diagonal Cartan
action.  Cyclic modules are generated from an even highest-weight vector by
ordered products of divided powers of negative-root generators; the scan
simultaneously produces the module dimension, the stabilization degree, and
the set of leading (scan-independent) exponents together with
per-weight-block span accumulators.  The scan runs by degree (graded
orders) or weighted value (weighted orders) and shares prefixes: each
monomial vector is one operator application to the vector of its parent
monomial from an earlier layer.  ``module_realization`` is the one place
that expresses vectors over a weight block: it writes a scanned module as a
representation on its essential vectors.  The level tower uses it to keep
each level's representation small, and a monomial's expansion over the
essential vectors is its action in that representation.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import NamedTuple

from .linalg import Rat, SparseVector, SpanAccumulator
from .liesuper import AlgebraContext, LieSuperalgebra, NegativeBasis
from .superpoly import MonomialOrder, MultiExponent, koszul_count, monomials_of_degree

__all__ = [
    "Representation",
    "HighestWeightRealization",
    "CyclicModule",
    "NotConvergedError",
    "ProgramFault",
    "natural",
    "dual_natural",
    "flip_parities",
    "tensor_representations",
    "BLOCK_BUILDERS",
    "single_block_realization",
    "tensor",
    "tensor_power",
    "build_realization",
    "pbw_act",
    "exponent_weight",
    "cyclic_span",
    "module_realization",
    "cartan_expand",
    "act_via_expansion",
]

Weight = tuple[Rat, ...]


class NotConvergedError(RuntimeError):
    """Cyclic span failed to stabilize below the degree cap."""


class ProgramFault(Exception):
    """An invariant of the computation failed: a bug, never an input error
    or a negative verdict."""


class Representation:
    """Exact matrix representation with diagonal Cartan and graded basis.

    ``action[g]`` maps a column index to a sparse column {row: coeff} for the
    g-th algebra basis element.  ``weights[j]`` lists the Cartan eigenvalues
    of basis vector j (the Cartan must act diagonally).
    """

    __slots__ = ("algebra", "dim", "parities", "weights", "action", "_element_cache")

    def __init__(
        self,
        algebra: LieSuperalgebra,
        dim: int,
        parities: tuple[int, ...],
        weights: tuple[Weight, ...],
        action: list[dict[int, dict[int, Rat]]],
    ):
        self.algebra = algebra
        self.dim = dim
        self.parities = parities
        self.weights = weights
        self.action = action
        self._element_cache: dict = {}

    def element_action(
        self, coords: tuple[tuple[int, Rat], ...]
    ) -> dict[int, dict[int, Rat]]:
        """Sparse matrix of a general algebra element given by basis coords."""
        cached = self._element_cache.get(coords)
        if cached is not None:
            return cached
        out: dict[int, dict[int, Rat]] = {}
        for g, c in coords:
            for j, col in self.action[g].items():
                dst = out.setdefault(j, {})
                for i, a in col.items():
                    dst[i] = dst.get(i, 0) + c * a
        out = {j: {i: x for i, x in col.items() if x} for j, col in out.items()}
        out = {j: col for j, col in out.items() if col}
        self._element_cache[coords] = out
        return out

    def apply(self, op: dict[int, dict[int, Rat]], v: SparseVector) -> SparseVector:
        out: dict[int, Rat] = {}
        for j, c in v.entries.items():
            col = op.get(j)
            if not col:
                continue
            for i, a in col.items():
                out[i] = out.get(i, 0) + c * a
        w = SparseVector.__new__(SparseVector)
        w.entries = {i: x for i, x in out.items() if x}
        return w

    def apply_element(
        self, coords: tuple[tuple[int, Rat], ...], v: SparseVector
    ) -> SparseVector:
        return self.apply(self.element_action(coords), v)

    def validate(self) -> None:
        """Check homogeneity, diagonal Cartan action, and the bracket axiom."""
        alg = self.algebra
        # homogeneity of each generator's action
        for g in range(alg.dim):
            pg = alg.parities[g]
            for j, col in self.action[g].items():
                for i in col:
                    if (self.parities[i] - self.parities[j] - pg) % 2 != 0:
                        raise ValueError(
                            f"action of generator {g} is not parity-homogeneous"
                        )
        # diagonal Cartan
        for rank_pos, h_idx in enumerate(alg.cartan_indices):
            for j, col in self.action[h_idx].items():
                for i, c in col.items():
                    if i != j:
                        raise ValueError("Cartan does not act diagonally")
                    if c != self.weights[j][rank_pos]:
                        raise ValueError("stored weights disagree with the action")
        # bracket axiom on all pairs of basis elements, one basis vector at a
        # time: [gi, gj] v = gi (gj v) - (-1)^{|gi||gj|} gj (gi v)
        for gi in range(alg.dim):
            for gj in range(alg.dim):
                bracket = tuple(
                    (k, c) for k, c in enumerate(alg.bracket_coords(gi, gj)) if c
                )
                sign = -1 if (alg.parities[gi] and alg.parities[gj]) else 1
                a, b = self.action[gi], self.action[gj]
                for j in range(self.dim):
                    v = SparseVector.unit(j)
                    rhs = self.apply(a, self.apply(b, v)).add_scaled(
                        self.apply(b, self.apply(a, v)), -sign
                    )
                    if self.apply_element(bracket, v) != rhs:
                        raise ValueError(
                            f"bracket axiom fails on generator pair ({gi}, {gj})"
                        )


def natural(algebra: LieSuperalgebra) -> Representation:
    """The defining column representation of the matrix realization."""
    p, q = algebra.space
    dim = p + q
    parities = tuple(0 if i < p else 1 for i in range(dim))
    weights = tuple(
        tuple(h.entries.get((j, j), Rat(0)) for h in algebra.cartan)
        for j in range(dim)
    )
    action = []
    for mat in algebra.basis:
        cols: dict[int, dict[int, Rat]] = {}
        for (i, j), c in sorted(mat.entries.items()):
            cols.setdefault(j, {})[i] = c
        action.append(cols)
    return Representation(
        algebra=algebra, dim=dim, parities=parities, weights=weights, action=action
    )


def dual_natural(algebra: LieSuperalgebra) -> Representation:
    """Graded dual of the natural representation.

    rho*(x)_{ij} = -(-1)^{|x||e_j|} rho(x)_{ji}, with unchanged basis parities
    and negated weights.
    """
    base = natural(algebra)
    action = []
    for g, mat in enumerate(algebra.basis):
        pg = algebra.parities[g]
        cols: dict[int, dict[int, Rat]] = {}
        # rho(x)_{ji} indexed (jj, ii)
        for (jj, ii), c in sorted(mat.entries.items()):
            sign = -1 if (pg and base.parities[jj]) else 1
            cols.setdefault(jj, {})[ii] = -sign * c
        action.append(cols)
    weights = tuple(tuple(-w for w in ws) for ws in base.weights)
    return Representation(
        algebra=algebra, dim=base.dim, parities=base.parities,
        weights=weights, action=action,
    )


def flip_parities(rep: Representation) -> Representation:
    """Parity shift: identical action and weights, all basis parities flipped."""
    return Representation(
        algebra=rep.algebra, dim=rep.dim,
        parities=tuple(1 - p for p in rep.parities),
        weights=rep.weights, action=rep.action,
    )


BLOCK_BUILDERS: dict[str, Callable[[LieSuperalgebra], Representation]] = {
    "natural": natural,
    "dual-natural": dual_natural,
    "flip-natural": lambda a: flip_parities(natural(a)),
    "flip-dual-natural": lambda a: flip_parities(dual_natural(a)),
}


def tensor_representations(r1: Representation, r2: Representation) -> Representation:
    """Graded tensor product; flat index (i1, i2) -> i1 * dim2 + i2."""
    if r1.algebra is not r2.algebra:
        raise ValueError("tensor factors must share the algebra object")
    d1, d2 = r1.dim, r2.dim
    dim = d1 * d2
    parities = tuple(
        (r1.parities[i1] + r2.parities[i2]) % 2
        for i1 in range(d1)
        for i2 in range(d2)
    )
    weights = tuple(
        tuple(a + b for a, b in zip(r1.weights[i1], r2.weights[i2]))
        for i1 in range(d1)
        for i2 in range(d2)
    )
    action = []
    for g in range(r1.algebra.dim):
        pg = r1.algebra.parities[g]
        cols: dict[int, dict[int, Rat]] = {}
        a1, a2 = r1.action[g], r2.action[g]
        for j1 in range(d1):
            for j2 in range(d2):
                col: dict[int, Rat] = {}
                for i1, c in a1.get(j1, {}).items():
                    col[i1 * d2 + j2] = col.get(i1 * d2 + j2, Rat(0)) + c
                sign = -1 if (pg and r1.parities[j1]) else 1
                for i2, c in a2.get(j2, {}).items():
                    key = j1 * d2 + i2
                    col[key] = col.get(key, Rat(0)) + sign * c
                col = {i: c for i, c in col.items() if c != 0}
                if col:
                    cols[j1 * d2 + j2] = col
        action.append(cols)
    return Representation(
        algebra=r1.algebra, dim=dim, parities=parities, weights=weights, action=action
    )


class HighestWeightRealization(NamedTuple):
    """A concrete cyclic highest-weight module inside a representation.

    ``level`` counts how many copies of the base weight the realization
    represents (tensor powers add levels).
    """

    rep: Representation
    hw_index: int
    level: int = 1

    @property
    def weight(self) -> Weight:
        return self.rep.weights[self.hw_index]

    @property
    def hw_vector(self) -> SparseVector:
        return SparseVector.unit(self.hw_index)


def single_block_realization(
    context: AlgebraContext, block: str, hw_index: int
) -> HighestWeightRealization:
    if block not in BLOCK_BUILDERS:
        raise ValueError(
            f"unknown block {block!r}; expected one of {sorted(BLOCK_BUILDERS)}"
        )
    rep = BLOCK_BUILDERS[block](context.algebra)
    if not 0 <= hw_index < rep.dim:
        raise ValueError(
            f"block {block}:{hw_index} has no basis vector {hw_index}; "
            f"expected an index in 0..{rep.dim - 1}"
        )
    real = HighestWeightRealization(rep=rep, hw_index=hw_index)
    _validate_highest_weight(context, real)
    return real


def _validate_highest_weight(
    context: AlgebraContext, real: HighestWeightRealization
) -> None:
    rep = real.rep
    if rep.parities[real.hw_index] != 0:
        raise ValueError("highest-weight vector must be even")
    v = real.hw_vector
    for root in context.borel.positive_roots:
        coords = context.algebra.coordinates(root.vector)
        out = rep.apply_element(
            tuple((i, c) for i, c in enumerate(coords) if c != 0), v
        )
        if not out.is_zero():
            raise ValueError(
                f"candidate vector is not annihilated by the raising "
                f"operator of root {root.label}"
            )


def tensor(
    r1: HighestWeightRealization,
    r2: HighestWeightRealization,
    level: int | None = None,
) -> HighestWeightRealization:
    rep = tensor_representations(r1.rep, r2.rep)
    hw_index = r1.hw_index * r2.rep.dim + r2.hw_index
    return HighestWeightRealization(
        rep=rep,
        hw_index=hw_index,
        level=(r1.level + r2.level) if level is None else level,
    )


def tensor_power(real: HighestWeightRealization, k: int) -> HighestWeightRealization:
    if k < 1:
        raise ValueError("tensor power needs k >= 1")
    out = real
    for _ in range(k - 1):
        out = tensor(out, real)
    return out


def build_realization(
    context: AlgebraContext,
    blocks: Sequence[tuple[str, int]],
) -> HighestWeightRealization:
    """Tensor of single blocks, treated as one level-1 base realization."""
    parts = [
        single_block_realization(context, name, idx) for name, idx in blocks
    ]
    out = parts[0]
    for p in parts[1:]:
        out = tensor(out, p, level=1)
    if len(parts) > 1:
        _validate_highest_weight(context, out)
    return out


def pbw_act(
    real: HighestWeightRealization,
    basis: NegativeBasis,
    exp: MultiExponent,
    divided: bool = True,
) -> SparseVector:
    """Apply the ordered monomial of negative generators to the hw vector.

    The generator at the lowest position acts first; ``divided`` divides by
    the factorial of each even multiplicity (divided-power normalization).
    """
    v = real.hw_vector
    denom = 1
    for mult, element in basis.exponent_items(exp):
        op = real.rep.element_action(element.algebra_coords)
        for _ in range(mult):
            v = real.rep.apply(op, v)
            if v.is_zero():
                return v
        if divided:
            denom *= math.factorial(mult)
    if denom != 1:
        v = v.scaled(Rat(1, denom))
    return v


def exponent_weight(
    basis: NegativeBasis, base_weight: Weight, exp: MultiExponent
) -> Weight:
    out = list(base_weight)
    for mult, element in basis.exponent_items(exp):
        for k, c in enumerate(element.coords):
            out[k] += mult * c
    return tuple(out)


class CyclicModule:
    """Result of scanning ordered monomials against a cyclic hw module:
    the scan-independent ``essentials`` with their vectors, and per weight
    the span of the scanned vectors with their ``essentials`` indices."""

    __slots__ = (
        "realization", "basis", "order", "essentials", "dimension",
        "stabilization_degree", "blocks", "_on_essentials",
    )

    def __init__(
        self,
        realization: HighestWeightRealization,
        basis: NegativeBasis,
        order: MonomialOrder,
        essentials: list[tuple[MultiExponent, SparseVector]],
        blocks: dict[Weight, tuple[SpanAccumulator, list[int]]],
    ):
        self.realization = realization
        self.basis = basis
        self.order = order
        self.essentials = essentials
        self.dimension = len(essentials)
        self.stabilization_degree = max(e.degree for e, _ in essentials)
        self.blocks = blocks
        self._on_essentials: HighestWeightRealization | None = None

    def essential_exponents(self) -> list[MultiExponent]:
        return [e for e, _ in self.essentials]

    @property
    def on_essentials(self) -> HighestWeightRealization:
        """The module as a representation on its essential vectors
        (``module_realization``), built once."""
        if self._on_essentials is None:
            self._on_essentials = module_realization(self)
        return self._on_essentials

    def expand(self, exp: MultiExponent) -> dict[MultiExponent, Rat]:
        """Expansion of the (possibly non-essential) monomial vector over the
        essential vectors: the divided-power action of the monomial in
        ``on_essentials``, whose coordinates are essential indices.  The
        structure tables do not call it; they read the tower's vectors."""
        vec = pbw_act(self.on_essentials, self.basis, exp)
        return {self.essentials[i][0]: c for i, c in vec.entries.items()}


def module_realization(mod: CyclicModule) -> HighestWeightRealization:
    """The cyclic module as a representation on its own essential vectors.

    Basis vector j is the j-th essential vector, so index 0 (the zero
    exponent) is the highest-weight vector.  The column of generator g at j
    is g applied once to essential vector j, expanded over the essential
    vectors of the weight block it lands in.  The module U(n-)v = U(g)v is a
    g-submodule, so the expansion exists; a failure is an internal
    inconsistency and raises ProgramFault.
    """
    real = mod.realization
    rep = real.rep
    vecs = [vec for _, vec in mod.essentials]
    # the weight and parity of a weight vector are those of any entry
    entry = [next(iter(vec.entries)) for vec in vecs]
    action: list[dict[int, dict[int, Rat]]] = []
    for g in range(rep.algebra.dim):
        op = rep.action[g]
        cols: dict[int, dict[int, Rat]] = {}
        for j, vec in enumerate(vecs):
            image = rep.apply(op, vec)
            if image.is_zero():
                continue
            block = mod.blocks.get(rep.weights[next(iter(image.entries))])
            coeffs = None if block is None else block[0].express(image)
            if coeffs is None:
                raise ProgramFault(
                    f"generator {g} maps essential vector "
                    f"{mod.essentials[j][0]} outside the recorded cyclic span"
                )
            idxs = block[1]
            cols[j] = {idxs[p]: c for p, c in enumerate(coeffs) if c != 0}
        action.append(cols)
    return HighestWeightRealization(
        rep=Representation(
            algebra=rep.algebra,
            dim=len(vecs),
            parities=tuple(rep.parities[i] for i in entry),
            weights=tuple(rep.weights[i] for i in entry),
            action=action,
        ),
        hw_index=0,
        level=real.level,
    )


def cyclic_span(
    real: HighestWeightRealization,
    basis: NegativeBasis,
    order: MonomialOrder | None = None,
    degree_cap: int | None = None,
) -> CyclicModule:
    """Scan ordered monomials layer by layer, ascending in the monomial
    order, and collect the scan-independent exponents.

    Layers are degrees for graded orders and weighted values for weighted
    orders (positive integer weights required), so the scan itself is
    ascending in the order and the scan-independent exponents are the
    essential ones.

    Monomial vectors share prefixes.  The generator at the highest occupied
    position acts last, so a monomial's vector is that generator applied
    once to the vector of its parent, the exponent with one copy of it
    fewer, which lies as many layers back as the generator weighs; an even
    generator of new multiplicity m also divides by m, since divided powers
    have f^(m) = f * f^(m-1) / m.  Each vector equals ``pbw_act`` of its
    exponent.  Only the nonzero vectors of the last max-weight layers are
    kept: a parent missing from them has a zero vector, and so has the
    child.

    A graded scan stops once a full layer contributes no new vectors (the
    span of monomial images of degree <= d generates all higher layers once
    layer d + 1 stalls), and raises NotConvergedError when layer cap + 1
    does not stall (the cap defaults to the ambient dimension + 1).  A
    weighted scan first finds the module dimension by a graded-lex scan and
    stops once it reaches it.
    """
    n, q = basis.n, basis.q
    if order is None:
        order = MonomialOrder("graded-lex")
    if degree_cap is None:
        degree_cap = real.rep.dim + 1
    order.check(n + q)
    if order.kind == "weighted":
        weights = order.weights
        if any((not isinstance(w, int)) or w < 1 for w in weights):
            raise ValueError(
                "weighted scans require positive integer weights; otherwise "
                "ascending-value truncation is unsound"
            )
        graded = cyclic_span(real, basis, degree_cap=degree_cap)
        target = graded.dimension
        cap = graded.stabilization_degree * max(weights) + max(weights)
        failure = (
            "weighted scan failed to reach the module dimension within "
            f"weighted value {cap}"
        )
    else:
        weights = (1,) * (n + q)
        target = None
        cap = degree_cap
        failure = f"cyclic span did not stabilize within degree {cap}"
    blocks: dict[Weight, tuple[SpanAccumulator, list[int]]] = {}
    essentials: list[tuple[MultiExponent, SparseVector]] = []
    rep = real.rep
    # (odd?, coordinate, weight, operator) per generator, top position first
    generators = [
        (odd, k, weights[k + n * odd],
         rep.element_action(basis.elements[pos].algebra_coords))
        for pos, odd, k in sorted(
            [(pos, 1, s) for s, pos in enumerate(basis.odd_positions)]
            + [(pos, 0, t) for t, pos in enumerate(basis.even_positions)],
            reverse=True,
        )
    ]

    def insert(exp: MultiExponent, vec: SparseVector) -> None:
        # a weight vector's weight is that of any of its entries
        w = rep.weights[next(iter(vec.entries))]
        acc, idxs = blocks.setdefault(w, (SpanAccumulator(), []))
        if acc.insert(vec) is not None:
            idxs.append(len(essentials))
            essentials.append((exp, vec))

    zero = MultiExponent.zero(n, q)
    insert(zero, real.hw_vector)
    kept = {0: {zero: real.hw_vector}}
    v = 0
    while target is None or len(essentials) < target:
        v += 1
        if v > cap + (target is None):  # layer cap + 1 only shows the stall
            raise NotConvergedError(failure)
        layer: dict[MultiExponent, SparseVector] = {}
        found = len(essentials)
        for exp in monomials_of_degree(order, v, n, q, weights):
            for odd, k, w, op in generators:
                mult = (exp.odd if odd else exp.even)[k]
                if mult:
                    break
            if odd:
                parent = MultiExponent(
                    exp.odd[:k] + (0,) + exp.odd[k + 1:], exp.even
                )
            else:
                parent = MultiExponent(
                    exp.odd, exp.even[:k] + (mult - 1,) + exp.even[k + 1:]
                )
            pvec = kept[v - w].get(parent)
            if pvec is None:
                continue
            vec = rep.apply(op, pvec)
            if vec.is_zero():
                continue
            if not odd and mult > 1:
                vec = vec.scaled(Rat(1, mult))
            layer[exp] = vec
            insert(exp, vec)
        if target is None and len(essentials) == found:
            break
        kept[v] = layer
        kept.pop(v - max(weights), None)
    return CyclicModule(real, basis, order, essentials, blocks)


def cartan_expand(
    exp: MultiExponent, divided: bool = False
) -> list[tuple[tuple[MultiExponent, MultiExponent], Rat]]:
    """Expansion of an ordered monomial acting on a two-factor tensor.

    Returns ((first, second), coeff) pairs: ``first`` acts on the first
    tensor factor.  The coefficient is the parity-reordering sign times a
    product of binomials (the binomials are absorbed when ``divided``).
    """
    out: list[tuple[tuple[MultiExponent, MultiExponent], Rat]] = []
    for a, b in exp.splittings():
        sign = -1 if koszul_count(a.odd, b.odd) % 2 else 1
        coeff = Rat(sign)
        if not divided:
            for m, ma in zip(exp.even, a.even):
                if ma:
                    coeff *= math.comb(m, ma)
        out.append(((a, b), coeff))
    return out


def act_via_expansion(
    real1: HighestWeightRealization,
    real2: HighestWeightRealization,
    basis: NegativeBasis,
    exp: MultiExponent,
    divided: bool = False,
) -> SparseVector:
    """Tensor-action of a monomial computed factorwise via cartan_expand."""
    d2 = real2.rep.dim
    total = SparseVector()
    for (a, b), coeff in cartan_expand(exp, divided=divided):
        u1 = pbw_act(real1, basis, a, divided=divided)
        if u1.is_zero():
            continue
        u2 = pbw_act(real2, basis, b, divided=divided)
        if u2.is_zero():
            continue
        for i1, c1 in u1.entries.items():
            for i2, c2 in u2.entries.items():
                total = total.add_scaled(
                    SparseVector.unit(i1 * d2 + i2), coeff * c1 * c2
                )
    return total
