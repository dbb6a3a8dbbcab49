"""Finite-dimensional weight representations and cyclic highest-weight data.

Representations act on graded coordinate spaces with a diagonal Cartan
action.  Cyclic modules are generated from an even highest-weight vector by
ordered products of divided powers of negative-root generators; the scan
simultaneously produces the module dimension, the stabilization degree, and
the set of leading (scan-independent) exponents together with the span
accumulator of the scanned vectors.  The scan runs by degree (graded
orders) or weighted value (weighted orders) and shares prefixes: each
monomial vector is one operator application to the vector of its parent
monomial from an earlier layer.  ``module_realization`` is the one place
that expresses vectors over that span: it writes a scanned module as a
representation on its essential vectors.  The level tower uses it to keep
each level's representation small, and a monomial's expansion over the
essential vectors is its action in that representation.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import NamedTuple

from .linalg import ProgramFault, Rat, Row, SpanAccumulator, add_scaled, div
from .liesuper import AlgebraContext, LieSuperalgebra, NegativeBasis
from .superpoly import MonomialOrder, MultiExponent, OrderMisfit, koszul_count
from .superpoly import monomials_of_degree

__all__ = [
    "Representation",
    "HighestWeightRealization",
    "CyclicModule",
    "ProgramFault",
    "Unbuilt",
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


class Unbuilt(dict):
    """The action of generator g where a realization did not build it: any
    column lookup raises ProgramFault, so it never acts as zero (``values()``
    reads no column and is empty)."""

    def __init__(self, g: int):
        super().__init__()
        self.g = g

    def get(self, *args):
        raise ProgramFault(f"generator {self.g} is not built in this realization")

    items = keys = __getitem__ = __iter__ = __contains__ = __len__ = get


class Representation:
    """Exact matrix representation with diagonal Cartan and graded basis.

    ``action[g]`` maps a column index to a sparse column {row: coeff} for the
    g-th algebra basis element, or is ``Unbuilt``.  The Cartan must act
    diagonally, so its action holds the weights.
    """

    __slots__ = ("algebra", "dim", "parities", "action")

    def __init__(
        self,
        algebra: LieSuperalgebra,
        dim: int,
        parities: tuple[int, ...],
        action: list[dict[int, dict[int, Rat]]],
    ):
        self.algebra = algebra
        self.dim = dim
        self.parities = parities
        self.action = action

    def weight(self, j: int) -> Weight:
        """The Cartan eigenvalues of basis vector j, read off the diagonal of
        the Cartan action (an unbuilt Cartan raises ProgramFault)."""
        return tuple(
            self.action[h].get(j, {}).get(j, 0) for h in self.algebra.cartan_indices
        )

    def apply(self, op: dict[int, dict[int, Rat]], v: Row) -> Row:
        out: Row = {}
        for j, c in v.items():
            col = op.get(j)
            if not col:
                continue
            for i, a in col.items():
                out[i] = out.get(i, 0) + c * a
        return {i: x for i, x in out.items() if x}

    def apply_element(self, coords: tuple[tuple[int, Rat], ...], v: Row) -> Row:
        """The algebra element with these (generator, coefficient) basis
        coordinates applied to v, one generator at a time."""
        out: Row = {}
        for g, c in coords:
            out = add_scaled(out, self.apply(self.action[g], v), c)
        return out

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
        for h_idx in alg.cartan_indices:
            if any(col.keys() - {j} for j, col in self.action[h_idx].items()):
                raise ValueError("Cartan does not act diagonally")
        # bracket axiom on all pairs of basis elements, one basis vector at a
        # time: [gi, gj] v = gi (gj v) - (-1)^{|gi||gj|} gj (gi v)
        for gi in range(alg.dim):
            for gj in range(alg.dim):
                bracket = tuple(alg.bracket_coords(gi, gj).items())
                sign = -1 if (alg.parities[gi] and alg.parities[gj]) else 1
                a, b = self.action[gi], self.action[gj]
                for j in range(self.dim):
                    v = {j: 1}
                    rhs = add_scaled(
                        self.apply(a, self.apply(b, v)),
                        self.apply(b, self.apply(a, v)),
                        -sign,
                    )
                    if self.apply_element(bracket, v) != rhs:
                        raise ValueError(
                            f"bracket axiom fails on generator pair ({gi}, {gj})"
                        )


def natural(algebra: LieSuperalgebra) -> Representation:
    """The defining column representation of the matrix realization."""
    p, q = algebra.space
    action = []
    for entries in algebra.basis:
        cols: dict[int, dict[int, Rat]] = {}
        for (i, j), c in sorted(entries.items()):
            cols.setdefault(j, {})[i] = c
        action.append(cols)
    return Representation(
        algebra=algebra, dim=p + q, parities=(0,) * p + (1,) * q, action=action
    )


def dual_natural(algebra: LieSuperalgebra) -> Representation:
    """Graded dual of the natural representation.

    rho*(x)_{ij} = -(-1)^{|x||e_j|} rho(x)_{ji}, with unchanged basis parities
    (so negated weights).
    """
    p, q = algebra.space
    action = []
    for g, entries in enumerate(algebra.basis):
        pg = algebra.parities[g]
        cols: dict[int, dict[int, Rat]] = {}
        # rho(x)_{ji} indexed (jj, ii); e_jj is odd from index p on
        for (jj, ii), c in sorted(entries.items()):
            sign = -1 if (pg and jj >= p) else 1
            cols.setdefault(jj, {})[ii] = -sign * c
        action.append(cols)
    return Representation(
        algebra=algebra, dim=p + q, parities=(0,) * p + (1,) * q, action=action
    )


def flip_parities(rep: Representation) -> Representation:
    """Parity shift: identical action (so weights), all basis parities flipped."""
    return Representation(
        algebra=rep.algebra, dim=rep.dim,
        parities=tuple(1 - p for p in rep.parities), action=rep.action,
    )


BLOCK_BUILDERS: dict[str, Callable[[LieSuperalgebra], Representation]] = {
    "natural": natural,
    "dual-natural": dual_natural,
    "flip-natural": lambda a: flip_parities(natural(a)),
    "flip-dual-natural": lambda a: flip_parities(dual_natural(a)),
}


def tensor_representations(r1: Representation, r2: Representation) -> Representation:
    """Graded tensor product; flat index (i1, i2) -> i1 * dim2 + i2.  A
    generator unbuilt on either factor stays unbuilt."""
    if r1.algebra is not r2.algebra:
        raise ProgramFault("tensor factors must share the algebra object")
    d1, d2 = r1.dim, r2.dim
    parities = tuple((p1 + p2) % 2 for p1 in r1.parities for p2 in r2.parities)
    action = []
    for g in range(r1.algebra.dim):
        pg = r1.algebra.parities[g]
        cols: dict[int, dict[int, Rat]] = {}
        a1, a2 = r1.action[g], r2.action[g]
        if isinstance(a1, Unbuilt) or isinstance(a2, Unbuilt):
            action.append(Unbuilt(g))
            continue
        for j1 in range(d1):
            for j2 in range(d2):
                col: dict[int, Rat] = {}
                for i1, c in a1.get(j1, {}).items():
                    col[i1 * d2 + j2] = col.get(i1 * d2 + j2, 0) + c
                sign = -1 if (pg and r1.parities[j1]) else 1
                for i2, c in a2.get(j2, {}).items():
                    key = j1 * d2 + i2
                    col[key] = col.get(key, 0) + sign * c
                col = {i: c for i, c in col.items() if c != 0}
                if col:
                    cols[j1 * d2 + j2] = col
        action.append(cols)
    return Representation(
        algebra=r1.algebra, dim=d1 * d2, parities=parities, action=action
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
    def hw_vector(self) -> Row:
        return {self.hw_index: 1}


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
        if rep.apply(rep.action[root.generator], v):
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
) -> Row:
    """Apply the ordered monomial of negative generators to the hw vector.

    The generator at the lowest position acts first; ``divided`` divides by
    the factorial of each even multiplicity (divided-power normalization).
    A generator acts by its stored columns; the scales of the root vectors
    multiply the result once at the end.
    """
    v = real.hw_vector
    scale, denom = 1, 1
    for mult, element in basis.exponent_items(exp):
        op = real.rep.action[element.generator]
        for _ in range(mult):
            v = real.rep.apply(op, v)
            if not v:
                return v
        scale *= element.scale ** mult
        if divided:
            denom *= math.factorial(mult)
    if scale != 1 or denom != 1:
        f = Rat(scale, denom)
        v = {i: Rat(f * x) for i, x in v.items()}
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
    the scan-independent ``essentials`` with their vectors, and the ``span``
    of the scanned vectors, whose insertion indices are essential indices."""

    __slots__ = (
        "realization", "basis", "order", "essentials", "dimension",
        "stabilization_degree", "span", "_on_essentials",
    )

    def __init__(
        self,
        realization: HighestWeightRealization,
        basis: NegativeBasis,
        order: MonomialOrder,
        essentials: list[tuple[MultiExponent, Row]],
        span: SpanAccumulator,
    ):
        self.realization = realization
        self.basis = basis
        self.order = order
        self.essentials = essentials
        self.dimension = len(essentials)
        self.stabilization_degree = max(e.degree for e, _ in essentials)
        self.span = span
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
        return {self.essentials[i][0]: c for i, c in vec.items()}


def module_realization(mod: CyclicModule, full=False) -> HighestWeightRealization:
    """The cyclic module as a representation on its own essential vectors.

    Basis vector j is the j-th essential vector, so index 0 (the zero
    exponent) is the highest-weight vector.  The column of generator g at j
    is g applied once to essential vector j, expanded over the essential
    vectors by ``mod.span``.  The module U(n-)v = U(g)v is a
    g-submodule, so the expansion exists; a failure is an internal
    inconsistency and raises ProgramFault.  Unless ``full``, generators
    outside the support of ``mod.basis`` (never applied) are ``Unbuilt``.
    """
    real = mod.realization
    rep = real.rep
    vecs = [vec for _, vec in mod.essentials]
    built = {el.generator for el in mod.basis.elements}
    action: list[dict[int, dict[int, Rat]]] = []
    for g in range(rep.algebra.dim):
        if not (full or g in built):
            action.append(Unbuilt(g))
            continue
        op = rep.action[g]
        cols: dict[int, dict[int, Rat]] = {}
        for j, vec in enumerate(vecs):
            image = rep.apply(op, vec)
            if not image:
                continue
            col = mod.span.express(image)
            if col is None:
                raise ProgramFault(
                    f"generator {g} maps essential vector "
                    f"{mod.essentials[j][0]} outside the recorded cyclic span"
                )
            cols[j] = col
        action.append(cols)
    return HighestWeightRealization(
        rep=Representation(
            algebra=rep.algebra,
            dim=len(vecs),
            # the parity of a homogeneous vector is that of any entry
            parities=tuple(rep.parities[next(iter(vec))] for vec in vecs),
            action=action,
        ),
        hw_index=0,
        level=real.level,
    )


def cyclic_span(
    real: HighestWeightRealization,
    basis: NegativeBasis,
    order: MonomialOrder | None = None,
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
    fewer, which lies as many layers back as the generator weighs.  The
    generator acts by its stored columns times its scale, and an even
    generator of new multiplicity m also divides by m, since divided powers
    have f^(m) = f * f^(m-1) / m.  Each vector equals ``pbw_act`` of its
    exponent.  Only the nonzero vectors of the last max-weight layers are
    kept: a parent missing from them has a zero vector, and so has the
    child.

    A graded scan stops at the first layer that adds no vector (the images
    of degree <= d generate all higher layers once layer d + 1 stalls);
    every earlier layer adds one, so it stops by layer ``rep.dim``.  A
    weighted scan stops at the module dimension, found by a graded-lex scan
    of stabilization degree s; it reaches it by weighted value
    s * max(weights), which no monomial of degree <= s exceeds.  Running
    past either bound is a ProgramFault.
    """
    n, q = basis.n, basis.q
    if order is None:
        order = MonomialOrder("graded-lex")
    order.check(n + q)
    if order.kind == "weighted":
        weights = order.weights
        if any((not isinstance(w, int)) or w < 1 for w in weights):
            raise OrderMisfit(
                "weights", "weighted scans require positive integer weights; otherwise "
                "ascending-value truncation is unsound",
            )
        graded = cyclic_span(real, basis)
        target = graded.dimension
        bound = graded.stabilization_degree * max(weights)
    else:
        weights = (1,) * (n + q)
        target = None
        bound = real.rep.dim
    zero = MultiExponent.zero(n, q)
    span = SpanAccumulator()
    span.insert(real.hw_vector)
    essentials: list[tuple[MultiExponent, Row]] = [(zero, real.hw_vector)]
    rep = real.rep
    # (odd?, coordinate, weight, stored operator, scale) per generator, top
    # position first
    generators = [
        (odd, k, weights[k + n * odd],
         rep.action[basis.elements[pos].generator], basis.elements[pos].scale)
        for pos, odd, k in sorted(
            [(pos, 1, s) for s, pos in enumerate(basis.odd_positions)]
            + [(pos, 0, t) for t, pos in enumerate(basis.even_positions)],
            reverse=True,
        )
    ]
    kept = {0: {zero: real.hw_vector}}
    v = 0
    while target is None or len(essentials) < target:
        v += 1
        if v > bound:
            raise ProgramFault(f"cyclic span scan ran past layer {bound}")
        layer: dict[MultiExponent, Row] = {}
        found = len(essentials)
        for exp in monomials_of_degree(order, v, n, q, weights):
            for odd, k, w, op, scale in generators:
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
            if not vec:
                continue
            factor = div(scale, mult)  # an odd generator has mult 1
            if factor != 1:
                vec = {i: Rat(factor * x) for i, x in vec.items()}
            layer[exp] = vec
            if span.insert(vec) is not None:
                essentials.append((exp, vec))
        if target is None and len(essentials) == found:
            break
        kept[v] = layer
        kept.pop(v - max(weights), None)
    return CyclicModule(real, basis, order, essentials, span)


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
) -> Row:
    """Tensor-action of a monomial computed factorwise via cartan_expand."""
    d2 = real2.rep.dim
    total: Row = {}
    for (a, b), coeff in cartan_expand(exp, divided=divided):
        u1 = pbw_act(real1, basis, a, divided=divided)
        if not u1:
            continue
        u2 = pbw_act(real2, basis, b, divided=divided)
        for i1, c1 in u1.items():
            for i2, c2 in u2.items():
                total = add_scaled(total, {i1 * d2 + i2: 1}, coeff * c1 * c2)
    return total
