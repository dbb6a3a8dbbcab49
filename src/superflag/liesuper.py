"""Matrix realizations of the basic families gl(m|n), sl(m|n), osp(m|2n).

Provides homogeneous bases with exact structure constants, root
decompositions with respect to the diagonal Cartan subalgebra, positive
systems selected by a linear functional, and ordered negative-root bases
(the indexing data behind ordered PBW monomials).
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping, Sequence
from typing import NamedTuple

from .linalg import Rat, Row, SpanAccumulator, div

__all__ = [
    "SuperMatrix",
    "LieSuperalgebra",
    "Root",
    "RootDatum",
    "BorelChoice",
    "NegativeBasisElement",
    "NegativeBasis",
    "AlgebraContext",
    "ParameterError",
    "RootDecompositionError",
    "build_algebra",
    "root_decomposition",
    "choose_borel",
    "negative_basis",
    "build_context",
]


class ParameterError(ValueError):
    """Raised when an argument of ``build_context`` does not fit; its
    ``parameter`` names it: a family without a bundled matrix realization,
    m or n out of range, a functional that selects no positive system, or a
    permutation that does not reorder every position."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


class RootDecompositionError(RuntimeError):
    """Raised when the diagonal Cartan admits no rational root decomposition."""


class SuperMatrix:
    """Rational matrix on a p|q-graded space (indices < p are even), stored
    as its nonzero entries ``(row, column) -> value``."""

    __slots__ = ("p", "q", "entries")

    def __init__(
        self, p: int, q: int, entries: Mapping[tuple[int, int], Rat | int]
    ):
        self.p = p
        self.q = q
        size = p + q
        for i, j in entries:
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"entry ({i}, {j}) lies outside size p+q={size}")
        self.entries: dict[tuple[int, int], Rat] = {
            ij: Rat(c) for ij, c in entries.items() if c != 0
        }

    @property
    def size(self) -> int:
        return self.p + self.q

    @property
    def rows(self) -> tuple[tuple[Rat, ...], ...]:
        """The dense rows, derived from the entries."""
        span = range(self.size)
        return tuple(
            tuple(self.entries.get((i, j), 0) for j in span) for i in span
        )

    def parity(self) -> int | None:
        """0/1 if homogeneous, None if mixed or zero-ambiguous (zero -> 0)."""
        seen = {(i < self.p) != (j < self.p) for i, j in self.entries}
        if len(seen) > 1:
            return None
        return int(seen.pop()) if seen else 0

    def _plus(self, other: "SuperMatrix", sign: int) -> "SuperMatrix":
        out = dict(self.entries)
        for ij, c in other.entries.items():
            out[ij] = out.get(ij, 0) + sign * c
        return SuperMatrix(self.p, self.q, out)

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self._plus(other, -1)

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        by_row: dict[int, list[tuple[int, Rat]]] = {}
        for (k, j), b in other.entries.items():
            by_row.setdefault(k, []).append((j, b))
        out: dict[tuple[int, int], Rat] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                out[i, j] = out.get((i, j), 0) + a * b
        return SuperMatrix(self.p, self.q, out)

    def supertrace(self) -> Rat:
        return sum(
            c if i < self.p else -c for (i, j), c in self.entries.items() if i == j
        )

    def flatten(self) -> Row:
        size = self.size
        return {i * size + j: c for (i, j), c in sorted(self.entries.items())}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SuperMatrix)
            and (self.p, self.q) == (other.p, other.q)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.p, self.q, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return (
            f"SuperMatrix(p={self.p}, q={self.q}, "
            f"entries={dict(sorted(self.entries.items()))})"
        )


def superbracket(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    """[x, y] = xy - (-1)^{|x||y|} yx for homogeneous x, y."""
    px, py = x.parity(), y.parity()
    if px is None or py is None:
        raise ValueError("superbracket requires homogeneous arguments")
    if px and py:
        return (x @ y) + (y @ x)
    return (x @ y) - (y @ x)


class LieSuperalgebra:
    """A basic-family matrix realization with exact structure constants:
    ``space`` gives the ambient p|q block sizes and the first ``rank``
    basis elements span the Cartan subalgebra."""

    __slots__ = (
        "family", "params", "space", "basis", "parities", "cartan_indices", "_coords"
    )

    def __init__(
        self,
        family: str,
        params: tuple[int, int],
        space: tuple[int, int],
        basis: list[SuperMatrix],
        rank: int,
    ):
        self.family = family
        self.params = params
        self.space = space
        self.basis = basis
        self.parities = [b.parity() for b in basis]
        self.cartan_indices = list(range(rank))
        self._coords = SpanAccumulator()
        for b in basis:
            if self._coords.insert(b.flatten()) is None:
                raise ValueError("algebra basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def cartan(self) -> list[SuperMatrix]:
        return [self.basis[i] for i in self.cartan_indices]

    def coordinates(self, x: SuperMatrix) -> Row:
        """Exact sparse expansion {basis index: coefficient} of x over the
        algebra basis; error if outside."""
        coeffs = self._coords.express(x.flatten())
        if coeffs is None:
            raise ValueError("matrix does not lie in the algebra")
        return coeffs

    def bracket_coords(self, i: int, j: int) -> Row:
        """Structure constants of [basis_i, basis_j] over the basis."""
        return self.coordinates(superbracket(self.basis[i], self.basis[j]))


def _finish(family, params, space, entry_maps, rank) -> LieSuperalgebra:
    """The algebra spanned by the entry maps; the first ``rank`` are Cartan."""
    basis = [SuperMatrix(*space, entries) for entries in entry_maps]
    return LieSuperalgebra(family, params, space, basis, rank)


def build_algebra(family: str, m: int, n: int) -> LieSuperalgebra:
    """Construct gl(m|n), sl(m|n) or osp(m|2n) with a homogeneous basis.

    For osp the invariant form is the identity on the symmetric block and
    the standard symplectic form on the antisymmetric block.  sl(n|n) is
    constructed but flagged with a warning (its one-dimensional center is
    not quotiented out); osp parameters (m, n) in {(2,1), (4,1)} are also
    flagged but not rejected.
    """
    if family == "gl":
        return _build_gl(m, n, special=False)
    if family == "sl":
        return _build_gl(m, n, special=True)
    if family == "osp":
        return _build_osp(m, n)
    raise ParameterError(
        "family",
        f"family {family!r} has no bundled matrix realization "
        "(supported: gl, sl, osp)"
    )


def _build_gl(m: int, n: int, special: bool) -> LieSuperalgebra:
    if m < 0 or n < 0 or m + n == 0:
        bad = "m" if m < 0 else "n" if n < 0 else "m, n"
        raise ParameterError(bad, "need m, n >= 0 with m + n > 0")
    size = m + n
    if special and m == n:
        warnings.warn(
            f"sl({m}|{n}) contains the identity in its center; the quotient "
            "is not taken and downstream weights may be degenerate",
            stacklevel=2,
        )
    # diagonal part first; for sl the supertrace-zero combination across the
    # block edge is E_kk + E_k+1,k+1
    if special:
        maps = [
            {(k, k): 1, (k + 1, k + 1): 1 if k + 1 == m else -1}
            for k in range(size - 1)
        ]
    else:
        maps = [{(k, k): 1} for k in range(size)]
    rank = len(maps)
    maps += [{(i, j): 1} for i in range(size) for j in range(size) if i != j]
    return _finish("sl" if special else "gl", (m, n), (m, n), maps, rank)


def _build_osp(m: int, n: int) -> LieSuperalgebra:
    """osp(m|2n) preserving identity (sym) + standard symplectic (antisym)."""
    if m < 1 or n < 1:
        raise ParameterError("m" if m < 1 else "n", "osp(m|2n) needs m >= 1 and n >= 1")
    if (m, n) in ((2, 1), (4, 1)):
        warnings.warn(
            f"osp({m}|{2 * n}) parameters are outside the standard type-II "
            "list; construction proceeds",
            stacklevel=2,
        )
    s, t = m, m + n  # first indices of the two symplectic halves
    # sp(2n) block: D = [[P, Q], [R, -P^T]] with Q, R symmetric.
    # Diagonal P entries are the Cartan subalgebra (the only diagonal matrices).
    maps = [{(s + k, s + k): 1, (t + k, t + k): -1} for k in range(n)]
    maps += [
        {(s + k, s + l): 1, (t + l, t + k): -1}
        for k in range(n) for l in range(n) if k != l
    ]
    # symmetric Q and R: for k == l the two keys coincide, one entry of 1
    maps += [
        {(s + k, t + l): 1, (s + l, t + k): 1} for k in range(n) for l in range(k, n)
    ]
    maps += [
        {(t + k, s + l): 1, (t + l, s + k): 1} for k in range(n) for l in range(k, n)
    ]
    # so(m) block
    maps += [{(a, b): 1, (b, a): -1} for a in range(m) for b in range(a + 1, m)]
    # odd part: C free (2n x m), B = -C^T J
    maps += [{(s + k, a): 1, (a, t + k): -1} for k in range(n) for a in range(m)]
    maps += [{(t + k, a): 1, (a, s + k): 1} for k in range(n) for a in range(m)]
    return _finish("osp", (m, n), (m, 2 * n), maps, n)


# ---------------------------------------------------------------------------
# Root decomposition
# ---------------------------------------------------------------------------


class Root(NamedTuple):
    """A root: its values on the Cartan basis, parity, and label.  Its root
    vector is ``scale`` times algebra basis element ``generator``."""

    coords: tuple[Rat, ...]
    parity: int
    label: str
    generator: int
    scale: Rat


class RootDatum(NamedTuple):
    algebra: LieSuperalgebra
    roots: list[Root]


def _format_delta_label(coords: tuple[Rat, ...], symbol: str = "d") -> str:
    pieces: list[str] = []
    for k, c in enumerate(coords):
        if c == 0:
            continue
        mag = abs(c)
        term = f"{symbol}{k + 1}" if mag == 1 else f"{mag}{symbol}{k + 1}"
        if not pieces:
            pieces.append(term if c > 0 else f"-{term}")
        else:
            pieces.append(f"+{term}" if c > 0 else f"-{term}")
    return "".join(pieces) or "0"


def _root_label(algebra: LieSuperalgebra, coords: tuple[Rat, ...],
                element: SuperMatrix) -> str:
    if algebra.family == "osp":
        return _format_delta_label(coords)
    # gl/sl root vectors are single matrix units E_ij: label e{i+1}-e{j+1}
    if len(element.entries) == 1:
        [(i, j)] = element.entries
        return f"e{i + 1}-e{j + 1}"
    return _format_delta_label(coords, symbol="h")  # fallback: Cartan coords


def root_decomposition(algebra: LieSuperalgebra) -> RootDatum:
    """Root spaces of the diagonal Cartan, read off the basis entries.

    For diagonal h, [h, E_rc] = (h_rr - h_cc) E_rc, so a basis element is a
    weight vector exactly when all its entries (r, c) give one weight, and
    every basis element ``build_algebra`` makes is one (a matrix unit, or
    two matrix units of equal weight).  Each root vector is its basis
    element scaled to a first nonzero entry of 1.

    Raises RootDecompositionError when a Cartan basis element is not
    diagonal, when a basis element is not a weight vector, when a root
    space (in ascending weight order) is not one-dimensional (e.g. the odd
    spaces of osp(m|2n) with m >= 2), or when the zero-weight space is
    larger than the Cartan (e.g. sl(1|1)).
    """
    cartan = algebra.cartan
    if any(r != c for h in cartan for r, c in h.entries):
        raise RootDecompositionError("the Cartan basis is not diagonal")
    diagonals = [[h.entries.get((i, i), 0) for i in range(h.size)] for h in cartan]
    spaces: dict[tuple[Rat, ...], list[int]] = {}
    for j, x in enumerate(algebra.basis):
        weights = {tuple(d[r] - d[c] for d in diagonals) for r, c in x.entries}
        if len(weights) != 1:
            raise RootDecompositionError(
                f"basis element {j} is not a weight vector of the "
                f"diagonal Cartan for {algebra.family}{algebra.params}"
            )
        spaces.setdefault(weights.pop(), []).append(j)

    roots: list[Root] = []
    zero = (0,) * len(cartan)
    for weight in sorted(spaces):
        if weight == zero:
            continue
        if len(spaces[weight]) != 1:
            raise RootDecompositionError(
                f"root space of weight ({', '.join(map(str, weight))}) has "
                f"dimension {len(spaces[weight])} != 1"
            )
        [j] = spaces[weight]
        mat = algebra.basis[j]
        scale = div(1, mat.entries[min(mat.entries)])
        label = _root_label(algebra, weight, mat)
        roots.append(Root(weight, algebra.parities[j], label, j, scale))
    zero_dim = len(spaces.get(zero, []))
    if zero_dim != len(cartan):
        raise RootDecompositionError(
            "the zero-weight space is larger than the diagonal subalgebra "
            f"({zero_dim} > {len(cartan)}); it is not a Cartan subalgebra "
            "in this realization"
        )
    return RootDatum(algebra=algebra, roots=roots)


# ---------------------------------------------------------------------------
# Borel choice and the ordered negative basis
# ---------------------------------------------------------------------------


class BorelChoice(NamedTuple):
    positive_roots: list[Root]
    negative_roots: list[Root]
    simple_roots: list[Root]


def choose_borel(datum: RootDatum, functional: Sequence[Rat | int]) -> BorelChoice:
    """Positive system {roots with <functional, root> > 0} and its simples."""
    func = tuple(Rat(f) for f in functional)
    rank = len(datum.algebra.cartan_indices)
    if len(func) != rank:
        raise ParameterError(
            "functional",
            f"functional length {len(func)} must equal the Cartan rank {rank}"
        )
    positive: list[Root] = []
    negative: list[Root] = []
    for r in datum.roots:
        val = sum(f * c for f, c in zip(func, r.coords))
        if val == 0:
            raise ParameterError(
                "functional", f"functional vanishes on root {r.label}"
            )
        (positive if val > 0 else negative).append(r)
    pos_coords = {r.coords for r in positive}
    simple: list[Root] = []
    for r in positive:
        decomposable = any(
            tuple(c - a for c, a in zip(r.coords, s.coords)) in pos_coords
            for s in positive
            if s.coords != r.coords
        )
        if not decomposable:
            simple.append(r)
    return BorelChoice(
        positive_roots=positive, negative_roots=negative, simple_roots=simple
    )


class NegativeBasisElement(NamedTuple):
    coords: tuple[Rat, ...]  # coordinates of the (negative) root
    parity: int
    positive_label: str
    generator: int  # the root vector is scale times this algebra basis element
    scale: Rat


class NegativeBasis:
    """Ordered basis of the negative nilpotent part.

    ``elements[0]`` is the lowest position (the generator applied first in an
    ordered PBW monomial); displayed order is the reverse.  ``odd_positions``
    and ``even_positions`` are ascending lists of element indices, defining
    the odd/even coordinates of a MultiExponent.
    """

    __slots__ = ("elements", "odd_positions", "even_positions")

    def __init__(self, elements: list[NegativeBasisElement]):
        self.elements = elements
        self.odd_positions = [i for i, e in enumerate(elements) if e.parity == 1]
        self.even_positions = [i for i, e in enumerate(elements) if e.parity == 0]

    def permuted(self, permutation: Sequence[int]) -> "NegativeBasis":
        """The basis with new_elements[i] = elements[permutation[i]]."""
        if sorted(permutation) != list(range(len(self.elements))):
            raise ParameterError(
                "permutation", "permutation must reorder all positions"
            )
        return NegativeBasis([self.elements[p] for p in permutation])

    @property
    def q(self) -> int:
        return len(self.odd_positions)

    @property
    def n(self) -> int:
        return len(self.even_positions)

    def exponent_items(self, exp) -> list[tuple[int, NegativeBasisElement]]:
        """(multiplicity, element) per ascending position for a MultiExponent."""
        pairs = zip(self.odd_positions + self.even_positions, exp.odd + exp.even)
        return [(m, self.elements[i]) for i, m in sorted(pairs) if m]

    def labels(self) -> dict[str, str]:
        """Variable-name -> positive-root-label map (x1.., xi1..)."""
        out: dict[str, str] = {}
        for t, i in enumerate(self.even_positions):
            out[f"x{t + 1}"] = self.elements[i].positive_label
        for s, i in enumerate(self.odd_positions):
            out[f"xi{s + 1}"] = self.elements[i].positive_label
        return out

    def exponent_as_labeled(self, exp) -> frozenset[tuple[str, int]]:
        """A MultiExponent as a label -> multiplicity set (zero entries omitted)."""
        return frozenset((e.positive_label, m) for m, e in self.exponent_items(exp))


def _simple_root_heights(borel: BorelChoice) -> dict[tuple[Rat, ...], Rat]:
    acc = SpanAccumulator()
    for s in borel.simple_roots:
        acc.insert({k: c for k, c in enumerate(s.coords) if c})
    heights: dict[tuple[Rat, ...], Rat] = {}
    for r in borel.positive_roots:
        coeffs = acc.express({k: c for k, c in enumerate(r.coords) if c})
        if coeffs is None:
            raise RootDecompositionError(
                f"positive root {r.label} is not a combination of simple roots"
            )
        heights[r.coords] = sum(coeffs.values())
    return heights


def negative_basis(
    borel: BorelChoice, permutation: Sequence[int] | None = None
) -> NegativeBasis:
    """Ordered negative-root basis.

    Default order sorts the positions ascending by height of the positive
    partner (ties by ascending lex on root coordinates), so the highest root
    sits at the top position.  ``permutation`` reorders the default list:
    new_elements[i] = default_elements[permutation[i]].
    """
    heights = _simple_root_heights(borel)

    def neg_sort_key(r: Root):
        pos_coords = tuple(-c for c in r.coords)
        return (heights[pos_coords], pos_coords)

    ordered = sorted(borel.negative_roots, key=neg_sort_key)
    labels = {r.coords: r.label for r in borel.positive_roots}
    elements = [
        NegativeBasisElement(
            coords=r.coords,
            parity=r.parity,
            positive_label=labels[tuple(-c for c in r.coords)],
            generator=r.generator,
            scale=r.scale,
        )
        for r in ordered
    ]
    basis = NegativeBasis(elements)
    return basis if permutation is None else basis.permuted(permutation)


# ---------------------------------------------------------------------------
# Bundled context
# ---------------------------------------------------------------------------


class AlgebraContext(NamedTuple):
    """Algebra + Borel + ordered negative basis."""

    algebra: LieSuperalgebra
    borel: BorelChoice
    basis: NegativeBasis


def build_context(
    family: str, m: int, n: int,
    functional: Sequence[Rat | int],
    permutation: Sequence[int] | None = None,
) -> AlgebraContext:
    algebra = build_algebra(family, m, n)
    borel = choose_borel(root_decomposition(algebra), functional)
    basis = negative_basis(borel, permutation)
    return AlgebraContext(algebra=algebra, borel=borel, basis=basis)
