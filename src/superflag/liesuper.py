"""Matrix realizations of the basic families gl(m|n), sl(m|n), osp(m|2n).

Provides homogeneous bases with exact structure constants, root
decompositions with respect to the diagonal Cartan subalgebra, positive
systems selected by a linear functional, and ordered negative-root bases
(the indexing data behind ordered PBW monomials).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

from .linalg import Dependent, Rat, SparseVector, SpanAccumulator

__all__ = [
    "SuperMatrix",
    "LieSuperalgebra",
    "Root",
    "RootDatum",
    "BorelChoice",
    "NegativeBasisElement",
    "NegativeBasis",
    "AlgebraContext",
    "UnsupportedFamilyError",
    "DegenerateFunctionalError",
    "RootDecompositionError",
    "build_algebra",
    "root_decomposition",
    "choose_borel",
    "negative_basis",
    "build_context",
]


class UnsupportedFamilyError(ValueError):
    """Raised for families without a bundled matrix realization."""


class DegenerateFunctionalError(ValueError):
    """Raised when the ordering functional vanishes on some root."""


class RootDecompositionError(RuntimeError):
    """Raised when the diagonal Cartan admits no rational root decomposition."""


class SuperMatrix:
    """Dense rational matrix on a p|q-graded space (indices < p are even)."""

    __slots__ = ("p", "q", "rows")

    def __init__(self, p: int, q: int, rows: Sequence[Sequence[Rat | int]]):
        self.p = p
        self.q = q
        size = p + q
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError("matrix size must match p+q")
        self.rows: tuple[tuple[Rat, ...], ...] = tuple(
            tuple(Rat(x) for x in r) for r in rows
        )

    @classmethod
    def zero(cls, p: int, q: int) -> "SuperMatrix":
        size = p + q
        return cls(p, q, [[0] * size for _ in range(size)])

    @classmethod
    def unit(cls, p: int, q: int, i: int, j: int, c: Rat | int = 1) -> "SuperMatrix":
        size = p + q
        rows = [[Rat(0)] * size for _ in range(size)]
        rows[i][j] = Rat(c)
        return cls(p, q, rows)

    @property
    def size(self) -> int:
        return self.p + self.q

    def index_parity(self, i: int) -> int:
        return 0 if i < self.p else 1

    def entry_parity(self, i: int, j: int) -> int:
        return (self.index_parity(i) + self.index_parity(j)) % 2

    def parity(self) -> int | None:
        """0/1 if homogeneous, None if mixed or zero-ambiguous (zero -> 0)."""
        seen: set[int] = set()
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c != 0:
                    seen.add(self.entry_parity(i, j))
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        return SuperMatrix(
            self.p, self.q,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return SuperMatrix(
            self.p, self.q,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def scaled(self, c: Rat | int) -> "SuperMatrix":
        c = Rat(c)
        return SuperMatrix(self.p, self.q, [[c * x for x in r] for r in self.rows])

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        size = self.size
        cols = list(zip(*other.rows))
        return SuperMatrix(
            self.p, self.q,
            [
                [sum((a * b for a, b in zip(row, col)), Rat(0)) for col in cols]
                for row in self.rows
            ],
        )

    def supertrace(self) -> Rat:
        return sum(
            (self.rows[i][i] if i < self.p else -self.rows[i][i]
             for i in range(self.size)),
            Rat(0),
        )

    def flatten(self) -> SparseVector:
        size = self.size
        return SparseVector(
            {
                i * size + j: c
                for i, row in enumerate(self.rows)
                for j, c in enumerate(row)
                if c != 0
            }
        )

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.rows for c in row)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SuperMatrix)
            and (self.p, self.q) == (other.p, other.q)
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.q, self.rows))

    def __repr__(self) -> str:
        return f"SuperMatrix(p={self.p}, q={self.q}, rows={self.rows})"


def superbracket(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    """[x, y] = xy - (-1)^{|x||y|} yx for homogeneous x, y."""
    px, py = x.parity(), y.parity()
    if px is None or py is None:
        raise ValueError("superbracket requires homogeneous arguments")
    if px and py:
        return (x @ y) + (y @ x)
    return (x @ y) - (y @ x)


@dataclass
class LieSuperalgebra:
    """A basic-family matrix realization with exact structure constants."""

    family: str
    params: tuple[int, int]
    space: tuple[int, int]  # ambient p|q block sizes
    basis: list[SuperMatrix]
    parities: list[int]
    cartan_indices: list[int]
    _coords: SpanAccumulator = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def dim_even(self) -> int:
        return sum(1 for p in self.parities if p == 0)

    @property
    def dim_odd(self) -> int:
        return sum(1 for p in self.parities if p == 1)

    @property
    def cartan(self) -> list[SuperMatrix]:
        return [self.basis[i] for i in self.cartan_indices]

    def coordinates(self, x: SuperMatrix) -> list[Rat]:
        """Exact expansion of x over the algebra basis; error if outside."""
        coeffs = self._coords.express(x.flatten())
        if coeffs is None:
            raise ValueError("matrix does not lie in the algebra")
        return coeffs + [Rat(0)] * (self.dim - len(coeffs))

    def bracket_coords(self, i: int, j: int) -> list[Rat]:
        """Structure constants of [basis_i, basis_j] over the basis."""
        return self.coordinates(superbracket(self.basis[i], self.basis[j]))


def _finish(family, params, space, basis, parities, cartan_indices) -> LieSuperalgebra:
    acc = SpanAccumulator()
    for b in basis:
        if isinstance(acc.insert(b.flatten()), Dependent):
            raise ValueError("algebra basis is linearly dependent")
    return LieSuperalgebra(
        family=family, params=params, space=space, basis=basis,
        parities=parities, cartan_indices=cartan_indices, _coords=acc,
    )


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
    raise UnsupportedFamilyError(
        f"family {family!r} has no bundled matrix realization "
        "(supported: gl, sl, osp)"
    )


def _build_gl(m: int, n: int, special: bool) -> LieSuperalgebra:
    if m < 0 or n < 0 or m + n == 0:
        raise ValueError("need m, n >= 0 with m + n > 0")
    size = m + n
    basis: list[SuperMatrix] = []
    parities: list[int] = []
    cartan_indices: list[int] = []
    if special and m == n:
        warnings.warn(
            f"sl({m}|{n}) contains the identity in its center; the quotient "
            "is not taken and downstream weights may be degenerate",
            stacklevel=2,
        )
    # diagonal part first
    if special:
        for k in range(size - 1):
            h = SuperMatrix.zero(m, n)
            rows = [list(r) for r in h.rows]
            if k + 1 == m:  # supertrace-zero combination across the block edge
                rows[k][k] = Rat(1)
                rows[k + 1][k + 1] = Rat(1)
            else:
                rows[k][k] = Rat(1)
                rows[k + 1][k + 1] = Rat(-1)
            cartan_indices.append(len(basis))
            basis.append(SuperMatrix(m, n, rows))
            parities.append(0)
    else:
        for k in range(size):
            cartan_indices.append(len(basis))
            basis.append(SuperMatrix.unit(m, n, k, k))
            parities.append(0)
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            basis.append(SuperMatrix.unit(m, n, i, j))
            parities.append(SuperMatrix.zero(m, n).entry_parity(i, j))
    return _finish(
        "sl" if special else "gl", (m, n), (m, n), basis, parities, cartan_indices
    )


def _symplectic(n: int) -> list[list[Rat]]:
    j = [[Rat(0)] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        j[k][n + k] = Rat(1)
        j[n + k][k] = Rat(-1)
    return j


def _build_osp(m: int, n: int) -> LieSuperalgebra:
    """osp(m|2n) preserving identity (sym) + standard symplectic (antisym)."""
    if m < 1 or n < 1:
        raise ValueError("osp(m|2n) needs m >= 1 and n >= 1")
    if (m, n) in ((2, 1), (4, 1)):
        warnings.warn(
            f"osp({m}|{2 * n}) parameters are outside the standard type-II "
            "list; construction proceeds",
            stacklevel=2,
        )
    size = m + 2 * n
    jm = _symplectic(n)
    basis: list[SuperMatrix] = []
    parities: list[int] = []
    cartan_indices: list[int] = []

    def emit(mat: SuperMatrix, parity: int, cartan: bool = False) -> None:
        if cartan:
            cartan_indices.append(len(basis))
        basis.append(mat)
        parities.append(parity)

    # sp(2n) block: D = [[P, Q], [R, -P^T]] with Q, R symmetric.
    # Diagonal P entries are the Cartan subalgebra (the only diagonal matrices).
    for k in range(n):
        mat = SuperMatrix.zero(m, 2 * n)
        rows = [list(r) for r in mat.rows]
        rows[m + k][m + k] = Rat(1)
        rows[m + n + k][m + n + k] = Rat(-1)
        emit(SuperMatrix(m, 2 * n, rows), 0, cartan=True)
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            mat = SuperMatrix.zero(m, 2 * n)
            rows = [list(r) for r in mat.rows]
            rows[m + k][m + l] = Rat(1)
            rows[m + n + l][m + n + k] = Rat(-1)
            emit(SuperMatrix(m, 2 * n, rows), 0)
    for k in range(n):
        for l in range(k, n):
            mat = SuperMatrix.zero(m, 2 * n)
            rows = [list(r) for r in mat.rows]
            rows[m + k][m + n + l] = Rat(1)
            if l != k:
                rows[m + l][m + n + k] = Rat(1)
            emit(SuperMatrix(m, 2 * n, rows), 0)
    for k in range(n):
        for l in range(k, n):
            mat = SuperMatrix.zero(m, 2 * n)
            rows = [list(r) for r in mat.rows]
            rows[m + n + k][m + l] = Rat(1)
            if l != k:
                rows[m + n + l][m + k] = Rat(1)
            emit(SuperMatrix(m, 2 * n, rows), 0)
    # so(m) block
    for a in range(m):
        for b in range(a + 1, m):
            mat = SuperMatrix.zero(m, 2 * n)
            rows = [list(r) for r in mat.rows]
            rows[a][b] = Rat(1)
            rows[b][a] = Rat(-1)
            emit(SuperMatrix(m, 2 * n, rows), 0)
    # odd part: C free (2n x m), B = -C^T J
    for i in range(2 * n):
        for a in range(m):
            mat = SuperMatrix.zero(m, 2 * n)
            rows = [list(r) for r in mat.rows]
            rows[m + i][a] = Rat(1)
            for j in range(2 * n):
                if jm[i][j] != 0:
                    rows[a][m + j] = -jm[i][j]
            emit(SuperMatrix(m, 2 * n, rows), 1)
    return _finish("osp", (m, n), (m, 2 * n), basis, parities, cartan_indices)


# ---------------------------------------------------------------------------
# Root decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Root:
    """A root: its values on the Cartan basis, parity, vector, and label."""

    coords: tuple[Rat, ...]
    parity: int
    vector: SuperMatrix
    label: str


@dataclass
class RootDatum:
    algebra: LieSuperalgebra
    cartan: list[SuperMatrix]
    roots: list[Root]

    def root_by_coords(self, coords: tuple[Rat, ...]) -> Root:
        for r in self.roots:
            if r.coords == coords:
                return r
        raise KeyError(f"no root with coordinates {coords}")

    @property
    def even_roots(self) -> list[Root]:
        return [r for r in self.roots if r.parity == 0]

    @property
    def odd_roots(self) -> list[Root]:
        return [r for r in self.roots if r.parity == 1]


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
                vector: SuperMatrix) -> str:
    if algebra.family == "osp":
        return _format_delta_label(coords)
    # gl/sl root vectors are single matrix units E_ij: label e{i+1}-e{j+1}
    support = [
        (i, j)
        for i, row in enumerate(vector.rows)
        for j, c in enumerate(row)
        if c != 0
    ]
    if len(support) == 1:
        i, j = support[0]
        return f"e{i + 1}-e{j + 1}"
    return _format_delta_label(coords, symbol="h")  # fallback: Cartan coords


def root_decomposition(algebra: LieSuperalgebra) -> RootDatum:
    """Root spaces of the diagonal Cartan, read off the basis.

    Every basis element ``build_algebra`` makes is a weight vector of the
    diagonal Cartan (a matrix unit, or two matrix units of equal weight), so
    the weight of basis element j on h is coefficient j of [h, x_j].  Each
    root vector is its basis element scaled to a first nonzero entry of 1.

    Raises RootDecompositionError when a basis element is not a weight
    vector, when a root space (in ascending weight order) is not
    one-dimensional (e.g. the odd spaces of osp(m|2n) with m >= 2), or when
    the zero-weight space is larger than the Cartan (e.g. sl(1|1)).
    """
    cartan = algebra.cartan
    spaces: dict[tuple[Rat, ...], list[int]] = {}
    for j, x in enumerate(algebra.basis):
        weight = []
        for h in cartan:
            coords = algebra.coordinates(superbracket(h, x))
            if any(c for i, c in enumerate(coords) if i != j):
                raise RootDecompositionError(
                    f"basis element {j} is not a weight vector of the "
                    f"diagonal Cartan for {algebra.family}{algebra.params}"
                )
            weight.append(coords[j])
        spaces.setdefault(tuple(weight), []).append(j)

    roots: list[Root] = []
    zero = tuple(Rat(0) for _ in cartan)
    for weight in sorted(spaces):
        if weight == zero:
            continue
        if len(spaces[weight]) != 1:
            raise RootDecompositionError(
                f"root space of weight {weight} has dimension "
                f"{len(spaces[weight])} != 1"
            )
        [j] = spaces[weight]
        mat = algebra.basis[j]
        first = next(c for row in mat.rows for c in row if c != 0)
        mat = mat.scaled(1 / first)
        roots.append(
            Root(weight, algebra.parities[j], mat, _root_label(algebra, weight, mat))
        )
    zero_dim = len(spaces.get(zero, []))
    if zero_dim != len(cartan):
        raise RootDecompositionError(
            "the zero-weight space is larger than the diagonal subalgebra "
            f"({zero_dim} > {len(cartan)}); it is not a Cartan subalgebra "
            "in this realization"
        )
    return RootDatum(algebra=algebra, cartan=cartan, roots=roots)


# ---------------------------------------------------------------------------
# Borel choice and the ordered negative basis
# ---------------------------------------------------------------------------


@dataclass
class BorelChoice:
    datum: RootDatum
    functional: tuple[Rat, ...]
    positive_roots: list[Root]
    negative_roots: list[Root]
    simple_roots: list[Root]

    def pairing(self, coords: tuple[Rat, ...]) -> Rat:
        return sum((f * c for f, c in zip(self.functional, coords)), Rat(0))


def choose_borel(datum: RootDatum, functional: Sequence[Rat | int]) -> BorelChoice:
    """Positive system {roots with <functional, root> > 0} and its simples."""
    func = tuple(Rat(f) for f in functional)
    if len(func) != len(datum.cartan):
        raise ValueError("functional length must equal the Cartan rank")
    positive: list[Root] = []
    negative: list[Root] = []
    for r in datum.roots:
        val = sum((f * c for f, c in zip(func, r.coords)), Rat(0))
        if val == 0:
            raise DegenerateFunctionalError(
                f"functional vanishes on root {r.label}"
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
        datum=datum, functional=func,
        positive_roots=positive, negative_roots=negative, simple_roots=simple,
    )


@dataclass(frozen=True)
class NegativeBasisElement:
    matrix: SuperMatrix
    coords: tuple[Rat, ...]  # coordinates of the (negative) root
    parity: int
    positive_label: str
    algebra_coords: tuple[tuple[int, Rat], ...]  # over the algebra basis


@dataclass
class NegativeBasis:
    """Ordered basis of the negative nilpotent part.

    ``elements[0]`` is the lowest position (the generator applied first in an
    ordered PBW monomial); displayed order is the reverse.  ``odd_positions``
    and ``even_positions`` are ascending lists of element indices, defining
    the odd/even coordinates of a MultiExponent.
    """

    borel: BorelChoice
    elements: list[NegativeBasisElement]

    def permuted(self, permutation: Sequence[int]) -> "NegativeBasis":
        """The basis with new_elements[i] = elements[permutation[i]]."""
        if sorted(permutation) != list(range(len(self.elements))):
            raise ValueError("permutation must reorder all positions")
        return NegativeBasis(
            borel=self.borel, elements=[self.elements[p] for p in permutation]
        )

    @property
    def odd_positions(self) -> list[int]:
        return [i for i, e in enumerate(self.elements) if e.parity == 1]

    @property
    def even_positions(self) -> list[int]:
        return [i for i, e in enumerate(self.elements) if e.parity == 0]

    @property
    def q(self) -> int:
        return len(self.odd_positions)

    @property
    def n(self) -> int:
        return len(self.even_positions)

    def exponent_items(self, exp) -> list[tuple[int, NegativeBasisElement]]:
        """(multiplicity, element) per ascending position for a MultiExponent."""
        out = []
        odd_pos = self.odd_positions
        even_pos = self.even_positions
        mult = {}
        for s, b in enumerate(exp.odd):
            if b:
                mult[odd_pos[s]] = b
        for t, m in enumerate(exp.even):
            if m:
                mult[even_pos[t]] = m
        for i in sorted(mult):
            out.append((mult[i], self.elements[i]))
        return out

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
        items = []
        for t, m in enumerate(exp.even):
            if m:
                items.append((self.elements[self.even_positions[t]].positive_label, m))
        for s, b in enumerate(exp.odd):
            if b:
                items.append((self.elements[self.odd_positions[s]].positive_label, b))
        return frozenset(items)


def _simple_root_heights(borel: BorelChoice) -> dict[tuple[Rat, ...], Rat]:
    acc = SpanAccumulator()
    dim = len(borel.datum.cartan)
    simples = borel.simple_roots
    for s in simples:
        acc.insert(SparseVector({k: c for k, c in enumerate(s.coords) if c != 0}))
    heights: dict[tuple[Rat, ...], Rat] = {}
    for r in borel.positive_roots:
        vec = SparseVector({k: c for k, c in enumerate(r.coords) if c != 0})
        coeffs = acc.express(vec)
        if coeffs is None:
            raise RootDecompositionError(
                f"positive root {r.label} is not a combination of simple roots"
            )
        heights[r.coords] = sum(coeffs, Rat(0))
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
    algebra = borel.datum.algebra

    def neg_sort_key(r: Root):
        pos_coords = tuple(-c for c in r.coords)
        return (heights[pos_coords], pos_coords)

    ordered = sorted(borel.negative_roots, key=neg_sort_key)
    elements = []
    for r in ordered:
        pos_coords = tuple(-c for c in r.coords)
        pos_label = borel.datum.root_by_coords(pos_coords).label
        coords = algebra.coordinates(r.vector)
        elements.append(
            NegativeBasisElement(
                matrix=r.vector,
                coords=r.coords,
                parity=r.parity,
                positive_label=pos_label,
                algebra_coords=tuple(
                    (i, c) for i, c in enumerate(coords) if c != 0
                ),
            )
        )
    basis = NegativeBasis(borel=borel, elements=elements)
    return basis if permutation is None else basis.permuted(permutation)


# ---------------------------------------------------------------------------
# Bundled context
# ---------------------------------------------------------------------------


@dataclass
class AlgebraContext:
    """Algebra + root decomposition + Borel + ordered negative basis."""

    algebra: LieSuperalgebra
    datum: RootDatum
    borel: BorelChoice
    basis: NegativeBasis


def build_context(
    family: str, m: int, n: int,
    functional: Sequence[Rat | int],
    permutation: Sequence[int] | None = None,
) -> AlgebraContext:
    algebra = build_algebra(family, m, n)
    datum = root_decomposition(algebra)
    borel = choose_borel(datum, functional)
    basis = negative_basis(borel, permutation)
    return AlgebraContext(algebra=algebra, datum=datum, borel=borel, basis=basis)
