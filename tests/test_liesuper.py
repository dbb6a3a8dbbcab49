"""Matrix superalgebras, root data, Borel choices, ordered lowering bases."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from superflag.linalg import ProgramFault, Rat
from superflag.liesuper import (
    LieSuperalgebra,
    ParameterError,
    RootDecompositionError,
    build_algebra,
    build_context,
    choose_borel,
    negative_basis,
    parity,
    root_decomposition,
    superbracket,
)


GOLDEN = Path(__file__).parent / "data"


def scaled(x, c):
    """c times the entry map x."""
    return {ij: c * v for ij, v in x.items() if c * v}


def combine(*terms):
    """The entry map of the sum of c * x over the (c, x) terms."""
    out = {}
    for c, x in terms:
        for ij, v in x.items():
            out[ij] = out.get(ij, 0) + c * v
    return {ij: v for ij, v in out.items() if v}


def rows_of(x, size):
    """The dense rows of the entry map x."""
    return tuple(tuple(x.get((i, j), 0) for j in range(size)) for i in range(size))


class DenseSuperMatrix:
    """A dense rows-of-Fractions matrix on a p|q-graded space; the reference
    for the bracket computed on entry maps."""

    def __init__(self, p, q, rows):
        self.p = p
        self.q = q
        size = p + q
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError("matrix size must match p+q")
        self.rows = tuple(tuple(Rat(x) for x in r) for r in rows)

    @classmethod
    def of(cls, x, p, q):
        """The dense form of the entry map x."""
        return cls(p, q, rows_of(x, p + q))

    @property
    def size(self):
        return self.p + self.q

    def index_parity(self, i):
        return 0 if i < self.p else 1

    def entry_parity(self, i, j):
        return (self.index_parity(i) + self.index_parity(j)) % 2

    def parity(self):
        seen = set()
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c != 0:
                    seen.add(self.entry_parity(i, j))
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def __add__(self, other):
        return DenseSuperMatrix(
            self.p, self.q,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        return DenseSuperMatrix(
            self.p, self.q,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __matmul__(self, other):
        cols = list(zip(*other.rows))
        return DenseSuperMatrix(
            self.p, self.q,
            [
                [sum((a * b for a, b in zip(row, col)), Rat(0)) for col in cols]
                for row in self.rows
            ],
        )

    def supertrace(self):
        return sum(
            (self.rows[i][i] if i < self.p else -self.rows[i][i]
             for i in range(self.size)),
            Rat(0),
        )


def dense_superbracket(x, y):
    px, py = x.parity(), y.parity()
    if px is None or py is None:
        raise ValueError("superbracket requires homogeneous arguments")
    if px and py:
        return (x @ y) + (y @ x)
    return (x @ y) - (y @ x)


def random_sparse(rng, p, q, kind):
    """An entry map with up to four random nonzero entries in the even or
    odd cells, or anywhere ("mixed"), or none ("zero")."""
    size = p + q
    cells = [
        (i, j) for i in range(size) for j in range(size)
        if kind == "mixed" or ((i < p) != (j < p)) == (kind == "odd")
    ]
    if kind == "zero" or not cells:
        return {}
    picked = rng.sample(cells, rng.randint(1, min(4, len(cells))))
    values = {ij: Rat(rng.randint(-3, 3), rng.randint(1, 2)) for ij in picked}
    return {ij: c for ij, c in values.items() if c}


def assert_agrees_with_dense(x, y, p, q):
    """The parities and the bracket of the entry maps x, y equal the dense
    reference, and the bracket stores no zero entry."""
    dx, dy = DenseSuperMatrix.of(x, p, q), DenseSuperMatrix.of(y, p, q)
    assert (parity(x, p), parity(y, p)) == (dx.parity(), dy.parity())
    if dx.parity() is None or dy.parity() is None:
        with pytest.raises(ValueError, match="homogeneous"):
            superbracket(x, y, p)
        with pytest.raises(ValueError, match="homogeneous"):
            dense_superbracket(dx, dy)
        return
    got, want = superbracket(x, y, p), dense_superbracket(dx, dy)
    assert rows_of(got, p + q) == want.rows
    assert 0 not in got.values()
    assert parity(got, p) == want.parity()


def checked_bracket(p, q):
    """``superbracket`` on a p|q space that also checks each distinct pair
    of arguments against the dense reference, once."""
    seen = set()

    def bracket(x, y):
        key = (frozenset(x.items()), frozenset(y.items()))
        if key not in seen:
            seen.add(key)
            assert_agrees_with_dense(x, y, p, q)
        return superbracket(x, y, p)

    return bracket


# "family m n" keys of data/algebra_basis_rows.json: the dense rows, parities
# and Cartan positions of every basis element, recorded from the dense builders
BASIS_GOLDEN = ["gl 1 1", "sl 2 1", "sl 3 0", "osp 1 2"]
# the algebras whose bracket axioms are checked on every basis triple
AXIOM_FAMILIES = ["gl 1 1", "sl 1 2", "sl 3 0", "gl 2 1", "osp 1 2"]


def build_key(key):
    """The algebra a "family m n" key names."""
    family, m, n = key.split()
    return build_algebra(family, int(m), int(n))


class TestBracket:
    def test_unit_and_parity(self):
        assert parity({(0, 2): 1}, 1) == 1  # crosses the block boundary
        assert parity({(1, 2): 1}, 1) == 0
        assert parity({}, 1) == 0
        assert parity({(0, 0): 1, (0, 1): 1}, 1) is None

    def test_odd_units_anticommute(self):
        a, b = {(0, 1): 1}, {(1, 0): 1}
        assert superbracket(a, b, 1) == {(0, 0): 1, (1, 1): 1}
        assert superbracket(a, {(0, 0): 1}, 1) == {(0, 1): -1}
        assert superbracket({(0, 0): 1}, {(0, 0): 1}, 1) == {}

    def test_random_sparse_matrices_agree_with_dense(self):
        rng = random.Random(8)
        kinds = ["zero", "even", "odd", "mixed"]
        seen = set()
        for _ in range(400):
            p, q = rng.choice([(1, 0), (0, 2), (1, 1), (2, 1), (1, 3), (3, 2)])
            x = random_sparse(rng, p, q, rng.choice(kinds))
            y = random_sparse(rng, p, q, rng.choice(kinds))
            assert_agrees_with_dense(x, y, p, q)
            seen.update((parity(x, p), parity(y, p)))
        assert seen == {0, 1, None}  # even/zero, odd and mixed all occurred

    @pytest.mark.parametrize("key", BASIS_GOLDEN)
    def test_basis_pairs_agree_with_dense(self, key):
        algebra = build_key(key)
        for x, y in itertools.product(algebra.basis, repeat=2):
            assert_agrees_with_dense(x, y, *algebra.space)

    @pytest.mark.parametrize("entry", [(0, 2), (2, 0), (-1, 0), (1, -1)])
    def test_entry_outside_the_space_is_a_program_fault(self, entry):
        with pytest.raises(ProgramFault, match="outside size p\\+q=2"):
            LieSuperalgebra("gl", (1, 1), (1, 1), [{(0, 0): 1}, {entry: 1}], 1)
        with pytest.raises(ProgramFault, match="outside size p\\+q=2"):
            build_algebra("gl", 1, 1).coordinates({entry: 1})


class TestBasisGolden:
    @pytest.mark.parametrize("key", BASIS_GOLDEN)
    def test_builders_match_dense_golden(self, key):
        golden = json.loads(
            (GOLDEN / "algebra_basis_rows.json").read_text(encoding="utf-8")
        )[key]
        algebra = build_key(key)
        size = sum(algebra.space)
        rows = [
            [" ".join(str(c) for c in row) for row in rows_of(x, size)]
            for x in algebra.basis
        ]
        assert rows == golden["rows"]
        assert algebra.parities == golden["parities"]
        assert algebra.cartan_indices == golden["cartan_indices"]
        # the basis is the builders' entry maps: exact, with no zero entry
        values = [c for x in algebra.basis for c in x.values()]
        assert all(type(c) in (int, Fraction) and c != 0 for c in values)


class TestAlgebraConstruction:
    @pytest.mark.parametrize(
        "family,m,n,expected",
        [
            ("gl", 1, 1, (2, 2)),
            ("sl", 1, 2, (4, 4)),
            ("osp", 1, 2, (10, 4)),
            ("sl", 2, 0, (3, 0)),
            ("sl", 3, 0, (8, 0)),
        ],
    )
    def test_dimensions(self, family, m, n, expected):
        algebra = build_algebra(family, m, n)
        assert (algebra.parities.count(0), algebra.parities.count(1)) == expected

    @pytest.mark.parametrize(
        "family, m, n, parameter",
        [("xx", 1, 1, "family"), ("gl", -1, 2, "m"), ("sl", 2, -1, "n"),
         ("sl", 0, 0, "m, n"), ("osp", 0, 1, "m"), ("osp", 1, 0, "n")],
    )
    def test_parameter_without_realization_is_named(self, family, m, n, parameter):
        with pytest.raises(ParameterError) as info:
            build_algebra(family, m, n)
        assert info.value.parameter == parameter

    def test_equal_block_special_warns(self):
        with pytest.warns(UserWarning):
            build_algebra("sl", 2, 2)

    def test_orthosymplectic_small_even_part_warns(self):
        with pytest.warns(UserWarning):
            build_algebra("osp", 2, 1)

    def test_special_families_are_supertraceless(self):
        for family, m, n in (("sl", 1, 2), ("sl", 3, 0), ("osp", 1, 2)):
            algebra = build_algebra(family, m, n)
            for x in algebra.basis:
                assert DenseSuperMatrix.of(x, *algebra.space).supertrace() == 0

    def test_closure_under_bracket(self):
        for family, m, n in (("gl", 1, 1), ("sl", 1, 2), ("osp", 1, 2)):
            algebra = build_algebra(family, m, n)
            p = algebra.space[0]
            for x in algebra.basis:
                for y in algebra.basis:
                    algebra.coordinates(superbracket(x, y, p))  # raises if outside

    @pytest.mark.parametrize("key", AXIOM_FAMILIES)
    def test_super_skew_symmetry(self, key):
        algebra = build_key(key)
        bracket = checked_bracket(*algebra.space)
        elems = list(zip(algebra.basis, algebra.parities))
        for (x, px), (y, py) in itertools.product(elems, repeat=2):
            sign = -1 if px * py == 0 else 1
            assert bracket(x, y) == scaled(bracket(y, x), sign)

    @pytest.mark.parametrize("key", AXIOM_FAMILIES)
    def test_super_jacobi(self, key):
        # [x, [y, z]] = [[x, y], z] + (-1)^{|x||y|} [y, [x, z]] on every
        # basis triple, each distinct bracket also taken densely
        algebra = build_key(key)
        bracket = checked_bracket(*algebra.space)
        basis, parities = algebra.basis, algebra.parities
        inner = {
            (i, j): bracket(x, y)
            for (i, x), (j, y) in itertools.product(enumerate(basis), repeat=2)
        }
        for i, j, k in itertools.product(range(algebra.dim), repeat=3):
            t1 = bracket(basis[i], inner[j, k])
            t2 = bracket(inner[i, j], basis[k])
            t3 = bracket(basis[j], inner[i, k])
            sign = -1 if parities[i] * parities[j] else 1
            assert t1 == combine((1, t2), (sign, t3))


def parity_counts(datum):
    """(even, odd) root counts of a root datum."""
    return (
        sum(r.parity == 0 for r in datum.roots),
        sum(r.parity == 1 for r in datum.roots),
    )


class TestRootDecomposition:
    def test_root_counts(self):
        datum = root_decomposition(build_algebra("osp", 1, 2))
        assert parity_counts(datum) == (8, 4)
        datum = root_decomposition(build_algebra("sl", 1, 2))
        assert parity_counts(datum) == (2, 4)
        datum = root_decomposition(build_algebra("gl", 1, 1))
        assert parity_counts(datum) == (0, 2)

    def test_roots_plus_cartan_fill_the_algebra(self):
        for family, m, n in (("gl", 1, 1), ("sl", 1, 2), ("osp", 1, 2)):
            algebra = build_algebra(family, m, n)
            datum = root_decomposition(algebra)
            assert len(datum.roots) + len(algebra.cartan) == algebra.dim

    def test_root_vectors_are_simultaneous_eigenvectors(self):
        algebra = build_algebra("osp", 1, 2)
        datum = root_decomposition(algebra)
        for r in datum.roots:
            vector = scaled(algebra.basis[r.generator], r.scale)
            for k, h in enumerate(algebra.cartan):
                bracket = superbracket(h, vector, algebra.space[0])
                assert bracket == scaled(vector, r.coords[k])

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negated"])
    @pytest.mark.parametrize("family, m, n, functional", [
        ("sl", 3, 0, (3, 2)),
        ("gl", 2, 1, (5, 3, 1)),
        ("sl", 1, 2, (3, -1)),
        ("osp", 1, 1, (1,)),
        ("osp", 1, 2, (2, 1)),
        ("osp", 1, 3, (3, 2, 1)),
    ], ids=["sl3", "gl21", "sl12", "osp12", "osp14", "osp16"])
    def test_root_vectors_are_scaled_basis_elements(
        self, family, m, n, functional, sign
    ):
        """Each element of the negative basis carries the ``generator`` and
        ``scale`` of its root."""
        context = build_context(family, m, n, tuple(sign * f for f in functional))
        roots = {r.coords: r for r in root_decomposition(context.algebra).roots}
        for el in context.basis.elements:
            r = roots[el.coords]
            assert (el.generator, el.scale) == (r.generator, r.scale)
        scales = {el.scale for el in context.basis.elements}
        assert scales == ({1, -1} if family == "osp" and sign < 0 else {1})

    def test_a_non_diagonal_cartan_is_rejected(self):
        # weights are read off the entries, which needs a diagonal Cartan
        basis = [
            {(0, 0): 1, (0, 1): 1},
            {(1, 1): 1},
            {(1, 0): 1},
        ]
        algebra = LieSuperalgebra("gl", (2, 0), (2, 0), basis, 2)
        with pytest.raises(RootDecompositionError, match="not diagonal"):
            root_decomposition(algebra)

    def test_roots_come_in_opposite_pairs(self):
        datum = root_decomposition(build_algebra("osp", 1, 2))
        coords = {r.coords for r in datum.roots}
        for c in coords:
            assert tuple(-x for x in c) in coords

    def test_rational_multiplicity_failure_detected(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            algebra = build_algebra("osp", 2, 1)
        with pytest.raises(RootDecompositionError):
            root_decomposition(algebra)

    def test_osp_labels(self):
        datum = root_decomposition(build_algebra("osp", 1, 2))
        labels = {r.label for r in datum.roots}
        assert labels == {
            "d1", "-d1", "d2", "-d2",
            "2d1", "-2d1", "2d2", "-2d2",
            "d1-d2", "-d1+d2", "d1+d2", "-d1-d2",
        }

    # (coordinates, parity, label) per root, sorted by coordinates, as the
    # simultaneous adjoint eigendecomposition found them.
    PINNED = {
        ("gl", 2, 1): [
            ((-1, 0, 1), 1, "e3-e1"), ((-1, 1, 0), 0, "e2-e1"),
            ((0, -1, 1), 1, "e3-e2"), ((0, 1, -1), 1, "e2-e3"),
            ((1, -1, 0), 0, "e1-e2"), ((1, 0, -1), 1, "e1-e3"),
        ],
        ("sl", 3, 1): [
            ((-2, 1, 0), 0, "e2-e1"), ((-1, -1, 1), 0, "e3-e1"),
            ((-1, 0, 1), 1, "e4-e1"), ((-1, 1, -1), 1, "e2-e4"),
            ((-1, 2, -1), 0, "e2-e3"), ((0, -1, 0), 1, "e3-e4"),
            ((0, 1, 0), 1, "e4-e3"), ((1, -2, 1), 0, "e3-e2"),
            ((1, -1, 1), 1, "e4-e2"), ((1, 0, -1), 1, "e1-e4"),
            ((1, 1, -1), 0, "e1-e3"), ((2, -1, 0), 0, "e1-e2"),
        ],
        ("osp", 1, 3): [
            ((-2, 0, 0), 0, "-2d1"), ((-1, -1, 0), 0, "-d1-d2"),
            ((-1, 0, -1), 0, "-d1-d3"), ((-1, 0, 0), 1, "-d1"),
            ((-1, 0, 1), 0, "-d1+d3"), ((-1, 1, 0), 0, "-d1+d2"),
            ((0, -2, 0), 0, "-2d2"), ((0, -1, -1), 0, "-d2-d3"),
            ((0, -1, 0), 1, "-d2"), ((0, -1, 1), 0, "-d2+d3"),
            ((0, 0, -2), 0, "-2d3"), ((0, 0, -1), 1, "-d3"),
            ((0, 0, 1), 1, "d3"), ((0, 0, 2), 0, "2d3"),
            ((0, 1, -1), 0, "d2-d3"), ((0, 1, 0), 1, "d2"),
            ((0, 1, 1), 0, "d2+d3"), ((0, 2, 0), 0, "2d2"),
            ((1, -1, 0), 0, "d1-d2"), ((1, 0, -1), 0, "d1-d3"),
            ((1, 0, 0), 1, "d1"), ((1, 0, 1), 0, "d1+d3"),
            ((1, 1, 0), 0, "d1+d2"), ((2, 0, 0), 0, "2d1"),
        ],
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned_root_data(self, key):
        algebra = build_algebra(*key)
        datum = root_decomposition(algebra)
        got = [
            (tuple(r.coords), r.parity, r.label) for r in datum.roots
        ]
        assert got == [
            (tuple(Rat(c) for c in coords), parity, label)
            for coords, parity, label in self.PINNED[key]
        ]
        for r in datum.roots:
            vector = scaled(algebra.basis[r.generator], r.scale)
            rows = rows_of(vector, sum(algebra.space))
            first = next(c for row in rows for c in row if c != 0)
            assert first == 1

    @pytest.mark.parametrize(
        "key, message",
        [
            (
                ("sl", 2, 2),
                "root space of weight (-1, 0, -1) has dimension 2 != 1",
            ),
            (
                ("osp", 3, 2),
                "root space of weight (-1, 0) has dimension 3 != 1",
            ),
            (
                ("sl", 1, 1),
                "the zero-weight space is larger than the diagonal "
                "subalgebra (3 > 1); it is not a Cartan subalgebra in this "
                "realization",
            ),
        ],
    )
    def test_pinned_decomposition_errors(self, key, message):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            algebra = build_algebra(*key)
        with pytest.raises(RootDecompositionError) as info:
            root_decomposition(algebra)
        assert str(info.value) == message


class TestBorelChoice:
    def test_positive_system_sizes(self):
        datum = root_decomposition(build_algebra("osp", 1, 2))
        borel = choose_borel(datum, (2, 1))
        even_pos = [r for r in borel.positive_roots if r.parity == 0]
        odd_pos = [r for r in borel.positive_roots if r.parity == 1]
        assert len(even_pos) == 4
        assert len(odd_pos) == 2

    def test_simple_roots(self):
        datum = root_decomposition(build_algebra("osp", 1, 2))
        borel = choose_borel(datum, (2, 1))
        assert {r.label for r in borel.simple_roots} == {"d1-d2", "d2"}

    def test_negating_the_functional_swaps_positives(self):
        datum = root_decomposition(build_algebra("osp", 1, 2))
        plus = choose_borel(datum, (2, 1))
        minus = choose_borel(datum, (-2, -1))
        assert {r.coords for r in plus.positive_roots} == {
            r.coords for r in minus.negative_roots
        }

    def test_degenerate_functional_rejected(self):
        datum = root_decomposition(build_algebra("osp", 1, 2))
        with pytest.raises(ParameterError) as info:
            choose_borel(datum, (1, 1))  # vanishes on d1-d2
        assert info.value.parameter == "functional"


class TestNegativeBasis:
    def test_default_order_rank_two_orthosymplectic(self):
        context = build_context("osp", 1, 2, (2, 1))
        labels = [e.positive_label for e in context.basis.elements]
        assert labels == ["d2", "d1-d2", "2d2", "d1", "d1+d2", "2d1"]
        parities = [e.parity for e in context.basis.elements]
        assert parities == [1, 0, 0, 1, 0, 0]
        assert context.basis.n == 4
        assert context.basis.q == 2

    def test_default_order_special_linear_superalgebra(self):
        context = build_context("sl", 1, 2, (3, -1))
        labels = [e.positive_label for e in context.basis.elements]
        assert labels == ["e1-e2", "e2-e3", "e1-e3"]
        parities = [e.parity for e in context.basis.elements]
        assert parities == [1, 0, 1]

    def test_variable_labels(self):
        context = build_context("osp", 1, 2, (2, 1))
        assert context.basis.labels() == {
            "x1": "d1-d2",
            "x2": "2d2",
            "x3": "d1+d2",
            "x4": "2d1",
            "xi1": "d2",
            "xi2": "d1",
        }

    def test_permutation_reorders_default(self):
        context = build_context("osp", 1, 2, (2, 1))
        perm = (5, 4, 3, 2, 1, 0)
        basis = negative_basis(context.borel, perm)
        assert [e.positive_label for e in basis.elements] == [
            "2d1", "d1+d2", "d1", "2d2", "d1-d2", "d2",
        ]

    def test_permuted_basis(self):
        context = build_context("osp", 1, 2, (2, 1))
        perm = (1, 0, 2, 5, 3, 4)
        basis = context.basis.permuted(perm)
        assert basis.elements == negative_basis(context.borel, perm).elements
        assert basis.elements == [context.basis.elements[p] for p in perm]
        for bad in ((0, 1, 2), (0, 0, 1, 2, 3, 4)):
            with pytest.raises(ValueError, match="reorder all positions"):
                context.basis.permuted(bad)

    def test_elements_are_negative_root_vectors(self):
        context = build_context("osp", 1, 2, (2, 1))
        pos_coords = {r.coords for r in context.borel.positive_roots}
        for e in context.basis.elements:
            assert tuple(-c for c in e.coords) in pos_coords

    def test_labeled_exponent_rendering(self):
        from superflag.superpoly import MultiExponent

        context = build_context("osp", 1, 2, (2, 1))
        exp = MultiExponent((1, 0), (0, 0, 0, 2))
        assert context.basis.exponent_as_labeled(exp) == frozenset(
            {("d2", 1), ("2d1", 2)}
        )
