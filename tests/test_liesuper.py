"""Matrix superalgebras, root data, Borel choices, ordered lowering bases."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from superflag.linalg import Rat, SparseVector
from superflag.liesuper import (
    ParameterError,
    RootDecompositionError,
    SuperMatrix,
    build_algebra,
    build_context,
    choose_borel,
    negative_basis,
    root_decomposition,
    superbracket,
)


GOLDEN = Path(__file__).parent / "data"


def brackets_of(algebra):
    return [(x, px) for x, px in zip(algebra.basis, algebra.parities)]


class DenseSuperMatrix:
    """The dense rows-of-Fractions matrix that SuperMatrix used to be; the
    reference for the arithmetic on its nonzero entries."""

    def __init__(self, p, q, rows):
        self.p = p
        self.q = q
        size = p + q
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError("matrix size must match p+q")
        self.rows = tuple(tuple(Rat(x) for x in r) for r in rows)

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

    def scaled(self, c):
        c = Rat(c)
        return DenseSuperMatrix(self.p, self.q, [[c * x for x in r] for r in self.rows])

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

    def flatten(self):
        size = self.size
        return SparseVector(
            {
                i * size + j: c
                for i, row in enumerate(self.rows)
                for j, c in enumerate(row)
                if c != 0
            }
        )

    def is_zero(self):
        return all(c == 0 for row in self.rows for c in row)


def dense_superbracket(x, y):
    px, py = x.parity(), y.parity()
    if px is None or py is None:
        raise ValueError("superbracket requires homogeneous arguments")
    if px and py:
        return (x @ y) + (y @ x)
    return (x @ y) - (y @ x)


def random_sparse(rng, p, q, kind):
    """A matrix with up to four random entries (zeros among them) in the
    even or odd cells, or anywhere ("mixed"), or none ("zero")."""
    size = p + q
    cells = [
        (i, j) for i in range(size) for j in range(size)
        if kind == "mixed" or ((i < p) != (j < p)) == (kind == "odd")
    ]
    if kind == "zero" or not cells:
        return SuperMatrix(p, q, {})
    picked = rng.sample(cells, rng.randint(1, min(4, len(cells))))
    return SuperMatrix(
        p, q, {ij: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for ij in picked}
    )


def assert_agrees_with_dense(x, y, c):
    """Every SuperMatrix operation on x, y (and the scalar c) equals the
    dense reference, and no result stores a zero entry."""
    dx = DenseSuperMatrix(x.p, x.q, x.rows)
    dy = DenseSuperMatrix(y.p, y.q, y.rows)
    pairs = [
        (x + y, dx + dy), (x - y, dx - dy), (x.scaled(c), dx.scaled(c)),
        (x @ y, dx @ dy), (x, dx), (y, dy),
    ]
    if dx.parity() is None or dy.parity() is None:
        with pytest.raises(ValueError, match="homogeneous"):
            superbracket(x, y)
        with pytest.raises(ValueError, match="homogeneous"):
            dense_superbracket(dx, dy)
    else:
        pairs.append((superbracket(x, y), dense_superbracket(dx, dy)))
    for got, want in pairs:
        assert got.rows == want.rows
        assert 0 not in got.entries.values()
        assert got.parity() == want.parity()
        assert got.supertrace() == want.supertrace()
        assert got.is_zero() == want.is_zero()
        # same entries in the same (row-major) order
        assert list(got.flatten().entries.items()) == list(
            want.flatten().entries.items()
        )
    assert x + y == y + x and hash(x + y) == hash(y + x)


# "family m n" keys of data/algebra_basis_rows.json: the dense rows, parities
# and Cartan positions of every basis element, recorded from the dense builders
BASIS_GOLDEN = ["gl 1 1", "sl 2 1", "sl 3 0", "osp 1 2"]


class TestSuperMatrix:
    def test_unit_and_parity(self):
        e = SuperMatrix.unit(1, 2, 0, 2)
        assert e.parity() == 1  # crosses the block boundary
        assert SuperMatrix.unit(1, 2, 1, 2).parity() == 0

    def test_supertrace_sign(self):
        top = SuperMatrix.unit(1, 1, 0, 0)
        bottom = SuperMatrix.unit(1, 1, 1, 1)
        assert top.supertrace() == 1
        assert bottom.supertrace() == -1

    def test_matmul(self):
        a = SuperMatrix.unit(1, 1, 0, 1)
        b = SuperMatrix.unit(1, 1, 1, 0)
        assert (a @ b).rows[0][0] == 1
        assert (b @ a).rows[1][1] == 1

    def test_random_sparse_matrices_agree_with_dense(self):
        rng = random.Random(8)
        kinds = ["zero", "even", "odd", "mixed"]
        seen = set()
        for _ in range(400):
            p, q = rng.choice([(1, 0), (0, 2), (1, 1), (2, 1), (1, 3), (3, 2)])
            x = random_sparse(rng, p, q, rng.choice(kinds))
            y = random_sparse(rng, p, q, rng.choice(kinds))
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            assert_agrees_with_dense(x, y, c)
            seen.update((x.parity(), y.parity()))
        assert seen == {0, 1, None}  # even/zero, odd and mixed all occurred

    @pytest.mark.parametrize("key", BASIS_GOLDEN)
    def test_basis_pairs_agree_with_dense(self, key):
        family, m, n = key.split()
        algebra = build_algebra(family, int(m), int(n))
        for x, y in itertools.product(algebra.basis, repeat=2):
            assert_agrees_with_dense(x, y, Fraction(-3, 2))

    @pytest.mark.parametrize("entry", [(0, 2), (2, 0), (-1, 0), (1, -1)])
    def test_entry_outside_the_space_is_rejected(self, entry):
        with pytest.raises(ValueError, match="outside size p\\+q=2"):
            SuperMatrix(1, 1, {entry: 1})

    def test_zero_entries_are_dropped(self):
        m = SuperMatrix(1, 1, {(0, 0): 0, (0, 1): Fraction(1, 2)})
        assert m.entries == {(0, 1): Fraction(1, 2)}
        assert m == SuperMatrix.unit(1, 1, 0, 1, Fraction(1, 2))
        assert SuperMatrix(2, 1, {(1, 1): 0}) == SuperMatrix.zero(2, 1)


class TestBasisGolden:
    @pytest.mark.parametrize("key", BASIS_GOLDEN)
    def test_builders_match_dense_golden(self, key):
        golden = json.loads(
            (GOLDEN / "algebra_basis_rows.json").read_text(encoding="utf-8")
        )[key]
        family, m, n = key.split()
        algebra = build_algebra(family, int(m), int(n))
        rows = [
            [" ".join(str(c) for c in row) for row in x.rows]
            for x in algebra.basis
        ]
        assert rows == golden["rows"]
        assert algebra.parities == golden["parities"]
        assert algebra.cartan_indices == golden["cartan_indices"]


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
                assert x.supertrace() == 0

    def test_closure_under_bracket(self):
        for family, m, n in (("gl", 1, 1), ("sl", 1, 2), ("osp", 1, 2)):
            algebra = build_algebra(family, m, n)
            for x in algebra.basis:
                for y in algebra.basis:
                    algebra.coordinates(superbracket(x, y))  # raises if outside

    def test_super_skew_symmetry(self):
        for family, m, n in (("gl", 1, 1), ("osp", 1, 2)):
            algebra = build_algebra(family, m, n)
            for (x, px), (y, py) in itertools.product(
                brackets_of(algebra), repeat=2
            ):
                lhs = superbracket(x, y)
                rhs = superbracket(y, x).scaled(-1 if px * py == 0 else 1)
                assert (lhs + rhs.scaled(-1)).is_zero() or (
                    lhs.flatten().entries == rhs.flatten().entries
                )

    def test_super_jacobi(self):
        # graded Jacobi on every basis triple of the smaller algebras
        for family, m, n in (("gl", 1, 1), ("sl", 1, 2)):
            algebra = build_algebra(family, m, n)
            elems = brackets_of(algebra)
            for (x, px), (y, py), (z, pz) in itertools.product(elems, repeat=3):
                t1 = superbracket(x, superbracket(y, z))
                t2 = superbracket(superbracket(x, y), z)
                t3 = superbracket(y, superbracket(x, z)).scaled(
                    -1 if px * py else 1
                )
                total = t1 + t2.scaled(-1) + t3.scaled(-1)
                assert total.is_zero()

    def test_super_jacobi_osp_sampled(self):
        algebra = build_algebra("osp", 1, 2)
        elems = brackets_of(algebra)
        # all triples on a 14-element basis: 2744 bracket triples, still fast
        for (x, px), (y, py), (z, pz) in itertools.product(elems, repeat=3):
            t1 = superbracket(x, superbracket(y, z))
            t2 = superbracket(superbracket(x, y), z)
            t3 = superbracket(y, superbracket(x, z)).scaled(-1 if px * py else 1)
            assert (t1 + t2.scaled(-1) + t3.scaled(-1)).is_zero()


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
            assert len(datum.roots) + len(datum.cartan) == algebra.dim

    def test_root_vectors_are_simultaneous_eigenvectors(self):
        algebra = build_algebra("osp", 1, 2)
        datum = root_decomposition(algebra)
        for r in datum.roots:
            for k, h in enumerate(datum.cartan):
                expected = r.vector.scaled(r.coords[k])
                assert (superbracket(h, r.vector) + expected.scaled(-1)).is_zero()

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
        datum = root_decomposition(build_algebra(*key))
        got = [
            (tuple(r.coords), r.parity, r.label) for r in datum.roots
        ]
        assert got == [
            (tuple(Rat(c) for c in coords), parity, label)
            for coords, parity, label in self.PINNED[key]
        ]
        for r in datum.roots:
            first = next(c for row in r.vector.rows for c in row if c != 0)
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
