"""Lattice-point enumeration for inequality systems with 0/1-capped variables."""

import itertools

import pytest

from superflag.cli import main
from superflag.polytopes import (
    InequalitySystem,
    LatticePointSet,
    UnboundedRegionError,
    compare_point_sets,
    dilate,
    enumerate_lattice_points,
    parse_system,
    serialize_system,
)

OSP_TEXT = """\
# three coupled caps on six nonnegative variables, two of them 0/1
vars d1-d2 2d2 d1+d2 2d1 d2 d1
odd d2 d1
1 1 1 0 0 1 <= 1
1 1 1 0 1 0 <= 1
1 0 1 1 0 1 <= 1
"""

SIMPLEX_TEXT = """\
vars a b c
1 1 1 <= 1
"""


def brute_force(system, cap):
    """Direct filter over a finite box, used as an oracle."""
    caps = [1 if is_odd else cap for is_odd in system.odd]
    hits = []
    for pt in itertools.product(*[range(c + 1) for c in caps]):
        ok = True
        for coeffs, rhs in system.rows:
            total = sum(c * x for c, x in zip(coeffs, pt))
            if total > rhs:
                ok = False
                break
        if ok:
            hits.append(pt)
    return sorted(hits)


class TestParsing:
    def test_round_trip(self):
        system = parse_system(OSP_TEXT)
        assert system.labels[0] == "d1-d2"
        assert system.odd == [False, False, False, False, True, True]
        assert len(system.rows) == 3
        again = parse_system(serialize_system(system))
        assert again == system

    def test_row_before_header_rejected(self):
        with pytest.raises(ValueError, match="vars"):
            parse_system("1 1 <= 1\nvars a b\n")

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(ValueError, match="coefficient"):
            parse_system("vars a b\n1 1 1 <= 1\n")

    def test_unknown_odd_name_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            parse_system("vars a b\nodd c\n1 1 <= 1\n")

    def test_malformed_row_rejected(self):
        with pytest.raises(ValueError):
            parse_system("vars a b\n1 1 == 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vars a b\n1 1 <= 2\nvars c\n", "repeated vars header: vars c"),
            ("vars a a\n1 1 <= 2\n", "repeated variable name: vars a a"),
            ("vars a\nodd a\nodd a\n", "repeated odd header: odd a"),
            ("vars a b\n1 1 <= 2 <= 3\n", "malformed inequality row: 1 1 <= 2 <= 3"),
            ("vars a\n1 <=\n", "Invalid literal for Fraction: '': 1 <="),
            ("vars a b\n1 x <= 1\n", "Invalid literal for Fraction: 'x': 1 x <= 1"),
            ("vars a b\n1 1 1 <= 1\n", "3 coefficients for 2 variables: 1 1 1 <= 1"),
            ("vars a b\nodd c\n", "not among variables: odd c"),
        ],
        ids=[
            "second-vars", "repeated-name", "second-odd", "two-bounds",
            "empty-bound", "bad-coefficient", "coefficient-count", "unknown-odd",
        ],
    )
    def test_errors_name_the_offending_line(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_system(text)
        assert str(info.value).endswith(message)


class TestEnumeration:
    def test_bundled_region_has_ten_points(self):
        system = parse_system(OSP_TEXT)
        points = enumerate_lattice_points(system)
        assert points.size == 10
        assert sorted(points.points) == brute_force(system, 1)

    def test_matches_brute_force_after_dilation(self):
        system = dilate(parse_system(OSP_TEXT), 2)
        points = enumerate_lattice_points(system)
        assert sorted(points.points) == brute_force(system, 2)

    def test_row_order_does_not_matter(self):
        system = parse_system(OSP_TEXT)
        shuffled = InequalitySystem(
            labels=system.labels,
            odd=system.odd,
            rows=list(reversed(system.rows)),
        )
        a = enumerate_lattice_points(system)
        b = enumerate_lattice_points(shuffled)
        assert sorted(a.points) == sorted(b.points)

    def test_simplex_counts(self):
        system = parse_system(SIMPLEX_TEXT)
        assert enumerate_lattice_points(system).size == 4
        assert enumerate_lattice_points(dilate(system, 2)).size == 10

    def test_dilation_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            dilate(parse_system(SIMPLEX_TEXT), 0)

    def test_no_variables_yields_the_empty_point(self):
        system = parse_system("vars\n")
        points = enumerate_lattice_points(system)
        assert points.points == [()]
        # unless a row reads 0 <= rhs < 0
        empty = parse_system("vars\n <= 0\n <= -1\n")
        assert enumerate_lattice_points(empty).points == []

    def test_unbounded_region_rejected(self):
        with pytest.raises(UnboundedRegionError):
            enumerate_lattice_points(parse_system("vars a b\n1 -1 <= 0\n"))

    @pytest.mark.parametrize("rows", [
        "1 0 <= 1\n-1 0 <= -2\n",  # b has no upper bound
        "1 1 <= 1\n-1 -1 <= -2\n",  # every variable is bounded
    ], ids=["unbounded-variable", "bounded-variables"])
    def test_empty_region_has_no_points(self, tmp_path, capsys, rows):
        """An empty region is not unbounded: it has no points, whether or
        not some variable lacks an upper bound on the rows alone."""
        text = "vars a b\n" + rows
        assert enumerate_lattice_points(parse_system(text)).points == []
        path = tmp_path / "region.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["polytope", "--system", str(path)]) == 0
        assert capsys.readouterr() == ("# vars a b\n# points 0\n", "")

    def test_odd_variables_never_exceed_one(self):
        system = parse_system("vars a b\nodd b\n1 1 <= 5\n")
        points = enumerate_lattice_points(system)
        assert all(pt[1] <= 1 for pt in points.points)
        assert max(pt[0] for pt in points.points) == 5


class TestComparison:
    def test_identical_sets(self):
        system = parse_system(SIMPLEX_TEXT)
        pts = enumerate_lattice_points(system).labeled()
        report = compare_point_sets(pts, pts)
        assert report.equal
        assert report.counts() == (4, 0, 0)

    def test_strict_subset(self):
        labels = ["a"]
        small = LatticePointSet(labels=labels, odd=[False], points=[(0,), (1,)])
        big = LatticePointSet(
            labels=labels, odd=[False], points=[(0,), (1,), (2,)]
        )
        report = compare_point_sets(small.labeled(), big.labeled())
        assert not report.equal
        assert report.counts() == (2, 0, 1)
        assert report.second_only == [frozenset({("a", 2)})]

    def test_labeled_form_drops_zero_coordinates(self):
        pts = LatticePointSet(
            labels=["a", "b"], odd=[False, False], points=[(0, 0), (1, 0), (0, 2)]
        )
        assert pts.labeled() == {
            frozenset(),
            frozenset({("a", 1)}),
            frozenset({("b", 2)}),
        }

    def test_region_vs_computed_essential_set(self, osp_context, osp_real):
        """The bundled region holds 10 points; the degree-1 essential set has 5."""
        from superflag.essential import essential_monomials
        from superflag.superpoly import MonomialOrder

        system = parse_system(OSP_TEXT)
        region = enumerate_lattice_points(system)

        es, _ = essential_monomials(
            osp_real, osp_context.basis, MonomialOrder("graded-lex")
        )
        labeled = {
            osp_context.basis.exponent_as_labeled(exp) for exp in es.monomials
        }
        report = compare_point_sets(region.labeled(), labeled)
        assert not report.equal
        assert report.counts() == (5, 5, 0)
        assert len(labeled) == 5
