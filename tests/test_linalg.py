"""Exact linear algebra: span tracking, kernels, Smith form, elimination."""

import hashlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from superflag.linalg import (
    Independent,
    RankAccumulator,
    Rat,
    SpanAccumulator,
    add_scaled,
    div,
    fourier_motzkin_bounds,
    fourier_motzkin_solve,
    nullspace,
    smith_normal_form,
)


def vector(entries):
    """A vector: the nonzero entries of an index -> scalar map or pairs."""
    return {i: Rat(c) for i, c in dict(entries).items() if c}


def dense(*values):
    return vector(enumerate(values))


# ints and Fractions, integral Fractions such as 4/2 included
scalars = st.integers(-60, 60) | st.fractions(-20, 20, max_denominator=12)


def normalized(x, value):
    """x equals value and is an int exactly when value is integral."""
    want = int if Fraction(value).denominator == 1 else Fraction
    return type(x) is want and x == value


class TestScalars:
    @settings(max_examples=200, deadline=None)
    @given(x=scalars)
    def test_rat_normalizes_ints_and_fractions(self, x):
        assert normalized(Rat(x), Fraction(x))
        assert normalized(Rat(str(x)), Fraction(x))

    @settings(max_examples=200, deadline=None)
    @given(num=st.integers(-60, 60), den=st.integers(-12, 12))
    def test_rat_of_a_pair(self, num, den):
        if den == 0:
            with pytest.raises(ZeroDivisionError):
                Rat(num, den)
        else:
            assert normalized(Rat(num, den), Fraction(num, den))

    @pytest.mark.parametrize(
        "text, value",
        [("3/2", Fraction(3, 2)), ("-4/2", -2), ("1.25", Fraction(5, 4)),
         ("2.0", 2), (" 7 ", 7)],
    )
    def test_rat_of_a_string(self, text, value):
        assert normalized(Rat(text), value)

    @settings(max_examples=300, deadline=None)
    @given(a=scalars, b=scalars)
    def test_div_is_the_exact_quotient(self, a, b):
        if b == 0:
            with pytest.raises(ZeroDivisionError):
                div(a, b)
        else:
            assert normalized(div(a, b), Fraction(a) / Fraction(b))

    @settings(max_examples=200, deadline=None)
    @given(a=scalars, b=scalars)
    def test_arithmetic_on_normalized_scalars_is_exact(self, a, b):
        x, y = Rat(a), Rat(b)
        fa, fb = Fraction(a), Fraction(b)
        for got, want in ((x + y, fa + fb), (x - y, fa - fb), (x * y, fa * fb)):
            assert not isinstance(got, float) and got == want


class TestAddScaled:
    def test_add_scaled_cancels(self):
        u = dense(1, 2)
        assert add_scaled(u, dense(1, 2), Rat(-1)) == {}
        assert u == dense(1, 2)  # a new vector; the inputs are untouched


class TestSpanAccumulator:
    def test_dependent_reports_expansion_over_originals(self):
        acc = SpanAccumulator()
        assert isinstance(acc.insert(dense(1, 0, 1)), Independent)
        assert isinstance(acc.insert(dense(0, 1, 1)), Independent)
        assert acc.express(dense(2, 1, 3)) == {0: Rat(2), 1: Rat(1)}
        assert acc.insert(dense(2, 1, 3)) is None

    def test_zero_vector_is_dependent_with_zero_expansion(self):
        acc = SpanAccumulator()
        acc.insert(dense(1, 1))
        assert acc.express({}) == {}
        assert acc.insert({}) is None

    def test_reinsertion_is_identity_expansion(self):
        acc = SpanAccumulator()
        v = dense(3, -2, 7)
        acc.insert(v)
        assert acc.express(v) == {0: Rat(1)}
        assert acc.insert(v) is None

    def test_express_without_mutation(self):
        acc = SpanAccumulator()
        v = dense(1, 2)
        acc.insert(v)
        acc.insert(dense(0, 1))
        w = dense(3, 7)
        assert acc.express(dense(3, 6)) == {0: Rat(3)}
        assert acc.express(w) == {0: Rat(3), 1: Rat(1)}
        assert acc.rank == 2
        assert (v, w) == (dense(1, 2), dense(3, 7))  # inputs are copied

    def test_express_outside_span_is_none(self):
        acc = SpanAccumulator()
        acc.insert(dense(1, 0, 0))
        assert acc.express(dense(0, 1, 0)) is None

    def test_rank_matches_sympy_on_random_matrices(self):
        rng = random.Random(20260814)
        for _ in range(25):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            mat = [
                [rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)
            ]
            acc = SpanAccumulator()
            for row in mat:
                acc.insert(dense(*row))
            assert acc.rank == sympy.Matrix(mat).rank()

    def test_random_dependent_expansions_reconstruct_the_vector(self):
        rng = random.Random(7)
        for _ in range(20):
            cols = rng.randint(2, 6)
            acc = SpanAccumulator()
            vecs = []
            for _ in range(rng.randint(2, 7)):
                v = dense(*(rng.randint(-4, 4) for _ in range(cols)))
                coefficients = acc.express(v)
                if isinstance(acc.insert(v), Independent):
                    vecs.append(v)
                else:
                    recon = {}
                    for j, c in coefficients.items():
                        recon = add_scaled(recon, vecs[j], c)
                    assert recon == v

    def test_expansions_match_sympy_solutions(self):
        rng = random.Random(20261018)
        for _ in range(25):
            cols = rng.randint(1, 7)
            acc = SpanAccumulator()
            independent = []
            for _ in range(rng.randint(1, 9)):
                if independent and rng.random() < 0.5:
                    # a rational combination of the independent vectors so far
                    v = {}
                    k = rng.randint(1, len(independent))
                    for w in rng.sample(independent, k):
                        c = Rat(rng.randint(-4, 4), rng.randint(1, 3))
                        v = add_scaled(v, w, c)
                else:
                    v = dense(
                        *(
                            Rat(rng.randint(-3, 3), rng.randint(1, 2))
                            for _ in range(cols)
                        )
                    )
                expressed = acc.express(v)
                res = acc.insert(v)
                if isinstance(res, Independent):
                    assert expressed is None
                    independent.append(v)
                    continue
                basis = sympy.Matrix(
                    [
                        [sympy.Rational(w.get(i, 0)) for w in independent]
                        for i in range(cols)
                    ]
                )
                target = sympy.Matrix(
                    [sympy.Rational(v.get(i, 0)) for i in range(cols)]
                )
                solution, params = basis.gauss_jordan_solve(target)
                assert params.shape[0] == 0
                want = {
                    j: Fraction(int(x.p), int(x.q))
                    for j, x in enumerate(solution)
                    if x
                }
                assert res is None
                assert expressed == want


class TestRankAccumulator:
    def test_insert_reports_growth(self):
        acc = RankAccumulator()
        assert acc.insert(dense(0, 2, 4))
        assert acc.insert(dense(1, 1, 0))
        assert not acc.insert(dense(2, 3, 2))
        assert not acc.insert({})
        assert acc.rank == 2

    def test_rank_matches_span_accumulator_and_sympy(self):
        rng = random.Random(20261018)
        for _ in range(30):
            cols = rng.randint(1, 12)
            basis_rows = [
                vector(
                    {
                        i: Rat(rng.randint(-5, 5), rng.randint(1, 4))
                        for i in rng.sample(range(cols), rng.randint(1, 3))
                    }
                )
                for _ in range(rng.randint(1, 6))
            ]
            rows = list(basis_rows)
            # planted dependent rows: sparse combinations of earlier rows
            for _ in range(rng.randint(1, 6)):
                combo = {}
                for r in rng.sample(rows, min(len(rows), 2)):
                    combo = add_scaled(
                        combo, r, Rat(rng.randint(-3, 3), rng.randint(1, 3))
                    )
                rows.insert(rng.randint(0, len(rows)), combo)
            rank_only, span = RankAccumulator(), SpanAccumulator()
            for r in rows:
                rank_only.insert(r)
                span.insert(r)
            mat = sympy.Matrix(
                [[sympy.Rational(r.get(i, 0)) for i in range(cols)] for r in rows]
            )
            assert rank_only.rank == span.rank == mat.rank()
            assert rank_only.rank < len(rows)


class TestNullspace:
    def test_kernel_vectors_annihilate_rows(self):
        rng = random.Random(99)
        for _ in range(20):
            rows_n = rng.randint(1, 6)
            cols = rng.randint(1, 7)
            mat = [
                [rng.randint(-3, 3) for _ in range(cols)]
                for _ in range(rows_n)
            ]
            rows = [dense(*r) for r in mat]
            basis = nullspace(rows, cols)
            for v in basis:
                for r in rows:
                    assert sum(c * v.get(i, 0) for i, c in r.items()) == 0
            assert len(basis) == cols - sympy.Matrix(mat).rank()

    def test_vectors_equal_sympy_nullspace(self):
        rng = random.Random(4711)
        for _ in range(40):
            rows_n = rng.randint(1, 6)
            cols = rng.randint(1, 9)
            mat = [
                [
                    Rat(rng.randint(-3, 3), rng.randint(1, 3))
                    if rng.random() < 0.6
                    else Rat(0)
                    for _ in range(cols)
                ]
                for _ in range(rows_n)
            ]
            if rng.random() < 0.3:  # a zero row
                mat.insert(rng.randint(0, len(mat)), [Rat(0)] * cols)
            if rng.random() < 0.5:  # a dependent row
                a, b = rng.choice(mat), rng.choice(mat)
                c = Rat(rng.randint(-2, 2), rng.randint(1, 2))
                row = [x + c * y for x, y in zip(a, b)]
                mat.insert(rng.randint(0, len(mat)), row)
            rows = [dense(*r) for r in mat]
            got = [[v.get(i, 0) for i in range(cols)] for v in nullspace(rows, cols)]
            want = [
                [Fraction(int(x.p), int(x.q)) for x in vec]
                for vec in sympy.Matrix(
                    [[sympy.Rational(x) for x in row] for row in mat]
                ).nullspace()
            ]
            assert got == want

    def test_trivial_kernel(self):
        rows = [dense(1, 0), dense(0, 1)]
        assert nullspace(rows, 2) == []


class TestSmithNormalForm:
    def test_two_by_two_coprime_diagonal(self):
        _, diag = smith_normal_form([[2, 0], [0, 3]])
        assert diag == [1, 6]

    def test_identity(self):
        s, diag = smith_normal_form([[1, 0], [0, 1]])
        assert diag == [1, 1]
        assert s == [[1, 0], [0, 1]]

    def test_single_entry(self):
        _, diag = smith_normal_form([[2]])
        assert diag == [2]

    def test_divisibility_chain_and_sympy_oracle(self):
        rng = random.Random(4242)
        for _ in range(25):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            mat = [
                [rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)
            ]
            if all(all(x == 0 for x in r) for r in mat):
                mat[0][0] = 1
            _, diag = smith_normal_form(mat)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
            sm = sympy_snf(sympy.Matrix(mat))
            expected = [
                abs(sm[k, k])
                for k in range(min(rows, cols))
                if sm[k, k] != 0
            ]
            assert diag == expected

    def test_determinant_magnitude_preserved(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(1, 4)
            mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            det = sympy.Matrix(mat).det()
            if det == 0:
                continue
            _, diag = smith_normal_form(mat)
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(det)


class TestFourierMotzkin:
    def test_feasible_solution_satisfies_all(self):
        # x + y <= 4, -x <= -1, -y <= -1
        ineqs = [
            ([Rat(1), Rat(1)], Rat(4)),
            ([Rat(-1), Rat(0)], Rat(-1)),
            ([Rat(0), Rat(-1)], Rat(-1)),
        ]
        sol = fourier_motzkin_solve(ineqs, 2)
        assert sol is not None
        for coeffs, rhs in ineqs:
            assert sum(c * x for c, x in zip(coeffs, sol)) <= rhs

    def test_infeasible_returns_none(self):
        ineqs = [
            ([Rat(1)], Rat(0)),
            ([Rat(-1)], Rat(-1)),  # x >= 1 and x <= 0
        ]
        assert fourier_motzkin_solve(ineqs, 1) is None

    def test_strict_separation_style_system(self):
        # w1 - w2 >= 1 and w2 - w1 >= 1 is infeasible
        ineqs = [
            ([Rat(-1), Rat(1)], Rat(-1)),
            ([Rat(1), Rat(-1)], Rat(-1)),
        ]
        assert fourier_motzkin_solve(ineqs, 2) is None

    def test_bounds_on_a_box(self):
        # 0 <= x <= 2, 0 <= y <= 5
        ineqs = [
            ([Rat(1), Rat(0)], Rat(2)),
            ([Rat(-1), Rat(0)], Rat(0)),
            ([Rat(0), Rat(1)], Rat(5)),
            ([Rat(0), Rat(-1)], Rat(0)),
        ]
        assert fourier_motzkin_bounds(ineqs, 2, 0) == (Rat(0), Rat(2))
        assert fourier_motzkin_bounds(ineqs, 2, 1) == (Rat(0), Rat(5))

    def test_bounds_detect_unbounded_direction(self):
        ineqs = [([Rat(-1), Rat(1)], Rat(0))]  # y <= x, nothing else
        lo, hi = fourier_motzkin_bounds(ineqs, 2, 0)
        assert lo is None and hi is None

    def test_bounds_detect_an_empty_system(self):
        # x <= 1 and x >= 2: y is unbounded on the rows, but the system has
        # no point, read off as 0 <= -1 (for y) or 2 > 1 (for x)
        ineqs = [([Rat(1), Rat(0)], Rat(1)), ([Rat(-1), Rat(0)], Rat(-2))]
        assert fourier_motzkin_bounds(ineqs, 2, 0) is None
        assert fourier_motzkin_bounds(ineqs, 2, 1) is None

    def test_bounds_on_projected_simplex(self):
        # x + y + z <= 1, all >= 0; each variable ranges over [0, 1]
        ineqs = [
            ([Rat(1), Rat(1), Rat(1)], Rat(1)),
            ([Rat(-1), Rat(0), Rat(0)], Rat(0)),
            ([Rat(0), Rat(-1), Rat(0)], Rat(0)),
            ([Rat(0), Rat(0), Rat(-1)], Rat(0)),
        ]
        for var in range(3):
            assert fourier_motzkin_bounds(ineqs, 3, var) == (Rat(0), Rat(1))

    def test_fraction_rhs(self):
        ineqs = [
            ([Fraction(2)], Fraction(3)),
            ([Fraction(-2)], Fraction(-1)),
        ]
        sol = fourier_motzkin_solve(ineqs, 1)
        assert sol is not None and Fraction(1, 2) <= sol[0] <= Fraction(3, 2)

    def test_solve_chooses_the_same_points(self):
        # Pins the choice, not only feasibility: the midpoint of each
        # coordinate's interval when both ends are finite, else the lower
        # end, else min(hi, 0), else 0, first coordinate to last.  The digest
        # was recorded with a last-to-first back-substitution solver, so it
        # checks this one against an independent implementation.
        rng = random.Random(0)
        sols = []
        for _ in range(2000):
            n = rng.randint(1, 4)
            m = rng.randint(0, 8)
            ineqs = [
                ([rng.randint(-3, 3) for _ in range(n)], rng.randint(-4, 4))
                for _ in range(m)
            ]
            sols.append(fourier_motzkin_solve(ineqs, n))
        assert sum(s is None for s in sols) == 580
        digest = hashlib.sha256("\n".join(map(repr, sols)).encode())
        assert digest.hexdigest() == (
            "ea4bfd0b53c7ca596e854fedd31a2180ca6a724dce07a7fdeba18049410c9a90"
        )
