"""Exponents, sign bookkeeping, monomial orders, and superpolynomials."""

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superflag.linalg import Rat
from superflag.superpoly import (
    MonomialOrder,
    MultiExponent,
    SuperPolynomial,
    enumerate_monomials,
    koszul_count,
    monomials_of_degree,
    multiply,
)


def exp(odd, even):
    return MultiExponent(tuple(odd), tuple(even))


class TestMultiExponent:
    def test_degree_and_parity(self):
        e = exp((1, 0, 1), (2, 0))
        assert e.degree == 4
        assert e.parity == 0
        assert exp((1, 0, 0), ()).parity == 1

    def test_combine_disjoint_odds(self):
        a = exp((1, 0), (1, 0))
        b = exp((0, 1), (0, 2))
        assert a.combine(b) == exp((1, 1), (1, 2))

    def test_combine_overlapping_odds_is_none(self):
        assert exp((1,), ()).combine(exp((1,), ())) is None

    def test_splittings_count(self):
        # (even part (1,1), one odd bit): each even coordinate splits
        # (a+1)(b+1) ways, each odd bit 2 ways -> 2*2*2 = 8
        e = exp((1,), (1, 1))
        assert len(list(e.splittings())) == 8
        for a, b in e.splittings():
            assert a.combine(b) == e

    def test_splittings_reconstruct_with_12_for_mixed(self):
        e = exp((1, 1), (2,))
        assert len(list(e.splittings())) == 2 * 2 * 3

    def test_as_vector_layout_even_then_odd(self):
        e = exp((1, 0), (3, 4))
        assert e.as_vector() == (3, 4, 1, 0)

    def test_str(self):
        assert str(exp((0, 1), (0, 0, 1))) == "I=01 m=(0,0,1)"
        assert str(exp((), (2,))) == "I=- m=(2)"

    def test_equal_exponents_are_one_dict_key(self):
        a, b = exp([1, 0], [2]), exp((1, 0), (2,))
        assert a == b and hash(a) == hash(b)
        assert {a: "memo"}[b] == "memo"
        assert a != exp((0, 1), (2,))
        assert repr(a) == "MultiExponent(odd=(1, 0), even=(2,))"


class TestKoszul:
    def brute(self, first, second):
        # count of pairs j < i with first[j], second[i] both set
        total = 0
        for i, si in enumerate(second):
            if not si:
                continue
            total += sum(first[:i])
        return total

    def test_against_two_loop_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            q = rng.randint(0, 5)
            a = [rng.randint(0, 1) for _ in range(q)]
            b = [rng.randint(0, 1) for _ in range(q)]
            assert koszul_count(a, b) == self.brute(a, b)

    def test_sign_identity_all_disjoint_pairs(self):
        # reordering identity: K(a,b) + K(b,a) = |a||b| for disjoint bits
        for q in range(6):
            for bits in itertools.product((0, 1), repeat=q):
                for bits2 in itertools.product((0, 1), repeat=q):
                    if any(x and y for x, y in zip(bits, bits2)):
                        continue
                    total = sum(bits) * sum(bits2)
                    assert (
                        koszul_count(bits, bits2) + koszul_count(bits2, bits)
                        == total
                    )


def reference_compare(order, a, b):
    """The order as a pairwise comparison, written from its definition:
    -1 if a < b, 0 if equal, +1 if a > b.  ``MonomialOrder.key`` must sort
    exactly as this does."""
    if a == b:
        return 0

    def permuted(e):
        v = e.as_vector()
        return v if order.priority is None else tuple(v[i] for i in order.priority)

    va, vb = permuted(a), permuted(b)
    if order.kind == "weighted":
        wa = sum(w * x for w, x in zip(order.weights, a.as_vector()))
        wb = sum(w * x for w, x in zip(order.weights, b.as_vector()))
        if wa != wb:
            return -1 if wa < wb else 1
        # fall through to graded-lex tie-break
    da, db = sum(va), sum(vb)
    if da != db:
        return -1 if da < db else 1
    if order.kind == "graded-revlex":
        for x, y in zip(reversed(va), reversed(vb)):
            if x != y:
                return 1 if x < y else -1
        return 0
    for x, y in zip(va, vb):
        if x != y:
            return -1 if x < y else 1
    return 0


def key_compare(order, a, b):
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


class TestMonomialOrder:
    def orders(self):
        yield MonomialOrder("graded-lex")
        yield MonomialOrder("graded-revlex")
        yield MonomialOrder("weighted", weights=(2, 1, 1))

    def all_exponents(self, n, q, bound):
        return enumerate_monomials(MonomialOrder("graded-lex"), bound, n, q)

    def test_totality_and_antisymmetry(self):
        es = self.all_exponents(2, 1, 2)
        for order in self.orders():
            for a in es:
                for b in es:
                    c1 = key_compare(order, a, b)
                    c2 = key_compare(order, b, a)
                    assert c1 == -c2
                    assert (c1 == 0) == (a == b)

    def test_transitivity(self):
        es = self.all_exponents(2, 1, 2)
        for order in self.orders():
            ranked = sorted(es, key=order.key)
            for i, a in enumerate(ranked):
                for b in ranked[i + 1 :]:
                    assert key_compare(order, a, b) == -1

    @pytest.mark.parametrize("n, q", [(2, 2), (3, 1), (0, 3), (4, 2), (1, 0)])
    def test_key_sorts_as_the_reference_comparator(self, n, q):
        rng = random.Random(100 * n + q)
        m = n + q
        orders = [MonomialOrder("graded-lex"), MonomialOrder("graded-revlex")]
        for _ in range(3):
            perm = tuple(rng.sample(range(m), m))
            weights = tuple(rng.randint(-1, 3) for _ in range(m))
            orders += [
                MonomialOrder("graded-lex", priority=perm),
                MonomialOrder("graded-revlex", priority=perm),
                MonomialOrder("weighted", weights=weights),
                MonomialOrder("weighted", weights=weights, priority=perm),
            ]
        es = self.all_exponents(n, q, 4)
        rng.shuffle(es)
        for order in orders:
            reference = functools.cmp_to_key(
                functools.partial(reference_compare, order)
            )
            assert sorted(es, key=order.key) == sorted(es, key=reference)

    def test_degree_dominates_graded_orders(self):
        order = MonomialOrder("graded-lex")
        a = exp((0,), (0, 1))
        b = exp((1,), (2, 0))
        assert order.key(a) < order.key(b)

    def test_lex_vs_revlex_disagree(self):
        # same degree: x1*x3 vs x2^2 ordered differently by the two kinds
        a = exp((), (1, 0, 1))
        b = exp((), (0, 2, 0))
        lex, revlex = MonomialOrder("graded-lex"), MonomialOrder("graded-revlex")
        assert lex.key(a) > lex.key(b)
        assert revlex.key(a) < revlex.key(b)

    def test_weighted_requires_weights(self):
        with pytest.raises(ValueError):
            MonomialOrder("weighted")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown order kind: mystery$"):
            MonomialOrder("mystery")

    def test_equal_orders_are_one_dict_key(self):
        listed = MonomialOrder("weighted", weights=[3, 1], priority=[1, 0])
        tupled = MonomialOrder("weighted", weights=(3, 1), priority=(1, 0))
        assert (listed.weights, listed.priority) == ((3, 1), (1, 0))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert {listed: "memo"}[tupled] == "memo"
        assert listed != MonomialOrder("weighted", weights=(3, 1))
        assert MonomialOrder() == MonomialOrder("graded-lex")
        assert MonomialOrder() != MonomialOrder("graded-revlex")
        assert repr(tupled) == (
            "MonomialOrder(kind='weighted', weights=(3, 1), priority=(1, 0))"
        )

    def test_priority_permutes_significance(self):
        a = exp((), (1, 0))
        b = exp((), (0, 1))
        lex = MonomialOrder("graded-lex")
        assert lex.key(a) > lex.key(b)
        flipped = MonomialOrder("graded-lex", priority=(1, 0))
        assert flipped.key(a) < flipped.key(b)


class TestEnumeration:
    def test_counts(self):
        order = MonomialOrder("graded-lex")
        assert len(enumerate_monomials(order, 0, 3, 2)) == 1
        assert len(enumerate_monomials(order, 1, 1, 1)) == 3
        assert len(enumerate_monomials(order, 2, 2, 2)) == 13

    def test_ascending(self):
        order = MonomialOrder("graded-revlex")
        out = enumerate_monomials(order, 3, 2, 1)
        for a, b in zip(out, out[1:]):
            assert order.key(a) < order.key(b)


    @pytest.mark.parametrize(
        "order",
        [
            MonomialOrder("graded-lex"),
            MonomialOrder("graded-revlex"),
            MonomialOrder("graded-lex", priority=(2, 0, 3, 1)),
            MonomialOrder("weighted", weights=(3, 1, 2, 1)),
        ],
        ids=["lex", "revlex", "lex-priority", "weighted"],
    )
    def test_monomials_of_degree_is_the_filtered_enumeration(self, order):
        shapes = [(2, 2), (4, 0), (0, 4), (3, 1)]
        if order.weights is None and order.priority is None:
            shapes += [(0, 0), (1, 0), (0, 1)]
        for n, q in shapes:
            for d in range(5):
                full = enumerate_monomials(order, d, n, q)
                assert monomials_of_degree(order, d, n, q) == [
                    e for e in full if e.degree == d
                ]
                if order.weights is None:
                    continue
                # positive weights: weighted value d implies degree <= d
                assert monomials_of_degree(order, d, n, q, order.weights) == [
                    e
                    for e in full
                    if sum(
                        w * x for w, x in zip(order.weights, e.as_vector())
                    )
                    == d
                ]

    def test_monomials_of_degree_edge_cases(self):
        order = MonomialOrder("graded-lex")
        assert monomials_of_degree(order, 0, 3, 2) == [MultiExponent.zero(3, 2)]
        assert monomials_of_degree(order, 0, 0, 0) == [MultiExponent.zero(0, 0)]
        assert monomials_of_degree(order, 2, 0, 0) == []
        assert monomials_of_degree(order, 3, 0, 2) == []
        assert monomials_of_degree(order, 2, 0, 2) == [exp((1, 1), ())]
        with pytest.raises(ValueError):
            monomials_of_degree(order, -1, 1, 1)

    def test_memoized_layers_come_back_as_fresh_lists(self):
        order = MonomialOrder("graded-revlex")
        first = monomials_of_degree(order, 3, 2, 2)
        first.clear()
        again = monomials_of_degree(order, 3, 2, 2)
        assert again and again is not monomials_of_degree(order, 3, 2, 2)
        assert again == monomials_of_degree(order, 3, 2, 2, [1, 1, 1, 1])

    def test_list_weights_and_priority_give_the_tuple_order(self):
        listed = MonomialOrder(
            "weighted", weights=[3, 1, 2, 1], priority=[1, 0, 3, 2]
        )
        tupled = MonomialOrder(
            "weighted", weights=(3, 1, 2, 1), priority=(1, 0, 3, 2)
        )
        assert listed == tupled
        assert monomials_of_degree(listed, 4, 2, 2, listed.weights) == (
            monomials_of_degree(tupled, 4, 2, 2, tupled.weights)
        )


class TestSuperPolynomial:
    def var(self, n, q, index, odd=False):
        return SuperPolynomial.variable(n, q, index, odd)

    def test_odd_variables_anticommute(self):
        xi1 = self.var(0, 2, 0, odd=True)
        xi2 = self.var(0, 2, 1, odd=True)
        assert multiply(xi1, xi2) == -multiply(xi2, xi1)
        assert multiply(xi1, xi1).is_zero()

    def test_even_variables_commute(self):
        x1 = self.var(2, 0, 0)
        x2 = self.var(2, 0, 1)
        assert multiply(x1, x2) == multiply(x2, x1)

    def test_descending_odd_order_is_canonical(self):
        # xi2*xi1 is the canonical form; xi1*xi2 is its negative
        xi1 = self.var(0, 2, 0, odd=True)
        xi2 = self.var(0, 2, 1, odd=True)
        assert multiply(xi2, xi1).terms == {exp((1, 1), ()): Rat(1)}
        assert multiply(xi1, xi2).terms == {exp((1, 1), ()): Rat(-1)}

    def test_random_associativity_and_supercommutativity(self):
        rng = random.Random(20260814)

        def random_poly(n, q):
            out = SuperPolynomial.zero(n, q)
            for _ in range(rng.randint(1, 3)):
                bits = tuple(rng.randint(0, 1) for _ in range(q))
                evens = tuple(rng.randint(0, 2) for _ in range(n))
                out = out + SuperPolynomial.monomial(
                    n, q, MultiExponent(bits, evens), rng.randint(-3, 3)
                )
            return out

        def homogeneous_parts(p):
            parts = {}
            for e, c in p.terms.items():
                parts.setdefault(e.parity, SuperPolynomial.zero(p.n, p.q))
                parts[e.parity] = parts[e.parity] + SuperPolynomial.monomial(
                    p.n, p.q, e, c
                )
            return parts

        for trial in range(1000):
            n, q = 2, 2
            a, b, c = (random_poly(n, q) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            # supercommutativity on homogeneous parts
            for pa, fa in homogeneous_parts(a).items():
                for pb, fb in homogeneous_parts(b).items():
                    lhs = multiply(fa, fb)
                    rhs = multiply(fb, fa)
                    if pa and pb:
                        assert lhs == -rhs
                    else:
                        assert lhs == rhs

    def test_text_round_trip(self):
        n, q = 2, 2
        p = (
            SuperPolynomial.monomial(n, q, exp((1, 1), (2, 0)), Rat(3, 2))
            + SuperPolynomial.monomial(n, q, exp((0, 0), (0, 1)), -2)
        )
        text = p.to_text()
        assert SuperPolynomial.parse(text, n, q) == p

    def test_to_text_renders_odds_first(self):
        p = SuperPolynomial.monomial(2, 2, exp((1, 1), (2, 0)), Rat(3, 2))
        assert p.to_text() == "3/2*xi2*xi1*x1^2"

    def test_parse_normalizes_written_odd_order(self):
        # xi1*xi2 written ascending parses to the negative of the canonical
        # descending monomial rendering
        p = SuperPolynomial.parse("xi1*xi2", 0, 2)
        q = SuperPolynomial.parse("-xi2*xi1", 0, 2)
        assert p == q

    @pytest.mark.parametrize("text, term", [
        ("x1^-1", "x1^"),
        ("x1^", "x1^"),
        ("2*x1^2 - 3*x1^-2", "3*x1^"),
        ("x1^a", "x1^a"),
    ])
    def test_parse_rejects_a_power_that_is_not_a_natural_number(self, text, term):
        with pytest.raises(ValueError, match=re.escape(f"in term {term!r}")):
            SuperPolynomial.parse(text, 1, 0)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_text_round_trip_with_mixed_coefficients(self, data):
        n = data.draw(st.integers(0, 3))
        q = data.draw(st.integers(0, 2))
        exponent = st.builds(
            MultiExponent,
            st.tuples(*[st.integers(0, 1)] * q),
            st.tuples(*[st.integers(0, 3)] * n),
        )
        coeff = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=6)
        terms = data.draw(st.dictionaries(exponent, coeff, max_size=5))
        p = SuperPolynomial(n, q, terms)
        for c in p.terms.values():
            assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)
        back = SuperPolynomial.parse(p.to_text(), n, q)
        assert back == p
        assert {e: type(c) for e, c in back.terms.items()} == {
            e: type(c) for e, c in p.terms.items()
        }

    def test_ambient_mismatch_rejected(self):
        a = SuperPolynomial.zero(1, 0)
        b = SuperPolynomial.zero(2, 0)
        with pytest.raises(ValueError):
            a + b
