"""Essential monomials, semigroup additivity, chains, order catalogs."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superflag.essential import (
    BOTTOM,
    EssentialSet,
    check_semigroup_property,
    decompose_to_chain,
    essential_monomials,
    is_favourable,
    parse_essential_set,
    search_order_catalog,
    semigroup_add,
    serialize_essential_set,
)
from superflag.liesuper import negative_basis
from superflag.modules import ProgramFault
from superflag.superpoly import MonomialOrder, MultiExponent
from superflag.toric import parse_exponent_set


def me(odd, even):
    return MultiExponent(tuple(odd), tuple(even))


class TestEssentialMonomials:
    def test_smallest_superalgebra(self, gl11_context, gl11_real):
        es, module = essential_monomials(gl11_real, gl11_context.basis)
        assert es.size == 2
        assert es.monomials == [me((0,), ()), me((1,), ())]
        assert es.level == 1
        assert (es.n, es.q) == (0, 1)
        assert module.dimension == 2

    def test_orthosymplectic_level_one_frozen(self, osp_tower):
        es = osp_tower.essential(1)
        assert es.size == 5
        labels = es.labels
        assert labels["xi2"] == "d1"
        assert me((0, 1), (0, 0, 0, 0)) in es  # the odd generator d1
        assert me((0, 0), (0, 1, 0, 0)) not in es  # 2d2 is not essential

    def test_membership_agrees_with_the_monomials(self, osp_tower):
        es = osp_tower.essential(2)
        assert all(e in es for e in es.monomials)
        assert me((1, 1), (0, 0, 0, 0)) not in es

    def test_level_two_is_exactly_the_compatible_pairwise_sums(self, osp_tower):
        es1, es2 = osp_tower.essential(1), osp_tower.essential(2)
        sums = set()
        for a in es1.monomials:
            for b in es1.monomials:
                s = semigroup_add((a, 1), (b, 1))
                if s is not BOTTOM:
                    sums.add(s[0])
        assert es2.size == 14
        assert set(es2.monomials) == sums

    def test_level_three_count(self, osp_tower):
        assert osp_tower.essential(3).size == 30

    def test_weighted_all_ones_matches_graded_lex(self, osp_context, osp_real):
        lex, _ = essential_monomials(
            osp_real, osp_context.basis, MonomialOrder("graded-lex")
        )
        weighted, _ = essential_monomials(
            osp_real,
            osp_context.basis,
            MonomialOrder("weighted", weights=(1,) * 6),
        )
        assert set(lex.monomials) == set(weighted.monomials)

    def test_weighted_order_requires_positive_integer_weights(
        self, osp_context, osp_real
    ):
        with pytest.raises(ValueError):
            essential_monomials(
                osp_real,
                osp_context.basis,
                MonomialOrder("weighted", weights=(1, 0, 1, 1, 1, 1)),
            )

    def test_weighted_scan_with_non_uniform_weights(
        self, sl12_context, sl12_real
    ):
        es, _ = essential_monomials(
            sl12_real,
            sl12_context.basis,
            MonomialOrder("weighted", weights=(3, 1, 2)),
        )
        assert es.size == 3


class TestSemigroup:
    def test_bottom_absorbs(self):
        a = (me((1,), (0,)), 1)
        assert semigroup_add(BOTTOM, a) is BOTTOM
        assert semigroup_add(a, BOTTOM) is BOTTOM

    def test_odd_collision_is_bottom(self):
        a = (me((1,), (0,)), 1)
        assert semigroup_add(a, a) is BOTTOM

    def test_levels_add(self):
        a = (me((1, 0), (2,)), 1)
        b = (me((0, 1), (1,)), 2)
        s = semigroup_add(a, b)
        assert s == (me((1, 1), (3,)), 3)

    def test_orthosymplectic_tower_is_additive(self, osp_tower):
        rep = check_semigroup_property(
            osp_tower.essential(1),
            osp_tower.essential(1),
            osp_tower.essential(2),
        )
        assert rep.passed
        assert rep.checked == 25
        rep = check_semigroup_property(
            osp_tower.essential(1),
            osp_tower.essential(2),
            osp_tower.essential(3),
        )
        assert rep.passed

    def test_violations_are_reported(self):
        order = MonomialOrder("graded-lex")
        es1 = EssentialSet(
            level=1, n=1, q=0,
            monomials=[me((), (0,)), me((), (1,))],
            order=order,
        )
        es2_missing = EssentialSet(
            level=2, n=1, q=0,
            monomials=[me((), (0,)), me((), (1,))],  # (2,) missing
            order=order,
        )
        rep = check_semigroup_property(es1, es1, es2_missing)
        assert not rep.passed
        assert (me((), (1,)), me((), (1,))) in rep.violations


class TestFavourability:
    def test_orthosymplectic_tower_is_favourable(self, osp_tower):
        report = is_favourable([osp_tower.essential(k) for k in (1, 2, 3)])
        assert report.favourable
        assert report.max_level == 3
        es_by_level = {k: osp_tower.essential(k) for k in (1, 2, 3)}
        chained = [
            exp
            for k in (2, 3)
            for exp in es_by_level[k].monomials
            if decompose_to_chain(exp, k, es_by_level) is not None
        ]
        assert len(chained) == 14 + 30

    def test_chains_have_essential_partial_sums(self, osp_tower):
        es_by_level = {k: osp_tower.essential(k) for k in (1, 2, 3)}
        target = osp_tower.essential(3).monomials[-1]
        chain = decompose_to_chain(target, 3, es_by_level)
        assert chain is not None and len(chain) == 3
        partial = None
        for k, step in enumerate(chain, start=1):
            assert step in es_by_level[1]
            partial = (
                step if partial is None else partial.combine(step)
            )
            assert partial is not None
            assert partial in es_by_level[k]
        assert partial == target

    def test_missing_level_rejected(self, osp_tower):
        with pytest.raises(ProgramFault, match="every level 1..K"):
            is_favourable([osp_tower.essential(1), osp_tower.essential(3)])

    def test_unfavourable_mock_reports_failures(self):
        order = MonomialOrder("graded-lex")
        es1 = EssentialSet(
            level=1, n=1, q=0, monomials=[me((), (0,)), me((), (1,))],
            order=order,
        )
        es2 = EssentialSet(
            level=2, n=1, q=0,
            monomials=[me((), (0,)), me((), (1,)), me((), (3,))],
            order=order,
        )
        report = is_favourable([es1, es2])
        assert not report.favourable
        assert (2, me((), (3,))) in report.failures


class TestOrderCatalog:
    def test_every_combination_realizes_the_small_module(
        self, sl12_context, sl12_real
    ):
        es, _ = essential_monomials(sl12_real, sl12_context.basis)
        target = {
            sl12_context.basis.exponent_as_labeled(e) for e in es.monomials
        }
        matches = search_order_catalog(sl12_context, sl12_real, target)
        # 3 lowering operators -> 6 permutations x 2 orders, all equivalent
        assert len(matches) == 12

    def test_unrealizable_target_finds_nothing(self, sl12_context, sl12_real):
        target = {frozenset({("e1-e2", 7)})}
        assert (
            search_order_catalog(sl12_context, sl12_real, target) == []
        )

    def test_size_mismatch_needs_one_scan(
        self, monkeypatch, osp_context, osp_real
    ):
        import superflag.essential as essential

        calls = []
        original = essential.cyclic_span

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(essential, "cyclic_span", counting)
        # the bundled module has dimension 5; a 6-point target cannot match
        target = {frozenset({("x", k)}) for k in range(6)}
        assert search_order_catalog(osp_context, osp_real, target) == []
        # the first catalog scan: identity permutation, graded-lex
        assert calls == [{"order": MonomialOrder("graded-lex")}]

    @pytest.mark.parametrize(
        "context_name, real_name, expected",
        [("sl12_context", "sl12_real", 12), ("osp_context", "osp_real", 1440)],
    )
    def test_catalog_equals_exhaustive_search(
        self, request, context_name, real_name, expected
    ):
        context = request.getfixturevalue(context_name)
        real = request.getfixturevalue(real_name)
        es, _ = essential_monomials(real, context.basis)
        target = {context.basis.exponent_as_labeled(e) for e in es.monomials}
        found = search_order_catalog(context, real, target)
        reference = _exhaustive_catalog(context, real, target)
        assert len(reference) == expected
        assert [
            (m.kind, m.permutation, m.essential.monomials) for m in found
        ] == reference


def _exhaustive_catalog(context, real, target_labeled):
    """The catalog search without the size certificate: one full scan per
    basis permutation and graded order."""
    default = negative_basis(context.borel)
    matches = []
    for perm in itertools.permutations(range(len(default.elements))):
        basis_p = default.permuted(perm)
        for kind in ("graded-lex", "graded-revlex"):
            es, _ = essential_monomials(real, basis_p, MonomialOrder(kind))
            labeled = {basis_p.exponent_as_labeled(e) for e in es.monomials}
            if labeled == target_labeled:
                matches.append((kind, tuple(perm), es.monomials))
    return matches


class TestSerialization:
    def test_round_trip(self, osp_tower):
        es = osp_tower.essential(2)
        text = serialize_essential_set(es)
        back = parse_essential_set(text)
        assert back.level == 2
        assert (back.n, back.q) == (es.n, es.q)
        assert back.monomials == es.monomials
        assert back.labels == es.labels

    def test_classical_round_trip_renders_empty_bits(self, sl3_tower):
        es = sl3_tower.essential(1)
        text = serialize_essential_set(es)
        assert "I=- " in text
        back = parse_essential_set(text)
        assert back.monomials == es.monomials

    @pytest.mark.parametrize(
        "order",
        [
            MonomialOrder("graded-revlex"),
            MonomialOrder(
                "weighted", weights=(1, 2, 1, 3, 1, 1), priority=(5, 4, 3, 2, 1, 0)
            ),
        ],
        ids=["revlex", "weighted-priority"],
    )
    def test_order_header_round_trips(self, osp_tower, order):
        es = osp_tower.essential(1)
        es = EssentialSet(
            level=es.level, n=es.n, q=es.q, monomials=es.monomials,
            order=order, labels=es.labels,
        )
        text = serialize_essential_set(es)
        back = parse_essential_set(text)
        assert back.order == order
        assert serialize_essential_set(back) == text

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_random_order_headers_round_trip(self, data):
        n = data.draw(st.integers(0, 3))
        q = data.draw(st.integers(0, 2))
        kind = data.draw(st.sampled_from(["graded-lex", "graded-revlex", "weighted"]))
        positive = st.integers(1, 9)
        weights = data.draw(
            st.lists(positive, min_size=n + q, max_size=n + q)
            if kind == "weighted"
            else st.none()
        )
        priority = data.draw(st.none() | st.permutations(range(n + q)))
        order = MonomialOrder(kind, weights=weights, priority=priority)
        exps = st.builds(
            me,
            st.lists(st.integers(0, 1), min_size=q, max_size=q),
            st.lists(st.integers(0, 9), min_size=n, max_size=n),
        )
        es = EssentialSet(
            level=data.draw(positive), n=n, q=q,
            monomials=data.draw(st.lists(exps, max_size=5)), order=order,
        )
        text = serialize_essential_set(es)
        back = parse_essential_set(text)
        if es.monomials:
            assert back.level == es.level
        assert (back.n, back.q, back.order) == (n, q, order)
        assert back.monomials == es.monomials
        assert serialize_essential_set(back) == text

    def test_mixed_levels_rejected(self):
        text = "I=- m=(1) k=1\nI=- m=(2) k=2\n"
        with pytest.raises(ValueError, match="mixed levels"):
            parse_essential_set(text)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("m=(0) k=1\n", "m=(0) k=1"),
            ("I=0 m=(0)\n", "I=0 m=(0)"),
            ("I=2 m=(0) k=1\n", "I=2 m=(0) k=1"),
            ("I=0 m=(-1) k=1\n", "I=0 m=(-1) k=1"),
            ("# ambient n=2 q=1\nI=0 m=(0) k=1\n", "I=0 m=(0) k=1"),
            ("# ambient n=1 q=2\nI=0 m=(0) k=1\n", "I=0 m=(0) k=1"),
            ("# ambient n=2\nI=0 m=(0,0) k=1\n", "# ambient n=2"),
            ("# ambient n=-1 q=0\n", "# ambient n=-1 q=0"),
            ("I=0 m=(0) k=1\n# ambient n=1 q=1\n", "# ambient n=1 q=1"),
            ("I=- m=(1) k=1\nI=- m=(2) k=2\n", "I=- m=(2) k=2"),
            ("# ambient n=1 q=0\n# order graded-lex perm=1,0\n",
             "# order graded-lex perm=1,0"),
        ],
        ids=["no-I", "no-k", "odd-two", "even-negative", "short-even",
             "short-odd", "no-q", "negative-n", "late-ambient", "mixed-levels",
             "perm-too-long"],
    )
    def test_malformed_lines_are_named(self, text, line):
        with pytest.raises(ValueError, match=re.escape(line) + "$"):
            parse_essential_set(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([
                "I=0", "I=01", "I=2", "I=-", "I=", "I", "m=(0)", "m=(1,2)",
                "m=(-1)", "m=()", "m=(", "m=(a)", "k=1", "k=2", "k=0", "k=x",
                "#", "# ambient", "# labels", "# order", "n=1", "q=0", "q=1",
                "n=-1", "x1=a", "graded-lex", "weighted", "w=1,2", "perm=1,0",
                "perm=", "=", "junk", "\n", "\n", "\n",
            ])
            | st.text(max_size=4),
            max_size=12,
        ),
        st.sampled_from([parse_essential_set, parse_exponent_set]),
    )
    def test_token_soup_parses_or_raises_value_error(self, tokens, reader):
        try:
            reader(" ".join(tokens))
        except ValueError:
            pass

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            parse_essential_set("# ambient only missing\n")
