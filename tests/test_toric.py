"""Toric certification of exponent sets: hypotheses, action, closure."""

import itertools
import math
import random
import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import superflag.toric as toric
from superflag.linalg import Rat
from superflag.superpoly import ExponentFile, MultiExponent
from superflag.toric import (
    _Membership,
    certify,
    check_even_laurent,
    check_odd_reachable,
    check_odd_removal,
    parse_exponent_set,
    solve_action,
    verify_derivation_closure,
)


def vp(odd, even, v=1):
    """A generator: an exponent with its v-degree."""
    return (MultiExponent(tuple(odd), tuple(even)), v)


@pytest.fixture(scope="module")
def ten_points():
    pts = [
        vp((0, 0), (0, 0, 0, 0)),
        vp((0, 1), (0, 0, 0, 0)),
        vp((1, 0), (0, 0, 0, 0)),
        vp((0, 0), (0, 0, 0, 1)),
        vp((0, 0), (0, 0, 1, 0)),
        vp((0, 0), (0, 1, 0, 0)),
        vp((0, 0), (1, 0, 0, 0)),
        vp((1, 1), (0, 0, 0, 0)),
        vp((1, 0), (0, 0, 0, 1)),
        vp((0, 0), (0, 1, 0, 1)),
    ]
    return ExponentFile(4, 2, pts, {})


@pytest.fixture(scope="module")
def bad_pair():
    return ExponentFile(0, 2, [vp((0, 0), ()), vp((1, 1), ())], {})


@pytest.fixture(scope="module")
def classical_curve():
    # exponents {0, 2, 3} of a monomial curve, one marker of v-degree 1 each
    return ExponentFile(1, 0, [vp((), (0,)), vp((), (2,)), vp((), (3,))], {})


class ReferenceMembership:
    """The depth-first search the sumset replaced, kept as its oracle."""

    def __init__(self, ks: ExponentFile):
        self.points = sorted(ks.points, key=lambda p: (p[1], p[0].as_vector()))
        self._memo: dict = {}

    def member(self, exp: MultiExponent, v: int) -> bool:
        """Is (exp, v) a sum of generators with v-degrees summing to v?

        Depth-first over the generators in order, trying 0, 1, ... uses of
        each; the stack is explicit because the depth is one level per
        generator.
        """
        root = (0, exp, v)
        known = self._known(root)
        if known is not None:
            return known
        stack = [(root, self._children(root))]
        while stack:
            state, children = stack[-1]
            for child in children:
                known = self._known(child)
                if known is None:
                    stack.append((child, self._children(child)))
                    break
                if known:
                    # each state on the stack reaches this child
                    for reached, _ in stack:
                        self._memo[reached] = True
                    return True
            else:
                self._memo[state] = False
                stack.pop()
        return False

    def _known(self, state: tuple[int, MultiExponent, int]) -> bool | None:
        """The answer for a state, or None while it is undecided."""
        idx, exp, v = state
        if v == 0:
            return not any(exp.odd + exp.even)
        if idx >= len(self.points):
            return False
        return self._memo.get(state)

    def _children(self, state: tuple[int, MultiExponent, int]):
        """The states left after using generator ``idx`` 0, 1, ... times."""
        idx, exp, v = state
        p, pv = self.points[idx]
        # how many copies of p can we use?
        max_uses = v // pv
        for coord, avail in zip(p.even, exp.even):
            if coord:
                max_uses = min(max_uses, avail // coord)
        if any(p.odd):
            max_uses = min(max_uses, 1)
        for uses in range(max_uses + 1):
            rest_even = tuple(a - uses * b for a, b in zip(exp.even, p.even))
            rest_odd = tuple(a - uses * b for a, b in zip(exp.odd, p.odd))
            if any(c < 0 for c in rest_even) or any(c < 0 for c in rest_odd):
                break
            yield (idx + 1, MultiExponent(rest_odd, rest_even), v - uses * pv)


def random_exponent_set(rng: random.Random, with_zero: bool) -> ExponentFile:
    """1 to 8 generators in n <= 3 even and q <= 2 odd coordinates, with
    v-degrees 1 to 3; ``with_zero`` adds the zero exponent."""
    n, q = rng.randint(0, 3), rng.randint(0, 2)
    points = {
        vp(
            [rng.randint(0, 1) for _ in range(q)],
            [rng.randint(0, 2) for _ in range(n)],
            rng.randint(1, 3),
        )
        for _ in range(rng.randint(1, 8))
    }
    if with_zero:
        points.add(vp([0] * q, [0] * n, rng.randint(1, 3)))
    return ExponentFile(n, q, sorted(points, key=str), {})


class TestMembership:
    def test_graded_membership_on_the_curve(self, classical_curve):
        member = _Membership(classical_curve)
        assert member.member(MultiExponent((), (5,)), 2)  # 2 + 3
        assert not member.member(MultiExponent((), (5,)), 1)
        assert not member.member(MultiExponent((), (1,)), 1)
        assert not member.member(MultiExponent((), (1,)), 2)
        assert member.member(MultiExponent((), (0,)), 2)  # 0 + 0
        assert member.member(MultiExponent((), (7,)), 3)  # 2 + 2 + 3

    def test_odd_generators_used_at_most_once(self):
        lone = ExponentFile(0, 1, [vp((1,), ())], {})
        member = _Membership(lone)
        assert member.member(MultiExponent((1,), ()), 1)
        # two uses of the only generator would collide in the odd bit
        assert not member.member(MultiExponent((0,), ()), 2)
        assert not member.member(MultiExponent((1,), ()), 2)

    def test_v_degree_one_requires_an_exact_generator(self, ten_points):
        member = _Membership(ten_points)
        assert not member.member(MultiExponent((1, 1), (0, 0, 0, 1)), 1)
        assert member.member(MultiExponent((1, 1), (0, 0, 0, 1)), 2)

    def test_zero_target(self, ten_points):
        member = _Membership(ten_points)
        assert member.member(MultiExponent((0, 0), (0, 0, 0, 0)), 0)
        assert member.member(MultiExponent((0, 0), (0, 0, 0, 0)), 3)

    def test_search_depth_is_not_bounded_by_recursion(self):
        # one generator m=(i) per i: deciding m=(1600) at v-degree 1 walks
        # past every smaller generator before it reaches the last one
        many = ExponentFile(1, 0, [vp((), (i,)) for i in range(1, 1601)], {})
        member = _Membership(many)
        assert member.member(MultiExponent((), (1600,)), 1)
        assert not member.member(MultiExponent((), (1601,)), 1)
        assert member.member(MultiExponent((), (5,)), 2)

    def test_sumset_matches_the_depth_first_oracle(self):
        rng = random.Random(20261018)
        for trial in range(40):
            ks = random_exponent_set(rng, with_zero=trial % 2 == 0)
            fast, slow = _Membership(ks), ReferenceMembership(ks)
            for odd in itertools.product((0, 1), repeat=ks.q):
                for even in itertools.product(range(5), repeat=ks.n):
                    exp = MultiExponent(odd, even)
                    for v in range(-1, 5):
                        assert fast.member(exp, v) == slow.member(exp, v), (
                            str(ks), exp, v
                        )
            # sums with a colliding odd coordinate are dropped from the layers
            for v, layer in enumerate(fast.layers):
                for s in layer:
                    exp = MultiExponent(s[: ks.q], s[ks.q :])
                    assert slow.member(exp, v), (exp, v)


class TestHypotheses:
    def test_removal_passes_on_the_good_set(self, ten_points):
        assert check_odd_removal(ten_points).passed

    def test_removal_violations_counted(self, bad_pair):
        report = check_odd_removal(bad_pair)
        assert not report.passed
        assert len(report.violations) == 2

    def test_laurent_unit_factors(self, ten_points):
        report = check_even_laurent(ten_points)
        assert report.passed
        assert report.diagonal == [1, 1, 1, 1, 1]

    def test_laurent_fails_on_sublattice(self):
        ks = ExponentFile(1, 0, [vp((), (0,), 2), vp((), (2,), 2)], {})
        report = check_even_laurent(ks)
        assert not report.passed

    def test_reachability_exact_witnesses(self, ten_points):
        report = check_odd_reachable(ten_points)
        assert report.passed
        assert report.witnesses[0] == vp((1, 0), (0, 0, 0, 0))
        assert report.witnesses[1] == vp((0, 1), (0, 0, 0, 0))

    def test_reachability_fails_without_pure_odd_generator(self, bad_pair):
        report = check_odd_reachable(bad_pair)
        assert not report.passed
        assert report.witnesses[0] is None
        assert report.witnesses[1] is None


class TestAction:
    def test_frozen_graded_solution_space(self, ten_points):
        action = solve_action(ten_points)
        assert len(action.spaces[0]) == 1
        vec = action.spaces[0][0]
        # span{(-1, -1, -1, 0, 1)} up to scale
        target = (Rat(-1), Rat(-1), Rat(-1), Rat(0), Rat(1))
        scale = None
        for a, b in zip(vec, target):
            if b == 0:
                assert a == 0
            else:
                s = a / b
                assert scale is None or s == scale
                scale = s
        assert scale not in (None, 0)
        assert action.spaces[1] == []

    def test_raise_is_tested_at_its_own_v_degree(self):
        # raising the odd coordinate of (m=0, v=1) gives the generator
        # (I=1, m=0) only at v=2, so at v=1 it escapes and its row (0, 1)
        # forces c_v = 0, leaving c_m free
        ks = parse_exponent_set("# ambient n=1 q=1\nI=0 m=(0) k=1\nI=1 m=(0) k=2\n")
        action = solve_action(ks)
        assert len(action.spaces[0]) == 1
        c_m, c_v = action.spaces[0][0]
        assert c_m != 0 and c_v == 0

    def test_closure_passes(self, ten_points):
        action = solve_action(ten_points)
        assert verify_derivation_closure(ten_points, action).passed

    def test_closure_reports_a_lowering_outside_the_semigroup(self):
        ks = parse_exponent_set(
            "# ambient n=1 q=1\nI=0 m=(0) k=1\nI=1 m=(1) k=1\nI=0 m=(2) k=1\n"
        )
        report = verify_derivation_closure(ks, solve_action(ks))
        assert not report.passed
        assert report.violations == [
            (0, -1, vp((1,), (1,)), "lowering leaves the semigroup")
        ]

    def test_closure_catches_a_wrong_nullspace(self, ten_points, monkeypatch):
        # under certify only a nullspace vector that is not orthogonal to
        # the rows it was given can fail the closure check; the all-ones
        # vector pairs positively with every (m, v) row, since v >= 1
        handed = []

        def wrong(rows, dim):
            handed.extend(rows)
            return [{k: Rat(1) for k in range(dim)}]

        monkeypatch.setattr(toric, "nullspace", wrong)
        cert = certify(ten_points)
        assert handed
        assert "derivation-closure: FAIL" in cert.summary_lines()
        assert cert.verdict == "hypotheses-not-met"
        assert cert.reasons == [
            f"derivations escape the algebra in {len(handed)} case(s)"
        ]


class TestCertificate:
    def test_good_set_is_toric_and_faithful(self, ten_points):
        cert = certify(ten_points)
        assert cert.verdict == "toric"
        assert cert.reasons == []
        assert cert.faithful
        assert cert.faithful_witness == ((0, 0), (1, 2, 1, 2), 6)
        assert cert.closure is not None and cert.closure.passed

    def test_bad_pair_reports_reasons(self, bad_pair):
        cert = certify(bad_pair)
        assert cert.verdict == "hypotheses-not-met"
        assert any("odd removal" in r for r in cert.reasons)
        assert any("not reachable" in r for r in cert.reasons)
        assert not cert.faithful

    def test_single_point(self):
        ks = ExponentFile(0, 0, [vp((), (), 1)], {})
        cert = certify(ks)
        assert cert.verdict == "toric"
        assert cert.laurent.diagonal == [1]

    def test_classical_curve(self, classical_curve):
        cert = certify(classical_curve)
        assert cert.verdict == "toric"
        assert cert.laurent.diagonal == [1, 1]

    def test_random_classical_curves_match_lattice_oracle(self):
        rng = random.Random(20260814)
        for _ in range(20):
            exps = sorted({rng.randint(0, 6) for _ in range(rng.randint(1, 5))})
            ks = ExponentFile(1, 0, [vp((), (a,)) for a in exps], {})
            cert = certify(ks)
            rows = sympy.Matrix([[a, 1] for a in exps])
            sm = sympy_snf(rows)
            k = min(rows.shape)
            diag = [abs(sm[i, i]) for i in range(k) if sm[i, i] != 0]
            lattice_full = len(diag) == 2 and all(d == 1 for d in diag)
            assert (cert.verdict == "toric") == lattice_full
            # cross-check with an elementary gcd computation
            if len(exps) >= 2:
                g = 0
                for a in exps[1:]:
                    g = math.gcd(g, a - exps[0])
                assert lattice_full == (g == 1)

    def test_dict_form_is_json_ready(self, ten_points):
        import json

        cert = certify(ten_points)
        payload = json.dumps(cert.to_dict(), sort_keys=True)
        assert '"verdict": "toric"' in payload


class TestSerialization:
    def test_round_trip(self, ten_points):
        back = parse_exponent_set(str(ten_points))
        assert back.points == ten_points.points
        assert (back.n, back.q) == (4, 2)

    def test_mixed_vdegrees_are_legal(self):
        text = "# ambient n=1 q=0\nI=- m=(0) k=1\nI=- m=(2) k=2\n"
        ks = parse_exponent_set(text)
        assert [v for _, v in ks.points] == [1, 2]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("I=0 k=1\n", "lacks m=: I=0 k=1"),
            ("m=(0) k=1\n", "lacks I=: m=(0) k=1"),
            ("I=0 m=(0)\n", "lacks k=: I=0 m=(0)"),
            ("# ambient n=1\nI=0 m=(0) k=1\n", "needs n= and q=: # ambient n=1"),
            ("# ambient q=1\nI=0 m=(0) k=1\n", "needs n= and q=: # ambient q=1"),
            (
                "# ambient n=2 q=1\nI=0 m=(0,0) k=1\nI=0 m=(1) k=1\n",
                "expected q=1 and n=2: I=0 m=(1) k=1",
            ),
            (
                "# ambient n=1 q=2\nI=0 m=(1) k=1\n",
                "expected q=2 and n=1: I=0 m=(1) k=1",
            ),
            (
                "I=0 m=(0,0) k=1\nI=01 m=(1,0) k=1\n",
                "expected q=1 and n=2: I=01 m=(1,0) k=1",
            ),
            ("I=1 m=(0) k=1 k=2\n", "repeated key k=: I=1 m=(0) k=1 k=2"),
            ("I=1 I=0 m=(0) k=1\n", "repeated key I=: I=1 I=0 m=(0) k=1"),
            (
                "# ambient n=1 q=1 n=2\nI=0 m=(0) k=1\n",
                "repeated key n=: # ambient n=1 q=1 n=2",
            ),
            (
                "# labels x1=a x1=b\nI=- m=(0) k=1\n",
                "repeated key x1=: # labels x1=a x1=b",
            ),
            (
                "# ambient n=1 q=0\n# ambient n=2 q=0\nI=- m=(0,0) k=1\n",
                "repeated ambient header: # ambient n=2 q=0",
            ),
            (
                "# ambient n=1 q=0\nI=- m=(0) k=1\n# ambient n=1 q=0\n",
                "repeated ambient header: # ambient n=1 q=0",
            ),
            (
                "# labels x1=a\n# labels x1=b\nI=- m=(0) k=1\n",
                "repeated labels header: # labels x1=b",
            ),
            (
                "# ambient n=1 q=0\n# labels x9=foo\nI=- m=(0) k=1\n",
                "labels name no variable of n=1 q=0: x9: # labels x9=foo",
            ),
            (
                "# labels x1=a xi1=b zz=c\nI=- m=(0) k=1\n",
                "labels name no variable of n=1 q=0: xi1 zz: # labels x1=a xi1=b zz=c",
            ),
        ],
    )
    def test_malformed_files_name_the_line(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_exponent_set(text)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        n = data.draw(st.integers(0, 3))
        q = data.draw(st.integers(0, 2))
        point = st.builds(
            vp,
            st.lists(st.integers(0, 1), min_size=q, max_size=q),
            st.lists(st.integers(0, 9), min_size=n, max_size=n),
            st.integers(1, 5),
        )
        points = data.draw(st.lists(point, max_size=6))
        token = st.text("abcxyz0123+-", min_size=1, max_size=5)
        names = [f"x{i}" for i in range(1, n + 1)] + [f"xi{s}" for s in range(1, q + 1)]
        labels = data.draw(
            st.dictionaries(st.sampled_from(names), token, max_size=3)
            if names else st.just({})
        )
        back = parse_exponent_set(str(ExponentFile(n, q, points, labels)))
        assert (back.n, back.q) == (n, q)
        assert back.labels == labels
        assert back.points == points
