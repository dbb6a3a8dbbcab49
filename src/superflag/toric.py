"""Certification of monomial superalgebras as super-toric coordinate rings.

A v-graded set of exponent generators spans a monomial algebra; the
certificate checks the combinatorial hypotheses (odd-coordinate removal,
even sublattice fullness via Smith normal form, reachability of single odd
coordinates), solves for admissible torus-action coefficient vectors, and
verifies closure under the corresponding odd derivations.  All arithmetic is
exact.  Membership in the generated semigroup at v-degree v is a lookup in
the graded sumset ``S_v = ⋃_p (S_{v - p.v} + p)`` (odd parts disjoint),
built up to the largest v asked for, so its cost is the size of each layer
rather than the depth of a search.

Every check reads an ``ExponentFile``: its ``points`` are the generators as
``(exp, v)`` pairs, an exponent with its v-degree.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .linalg import Rat, SparseVector, nullspace, smith_normal_form
from .superpoly import ExponentFile, MultiExponent

__all__ = [
    "parse_exponent_set",
    "RemovalReport",
    "check_odd_removal",
    "LaurentReport",
    "check_even_laurent",
    "ReachabilityReport",
    "check_odd_reachable",
    "ActionSolution",
    "solve_action",
    "ClosureReport",
    "verify_derivation_closure",
    "ToricCertificate",
    "certify",
]

# The reader of exponent files, under the name the certificate's callers use.
parse_exponent_set = ExponentFile.parse


def _with_odd(exp: MultiExponent, i: int, bit: int) -> MultiExponent:
    """``exp`` with odd coordinate i set to ``bit``."""
    return MultiExponent(exp.odd[:i] + (bit,) + exp.odd[i + 1 :], exp.even)


# ---------------------------------------------------------------------------
# Exact semigroup membership
# ---------------------------------------------------------------------------


class _Membership:
    """Exact decision of membership in the v-graded semigroup span.

    The sums of generators of total v-degree u form the graded sumset
    ``S_u = {s + p : p.v <= u, s in S_{u - p.v}}`` with ``S_0 = {0}``, where
    the odd parts of s and p must be disjoint so every odd coordinate stays
    0 or 1.  A sum does not depend on the order of its summands, so taking
    the last summand off gives every element of ``S_u``.  Each element is
    one plain tuple, odd coordinates first; a sum of overlapping odd parts
    shows a 2 there and is dropped.  The layers are built up to the largest
    v asked for, so the cost is the size of each layer times the number of
    generators, not the depth of a search.
    """

    def __init__(self, ks: ExponentFile):
        self.q = ks.q
        self.points = {(v, exp.odd + exp.even) for exp, v in ks.points}
        self.layers = [{(0,) * (ks.q + ks.n)}]

    def member(self, exp: MultiExponent, v: int) -> bool:
        """Is (exp, v) a sum of generators with v-degrees summing to v?"""
        while len(self.layers) <= v:
            u = len(self.layers)
            sums = {
                tuple(map(add, s, p))
                for pv, p in self.points
                if pv <= u
                for s in self.layers[u - pv]
            }
            self.layers.append({s for s in sums if 2 not in s[: self.q]})
        return v >= 0 and exp.odd + exp.even in self.layers[v]


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------


class RemovalReport(NamedTuple):
    violations: list[tuple[tuple[MultiExponent, int], int]]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_odd_removal(ks: ExponentFile) -> RemovalReport:
    """Removing any single odd coordinate from a generator must stay in the
    set at the same v-degree."""
    have = set(ks.points)
    violations = [
        ((exp, v), i)
        for exp, v in ks.points
        for i, bit in enumerate(exp.odd)
        if bit and (_with_odd(exp, i, 0), v) not in have
    ]
    return RemovalReport(violations=violations)


class LaurentReport(NamedTuple):
    rows: list[tuple[int, ...]]
    diagonal: list[int]
    rank_needed: int

    @property
    def passed(self) -> bool:
        return (
            len(self.diagonal) == self.rank_needed
            and all(d == 1 for d in self.diagonal)
        )


def check_even_laurent(ks: ExponentFile) -> LaurentReport:
    """The purely even generators' (m, v) rows must span all of Z^{n+1}
    (Smith normal form with n+1 unit invariant factors)."""
    rows = [exp.even + (v,) for exp, v in ks.points if not any(exp.odd)]
    rank_needed = ks.n + 1
    if not rows:
        return LaurentReport(rows=[], diagonal=[], rank_needed=rank_needed)
    _, diag = smith_normal_form([list(r) for r in rows])
    return LaurentReport(rows=rows, diagonal=diag, rank_needed=rank_needed)


class ReachabilityReport(NamedTuple):
    witnesses: dict[int, tuple[MultiExponent, int] | None]

    @property
    def passed(self) -> bool:
        return all(w is not None for w in self.witnesses.values())


def check_odd_reachable(ks: ExponentFile) -> ReachabilityReport:
    """Each single odd coordinate must occur as the exact odd part of some
    generator.

    This check is exact at any bound: odd parts of semigroup sums are
    disjoint unions of generator odd parts, so an element with odd part
    {i} forces one summand with odd part exactly {i} and even the rest.
    """
    witnesses = {}
    for i in range(ks.q):
        target = tuple(1 if k == i else 0 for k in range(ks.q))
        witnesses[i] = next((p for p in ks.points if p[0].odd == target), None)
    return ReachabilityReport(witnesses=witnesses)


# ---------------------------------------------------------------------------
# Torus action and derivation closure
# ---------------------------------------------------------------------------


class ActionSolution(NamedTuple):
    """Admissible coefficient vectors for the odd raising directions.

    ``spaces[j]`` is a basis (tuples of length n+1 over (m, v)) of the
    solution space for the j-th odd raising coefficient; the constraint rows
    are identical for every derivation index i, so the space depends only on j.
    """

    spaces: dict[int, list[tuple[Rat, ...]]]


def solve_action(
    ks: ExponentFile,
    reading: str = "v-graded",
    bound: int | None = None,
) -> ActionSolution:
    """Solve for coefficient vectors c with <(m, v), c> = 0 whenever raising
    the j-th odd coordinate of a generator leaves the semigroup.

    ``reading`` selects membership in the v-graded sense (target must be a
    sum of generators of the same total v) or ungraded (any total v up to
    ``bound``, default 2q + 2).
    """
    if reading not in ("v-graded", "ungraded"):
        raise ValueError("reading must be 'v-graded' or 'ungraded'")
    if bound is None:
        bound = 2 * ks.q + 2
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    member = _Membership(ks)
    spaces: dict[int, list[tuple[Rat, ...]]] = {}
    dim = ks.n + 1
    for j in range(ks.q):
        rows: list[SparseVector] = []
        for exp, v in ks.points:
            if exp.odd[j]:
                continue
            raised = _with_odd(exp, j, 1)
            if reading == "v-graded":
                ok = member.member(raised, v)
            else:
                ok = any(member.member(raised, u) for u in range(1, bound + 1))
            if ok:
                continue
            rows.append(SparseVector(enumerate(exp.even + (v,))))
        kern = nullspace(rows, dim)
        spaces[j] = [
            tuple(vec.get(k) for k in range(dim)) for vec in kern
        ]
    return ActionSolution(spaces)


class ClosureReport(NamedTuple):
    violations: list[tuple[int, int, tuple[MultiExponent, int], str]]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_derivation_closure(
    ks: ExponentFile, action: ActionSolution
) -> ClosureReport:
    """Check that the odd derivations keep the generated algebra stable.

    The i-th derivation sends a monomial to its i-lowering (when the i-th
    odd coordinate is present) plus raising terms whose j-th coefficient is
    the pairing of (m, v) with the chosen vector c_j.  It suffices to check
    the generators (products follow from the graded Leibniz rule); each
    resulting monomial with a nonzero coefficient must lie in the generated
    semigroup at the same v-degree.  Every basis choice of each c_j space,
    and the zero choice, is checked.
    """
    member = _Membership(ks)
    violations = [
        (i, -1, (exp, v), "lowering leaves the semigroup")
        for i in range(ks.q)
        for exp, v in ks.points
        if exp.odd[i] and not member.member(_with_odd(exp, i, 0), v)
    ]
    for j in range(ks.q):
        for c in action.spaces[j]:
            for exp, v in ks.points:
                if exp.odd[j]:
                    continue
                coeff = sum((a * b for a, b in zip(exp.even + (v,), c)), Rat(0))
                if coeff and not member.member(_with_odd(exp, j, 1), v):
                    violations.append(
                        (j, j, (exp, v), "raising leaves the semigroup")
                    )
    return ClosureReport(violations=violations)


# ---------------------------------------------------------------------------
# The certificate
# ---------------------------------------------------------------------------


class ToricCertificate(NamedTuple):
    verdict: str  # "toric" | "hypotheses-not-met"
    reasons: list[str]
    removal: RemovalReport
    laurent: LaurentReport
    reachability: ReachabilityReport
    action_graded: ActionSolution
    action_ungraded: ActionSolution
    closure: ClosureReport | None
    faithful: bool
    faithful_witness: tuple[tuple[int, ...], tuple[int, ...], int] | None

    def summary_lines(self) -> list[str]:
        lines = [
            f"odd-removal: {'ok' if self.removal.passed else 'FAIL'}",
            f"even-laurent: {'ok' if self.laurent.passed else 'FAIL'} "
            f"(invariant factors {self.laurent.diagonal})",
            f"odd-reachability: {'ok' if self.reachability.passed else 'FAIL'}",
        ]
        for j, space in sorted(self.action_graded.spaces.items()):
            lines.append(
                f"action space j={j + 1} (v-graded): dimension {len(space)}"
            )
        if self.closure is not None:
            lines.append(
                f"derivation-closure: {'ok' if self.closure.passed else 'FAIL'}"
            )
        lines.append(f"faithful: {'yes' if self.faithful else 'no'}")
        lines.append(f"verdict: {self.verdict}")
        if self.reasons:
            lines.extend(f"  reason: {r}" for r in self.reasons)
        return lines

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reasons": self.reasons,
            "odd_removal": self.removal.passed,
            "even_laurent": {
                "passed": self.laurent.passed,
                "invariant_factors": self.laurent.diagonal,
            },
            "odd_reachability": self.reachability.passed,
            "action_spaces_v_graded": {
                str(j + 1): [[str(x) for x in vec] for vec in space]
                for j, space in sorted(self.action_graded.spaces.items())
            },
            "action_spaces_ungraded": {
                str(j + 1): [[str(x) for x in vec] for vec in space]
                for j, space in sorted(self.action_ungraded.spaces.items())
            },
            "closure": None if self.closure is None else self.closure.passed,
            "faithful": self.faithful,
            "faithful_witness": (
                None
                if self.faithful_witness is None
                else {
                    "odd": list(self.faithful_witness[0]),
                    "even": list(self.faithful_witness[1]),
                    "v": self.faithful_witness[2],
                }
            ),
        }


def certify(ks: ExponentFile, bound: int | None = None) -> ToricCertificate:
    """Run all hypothesis checks and assemble the verdict.

    The verdict is "toric" when every hypothesis holds and the derivations
    close over the v-graded action solution; any failed hypothesis gives
    "hypotheses-not-met" (which does not assert the algebra is not toric).
    """
    removal = check_odd_removal(ks)
    laurent = check_even_laurent(ks)
    reach = check_odd_reachable(ks)
    action_graded = solve_action(ks, "v-graded", bound)
    action_ungraded = solve_action(ks, "ungraded", bound)
    reasons: list[str] = []
    if not removal.passed:
        reasons.append(
            f"odd removal fails for {len(removal.violations)} generator(s)"
        )
    if not laurent.passed:
        reasons.append(
            "even generators do not span the full lattice "
            f"(invariant factors {laurent.diagonal}, need "
            f"{laurent.rank_needed} ones)"
        )
    if not reach.passed:
        missing = [i + 1 for i, w in reach.witnesses.items() if w is None]
        reasons.append(f"odd coordinates {missing} are not reachable")
    closure = None
    if not reasons:
        closure = verify_derivation_closure(ks, action_graded)
        if not closure.passed:
            reasons.append(
                f"derivations escape the algebra in "
                f"{len(closure.violations)} case(s)"
            )
    faithful = removal.passed and laurent.passed and reach.passed
    witness = None
    if faithful:
        # the sum of the even generators: its (m, v) row is the column sum
        *even, v = map(sum, zip(*laurent.rows))
        witness = ((0,) * ks.q, tuple(even), v)
    verdict = "toric" if not reasons else "hypotheses-not-met"
    return ToricCertificate(
        verdict=verdict,
        reasons=reasons,
        removal=removal,
        laurent=laurent,
        reachability=reach,
        action_graded=action_graded,
        action_ungraded=action_ungraded,
        closure=closure,
        faithful=faithful,
        faithful_witness=witness,
    )
