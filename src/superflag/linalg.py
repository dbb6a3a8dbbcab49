"""Exact rational sparse linear algebra.

Incremental elimination in two forms, right-kernel computation, integer
Smith normal form, and a small exact Fourier-Motzkin solver.  The expressing
``SpanAccumulator`` keeps the inserted vectors and each reduced row's
expansion over them, so it can write a vector of its span in terms of the
inserted ones; the rank-only ``RankAccumulator`` keeps one pivot row per
pivot and nothing else, for callers that need only the rank.  All arithmetic
is over ``fractions.Fraction``; there is no floating point anywhere, so rank
and membership decisions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Rat = Fraction

__all__ = [
    "Rat",
    "SparseVector",
    "Independent",
    "Dependent",
    "SpanAccumulator",
    "RankAccumulator",
    "nullspace",
    "smith_normal_form",
    "fourier_motzkin_solve",
    "fourier_motzkin_bounds",
]


class SparseVector:
    """A sparse vector over the rationals: index -> nonzero Fraction entry."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[int, Rat] | Iterable[tuple[int, Rat]] = ()):
        data = dict(entries.items()) if isinstance(entries, Mapping) else dict(entries)
        self.entries: dict[int, Rat] = {
            i: Rat(c) for i, c in data.items() if c != 0
        }

    @classmethod
    def unit(cls, index: int) -> "SparseVector":
        return cls({index: Rat(1)})

    @classmethod
    def from_dense(cls, values: Iterable[Rat | int]) -> "SparseVector":
        return cls({i: Rat(v) for i, v in enumerate(values) if v != 0})

    def is_zero(self) -> bool:
        return not self.entries

    def copy(self) -> "SparseVector":
        v = SparseVector.__new__(SparseVector)
        v.entries = dict(self.entries)
        return v

    def get(self, index: int) -> Rat:
        return self.entries.get(index, Rat(0))

    def scaled(self, c: Rat) -> "SparseVector":
        if c == 0:
            return SparseVector()
        v = SparseVector.__new__(SparseVector)
        v.entries = {i: c * x for i, x in self.entries.items()}
        return v

    def add_scaled(self, other: "SparseVector", c: Rat) -> "SparseVector":
        """Return self + c*other."""
        if c == 0:
            return self.copy()
        out = dict(self.entries)
        for i, x in other.entries.items():
            val = out.get(i, Rat(0)) + c * x
            if val == 0:
                out.pop(i, None)
            else:
                out[i] = val
        v = SparseVector.__new__(SparseVector)
        v.entries = out
        return v

    def dot(self, other: "SparseVector") -> Rat:
        a, b = self.entries, other.entries
        if len(b) < len(a):
            a, b = b, a
        return sum((c * b[i] for i, c in a.items() if i in b), Rat(0))

    def min_index(self) -> int:
        return min(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __hash__(self):  # pragma: no cover - vectors are not meant as dict keys
        return hash(frozenset(self.entries.items()))

    def __iter__(self) -> Iterator[tuple[int, Rat]]:
        return iter(sorted(self.entries.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {c}" for i, c in sorted(self.entries.items()))
        return f"SparseVector({{{inner}}})"


@dataclass(frozen=True)
class Independent:
    """Result of inserting a vector that enlarged the span."""


@dataclass(frozen=True)
class Dependent:
    """Result of inserting a dependent vector.

    ``coefficients[j]`` is the coefficient of the j-th *original* inserted
    independent vector in the unique expansion of the inserted vector.
    """

    coefficients: list[Rat]


@dataclass
class SpanAccumulator:
    """Incremental reduced-row-echelon span tracker.

    Maintains reduced rows with strictly increasing pivot indices, plus the
    original independent vectors (in insertion order) and, for each reduced
    row, its expansion over those originals, so that dependent insertions can
    report exact expansion coefficients by back-substitution.
    """

    pivots: list[tuple[int, SparseVector]] = field(default_factory=list)
    originals: list[SparseVector] = field(default_factory=list)
    _expansions: list[list[Rat]] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, v: SparseVector) -> tuple[SparseVector, list[Rat]]:
        """Reduce v against the current rows; return (residual, combo).

        combo gives the expansion of (v - residual) over the originals.
        """
        combo = [Rat(0)] * len(self.originals)
        w = v.copy()
        for (p, row), exp in zip(self.pivots, self._expansions):
            c = w.get(p)
            if c != 0:
                w = w.add_scaled(row, -c)
                for j, t in enumerate(exp):
                    combo[j] += c * t
        return w, combo

    def express(self, v: SparseVector) -> list[Rat] | None:
        """Expansion of v over the original inserted vectors, or None if v
        lies outside the current span.  Does not modify the accumulator."""
        w, combo = self._reduce(v)
        return None if not w.is_zero() else combo

    def insert(self, v: SparseVector) -> Independent | Dependent:
        """Insert v; returns Independent (span grew) or Dependent(coeffs)."""
        w, combo = self._reduce(v)
        if w.is_zero():
            return Dependent(combo)
        p = w.min_index()
        lead = w.get(p)
        row = w.scaled(1 / lead)
        # row = (v - sum combo_j * originals_j) / lead
        new_exp = [-c / lead for c in combo] + [Rat(1) / lead]
        for exp in self._expansions:
            exp.append(Rat(0))
        # back-eliminate the new pivot so rows stay fully reduced
        for idx, (q, r) in enumerate(self.pivots):
            c = r.get(p)
            if c != 0:
                self.pivots[idx] = (q, r.add_scaled(row, -c))
                self._expansions[idx] = [
                    a - c * b for a, b in zip(self._expansions[idx], new_exp)
                ]
        self.originals.append(v.copy())
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos][0] < p:
            pos += 1
        self.pivots.insert(pos, (p, row))
        self._expansions.insert(pos, new_exp)
        return Independent()


@dataclass
class RankAccumulator:
    """Incremental rank tracker without expansions.

    ``rows[p]`` is the pivot row whose smallest index is p, scaled so that
    its entry at p is 1.  An inserted vector is reduced only against the
    rows whose pivots it meets, smallest index first; no originals are kept
    and rows are never back-eliminated.
    """

    rows: dict[int, dict[int, Rat]] = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, v: SparseVector) -> bool:
        """Insert v; True when the span grew."""
        w = dict(v.entries)
        while w:
            p = min(w)
            c = w[p]
            row = self.rows.get(p)
            if row is None:
                self.rows[p] = {i: x / c for i, x in w.items()}
                return True
            for i, x in row.items():
                val = w.get(i, 0) - c * x
                if val:
                    w[i] = val
                else:
                    del w[i]
        return False


def nullspace(rows: list[SparseVector], dim: int) -> list[SparseVector]:
    """Basis of the right kernel of the matrix with the given rows.

    Each row is a functional on Q^dim; returns vectors v with row.dot(v) = 0
    for every row.  Empty list iff the kernel is trivial.
    """
    # Gaussian elimination to reduced echelon form.
    reduced: list[tuple[int, SparseVector]] = []
    for r in rows:
        w = r.copy()
        for p, row in reduced:
            c = w.get(p)
            if c != 0:
                w = w.add_scaled(row, -c)
        if w.is_zero():
            continue
        p = w.min_index()
        w = w.scaled(1 / w.get(p))
        for i, (q, row) in enumerate(reduced):
            c = row.get(p)
            if c != 0:
                reduced[i] = (q, row.add_scaled(w, -c))
        reduced.append((p, w))
    reduced.sort(key=lambda t: t[0])
    pivot_cols = {p for p, _ in reduced}
    basis: list[SparseVector] = []
    for free in range(dim):
        if free in pivot_cols:
            continue
        v = {free: Rat(1)}
        for p, row in reduced:
            c = row.get(free)
            if c != 0:
                v[p] = -c
        basis.append(SparseVector(v))
    return basis


def smith_normal_form(
    matrix: list[list[int]],
) -> tuple[list[list[int]], list[int]]:
    """Smith normal form of an integer matrix.

    Returns (S, diag) where S is the Smith normal form and diag lists the
    nonzero invariant factors d1 | d2 | ... (all positive).  The row lattice
    of the input is all of Z^cols iff len(diag) == cols and every factor is 1.
    """
    if not matrix or not matrix[0]:
        raise ValueError("smith_normal_form requires a nonempty matrix")
    m = [list(map(int, row)) for row in matrix]
    rows, cols = len(m), len(m[0])
    if any(len(r) != cols for r in m):
        raise ValueError("ragged matrix")

    def find_pivot(t: int) -> tuple[int, int] | None:
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best[0]):
                    best = (abs(m[i][j]), i, j)
        return None if best is None else (best[1], best[2])

    t = 0
    while t < min(rows, cols):
        loc = find_pivot(t)
        if loc is None:
            break
        i, j = loc
        m[t], m[i] = m[i], m[t]
        for r in m:
            r[t], r[j] = r[j], r[t]
        # clear row/column t by repeated remainder reduction
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    for j in range(cols):
                        m[i][j] -= q * m[t][j]
                    if m[i][t] != 0:  # smaller remainder becomes the pivot
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    for i in range(rows):
                        m[i][j] -= q * m[i][t]
                    if m[t][j] != 0:
                        for i in range(rows):
                            m[i][t], m[i][j] = m[i][j], m[i][t]
                        dirty = True
        # enforce divisibility d_t | m[i][j] for the remaining block
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    for jj in range(cols):
                        m[t][jj] += m[i][jj]
                    dirty = True
                    break
            else:
                continue
            break
        if dirty:
            continue  # redo the clearing with the new row t
        if m[t][t] < 0:
            for j in range(cols):
                m[t][j] = -m[t][j]
        t += 1
    diag = [m[k][k] for k in range(min(rows, cols)) if m[k][k] != 0]
    return m, diag


# ---------------------------------------------------------------------------
# Exact Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

_Ineq = tuple[tuple[Rat, ...], Rat]  # coeffs . x <= rhs


def _eliminate(ineqs: list[_Ineq], j: int) -> list[_Ineq]:
    pos, neg, zero = [], [], []
    for coeffs, rhs in ineqs:
        c = coeffs[j]
        if c > 0:
            pos.append((coeffs, rhs))
        elif c < 0:
            neg.append((coeffs, rhs))
        else:
            zero.append((coeffs, rhs))
    out = list(zero)
    for pc, pb in pos:
        for nc, nb in neg:
            a, b = pc[j], -nc[j]
            coeffs = tuple(b * x + a * y for x, y in zip(pc, nc))
            out.append((coeffs, b * pb + a * nb))
    # drop the eliminated coordinate entirely (it is zero in every row)
    return [
        (tuple(c for k, c in enumerate(coeffs) if k != j), rhs)
        for coeffs, rhs in out
    ]


def fourier_motzkin_solve(
    ineqs: list[tuple[list[Rat], Rat]], nvars: int
) -> list[Rat] | None:
    """Exact rational solution of the system coeffs . x <= rhs, or None.

    Eliminates variables from the last to the first, then back-substitutes,
    choosing each coordinate inside its admissible interval (midpoint when
    bounded on both sides, otherwise the finite bound or 0).
    """
    systems: list[list[_Ineq]] = [
        [(tuple(Rat(c) for c in coeffs), Rat(rhs)) for coeffs, rhs in ineqs]
    ]
    for j in range(nvars - 1, 0, -1):
        systems.append(_eliminate(systems[-1], j))
    # systems[k] has nvars-k variables; systems[-1] has exactly one.
    final = systems[-1]
    for coeffs, rhs in final:
        if all(c == 0 for c in coeffs) and rhs < 0:
            return None
    values: list[Rat] = []
    for back in range(nvars):
        j = back  # variable index within the current system
        system = systems[nvars - 1 - back]
        # variables 0..back are live in this system; 0..back-1 already chosen
        lo: Rat | None = None
        hi: Rat | None = None
        feasible = True
        for coeffs, rhs in system:
            c = coeffs[back]
            rest = sum(
                (coeffs[k] * values[k] for k in range(back)), Rat(0)
            )
            if c == 0:
                if rest > rhs:
                    feasible = False
                    break
                continue
            bound = (rhs - rest) / c
            if c > 0:
                hi = bound if hi is None or bound < hi else hi
            else:
                lo = bound if lo is None or bound > lo else lo
        if not feasible or (lo is not None and hi is not None and lo > hi):
            return None
        if lo is not None and hi is not None:
            values.append((lo + hi) / 2)
        elif lo is not None:
            values.append(lo)
        elif hi is not None:
            values.append(min(hi, Rat(0)))
        else:
            values.append(Rat(0))
    return values


def fourier_motzkin_bounds(
    ineqs: list[tuple[list[Rat], Rat]], nvars: int, var: int
) -> tuple[Rat | None, Rat | None]:
    """Exact (min, max) of x_var over {x : coeffs . x <= rhs}.

    Returns None in a slot when that side is unbounded.  Assumes the system
    is feasible.
    """
    system: list[_Ineq] = [
        (tuple(Rat(c) for c in coeffs), Rat(rhs)) for coeffs, rhs in ineqs
    ]
    live = list(range(nvars))
    for j in range(nvars - 1, -1, -1):
        if j == var:
            continue
        pos = live.index(j)
        system = _eliminate(system, pos)
        live.pop(pos)
    lo: Rat | None = None
    hi: Rat | None = None
    for coeffs, rhs in system:
        c = coeffs[0]
        if c > 0:
            b = rhs / c
            hi = b if hi is None or b < hi else hi
        elif c < 0:
            b = rhs / c
            lo = b if lo is None or b > lo else lo
    return lo, hi
