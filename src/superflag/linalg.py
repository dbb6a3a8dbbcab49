"""Exact rational sparse linear algebra.

A vector is a ``Row``: a plain dict from index to nonzero exact scalar,
never holding a zero.  One reduction loop, ``_reduce``, serves every
elimination: the expressing ``SpanAccumulator``, the rank-only
``RankAccumulator`` and ``nullspace``.
Pivot rows are keyed by their smallest index and scaled to 1 there; a vector
is reduced only against the rows whose pivots it meets, smallest index
first, and rows are never back-eliminated.  Beside them sit integer Smith
normal form and a small exact Fourier-Motzkin solver.

Scalars are exact rationals in one representation: a Python ``int`` when the
value is integral and a ``fractions.Fraction`` otherwise.  ``Rat`` builds
them and ``div`` is the one exact quotient, so almost every value stays a
cheap ``int``; mixed ``int``/``Fraction`` arithmetic is still exact.  There
is no floating point anywhere, so rank and membership decisions are exact.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "ProgramFault",
    "Rat",
    "div",
    "Row",
    "add_scaled",
    "Independent",
    "SpanAccumulator",
    "RankAccumulator",
    "nullspace",
    "smith_normal_form",
    "fourier_motzkin_solve",
    "fourier_motzkin_bounds",
]


class ProgramFault(Exception):
    """An invariant of the computation failed: a bug, never an input error
    or a negative verdict."""


def Rat(value: int | Fraction | str, den: int = 1) -> int | Fraction:
    """The exact rational value/den: an ``int`` when it is integral, else a
    ``Fraction``.  ``value`` is an int, a Fraction or a decimal/fraction
    string such as ``"3/2"``; text with a zero denominator raises ValueError.
    In annotations ``Rat`` names ``int | Fraction``.
    """
    if den == 1:
        if type(value) is int:
            return value
        try:
            q = value if type(value) is Fraction else Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    else:
        q = Fraction(value, den)
    return q.numerator if q.denominator == 1 else q


def div(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """The exact quotient a / b: ``a // b`` when b divides a, else a Fraction.
    Raises ZeroDivisionError when b is zero."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


Row = dict[int, Rat]  # a sparse vector: index -> nonzero exact scalar


def add_scaled(u: Row, v: Row, c: Rat) -> Row:
    """The new vector u + c*v."""
    out = dict(u)
    if c:
        for i, x in v.items():
            val = out.get(i, 0) + c * x
            if val:
                out[i] = val
            else:
                del out[i]
    return out


class Independent:
    """Result of inserting a vector that enlarged the span."""

    __slots__ = ()


def _reduce(
    rows: dict[int, Row],
    w: Row,
    combos: dict[int, Row] | None = None,
    combo: Row | None = None,
) -> int | None:
    """Reduce ``w`` in place against the pivot rows it meets, smallest index
    first; return the pivot of the residual, or None when it is zero.

    ``rows[p]`` has smallest index p with entry 1 there.  With ``combos``,
    each subtracted ``c * rows[p]`` also adds ``c * combos[p]`` to ``combo``,
    so ``combo`` ends as the expansion of (original w - residual).
    """
    while w:
        p = min(w)
        row = rows.get(p)
        if row is None:
            return p
        c = w[p]
        for i, x in row.items():
            val = w.get(i, 0) - c * x
            if val:
                w[i] = val
            else:
                del w[i]
        if combos is not None:
            for j, t in combos[p].items():
                val = combo.get(j, 0) + c * t
                if val:
                    combo[j] = val
                else:
                    del combo[j]
    return None


class SpanAccumulator:
    """Incremental span tracker that expresses vectors of its span.

    ``rows[p]`` is the pivot row with smallest index p (entry 1 there) and
    ``combos[p]`` its sparse expansion over the independent inserted
    vectors, numbered in insertion order.  That expansion is unique, so
    ``express`` reports exact coefficients.
    """

    __slots__ = ("rows", "combos")

    def __init__(self):
        self.rows: dict[int, Row] = {}
        self.combos: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def express(self, v: Row) -> Row | None:
        """Sparse expansion {insertion index: coefficient} of v over the
        independent inserted vectors, or None if v lies outside the current
        span; v and the accumulator are unchanged."""
        combo: Row = {}
        if _reduce(self.rows, dict(v), self.combos, combo) is not None:
            return None
        return {j: Rat(t) for j, t in combo.items()}

    def insert(self, v: Row) -> Independent | None:
        """Insert a copy of v; Independent when the span grew, else None."""
        w = dict(v)
        combo: Row = {}
        p = _reduce(self.rows, w, self.combos, combo)
        if p is None:
            return None
        c = w[p]
        # row = (v - sum combo_j * independent_j) / c
        new = {j: div(-t, c) for j, t in combo.items()}
        new[self.rank] = div(1, c)
        self.combos[p] = new
        self.rows[p] = {i: div(x, c) for i, x in w.items()}
        return Independent()


class RankAccumulator:
    """Incremental rank tracker: the pivot rows of ``SpanAccumulator``
    without their expansions, for callers that need only the rank."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, v: Row) -> bool:
        """Insert a copy of v; True when the span grew."""
        w = dict(v)
        p = _reduce(self.rows, w)
        if p is None:
            return False
        c = w[p]
        self.rows[p] = {i: div(x, c) for i, x in w.items()}
        return True


def nullspace(rows: list[Row], dim: int) -> list[Row]:
    """Basis of the right kernel of the matrix with the given rows.

    Each row is a functional on Q^dim; returns vectors v with <row, v> = 0
    for every row.  The vector for free column f is 1 at f and 0 at every
    other free column (the reduced-echelon basis, as sympy's
    ``Matrix.nullspace`` gives it), found by back-substitution over the
    pivots in descending order.  Empty list iff the kernel is trivial.
    """
    acc = RankAccumulator()
    for r in rows:
        acc.insert(r)
    pivots = sorted(acc.rows, reverse=True)
    basis: list[Row] = []
    for free in range(dim):
        if free in acc.rows:
            continue
        v = {free: 1}
        for p in pivots:
            c = sum(x * v[i] for i, x in acc.rows[p].items() if i in v)
            if c:
                v[p] = -c
        basis.append({i: Rat(x) for i, x in v.items()})
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

    Chooses the coordinates first to last, each inside the exact interval
    ``fourier_motzkin_bounds`` reads for it once the earlier ones are
    substituted: the midpoint when both ends are finite, else the finite
    lower end, else min(hi, 0), else 0.  Elimination projects exactly, so
    only the first interval can be empty.
    """
    system = [([Rat(c) for c in coeffs], Rat(rhs)) for coeffs, rhs in ineqs]
    if nvars == 0:  # every row reads 0 <= rhs
        return None if any(rhs < 0 for _, rhs in system) else []
    values: list[Rat] = []
    for remaining in range(nvars, 0, -1):
        bounds = fourier_motzkin_bounds(system, remaining, 0)
        if bounds is None:
            return None
        lo, hi = bounds
        if lo is not None and hi is not None:
            x = div(lo + hi, 2)
        elif lo is not None:
            x = lo
        else:
            x = 0 if hi is None else min(hi, 0)
        values.append(x)
        system = [(coeffs[1:], rhs - coeffs[0] * x) for coeffs, rhs in system]
    return values


def fourier_motzkin_bounds(
    ineqs: list[tuple[list[Rat], Rat]], nvars: int, var: int
) -> tuple[Rat | None, Rat | None] | None:
    """Exact (min, max) of x_var over {x : coeffs . x <= rhs}, with None in
    a slot when that side is unbounded; None when the system has no point.
    Elimination keeps (in)feasibility, so emptiness shows in the one-variable
    system left: a row 0 <= rhs < 0, or min > max.
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
            b = div(rhs, c)
            hi = b if hi is None or b < hi else hi
        elif c < 0:
            b = div(rhs, c)
            lo = b if lo is None or b > lo else lo
        elif rhs < 0:
            return None
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi
