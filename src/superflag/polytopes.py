"""Lattice points of labeled inequality systems and dilation/comparison.

Systems are given by labeled variables (some marked odd), explicit rows
``a1 a2 ... <= b``, and the implicit constraints x >= 0 for every variable
and x <= 1 for every odd variable.  Enumeration requires a bounded region
(verified exactly); comparison against essential-exponent data is performed
on label -> multiplicity dictionaries so that differently ordered variable
conventions can be compared.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .linalg import Rat, fourier_motzkin_bounds

__all__ = [
    "InequalitySystem",
    "parse_system",
    "serialize_system",
    "LatticePointSet",
    "enumerate_lattice_points",
    "dilate",
    "ComparisonReport",
    "compare_point_sets",
    "UnboundedRegionError",
]


class UnboundedRegionError(ValueError):
    """The described region is unbounded; enumeration is impossible."""


class InequalitySystem(NamedTuple):
    labels: list[str]
    odd: list[bool]
    rows: list[tuple[tuple[Rat, ...], Rat]]

    @property
    def nvars(self) -> int:
        return len(self.labels)

    def all_inequalities(self) -> list[tuple[list[Rat], Rat]]:
        """Explicit rows plus implicit nonnegativity and odd caps."""
        out: list[tuple[list[Rat], Rat]] = [
            (list(coeffs), rhs) for coeffs, rhs in self.rows
        ]
        for i in range(self.nvars):
            row = [0] * self.nvars
            row[i] = -1
            out.append((row, 0))
            if self.odd[i]:
                cap = [0] * self.nvars
                cap[i] = 1
                out.append((cap, 1))
        return out


def parse_system(text: str) -> InequalitySystem:
    """Read one ``vars`` header, at most one ``odd`` header and rows
    ``a1 ... an <= b``; a ValueError ends with the offending line."""
    labels: list[str] | None = None
    odd_names: set[str] = set()
    odd_line = None
    rows: list[tuple[tuple[Rat, ...], Rat]] = []
    for line in map(str.strip, text.splitlines()):
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("vars"):
                if labels is not None:
                    raise ValueError("repeated vars header")
                labels = line.split()[1:]
                if len(set(labels)) != len(labels):
                    raise ValueError("repeated variable name")
            elif line.startswith("odd"):
                if odd_line is not None:
                    raise ValueError("repeated odd header")
                odd_names, odd_line = set(line.split()[1:]), line
            else:
                lhs, sep, rhs = line.partition("<=")
                if not sep or "<=" in rhs:
                    raise ValueError("malformed inequality row")
                coeffs = tuple(Rat(tok) for tok in lhs.split())
                if labels is None:
                    raise ValueError("the vars header must precede inequality rows")
                if len(coeffs) != len(labels):
                    raise ValueError(f"row has {len(coeffs)} coefficients "
                                     f"for {len(labels)} variables")
                rows.append((coeffs, Rat(rhs.strip())))
        except ValueError as exc:
            raise ValueError(f"{exc}: {line}") from None
    labels = labels or []
    unknown = sorted(odd_names - set(labels))
    if unknown:
        raise ValueError(f"odd names {unknown} not among variables: {odd_line}")
    return InequalitySystem(
        labels=labels,
        odd=[name in odd_names for name in labels],
        rows=rows,
    )


def serialize_system(system: InequalitySystem) -> str:
    lines = ["vars " + " ".join(system.labels)]
    odd_names = [l for l, o in zip(system.labels, system.odd) if o]
    if odd_names:
        lines.append("odd " + " ".join(odd_names))
    for coeffs, rhs in system.rows:
        lines.append(" ".join(str(c) for c in coeffs) + f" <= {rhs}")
    return "\n".join(lines) + "\n"


class LatticePointSet(NamedTuple):
    labels: list[str]
    odd: list[bool]
    points: list[tuple[int, ...]]

    @property
    def size(self) -> int:
        return len(self.points)

    def labeled(self) -> set[frozenset]:
        return {
            frozenset(
                (label, value)
                for label, value in zip(self.labels, point)
                if value
            )
            for point in self.points
        }


def enumerate_lattice_points(system: InequalitySystem) -> LatticePointSet:
    """All integer points of the region, exactly.

    Exact per-variable bounds come from Fourier-Motzkin projection; an
    empty region has no points, and an unbounded direction of a nonempty
    one raises UnboundedRegionError.  Candidate boxes are filtered against
    every inequality.
    """
    nvars = system.nvars
    ineqs = system.all_inequalities()
    boxes: list[range] = []
    for i in range(nvars):
        bounds = fourier_motzkin_bounds(ineqs, nvars, i)
        if bounds is None:  # an empty region
            return LatticePointSet(list(system.labels), list(system.odd), [])
        lo, hi = bounds
        if lo is None or hi is None:
            raise UnboundedRegionError(
                f"variable {system.labels[i]} is unbounded on the region"
            )
        boxes.append(range(math.ceil(lo), math.floor(hi) + 1))
    rows = system.rows
    points: list[tuple[int, ...]] = []
    for candidate in itertools.product(*boxes):
        ok = True
        for coeffs, rhs in rows:
            if sum(c * x for c, x in zip(coeffs, candidate)) > rhs:
                ok = False
                break
        if ok:
            points.append(candidate)
    return LatticePointSet(
        labels=list(system.labels), odd=list(system.odd), points=points
    )


def dilate(system: InequalitySystem, k: int) -> InequalitySystem:
    """Scale the explicit right-hand sides by k; the implicit nonnegativity
    and odd caps are normalization constraints and stay fixed."""
    if k < 1:
        raise ValueError("dilation factor must be a positive integer")
    return InequalitySystem(
        labels=list(system.labels),
        odd=list(system.odd),
        rows=[(coeffs, rhs * k) for coeffs, rhs in system.rows],
    )


class ComparisonReport(NamedTuple):
    matched: list[frozenset]
    first_only: list[frozenset]
    second_only: list[frozenset]

    @property
    def equal(self) -> bool:
        return not self.first_only and not self.second_only

    def counts(self) -> tuple[int, int, int]:
        return (len(self.matched), len(self.first_only), len(self.second_only))


def compare_point_sets(
    first: set[frozenset], second: set[frozenset]
) -> ComparisonReport:
    """Compare two labeled point sets (e.g. polytope points vs essential
    exponents rendered over the same labels)."""

    def key(fs: frozenset):
        return sorted(fs)

    return ComparisonReport(
        matched=sorted(first & second, key=key),
        first_only=sorted(first - second, key=key),
        second_only=sorted(second - first, key=key),
    )
