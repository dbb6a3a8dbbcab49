"""Free supercommutative polynomial algebra over the rationals.

Monomials are indexed by a MultiExponent: a {0,1}-vector I over the
anticommuting generators xi_1..xi_q together with a natural-number vector m
over the commuting generators x_1..x_n.  The canonical monomial form is the
descending product xi_q^{I_q} ... xi_1^{I_1} * x^m, and all products are
sign-normalized to that form, with signs governed by the inversion count
``koszul_count``.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import NamedTuple

from .linalg import Rat

__all__ = [
    "MultiExponent",
    "MonomialOrder",
    "OrderMisfit",
    "ExponentFile",
    "SuperPolynomial",
    "koszul_count",
    "multiply",
    "enumerate_monomials",
    "monomials_of_degree",
]


class MultiExponent(NamedTuple):
    """Exponent pair (I, m): odd bits I in {0,1}^q, even exponents m in N^n.

    Not validated here: outside data enters through ``ExponentFile.parse``,
    and the program only builds exponents in range.
    """

    odd: tuple[int, ...]
    even: tuple[int, ...]

    @classmethod
    def zero(cls, n: int, q: int) -> "MultiExponent":
        return cls((0,) * q, (0,) * n)

    @property
    def q(self) -> int:
        return len(self.odd)

    @property
    def degree(self) -> int:
        return sum(self.odd) + sum(self.even)

    @property
    def parity(self) -> int:
        return sum(self.odd) % 2

    def combine(self, other: "MultiExponent") -> "MultiExponent | None":
        """Componentwise sum, or None when an odd coordinate would exceed 1."""
        if any(a and b for a, b in zip(self.odd, other.odd)):
            return None
        return MultiExponent(
            tuple(a + b for a, b in zip(self.odd, other.odd)),
            tuple(a + b for a, b in zip(self.even, other.even)),
        )

    def splittings(self) -> Iterator[tuple["MultiExponent", "MultiExponent"]]:
        """All ordered pairs (a, b) with a.combine(b) == self."""
        odd_parts = itertools.product(*[range(b + 1) for b in self.odd])
        even_parts = itertools.product(*[range(e + 1) for e in self.even])
        even_list = list(even_parts)
        for op in odd_parts:
            oc = tuple(b - a for a, b in zip(op, self.odd))
            for ep in even_list:
                ec = tuple(e - a for a, e in zip(ep, self.even))
                yield (MultiExponent(op, ep), MultiExponent(oc, ec))

    def as_vector(self) -> tuple[int, ...]:
        """Flat exponent vector, even block first then odd block."""
        return self.even + self.odd

    def __str__(self) -> str:
        bits = "".join(str(b) for b in self.odd)
        return f"I={bits or '-'} m=({','.join(str(e) for e in self.even)})"


def koszul_count(first: Iterable[int], second: Iterable[int]) -> int:
    """Inversion count K between two odd bit-vectors of equal length.

    K = sum over index pairs j < i of first[j] * second[i]; (-1)^K is the
    sign produced when the product of the two canonical descending odd
    monomials is reordered into a single canonical descending monomial.
    """
    count = running = 0  # running = sum of first[j] for j < i
    for a, b in zip(first, second):
        if b:
            count += running
        running += a
    return count


# ---------------------------------------------------------------------------
# Monomial orders
# ---------------------------------------------------------------------------


class OrderMisfit(ValueError):
    """Raised when an order does not fit its variables or its scan;
    ``setting`` names the field at fault, "weights" or "priority"."""

    def __init__(self, setting: str, message: str):
        super().__init__(message)
        self.setting = setting


class MonomialOrder:
    """A monomial order on N^{n+q} restricted to {0,1}^q x N^n.

    kind: "graded-lex", "graded-revlex", or "weighted".  The flat variable
    vector is (even block, then odd block); ``priority`` permutes it before
    the lex/revlex tie-break (priority[0] is the most significant variable).
    Weighted orders rank by the weight functional (on the unpermuted flat
    vector) first and break ties with graded-lex; essential-monomial scans
    run by ascending weighted value and so require positive integer weights.
    Orders are values: equal fields compare and hash equal.
    """

    __slots__ = ("kind", "weights", "priority")

    def __init__(
        self,
        kind: str = "graded-lex",
        weights: Sequence[int] | None = None,
        priority: Sequence[int] | None = None,
    ):
        if kind not in ("graded-lex", "graded-revlex", "weighted"):
            raise ValueError(f"unknown order kind: {kind}")
        if kind == "weighted" and weights is None:
            raise ValueError("weighted order needs a weight vector")
        if kind != "weighted" and weights is not None:
            raise ValueError(f"{kind} order takes no weight vector")
        self.kind = kind
        # tuples keep the order hashable (layers are memoized per order)
        self.weights = None if weights is None else tuple(weights)
        self.priority = None if priority is None else tuple(priority)

    def _as_tuple(self) -> tuple:
        return (self.kind, self.weights, self.priority)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialOrder)
            and self._as_tuple() == other._as_tuple()
        )

    def __hash__(self) -> int:
        return hash(self._as_tuple())

    def __repr__(self) -> str:
        return (
            f"MonomialOrder(kind={self.kind!r}, weights={self.weights!r}, "
            f"priority={self.priority!r})"
        )

    def check(self, nvars: int) -> None:
        """Raise OrderMisfit unless the order fits ``nvars`` variables: one
        weight per variable, and a priority that permutes them.  ``key``
        trusts both, so a scan checks its order once."""
        if self.kind == "weighted" and len(self.weights) != nvars:
            raise OrderMisfit("weights", "weighted order needs one weight per variable")
        perm = self.priority
        if perm is not None and (
            len(perm) != nvars or sorted(perm) != list(range(nvars))
        ):
            raise OrderMisfit(
                "priority", f"order priority must be a permutation of 0..{nvars - 1}, "
                f"got {' '.join(str(p) for p in perm)}"
            )

    def key(self, e: MultiExponent) -> tuple:
        """Sort key: ``a`` precedes ``b`` in the order iff key(a) < key(b)."""
        v = flat = e.as_vector()
        if self.priority is not None:
            v = tuple(flat[i] for i in self.priority)
        deg = e.degree
        if self.kind == "graded-revlex":
            return (deg, tuple(-x for x in reversed(v)))
        if self.kind == "weighted":
            return (sum(w * x for w, x in zip(self.weights, flat)), deg, v)
        return (deg, v)

    def describe(self) -> str:
        parts = [self.kind]
        if self.weights is not None:
            parts.append("w=" + ",".join(str(w) for w in self.weights))
        if self.priority is not None:
            parts.append("perm=" + ",".join(str(p) for p in self.priority))
        return " ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "MonomialOrder":
        """Inverse of ``describe``: ``kind [w=a,b,..] [perm=i,j,..]``."""
        kind, *rest = text.split() or [""]
        fields = {}
        for part in rest:
            key, sep, value = part.partition("=")
            if not sep or key not in ("w", "perm") or key in fields:
                raise ValueError(f"malformed monomial order: {text!r}")
            fields[key] = tuple(int(x) for x in value.split(",")) if value else ()
        return cls(kind, weights=fields.get("w"), priority=fields.get("perm"))


# ---------------------------------------------------------------------------
# Exponent files
# ---------------------------------------------------------------------------


def _key_values(tokens: list[str]) -> dict[str, str]:
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"field {tok!r} is not key=value")
    return dict(tok.split("=", 1) for tok in tokens)


class ExponentFile(NamedTuple):
    """An exponent-line file (essential sets, toric input): ``# ambient
    n=.. q=..``, optional ``# labels ..`` and ``# order ..`` headers, then
    one ``I=.. m=(..) k=..`` line per (exponent, k) in ``points``."""

    n: int
    q: int
    points: list[tuple[MultiExponent, int]]
    labels: dict[str, str]
    order: MonomialOrder | None = None

    def __str__(self) -> str:
        lines = [f"# ambient n={self.n} q={self.q}"]
        if self.labels:
            pairs = " ".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
            lines.append(f"# labels {pairs}")
        if self.order is not None:
            lines.append(f"# order {self.order.describe()}")
        lines += [f"{exp} k={k}" for exp, k in self.points]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ExponentFile":
        """Inverse of ``__str__``, ignoring other comment lines.  The one
        check of outside exponent data: a malformed field, header or order,
        a missing I, m or k, a non-integer, an odd bit other than 0 or 1, a
        negative even exponent, k < 1, and lengths that disagree with the
        ambient header (or the first point) raise ValueError ending with the
        offending line."""
        n = q = order = order_line = None
        labels: dict[str, str] = {}
        points: list[tuple[MultiExponent, int]] = []
        for line in filter(None, map(str.strip, text.splitlines())):
            try:
                if line.startswith("#"):
                    word, *rest = line[1:].split() or [""]
                    if word == "ambient":
                        parts = _key_values(rest)
                        if "n" not in parts or "q" not in parts:
                            raise ValueError("ambient header needs n= and q=")
                        if points:
                            raise ValueError("ambient header must precede the points")
                        n, q = int(parts["n"]), int(parts["q"])
                        if n < 0 or q < 0:
                            raise ValueError("ambient n and q must be >= 0")
                    elif word == "labels":
                        labels = _key_values(rest)
                    elif word == "order":
                        order, order_line = MonomialOrder.parse(" ".join(rest)), line
                    continue
                fields = _key_values(line.split())
                missing = [f"{key}=" for key in ("I", "m", "k") if key not in fields]
                if missing:
                    raise ValueError(f"generator line lacks {' '.join(missing)}")
                bits, evens = fields["I"], fields["m"].strip("()")
                odd = tuple(int(c) for c in bits) if bits != "-" else ()
                even = tuple(int(x) for x in evens.split(",")) if evens else ()
                k = int(fields["k"])
                if k < 1:
                    raise ValueError(f"v-degree must be at least 1, got k={k}")
                if any(b not in (0, 1) for b in odd):
                    raise ValueError(f"odd exponents must be 0 or 1: {odd}")
                if any(e < 0 for e in even):
                    raise ValueError(f"even exponents must be >= 0: {even}")
                if n is None:
                    n, q = len(even), len(odd)
                if (len(odd), len(even)) != (q, n):
                    raise ValueError(
                        f"point has {len(odd)} odd and {len(even)} even "
                        f"coordinates, expected q={q} and n={n}"
                    )
                points.append((MultiExponent(odd, even), k))
            except ValueError as exc:
                raise ValueError(f"{exc}: {line}") from None
        if n is None:
            raise ValueError("empty exponent file without ambient header")
        if order is not None:
            try:
                order.check(n + q)
            except ValueError as exc:
                raise ValueError(f"{exc}: {order_line}") from None
        return cls(n=n, q=q, points=points, labels=labels, order=order)


def monomials_of_degree(
    order: MonomialOrder,
    degree: int,
    n: int,
    q: int,
    weights: Sequence[int] | None = None,
) -> list[MultiExponent]:
    """All exponents of total degree exactly ``degree``, ascending in order.

    With ``weights`` (positive, one per variable, even block first) the
    degree is weighted: the exponents of weighted value exactly ``degree``.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if weights is None:
        weights = (1,) * (n + q)
    return list(_monomials_of_degree(order, degree, n, q, tuple(weights)))


@functools.lru_cache(maxsize=1024)
def _monomials_of_degree(
    order: MonomialOrder, degree: int, n: int, q: int, weights: tuple[int, ...]
) -> tuple[MultiExponent, ...]:
    """Memoized ``monomials_of_degree``: scans and Hilbert checks ask for the
    same layers again and again."""
    even_w, odd_w = weights[:n], weights[n:]
    out = [
        MultiExponent(bits, m)
        for bits in itertools.product((0, 1), repeat=q)
        for m in _compositions(
            even_w, degree - sum(w * b for w, b in zip(odd_w, bits))
        )
    ]
    out.sort(key=order.key)
    return tuple(out)


def enumerate_monomials(
    order: MonomialOrder, degree_bound: int, n: int, q: int
) -> list[MultiExponent]:
    """All exponents with total degree <= degree_bound, ascending in order."""
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    out = [
        e
        for d in range(degree_bound + 1)
        for e in monomials_of_degree(order, d, n, q)
    ]
    # graded orders keep the layers in place; weighted orders interleave them
    out.sort(key=order.key)
    return out


def _compositions(
    weights: Sequence[int], total: int
) -> Iterator[tuple[int, ...]]:
    """All vectors x in N^len(weights) with sum(w * x) == ``total``."""
    if not weights:
        if total == 0:
            yield ()
        return
    w = weights[0]
    for first in range(total // w + 1):
        for rest in _compositions(weights[1:], total - first * w):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class SuperPolynomial:
    """Sparse rational polynomial in n commuting and q anticommuting variables.

    Terms map MultiExponent -> nonzero exact scalar; monomials are stored in the
    canonical descending-odd form, so the term map determines the element.
    Instances are treated as immutable.
    """

    __slots__ = ("n", "q", "terms")

    def __init__(
        self,
        n: int,
        q: int,
        terms: Mapping[MultiExponent, Rat] | Iterable[tuple[MultiExponent, Rat]] = (),
    ):
        self.n = n
        self.q = q
        data = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[MultiExponent, Rat] = {}
        for e, c in data:
            acc[e] = acc.get(e, 0) + Rat(c)
        self.terms: dict[MultiExponent, Rat] = {e: c for e, c in acc.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, q: int) -> "SuperPolynomial":
        return cls(n, q)

    @classmethod
    def monomial(
        cls, n: int, q: int, exp: MultiExponent, coeff: Rat | int = 1
    ) -> "SuperPolynomial":
        return cls(n, q, {exp: Rat(coeff)})

    @classmethod
    def variable(cls, n: int, q: int, index: int, odd: bool) -> "SuperPolynomial":
        """The generator x_{index+1} (odd=False) or xi_{index+1} (odd=True)."""
        if odd:
            bits = tuple(1 if i == index else 0 for i in range(q))
            return cls.monomial(n, q, MultiExponent(bits, (0,) * n))
        ev = tuple(1 if i == index else 0 for i in range(n))
        return cls.monomial(n, q, MultiExponent((0,) * q, ev))

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "SuperPolynomial") -> None:
        if self.n != other.n or self.q != other.q:
            raise ValueError("mismatched ambient dimensions")

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        self._check(other)
        terms = itertools.chain(self.terms.items(), other.terms.items())
        return SuperPolynomial(self.n, self.q, terms)

    def __neg__(self) -> "SuperPolynomial":
        return SuperPolynomial(
            self.n, self.q, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self + (-other)

    def scaled(self, c: Rat | int) -> "SuperPolynomial":
        c = Rat(c)
        return SuperPolynomial(
            self.n, self.q, {e: c * x for e, x in self.terms.items()}
        )

    def __mul__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return multiply(self, other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SuperPolynomial)
            and self.n == other.n
            and self.q == other.q
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.q, frozenset(self.terms.items())))

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        """Render terms joined by ' + '/' - ', e.g. ``3/2*x1^2*xi2*xi1``."""
        if not self.terms:
            return "0"
        order = MonomialOrder("graded-lex")
        exps = sorted(self.terms, key=order.key, reverse=True)
        pieces: list[str] = []
        for idx, e in enumerate(exps):
            c = self.terms[e]
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            factors: list[str] = []
            if mag != 1 or (not any(e.odd) and not any(e.even)):
                factors.append(str(mag))
            for i in range(e.q - 1, -1, -1):  # canonical descending odd part
                if e.odd[i]:
                    factors.append(f"xi{i + 1}")
            for i, m in enumerate(e.even):
                if m == 1:
                    factors.append(f"x{i + 1}")
                elif m > 1:
                    factors.append(f"x{i + 1}^{m}")
            body = "*".join(factors)
            if idx == 0:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    @classmethod
    def parse(cls, text: str, n: int, q: int) -> "SuperPolynomial":
        """Parse the to_text format; arbitrary odd-factor orders are accepted
        and normalized to the canonical form with the appropriate sign."""
        text = text.strip()
        if text in ("0", ""):
            return cls.zero(n, q)
        token = re.compile(r"([+-])|([^+\-\s]+)")
        result = cls.zero(n, q)
        sign = 1
        pending: str | None = None
        for m in token.finditer(text):
            if m.group(1):
                if pending is not None:
                    result = result + cls._parse_term(pending, sign, n, q)
                    pending = None
                sign = 1 if m.group(1) == "+" else -1
            else:
                if pending is not None:
                    raise ValueError(f"malformed polynomial text: {text!r}")
                pending = m.group(2)
        if pending is not None:
            result = result + cls._parse_term(pending, sign, n, q)
        return result

    @classmethod
    def _parse_term(cls, term: str, sign: int, n: int, q: int) -> "SuperPolynomial":
        poly = cls.monomial(
            n, q, MultiExponent.zero(n, q), Rat(sign)
        )
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if factor[0].isdigit():
                poly = poly.scaled(Rat(factor))
                continue
            name, caret, power = factor.partition("^")
            if caret and not power.isdecimal():
                raise ValueError(
                    f"power is not a non-negative integer in term {term!r}"
                )
            exp = int(power) if caret else 1
            if name.startswith("xi") and name[2:].isdigit():
                i = int(name[2:]) - 1
                if not 0 <= i < q:
                    raise ValueError(f"unknown odd variable {name!r}")
                gen = cls.variable(n, q, i, odd=True)
                for _ in range(exp):
                    poly = multiply(poly, gen)
            elif name.startswith("x") and name[1:].isdigit():
                i = int(name[1:]) - 1
                if not 0 <= i < n:
                    raise ValueError(f"unknown even variable {name!r}")
                gen = cls.variable(n, q, i, odd=False)
                for _ in range(exp):
                    poly = multiply(poly, gen)
            else:
                raise ValueError(f"unknown variable {name!r}")
        return poly

    def __repr__(self) -> str:
        return f"SuperPolynomial({self.to_text()})"


def multiply(p: SuperPolynomial, r: SuperPolynomial) -> SuperPolynomial:
    """Product with Koszul signs; odd squares vanish.

    For monomials with disjoint odd supports I and J, xi^I * xi^J equals
    (-1)^{koszul_count(I, J)} xi^{I+J} in canonical descending form.
    """
    p._check(r)
    out: list[tuple[MultiExponent, Rat]] = []
    for e1, c1 in p.terms.items():
        for e2, c2 in r.terms.items():
            combined = e1.combine(e2)
            if combined is not None:
                k = koszul_count(e1.odd, e2.odd)
                out.append((combined, -c1 * c2 if k % 2 else c1 * c2))
    return SuperPolynomial(p.n, p.q, out)
