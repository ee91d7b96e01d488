"""Exact integer Laurent polynomials in one variable v.

Every basis coefficient in this package (Kazhdan-Lusztig polynomials,
base-change entries, structure coefficients, edge labels of cell graphs)
lives in Z[v, v^-1].  Polynomials are immutable; the canonical form never
stores a zero coefficient, so two polynomials are equal iff their
coefficient maps are equal.  Python integers are arbitrary precision, so
all arithmetic is exact.

>>> p = LaurentPoly({1: 1, -1: 1})
>>> p * p
LaurentPoly('v^-2 + 2 + v^2')
>>> p.bar() == p
True
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Union

Coeffs = Union[int, dict, Iterable[tuple[int, int]], None]


class LaurentPoly:
    """An element of Z[v, v^-1], stored sparsely as {exponent: coefficient}."""

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: Coeffs = None):
        """Build from an int (a constant), a dict {exponent: coefficient}
        or an iterable of (exponent, coefficient) pairs, summing repeated
        exponents.  Raises ValueError on a term whose exponent or
        coefficient is not of type int: 2.5, '2' and True are rejected,
        not truncated, parsed or read as 1."""
        if type(coeffs) is int:
            c = {0: coeffs} if coeffs else {}
        elif coeffs is None:
            c = {}
        else:
            if isinstance(coeffs, dict):
                terms = coeffs.items()
            elif isinstance(coeffs, Iterable) and not isinstance(coeffs, str):
                terms = coeffs
            else:
                terms = ((0, coeffs),)
            c = {}
            for term in terms:
                try:
                    e, v = term
                except (TypeError, ValueError):
                    raise ValueError(f"polynomial term {term!r} is not an "
                                     "[exponent, coefficient] pair") from None
                if type(e) is not int or type(v) is not int:
                    raise ValueError(f"polynomial term {[e, v]!r} is not an "
                                     "integer [exponent, coefficient] pair")
                if v:
                    c[e] = c.get(e, 0) + v
            c = {e: v for e, v in c.items() if v}
        self._c = c
        self._hash = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def v(cls, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        """The monomial coefficient * v^exponent."""
        return cls({exponent: coefficient})

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "LaurentPoly":
        """Build from [[exponent, coefficient], ...] (the JSON wire format).

        The constructor rejects a term that is not an int pair (a float or
        bool from JSON is rejected, not truncated); iter() keeps a bare int
        or a dict from being read as a constant or a coefficient map.
        """
        return cls(iter(pairs))

    def to_pairs(self) -> list[list[int]]:
        """Serialize as [[exponent, coefficient], ...] sorted by exponent."""
        return [[e, self._c[e]] for e in sorted(self._c)]

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._hash = None
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) - v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._hash = None
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -v for e, v in self._c.items()}
        out._hash = None
        return out

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        c: dict[int, int] = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._hash = None
        return out

    __rmul__ = __mul__

    def scale(self, n: int) -> "LaurentPoly":
        if n == 0:
            return ZERO
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: n * v for e, v in self._c.items()}
        out._hash = None
        return out

    # -- involution and predicates ------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The ring involution sending v to v^-1."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {-e: v for e, v in self._c.items()}
        out._hash = None
        return out

    def is_self_dual(self) -> bool:
        """True iff invariant under bar (symmetric in v <-> v^-1)."""
        return all(self._c.get(-e) == v for e, v in self._c.items())

    def is_nonnegative(self) -> bool:
        """True iff every coefficient is >= 0."""
        return all(v >= 0 for v in self._c.values())

    # -- comparisons and display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        # A constant polynomial equals its int, so it must hash like it.
        if self._hash is None:
            c = self._c
            if not c or c.keys() == {0}:
                self._hash = hash(c.get(0, 0))
            else:
                self._hash = hash(tuple(sorted(c.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._c)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        terms = []
        for e in sorted(self._c):
            v = self._c[e]
            if e == 0:
                terms.append(str(v))
                continue
            base = "v" if e == 1 else f"v^{e}"
            if v == 1:
                terms.append(base)
            elif v == -1:
                terms.append(f"-{base}")
            else:
                terms.append(f"{v}*{base}")
        out = " + ".join(terms)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly(1)
V = LaurentPoly.v(1)
V_INV = LaurentPoly.v(-1)
GAUSS = LaurentPoly({1: 1, -1: 1})  # v + v^-1, the quantum 2
