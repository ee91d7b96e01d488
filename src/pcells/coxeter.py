"""Finite crystallographic Coxeter groups.

A group is built from a generalized Cartan matrix (integer matrix with 2
on the diagonal, non-positive entries off it, and a(s,t) = 0 exactly when
a(t,s) = 0), given directly or through a type label.  The Cartan matrix
determines bond orders by the product rule:
m(s,t) = 2, 3, 4, 6 or inf according to whether a(s,t) * a(t,s) is 0, 1,
2, 3 or >= 4.

Elements are identified through the exact integer geometric representation,
in which generator s acts on the root lattice by
s(alpha_t) = alpha_t - a(s,t) alpha_s.  An element w is keyed by its height
vector h_w[t] = ht(w(alpha_t)), where ht sums the coefficients of a root in
the simple roots; the identity has h = (1, ..., 1).  Right multiplication
by s updates only the entries t with a(s,t) != 0, since
(ws)(alpha_t) = w(alpha_t) - a(s,t) w(alpha_s):

    h_ws[t] = h_w[t] - a(s,t) h_w[s].

Every root is positive or negative, and s is a right descent of w iff
w(alpha_s) is negative, i.e. iff h_w[s] < 0.  The key is faithful: h_w is
the linear form ht o w on the simple roots, so h_w = h_v gives
ht o (v w^-1) = ht; then every v w^-1 (alpha_t) has height 1 and is a
positive root, so v w^-1 has no right descent and v = w.  (Equivalently, by
Tits' theorem the group acts simply transitively on chambers, and ht lies
inside the fundamental chamber of the dual.)  Both facts rest on the
generalized-Cartan axioms, which is why cartan_to_coxeter enforces them.

Enumeration is breadth-first by length, so element ids are stable: id 0 is
the identity and ids increase with length.  All downstream tables
(Kazhdan-Lusztig polynomials, canonical basis tables, cell graphs) are keyed
by these dense ids.  The group is stored flat: right_by_gen[s] is one
array('I') per generator with right_by_gen[s][w] the id of w s, inverse is
an array('I'), length and last are bytes, and right_descents holds one
frozenset per distinct descent set, which left_descents shares.  An id is a
machine word in these tables; reading one makes an int object (above 256)
that lives only as long as its reader keeps it.  right[w], the tuple of
w s over s, is a view that reads the columns on each call: pcells reads the
columns, and the view stays for code written against the row layout.

words[w] is the first path to w found, so it is reduced.  The enumeration
records w when it first reaches it as u s from u < w, so words[w] =
words[u] + (s,), and it stores only that last letter: last[w] = s.
words[w] is rebuilt on each read by walking w -> w last[w] down to e.

The height index holds one layer.  A new w s has length l(w) + 1, so its
height vector can only equal one found from the same layer; the index is
built for the layer l(w) + 1 while the layer l(w) is read, and dropped once
that is done.  It keys h by the int sum of h[t] << (16 t), so that key(w s)
= key(w) - h_w[s] * delta[s] with delta[s] = sum of a(s,t) << (16 t), and
only a new element builds its height vector.  The key is faithful: every
entry is the height of a root, and a root's height is at most the number N =
l(w0) of positive roots in absolute value (the positive roots take every
height from 1 up to the highest root's).  N is below 256, as lengths are
stored in bytes, so the 16-bit digits never carry into each other.  (A
larger group fails at length 256, before any entry reaches 2^15: each letter
moves a root's height by at most 3.)  Each layer's rows of w s are gathered
per element while it is read and then appended to the columns in one step.

Inversion takes one step per element.  Let first[w] be the first letter of
words[w] and tail[w] the id of words[w] without it.  A contiguous subword
of a reduced word is reduced (a shorter expression for the subword would
shorten the whole word), so tail[w] has length l(w) - 1.  Both are recorded
when w is first reached as u s: words[w] = words[u] + (s,) starts with the
letter of words[u], so first[w] = first[u] (and first[w] = s when u = e),
and tail[w] = tail[u] s, read from the columns, which already hold
tail[u]'s layer.  With s = first[w], w = s tail[w], so w^-1 = tail[w]^-1 s
and inverse[w] = right_by_gen[s][inverse[tail[w]]]; tail[w] and its inverse
lie in the layer just stored.  first and tail live only with their layer.

Words at the API boundary are either tuples of 0-based generator indices or
"digit strings" such as "23212" meaning s2 s3 s2 s1 s2 under 1-based labels.
"""

from __future__ import annotations

import gc
from array import array
from collections.abc import Iterable, Sequence
from itertools import compress
from math import factorial, inf
from typing import NamedTuple

Word = tuple[int, ...]


class GroupTooLargeError(RuntimeError):
    """Raised for an infinite group, or when closure exceeds the configured
    element cap."""


def cartan_to_coxeter(cartan: Sequence[Sequence[int]]) -> list[list[int]]:
    """Bond orders from a generalized Cartan matrix (0 encodes infinity).

    Raises ValueError naming the first entry that breaks an axiom; an entry
    must be an int (not a bool), so 2.0, -1.7 or "-1" is rejected rather
    than truncated.
    """
    n = len(cartan)
    if any(len(row) != n for row in cartan):
        raise ValueError("Cartan matrix must be square")
    for i, row in enumerate(cartan):
        for j, a in enumerate(row):
            if isinstance(a, bool) or not isinstance(a, int):
                raise ValueError(
                    f"Cartan entry a({i + 1},{j + 1}) = {a!r} is not an "
                    "integer")
    m = [[1] * n for _ in range(n)]
    for i in range(n):
        if cartan[i][i] != 2:
            raise ValueError("Cartan matrix must have 2 on the diagonal")
        for j in range(n):
            if i == j:
                continue
            if cartan[i][j] > 0:
                raise ValueError("off-diagonal Cartan entries must be <= 0")
            if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                raise ValueError(
                    f"Cartan entry a({i + 1},{j + 1}) = {cartan[i][j]} but "
                    f"a({j + 1},{i + 1}) = {cartan[j][i]}: an entry is 0 "
                    "exactly when its transpose is")
            prod = cartan[i][j] * cartan[j][i]
            if prod == 0:
                m[i][j] = 2
            elif prod == 1:
                m[i][j] = 3
            elif prod == 2:
                m[i][j] = 4
            elif prod == 3:
                m[i][j] = 6
            else:
                m[i][j] = 0
    return m


def _infinite_reason(cartan: Sequence[Sequence[int]]) -> str | None:
    """Why the Coxeter group of a generalized Cartan matrix is infinite, or
    None when it is finite.

    The Coxeter graph joins s and t when a(s,t) != 0, i.e. m(s,t) >= 3.
    The graph of a finite Coxeter group is a forest without an m = inf
    edge.  On a forest the matrix is symmetrisable: walking each tree with
    d = 1 at its root and d_t = d_s a(s,t) / a(t,s) along each edge makes
    B = diag(d) A symmetric with d > 0.  B is congruent to
    diag(d)^(1/2) A diag(d)^(-1/2), whose (s,t) entry is
    -sqrt(a(s,t) a(t,s)) = -2 cos(pi / m(s,t)), that is twice the cosine
    form of the Coxeter group; and the group is finite exactly when that
    form is positive definite (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, Section 4.1; Humphreys, Reflection Groups and Coxeter Groups,
    Section 6.4).  By Sylvester's criterion B is positive definite exactly
    when its leading principal minors are positive.  The leading k x k
    minor of B is d_1 ... d_k times that of A, so the test needs no d: the
    leading minors of A must be positive.  Bareiss's fraction-free
    elimination yields them as its pivots, exactly in integers.  Expects a
    matrix cartan_to_coxeter accepts.
    """
    n = len(cartan)
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, -1)]
        while stack:
            s, parent = stack.pop()
            for t in range(n):
                a = cartan[s][t]
                if t == s or t == parent or a == 0:
                    continue
                if a * cartan[t][s] >= 4:
                    return f"m({s + 1},{t + 1}) = inf"
                if seen[t]:
                    return "the Coxeter graph has a cycle"
                seen[t] = True
                stack.append((t, s))
    work = [list(row) for row in cartan]
    prev = 1
    for k in range(n):
        pivot = work[k][k]  # the leading (k + 1) x (k + 1) minor of A
        if pivot <= 0:
            return "the symmetrised Cartan form is not positive definite"
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * pivot
                              - work[i][k] * work[k][j]) // prev
        prev = pivot
    return None


# The finite Weyl types by family: the least and largest rank a label may
# carry, and the order of the group of rank n.
_FAMILIES = {
    "A": (1, inf, lambda n: factorial(n + 1)),
    "B": (2, inf, lambda n: 2**n * factorial(n)),
    "C": (2, inf, lambda n: 2**n * factorial(n)),
    "D": (4, inf, lambda n: 2**(n - 1) * factorial(n)),
    "E": (6, 8, {6: 51_840, 7: 2_903_040, 8: 696_729_600}.get),
    "F": (4, 4, lambda n: 1_152),
    "G": (2, 2, lambda n: 12),
}
# the one entry (0-based) of a family that is not -1 on its chain
_UNEQUAL_BOND = {"B": (0, 1, -2), "C": (1, 0, -2), "F": (1, 2, -2),
                 "G": (1, 0, -3)}


def _named_type(label: str) -> tuple[str, list[list[int]], int]:
    """The normalised label, the Cartan matrix and the group order of a
    type label (see cartan_matrix_of_type)."""
    if not isinstance(label, str):
        raise ValueError(f"type label {label!r} is not a string")
    name = label.strip().upper()
    family, rank = name[:1], name[1:]
    if not (family.isalpha() and rank.isascii() and rank.isdigit()
            and rank == str(int(rank))):
        raise ValueError(f"bad type label {label!r}")
    n = int(rank)
    least, largest, order = _FAMILIES.get(family, (1, 0, None))
    if not least <= n <= largest:
        raise ValueError(f"unsupported type label {label!r}")
    bonds = [(i, i + 1) for i in range(n - 1)]
    if family == "D":
        bonds[-1] = (n - 3, n - 1)
    elif family == "E":
        bonds[:2] = [(0, 2), (1, 3)]
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for s, t in bonds:
        cartan[s][t] = cartan[t][s] = -1
    if family in _UNEQUAL_BOND:
        s, t, a = _UNEQUAL_BOND[family]
        cartan[s][t] = a
    return name, cartan, order(n)


def cartan_matrix_of_type(label: str) -> list[list[int]]:
    """Cartan matrix for a type label: A_n (n >= 1), B_n and C_n (n >= 2),
    D_n (n >= 4), E6, E7, E8, F4 or G2.

    Each family is a chain of -1 bonds, generator i joined to i + 1 under
    1-based labels, with one change:
    - B_n has a(1,2) = -2 and C_n is its transpose, a(2,1) = -2;
    - D_n joins generator n to generator n-2 instead of n-1, so n-2 is the
      branch node;
    - E_n is the chain 1-3-4-5-6(-7-8) with generator 2 joined to 4;
    - F4 has a(2,3) = -2, and G2 has a(2,1) = -3.
    Under s(alpha_t) = alpha_t - a(s,t) alpha_s, a(s,t) = -2 or -3 makes
    alpha_t the long root of the bond.  So generator 1 is B_n's one short
    simple root and C_n's one long one, F4's generators 3 and 4 are long,
    and G2's generator 1 is long.  A_n, D_n and E_n follow the numbering
    of Bourbaki's plates (Lie Groups and Lie Algebras, ch. VI); B_n, C_n,
    F4 and G2 reverse it, generator i being Bourbaki's alpha_(n+1-i).  The
    shipped tables and every id rest on these matrices.

    A label that is not a string, or that is not a letter followed by an
    ASCII rank without leading zeros, raises ValueError, as does a family
    or rank outside the list above.
    """
    return _named_type(label)[1]


def parse_digits(digits: str) -> Word:
    """Parse a 1-based digit string like "23212" into a 0-based word."""
    if not all(ch in "123456789" for ch in digits):
        raise ValueError(f"bad digit string {digits!r}")
    return tuple(int(ch) - 1 for ch in digits)


def word_digits(word: Iterable[int]) -> str:
    """The digit string of a 0-based word: ValueError for a generator
    outside 0-8, which no single digit names."""
    word = tuple(word)
    for s in word:
        if not 0 <= s < 9:
            raise ValueError(f"generator {s!r} has no digit: digit strings "
                             "name the generators 0-8 as 1-9")
    return "".join(str(s + 1) for s in word)


class CoxeterSystem:
    """A fully enumerated finite crystallographic Coxeter group."""

    def __init__(self, cartan: Sequence[Sequence[int]], cap: int,
                 label: str | None = None):
        if not (isinstance(cartan, (list, tuple))
                and all(isinstance(row, (list, tuple)) for row in cartan)):
            raise ValueError(f"Cartan matrix {cartan!r} is not a list of lists")
        self.cartan = tuple(tuple(row) for row in cartan)
        self.coxeter_matrix = tuple(tuple(row) for row in cartan_to_coxeter(self.cartan))
        self.rank = len(self.cartan)
        self.label = label
        reason = _infinite_reason(self.cartan)
        if reason is not None:
            raise GroupTooLargeError(f"the group is infinite: {reason}")
        # The enumeration makes no reference cycles, and a collection while
        # it runs walks the rows of two layers and the descent list so far:
        # on E7 (2 903 040 elements) collections took 9 s of 25.6 (Python
        # 3.11, a 2-core host).
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._enumerate(cap)
        finally:
            if collecting:
                gc.enable()

    @classmethod
    def from_cartan(cls, cartan, cap: int = 10**6) -> "CoxeterSystem":
        return cls(cartan, cap=cap)

    @classmethod
    def from_type(cls, label: str, cap: int = 10**6) -> "CoxeterSystem":
        """The group of a type label; a group of more than cap elements is
        refused by its order, before it is enumerated."""
        name, cartan, order = _named_type(label)
        if order > cap:
            raise _over_cap(cap)
        return cls(cartan, cap=cap, label=name)

    # -- enumeration -------------------------------------------------------

    def _enumerate(self, cap: int) -> None:
        n = self.rank
        # h_ws[t] = h_w[t] - a(s,t) h_w[s]: only the t with a(s,t) != 0 move
        # (t = s included, where a(s,s) = 2 negates the entry).
        bonds = [[(t, a) for t, a in enumerate(self.cartan[s]) if a]
                 for s in range(n)]
        # the index keys h by the int sum of h[t] << (16 t); then
        # key(w s) = key(w) - h_w[s] * delta[s] (see the module docstring)
        delta = [sum(a << 16 * t for t, a in bonds[s]) for s in range(n)]
        cols = self.right_by_gen = [array("I") for _ in range(n)]
        inverse = self.inverse = array("I", [0])
        length = bytearray()
        last = bytearray(1)
        # one frozenset per distinct descent set, keyed by its bitmask
        descent_sets: dict[int, frozenset[int]] = {}
        right_descents = self.right_descents = []
        # The layer being read, by key in id order.  Each element's row holds
        # w s for each s (the entries below w were set when w was found),
        # then w, first[w], tail[w] (see the module docstring) and h_w.
        blank = [0] * n
        one = sum(1 << 16 * t for t in range(n))  # the key of e
        layer = {one: [*blank, 0, 0, 0, [1] * n]}
        lo = depth = 0
        while layer:
            hi = lo + len(layer)
            found: dict[int, list] = {}  # the next layer, the only index
            for key, row in layer.items():
                w, h = row[n], row[n + 3]
                mask = 0
                for s in range(n):
                    hs = h[s]
                    if hs < 0:
                        mask |= 1 << s
                        continue  # w s is shorter; row[s] was set with it
                    k = key - hs * delta[s]
                    up = found.get(k)
                    if up is None:
                        ws = hi + len(found)
                        if ws >= cap:  # ws is the id of element ws + 1
                            raise _over_cap(cap)
                        new = h.copy()
                        for t, a in bonds[s]:
                            new[t] -= a * hs
                        up = found[k] = [*blank, ws,
                                         row[n + 1] if w else s,
                                         cols[s][row[n + 2]] if w else 0, new]
                        last.append(s)
                    row[s] = up[n]
                    up[s] = w
                descents = descent_sets.get(mask)
                if descents is None:
                    descents = descent_sets[mask] = frozenset(
                        s for s in range(n) if mask >> s & 1)
                right_descents.append(descents)
            for col, entries in zip(cols, zip(*layer.values())):
                col.extend(entries)
            length += bytes((depth,)) * len(layer)
            depth += 1
            # (s u)^-1 = u^-1 s with s = first[w] and u = tail[w] in this
            # layer, whose inverses and rows are in place
            inverse.extend([cols[up[n + 1]][inverse[up[n + 2]]]
                            for up in found.values()])
            layer, lo = found, hi

        self.size = lo
        self.length = bytes(length)
        self.last = bytes(last)
        self.words: Sequence[Word] = _Words(self.last, cols)
        self.right: Sequence[tuple[int, ...]] = _Rows(cols, lo)
        self.left_descents: list[frozenset[int]] = [
            right_descents[u] for u in inverse]

    # -- element access ------------------------------------------------------

    def elements(self) -> range:
        return range(self.size)

    def word_to_id(self, word: Iterable[int]) -> int:
        cols, w = self.right_by_gen, 0
        for s in word:
            w = cols[_check_gen(s, self.rank)][w]
        return w

    def digits_to_id(self, digits: str) -> int:
        return self.word_to_id(parse_digits(digits))

    def id_to_digits(self, w: int) -> str:
        return word_digits(self.words[w])

    def digit_strings(self) -> list[str]:
        """id_to_digits of every element, by id, in one pass over the ids:
        words[w] is words[w s] followed by s = last[w], and w s comes
        first.  ValueError at a rank above 9, as in word_digits."""
        if self.rank > 9:
            raise ValueError(f"rank {self.rank} is above 9: digit strings "
                             "name the generators 0-8 as 1-9")
        cols, last = self.right_by_gen, self.last
        digit = [str(s + 1) for s in range(self.rank)]
        out = [""] * self.size
        for w in range(1, self.size):
            s = last[w]
            out[w] = out[cols[s][w]] + digit[s]
        return out

    def left_mult(self, s: int, w: int) -> int:
        inverse = self.inverse
        return inverse[self.right_by_gen[_check_gen(s, self.rank)][
            inverse[_check_id(w, self.size)]]]

    def mult(self, a: int, b: int) -> int:
        cols, w = self.right_by_gen, _check_id(a, self.size)
        for s in self.words[b]:
            w = cols[s][w]
        return w

    def products(self, firsts: Sequence[int], seconds: Sequence[int]
                 ) -> dict[int, list[int]]:
        """a b for every a in firsts and b in seconds, as {b: [a b for a in
        firsts]} in the order of seconds.

        seconds starts with the identity and holds b s, s = last[b], before
        each other b.  Ids of non-decreasing length closed under that step
        do: a standard parabolic subgroup W_I in any such order (last[b] is
        in D_R(b), inside I), or the minimal representatives of W_I \\ W by
        increasing id (left descents only shrink along the right weak
        order).  Then a b = (a b s) s, so each list is one map over an
        earlier list through right_by_gen[s], and no word is walked.
        KeyError if seconds breaks the order."""
        cols, last = self.right_by_gen, self.last
        out: dict[int, list[int]] = {}
        for b in seconds:
            if b:
                col = cols[last[b]]
                out[b] = list(map(col.__getitem__, out[col[b]]))
            else:
                out[b] = list(firsts)
        return out

    def longest_element(self) -> int:
        return max(self.elements(), key=lambda w: self.length[w])

    def reduced_words(self, w: int) -> list[Word]:
        """All reduced expressions of w (by peeling right descents)."""
        cols, descents = self.right_by_gen, self.right_descents

        def peel(w: int) -> list[Word]:
            if w == 0:
                return [()]
            return [u + (s,) for s in descents[w] for u in peel(cols[s][w])]

        return peel(_check_id(w, self.size))

    # -- Bruhat order ---------------------------------------------------------

    def bruhat_leq(self, x: int, y: int) -> bool:
        """x <= y in Bruhat order, by the right-descent recursion: for s in
        D_R(y), x <= y iff x s <= y s when s is in D_R(x), and x <= y s
        when it is not (Deodhar's Z-property).  Each step shortens y, so a
        query takes at most l(y) steps and keeps nothing."""
        x, y = _check_id(x, self.size), _check_id(y, self.size)
        length, descents = self.length, self.right_descents
        while x and x != y and length[x] <= length[y]:
            s = next(iter(descents[y]))
            col = self.right_by_gen[s]
            if s in descents[x]:
                x = col[x]
            y = col[y]
        return x == y or not x

    # -- parabolic subgroups ----------------------------------------------------

    def parabolic_elements(self, gens: Iterable[int]) -> frozenset[int]:
        """All elements of the standard parabolic subgroup generated by gens."""
        gens = sorted(set(gens))
        seen = {0}
        stack = [0]
        while stack:
            w = stack.pop()
            for s in gens:
                ws = self.right_by_gen[s][w]
                if ws not in seen:
                    seen.add(ws)
                    stack.append(ws)
        return frozenset(seen)

    def descents(self, side: str) -> list[frozenset[int]]:
        """The descent set of each element on one side: right_descents for
        side="right", left_descents for side="left".  Any other side raises
        ValueError; every caller that takes a side reads it through here."""
        if side == "right":
            return self.right_descents
        if side == "left":
            return self.left_descents
        raise ValueError(f"unknown side {side!r}: use 'left' or 'right'")

    def minimal_coset_representatives(self, gens: Iterable[int],
                                      side: str) -> tuple[int, ...]:
        """Minimal-length coset representatives, by increasing id.

        side="right" gives W^I for W / W_I (no right descents in I);
        side="left" the mirror for W_I \\ W.
        """
        return tuple(compress(self.elements(), map(
            frozenset(gens).isdisjoint, self.descents(side))))

    def parabolic_subsystem(self, gens: Sequence[int]) -> "ParabolicEmbedding":
        """The standard parabolic as its own system, with the id embedding."""
        gens = sorted(set(gens))
        sub_cartan = [[self.cartan[i][j] for j in gens] for i in gens]
        sub = CoxeterSystem(sub_cartan, cap=self.size)
        # w = (w s) s with s = sub.last[w], and ids are in length order
        cols, sub_cols = self.right_by_gen, sub.right_by_gen
        to_parent = [0] * sub.size
        for w in range(1, sub.size):
            s = sub.last[w]
            to_parent[w] = cols[gens[s]][to_parent[sub_cols[s][w]]]
        return ParabolicEmbedding(sub=sub, gens=tuple(gens), to_parent=to_parent)


def _over_cap(cap: int) -> GroupTooLargeError:
    return GroupTooLargeError(f"group exceeds cap of {cap} elements; "
                              "raise the cap or check the input matrix")


def _check_id(w: int, size: int) -> int:
    if not (type(w) is int and 0 <= w < size):
        raise ValueError(f"element id {w!r} is not an int in range({size})")
    return w


def _check_gen(s: int, rank: int) -> int:
    if not (type(s) is int and 0 <= s < rank):
        raise ValueError(f"generator {s!r} is not an int in range({rank})")
    return s


class _Words(Sequence):
    """words[w], the breadth-first word of w, rebuilt on each read from the
    last letters: w -> w s with s = last[w] steps down to e."""

    __slots__ = ("_last", "_cols")

    def __init__(self, last: bytes, cols: list[array]):
        self._last, self._cols = last, cols

    def __len__(self) -> int:
        return len(self._last)

    def __getitem__(self, w: int) -> Word:
        last, cols = self._last, self._cols
        _check_id(w, len(last))
        word = []
        while w:
            s = last[w]
            word.append(s)
            w = cols[s][w]
        word.reverse()
        return tuple(word)

    # Sequence's own __iter__ stops at an IndexError, which an id outside
    # range(size) does not raise here
    def __iter__(self):
        return map(self.__getitem__, range(len(self._last)))

    def index(self, word, start: int = 0, stop: int | None = None) -> int:
        # a word names one element, the id it walks to from e; Sequence's
        # own index would scan every id and fail on the id check past the end
        w, rank = 0, len(self._cols)
        if type(word) is tuple and all(type(s) is int and 0 <= s < rank
                                       for s in word):
            for s in word:
                w = self._cols[s][w]
            if self[w] == word and w in range(len(self))[start:stop]:
                return w
        raise ValueError(f"{word!r} is not in words")


class _Rows(Sequence):
    """right[w], the tuple of w s over the generators s, read from the
    columns right_by_gen on each read.  pcells reads the columns; this row
    view stays for readers written against the row layout, such as the
    benchmark's canonical labels, and costs a call and a tuple per read."""

    __slots__ = ("_cols", "_size")

    def __init__(self, cols: list[array], size: int):
        self._cols, self._size = cols, size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, w: int) -> tuple[int, ...]:
        _check_id(w, self._size)
        return tuple([col[w] for col in self._cols])

    def __iter__(self):
        return map(self.__getitem__, range(self._size))


class ParabolicEmbedding(NamedTuple):
    """A standard parabolic subgroup together with its inclusion into W."""

    sub: CoxeterSystem
    gens: tuple[int, ...]
    to_parent: list[int]

    def parent_to_sub(self) -> dict[int, int]:
        return {p: w for w, p in enumerate(self.to_parent)}
