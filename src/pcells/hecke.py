"""The Hecke algebra of a finite Coxeter system over Z[v, v^-1].

The standard basis {H_w} multiplies by

    H_s^2 = (v^-1 - v) H_s + 1,        H_x H_y = H_{xy} when lengths add,

and carries the bar involution (v -> v^-1, H_x -> inverse of H at x^-1) and
the anti-involution iota (H_x -> H at x^-1).  The Kazhdan-Lusztig basis
element C_x is the unique bar-invariant element of H_x + sum of v Z[v] H_y
over y < x; its coefficients h(y, x) and the mu-coefficients (coefficient
of v in h) are computed once per group and cached in a KLTable.

compute_kl_table runs the length recursion on packed integers: each h(y, x)
is one Python int holding its coefficients in fixed-width digits, which is
exact because h(y, x) has nonnegative coefficients (positivity,
Elias-Williamson 2014) and a guard raises OverflowError before a coefficient
could outgrow its digit.  It computes half of each column: for s a right
descent of x and ts < t, h(ts, x) = v h(t, x) (P_{y,w} = P_{ys,w} of
Kazhdan-Lusztig 1979), so only the entries at the tops t are built.  It
builds one column per orbit of the group G that inversion and the
automorphisms of the Coxeter graph generate, along the right descent of
the orbit member whose recursion visits the fewest entries (the choice of
descent sets the cost, du Cloux 2002).  Every other column of the orbit is
a read-only view of the built one, relabelled through the anti-involution
iota, h(y, x) = h(y^-1, x^-1), and through each graph automorphism sigma,
h(sigma y, sigma x) = h(y, x).  iota commutes with bar; an automorphism of
(W, S) extends to an automorphism of H that commutes with bar; so by
uniqueness each maps C_w to the C of the image of w (compute_kl_table has
the proof).  The presentation of H reads the Coxeter matrix only, so this
is a symmetry of the Coxeter graph, not of the Dynkin diagram: it includes
the swaps of B2, G2 and F4 that exchange long and short roots.  A
p-canonical table depends on the Cartan matrix and is not invariant under
those, so only the KL table uses it.  A table has few distinct
polynomials and many entries (du Cloux 2002), so per-value work is done
once per distinct value: each value is decoded once, when it is first
written, into one immutable LaurentPoly shared by every entry and column
holding it, and change_basis multiplies each distinct polynomial once per
coefficient.

HeckeElt values are tagged with the basis they are expressed in ("std",
"kl", or "pcan"); arithmetic across different bases is a hard error, and
change_basis performs the exact unitriangular conversions.
"""

from __future__ import annotations

import weakref
from collections.abc import ItemsView, Mapping
from typing import Sequence

from .coxeter import CoxeterSystem
from .laurent import GAUSS, ONE, ZERO, LaurentPoly

STD, KL, PCAN = "std", "kl", "pcan"

_VINV_MINUS_V = LaurentPoly({-1: 1, 1: -1})
_V_MINUS_VINV = LaurentPoly({1: 1, -1: -1})


class _Constants(dict):
    """One shared constant polynomial per int, built on first use: mu
    values are few, and products read them over and over."""

    def __missing__(self, m: int) -> LaurentPoly:
        poly = self[m] = LaurentPoly(m)
        return poly


_CONSTANT = _Constants({1: ONE})


class BasisMismatchError(TypeError):
    """Arithmetic between elements expressed in different bases."""


class HeckeElt:
    """A finitely supported Z[v,v^-1]-combination of basis elements.

    Construction copies coeffs into a dict of its own and drops the zero
    terms.
    """

    def __init__(self, system: CoxeterSystem, basis: str,
                 coeffs: Mapping[int, LaurentPoly] | None = None):
        self.system = system
        self.basis = basis
        self.coeffs = {w: c for w, c in (coeffs or {}).items() if c}

    def _check(self, other: "HeckeElt") -> None:
        if self.system is not other.system:
            raise ValueError("elements live over different groups")
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"cannot combine {self.basis!r} with {other.basis!r}; "
                "convert with change_basis first")

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        return HeckeElt(self.system, self.basis,
                        _add_dicts(self.coeffs, other.coeffs))

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        return self + other.scale(LaurentPoly(-1))

    def scale(self, c: LaurentPoly) -> "HeckeElt":
        return HeckeElt(self.system, self.basis,
                        {w: c * x for w, x in self.coeffs.items()})

    def coefficient(self, w: int) -> LaurentPoly:
        return self.coeffs.get(w, ZERO)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HeckeElt) and self.system is other.system
                and self.basis == other.basis and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return (f"HeckeElt(system={self.system!r}, basis={self.basis!r}, "
                f"coeffs={self.coeffs!r})")

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        sym = {STD: "H", KL: "C", PCAN: "B"}[self.basis]
        parts = []
        order = sorted(self.coeffs, key=lambda w: (self.system.length[w], w))
        for w in order:
            digits = self.system.id_to_digits(w) or "e"
            parts.append(f"({self.coeffs[w]})*{sym}[{digits}]")
        return " + ".join(parts)


def _acc(acc: dict[int, LaurentPoly], w: int, c: LaurentPoly) -> None:
    s = acc.get(w)
    t = c if s is None else s + c
    if t:
        acc[w] = t
    elif w in acc:
        del acc[w]


def _add_dicts(a: Mapping[int, LaurentPoly], b: Mapping[int, LaurentPoly]
               ) -> dict[int, LaurentPoly]:
    out = dict(a)
    for w, c in b.items():
        _acc(out, w, c)
    return out


def unit(system: CoxeterSystem, basis: str = STD) -> HeckeElt:
    return HeckeElt(system, basis, {0: ONE})


def std_basis_element(system: CoxeterSystem, w: int) -> HeckeElt:
    return HeckeElt(system, STD, {w: ONE})


# ---------------------------------------------------------------------------
# standard-basis multiplication

def _std_mult_gen_right(system: CoxeterSystem, coeffs: Mapping[int, LaurentPoly],
                        s: int) -> dict[int, LaurentPoly]:
    out: dict[int, LaurentPoly] = {}
    col, length = system.right_by_gen[s], system.length
    for w, c in coeffs.items():
        ws = col[w]
        _acc(out, ws, c)
        if length[ws] < length[w]:
            _acc(out, w, _VINV_MINUS_V * c)
    return out


def std_multiply(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """Product of two standard-basis elements."""
    if a.basis != STD or b.basis != STD:
        raise BasisMismatchError("std_multiply requires standard-basis elements")
    system = a.system
    out: dict[int, LaurentPoly] = {}
    for w, c in b.coeffs.items():
        part = {x: cx * c for x, cx in a.coeffs.items()}
        for s in system.words[w]:
            part = _std_mult_gen_right(system, part, s)
        out = _add_dicts(out, part)
    return HeckeElt(system, STD, out)


# ---------------------------------------------------------------------------
# bar involution

_bar_std_cache = weakref.WeakKeyDictionary()  # system -> {x: bar(H_x)}


def _bar_of_std(system: CoxeterSystem, x: int) -> dict[int, LaurentPoly]:
    """Expansion of bar(H_x) = (H at x^-1)^(-1) in the standard basis."""
    per_system = _bar_std_cache.setdefault(system, {})
    cached = per_system.get(x)
    if cached is not None:
        return cached
    # (H_{s_1} ... H_{s_k})^(-1) with (s_1 .. s_k) a word for x^-1 equals
    # the product of the H_s^(-1) = H_s + (v - v^-1) in reverse order,
    # which is a word for x itself.
    out: dict[int, LaurentPoly] = {0: ONE}
    for s in system.words[x]:
        shifted = _std_mult_gen_right(system, out, s)
        out = _add_dicts(shifted, {w: _V_MINUS_VINV * c for w, c in out.items()})
    per_system[x] = out
    return out


def bar_involution(a: HeckeElt) -> HeckeElt:
    """The bar involution in the standard basis."""
    if a.basis != STD:
        raise BasisMismatchError("bar_involution acts on the standard basis")
    out: dict[int, LaurentPoly] = {}
    for x, c in a.coeffs.items():
        cbar = c.bar()
        for w, d in _bar_of_std(a.system, x).items():
            _acc(out, w, cbar * d)
    return HeckeElt(a.system, STD, out)


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig table

class KLTable:
    """Triangular data of the Kazhdan-Lusztig basis.

    h[x] maps y -> h(y, x), the coefficient of H_y in C_x (with h(x,x) = 1
    and h(y,x) in v Z[v] for y < x).  mu[x] maps y -> mu(y, x), the
    coefficient of v in h(y, x), storing nonzero values only.  Both are
    built by compute_kl_table; equal polynomials in h are one shared
    immutable LaurentPoly.  Every column is a read-only Mapping.  Of each
    orbit of inversion and the Coxeter-graph automorphisms one column is
    built: its ids and values are two tuples, iterated in the order the
    kernel wrote them, and a dict index of its entries is built on its
    first point lookup (get, in, []) and kept.  Every other column of the
    orbit is a view over it, relabelled through the id permutation that
    carries the built column to it: system.inverse (h(y, x) =
    h(y^-1, x^-1)), a graph automorphism sigma (h(sigma y, sigma x) =
    h(y, x)), or their product (see compute_kl_table).  The mu rows are
    dicts.  The constructor takes any Mapping per column.
    """

    def __init__(self, system: CoxeterSystem,
                 h: list[Mapping[int, LaurentPoly]], mu: list[dict[int, int]]):
        self.system = system
        self.h = h
        self.mu = mu

    def h_poly(self, y: int, x: int) -> LaurentPoly:
        return self.h[x].get(y, ZERO)

    def mu_coeff(self, y: int, x: int) -> int:
        return self.mu[x].get(y, 0)

    def kl_element(self, x: int) -> HeckeElt:
        """C_x expanded in the standard basis."""
        return HeckeElt(self.system, STD, dict(self.h[x].items()))

    def export_json(self) -> list[dict]:
        """Triangular list of {y, x, h} rows with digit-string labels."""
        sys_ = self.system
        rows = []
        for x in sys_.elements():
            for y, c in sorted(self.h[x].items(),
                               key=lambda e: (sys_.length[e[0]], e[0])):
                rows.append({
                    "y": sys_.id_to_digits(y),
                    "x": sys_.id_to_digits(x),
                    "h": c.to_pairs(),
                })
        return rows


class _Column(Mapping):
    """A built column: its ids and values as two tuples, in the order the
    kernel wrote them.  Iterating reads the tuples, and values() is the
    tuple of values; a point lookup (get, in, []) goes through the dict of
    the same entries, built on the first lookup and kept, so every key gets
    the answer that dict gives.  The index takes no lock: threads that
    build it at once build equal dicts."""

    __slots__ = ("_ids", "_vals", "_index")

    def __init__(self, entries: dict[int, LaurentPoly]):
        self._ids, self._vals = tuple(entries), tuple(entries.values())
        self._index = None

    def _lookup(self) -> dict[int, LaurentPoly]:
        index = self._index
        if index is None:
            index = self._index = dict(zip(self._ids, self._vals))
        return index

    def __getitem__(self, y):
        return self._lookup()[y]

    def get(self, y, default=None):
        return self._lookup().get(y, default)

    def __contains__(self, y) -> bool:
        return y in self._lookup()

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return iter(self._ids)

    def values(self) -> tuple[LaurentPoly, ...]:
        return self._vals

    def items(self):
        return _ColumnItems(self)


class _ColumnItems(ItemsView):
    """items() of a _Column, iterated at C speed."""

    __slots__ = ()

    def __iter__(self):
        col = self._mapping
        return zip(col._ids, col._vals)


class _RelabelledColumn(Mapping):
    """The column h at g(w), read through the built column col = h at w,
    for an id permutation g that fixes the table (see compute_kl_table):
    it maps g(y) to col[y], in col's order, so it equals the dict
    {g[y]: c for y, c in col.items()} without storing it.  index maps each
    id g(u) to u; a key that is not an id gets None from it, which no
    column holds, so get, in and [] answer as that dict would."""

    __slots__ = ("_col", "_perm", "_index")

    def __init__(self, col: _Column, perm: list[int], index: dict[int, int]):
        self._col, self._perm, self._index = col, perm, index

    def __getitem__(self, y):
        c = self._col.get(self._index.get(y))
        if c is None:
            raise KeyError(y)
        return c

    def get(self, y, default=None):
        return self._col.get(self._index.get(y), default)

    def __contains__(self, y) -> bool:
        return self._index.get(y) in self._col

    def __len__(self) -> int:
        return len(self._col)

    def __iter__(self):
        return map(self._perm.__getitem__, self._col)

    def values(self):
        return self._col.values()

    def items(self):
        return _RelabelledItems(self)


class _RelabelledItems(ItemsView):
    """items() of a _RelabelledColumn, iterated at C speed."""

    __slots__ = ()

    def __iter__(self):
        col = self._mapping._col
        return zip(map(self._mapping._perm.__getitem__, col), col.values())


# Packed form of a polynomial with coefficients a_i >= 0 in v^i (i >= 0):
# the integer sum of a_i * 2^(_WIDTH * i).
_WIDTH = 32
_MASK = (1 << _WIDTH) - 1
_LIMIT = 1 << (_WIDTH - 2)


class _Packed(LaurentPoly):
    """A table value: the LaurentPoly decoded from a packed int, keeping
    that int for the kernel's integer arithmetic."""

    __slots__ = ("packed",)


def _unpack(packed: int) -> _Packed:
    """Decode a packed polynomial; OverflowError if a coefficient reaches
    _LIMIT, where the packed form is no longer known to be exact."""
    coeffs = {}
    rest, e = packed, 0
    while rest:
        a = rest & _MASK
        if a >= _LIMIT:
            raise OverflowError(
                f"Kazhdan-Lusztig coefficient {a} of v^{e} reaches "
                f"2^{_WIDTH - 2}, beyond the packed kernel's width")
        if a:
            coeffs[e] = a
        rest >>= _WIDTH
        e += 1
    poly = _Packed(coeffs)
    poly.packed = packed
    return poly


def compute_kl_table(system: CoxeterSystem) -> KLTable:
    """Compute all Kazhdan-Lusztig basis elements by the length recursion.

    For w = w's with s a right descent, C_{w'} C_s = C_w plus mu-correction
    terms mu(z, w') C_z over z < w' with s a right descent of z.  Any right
    descent will do, and the one chosen sets the cost.  The ids are walked
    in order, which is length order, so when an id x is reached every
    shorter column is known.  If x's column is not yet known, every
    candidate (w, s) with w in the orbit Gx and s in D_R(w) is scored by
    the number of entries the recursion would visit, |col(ws)| plus
    |col(z)| over the corrections z, and the cheapest is built.  G is the
    group of id permutations that inversion and the lifts of the
    Coxeter-graph automorphisms generate, and the orbit is listed as x,
    then g(x) for g in G, inversion first, then each automorphism sigma
    (in lexicographic order) and sigma followed by inversion; ties go to
    the earlier orbit member, then to the smaller s.  Every other column
    of the orbit is then relabelled: for the first g with g(w) = u,
    h(g y, u) = h(y, w) and mu(g y, u) = mu(y, w) (Kazhdan-Lusztig 1979).
    Indeed iota, H_u -> H at u^-1, fixes the KL basis up to relabelling:
    iota(C_w) = H at w^-1 plus h(y, w) H at y^-1 over y < w is
    bar-invariant, because iota commutes with bar, and y < w iff
    y^-1 < w^-1, so by uniqueness it is C at w^-1.  The same argument
    holds for a permutation sigma of S with m(sigma s, sigma t) = m(s, t).
    It preserves the Coxeter presentation of (W, S), so it extends to an
    automorphism of W that maps S to S and preserves length and the
    Bruhat order.  The Hecke algebra's presentation (the quadratic
    relation and the braid relations of length m(s, t)) depends on the
    Coxeter matrix only, so H_u -> H at sigma u is an automorphism of H;
    it commutes with bar, which sends H_s to H_s^-1 and v to v^-1.
    Hence sigma(C_w) is bar-invariant and lies in H at sigma w plus the
    sum of v Z[v] H at sigma y over y < w, and by uniqueness it is C at
    sigma w.  This uses the Coxeter graph, not the Dynkin diagram: H and
    its KL basis see the orders m(s, t) and not the root lengths, so the
    swap of B2, G2 and F4 that exchanges long and short roots fixes the
    KL table too.  A p-canonical table depends on the Cartan matrix and
    is not invariant under such a swap (b2_p2 has ^2B_121 = B_121 + B_1
    but no image row at 212), so no other table uses this symmetry.
    Every choice is therefore exact: the table is the same whichever
    descent and whichever orbit member is built.

    Only the tops t of the pairs {t, ts} with ts < t are computed, for the
    chosen s.  An element sum a_u H_u of the right ideal H C_s has
    a_ts = v a_t, since H_ts C_s = H_t + v H_ts and H_t C_s = H_ts +
    v^-1 H_t.  C_{w'} C_s lies in it, and so does every correction C_z,
    because s in D_R(z) gives C_z C_s = (v + v^-1) C_z and the pair
    relation is linear over Z[v, v^-1], which has no zero divisors.  Hence
    so does C_w: h(ts, w) = v h(t, w) for every right descent s of w, and
    each bottom is written as its top shifted by one digit.  The same
    relation gives mu: h(ts, w) has a v-coefficient only when h(t, w) has
    a constant term, i.e. t = w, so mu(y, w) is read off the tops plus
    mu(w', w) = 1.

    The kernel computes each h(y, w) as one Python int, the polynomial
    evaluated at v = 2^_WIDTH (Kronecker substitution).  By positivity
    (Elias-Williamson), every h(y, w) lies in Z_{>=0}[v], so while its
    coefficients stay below 2^_WIDTH the int determines it: multiplying
    by v is a left shift, by v^-1 on v Z[v] an exact right shift,
    subtracting mu(z, w') C_z an integer multiply-subtract, and mu(y, w)
    is the second digit.  A step adds at most two coefficients of an
    earlier column and then subtracts nonnegative terms, so a coefficient
    at most doubles per step.  Each value is decoded once, when it is
    first written: _unpack raises OverflowError at the first coefficient
    reaching 2^(_WIDTH - 2), which is still decoded exactly, and nothing
    wraps silently.  The columns hold the decoded LaurentPoly, one shared
    object per distinct polynomial in all the columns; it keeps its packed
    int, which the later steps read.  Each built column is stored as two
    tuples, ids and values, which cost about 16 B per entry where a dict
    costs about 40 B, and every other column is a read-only view of a
    built one (see KLTable): the table stores one pair of tuples per
    orbit, and a column's lookup dict exists only once something has
    looked a key up in it.
    """
    return KLTable(system, *_kl_columns(system)[:2])


def _graph_automorphisms(coxeter: Sequence[Sequence[int]]
                         ) -> list[tuple[int, ...]]:
    """Every permutation sigma of the generators with m(sigma s, sigma t) =
    m(s, t), in lexicographic order, so the identity comes first: a
    backtracking search that fixes sigma(0), sigma(1), ... in turn and keeps
    a partial map only while it preserves m on the generators mapped.

    This and _lift are the package's one home for automorphisms of W.  A
    Dynkin-diagram automorphism, the kind a p-canonical table respects, is
    one of these sigma that also preserves the Cartan matrix, lifted by the
    same _lift."""
    n = len(coxeter)
    found: list[tuple[int, ...]] = []

    def extend(sigma: list[int]) -> None:
        k = len(sigma)
        if k == n:
            found.append(tuple(sigma))
            return
        for t in range(n):
            if t not in sigma and all(coxeter[sigma[j]][t] == coxeter[j][k]
                                      for j in range(k)):
                extend(sigma + [t])

    extend([])
    return found


def _lift(system: CoxeterSystem, sigma: Sequence[int]) -> list[int]:
    """The automorphism of W that sigma induces, on ids: the image of e is
    e, and of w = (ws)s, for s the last letter of w, it is the image of ws
    times sigma(s).  Ids are in length order, so ws is done before w."""
    cols, last = system.right_by_gen, system.last
    lift = [0] * system.size
    for w in range(1, system.size):
        s = last[w]
        lift[w] = cols[sigma[s]][lift[cols[s][w]]]
    return lift


def _kl_columns(system: CoxeterSystem
                ) -> tuple[list[Mapping[int, LaurentPoly]],
                           list[dict[int, int]], dict[int, int]]:
    """The columns and mu rows of compute_kl_table, and the columns it
    built: w -> the right descent s it was built along.  The identity's
    and the built columns are _Columns; every other column is a
    _RelabelledColumn over the built column of its orbit."""
    descents = system.right_descents
    # one int object per id, which every table below shares: each read of
    # the group's arrays makes a new one
    ids = list(range(system.size))
    shared = ids.__getitem__
    inv = list(map(shared, system.inverse))
    by_gen = [list(map(shared, col)) for col in system.right_by_gen]
    # the relabellings g != 1 of the group G that inversion and the graph
    # automorphisms generate, inversion first; indexes[i][g(u)] = u for
    # g = relabellings[i]
    relabellings = [inv]
    for sigma in _graph_automorphisms(system.coxeter_matrix)[1:]:
        lift = list(map(shared, _lift(system, sigma)))
        relabellings += [lift, [inv[w] for w in lift]]
    indexes = [dict(zip(g, ids)) for g in relabellings]
    h: list = [None] * system.size
    mu: list = [None] * system.size
    # pairs maps the packed value of each top written to its shared (top,
    # bottom) values; one = h(e, e) is the first top
    one = _unpack(1)
    pairs = {1: (one, _unpack(1 << _WIDTH))}
    h[0], mu[0] = _Column({0: one}), {}
    # size[w] = len(h[w]), which the scoring reads without calling a
    # column's Python-level __len__
    size = [1] * system.size
    built: dict[int, int] = {}
    for x in system.elements():
        if h[x] is not None:
            continue
        best = None
        for w in dict.fromkeys([x, *[g[x] for g in relabellings]]):
            for s in sorted(descents[w]):
                wp = by_gen[s][w]
                cost = size[wp] + sum(
                    [size[z] for z in mu[wp] if s in descents[z]])
                if best is None or cost < best[0]:
                    best = (cost, w, s)
        _, w, s = best
        rs = by_gen[s]
        wp = rs[w]  # w' with w = w's, shorter
        # h(t, w) over the tops t > ts.  In C_{w'} (H_s + v), H_ts H_s =
        # H_t and H_t H_s = H_ts + (v^-1 - v) H_t, so H_t gets h(ts, w') +
        # v^-1 h(t, w'); ids are in length order, and h(t, w') is in v Z[v]
        # because t != w' (w' s = w is longer).
        top: dict[int, int] = {}
        get = top.get
        for u, c in h[wp].items():
            us = rs[u]
            if us < u:
                top[u] = get(u, 0) + (c.packed >> _WIDTH)
            else:
                top[us] = get(us, 0) + c.packed
        for z, m in mu[wp].items():
            if s in descents[z]:
                for u, c in h[z].items():
                    if rs[u] < u:
                        top[u] -= m * c.packed
        # the bottoms: h(ts, w) = v h(t, w); mu(w, w) = 0 is the second
        # digit of h(w, w) = 1
        col: dict[int, LaurentPoly] = {}
        row = {wp: 1}
        for t, c in top.items():
            if c:
                pair = pairs.get(c)
                if pair is None:
                    # the bottoms so far are the tops in pairs shifted by
                    # one digit, so c is held iff it is the bottom of
                    # c >> _WIDTH, and b iff it is a top; else decode once
                    b = c << _WIDTH
                    below = pairs.get(c >> _WIDTH) if not c & _MASK else None
                    above = pairs.get(b)
                    pair = pairs[c] = (
                        _unpack(c) if below is None else below[1],
                        _unpack(b) if above is None else above[0])
                col[t], col[rs[t]] = pair
                if m := (c >> _WIDTH) & _MASK:
                    row[t] = m
        h[w], mu[w] = _Column(col), row
        built[w] = s
        size[w] = len(col)
        for g, index in zip(relabellings, indexes):
            u = g[w]
            if h[u] is None:
                h[u] = _RelabelledColumn(h[w], g, index)
                mu[u] = dict(zip(map(g.__getitem__, row), row.values()))
                size[u] = size[w]
    return h, mu, built


def kl_multiply_by_generator(table: KLTable, x: int, s: int,
                             side: str = "right") -> dict[int, LaurentPoly]:
    """C_x C_s (or C_s C_x) expanded in the Kazhdan-Lusztig basis.

    Returns (v + v^-1) C_x in the descent case, otherwise C_{xs} plus
    mu(z, x) C_z over z with s in the relevant descent set.
    """
    system = table.system
    if side == "right":
        descents, xs = system.right_descents, system.right_by_gen[s][x]
    elif side == "left":
        descents, xs = system.left_descents, system.left_mult(s, x)
    else:
        raise ValueError("side must be 'left' or 'right'")
    if s in descents[x]:
        return {x: GAUSS}
    out = {xs: ONE}
    for z, m in table.mu[x].items():
        if s in descents[z]:
            out[z] = _CONSTANT[m]
    return out


# ---------------------------------------------------------------------------
# basis conversion

def unitriangular_solve(system: CoxeterSystem,
                        coeffs: Mapping[int, LaurentPoly],
                        lower_row) -> dict[int, LaurentPoly]:
    """Invert a unitriangular base change: given coefficients in the target
    basis and a function yielding the (element, coefficient) terms of each
    source basis element below it, express in the source basis.  The
    diagonal term (x, 1) may be yielded too: it only clears x's entry once
    x is solved.  Processes by decreasing length so terms created
    mid-solve are seen.

    Each row is subtracted in one loop.  A row holds many entries and few
    distinct polynomials, so each distinct m is multiplied by the
    coefficient once per row; the memo is keyed on m itself, never on its
    id, so lower_row may yield temporaries.  An entry equal to the product
    taken from it cancels exactly and is removed."""
    length = system.length
    work = dict(coeffs)
    get = work.get
    buckets: dict[int, set[int]] = {}
    for x in work:
        buckets.setdefault(length[x], set()).add(x)
    out: dict[int, LaurentPoly] = {}
    for level in range(max(buckets, default=0), -1, -1):
        for x in sorted(buckets.get(level, ())):
            c = get(x)
            if not c:
                continue
            out[x] = c
            memo: dict[LaurentPoly, LaurentPoly] = {}
            for y, m in lower_row(x):
                p = memo.get(m)
                if p is None:
                    p = memo[m] = m * c
                s = get(y)
                if s is None:
                    work[y] = -p
                    buckets.setdefault(length[y], set()).add(y)
                elif s == p:
                    del work[y]
                else:
                    work[y] = s - p
    return out


def _kl_to_std(coeffs: Mapping[int, LaurentPoly], table: KLTable
               ) -> dict[int, LaurentPoly]:
    """The sum of c h(y, x) H_y over the terms c C_x, added in one loop:
    each distinct h(y, x) of a column is multiplied by c once, as in
    unitriangular_solve.  A sum that cancels is kept as zero; the HeckeElt
    that change_basis builds drops it."""
    out: dict[int, LaurentPoly] = {}
    get = out.get
    for x, c in coeffs.items():
        memo: dict[LaurentPoly, LaurentPoly] = {}
        for y, m in table.h[x].items():
            p = memo.get(m)
            if p is None:
                p = memo[m] = m * c
            s = get(y)
            out[y] = p if s is None else s + p
    return out


def change_basis(a: HeckeElt, target: str, kl: KLTable | None = None,
                 pcan=None) -> HeckeElt:
    """Convert between the standard, Kazhdan-Lusztig and canonical bases.

    Conversions through "pcan" need a PCanTable (pcan argument); all paths
    are exact unitriangular substitutions, so round trips are identities.
    A table built on another group than the element's raises ValueError,
    by the identity test that HeckeElt arithmetic uses.
    """
    if target not in (STD, KL, PCAN):
        raise ValueError(f"unknown basis {target!r}")
    for table in (kl, pcan):
        if table is not None and table.system is not a.system:
            raise ValueError("the element and the table live over different "
                             "groups")
    if a.basis == target:
        return HeckeElt(a.system, target, dict(a.coeffs))
    if a.basis in (STD, KL) and target in (STD, KL):
        if kl is None:
            raise ValueError("table missing: conversions need a KLTable")
        if target == KL:
            return HeckeElt(a.system, KL, unitriangular_solve(
                a.system, a.coeffs, lambda x: kl.h[x].items()))
        return HeckeElt(a.system, STD, _kl_to_std(a.coeffs, kl))
    if pcan is None:
        raise ValueError("table missing: conversions involving the canonical "
                         "basis need a PCanTable")
    if a.basis == PCAN:
        as_kl = HeckeElt(a.system, KL, pcan.expand_to_kl_coeffs(a.coeffs))
        return as_kl if target == KL else change_basis(as_kl, target, kl=kl)
    as_kl = a if a.basis == KL else change_basis(a, KL, kl=kl)
    return HeckeElt(a.system, PCAN, pcan.kl_to_pcan_coeffs(as_kl.coeffs))
