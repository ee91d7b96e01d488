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
Kazhdan-Lusztig 1979), so only the entries at the tops t are built, and
only they are stored: a bottom ts is read off its top.  It builds one
column per orbit of the group G that inversion and the
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
holding it, the table lists each distinct value of a top once, beside
the shared value v times it that its bottoms hold, a built column stores
each top's value as a 2-byte index into that list, and change_basis
multiplies each distinct polynomial once per coefficient.

HeckeElt values are tagged with the basis they are expressed in ("std",
"kl", or "pcan"); arithmetic across different bases is a hard error.  The
bases form the chain std - kl - pcan, each unitriangular over the one
before it, and change_basis walks it one link at a time: towards pcan by
unitriangular_solve, back towards std by unitriangular_apply, reading the
columns kl.h[x] and PCanTable.column(x).  The structure coefficients and
star-operation checks of the canonical basis read the same columns
through the same two routines.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress, count, repeat
from operator import is_
from types import MappingProxyType
from typing import Sequence

from .coxeter import CoxeterSystem
from .laurent import GAUSS, ONE, ZERO, LaurentPoly

STD, KL, PCAN = "std", "kl", "pcan"
# the bases in the order change_basis walks them: each is unitriangular
# over the one before it
_CHAIN = (STD, KL, PCAN)

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
    terms.  A basis other than "std", "kl" or "pcan" raises ValueError,
    and a key outside 0 .. |W| - 1 IndexError: a negative one would read
    a table's columns from their end.
    """

    def __init__(self, system: CoxeterSystem, basis: str,
                 coeffs: dict[int, LaurentPoly]):
        if basis not in _CHAIN:
            raise ValueError(f"unknown basis {basis!r}: use 'std', 'kl' or "
                             "'pcan'")
        if coeffs and not (0 <= min(coeffs) and max(coeffs) < system.size):
            _require_ids(system, min(coeffs), max(coeffs))
        self.system = system
        self.basis = basis
        self.coeffs = {w: c for w, c in coeffs.items() if c}

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


def _add_dicts(a: dict[int, LaurentPoly], b: dict[int, LaurentPoly]
               ) -> dict[int, LaurentPoly]:
    out = dict(a)
    for w, c in b.items():
        _acc(out, w, c)
    return out


def std_basis_element(system: CoxeterSystem, w: int) -> HeckeElt:
    return HeckeElt(system, STD, {w: ONE})


# ---------------------------------------------------------------------------
# standard-basis multiplication

def _std_mult_gen_right(system: CoxeterSystem, coeffs: dict[int, LaurentPoly],
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

def _bar_of_std(system: CoxeterSystem, x: int) -> dict[int, LaurentPoly]:
    """Expansion of bar(H_x) = (H at x^-1)^(-1) in the standard basis."""
    # (H_{s_1} ... H_{s_k})^(-1) with (s_1 .. s_k) a word for x^-1 equals
    # the product of the H_s^(-1) = H_s + (v - v^-1) in reverse order,
    # which is a word for x itself.
    out: dict[int, LaurentPoly] = {0: ONE}
    for s in system.words[x]:
        shifted = _std_mult_gen_right(system, out, s)
        out = _add_dicts(shifted, {w: _V_MINUS_VINV * c for w, c in out.items()})
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
    immutable LaurentPoly.  Every column and every mu row is read-only
    and offers the reads its callers make: iteration over its ys,
    items(), len() and get(y, default), which builds nothing.  Dicts
    offer them too, so the constructor takes dicts.  Of each orbit of
    inversion and the Coxeter-graph automorphisms one column is built,
    along a right descent s of its x: it stores only its tops t (ts < t),
    as a tuple, and the index of each top's value in the table's list of
    distinct values, as an array of 2-byte items (4-byte ones if an index
    outgrows 2 bytes), and yields each bottom ts with v h(t, x) after
    them; get scans its tops.  The identity's column is a read-only dict.
    Every other column of the orbit is a view over the built one,
    relabelled through the id permutation g that carries the built column
    to it: system.inverse (h(y, x) = h(y^-1, x^-1)), a graph automorphism
    sigma (h(sigma y, sigma x) = h(y, x)), or their product (see
    compute_kl_table); get reads the built column through g^-1.  Its mu
    row is a view of the built one through the same g.  The mu rows of
    the built columns and of the identity are dicts.  h_poly, mu_coeff
    and kl_element raise IndexError for an id outside 0 .. |W| - 1.
    """

    def __init__(self, system: CoxeterSystem, h: list, mu: list):
        self.system = system
        self.h = h
        self.mu = mu

    def h_poly(self, y: int, x: int) -> LaurentPoly:
        # p_h reads h in bulk through here, so the ids are checked inline
        # and _require_ids runs only to raise
        n = self.system.size
        if not (0 <= y < n and 0 <= x < n):
            _require_ids(self.system, y, x)
        return self.h[x].get(y, ZERO)

    def mu_coeff(self, y: int, x: int) -> int:
        _require_ids(self.system, y, x)
        return self.mu[x].get(y, 0)

    def kl_element(self, x: int) -> HeckeElt:
        """C_x expanded in the standard basis."""
        _require_ids(self.system, x)
        return HeckeElt(self.system, STD, dict(self.h[x].items()))

    def export_json(self) -> list[dict]:
        """Triangular list of {y, x, h} rows with digit-string labels."""
        sys_ = self.system
        digits = sys_.digit_strings()
        rows = []
        for x in sys_.elements():
            for y, c in sorted(self.h[x].items(),
                               key=lambda e: (sys_.length[e[0]], e[0])):
                rows.append({"y": digits[y], "x": digits[x],
                             "h": c.to_pairs()})
        return rows


def _require_ids(system: CoxeterSystem, *ids: int) -> None:
    """Raise IndexError unless every one of ids is an element id: a
    negative one would index the table's lists from their end."""
    for w in ids:
        if not 0 <= w < system.size:
            raise IndexError(f"{w} is not an element id of a group of "
                             f"order {system.size}")


class _BuiltColumn:
    """A built column h at w, built along the right descent s of w: its
    tops t (ts < t) in the order the kernel wrote them, an array of
    indexes of their values into the table's list vals of distinct top
    values, the parallel list shifted of the values v times them, and the
    kernel's row rs of u -> us.  The bottom ts of a top holds h(ts, w) =
    v h(t, w), the entry of shifted at its top's index, and is not
    stored.  Iterating yields the tops, then the bottoms, at C speed, and
    items() pairs them with their values in that order.  get(y, default)
    builds nothing: ids are in length order, so y is a top iff ys < y,
    and it reads y, or else the top ys whose bottom y is, off the tops by
    a scan at C speed."""

    __slots__ = ("_tops", "_idx", "_vals", "_shifted", "_rs")

    def __init__(self, tops: Sequence[int], idx: array,
                 vals: list[LaurentPoly], shifted: list[LaurentPoly],
                 rs: list[int]):
        self._tops, self._idx, self._rs = tops, idx, rs
        self._vals, self._shifted = vals, shifted

    def get(self, y: int, default):
        tops, t = self._tops, self._rs[y]
        if t < y:
            if y in tops:
                return self._vals[self._idx[tops.index(y)]]
        elif t in tops:
            return self._shifted[self._idx[tops.index(t)]]
        return default

    def __len__(self) -> int:
        return 2 * len(self._tops)

    def __iter__(self):
        tops = self._tops
        return chain(tops, map(self._rs.__getitem__, tops))

    def _values(self):
        idx = self._idx
        return chain(map(self._vals.__getitem__, idx),
                     map(self._shifted.__getitem__, idx))

    def items(self):
        return zip(self, self._values())


def _indexes(ixs: list[int]) -> array:
    """ixs as an array of 2-byte items while every index fits, else of
    4-byte items; array raises OverflowError beyond those, so no index
    wraps."""
    try:
        return array("H", ixs)
    except OverflowError:
        return array("I", ixs)


class _Relabelled:
    """The column or mu row at g(w), read through the one at w, base, for
    a relabelling g of the table (see compute_kl_table): it maps g(y) to
    base's value at y, in base's order, so it reads as the dict
    {g[y]: c for y, c in base.items()} without storing it.  pair holds g
    and its inverse as lists over the ids; G is a group, so the inverse
    is g, or another relabelling of the table, or the identity, and
    get(y, default) reads base at g^-1(y), building nothing."""

    __slots__ = ("_base", "_pair")

    def __init__(self, base, pair: tuple[list[int], list[int]]):
        self._base, self._pair = base, pair

    def get(self, y: int, default):
        return self._base.get(self._pair[1][y], default)

    def __len__(self) -> int:
        return len(self._base)

    def __iter__(self):
        return map(self._pair[0].__getitem__, self._base)

    def items(self):
        base = self._base
        values = base.values() if type(base) is dict else base._values()
        return zip(map(self._pair[0].__getitem__, base), values)


# Packed form of a polynomial with coefficients a_i >= 0 in v^i (i >= 0):
# the integer sum of a_i * 2^(_WIDTH * i).
_WIDTH = 32
_MASK = (1 << _WIDTH) - 1
_LIMIT = 1 << (_WIDTH - 2)


def _unpack(packed: int) -> LaurentPoly:
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
    return LaurentPoly(coeffs)


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
    Coxeter-graph automorphisms generate (inversion alone when twice the
    number of automorphisms exceeds |W|), and the orbit is listed as x,
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
    object per distinct polynomial in all the columns.  The table lists
    the distinct values of its tops in the order first written, and in
    parallel lists the shared objects v times them and their packed ints,
    which the later steps read.  Each built
    column stores its tops as a tuple, the index of each top's value in
    that list as an array of 2-byte items while every index fits (else
    4-byte ones; array raises OverflowError rather than wrap), and a
    reference to the shared row t -> ts: a bottom costs nothing and an
    entry about 5 B, where a tuple of the tops' values made it 8 B and
    the ids and values of every entry cost 16 B.  The kernel reads a
    built column's tops and the packed ints of their values directly, and
    each bottom as its top's packed int shifted by one digit.  Every other
    column and its mu row are read-only views of a built one (see
    KLTable): the table stores one tuple of tops and one array of indexes
    per orbit, and a point lookup reads them and builds nothing.
    """
    return KLTable(system, *_kl_columns(system)[:2])


def _graph_automorphisms(coxeter: Sequence[Sequence[int]], bound: int
                         ) -> list[tuple[int, ...]]:
    """Every permutation sigma of the generators with m(sigma s, sigma t) =
    m(s, t), in lexicographic order, so the identity comes first: a
    backtracking search that fixes sigma(0), sigma(1), ... in turn and keeps
    a partial map only while it preserves m on the generators mapped.  The
    search stops once it has found more than bound of them, so a list
    longer than bound is only the first bound + 1 (A1^9 has 9! of them).

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
            if len(found) > bound:
                return
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


def _kl_columns(system: CoxeterSystem) -> tuple[list, list, dict[int, int]]:
    """The columns and mu rows of compute_kl_table, and the columns it
    built: w -> the right descent s it was built along.  The identity's
    column is a read-only dict, the built columns are _BuiltColumns, and
    every other column is a _Relabelled view of the built column of its
    orbit; its mu row is a _Relabelled view of the built column's row,
    through the same relabelling."""
    descents = system.right_descents
    # one int object per id, which every table below shares: each read of
    # the group's arrays makes a new one
    ids = list(range(system.size))
    shared = ids.__getitem__
    inv = list(map(shared, system.inverse))
    by_gen = [list(map(shared, col)) for col in system.right_by_gen]
    # the relabellings g != 1 of the group G that inversion and the graph
    # automorphisms generate, inversion first.  Listing G costs |G| |W|
    # ids, so the automorphisms join G only while |G| = 2 |Aut| <= |W|
    # keeps that cost within |W|^2 (A1^9 has 9! of them and 512 elements);
    # the table is exact for any subgroup
    automorphisms = _graph_automorphisms(system.coxeter_matrix,
                                         system.size // 2)
    if len(automorphisms) > system.size // 2:
        automorphisms = automorphisms[:1]
    perms = [inv]
    for sigma in automorphisms[1:]:
        lift = list(map(shared, _lift(system, sigma)))
        perms += [lift, [inv[w] for w in lift]]
    # each g with g^-1: G is a group, so g^-1 is 1 or is listed
    relabellings = [(g, next(f for f in [ids, *perms]
                             if list(map(f.__getitem__, g)) == ids))
                    for g in perms]
    h: list = [None] * system.size
    mu: list = [None] * system.size
    # the distinct values of the tops written, in the order first written:
    # vals[i], the shared value v times it, which its bottoms hold, in
    # shifted[i], its packed int in packs[i], and its second digit,
    # mu(t, w), in mu_at[i]; at maps packs[i] to i.  h(e, e) = 1 is the
    # first top
    vals, shifted, packs = [_unpack(1)], [_unpack(1 << _WIDTH)], [1]
    at = {1: 0}
    mu_at = [0]
    h[0], mu[0] = MappingProxyType({0: vals[0]}), {}
    # size[w] = len(h[w]), which the scoring reads without calling a
    # column's Python-level __len__
    size = [1] * system.size
    built: dict[int, int] = {}
    for x in system.elements():
        if h[x] is not None:
            continue
        best = None
        for w in dict.fromkeys([x, *[g[x] for g in perms]]):
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
        # C_e C_s = C_s has the one top h(s, s) = 1; every other column is
        # read as (t, b, i), a top of its own descent whose value has the
        # packed int c = packs[i], and its bottom b, which holds
        # c << _WIDTH.
        top: dict[int, int] = {w: 1} if wp == 0 else {}
        get = top.get
        for t, b, i in _pairs(h[wp]):
            c = packs[i]
            ts = rs[t]
            if ts < t:
                top[t] = get(t, 0) + (c >> _WIDTH)
            else:
                top[ts] = get(ts, 0) + c
            bs = rs[b]
            if bs < b:
                top[b] = get(b, 0) + c
            else:
                top[bs] = get(bs, 0) + (c << _WIDTH)
        for z, m in mu[wp].items():
            if s in descents[z]:
                col = h[z]
                if type(col) is _BuiltColumn and col._rs is rs:
                    # built along s: its tops are the u with us < u
                    for t, i in zip(col._tops, col._idx):
                        top[t] -= m * packs[i]
                    continue
                for t, b, i in _pairs(col):
                    c = packs[i]
                    if rs[t] < t:
                        top[t] -= m * c
                    if rs[b] < b:
                        top[b] -= (m * c) << _WIDTH
        # only the tops are stored, each bottom ts holding v h(t, w);
        # mu(w, w) = 0 is the second digit of h(w, w) = 1
        cs = list(filter(None, top.values()))
        # each value hashed once; only the values not yet held are
        # registered, in the order written
        ixs = list(map(at.get, cs))
        for j in compress(count(), map(is_, ixs, repeat(None))):
            c = cs[j]
            i = at.get(c)  # written earlier in this column
            if i is None:
                # the bottoms so far are the tops shifted by one digit, so
                # c is held iff it is the bottom of c >> _WIDTH, and b iff
                # it is a top; else decode once
                b = c << _WIDTH
                i = at.get(c >> _WIDTH) if not c & _MASK else None
                vals.append(_unpack(c) if i is None else shifted[i])
                i = at.get(b)
                shifted.append(_unpack(b) if i is None else vals[i])
                i = at[c] = len(packs)
                packs.append(c)
                mu_at.append((c >> _WIDTH) & _MASK)
            ixs[j] = i
        tops = tuple(compress(top, top.values()))
        ms = list(map(mu_at.__getitem__, ixs))
        row = {wp: 1}
        row.update(compress(zip(tops, ms), ms))
        h[w] = _BuiltColumn(tops, _indexes(ixs), vals, shifted, rs)
        mu[w] = row
        built[w] = s
        size[w] = 2 * len(tops)
        for pair in relabellings:
            u = pair[0][w]
            if h[u] is None:
                h[u] = _Relabelled(h[w], pair)
                mu[u] = _Relabelled(row, pair)
                size[u] = size[w]
    return h, mu, built


def _pairs(col):
    """The entries of a column of the table being built as (t, b, i): each
    top t with the index i of its value, and its bottom b, which holds
    v times that value.  The identity's column gives none; the kernel
    writes C_e C_s = C_s itself."""
    perm = None
    if type(col) is _Relabelled:
        perm, col = col._pair[0].__getitem__, col._base
    if type(col) is not _BuiltColumn:
        return ()
    tops = col._tops
    bottoms = map(col._rs.__getitem__, tops)
    if perm is not None:
        tops, bottoms = map(perm, tops), map(perm, bottoms)
    return zip(tops, bottoms, col._idx)


def require_generator(system: CoxeterSystem, x: int, s: int) -> None:
    """Raise IndexError unless x is an element id and s a generator: a
    negative one would index the group's lists from their end.  Callers
    compare inline and call this only to raise."""
    _require_ids(system, x)
    if not 0 <= s < system.rank:
        raise IndexError(f"{s} is not a generator of a group of rank "
                         f"{system.rank}")


def kl_multiply_by_generator(table: KLTable, x: int, s: int,
                             side: str) -> dict[int, LaurentPoly]:
    """C_x C_s (or C_s C_x) expanded in the Kazhdan-Lusztig basis.

    Returns (v + v^-1) C_x in the descent case, otherwise C_{xs} plus
    mu(z, x) C_z over z with s in the relevant descent set.  An x or s
    outside the group raises IndexError.
    """
    system = table.system
    if not (0 <= x < system.size and 0 <= s < system.rank):
        require_generator(system, x, s)
    descents = system.descents(side)
    if s in descents[x]:
        return {x: GAUSS}
    xs = (system.right_by_gen[s][x] if side == "right"
          else system.left_mult(s, x))
    out = {xs: ONE}
    for z, m in table.mu[x].items():
        if s in descents[z]:
            out[z] = _CONSTANT[m]
    return out


# ---------------------------------------------------------------------------
# basis conversion

def unitriangular_solve(system: CoxeterSystem,
                        coeffs: dict[int, LaurentPoly],
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


def unitriangular_apply(coeffs: dict[int, LaurentPoly], column
                        ) -> dict[int, LaurentPoly]:
    """Apply a base change: given coefficients in the source basis and a
    function yielding the (element, coefficient) terms of each source
    basis element in the target basis, its diagonal term included, the
    sum of c column(x) over the terms c of x, in the target basis.

    Each column is added in one loop, each distinct m multiplied by c once
    per column, as in unitriangular_solve.  A sum that cancels is
    dropped."""
    out: dict[int, LaurentPoly] = {}
    get = out.get
    for x, c in coeffs.items():
        memo: dict[LaurentPoly, LaurentPoly] = {}
        for y, m in column(x):
            p = memo.get(m)
            if p is None:
                p = memo[m] = m * c
            s = get(y)
            out[y] = p if s is None else s + p
    return {y: c for y, c in out.items() if c}


def change_basis(a: HeckeElt, target: str, kl: KLTable | None = None,
                 pcan=None) -> HeckeElt:
    """Convert between the standard, Kazhdan-Lusztig and canonical bases.

    The bases form the chain std - kl - pcan, each unitriangular over the
    one before it: C_x is the column kl.h[x] over the H_y, and B_x the
    column pcan.column(x) (a PCanTable) over the C_y.  A conversion walks
    the chain one link at a time, solving towards pcan
    (unitriangular_solve) and applying the columns back towards std
    (unitriangular_apply), so it reads only the tables of the links it
    crosses, and a missing one raises ValueError naming it.  All steps are
    exact, so round trips are identities.  A table built on another group
    than the element's raises ValueError, by the identity test that
    HeckeElt arithmetic uses.
    """
    if target not in _CHAIN:
        raise ValueError(f"unknown basis {target!r}")
    start, end = _CHAIN.index(a.basis), _CHAIN.index(target)
    # link k joins _CHAIN[k] and _CHAIN[k + 1] through table k
    links = range(min(start, end), max(start, end))
    for k, table in enumerate((kl, pcan)):
        if table is None:
            if k in links:
                raise ValueError(f"table missing: converting {a.basis!r} to "
                                 f"{target!r} needs a "
                                 f"{('KLTable', 'PCanTable')[k]}")
        elif table.system is not a.system:
            raise ValueError("the element and the table live over different "
                             "groups")
    columns = (lambda x: kl.h[x].items(), lambda x: pcan.column(x).items())
    coeffs = a.coeffs
    if end > start:
        for k in links:
            coeffs = unitriangular_solve(a.system, coeffs, columns[k])
    else:
        for k in reversed(links):
            coeffs = unitriangular_apply(coeffs, columns[k])
    return HeckeElt(a.system, target, coeffs)
