"""Strings, star operations, their coefficient relations, and tau invariants.

Fix two generators r, t with 3 <= m = m(r,t) < infinity.  Every coset of
the dihedral parabolic <r, t> consists of its minimal element, its maximal
element, and two "strings" of m - 1 elements (one per starting letter);
the union of the strings of all cosets is D_R(r, t), the set of elements
with exactly one of r, t as a right descent.  The right star operation
flips position k of a string to position m - k.  DihedralStrings(system,
r, t) reads all of this for one pair from one walk over the cosets: the
strings, the right star map `star` and the string neighbours
`neighbours`.  The left star operation is `star` conjugated by inversion,
x -> inverse[star[inverse[x]]] on D_L(r, t).

The checkers in this module verify the numerical consequences of the star
operations for base-change and structure coefficients (the m = 3, 4, 6
relation systems, the star symmetries, and string vanishing).  Each reads
only the entries that can be nonzero: table rows and product supports,
never every pair of strings or of elements of D_R(r, t).  They apply
only above a prime bound (p > 1, 2, 3 for m = 3, 4, 6): below the bound
the relations are not asserted and the checkers refuse to run.

The generalized tau invariant refines equality of right descent sets
through neighbour multisets of strings for m in {3, 4}, read as the star
image for m = 3, where the two agree; the tau-tilde variant refines
through star images for every finite m >= 3.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from typing import Callable, Mapping, NamedTuple

from .cells import CellPartition, transport_preorder
from .coxeter import CoxeterSystem
from .hecke import KLTable
from .laurent import ONE, ZERO, LaurentPoly
from .pcanonical import PCanTable, structure_coefficients
from .report import Report

_P_BOUND = {3: 1, 4: 2, 6: 3}


class PBoundError(ValueError):
    """The table's prime is below the validity bound for this bond order."""


def p_bound_ok(prime: int, m: int) -> bool:
    """Star-operation statements hold at p = 0 and above the bound."""
    return prime == 0 or prime > _P_BOUND.get(m, 0)


def _require_bound(table: PCanTable, m: int) -> None:
    if not p_bound_ok(table.prime, m):
        raise PBoundError(
            f"p = {table.prime} is below the bound for bond order {m}; "
            "the relations are not asserted there")


# ---------------------------------------------------------------------------
# strings and stars

class StringDecomposition(NamedTuple):
    """One right <r, t>-string: the m - 1 elements obtained from the coset
    minimum by the alternating words in a fixed starting letter, listed by
    increasing length."""

    r: int
    t: int
    m: int
    coset_min: int
    start: int  # the generator the alternating word starts with
    elements: tuple[int, ...]


def _string_walk(system: CoxeterSystem, r: int, t: int, m: int,
                 minima: list[int]) -> list[list[list[int]]]:
    """The right <r, t>-strings above the coset minima, position by
    position: for each starting letter, r then t, the positions 1 .. m - 1,
    where position k lists the minima, in their order, times the prefix of
    length k of the alternating word in that letter.  Each position is one
    pass over the one before, walked over system.right_by_gen."""
    cols = system.right_by_gen
    walks = []
    for word in (((r, t) * m)[:m - 1], ((t, r) * m)[:m - 1]):
        layer, walk = minima, []
        for s in word:
            layer = list(map(cols[s].__getitem__, layer))
            walk.append(layer)
        walks.append(walk)
    return walks


class DihedralStrings:
    """The right <r, t>-strings of one generator pair, read from one walk.

    `strings` lists both strings of every coset, by increasing minimum,
    the one starting with r first, and `positions` sends each element of
    D_R(r, t) to the index of its string there and its position in it
    (1..m-1).  `star` sends each x in D_R(r, t) to its right star image
    (position k to position m - k), and `neighbours` to its string
    neighbours (positions k - 1 and k + 1 inside 1..m-1, the one that
    exists doubled at a string end).  Ids increase with length, so each
    neighbour pair is in increasing order.  The keys of these three maps
    are D_R(r, t).  Each view is built on first use, and `star` and
    `neighbours` need m >= 3.  r and t must be distinct ints in
    range(system.rank)."""

    def __init__(self, system: CoxeterSystem, r: int, t: int):
        if not all(type(g) is int and 0 <= g < system.rank for g in (r, t)):
            raise ValueError(f"generators must be ints in range({system.rank}),"
                             f" not {r!r} and {t!r}")
        if r == t:
            raise ValueError("strings need two distinct generators")
        m = system.coxeter_matrix[r][t]
        if m == 0:
            raise ValueError("infinite bond order: strings are unbounded")
        self.system, self.r, self.t, self.m = system, r, t, m

    @cached_property
    def _walk(self) -> tuple[list[int], list[list[list[int]]]]:
        minima = sorted(self.system.minimal_coset_representatives(
            {self.r, self.t}, "right"))
        return minima, _string_walk(self.system, self.r, self.t, self.m,
                                    minima)

    def _star_walks(self) -> list[list[list[int]]]:
        if self.m < 3:
            raise ValueError("star operations need bond order >= 3")
        return self._walk[1]

    @cached_property
    def strings(self) -> list[StringDecomposition]:
        minima, walks = self._walk
        # one (minimum, x_1, .., x_{m-1}) row per coset and starting letter
        by_r, by_t = (zip(minima, *walk) for walk in walks)
        return [StringDecomposition(r=self.r, t=self.t, m=self.m,
                                    coset_min=row[0], start=start,
                                    elements=row[1:])
                for pair in zip(by_r, by_t)
                for start, row in zip((self.r, self.t), pair)]

    @cached_property
    def positions(self) -> dict[int, tuple[int, int]]:
        return {x: (k, j) for k, s in enumerate(self.strings)
                for j, x in enumerate(s.elements, 1)}

    @cached_property
    def star(self) -> dict[int, int]:
        star: dict[int, int] = {}
        for walk in self._star_walks():
            for layer, image in zip(walk, reversed(walk)):
                star.update(zip(layer, image))
        return star

    @cached_property
    def neighbours(self) -> dict[int, tuple[int, int]]:
        neighbours: dict[int, tuple[int, int]] = {}
        for walk in self._star_walks():
            # position k pairs ends[k - 1] with ends[k + 1]: positions k - 1
            # and k + 1, or at an end of the string the one neighbour twice
            ends = [walk[1], *walk, walk[-2]]
            for layer, before, after in zip(walk, ends, ends[2:]):
                neighbours.update(zip(layer, zip(before, after)))
        return neighbours


# ---------------------------------------------------------------------------
# the m = 3, 4, 6 relation systems

# Each relation is (lhs, rhs): two lists of (j, i) pairs, asserting that the
# sums of the coefficients a[j, i] agree, where a[j, i] couples the j-th
# element of the z-string with the i-th element of the x-string.
_RELATIONS: dict[int, list[tuple[list[tuple[int, int]], list[tuple[int, int]]]]] = {
    3: [
        ([(1, 1)], [(2, 2)]),
        ([(2, 1)], [(1, 2)]),
    ],
    4: [
        ([(1, 1)], [(3, 3)]),
        ([(2, 1)], [(1, 2)]),
        ([(1, 2)], [(3, 2)]),
        ([(3, 2)], [(2, 3)]),
        ([(3, 1)], [(1, 3)]),
        ([(2, 2)], [(1, 1), (3, 1)]),
    ],
    6: [
        ([(1, 1)], [(5, 5)]),
        ([(2, 1)], [(1, 2)]),
        ([(1, 2)], [(5, 4)]),
        ([(5, 4)], [(4, 5)]),
        ([(3, 1)], [(1, 3)]),
        ([(1, 3)], [(5, 3)]),
        ([(5, 3)], [(3, 5)]),
        ([(4, 1)], [(1, 4)]),
        ([(1, 4)], [(5, 2)]),
        ([(5, 2)], [(2, 5)]),
        ([(5, 1)], [(1, 5)]),
        ([(2, 2)], [(4, 4)]),
        ([(2, 2)], [(1, 1), (3, 1)]),
        ([(3, 2)], [(2, 3)]),
        ([(2, 3)], [(4, 3)]),
        ([(4, 3)], [(3, 4)]),
        ([(3, 2)], [(2, 1), (4, 1)]),
        ([(4, 2)], [(2, 4)]),
        ([(4, 2)], [(3, 1), (5, 1)]),
        ([(3, 3)], [(1, 1), (3, 1), (5, 1)]),
    ],
}


def _check_relation_system(pair: DihedralStrings,
                           columns: list[Mapping[int, LaurentPoly]],
                           label: str, bad: list[str]) -> int:
    """The relation system between one x-string and every z-string, where
    columns[i - 1] maps z to the coefficient a(z, x_i) (an absent z reads
    0), evaluated on the z-strings that meet some column.

    Every relation equates two sums of coefficients a(z_j, x_i) between
    the same two strings.  If the z-string meets no column, each of them
    is 0, so every relation reads 0 = 0 and holds: skipping those
    z-strings gives the verdict of evaluating every z-string.  The rest
    are evaluated in the order of pair.strings, so the violations are
    those of that evaluation, in its order.  Returns the number of
    relations evaluated."""
    coeffs: dict[int, dict[tuple[int, int], LaurentPoly]] = {}
    for i, col in enumerate(columns, 1):
        for z, c in col.items():
            if z in pair.positions:
                k, j = pair.positions[z]
                coeffs.setdefault(k, {})[j, i] = c
    for k, a in sorted(coeffs.items()):
        z1 = pair.system.id_to_digits(pair.strings[k].elements[0])
        for lhs, rhs in _RELATIONS[pair.m]:
            left, right = (sum((a.get(e, ZERO) for e in side), ZERO)
                           for side in (lhs, rhs))
            if left != right:
                bad.append(f"{label} z-string {z1}: {lhs} = {left} but "
                           f"{rhs} = {right}")
    return len(coeffs) * len(_RELATIONS[pair.m])


def _column(table: PCanTable, x: int) -> dict[int, LaurentPoly]:
    """The nonzero m(z, x) by z: 1 at z = x, then table.rows[x]."""
    return {x: ONE, **table.rows.get(x, {})}


def _check_star_symmetry(pair: DihedralStrings, xs: list[int],
                         column: Callable[[int], Mapping[int, LaurentPoly]],
                         label: str, bad: list[str]) -> int:
    """Check that column(x) at z equals column(x*) at z*, for each x in xs
    and every z in D_R(r, t), given columns that hold nonzero values only.

    star is an involution of D_R(r, t), so for one x the identities say
    that column(x) restricted to D_R(r, t) and relabelled by star equals
    column(x*) restricted to D_R(r, t).  With zeros absent on both sides
    that is one dict comparison, whatever the size of D_R(r, t).  Returns
    the number of comparisons, one per x."""
    star = pair.star
    for x in xs:
        if ({star[z]: c for z, c in column(x).items() if z in star}
                != {z: c for z, c in column(star[x]).items() if z in star}):
            bad.append(f"{label} fails for some z at x = "
                       f"{pair.system.id_to_digits(x)}")
    return len(xs)


def check_base_change_relations(table: PCanTable, r: int, t: int) -> Report:
    """The relation systems on base-change coefficients m(z_j, x_i) between
    all pairs of full strings, plus the star symmetry m(z, x) = m(z*, x*)
    for all z, x in D_R(r, t).

    Both read the column of x (_column), whose values are nonzero: the
    relation systems on the z-strings it meets (_check_relation_system),
    and the symmetry as one comparison per x (_check_star_symmetry).  The
    symmetry covers every pair, where a loop over pairs with l(z) <= l(x)
    only would skip some; on a table unitriangular by length, which
    validate_table enforces, the verdict is the same.  There m(z, x) = 0
    whenever l(z) > l(x), and then either l(z*) > l(x*) too, so
    m(z*, x*) = 0, or the identity is the one of the pair (z*, x*), which
    that loop compares."""
    sys_ = table.system
    pair = DihedralStrings(sys_, r, t)
    _require_bound(table, pair.m)
    bad: list[str] = []
    checked = _check_star_symmetry(pair, sorted(pair.star),
                                   partial(_column, table),
                                   "m(z, x) = m(z*, x*)", bad)
    for sx in pair.strings:
        checked += _check_relation_system(
            pair, [_column(table, x) for x in sx.elements],
            f"m-relations x-string {sys_.id_to_digits(sx.elements[0])}", bad)
    return Report(f"base-change-relations (r={r + 1}, t={t + 1})", bad, checked)


def check_structure_coefficient_relations(table: PCanTable, kl: KLTable,
                                          r: int, t: int) -> Report:
    """The same relation systems on left structure coefficients
    mu^{z_j}(s, x_i) for every generator s raising the x-string on the left,
    plus the star symmetry of structure coefficients.

    The column of x for s is structure_coefficients(table, kl, x, s,
    "left"), which holds nonzero values only; both parts read it as
    check_base_change_relations reads its columns."""
    sys_ = table.system
    pair = DihedralStrings(sys_, r, t)
    _require_bound(table, pair.m)
    left_mu = cache(lambda s, x: structure_coefficients(table, kl, x, s, "left"))
    bad: list[str] = []
    checked = 0
    for s in range(sys_.rank):
        checked += _check_star_symmetry(
            pair, [x for x in sorted(pair.star) if s not in sys_.left_descents[x]],
            partial(left_mu, s), f"mu^z(s{s + 1}, x) = mu^(z*)(s{s + 1}, x*)",
            bad)
    for sx in pair.strings:
        x1 = sx.elements[0]
        for s in range(sys_.rank):
            if s not in sys_.left_descents[x1]:
                checked += _check_relation_system(
                    pair, [left_mu(s, x) for x in sx.elements],
                    f"mu-relations s={s + 1} x-string {sys_.id_to_digits(x1)}",
                    bad)
    return Report(f"structure-coefficient-relations (r={r + 1}, t={t + 1})",
                  bad, checked)


def check_string_vanishing(table: PCanTable, kl: KLTable, r: int, t: int
                           ) -> Report:
    """Within D_R(r, t), right multiplication by the raising generator only
    reaches string neighbours: mu^z(x, u) = 0 for z in D_R(r, t) unless z
    neighbours x in its string."""
    sys_ = table.system
    pair = DihedralStrings(sys_, r, t)
    _require_bound(table, pair.m)
    neighbours = pair.neighbours
    bad: list[str] = []
    checked = 0
    for x in sorted(neighbours):
        allowed = set(neighbours[x])
        u = t if t not in sys_.right_descents[x] else r
        for z, c in structure_coefficients(table, kl, x, u, "right").items():
            if z == x or z not in neighbours:
                continue
            checked += 1
            if c and z not in allowed:
                bad.append(
                    f"mu^({sys_.id_to_digits(z)})({sys_.id_to_digits(x)}, "
                    f"s{u + 1}) = {c} outside the string neighbourhood")
    return Report(f"string-vanishing (r={r + 1}, t={t + 1})", bad, checked)


def check_coefficient_sliding(table: PCanTable, kl: KLTable, r: int, t: int
                              ) -> Report:
    """The sliding description of products inside D_R(r, t): for x with
    descent a in {r, t} and raising letter b, the KL coefficient of C_z in
    B_x C_b equals m(za, x) [za in D_R] + m(zb, x) [zb in D_R] for every
    z in D_R(r, t).

    Only the z in the support of the left side, or in {ua, ub} for some u
    with m(u, x) != 0 (the column of x, _column), are compared.  Every other z reads
    0 on both sides: the right side needs za or zb in the column, and
    since a and b are involutions, z = (za)a and z = (zb)b."""
    sys_ = table.system
    pair = DihedralStrings(sys_, r, t)
    _require_bound(table, pair.m)
    in_dr = pair.positions
    bad: list[str] = []
    checked = 0
    for x in sorted(in_dr):
        a, b = (r, t) if r in sys_.right_descents[x] else (t, r)
        col_a, col_b = sys_.right_by_gen[a], sys_.right_by_gen[b]
        acc = table.expand_to_kl_coeffs(
            structure_coefficients(table, kl, x, b, "right"))
        column = _column(table, x)
        support = set(acc).union(*((col_a[u], col_b[u]) for u in column))
        for z in sorted(support & in_dr.keys()):
            got = acc.get(z, ZERO)
            want = sum((column.get(w, ZERO) for w in (col_a[z], col_b[z])
                        if w in in_dr), ZERO)
            checked += 1
            if got != want:
                bad.append(
                    f"coefficient of C[{sys_.id_to_digits(z)}] in "
                    f"B[{sys_.id_to_digits(x)}] C_s{b + 1} is {got}, "
                    f"sliding gives {want}")
    return Report(f"coefficient-sliding (r={r + 1}, t={t + 1})", bad, checked)


# ---------------------------------------------------------------------------
# classification of left relations between two strings

def _neighbour_positions(i: int, k: int, m: int) -> set[int]:
    """The k-step string-neighbour set of position i inside 1..m-1."""
    return {j for j in range(1, m) if abs(j - i) <= k and (j - i - k) % 2 == 0}


def _case_patterns(m: int) -> list[tuple[str, frozenset[tuple[int, int]]]]:
    rng = range(1, m)
    out: list[tuple[str, frozenset[tuple[int, int]]]] = [
        ("empty", frozenset()),
        ("T", frozenset((i, i) for i in rng)),
        ("P", frozenset((i, m - i) for i in rng)),
    ]
    for k in range(1, m - 1):
        out.append((f"N_{k}", frozenset(
            (i, j) for i in rng for j in _neighbour_positions(i, k, m))))
    for l in range(1, max(m - 3, 1)):
        if l <= m - 4:
            out.append((f"PN_{l}", frozenset(
                (i, m - j) for i in rng for j in _neighbour_positions(i, l, m))))
    zig = set()
    for i in range(2, m - 1):
        zig.update({(i - 1, i + 1), (i, i), (i + 1, i - 1)})
    out.append(("Z", frozenset(zig)))
    return out


def classify_string_relation(left: CellPartition, sx: StringDecomposition,
                             sz: StringDecomposition) -> str:
    """Match the set of left-preorder relations {x_i <= z_j} between two full
    strings against the standard case list (up to swapping the strings)."""
    m = sx.m
    rel = frozenset(
        (i + 1, j + 1)
        for i, x in enumerate(sx.elements)
        for j, z in enumerate(sz.elements)
        if left.leq(x, z)
    )
    swapped = frozenset((j, i) for (i, j) in rel)
    for name, pattern in _case_patterns(m):
        if rel == pattern or swapped == pattern:
            return name
    return "nonstandard"


# ---------------------------------------------------------------------------
# cells versus stars

def star_closure_check(left: CellPartition, right: CellPartition,
                       system: CoxeterSystem, r: int, t: int,
                       prime: int = 0) -> Report:
    """Star compatibility of cells for one pair (r, t):

    (a) every right string lies inside one right cell;
    (b) the star image of a left cell contained in D_R(r, t) is a left cell;
    (c) x <= y iff x* <= y* in the left preorder, on D_R(r, t);
    (d) the string-completion of a left cell minus the cell is a union of
        at most m - 2 left cells.

    (c) is checked cell by cell (transport_preorder), cells only partly
    inside D_R(r, t) included.  Its cell map phi sends a left cell inside
    D_R(r, t) to the one left cell that holds its star image, if there is
    one; star is injective, so (b) holds for the cell iff phi names a cell
    of the same size.
    """
    pair = DihedralStrings(system, r, t)
    if not p_bound_ok(prime, pair.m):
        raise PBoundError(
            f"p = {prime} is below the bound for bond order {pair.m}")
    star = pair.star
    dr = frozenset(star)
    phi, bad, checked = transport_preorder(left, left, star)

    for s in pair.strings:
        checked += 1
        if len({right.cell_of[x] for x in s.elements}) != 1:
            bad.append(f"string at {system.id_to_digits(s.elements[0])} "
                       "crosses right cells")

    for i, cell in enumerate(left.cells):
        if not cell <= dr:
            continue
        checked += 1
        if i not in phi or len(left.cells[phi[i]]) != len(cell):
            bad.append(f"star image of left cell {i} is not a left cell")
        completion = frozenset(
            y for x in cell
            for y in pair.strings[pair.positions[x][0]].elements) - cell
        touched = {left.cell_of[y] for y in completion}
        union = frozenset().union(*(left.cells[j] for j in touched)) if touched else frozenset()
        checked += 2
        if union != completion:
            bad.append(f"string completion of left cell {i} is not a union "
                       "of left cells")
        if len(touched) > pair.m - 2:
            bad.append(f"string completion of left cell {i} uses "
                       f"{len(touched)} > m - 2 left cells")
    return Report(f"star-closure (r={r + 1}, t={t + 1})", bad, checked)


# ---------------------------------------------------------------------------
# generalized tau invariants

class TauPartition(NamedTuple):
    """The limit of the refinement sequence, with the iteration count at
    which it stabilized."""

    classes: tuple[frozenset[int], ...]
    class_of: dict[int, int]
    stabilized_at: int

    def as_sets(self) -> set[frozenset[int]]:
        return set(self.classes)


def _refine(columns: list) -> list[int]:
    """Class ids by element id of the partition into equal rows of the
    columns (lists indexed by element id), numbered by first occurrence."""
    ids: dict[tuple, int] = {}
    return [ids.setdefault(key, len(ids)) for key in zip(*columns)]


def _fixpoint(system: CoxeterSystem,
              signature: Callable[[list[int]], list[list]]) -> TauPartition:
    """Refine the partition by right descent sets until the columns of
    signature(class ids) split no class.  Ids increase with length, so the
    numbering by first occurrence is already the order of the classes by
    least length, then least id.

    The callers' string maps send an element outside D_R(r, t) to itself:
    its class, refined from right descent sets, already sets it apart from
    D_R(r, t), so the entry it reads never splits a class."""
    cls = _refine([system.right_descents])
    iterations = 0
    while True:
        nxt = _refine([cls, *signature(cls)])
        iterations += 1
        if nxt == cls:
            break
        cls = nxt
    # one int object per id, shared by the classes and class_of
    class_of = dict(zip(system.elements(), cls))
    classes: list[list[int]] = [[] for _ in range(max(cls) + 1)]
    for x, i in class_of.items():
        classes[i].append(x)
    return TauPartition(classes=tuple(map(frozenset, classes)),
                        class_of=class_of, stabilized_at=iterations)


def tau_partition(system: CoxeterSystem,
                  orders: tuple[int, ...] = (3, 4)) -> TauPartition:
    """Iterated refinement of right-descent-set equality through neighbour
    multisets of strings, over pairs with bond order 3 or 4 (restrict with
    orders=(3,) when only those pairs are valid at the working prime).

    A pair with m = 3 reads the class of the star image instead of the
    class multiset of the neighbours, which splits classes the same way.
    Its strings are x_1, x_2, so `neighbours` sends x_1 to (x_2, x_2) and
    x_2 to (x_1, x_1), while `star` swaps the two (position k goes to
    3 - k); outside D_R(r, t) both maps fix x.  So the multiset key is
    (c, c) exactly where the star key is c, and two elements share one key
    iff they share the other.  The classes are numbered by first
    occurrence in id order, whatever the keys, so `classes`, `class_of`
    and `stabilized_at` are those of the neighbour multisets."""
    pairs = [(r, t, m) for r in range(system.rank)
             for t in range(r + 1, system.rank)
             if (m := system.coxeter_matrix[r][t]) in orders]
    # one map at a time, each dict freed once its list is built
    stars = [[star.get(x, x) for x in system.elements()]
             for star in (DihedralStrings(system, r, t).star
                          for r, t, m in pairs if m == 3)]
    bonds = [[nbrs.get(x, (x, x)) for x in system.elements()]
             for nbrs in (DihedralStrings(system, r, t).neighbours
                          for r, t, m in pairs if m != 3)]

    def signature(cls: list[int]) -> list[list]:
        # m = 3: the class of the star image; otherwise the class multiset
        # of the two neighbours, sorted
        return [*([cls[y] for y in images] for images in stars),
                *([(a, b) if (a := cls[i]) <= (b := cls[j]) else (b, a)
                   for i, j in nbrs] for nbrs in bonds)]

    return _fixpoint(system, signature)


def tau_tilde_partition(system: CoxeterSystem) -> TauPartition:
    """Same fixpoint scheme, refining by star images over every pair with
    finite bond order at least 3."""
    maps = (DihedralStrings(system, r, t).star
            for r in range(system.rank) for t in range(r + 1, system.rank)
            if system.coxeter_matrix[r][t] >= 3)
    bonds = [[star.get(x, x) for x in system.elements()] for star in maps]

    def signature(cls: list[int]) -> list[list]:
        return [[cls[y] for y in images] for images in bonds]

    return _fixpoint(system, signature)
