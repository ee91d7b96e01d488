"""Cells of the canonical basis: preorders, partitions, graphs.

The left/right cell preorder is generated by one-generator multiplications:
there is an elementary relation y -> x (meaning x lies below y) whenever
B_x appears with nonzero coefficient in B_y C_s for some generator s (right
side; the mirror for left).  Away from the rows of the table, that support
is read off the Kazhdan-Lusztig W-graph: for s not in D(y),

    C_y C_s = C_ys + sum of mu(z, y) C_z over z < y with s in D(z)

(Kazhdan-Lusztig 1979), so y -> y when D(y) is nonempty, y -> ys for s not
in D(y), and y -> z whenever mu(z, y) != 0 and D(z) is not inside D(y).
Only a y with a row, or whose W-graph successors meet a rowed element, is
multiplied out (elementary_relations); at p = 0 none is.  Cells are the
strongly connected components of the elementary-relation graph, and the
condensation DAG (kept transitively reduced for display, with full
reachability for queries) is the Hasse diagram of the induced order on
cells.  Only the right relation is built: for an inverse-symmetric table
the left cells are the inverse image of the right ones
(left_cells_from_right).  Two-sided cells are the join of the one-sided
cells: the two-sided preorder is the one generated by the left and right
preorders, so it is read off the two partitions (two_sided_cells) and no
two-sided relation graph is built.

Also here: the descent and inverse-duality consistency checks,
right-minimal elements, the decomposition criterion comparing a
positive-characteristic table against the p = 0 cells, parabolic
compatibility and propagation checks, and coloured W-graphs of cell
modules with their defining-relation verification.  The
checkers take the partitions of W that they read, so a caller computes
each partition once; partitions of parabolic subgroups are computed inside.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, count
from typing import Hashable, Iterable, Mapping, Sequence

from .coxeter import CoxeterSystem
from .hecke import KLTable, compute_kl_table
from .laurent import LaurentPoly
from .pcanonical import (PCanTable, identity_table, require_same_group,
                         restrict_to_parabolic, structure_coefficients)
from .report import Report


# ---------------------------------------------------------------------------
# graph utilities

def strongly_connected_components(vertices: Sequence[int],
                                  succ: Mapping[int, Iterable[int]]
                                  ) -> list[list[int]]:
    """Tarjan's algorithm, iterative.  Components in reverse topological
    order (sources last).  The state lives in lists indexed by vertex, so
    vertices are non-negative ints and every successor is a vertex."""
    size = max(vertices, default=-1) + 1
    index = [-1] * size
    low = [0] * size
    on_stack = [False] * size
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0

    for root in vertices:
        if index[root] >= 0:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ.get(w, ()))))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def transitive_reduction(children: Sequence[Iterable[int]],
                         reach: Sequence[set[int]]) -> set[tuple[int, int]]:
    """The edges u -> v of a DAG not implied by a longer path: no other
    child of u reaches v.  reach[w] is the set of vertices reachable from
    w, w included."""
    return {(u, v) for u, vs in enumerate(children) for v in vs
            if not any(w != v and v in reach[w] for w in vs)}


# ---------------------------------------------------------------------------
# cell partitions

class CellPartition:
    """A partition of the group into cells plus the condensation of the
    preorder, in the shape of stars.TauPartition: cells[i] lists the ids
    of cell i in increasing order, and cell_of[x] is the cell of id x.
    Cells are numbered by first occurrence in id order, that is by minimum
    id, which is the order of (minimum element length, minimum id): ids
    are in length order.  downsets give full reachability, hasse_edges the
    reduced diagram, both over cell indices."""

    def __init__(self, side: str, prime: int,
                 cells: tuple[tuple[int, ...], ...], cell_of: tuple[int, ...],
                 hasse_edges: frozenset[tuple[int, int]],
                 downsets: tuple[frozenset[int], ...]):
        self.side = side
        self.prime = prime
        self.cells = cells
        self.cell_of = cell_of
        self.hasse_edges = hasse_edges
        self.downsets = downsets  # cell indices <= each cell

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.side, self.prime, self.cells, self.cell_of,
                 self.hasse_edges, self.downsets)
                == (other.side, other.prime, other.cells, other.cell_of,
                    other.hasse_edges, other.downsets))

    def __repr__(self) -> str:
        return (f"CellPartition(side={self.side!r}, prime={self.prime!r}, "
                f"cells={self.cells!r}, cell_of={self.cell_of!r}, "
                f"hasse_edges={self.hasse_edges!r}, "
                f"downsets={self.downsets!r})")

    def leq(self, x: int, y: int) -> bool:
        """x <= y in the element preorder.  An id outside 0..|W|-1 raises
        IndexError: cell_of is a tuple, which would read a negative id
        from its end."""
        if x < 0 or y < 0:
            raise IndexError(f"element ids {x}, {y}: ids are non-negative")
        return self.cell_of[x] in self.downsets[self.cell_of[y]]

    def to_json_obj(self, system: CoxeterSystem) -> dict:
        digits = system.digit_strings()
        return {
            "side": self.side,
            "p": self.prime,
            "cells": [sorted(digits[w] for w in c) for c in self.cells],
            "edges": sorted([i, j] for (i, j) in self.hasse_edges),
        }

    def to_dot(self, system: CoxeterSystem) -> str:
        lines = ["digraph cells {"]
        digits = system.digit_strings()
        for i, c in enumerate(self.cells):
            label = "{" + ", ".join(
                sorted((digits[w] or "e") for w in c)) + "}"
            lines.append(f'  c{i} [label="{label}"];')
        for (i, j) in sorted(self.hasse_edges):
            lines.append(f"  c{i} -> c{j};")
        lines.append("}")
        return "\n".join(lines)


def elementary_relations(table: PCanTable, kl: KLTable, side: str
                         ) -> dict[int, set[int]]:
    """Successor sets of the elementary relation: y -> x whenever B_x
    occurs in B_y C_s for some generator s (descent self-loops included).
    Only the support of each product matters, so no labels are kept.

    For s in D(y), the right (left) descent set, B_y C_s = (v + v^-1) B_y
    for every table (structure_coefficients): the self-loop alone.  For s
    not in D(y), C_y C_s is C_ys plus mu(z, y) C_z over the z < y with s
    in D(z) (C_sy and the left descents on the left; see the module
    docstring), and kl.mu[y] holds exactly the nonzero mu(z, y).  So the
    union of these supports over s is read off the W-graph in one pass
    over kl.mu[y]: the ascent neighbours, and the z whose D(z) is not
    inside D(y).  When y has no row, B_y = C_y; when no element of the
    union has a row either, each C_z in it is B_z.  That is the rule by
    which structure_coefficients skips its back-substitution, applied to
    the union, so the union is the answer.  Any other y is multiplied out
    one generator at a time; at p = 0 there is none.  Raises ValueError
    for a side other than left or right, or if the two tables live over
    different groups.
    """
    sys_ = table.system
    descents = sys_.descents(side)
    require_same_group(table, kl)
    cols, inv, mu, rows = sys_.right_by_gen, sys_.inverse, kl.mu, table.rows
    gens = range(sys_.rank)
    succ: dict[int, set[int]] = {}
    for y, dy in enumerate(descents):
        if side == "right":
            graph = [cols[s][y] for s in gens if s not in dy]
        else:
            iy = inv[y]
            graph = [inv[cols[s][iy]] for s in gens if s not in dy]
        graph += [z for z in mu[y] if not descents[z] <= dy]
        if dy:
            graph.append(y)
        if rows and (y in rows or not rows.keys().isdisjoint(graph)):
            out = {y} if dy else set()
            for s in gens:
                if s not in dy:
                    out.update(structure_coefficients(table, kl, y, s, side))
            succ[y] = out
        else:
            # the elements are distinct; a set built from a dict is sized
            # for them at once, where one grown by single adds takes up to
            # four times the slots
            succ[y] = set(dict.fromkeys(graph))
    return succ


def _renumber(labels: Iterable[Hashable]) -> list[int]:
    """The labels, one per element id in id order, replaced by class ids
    numbered by first occurrence."""
    # a new label takes the next id, at C speed
    ids: defaultdict[Hashable, int] = defaultdict(count().__next__)
    return list(map(ids.__getitem__, labels))


def _classes(class_of: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The classes of a class id per element id: class i lists its ids in
    increasing order."""
    classes: list[list[int]] = [[] for _ in range(max(class_of) + 1)]
    for x, i in enumerate(class_of):
        classes[i].append(x)
    return tuple(map(tuple, classes))


def _partition_from_graph(system: CoxeterSystem,
                          succ: Mapping[int, Iterable[int]], side: str,
                          prime: int) -> CellPartition:
    """Condense a successor map over the group's ids: cells are its
    strongly connected components, numbered by minimum id, and each
    cell's downset is filled from its children as Tarjan's algorithm
    returns the components, sinks first."""
    comps = strongly_connected_components(list(system.elements()), succ)
    label = [0] * system.size
    for k, comp in enumerate(comps):
        for w in comp:
            label[w] = k
    cell_of = _renumber(label)
    children: list[set[int]] = [set() for _ in comps]
    reach: list[frozenset[int]] = [frozenset()] * len(comps)
    for comp in comps:  # sinks first, so each child's reach is complete
        i = cell_of[comp[0]]
        children[i] = {cell_of[x] for y in comp for x in succ.get(y, ())} - {i}
        reach[i] = frozenset({i}).union(*(reach[j] for j in children[i]))
    return CellPartition(side=side, prime=prime, cells=_classes(cell_of),
                         cell_of=tuple(cell_of),
                         hasse_edges=frozenset(
                             transitive_reduction(children, reach)),
                         downsets=tuple(reach))


def two_sided_cells(system: CoxeterSystem, left: CellPartition,
                    right: CellPartition) -> CellPartition:
    """The two-sided cells: the join of a left and a right partition.

    The successor map has one cycle through each one-sided cell and one
    edge per Hasse edge of either partition, between the cells' minimal
    ids.  Condensing it gives exactly the partition that condensing the
    union of the left and right elementary-relation graphs gives:

      * the map's reachability is the closure of <=_L union <=_R, which is
        the two-sided preorder <=_LR (Kazhdan-Lusztig 1979);
      * cells, their order and the downsets depend only on that preorder;
      * the transitive reduction of a DAG is its covering relation,
        whichever edges generate the order.
    """
    if ((left.side, right.side) != ("left", "right")
            or left.prime != right.prime
            or not len(left.cell_of) == system.size == len(right.cell_of)):
        raise ValueError("two_sided_cells needs a left and a right partition "
                         "of the group at the same prime")
    succ: dict[int, list[int]] = {w: [] for w in system.elements()}
    for part in (left, right):
        for cell in part.cells:
            for a, b in zip(cell, cell[1:] + cell[:1]):
                succ[a].append(b)
        for (i, j) in part.hasse_edges:
            succ[part.cells[i][0]].append(part.cells[j][0])
    return _partition_from_graph(system, succ, "two-sided", left.prime)


def left_cells_from_right(table: PCanTable, right: CellPartition
                          ) -> CellPartition:
    """The left cells of an inverse-symmetric table, read off its right
    cells: the left cell of x is the image of the right cell of x^-1, so
    cell_of is right.cell_of read through the inverse map and renumbered
    by first occurrence, and the Hasse edges and downsets are carried
    along through that renumbering.

    When m(y, x) = m(y^-1, x^-1) for all y, x, the anti-involution iota
    sends B_x to B_{x^-1} and B_y C_s to C_s B_{y^-1}, so y -> x is a right
    elementary relation iff y^-1 -> x^-1 is a left one: the left relation
    graph is the right one relabelled through x -> x^-1, and so are its
    cells, reachability and covering relation.  Raises ValueError naming
    a pair that breaks the symmetry.
    """
    system = table.system
    inv = system.inverse
    if right.side != "right":
        raise ValueError("left_cells_from_right needs a right partition")
    for x, row in table.rows.items():
        for y, m in row.items():
            partner = table.m(inv[y], inv[x])
            if partner != m:
                digits = system.id_to_digits
                raise ValueError(
                    f"the table is not inverse-symmetric: m({digits(y)}, "
                    f"{digits(x)}) = {m} but m({digits(inv[y])}, "
                    f"{digits(inv[x])}) = {partner}")
    cell_of = tuple(_renumber(map(right.cell_of.__getitem__, inv)))
    # new[i] is the left cell of the image of right cell i, old inverts it
    new = [cell_of[inv[c[0]]] for c in right.cells]
    old = sorted(range(len(new)), key=new.__getitem__)
    return CellPartition(
        side="left", prime=right.prime, cells=_classes(cell_of),
        cell_of=cell_of,
        hasse_edges=frozenset((new[i], new[j]) for i, j in right.hasse_edges),
        downsets=tuple(frozenset(map(new.__getitem__, right.downsets[i]))
                       for i in old))


def compute_cells(table: PCanTable, kl: KLTable, side: str) -> CellPartition:
    """Cells of the given side: "left", "right", or "two-sided", the join
    of the left and right cells.  Only the right relation is built: left
    cells are its inverse image (left_cells_from_right), so "left" and
    "two-sided" raise ValueError on a table that is not inverse-symmetric.
    Any other side, or a KL table of another group, raises ValueError
    before any product is computed."""
    if side not in ("left", "right", "two-sided"):
        raise ValueError(
            f"unknown side {side!r}: use 'left', 'right' or 'two-sided'")
    right = _partition_from_graph(table.system,
                                  elementary_relations(table, kl, "right"),
                                  "right", table.prime)
    if side == "right":
        return right
    left = left_cells_from_right(table, right)
    return left if side == "left" else two_sided_cells(table.system, left,
                                                       right)


# ---------------------------------------------------------------------------
# structural checks on partitions

def check_descent_invariant(partition: CellPartition, system: CoxeterSystem
                            ) -> Report:
    """Right-preorder relations shrink left descent sets: y <= x implies
    the left descents of x are contained in those of y (mirror for left);
    consequently each fixed-descent-set stratum is a union of cells.  A
    partition that is not one-sided raises ValueError."""
    # the right preorder keeps left descent sets, the left one right ones
    desc = system.descents({"right": "left", "left": "right"}.get(
        partition.side, partition.side))
    bad: list[str] = []
    checked = 0
    cell_desc: list[frozenset[int] | None] = []
    for i, cell in enumerate(partition.cells):
        ds = {desc[w] for w in cell}
        if len(ds) != 1:
            bad.append(f"cell {i} mixes descent sets {sorted(map(sorted, ds))}")
            cell_desc.append(None)
        else:
            cell_desc.append(next(iter(ds)))
        checked += len(cell)
    for j in range(len(partition.cells)):
        for i in partition.downsets[j]:
            checked += 1
            if i == j or cell_desc[i] is None or cell_desc[j] is None:
                continue
            if not (cell_desc[j] <= cell_desc[i]):
                bad.append(f"cells {i} <= {j} violate descent inclusion")
    return Report(f"descent-invariant[{partition.side}]", bad, checked)


def _cell_map(source: CellPartition, target: CellPartition,
              f: Mapping[int, int]) -> tuple[dict[int, int], list[str]]:
    """The cells of source that f sends into one target cell, each mapped
    to that cell, and a violation for each cell it sends into several.
    Only the cells meeting the keys of f are considered."""
    images: dict[int, set[int]] = {}
    for x, fx in f.items():
        images.setdefault(source.cell_of[x], set()).add(target.cell_of[fx])
    bad = [f"{source.side} cell {i} is sent into {len(images[i])} "
           f"{target.side} cells" for i in sorted(images)
           if len(images[i]) > 1]
    return {i: min(js) for i, js in sorted(images.items()) if len(js) == 1}, bad


def transport_preorder(source: CellPartition, target: CellPartition,
                       f: Mapping[int, int]
                       ) -> tuple[dict[int, int], list[str], int]:
    """Check that x <= y in source iff f(x) <= f(y) in target, for all x, y
    in the keys of f (the domain D), cell by cell.

    Write D_i for the part of source cell i inside D.  Whether x <= y
    depends only on the cells of x and y, and two distinct cells are never
    each <= the other (the downsets are the reachability of a DAG).  So the
    statement holds iff
      (1) f sends each nonempty D_i into one target cell phi(i), and
      (2) j is in source.downsets[i] iff phi(j) is in
          target.downsets[phi(i)], for all cells i, j meeting D.
    If the statement holds, any x, y in one D_i are each <= the other, so
    f(x) and f(y) are too and lie in one target cell, which is (1); then
    for x in D_j and y in D_i, (2) reads x <= y iff f(x) <= f(y).
    Conversely (1) and (2) give x <= y iff j in downsets[i] iff phi(j) in
    target.downsets[phi(i)] iff f(x) <= f(y).  D_i may be a proper part
    of its cell.  The cost is O(|D| + cells^2), not |D|^2 element pairs.

    Returns phi on the cells that satisfy (1) (_cell_map), the violations,
    and the number of checks: one per source cell meeting D plus one per
    pair of cells in phi compared under (2).
    """
    phi, bad = _cell_map(source, target, f)
    checked = len(phi) + len(bad)
    for i, fi in phi.items():
        for j, fj in phi.items():
            checked += 1
            below = j in source.downsets[i]
            if below != (fj in target.downsets[fi]):
                bad.append(f"{source.side} cells {j} <= {i} is {below}, but "
                           f"for their {target.side} images {fj} <= {fi} "
                           f"is {not below}")
    return phi, bad, checked


def inverse_duality_check(left: CellPartition, right: CellPartition,
                          system: CoxeterSystem) -> Report:
    """x <= y on one side iff x^-1 <= y^-1 on the other, on full preorders,
    checked cell by cell (transport_preorder).

    compute_cells derives left cells from right ones through the inverse
    map (left_cells_from_right), so on its partitions this checks that
    relabelling; it is an independent check only on a left partition
    condensed from elementary_relations(table, kl, "left")."""
    _, bad, checked = transport_preorder(left, right,
                                         dict(enumerate(system.inverse)))
    return Report("inverse-duality", bad, checked)


# ---------------------------------------------------------------------------
# weak-order combinatorics

def right_minimal_elements(system: CoxeterSystem, subset: Iterable[int]
                           ) -> frozenset[int]:
    """Elements not reachable from a shorter subset element along an
    increasing right-multiplication chain inside the subset; equivalently,
    with no weak-order predecessor in the subset."""
    subset = set(subset)
    return frozenset(
        w for w in subset
        if not any(system.right_by_gen[s][w] in subset
                   for s in system.right_descents[w])
    )


def _is_union(partition: CellPartition, touched: set[int], size: int) -> bool:
    """Whether a set of `size` elements is the union of the cells it
    touches, the cell indices `touched`.  Those cells cover the set and are
    disjoint, so it is their union iff their sizes add up to its size."""
    return sum(len(partition.cells[i]) for i in touched) == size


def decomposition_criterion(table: PCanTable, kl_right: CellPartition,
                            p_right: CellPartition) -> dict[int, Report]:
    """For each KL right cell C, check the right-minimal hypothesis: every
    nonzero m(y, x) with x right-minimal in C has y below x in the p = 0
    right preorder.  When the hypothesis holds on C and on every cell below
    it, C must decompose into cells of the table's prime; that conclusion
    is verified too, against the right cells p_right of the table, and
    reported as part of each cell's checks."""
    sys_ = table.system
    hypothesis: dict[int, bool] = {}
    out: dict[int, Report] = {}
    for i, cell in enumerate(kl_right.cells):
        bad: list[str] = []
        checked = 0
        for x in right_minimal_elements(sys_, cell):
            for y in table.rows.get(x, {}):
                checked += 1
                if not kl_right.leq(y, x):
                    bad.append(
                        f"m({sys_.id_to_digits(y)}, {sys_.id_to_digits(x)}) != 0 "
                        f"but {sys_.id_to_digits(y)} is not below in the "
                        f"p=0 right preorder")
        hypothesis[i] = not bad
        out[i] = Report(f"decomposition-criterion cell {i}", bad, checked)

    for i, cell in enumerate(kl_right.cells):
        if not all(hypothesis[j] for j in kl_right.downsets[i]):
            continue
        pieces = {p_right.cell_of[w] for w in cell}
        out[i].checked += 1
        if not _is_union(p_right, pieces, len(cell)):
            out[i].violations.append(
                "criterion applies below this cell but the cell is not a "
                "union of p-cells")
    return out


# ---------------------------------------------------------------------------
# coloured W-graphs

class ColouredWGraph:
    """A based module over the Hecke algebra presented as a decorated graph.

    Vertices carry descent subsets I_x; a directed edge (x, y) carries one
    Laurent label per generator moving x to y.  The generator action is
    tau_s(x) = (v + v^-1) x when s is in I_x, else the labelled sum over
    out-edges whose target has s in its descent set.
    """

    def __init__(self, side: str, vertices: tuple[int, ...],
                 descent_sets: dict[int, frozenset[int]],
                 edges: dict[tuple[int, int], dict[int, LaurentPoly]]):
        self.side = side
        self.vertices = vertices
        self.descent_sets = descent_sets
        self.edges = edges

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.side, self.vertices, self.descent_sets, self.edges)
                == (other.side, other.vertices, other.descent_sets,
                    other.edges))

    def __repr__(self) -> str:
        return (f"ColouredWGraph(side={self.side!r}, "
                f"vertices={self.vertices!r}, "
                f"descent_sets={self.descent_sets!r}, edges={self.edges!r})")


def subquotient_wgraph(table: PCanTable, kl: KLTable, elements: Iterable[int],
                       side: str) -> ColouredWGraph:
    """The coloured W-graph of the generator action on a subquotient
    spanned by canonical basis elements indexed by the given set.  Raises
    ValueError for a side other than left or right, or if the two tables
    live over different groups."""
    sys_ = table.system
    desc = sys_.descents(side)
    require_same_group(table, kl)
    vertex_set = frozenset(elements)
    vertices = tuple(sorted(vertex_set, key=lambda w: (sys_.length[w], w)))
    descent_sets = {v: desc[v] for v in vertices}
    edges: dict[tuple[int, int], dict[int, LaurentPoly]] = {}
    for x in vertices:
        for s in range(sys_.rank):
            if s in desc[x]:
                continue
            for y, c in structure_coefficients(table, kl, x, s, side).items():
                if y == x or y not in vertex_set:
                    continue
                edges.setdefault((x, y), {})[s] = c
    return ColouredWGraph(side=side, vertices=vertices,
                          descent_sets=descent_sets, edges=edges)


def extract_wgraph(partition: CellPartition, cell_index: int, table: PCanTable,
                   kl: KLTable) -> ColouredWGraph:
    """The coloured W-graph of one cell (side taken from the partition).
    A cell_index outside 0..len(partition.cells)-1 raises IndexError, and
    a partition that is not one-sided ValueError, as subquotient_wgraph
    refuses its side."""
    if not 0 <= cell_index < len(partition.cells):
        raise IndexError(f"cell index {cell_index} is outside "
                         f"0..{len(partition.cells) - 1}")
    return subquotient_wgraph(table, kl, partition.cells[cell_index],
                              partition.side)


def verify_wgraph_relations(graph: ColouredWGraph, system: CoxeterSystem
                            ) -> Report:
    """Check that the generator actions define a Hecke-algebra module: each
    tau_s satisfies tau^2 = (v + v^-1) tau, and the shifted operators
    T_s = tau_s - v satisfy the braid relations.  Two operators are equal
    iff they agree on every vertex, so each side is applied to each vertex
    as a sparse vector.

    The quadratic relation holds by construction: every column of tau_s
    lands in the span of the vertices with s in their descent set, where
    tau_s is v + v^-1.  It is checked all the same, at one product per
    column.

    The arithmetic is on Python ints.  Let L >= 1 be the least shift that
    clears every negative exponent of the labels that tau reads and of
    v^-1.  Then P_s = v^L tau_s and Q_s = v^L T_s = P_s - v^(L+1) have
    entries in Z[v], and the relations read P_s^2 = v^L (v + v^-1) P_s and
    Q_s Q_t Q_s ... = Q_t Q_s Q_t ... (m factors each), with v^L (v + v^-1)
    = v^(L+1) + v^(L-1) in Z[v].  Each entry is evaluated at v = 2^K once;
    evaluation is a ring homomorphism Z[v] -> Z, so each side of each
    relation, applied to a vertex, is computed exactly at 2^K.

    The bound.  Write |f| for the sum of the absolute values of the
    coefficients of f in Z[v]; |fg| <= |f| |g|.  The column norm of a
    matrix over Z[v], the largest sum of |entry| down a column, is then
    submultiplicative, and bounds every coefficient of every entry.  Let N
    be the largest column norm of any P_s (at least 2, that of the column
    v^(L+1) + v^(L-1) of a descent).  Each Q_s has column norm at most
    N + 1, so a word of m factors has coefficients at most (N + 1)^m;
    P_s^2 at most N^2 and v^L (v + v^-1) P_s at most 2N.  With M the
    largest finite bond order (2 when there is none), every coefficient
    that either side of any relation reaches is at most B = (N + 1)^M.

    Exactness.  K is the bit length of 2B, so B < 2^(K-1).  Two sides f
    and g with coefficients of absolute value at most B differ by h whose
    coefficients have absolute value below 2^K.  If h != 0 has degree d,
    its top term has absolute value at least 2^(Kd) at 2^K, and the rest
    at most (2^K - 1)(1 + 2^K + ... + 2^(K(d-1))) = 2^(Kd) - 1, so
    h(2^K) != 0.  Hence f = g iff f(2^K) = g(2^K), and the vectors compare
    exactly as dicts of ints (zero entries aside).  K is read off the
    graph, so no coefficient can overflow it.
    """
    desc = graph.descent_sets
    # the labels that tau reads: column a of tau_s has entry b
    entries = [(s, a, b, c.to_pairs()) for (a, b), labels in graph.edges.items()
               for s, c in labels.items() if s not in desc[a] and s in desc[b]]
    shift = max([1] + [-e for *_, pairs in entries for e, _ in pairs])
    norms: defaultdict[tuple[int, int], int] = defaultdict(int)
    for s, a, _, pairs in entries:
        norms[s, a] += sum(abs(c) for _, c in pairs)
    norm = max([2, *norms.values()])
    order = max([2, *(m for row in system.coxeter_matrix for m in row
                      if m > 1)])
    width = (2 * (norm + 1) ** order).bit_length()
    # v^L (v + v^-1) and v^(L+1) at 2^K
    gauss = (1 << width * (shift + 1)) + (1 << width * (shift - 1))
    vee = 1 << width * (shift + 1)
    tau: list[dict[int, dict[int, int]]] = [
        {x: {x: gauss} if s in desc[x] else {} for x in graph.vertices}
        for s in range(system.rank)]
    for s, a, b, pairs in entries:
        tau[s][a][b] = sum(c << width * (e + shift) for e, c in pairs)
    shifted = [{x: {**col, x: col.get(x, 0) - vee}
                for x, col in columns.items()} for columns in tau]

    def apply(columns: dict[int, dict[int, int]], vec: dict[int, int]
              ) -> dict[int, int]:
        out: dict[int, int] = {}
        get = out.get
        for x, c in vec.items():
            for y, d in columns[x].items():
                out[y] = get(y, 0) + d * c
        return out

    def same(u: dict[int, int], w: dict[int, int]) -> bool:
        # sums that cancel leave zero entries
        return u == w or ({y: c for y, c in u.items() if c}
                          == {y: c for y, c in w.items() if c})

    def braid_word(x: int, first: int, second: int, m: int) -> dict[int, int]:
        # the first operator sends x to its column
        vec = shifted[first][x]
        for k in range(1, m):
            vec = apply(shifted[(first, second)[k % 2]], vec)
        return vec

    bad: list[str] = []
    checked = 0
    for s, columns in enumerate(tau):
        checked += 1
        if not all(same(apply(columns, col),
                        {y: gauss * c for y, c in col.items()})
                   for col in columns.values()):
            bad.append(f"tau_{s + 1}^2 != (v + v^-1) tau_{s + 1}")
    for s in range(system.rank):
        for t in range(s + 1, system.rank):
            m = system.coxeter_matrix[s][t]
            if m == 0:
                continue
            checked += 1
            if not all(same(braid_word(x, s, t, m), braid_word(x, t, s, m))
                       for x in graph.vertices):
                bad.append(f"braid relation fails for pair ({s + 1}, {t + 1})")
    return Report("wgraph-relations", bad, checked)


def check_parabolic_compatibility(table: PCanTable, w_right: CellPartition,
                                  gens: Sequence[int]) -> Report:
    """The transport of the right preorder along a finitary subset I:
    for y, z in W_I, z <= y in W_I iff xz <= xy in W for every x in W^I
    (w_right the right cells of W for the table, the subgroup preorder
    computed with the restricted table).

    Only the conjunction over x is asserted: the reading "z <= y iff
    xz <= xy" for each x on its own fails for some x on every proper
    subset I of A3, B3, C3 and F4, and on every subset tried of D5 and B5
    (p = 0).

    Checked cell by cell.  The statement forces each map z -> xz to send
    each W_I cell into one W cell: for z, y in one W_I cell, z <= y and
    y <= z, so xz <= xy and xy <= xz for every x, and distinct cells are
    never each <= the other.  Given that, with phi_x the cell map of
    z -> xz (_cell_map), whether xz <= xy depends only on the W_I cells j
    of z and i of y, and the statement reads
        j in downsets_I[i]  iff  phi_x(j) in downsets[phi_x(i)] for all x
    for every pair of W_I cells.  A cell that some phi_x splits already
    fails the statement, so only the pairs of cells that every phi_x maps
    are compared.  The cost is O(|W^I| (|W_I| + cells^2)), not
    |W^I| |W_I|^2 triples, and the products x y are read off the columns
    (CoxeterSystem.products).  The count is one check per coset
    representative and W_I cell, plus one per pair of cells compared.
    """
    sys_ = table.system
    emb = sys_.parabolic_subsystem(gens)
    sub_right = compute_cells(restrict_to_parabolic(table, emb),
                              compute_kl_table(emb.sub), "right")
    bad: list[str] = []
    maps = []
    reps = sys_.minimal_coset_representatives(gens, "right")
    # row k holds x y for x = reps[k] and y over the subgroup's ids
    rows = zip(*sys_.products(reps, emb.to_parent).values())
    for x, row in zip(reps, rows):
        phi, split = _cell_map(sub_right, w_right, dict(enumerate(row)))
        bad += [f"x={sys_.id_to_digits(x) or 'e'}: {v}" for v in split]
        maps.append(phi)
    cells = sorted(set.intersection(*map(set, maps)))
    checked = len(maps) * len(sub_right.cells)
    for i in cells:
        for j in cells:
            inner = j in sub_right.downsets[i]
            outer = all(phi[j] in w_right.downsets[phi[i]] for phi in maps)
            checked += 1
            if inner != outer:
                bad.append(f"W_I cells {j} <= {i}: subgroup says {inner}, "
                           f"translated cosets say {outer}")
    return Report(f"parabolic-compatibility I={sorted(gens)}", bad, checked)


# ---------------------------------------------------------------------------
# parabolic propagation of (non-)decomposition

def propagate_nondecomposition(table: PCanTable, kl_right: CellPartition,
                               p_right: CellPartition, gens: Sequence[int]
                               ) -> Report:
    """Containment checks behind the lifting of cell structure from a
    standard parabolic subgroup H to W, given the KL right cells kl_right
    and the table's right cells p_right of W.

    Verifies: (a) each KL right cell C of H induces C.X (X the minimal
    representatives of H\\W) as a union of KL right cells of W; (b) each
    right cell of H at the table's prime is contained in a single right
    cell of W; and (c) if some cell of H meets two KL cells of H, the
    containing W-cell meets the two disjoint induced unions, so the KL
    cells of W do not decompose either.

    Check (c) cannot fail once (b) has lifted the cell.  For each KL index
    j of an H p-cell, some y of the cell lies in the KL cell C_j, and e is
    a minimal coset representative, so emb.to_parent[y] = y e lies in
    induced[j]; (b) put it in big.  So (c) holds by construction, and can
    fail only through wrong coset products.
    """
    system = table.system
    emb = system.parabolic_subsystem(gens)
    sub_kl = compute_kl_table(emb.sub)
    sub_kl_cells = compute_cells(identity_table(emb.sub), sub_kl, "right")
    sub_p_cells = compute_cells(restrict_to_parabolic(table, emb), sub_kl,
                                "right")

    x_reps = system.minimal_coset_representatives(gens, "left")
    bad: list[str] = []
    checked = 0

    induced: list[frozenset[int]] = []
    for c in sub_kl_cells.cells:
        cx = frozenset(chain.from_iterable(system.products(
            [emb.to_parent[y] for y in c], x_reps).values()))
        induced.append(cx)
        touched = {kl_right.cell_of[w] for w in cx}
        checked += 1
        if not _is_union(kl_right, touched, len(cx)):
            bad.append(f"C.X for H-cell {list(c)} is not a union of W-cells")

    lifted_cell: dict[int, int] = {}
    for i, c in enumerate(sub_p_cells.cells):
        parents = {p_right.cell_of[emb.to_parent[y]] for y in c}
        checked += 1
        if len(parents) != 1:
            bad.append(f"H p-cell {i} spreads over {len(parents)} W p-cells")
        else:
            lifted_cell[i] = next(iter(parents))

    for i, c in enumerate(sub_p_cells.cells):
        kl_indices = {sub_kl_cells.cell_of[y] for y in c}
        if len(kl_indices) < 2 or i not in lifted_cell:
            continue
        big = p_right.cells[lifted_cell[i]]
        for j in kl_indices:
            checked += 1
            if induced[j].isdisjoint(big):
                bad.append(
                    f"witness cell {i} misses the induced union of H-cell {j}")
    return Report(f"nondecomposition-propagation I={sorted(gens)}", bad, checked)
