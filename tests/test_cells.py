import functools
import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcells.cells import (
    _partition_from_graph,
    check_descent_invariant,
    check_parabolic_compatibility,
    compute_cells,
    decomposition_criterion,
    elementary_relations,
    extract_wgraph,
    inverse_duality_check,
    left_cells_from_right,
    propagate_nondecomposition,
    right_minimal_elements,
    strongly_connected_components,
    subquotient_wgraph,
    transitive_reduction,
    two_sided_cells,
    verify_wgraph_relations,
    CellPartition,
    ColouredWGraph,
)
from pcells.coxeter import CoxeterSystem
from pcells.hecke import compute_kl_table
from pcells.laurent import GAUSS, ONE, LaurentPoly
from pcells.pcanonical import (PCanTable, identity_table,
                               restrict_to_parabolic, structure_coefficients)
from pcells.report import Report
from pcells import cells as cells_module
from pcells import verify
from test_coxeter import REDUCIBLE


def _sets(partition):
    """The cells of a partition as a set of frozensets."""
    return set(map(frozenset, partition.cells))


def _index_of(partition, elements):
    """The index of the cell whose elements are the given ones."""
    i = partition.cell_of[min(elements)]
    assert partition.cells[i] == tuple(sorted(elements))
    return i


def test_scc_utility():
    graph = {1: [2], 2: [3], 3: [1, 4], 4: [5], 5: [4], 6: []}
    comps = {frozenset(c) for c in
             strongly_connected_components([1, 2, 3, 4, 5, 6], graph)}
    assert comps == {frozenset({1, 2, 3}), frozenset({4, 5}), frozenset({6})}


def _digraphs(max_vertices=12):
    return st.integers(1, max_vertices).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=3 * n)))


@settings(max_examples=200, deadline=None)
@given(_digraphs())
def test_scc_matches_networkx(graph):
    n, edges = graph
    succ = {v: [] for v in range(n)}
    for u, v in edges:
        succ[u].append(v)
    comps = strongly_connected_components(list(range(n)), succ)
    g = nx.DiGraph(edges)
    g.add_nodes_from(range(n))
    assert {frozenset(c) for c in comps} == \
        {frozenset(c) for c in nx.strongly_connected_components(g)}
    # reverse topological order: a component comes after every component
    # it reaches
    position = {v: i for i, c in enumerate(comps) for v in c}
    assert all(position[v] <= position[u] for u, v in edges)


def _dict_strongly_connected_components(vertices, succ):
    """Tarjan's algorithm with index/low dicts and an on-stack set (the
    previous strongly_connected_components)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


@settings(max_examples=300, deadline=None)
@given(_digraphs(), st.integers(0, 5), st.data())
def test_scc_matches_dict_oracle(graph, offset, data):
    # the same components, each in the same order, on vertex sets that need
    # not start at 0, visited in any order, where some vertices have no
    # successor entry at all
    n, edges = graph
    vertices = data.draw(st.permutations(range(offset, offset + n)))
    succ: dict[int, list[int]] = {}
    for u, v in edges:
        succ.setdefault(u + offset, []).append(v + offset)
    for v in data.draw(st.sets(st.sampled_from(vertices))):
        succ.pop(v, None)
    assert strongly_connected_components(vertices, succ) == \
        _dict_strongly_connected_components(vertices, succ)


@settings(max_examples=200, deadline=None)
@given(_digraphs(), st.data())
def test_transitive_reduction_matches_networkx(graph, data):
    n, pairs = graph
    # acyclic: edges go up in a random order of the vertices
    rank = data.draw(st.permutations(range(n)))
    edges = {(u, v) if rank[u] < rank[v] else (v, u)
             for u, v in pairs if u != v}
    g = nx.DiGraph(edges)
    g.add_nodes_from(range(n))
    children = [sorted(g.successors(u)) for u in range(n)]
    reach = [nx.descendants(g, u) | {u} for u in range(n)]
    assert transitive_reduction(children, reach) == \
        set(nx.transitive_reduction(g).edges())


def test_a1_cells():
    a1 = CoxeterSystem.from_type("A1")
    kl = compute_kl_table(a1)
    tab = identity_table(a1)
    graph = elementary_relations(tab, kl, "right")
    assert graph[0] == {1}               # B_e C_s = B_s
    assert graph[1] == {1}               # descent self-loop
    part = compute_cells(tab, kl, "right")
    assert part.cells == ((0,), (1,)) and part.cell_of == (0, 1)


def _mu_graph_cells(system, kl, side):
    """Independent p = 0 oracle: cells straight from the mu table."""
    succ = {x: set() for x in system.elements()}
    descents = system.right_descents if side == "right" else system.left_descents
    for x in system.elements():
        for s in range(system.rank):
            if s in descents[x]:
                continue
            nxt = (system.right_by_gen[s][x] if side == "right"
                   else system.left_mult(s, x))
            succ[x].add(nxt)
            for z, m in kl.mu[x].items():
                if s in descents[z]:
                    succ[x].add(z)
    comps = strongly_connected_components(list(system.elements()), succ)
    return {frozenset(c) for c in comps}


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "G2"])
def test_p0_cells_match_mu_graph_oracle(label):
    system = verify.get_system(label)
    kl = verify.get_kl(label)
    tab = identity_table(system)
    for side in ("left", "right"):
        assert _sets(compute_cells(tab, kl, side)) == \
            _mu_graph_cells(system, kl, side)


def _labelled_relations(table, kl, side):
    """The elementary-relation graph with edge y -> x labelled by mu^x(y, s)
    summed over generators, keeping keys whose sum is zero (the previous
    elementary_relations)."""
    sys_ = table.system
    graph = {y: {} for y in sys_.elements()}
    for y in sys_.elements():
        row = graph[y]
        for s in range(sys_.rank):
            for x, c in structure_coefficients(table, kl, y, s, side).items():
                prev = row.get(x)
                row[x] = c if prev is None else prev + c
    return graph


def _partition_by_recursive_fill(system, graph, side, prime):
    """Condense a graph into a CellPartition, filling reachability by
    recursion over an edge set without self-loops (the previous
    _partition_from_graph)."""
    succ = {y: [x for x in row if x != y] for y, row in graph.items()}
    comps = strongly_connected_components(list(system.elements()), succ)
    comps.sort(key=lambda c: (min(system.length[w] for w in c), min(c)))
    cells = tuple(tuple(sorted(c)) for c in comps)
    cell_of = {w: i for i, c in enumerate(cells) for w in c}

    n = len(cells)
    edges = set()
    for y, row in graph.items():
        for x in row:
            i, j = cell_of[y], cell_of[x]
            if i != j:
                edges.add((i, j))
    children = [[] for _ in range(n)]
    for (i, j) in edges:
        children[i].append(j)
    reach = [set() for _ in range(n)]

    def fill(i):
        if reach[i]:
            return reach[i]
        acc = {i}
        for j in children[i]:
            acc |= fill(j)
        reach[i] = acc
        return acc

    for i in range(n):
        fill(i)
    hasse = transitive_reduction(children, reach)
    return CellPartition(side=side, prime=prime, cells=cells,
                         cell_of=tuple(cell_of[w] for w in system.elements()),
                         hasse_edges=frozenset(hasse),
                         downsets=tuple(frozenset(r) for r in reach))


def _merged_two_sided_cells(table, kl):
    """The two-sided cells by condensing the union of the left and right
    labelled elementary-relation graphs (the implementation before
    two_sided_cells)."""
    left = _labelled_relations(table, kl, "left")
    right = _labelled_relations(table, kl, "right")
    merged = {y: dict(row) for y, row in right.items()}
    for y, row in left.items():
        tgt = merged[y]
        for x, c in row.items():
            prev = tgt.get(x)
            tgt[x] = c if prev is None else prev + c
    return _partition_by_recursive_fill(table.system, merged, "two-sided",
                                        table.prime)


F4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
D5 = [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
      [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]]
# the reducible group has its generators shuffled, so the oracles'
# (minimum length, minimum id) order of cells checks the order by minimum id
CARTAN = {"F4": F4, "D4": D4, "D5": D5, "reducible": REDUCIBLE}


_ORACLE_CASES = [
    ("A2", 0), ("A3", 0), ("A4", 0), ("A5", 0), ("B2", 0), ("B3", 0),
    ("C3", 0), ("G2", 0), ("B2", 2), ("C3", 2), ("F4", 0), ("reducible", 0)]


@functools.cache
def _table_and_kl(label, prime):
    if label in CARTAN:
        system = CoxeterSystem.from_cartan(CARTAN[label])
        return identity_table(system), compute_kl_table(system)
    return verify.get_table(label, prime), verify.get_kl(label)


@pytest.mark.parametrize("label,prime", _ORACLE_CASES)
def test_two_sided_join_matches_merged_graph_oracle(label, prime):
    table, kl = _table_and_kl(label, prime)
    assert compute_cells(table, kl, "two-sided") == \
        _merged_two_sided_cells(table, kl)


def _old_two_sided_cells(system, left, right):
    """two_sided_cells over the previous condensation."""
    succ = {w: {} for w in system.elements()}
    for part in (left, right):
        for cell in part.cells:
            ring = sorted(cell)
            for a, b in zip(ring, ring[1:] + ring[:1]):
                succ[a][b] = None
        for (i, j) in part.hasse_edges:
            succ[min(part.cells[i])][min(part.cells[j])] = None
    return _partition_by_recursive_fill(system, succ, "two-sided", left.prime)


@pytest.mark.parametrize("label,prime", _ORACLE_CASES)
def test_cells_match_labelled_graph_oracle(label, prime):
    # whole partitions (cells and their order, cell_of, Hasse edges,
    # downsets), one-sided and joined, against the previous path
    table, kl = _table_and_kl(label, prime)
    old = {side: _partition_by_recursive_fill(
               table.system, _labelled_relations(table, kl, side), side,
               table.prime)
           for side in ("left", "right")}
    new = {side: compute_cells(table, kl, side) for side in ("left", "right")}
    assert new == old
    assert two_sided_cells(table.system, new["left"], new["right"]) == \
        _old_two_sided_cells(table.system, old["left"], old["right"])


@pytest.mark.parametrize("label,prime", [
    ("A3", 0), ("B3", 0), ("C3", 0), ("G2", 0), ("F4", 0), ("D5", 0),
    ("B2", 2), ("C3", 2)])
def test_relations_are_the_supports_of_the_products(label, prime):
    # the W-graph reading, and at p = 2 the rowed fallback, against the
    # products of every generator
    table, kl = _table_and_kl(label, prime)
    for side in ("left", "right"):
        assert elementary_relations(table, kl, side) == {
            y: set(row)
            for y, row in _labelled_relations(table, kl, side).items()}


def test_p0_relations_build_no_product(monkeypatch):
    calls = []

    def counting(table, kl, x, s, side="right"):
        calls.append((x, s))
        return structure_coefficients(table, kl, x, s, side)

    monkeypatch.setattr(cells_module, "structure_coefficients", counting)
    for label in ("B3", "G2", "F4"):
        table, kl = _table_and_kl(label, 0)
        for side in ("left", "right"):
            elementary_relations(table, kl, side)
    assert calls == []
    # at p = 2 only the y whose products meet a row are multiplied out
    table, kl = _table_and_kl("C3", 2)
    elementary_relations(table, kl, "right")
    assert 0 < len({x for x, _ in calls}) < table.system.size


def test_cells_reject_a_kl_table_of_another_group(a3, kl_a3, kl_b3, kl_a2):
    # B3's table used to give A3's ids wrong answers, {5: v^-1 + v} and a
    # 35-edge W-graph, and A2's raised IndexError
    table = identity_table(a3)
    left = compute_cells(table, kl_a3, "left")
    for kl in (kl_b3, kl_a2):
        with pytest.raises(ValueError, match="different groups"):
            elementary_relations(table, kl, "right")
        for side in ("left", "right", "two-sided"):
            with pytest.raises(ValueError, match="different groups"):
                compute_cells(table, kl, side)
        for side in ("left", "right"):
            with pytest.raises(ValueError, match="different groups"):
                structure_coefficients(table, kl, 5, 0, side)
            with pytest.raises(ValueError, match="different groups"):
                subquotient_wgraph(table, kl, range(a3.size), side)
        with pytest.raises(ValueError, match="different groups"):
            extract_wgraph(left, 0, table, kl)


def _direct_partition(table, kl, side):
    """The partition of one side condensed from its own relation."""
    return _partition_from_graph(table.system,
                                 elementary_relations(table, kl, side), side,
                                 table.prime)


@pytest.mark.parametrize("label,prime", _ORACLE_CASES + [("D4", 0)])
def test_left_cells_match_the_direct_left_relation(label, prime):
    # left cells relabel the right ones through the inverse map; field by
    # field they equal the condensation of the left relation itself
    table, kl = _table_and_kl(label, prime)
    direct = {side: _direct_partition(table, kl, side)
              for side in ("left", "right")}
    left = compute_cells(table, kl, "left")
    for field in ("side", "prime", "cells", "cell_of", "hasse_edges",
                  "downsets"):
        assert getattr(left, field) == getattr(direct["left"], field), field
    assert left_cells_from_right(table, direct["right"]) == direct["left"]
    assert compute_cells(table, kl, "two-sided") == \
        two_sided_cells(table.system, direct["left"], direct["right"])


def test_inverse_duality_of_the_direct_left_relation(a3, kl_a3, c3, kl_c3,
                                                     c3_p2):
    # compute_cells derives left cells from right ones, so the check is
    # independent only against the left relation condensed on its own
    for table, kl in ((identity_table(a3), kl_a3), (c3_p2, kl_c3)):
        left = _direct_partition(table, kl, "left")
        right = compute_cells(table, kl, "right")
        assert inverse_duality_check(left, right, table.system).ok


def test_left_cells_need_an_inverse_symmetric_table(c3, kl_c3, c3_p2):
    # without the row of 2123 the entry m(23, 2123) = 1 is gone while its
    # partner m(32, 3212) = 1 stays
    partner = c3.digits_to_id("2123")
    assert c3.inverse[c3.digits_to_id("3212")] == partner
    table = PCanTable(c3, 2, {x: row for x, row in c3_p2.rows.items()
                              if x != partner})
    for side in ("left", "two-sided"):
        with pytest.raises(ValueError, match=r"m\(32, 3212\) = 1 but "
                                             r"m\(23, 2123\) = 0"):
            compute_cells(table, kl_c3, side)
    right = compute_cells(table, kl_c3, "right")
    assert right == _direct_partition(table, kl_c3, "right")
    with pytest.raises(ValueError, match="not inverse-symmetric"):
        left_cells_from_right(table, right)
    with pytest.raises(ValueError, match="needs a right partition"):
        left_cells_from_right(c3_p2, compute_cells(c3_p2, kl_c3, "left"))


def test_two_sided_cells_rejects_mismatched_partitions(a2, b2):
    left, right, two = (verify.get_cells("B2", 0, side)
                        for side in ("left", "right", "two-sided"))
    a2_left, a2_right = (verify.get_cells("A2", 0, side)
                         for side in ("left", "right"))
    p2_right = verify.get_cells("B2", 2, "right")
    # wrong sides, two primes, partitions that do not cover the group
    for pair in ((right, left), (left, left), (right, right), (two, right),
                 (left, two), (left, p2_right), (a2_left, a2_right),
                 (a2_left, right), (left, a2_right)):
        with pytest.raises(ValueError):
            two_sided_cells(b2, *pair)
    with pytest.raises(ValueError):
        two_sided_cells(a2, left, right)


def test_compute_cells_rejects_unknown_side(a2, kl_a2):
    tab = identity_table(a2)
    for side in ("lr", "2", "Right", "both"):
        with pytest.raises(ValueError):
            compute_cells(tab, kl_a2, side)


def test_identity_cell_and_coarsening(b3, kl_b3):
    tab = identity_table(b3)
    parts = {side: compute_cells(tab, kl_b3, side)
             for side in ("left", "right", "two-sided")}
    for part in parts.values():
        assert part.cells[0] == (0,) and part.cell_of[0] == 0
    for side in ("left", "right"):
        for cell in parts[side].cells:
            assert len({parts["two-sided"].cell_of[w] for w in cell}) == 1


def test_descent_invariant(b3, kl_b3):
    tab = identity_table(b3)
    right = compute_cells(tab, kl_b3, "right")
    assert check_descent_invariant(right, b3).ok
    # corrupting the partition by merging {e} into another cell fails
    cells = [c for c in right.cells if c != (0,)]
    cells[0] = (0,) + cells[0]
    cell_of = dict(sorted((w, i) for i, c in enumerate(cells) for w in c))
    fake = CellPartition(
        side="right", prime=0, cells=tuple(cells),
        cell_of=tuple(cell_of.values()),
        hasse_edges=frozenset(), downsets=tuple(frozenset({i}) for i in range(len(cells))))
    assert not check_descent_invariant(fake, b3).ok


def test_inverse_duality(a3, kl_a3, c3, kl_c3, c3_p2):
    tab = identity_table(a3)
    left = compute_cells(tab, kl_a3, "left")
    right = compute_cells(tab, kl_a3, "right")
    assert inverse_duality_check(left, right, a3).ok
    # the check is not vacuous: comparing a side against itself fails
    assert not inverse_duality_check(right, right, a3).ok
    left2 = compute_cells(c3_p2, kl_c3, "left")
    right2 = compute_cells(c3_p2, kl_c3, "right")
    assert inverse_duality_check(left2, right2, c3).ok


def _pairwise_inverse_duality(left, right, system):
    """The pairs (x, y) of W with x <= y on the left but not x^-1 <= y^-1
    on the right, or the reverse (the previous inverse_duality_check)."""
    inv = system.inverse
    return [(x, y) for x in system.elements() for y in system.elements()
            if left.leq(x, y) != right.leq(inv[x], inv[y])]


_CELL_ORACLE_CASES = [("A3", 0), ("B3", 0), ("C3", 0), ("G2", 0), ("A4", 0),
                      ("C3", 2)]


def _left_partitions(table, kl):
    """The left cells derived from the right ones, and the ones condensed
    from the left relation itself."""
    return (compute_cells(table, kl, "left"),
            _direct_partition(table, kl, "left"))


@pytest.mark.parametrize("label,prime", _CELL_ORACLE_CASES)
def test_inverse_duality_matches_the_pairwise_oracle(label, prime):
    table, kl = _table_and_kl(label, prime)
    system = table.system
    right = compute_cells(table, kl, "right")
    for left in _left_partitions(table, kl):
        assert inverse_duality_check(left, right, system).ok
        assert not _pairwise_inverse_duality(left, right, system)
    # and on a pair that fails: a side against itself
    assert not inverse_duality_check(right, right, system).ok
    assert _pairwise_inverse_duality(right, right, system)


@pytest.mark.parametrize("label", ["A3", "B3", "C3"])
def test_inverse_duality_rejects_broken_partitions(label, left_mutants):
    system = verify.get_system(label)
    left = verify.get_cells(label, 0, "left")
    right = verify.get_cells(label, 0, "right")
    mutants = left_mutants(label)
    assert sorted(mutants) == ["merge", "move", "split"]
    for name, mutant in mutants.items():
        assert mutant.cells != left.cells, name
        assert not inverse_duality_check(mutant, right, system).ok, name
        assert _pairwise_inverse_duality(mutant, right, system), name


def right_connected_components(system, subset):
    """Components of the subset under 'differ by one simple reflection on
    the right, both endpoints inside'."""
    subset = set(subset)
    comps = []
    todo = set(subset)
    while todo:
        seed = todo.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            w = stack.pop()
            for s in range(system.rank):
                u = system.right_by_gen[s][w]
                if u in subset and u not in comp:
                    comp.add(u)
                    todo.discard(u)
                    stack.append(u)
        comps.append(frozenset(comp))
    return comps


def test_right_connected_components(a2):
    s, t = a2.digits_to_id("1"), a2.digits_to_id("2")
    st = a2.digits_to_id("12")
    assert right_connected_components(a2, {s}) == [frozenset({s})]
    assert right_connected_components(a2, {s, st}) == [frozenset({s, st})]
    assert set(right_connected_components(a2, {s, t})) == \
        {frozenset({s}), frozenset({t})}


def test_right_minimal_elements(a2, b2):
    assert right_minimal_elements(a2, a2.elements()) == frozenset({0})
    s = b2.digits_to_id("1")
    cell = {s, b2.digits_to_id("12"), b2.digits_to_id("121")}
    assert right_minimal_elements(b2, cell) == frozenset({s})
    antichain = {a2.digits_to_id("1"), a2.digits_to_id("2")}
    assert right_minimal_elements(a2, antichain) == frozenset(antichain)


def test_decomposition_criterion(c3, kl_c3, c3_p2):
    tab0 = identity_table(c3)
    kl_right = compute_cells(tab0, kl_c3, "right")
    # the p = 0 table passes everywhere vacuously
    assert all(r.ok for r in
               decomposition_criterion(tab0, kl_right, kl_right).values())
    reports = decomposition_criterion(c3_p2, kl_right,
                                      compute_cells(c3_p2, kl_c3, "right"))
    c12 = _index_of(kl_right, [
        c3.digits_to_id(w) for w in ("232123", "232121", "2321213", "23212132")])
    c6 = _index_of(kl_right, [
        c3.digits_to_id(w) for w in ("232", "2321", "23212")])
    assert not reports[c12].ok
    assert reports[c6].ok
    # where the criterion applies downward, the conclusion was verified:
    # e.g. the cell of 13 is not above the failing cells, so it decomposes
    c4 = _index_of(kl_right, [
        c3.digits_to_id(w) for w in ("13", "132", "1321")])
    assert reports[c4].ok and reports[c4].checked > 0


def test_extract_wgraph_identity_cell(a2, kl_a2):
    tab = identity_table(a2)
    left = compute_cells(tab, kl_a2, "left")
    idx = _index_of(left, [0])
    g = extract_wgraph(left, idx, tab, kl_a2)
    assert g.vertices == (0,) and not g.edges
    assert verify_wgraph_relations(g, a2).ok


def test_b2_string_cell_wgraph(b2, kl_b2):
    # the left cell through s (inverse of the right s-string) is a
    # three-vertex path with unit labels
    tab = identity_table(b2)
    left = compute_cells(tab, kl_b2, "left")
    cell = [b2.digits_to_id(w) for w in ("1", "21", "121")]
    g = extract_wgraph(left, _index_of(left, cell), tab, kl_b2)
    assert len(g.vertices) == 3
    assert all(c == ONE for labels in g.edges.values() for c in labels.values())
    assert verify_wgraph_relations(g, b2).ok


def test_all_a3_cell_wgraphs_are_modules(a3, kl_a3):
    tab = identity_table(a3)
    left = compute_cells(tab, kl_a3, "left")
    for i in range(len(left.cells)):
        g = extract_wgraph(left, i, tab, kl_a3)
        assert verify_wgraph_relations(g, a3).ok


def test_perturbed_wgraph_fails(b2, kl_b2):
    tab = identity_table(b2)
    left = compute_cells(tab, kl_b2, "left")
    cell = [b2.digits_to_id(w) for w in ("1", "21", "121")]
    g = extract_wgraph(left, _index_of(left, cell), tab, kl_b2)
    (a, b), labels = next(iter(sorted(g.edges.items())))
    labels[next(iter(labels))] = LaurentPoly(2)
    assert not verify_wgraph_relations(g, b2).ok


def _tau_matrix(graph, s):
    """Column-convention matrix of tau_s on the free module over the
    vertices (the previous ColouredWGraph.tau_matrix)."""
    n = len(graph.vertices)
    pos = {v: i for i, v in enumerate(graph.vertices)}
    zero = LaurentPoly()
    mat = [[zero] * n for _ in range(n)]
    for j, x in enumerate(graph.vertices):
        if s in graph.descent_sets[x]:
            mat[j][j] = GAUSS
            continue
        for (a, b), labels in graph.edges.items():
            if a == x and s in labels and s in graph.descent_sets[b]:
                mat[pos[b]][j] = mat[pos[b]][j] + labels[s]
    return mat


def _mat_mul(a, b):
    n = len(a)
    zero = LaurentPoly()
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            c = a[i][k]
            if not c:
                continue
            row = b[k]
            for j in range(n):
                if row[j]:
                    out[i][j] = out[i][j] + c * row[j]
    return out


def _dense_wgraph_relations(graph, system):
    """verify_wgraph_relations over dense matrix products (the previous
    implementation)."""
    n = len(graph.vertices)
    zero, one = LaurentPoly(), ONE
    bad = []
    checked = 0
    taus = [_tau_matrix(graph, s) for s in range(system.rank)]
    shifted = []
    for s, tau in enumerate(taus):
        sq = _mat_mul(tau, tau)
        expect = [[GAUSS * c for c in row] for row in tau]
        checked += 1
        if sq != expect:
            bad.append(f"tau_{s + 1}^2 != (v + v^-1) tau_{s + 1}")
        shifted.append([
            [tau[i][j] - (LaurentPoly.v(1) if i == j else zero)
             for j in range(n)]
            for i in range(n)
        ])
    for s in range(system.rank):
        for t in range(s + 1, system.rank):
            m = system.coxeter_matrix[s][t]
            if m == 0:
                continue
            a = [[one if i == j else zero for j in range(n)] for i in range(n)]
            b = [[one if i == j else zero for j in range(n)] for i in range(n)]
            x, y = s, t
            for _ in range(m):
                a = _mat_mul(a, shifted[x])
                b = _mat_mul(b, shifted[y])
                x, y = y, x
            checked += 1
            if a != b:
                bad.append(f"braid relation fails for pair ({s + 1}, {t + 1})")
    return Report("wgraph-relations", bad, checked)


@pytest.mark.parametrize("label,prime", _CELL_ORACLE_CASES)
def test_wgraph_relations_match_the_dense_oracle(label, prime):
    table, kl = _table_and_kl(label, prime)
    for left in _left_partitions(table, kl):
        for i in range(len(left.cells)):
            g = extract_wgraph(left, i, table, kl)
            rep = verify_wgraph_relations(g, table.system)
            assert rep.ok and rep == _dense_wgraph_relations(g, table.system)


@pytest.mark.parametrize("label,prime", [("B3", 0), ("C3", 2)])
def test_wgraphs_with_a_changed_edge_label_fail_both_checks(label, prime):
    # one label that the action reads (s a descent of the edge's target) is
    # raised by one, in the largest left cell
    table, kl = _table_and_kl(label, prime)
    left = compute_cells(table, kl, "left")
    biggest = max(range(len(left.cells)), key=lambda i: len(left.cells[i]))
    g = extract_wgraph(left, biggest, table, kl)
    assert verify_wgraph_relations(g, table.system).ok
    (a, b), s = next(((a, b), s) for (a, b), labels in sorted(g.edges.items())
                     for s in sorted(labels) if s in g.descent_sets[b])
    g.edges[(a, b)][s] = g.edges[(a, b)][s] + ONE
    rep = verify_wgraph_relations(g, table.system)
    assert not rep.ok
    assert rep == _dense_wgraph_relations(g, table.system)


@functools.cache
def _left_cell_wgraphs(label):
    table, kl = _table_and_kl(label, 0)
    left = compute_cells(table, kl, "left")
    graphs = [extract_wgraph(left, i, table, kl) for i in range(len(left.cells))]
    return table.system, [g for g in graphs if g.edges]


# exponents -3..3 make the shift L up to 3, and coefficients near 2^40 put
# the evaluation point 2^K far above 2^64
_LABELS = st.dictionaries(st.integers(-3, 3),
                          st.integers(-2 ** 40, 2 ** 40)).map(LaurentPoly)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wgraph_relations_with_random_labels_match_the_dense_oracle(data):
    system, graphs = _left_cell_wgraphs(
        data.draw(st.sampled_from(["A3", "B3", "G2"])))
    g = data.draw(st.sampled_from(graphs))
    edges = {e: {s: data.draw(_LABELS) for s in labels}
             for e, labels in g.edges.items()}
    g = ColouredWGraph(g.side, g.vertices, g.descent_sets, edges)
    assert verify_wgraph_relations(g, system) == _dense_wgraph_relations(
        g, system)


def test_zero_labels_leave_a_wgraph_a_module():
    # a zero label that the action reads puts a zero entry into tau_s; the
    # words built from it keep zeros that the other side may not have
    system, graphs = _left_cell_wgraphs("B3")
    g = max(graphs, key=lambda g: len(g.vertices))
    edges = {e: dict(labels) for e, labels in g.edges.items()}
    for a in g.vertices:
        for b in g.vertices:
            for s in g.descent_sets[b] - g.descent_sets[a]:
                edges.setdefault((a, b), {}).setdefault(s, LaurentPoly())
    assert edges != g.edges
    g = ColouredWGraph(g.side, g.vertices, g.descent_sets, edges)
    rep = verify_wgraph_relations(g, system)
    assert rep.ok and rep == _dense_wgraph_relations(g, system)


@pytest.mark.parametrize("bits", [32, 64])
def test_labels_equal_at_a_fixed_power_of_two_still_differ(bits):
    # T_1 T_2 - T_2 T_1 sends the bottom vertex to (p - q)(v + v^-1) times
    # the top one; p = 2^bits and q = v agree at v = 2^bits, so an
    # evaluation point that is not read off the labels passes the graph
    a1a1 = CoxeterSystem.from_cartan([[2, 0], [0, 2]])
    g = ColouredWGraph("left", (0, 1), {0: frozenset(), 1: frozenset({0, 1})},
                       {(0, 1): {0: LaurentPoly(2 ** bits), 1: LaurentPoly.v(1)}})
    rep = verify_wgraph_relations(g, a1a1)
    assert rep.violations == ["braid relation fails for pair (1, 2)"]
    assert rep == _dense_wgraph_relations(g, a1a1)


def test_two_sided_cells_are_inverse_closed(c3, kl_c3, c3_p2):
    two = compute_cells(c3_p2, kl_c3, "two-sided")
    for cell in two.cells:
        assert sorted(c3.inverse[w] for w in cell) == list(cell)


def test_b2_p2_cells(b2, kl_b2, b2_p2):
    # the reference 2-cells of type B2: the cell of s splits off {s}
    right = compute_cells(b2_p2, kl_b2, "right")
    D = b2.digits_to_id
    assert _sets(right) == {
        frozenset({0}), frozenset({D("1")}),
        frozenset({D("12"), D("121")}),
        frozenset({D("2"), D("21"), D("212")}),
        frozenset({D("1212")}),
    }
    two = compute_cells(b2_p2, kl_b2, "two-sided")
    assert _sets(two) == {
        frozenset({0}), frozenset({D("1")}),
        frozenset({D(w) for w in ("2", "12", "21", "121", "212")}),
        frozenset({D("1212")}),
    }
    # the two-sided order is the reference chain
    chain = [_index_of(two, [0]), _index_of(two, [D("1")]),
             _index_of(two, [D(w) for w in ("2", "12", "21", "121", "212")]),
             _index_of(two, [D("1212")])]
    assert two.hasse_edges == frozenset(zip(chain, chain[1:]))


def test_subquotient_wgraph_rejects_unknown_side(a2, kl_a2):
    # on the longest element alone every generator is a descent, so a
    # misread side would compute no product and raise nothing
    tab = identity_table(a2)
    for elements in (a2.elements(), [a2.digits_to_id("121")]):
        for side in ("Left", "right ", "two-sided"):
            with pytest.raises(ValueError):
                subquotient_wgraph(tab, kl_a2, elements, side=side)


def test_c6_c12_subquotient_is_a_module(c3, kl_c3, c3_p2):
    # the right action on the subquotient spanned by the cells of 232 and
    # 232123 satisfies the defining Hecke relations
    elems = [c3.digits_to_id(w) for w in
             ("232", "2321", "23212", "232123", "232121", "2321213", "23212132")]
    g = subquotient_wgraph(c3_p2, kl_c3, elems, side="right")
    assert verify_wgraph_relations(g, c3).ok


def test_parabolic_compatibility(b3, kl_b3, c3, kl_c3, c3_p2):
    tab = identity_table(b3)
    assert check_parabolic_compatibility(
        tab, compute_cells(tab, kl_b3, "right"), [1, 2]).ok
    assert check_parabolic_compatibility(
        c3_p2, compute_cells(c3_p2, kl_c3, "right"), [0, 1]).ok


def _triplewise_parabolic_compatibility(table, w_right, gens):
    """The pairs (z, y) of W_I for which "z <= y in W_I iff xz <= xy in W
    for every x in W^I" fails, one leq per triple (the previous
    check_parabolic_compatibility)."""
    sys_ = table.system
    emb = sys_.parabolic_subsystem(gens)
    sub_right = compute_cells(restrict_to_parabolic(table, emb),
                              compute_kl_table(emb.sub), "right")
    reps = sorted(sys_.minimal_coset_representatives(gens, "right"))
    bad = []
    for zs in emb.sub.elements():
        for ys in emb.sub.elements():
            z, y = emb.to_parent[zs], emb.to_parent[ys]
            outer = all(w_right.leq(sys_.mult(x, z), sys_.mult(x, y))
                        for x in reps)
            if sub_right.leq(zs, ys) != outer:
                bad.append((z, y))
    return bad


def _proper_subsets(system):
    return [list(g) for k in range(1, system.rank)
            for g in itertools.combinations(range(system.rank), k)]


@pytest.mark.parametrize("label,prime", [*_CELL_ORACLE_CASES, ("B2", 0)])
def test_parabolic_compatibility_matches_the_triplewise_oracle(label, prime):
    table, kl = _table_and_kl(label, prime)
    right = compute_cells(table, kl, "right")
    for gens in _proper_subsets(table.system):
        assert check_parabolic_compatibility(table, right, gens).ok
        assert not _triplewise_parabolic_compatibility(table, right, gens)
    # and a partition that fails: the left cells in place of the right
    left = compute_cells(table, kl, "left")
    verdicts = [check_parabolic_compatibility(table, left, gens).ok
                for gens in _proper_subsets(table.system)]
    assert verdicts == [not _triplewise_parabolic_compatibility(
        table, left, gens) for gens in _proper_subsets(table.system)]
    assert False in verdicts


@pytest.mark.parametrize("label", ["A3", "B3", "C3"])
def test_parabolic_compatibility_rejects_broken_partitions(label,
                                                           right_mutants):
    table = verify.get_table(label, 0)
    mutants = right_mutants(label)
    assert sorted(mutants) == ["move", "split"]
    for name, mutant in mutants.items():
        verdicts = [check_parabolic_compatibility(table, mutant, gens).ok
                    for gens in _proper_subsets(table.system)]
        assert verdicts == [not _triplewise_parabolic_compatibility(
            table, mutant, gens) for gens in _proper_subsets(table.system)]
        assert False in verdicts, name


def test_propagate_nondecomposition(c3, kl_c3, c3_p2):
    kl_right = compute_cells(identity_table(c3), kl_c3, "right")
    p_right = compute_cells(c3_p2, kl_c3, "right")
    rep = propagate_nondecomposition(c3_p2, kl_right, p_right, [0, 1])
    assert rep.ok
    # degenerate case: the full group as parabolic
    rep = propagate_nondecomposition(c3_p2, kl_right, p_right, [0, 1, 2])
    assert rep.ok


def test_union_checks_reject_the_c3_right_mutants(c3_p2, right_mutants):
    # a mutant as the p = 0 right cells: moving a cell's minimum cuts the
    # induced sets C.X, and splitting a cell leaves cells 1 and 4 no union
    # of p = 2 cells
    p_right = verify.get_cells("C3", 2, "right")
    mutants = right_mutants("C3")
    rep = propagate_nondecomposition(c3_p2, mutants["move"], p_right, [0, 1])
    assert rep.violations == [
        "C.X for H-cell [1, 3, 5] is not a union of W-cells",
        "C.X for H-cell [2, 4, 6] is not a union of W-cells"]
    reports = decomposition_criterion(c3_p2, mutants["split"], p_right)
    union = ("criterion applies below this cell but the cell is not a union "
             "of p-cells")
    assert [i for i, r in reports.items() if union in r.violations] == [1, 4]


def test_out_of_range_ids_and_cell_indices_are_rejected(a2, kl_a2):
    # a tuple reads a negative index from its end: leq(-1, y) read the
    # longest element, and extract_wgraph(partition, -1, ...) the last cell
    tab = identity_table(a2)
    left = compute_cells(tab, kl_a2, "left")
    n, last = a2.size, len(left.cells) - 1
    assert left.leq(n - 1, 0) and not left.leq(0, n - 1)
    for x, y in ((-1, 0), (0, -1), (-n, 0), (0, -n), (n, 0), (0, n)):
        with pytest.raises(IndexError):
            left.leq(x, y)
    assert extract_wgraph(left, 0, tab, kl_a2).vertices == left.cells[0]
    assert extract_wgraph(left, last, tab, kl_a2).vertices == left.cells[last]
    for i in (-1, -last - 1, last + 1, last + 2):
        with pytest.raises(IndexError, match="cell index"):
            extract_wgraph(left, i, tab, kl_a2)


@pytest.mark.parametrize("label", ["A3", "B2", "B3", "G2", "C3"])
def test_kl_right_cells_are_right_connected(label):
    # tested, not assumed: on these finite groups every KL right cell is
    # weakly right-connected
    system = verify.get_system(label)
    part = verify.get_cells(label, 0, "right")
    for cell in part.cells:
        assert len(right_connected_components(system, cell)) == 1


def test_exports_are_deterministic(b2, kl_b2):
    tab = identity_table(b2)
    part1 = compute_cells(tab, kl_b2, "right")
    part2 = compute_cells(tab, kl_b2, "right")
    assert part1.to_dot(b2) == part2.to_dot(b2)
    assert part1.to_json_obj(b2) == part2.to_json_obj(b2)
    assert "digraph" in part1.to_dot(b2)


def test_partitions_and_wgraphs_compare_field_by_field(a2, kl_a2):
    tab = identity_table(a2)
    right = compute_cells(tab, kl_a2, "right")
    fields = (right.side, right.prime, right.cells, right.cell_of,
              right.hasse_edges, right.downsets)
    assert CellPartition(*fields) == right and right != fields
    assert CellPartition("left", *fields[1:]) != right

    class Twin(CellPartition):
        pass

    assert Twin(*fields) != right and right != Twin(*fields)
    assert repr(right) == (
        f"CellPartition(side='right', prime=0, cells={right.cells!r}, "
        f"cell_of={right.cell_of!r}, hasse_edges={right.hasse_edges!r}, "
        f"downsets={right.downsets!r})")
    with pytest.raises(TypeError):
        hash(right)
    left = compute_cells(tab, kl_a2, "left")
    g = extract_wgraph(left, _index_of(left, [0]), tab, kl_a2)
    assert ColouredWGraph(g.side, g.vertices, g.descent_sets, g.edges) == g
    assert ColouredWGraph("right", g.vertices, g.descent_sets, g.edges) != g
    assert repr(g) == (
        f"ColouredWGraph(side={g.side!r}, vertices={g.vertices!r}, "
        f"descent_sets={g.descent_sets!r}, edges={g.edges!r})")


def test_reports_count_in_place():
    rep = Report("r", [], 0)
    rep.checked += 1
    rep.violations.append("v")
    assert rep == Report("r", ["v"], 1) and rep != Report("r", ["v"], 0)
    assert not rep.ok
    assert repr(rep) == "Report(name='r', violations=['v'], checked=1)"
