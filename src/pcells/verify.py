"""Verification suites against the shipped reference tables.

Each suite returns a list of Reports; a suite passes when every report
does.  The suites cover the reference cell tables (B2, G2, C3 at p = 0 and
p = 2), the type A cell theorem, the structural invariants of cells and
canonical tables, the star/string relation checkers, and the tau
invariants.  The command line drives these suites; the acceptance tests
call them directly.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from .cells import (
    CellPartition,
    ColouredWGraph,
    check_descent_invariant,
    check_parabolic_compatibility,
    compute_cells,
    decomposition_criterion,
    extract_wgraph,
    inverse_duality_check,
    left_cells_from_right,
    propagate_nondecomposition,
    subquotient_wgraph,
    transport_preorder,
    two_sided_cells,
    verify_wgraph_relations,
)
from .coxeter import CoxeterSystem
from .hecke import KLTable, compute_kl_table
from .pcanonical import (
    PCanTable,
    identity_table,
    load_fixture,
    validate_table,
    verify_parabolic_factorization,
)
from .report import Report
from .stars import (
    DihedralStrings,
    check_base_change_relations,
    check_coefficient_sliding,
    check_string_vanishing,
    check_structure_coefficient_relations,
    p_bound_ok,
    star_closure_check,
    tau_partition,
    tau_tilde_partition,
)
from .typea import (hook_length_count, involutions, standard_tableaux_count,
                    verify_typea_cell_theorem)

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def get_system(label: str) -> CoxeterSystem:
    return CoxeterSystem.from_type(label)


@lru_cache(maxsize=None)
def get_kl(label: str) -> KLTable:
    return compute_kl_table(get_system(label))


@lru_cache(maxsize=None)
def get_table(label: str, prime: int) -> PCanTable:
    system = get_system(label)
    if prime == 0:
        return identity_table(system)
    fixtures = {("C3", 2): "c3_p2", ("B2", 2): "b2_p2"}
    name = fixtures.get((label.upper(), prime))
    if name is None:
        raise ValueError(f"no shipped table for type {label} at p = {prime}")
    return load_fixture(name, system)


@lru_cache(maxsize=None)
def get_cells(label: str, prime: int, side: str) -> CellPartition:
    """The cells of one side.  Only the right relation is built: left cells
    relabel the cached right partition through the inverse map
    (left_cells_from_right), and two-sided cells join the cached one-sided
    partitions.  The inverse-duality reports of the invariant suite
    therefore check that relabelling; the tests check the derived left
    cells against the left relation itself."""
    if side == "left":
        return left_cells_from_right(get_table(label, prime),
                                     get_cells(label, prime, "right"))
    if side == "two-sided":
        return two_sided_cells(get_system(label), get_cells(label, prime, "left"),
                               get_cells(label, prime, "right"))
    return compute_cells(get_table(label, prime), get_kl(label), side)


def _elements(system: CoxeterSystem, words: list[str]) -> frozenset[int]:
    return frozenset(
        0 if w == "e" else system.digits_to_id(w) for w in words)


def _compare_partition(system: CoxeterSystem, partition: CellPartition,
                       named: dict[str, list[str]], hasse: list[list[str]],
                       what: str) -> Report:
    bad: list[str] = []
    expected = {name: _elements(system, ws) for name, ws in named.items()}
    # compared as sets, so that a renumbering cannot pass by accident
    cells = set(map(frozenset, partition.cells))
    if cells != set(expected.values()):
        for name, cell in expected.items():
            if cell not in cells:
                bad.append(f"missing cell {name}")
        for cell in cells:
            if cell not in expected.values():
                bad.append(
                    "unexpected cell {"
                    + ", ".join(sorted(system.id_to_digits(w) or "e" for w in cell))
                    + "}")
        return Report(what, bad, 1)
    name_of = {partition.cell_of[min(cell)]: name
               for name, cell in expected.items()}
    got = {(name_of[i], name_of[j]) for (i, j) in partition.hasse_edges}
    want = {(a, b) for a, b in hasse}
    for e in sorted(got - want):
        bad.append(f"unexpected Hasse edge {e[0]} -> {e[1]}")
    for e in sorted(want - got):
        bad.append(f"missing Hasse edge {e[0]} -> {e[1]}")
    return Report(what, bad, 1 + len(want))


def _compare_two_sided_groups(system: CoxeterSystem, right: CellPartition,
                              two: CellPartition, named: dict[str, list[str]],
                              groups: list[list[str]], what: str) -> Report:
    bad: list[str] = []
    expected_groups = {
        frozenset().union(*(_elements(system, named[n]) for n in group))
        for group in groups
    }
    if set(map(frozenset, two.cells)) != expected_groups:
        bad.append("two-sided cells do not match the reference grouping")
    for cell in right.cells:
        owners = {two.cell_of[w] for w in cell}
        if len(owners) != 1:
            bad.append("a right cell crosses two-sided cells")
    return Report(what, bad, len(groups) + len(right.cells))


# ---------------------------------------------------------------------------
# golden suites

def _golden_reports(g: dict) -> list[Report]:
    """Compare the cells of a loaded reference file, at its own type and p:
    the right cells and their Hasse diagram, then the two-sided cells by
    whichever keys the file has (cells and Hasse diagram, or the grouping
    of its right cells)."""
    label, prime = g["type"], g["p"]
    system = get_system(label)
    right = get_cells(label, prime, "right")
    two = get_cells(label, prime, "two-sided")
    tag = f"{label} KL" if prime == 0 else f"{label} p={prime}"
    if "two_sided_groups" in g:
        two_report = _compare_two_sided_groups(
            system, right, two, g["right_cells"], g["two_sided_groups"],
            f"{tag} two-sided grouping")
    else:
        two_report = _compare_partition(
            system, two, g["two_sided_cells"], g["two_sided_hasse"],
            f"{tag} two-sided cells + Hasse")
    return [_compare_partition(system, right, g["right_cells"],
                               g["right_hasse"], f"{tag} right cells + Hasse"),
            two_report]


def verify_b2() -> list[Report]:
    return _golden_reports(load_golden("b2_kl"))


def verify_g2() -> list[Report]:
    system = get_system("G2")
    g = load_golden("g2_kl")
    # the middle two-sided cell is the set of nontrivial elements with a
    # unique reduced expression, split by left descent into the right cells
    unique_rex = frozenset(w for w in system.elements()
                           if w != 0 and len(system.reduced_words(w)) == 1)
    bad: list[str] = []
    mid = _elements(system, g["two_sided_cells"]["T_C"])
    if unique_rex != mid:
        bad.append("unique-reduced-expression set differs from the middle cell")
    for name in ("C_s", "C_t"):
        cell = _elements(system, g["right_cells"][name])
        descents = {system.left_descents[w] for w in cell}
        if len(descents) != 1 or not cell <= unique_rex:
            bad.append(f"{name} is not a fixed-descent slice of the set")
    return _golden_reports(g) + [
        Report("G2 unique-reduced-expression characterization", bad, 3)]


def verify_c3_p0() -> list[Report]:
    return _golden_reports(load_golden("c3_kl"))


def verify_c3_p2() -> list[Report]:
    system, kl = get_system("C3"), get_kl("C3")
    g = load_golden("c3_p2_cells")
    spec = g["subquotient_c6_c12"]
    graph = subquotient_wgraph(
        get_table("C3", 2), kl,
        [system.digits_to_id(w) for w in spec["elements"]], side="right")
    got = {
        (system.id_to_digits(a), s + 1, system.id_to_digits(b)):
            labels[s].to_pairs()
        for (a, b), labels in graph.edges.items() for s in labels
    }
    # compare at the element level: reference words may differ from the
    # canonical ones, so normalize through the group
    def norm(word: str) -> str:
        return system.id_to_digits(system.digits_to_id(word))

    want = {(norm(e["from"]), e["s"], norm(e["to"])): e["label"]
            for e in spec["edges"]}
    bad = []
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            bad.append(f"edge {key}: computed {got.get(key)}, reference {want.get(key)}")
    return _golden_reports(g) + [
        Report("C3 p=2 cell-module graph on C6 u C12", bad, len(want))]


# the number of involutions of S_1 .. S_6
_INVOLUTION_COUNTS = (1, 2, 4, 10, 26, 76)


def verify_typea(n: int, involution_counts: list[int]) -> list[Report]:
    """The type-A cell theorem on S_n, and the involution counts of S_1 to
    S_n as far as _INVOLUTION_COUNTS lists them: involution_counts[k - 1]
    is the number of involutions of S_k, which the caller counts once for
    every n it checks."""
    label = f"A{n - 1}"
    system = get_system(label)
    parts = {side: get_cells(label, 0, side)
             for side in ("left", "right", "two-sided")}
    out = [verify_typea_cell_theorem(system, parts)]
    bad = [f"involution count of S_{k} is not {want}"
           for k, got, want in zip(range(1, n + 1), involution_counts,
                                   _INVOLUTION_COUNTS)
           if got != want]
    out.append(Report(f"involution counts up to S_{n}", bad, min(n, 6)))
    return out


def verify_typea_suite(typea_n: int) -> list[Report]:
    """verify_typea for n = 3 .. typea_n, with the involutions of each
    S_k counted once, then the hook-length reports."""
    counts = [len(involutions(k)) for k in range(1, min(typea_n, 6) + 1)]
    reports = [rep for n in range(3, typea_n + 1)
               for rep in verify_typea(n, counts)]
    return reports + verify_hooks(min(typea_n + 2, 8))


def verify_hooks(max_n: int) -> list[Report]:
    def partitions(n: int, cap: int):
        """The partitions of n with parts at most cap."""
        if n == 0:
            yield ()
            return
        for first in range(min(cap, n), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    bad = []
    checked = 0
    counted: dict[tuple[int, ...], int] = {}
    for n in range(1, max_n + 1):
        for shape in partitions(n, n):
            checked += 1
            if hook_length_count(shape) != standard_tableaux_count(shape,
                                                                   counted):
                bad.append(f"hook count mismatch at shape {shape}")
    return [Report(f"hook lengths vs enumeration (n <= {max_n})", bad, checked)]


# ---------------------------------------------------------------------------
# invariant suite

def _invariant_reports(label: str, prime: int) -> list[Report]:
    system = get_system(label)
    table = get_table(label, prime)
    left = get_cells(label, prime, "left")
    right = get_cells(label, prime, "right")
    two = get_cells(label, prime, "two-sided")
    tag = f"{label} p={prime}"
    out = [
        Report(f"{tag} table invariants", validate_table(table), 1),
        check_descent_invariant(right, system),
        check_descent_invariant(left, system),
        inverse_duality_check(left, right, system),
    ]
    bad = []
    # cells are numbered by minimum id, so the identity's is cell 0
    if any(part.cells[0] != (0,) for part in (right, left, two)):
        bad.append("the identity is not a singleton cell")
    for part in (left, right):
        for cell in part.cells:
            owners = {two.cell_of[w] for w in cell}
            if len(owners) != 1:
                bad.append(f"a {part.side} cell crosses two-sided cells")
    out.append(Report(f"{tag} identity cell + two-sided coarsening", bad,
                      2 + len(left.cells) + len(right.cells)))
    for r in out:
        r.name = f"{tag}: {r.name}" if not r.name.startswith(tag) else r.name
    return out


def verify_invariants() -> list[Report]:
    out: list[Report] = []
    for label, prime in (("A2", 0), ("A3", 0), ("B2", 0), ("B2", 2),
                         ("B3", 0), ("G2", 0), ("C3", 0), ("C3", 2)):
        out.extend(_invariant_reports(label, prime))
    return out


def verify_parabolic() -> list[Report]:
    out: list[Report] = []
    for label, prime in (("B3", 0), ("C3", 0), ("C3", 2)):
        kl, table = get_kl(label), get_table(label, prime)
        right = get_cells(label, prime, "right")
        subsets = [[0], [1], [2], [0, 1], [0, 2], [1, 2]]
        for gens in subsets:
            rep = check_parabolic_compatibility(table, right, gens)
            rep.name = f"{label} p={prime} {rep.name}"
            out.append(rep)
            rep = verify_parabolic_factorization(table, kl, gens)
            rep.name = f"{label} p={prime} {rep.name}"
            out.append(rep)
    rep = propagate_nondecomposition(get_table("C3", 2),
                                     get_cells("C3", 0, "right"),
                                     get_cells("C3", 2, "right"), [0, 1])
    rep.name = f"C3 p=2 {rep.name}"
    out.append(rep)
    return out


# ---------------------------------------------------------------------------
# star/string suite

def _star_reports(label: str, prime: int) -> list[Report]:
    system, kl = get_system(label), get_kl(label)
    table = get_table(label, prime)
    left = get_cells(label, prime, "left")
    right = get_cells(label, prime, "right")
    pairs = [(r, t) for r in range(system.rank) for t in range(r + 1, system.rank)
             if system.coxeter_matrix[r][t] >= 3
             and p_bound_ok(prime, system.coxeter_matrix[r][t])]
    graphs = [extract_wgraph(left, i, table, kl) for i in range(len(left.cells))]
    out: list[Report] = []
    for (r, t) in pairs:
        out.append(check_coefficient_sliding(table, kl, r, t))
        out.append(check_base_change_relations(table, r, t))
        out.append(check_structure_coefficient_relations(table, kl, r, t))
        out.append(check_string_vanishing(table, kl, r, t))
        out.append(star_closure_check(left, right, system, r, t, prime))
        out.append(_wgraph_star_isomorphism(system, left, graphs, r, t))
    out.append(_all_cell_wgraphs_satisfy_relations(system, graphs))
    for rep in out:
        rep.name = f"{label} p={prime}: {rep.name}"
    return out


def _wgraph_star_isomorphism(system, left: CellPartition,
                             graphs: list[ColouredWGraph], r: int, t: int
                             ) -> Report:
    """graphs[i] is the W-graph of left cell i; star sends a cell inside
    D_R(r, t) to the cell phi[i] of its image (transport_preorder)."""
    star = DihedralStrings(system, r, t).star
    phi, _, _ = transport_preorder(left, left, star)
    bad: list[str] = []
    checked = 0
    for i, cell in enumerate(left.cells):
        if not all(map(star.__contains__, cell)):
            continue
        j = phi.get(i)
        if j is None or len(left.cells[j]) != len(cell):
            bad.append(f"star image of left cell {i} is not a cell")
            continue
        g, h = graphs[i], graphs[j]
        checked += 1
        if any(g.descent_sets[x] != h.descent_sets[star[x]] for x in cell):
            bad.append(f"descent decoration not preserved on cell {i}")
        mapped = {(star[a], star[b]): labels for (a, b), labels in g.edges.items()}
        if mapped != h.edges:
            bad.append(f"edge labels not preserved on cell {i}")
    return Report(f"wgraph-star-isomorphism (r={r + 1}, t={t + 1})", bad, checked)


def _all_cell_wgraphs_satisfy_relations(system, graphs: list[ColouredWGraph]
                                        ) -> Report:
    bad: list[str] = []
    checked = 0
    for i, g in enumerate(graphs):
        rep = verify_wgraph_relations(g, system)
        checked += rep.checked
        if not rep.ok:
            bad.extend(f"cell {i}: {v}" for v in rep.violations)
    return Report("cell-wgraph Hecke relations", bad, checked)


def verify_stars() -> list[Report]:
    out: list[Report] = []
    for label in ("A3", "B3"):
        out.extend(_star_reports(label, 0))
    return out


# ---------------------------------------------------------------------------
# tau suite

def verify_tau() -> list[Report]:
    out: list[Report] = []
    for label in ("A2", "A3", "A4"):
        system = get_system(label)
        tau = tau_partition(system)
        left = get_cells(label, 0, "left")
        bad = []
        # both are numbered by first occurrence in id order
        if tau.class_of != left.cell_of:
            bad.append("tau classes differ from the p=0 left cells")
        out.append(Report(f"{label}: tau classes = left cells", bad, 1))

    system = get_system("B3")
    left = get_cells("B3", 0, "left")
    for fn, name in ((tau_partition, "tau"), (tau_tilde_partition, "tau-tilde")):
        part = fn(system)
        bad = []
        for cell in left.cells:
            if len({part.class_of[w] for w in cell}) != 1:
                bad.append(f"a left cell crosses {name} classes")
        out.append(Report(f"B3: left cells refine {name} classes", bad,
                          len(left.cells)))

    # decomposition criterion: C12 of C3 at p = 2 fails the hypothesis,
    # every symmetric-group cell passes at p = 0
    # the right-minimal hypothesis fails exactly for C12 (its
    # minimal element 232123 has the term at 232, which sits strictly above)
    # and for C11, whose minimal element 21232 = 23212^-1 carries the
    # inverse-symmetric row; every other cell passes, C6 vacuously
    system = get_system("C3")
    kl_right = get_cells("C3", 0, "right")
    reports = decomposition_criterion(get_table("C3", 2), kl_right,
                                      get_cells("C3", 2, "right"))
    g = load_golden("c3_kl")
    # the c3 suite compares these reference cells with kl_right
    failing = {kl_right.cell_of[min(_elements(system, g["right_cells"][n]))]
               for n in ("C11", "C12")}
    c6_index = kl_right.cell_of[min(_elements(system, g["right_cells"]["C6"]))]
    bad = []
    got_failing = {i for i, rep in reports.items() if not rep.ok}
    if got_failing != failing:
        bad.append(f"failing cells are {sorted(got_failing)}, "
                   f"expected {sorted(failing)}")
    if not reports[c6_index].ok:
        bad.append("C6 unexpectedly fails the hypothesis")
    out.append(Report("C3 p=2 decomposition criterion flags C12 (and C11)",
                      bad, len(reports)))

    for n in (3, 4):
        label = f"A{n - 1}"
        right = get_cells(label, 0, "right")
        reports = decomposition_criterion(get_table(label, 0), right, right)
        bad = [f"cell {i} fails" for i, rep in reports.items() if not rep.ok]
        out.append(Report(f"S_{n} p=0 decomposition criterion all pass", bad,
                          len(reports)))
    return out


# ---------------------------------------------------------------------------
# suite registry

# suite name -> function of the largest symmetric group S_n of the typea
# suite, returning the suite's reports; "all" runs them in this order
SUITES = {
    "b2": lambda typea_n: verify_b2(),
    "g2": lambda typea_n: verify_g2(),
    "c3": lambda typea_n: verify_c3_p0() + verify_c3_p2(),
    "typea": verify_typea_suite,
    "stars": lambda typea_n: verify_stars() + verify_tau(),
    "parabolic": lambda typea_n: verify_invariants() + verify_parabolic(),
}


def run_suite(name: str, typea_n: int) -> list[Report]:
    """The reports of one suite, or of all of them; the typea suite checks
    S_3 to S_typea_n, so it rejects typea_n below 3."""
    if name in ("typea", "all") and typea_n < 3:
        raise ValueError(f"typea_n = {typea_n} is below 3: the typea suite "
                         "would check no symmetric group")
    if name == "all":
        return [rep for suite in SUITES for rep in run_suite(suite, typea_n)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](typea_n)
