"""Source-level checks of the package and of the benchmark's hooks into it.

perfbench/tracing.py wraps each (module, attribute path) in its FUNCTIONS
and ARITHMETIC lists; a target renamed in pcells would break ``--trace 1``
runs only.  The
file is read as source, not imported, so this test runs nothing of the
benchmark; likewise perfbench/expected.json is read as JSON for the report
count that the benchmark's verify-all workload expects and the A6 tau class
counts that its tau-rs workload expects.  Imports in src/pcells sit at
module level, where they are seen at once and resolve once, a fresh
interpreter's import of pcells loads neither dataclasses nor inspect, and
the inverse-duality and star-closure checks compare cells, never pairs of
elements, and the star-relation checkers evaluate one relation system per
x-string, never one per pair of strings.  Cell partitions and tau
results share one shape, checked on B3: each class an increasing tuple of
ints, and a tuple of class ids by element id.  Tau on a simply-laced group
builds no string neighbours.  The enumerated B5 keeps under
100 bytes per element, as tracemalloc counts them: no word tuples and no
row list per element.  F4's KL table keeps under 4.1 bytes per entry: no
slot for the bottom of a built column.  A point lookup in it keeps
nothing, and each of its columns and mu rows yields len() items, each y
once, which the benchmark's digests and entry counts read.
The parabolic suite reads its coset products off the columns and walks
no word through CoxeterSystem.mult.  The W-graph relations of B3's left
cells are checked on ints at v = 2^K, with no LaurentPoly product, sum or
difference.  verify all reports, name by name,
the check counts and verdicts pinned in tests/verify_all_reports.json.
Every function and class that pcells exports is reached from the CLI,
verify or a demo, or is listed with the reason it stays; likewise every
parameter with a default in src/pcells is listed with the reason for its
default.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pcells
from pcells import stars, verify
from pcells.cells import (CellPartition, compute_cells, extract_wgraph,
                          inverse_duality_check, left_cells_from_right,
                          verify_wgraph_relations)
from pcells.coxeter import CoxeterSystem
from pcells.hecke import _BuiltColumn, _Relabelled, compute_kl_table
from pcells.laurent import ONE, LaurentPoly
from pcells.pcanonical import identity_table
from pcells.stars import (DihedralStrings, check_base_change_relations,
                          check_structure_coefficient_relations,
                          star_closure_check, tau_partition,
                          tau_tilde_partition)
from test_coxeter import CARTAN

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pcells"
TRACING = ROOT / "perfbench" / "tracing.py"
EXPECTED = ROOT / "perfbench" / "expected.json"
REPORTS = ROOT / "tests" / "verify_all_reports.json"


def _tracing_targets(name: str) -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]):
            return [(ast.literal_eval(entry.elts[0]),
                     ast.literal_eval(entry.elts[1]))
                    for entry in node.value.elts]
    raise AssertionError(f"no {name} list in {TRACING}")


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for name in path.split("."):
        obj = getattr(obj, name, None)
    return obj


def test_tracing_targets_resolve_in_pcells():
    missing = []
    for name in ("FUNCTIONS", "ARITHMETIC"):
        targets = _tracing_targets(name)
        assert targets
        for module, path in targets:
            assert module.startswith("pcells.")
            if not callable(_resolve(module, path)):
                missing.append(f"{module}.{path}")
    assert not missing, f"tracing targets missing from pcells: {missing}"
    # the counting pass replaces the ring operations on their class; a KL
    # table value must reach those same methods, not overrides of its own
    table = compute_kl_table(CoxeterSystem.from_type("A2"))
    value_type = type(table.h[0][0])
    for module, path in _tracing_targets("ARITHMETIC"):
        method = path.rsplit(".", 1)[1]
        assert getattr(value_type, method) is _resolve(module, path), path


# exports that neither the CLI, verify nor a demo reaches, and why each stays
UNREACHED_EXPORTS = {
    "change_basis": "the kl-cells workload's round trip; pcan_general_product "
                    "and perfbench's tracing wrap it (ROADMAP item 4)",
    "classify_string_relation": "the relation-pattern report of verify "
                                "scale (ROADMAP item 3)",
    "inverse_rs": "the RS round trip of the tau-rs workload",
}


def _mentioned(tree: ast.AST) -> set[str]:
    """The names, attributes and imported names that a syntax tree holds."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_export_is_reached_from_the_cli_verify_or_a_demo():
    # a definition reaches every name its body mentions, and a name stands
    # for every definition of that name in src/pcells, methods included:
    # this over-approximates the call graph, so a name it leaves out is
    # reached by nothing
    uses: dict[str, set[str]] = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses.setdefault(node.name, set()).update(_mentioned(node))
    roots = [SRC / "cli.py", SRC / "verify.py",
             *sorted((ROOT / "demos").glob("*.py"))]
    todo = set().union(*(_mentioned(ast.parse(p.read_text())) for p in roots))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= uses.get(name, set())
    exported = {name for name, obj in vars(pcells).items()
                if isinstance(obj, (type, types.FunctionType))}
    assert exported - reached == set(UNREACHED_EXPORTS)


# every parameter with a default in src/pcells, by module.qualified name,
# and why it has one
KNOBS = {
    ("cli.main", "argv"): "the console script and python -m pcells call "
                          "main() to parse sys.argv; tests pass a list",
    ("coxeter.CoxeterSystem.__init__", "label"):
        "only from_type knows a type label: from_cartan and "
        "parabolic_subsystem build groups without one",
    ("coxeter.CoxeterSystem.from_cartan", "cap"):
        "the benchmark builds its groups under the element cap 10^6; the "
        "CLI's --cap passes another through from_spec",
    ("coxeter.CoxeterSystem.from_type", "cap"):
        "verify, the demos and the benchmark build their groups under the "
        "element cap 10^6",
    ("coxeter._Words.index", "start"): "the Sequence.index protocol",
    ("coxeter._Words.index", "stop"): "the Sequence.index protocol",
    ("hecke.change_basis", "kl"): "a conversion reads only the tables on its "
                                  "path: pcan <-> kl reads no KL table",
    ("hecke.change_basis", "pcan"): "a conversion reads only the tables on "
                                    "its path: std <-> kl reads no p-table",
    ("laurent.LaurentPoly.__init__", "coeffs"): "LaurentPoly() is the zero "
                                                "polynomial, ZERO",
    ("laurent.LaurentPoly.v", "coefficient"): "V and V_INV are the monic "
                                              "monomials v and v^-1",
    ("stars.tau_partition", "orders"):
        "the paper's p = 2 bound excludes the m = 4 pairs: orders=(3,) "
        "keeps tau to the pairs valid at p = 2",
}


def _defaults(tree: ast.AST, prefix: str) -> set[tuple[str, str]]:
    """(qualified name, parameter) for each parameter with a default of
    each function, method, nested function and lambda under tree."""
    out = set()
    for node in ast.iter_child_nodes(tree):
        name = f"{prefix}{getattr(node, 'name', '<lambda>')}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            out |= {(name, a.arg) for a in defaulted}
        nested = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
        out |= _defaults(node, f"{name}." if nested else prefix)
    return out


def test_every_default_is_a_listed_knob():
    found = set()
    for path in SRC.glob("*.py"):
        found |= _defaults(ast.parse(path.read_text()), f"{path.stem}.")
    assert found == set(KNOBS)


def test_no_imports_inside_functions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {fn.name}"
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports inside functions: {found}"


def test_import_leaves_out_dataclasses_and_inspect():
    # every short CLI run pays for what import pcells loads; dataclasses
    # and the inspect, dis and ast modules under it were half of that
    code = ("import sys, pcells, pcells.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_verify_all_matches_the_benchmark_report_count():
    want = json.loads(EXPECTED.read_text())["verify-all"]["reports"]
    reports = verify.run_suite("all", 6)
    assert len(reports) == want
    assert [r.name for r in reports if not r.ok] == []


def test_verify_all_matches_the_pinned_report_list():
    # (name, checked, ok) of every report of verify all --n 6, as written
    # by the suites before their pairwise checkers became counts
    want = json.loads(REPORTS.read_text())
    got = [[r.name, r.checked, r.ok] for r in verify.run_suite("all", 6)]
    assert len(want) == 130
    assert got == want


def test_a6_tau_matches_the_benchmark_class_counts():
    want = json.loads(EXPECTED.read_text())["tau-rs"]["A6"]
    a6 = CoxeterSystem.from_type("A6")
    assert len(tau_partition(a6).classes) == want["tau"] == 232
    assert len(tau_tilde_partition(a6).classes) == want["tau-tilde"] == 232


def test_cells_and_tau_are_tuples_over_ids():
    # every side's cells and both tau kinds' classes: so a tau result is
    # compared with cells, or printed by the cells printers, as it is
    b3 = verify.get_system("B3")
    records = [(part.cells, part.cell_of) for part in (
        verify.get_cells("B3", 0, side)
        for side in ("left", "right", "two-sided"))]
    records += [(part.classes, part.class_of)
                for part in (tau_partition(b3), tau_tilde_partition(b3))]
    for classes, class_of in records:
        assert type(classes) is tuple and type(class_of) is tuple
        assert len(class_of) == b3.size
        assert all(type(i) is int for i in class_of)
        for c in classes:
            assert type(c) is tuple and all(type(x) is int for x in c)
            assert list(c) == sorted(set(c))


def test_simply_laced_tau_builds_no_string_neighbours(monkeypatch):
    # every bonded pair of A5 and D4 has m = 3, where tau keys each element
    # by the class of its star image: the neighbour maps, two arrays per
    # pair (or the dict view, a tuple per element), are never built
    groups = {"A5": CoxeterSystem.from_type("A5"),
              "D4": CoxeterSystem.from_cartan(CARTAN["D4"])}
    want = {label: tau_partition(system) for label, system in groups.items()}
    assert [(len(p.classes), p.stabilized_at) for p in want.values()] == [
        (76, 4), (36, 3)]

    def unread(self):
        raise AssertionError("tau built the string neighbours")

    monkeypatch.setattr(DihedralStrings, "neighbours", property(unread))
    monkeypatch.setattr(stars, "_neighbour_targets", unread)
    for label, system in groups.items():
        assert tau_partition(system) == want[label], label


def test_group_layer_keeps_no_word_tuples():
    # B5 kept 603 B per element (Python 3.11.7) with a frozenset of right
    # descents per element and two int objects per id above 256, about
    # 355 B with a tuple per element for its word, and about 210 B with a
    # row list per element; the tau-rs workload's peak holds B5 and A6
    tracemalloc.start()
    try:
        b5 = CoxeterSystem.from_cartan(CARTAN["B5"])
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b5.size == 3840
    assert retained / b5.size < 100
    assert not isinstance(b5.words, list)
    assert not isinstance(b5.right, list)


def test_tau_keeps_element_ids_in_arrays():
    # D5's tau kept 177 B per element (Python 3.11.7) with a class_of dict
    # and frozenset classes, and peaked at 342 B with a list of int objects
    # per pair; with each pair's maps as arrays over ids, read as iterators
    # each round, and the record as tuples, it keeps 56 B and peaks at 77 B
    d5 = CoxeterSystem.from_cartan(CARTAN["D5"])
    tracemalloc.start()
    try:
        part = tau_partition(d5)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(part.classes), part.stabilized_at) == (126, 8)
    assert retained / d5.size < 64
    assert peak / d5.size < 90


def test_kl_table_keeps_no_bottoms():
    # F4 kept 8.5 B per entry (Python 3.11.7) with each built column's ids
    # and values in two tuples, 6.0 B with its tops and their values only,
    # each bottom read off its top, and 3.8 B with the values as 2-byte
    # indexes into the table's list of distinct values and the relabelled
    # mu rows as views
    f4 = CoxeterSystem.from_cartan(CARTAN["F4"])
    tracemalloc.start()
    try:
        table = compute_kl_table(f4)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = sum(map(len, table.h))
    assert entries == 396809
    assert retained / entries < 4.1


def test_point_lookups_keep_nothing():
    # the first point lookup in a column built a dict of its entries, and
    # the first through a relabelling its inverse dict, and kept them
    f4 = CoxeterSystem.from_cartan(CARTAN["F4"])
    table = compute_kl_table(f4)
    kinds = [[x for x, col in enumerate(table.h) if type(col) is kind][:25]
             for kind in (_BuiltColumn, _Relabelled)]
    xs = kinds[0] + kinds[1]
    assert len(xs) == 50
    tracemalloc.start()
    try:
        for x in xs:
            for y in f4.elements():
                table.h_poly(y, x)
                table.mu_coeff(y, x)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1024


def test_kl_columns_and_rows_count_their_items():
    # the benchmark's table_digests reads items() of every column and mu
    # row, and its trace counts h entries and nonzero mu by len()
    f4 = CoxeterSystem.from_cartan(CARTAN["F4"])
    table = compute_kl_table(f4)
    kinds = set()
    for col in [*table.h, *table.mu]:
        ys = [y for y, _ in col.items()]
        assert len(col) == len(ys) == len(set(ys))
        kinds.add(type(col).__name__)
    assert kinds == {"mappingproxy", "dict", "_BuiltColumn", "_Relabelled"}


def test_cell_level_checks_compare_no_element_pairs(monkeypatch):
    # on F4 the pairwise loops compared all 1 327 104 pairs of elements
    # for inverse duality, and every pair in D_R(r, t) for each star closure
    f4 = CoxeterSystem.from_cartan(CARTAN["F4"])
    table = identity_table(f4)
    right = compute_cells(table, compute_kl_table(f4), "right")
    left = left_cells_from_right(table, right)
    calls = []
    leq = CellPartition.leq
    monkeypatch.setattr(CellPartition, "leq", lambda self, x, y: (
        calls.append((x, y)), leq(self, x, y))[1])
    assert inverse_duality_check(left, right, f4).ok
    pairs = [(r, t) for r in range(f4.rank) for t in range(r + 1, f4.rank)
             if f4.coxeter_matrix[r][t] >= 3]
    assert len(pairs) == 3
    for r, t in pairs:
        assert star_closure_check(left, right, f4, r, t, 0).ok
    assert calls == []
    assert left.leq(0, 0) and calls == [(0, 0)]  # the counter is live


def test_parabolic_suite_walks_no_words(monkeypatch):
    # the coset products x y and y x of the parabolic checks walked a word
    # through CoxeterSystem.mult each, 1 776 of them; they come from the
    # columns (CoxeterSystem.products)
    calls = []
    mult = CoxeterSystem.mult
    monkeypatch.setattr(CoxeterSystem, "mult", lambda self, a, b: (
        calls.append((a, b)), mult(self, a, b))[1])
    assert all(rep.ok for rep in verify.verify_parabolic())
    assert calls == []
    c3 = verify.get_system("C3")
    assert c3.mult(1, 2) == c3.right_by_gen[1][1]  # the counter is live
    assert calls == [(1, 2)]


def test_relation_checkers_evaluate_no_pairs_of_strings(monkeypatch):
    # on F4 the pairwise loops evaluated one system per pair of strings:
    # 147 456 for base change on (1, 2), and as many per raising generator
    # for structure coefficients
    f4 = CoxeterSystem.from_cartan(CARTAN["F4"])
    table, kl = identity_table(f4), compute_kl_table(f4)
    calls = []
    check = stars._check_relation_system
    monkeypatch.setattr(stars, "_check_relation_system", lambda *args: (
        calls.append(args[2]), check(*args))[1])
    pairs = [(r, t) for r in range(f4.rank) for t in range(r + 1, f4.rank)
             if f4.coxeter_matrix[r][t] >= 3]
    assert len(pairs) == 3
    for r, t in pairs:
        bound = f4.rank * len(DihedralStrings(f4, r, t).strings)
        assert check_base_change_relations(table, r, t).ok
        assert 0 < len(calls) <= bound
        calls.clear()
        assert check_structure_coefficient_relations(table, kl, r, t).ok
        assert 0 < len(calls) <= bound
        calls.clear()


def test_wgraph_relations_do_no_laurent_arithmetic(monkeypatch):
    # the relation loops multiplied and added LaurentPoly dicts term by
    # term: every left cell of B3 is checked on ints at v = 2^K
    b3 = verify.get_system("B3")
    table, kl = verify.get_table("B3", 0), verify.get_kl("B3")
    left = verify.get_cells("B3", 0, "left")
    graphs = [extract_wgraph(left, i, table, kl)
              for i in range(len(left.cells))]
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__sub__"):
        monkeypatch.setattr(LaurentPoly, name, lambda self, other, name=name,
                            op=getattr(LaurentPoly, name): (
                                calls.append(name), op(self, other))[1])
    assert all(verify_wgraph_relations(g, b3).ok for g in graphs)
    assert calls == []
    assert ONE + ONE == 2 and calls == ["__add__"]  # the counter is live
