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
x-string, never one per pair of strings.  Tau on a simply-laced group
builds no string neighbours.  The enumerated B5 keeps under
100 bytes per element, as tracemalloc counts them: no word tuples and no
row list per element.
Every function and class that pcells exports is reached from the CLI,
verify or a demo, or is listed with the reason it stays.
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
from pcells.cells import (CellPartition, compute_cells, inverse_duality_check,
                          left_cells_from_right)
from pcells.coxeter import CoxeterSystem
from pcells.hecke import compute_kl_table
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


def test_a6_tau_matches_the_benchmark_class_counts():
    want = json.loads(EXPECTED.read_text())["tau-rs"]["A6"]
    a6 = CoxeterSystem.from_type("A6")
    assert len(tau_partition(a6).classes) == want["tau"] == 232
    assert len(tau_tilde_partition(a6).classes) == want["tau-tilde"] == 232


def test_simply_laced_tau_builds_no_string_neighbours(monkeypatch):
    # every bonded pair of A5 and D4 has m = 3, where tau keys each element
    # by the class of its star image: the neighbour maps, a tuple per
    # element, are never built
    groups = {"A5": CoxeterSystem.from_type("A5"),
              "D4": CoxeterSystem.from_cartan(CARTAN["D4"])}
    want = {label: tau_partition(system) for label, system in groups.items()}
    assert [(len(p.classes), p.stabilized_at) for p in want.values()] == [
        (76, 4), (36, 3)]

    def unread(self):
        raise AssertionError("tau built the string neighbours")

    monkeypatch.setattr(DihedralStrings, "neighbours", property(unread))
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
        assert star_closure_check(left, right, f4, r, t).ok
    assert calls == []
    assert left.leq(0, 0) and calls == [(0, 0)]  # the counter is live


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
