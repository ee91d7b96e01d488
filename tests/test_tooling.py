"""Source-level checks of the package and of the benchmark's hooks into it.

perfbench/tracing.py wraps each (module, attribute path) in its FUNCTIONS
list; a target renamed in pcells would break ``--trace 1`` runs only.  The
file is read as source, not imported, so this test runs nothing of the
benchmark; likewise perfbench/expected.json is read as JSON for the report
count that the benchmark's verify-all workload expects and the A6 tau class
counts that its tau-rs workload expects.  Imports in src/pcells sit at
module level, where they are seen at once and resolve once.
"""

import ast
import importlib
import json
from pathlib import Path

from pcells import verify
from pcells.coxeter import CoxeterSystem
from pcells.stars import tau_partition, tau_tilde_partition

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
EXPECTED = ROOT / "perfbench" / "expected.json"


def _tracing_targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["FUNCTIONS"]):
            return [(ast.literal_eval(entry.elts[0]),
                     ast.literal_eval(entry.elts[1]))
                    for entry in node.value.elts]
    raise AssertionError(f"no FUNCTIONS list in {TRACING}")


def test_tracing_targets_resolve_in_pcells():
    targets = _tracing_targets()
    assert targets
    missing = []
    for module, path in targets:
        assert module.startswith("pcells.")
        obj = importlib.import_module(module)
        for name in path.split("."):
            obj = getattr(obj, name, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert not missing, f"tracing targets missing from pcells: {missing}"


def test_no_imports_inside_functions():
    found = []
    for path in sorted((ROOT / "src" / "pcells").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {fn.name}"
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports inside functions: {found}"


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
