"""The benchmark's tracing targets name live pcells functions.

perfbench/tracing.py wraps each (module, attribute path) in its FUNCTIONS
list; a target renamed in pcells would break ``--trace 1`` runs only.  The
file is read as source, not imported, so this test runs nothing of the
benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
