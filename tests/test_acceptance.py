"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its runtime budget (run with -s to see the lines)."""

import time

import pytest

from pcells import verify
from pcells.cells import verify_wgraph_relations, extract_wgraph, compute_cells
from pcells.laurent import LaurentPoly
from pcells.pcanonical import PCanValidationError, load_table, identity_table


def _run(criterion: str, budget: float, reports):
    elapsed = getattr(reports, "elapsed", None)
    failures = [r for r in reports if not r.ok]
    for rep in failures:
        print(f"[FAIL] {rep.name}")
        for v in rep.violations[:5]:
            print(f"       {v}")
    assert not failures, f"{criterion}: {len(failures)} report(s) failed"


def _timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, time.monotonic() - t0


def test_criterion_1_b2_golden():
    reports, dt = _timed(verify.verify_b2)
    _run("criterion 1", 1.0, reports)
    assert dt < 1.0, f"B2 suite took {dt:.2f}s"
    print(f"[PASS] criterion 1: B2 reference cells and Hasse diagrams ({dt:.2f}s)")


def test_criterion_2_g2_golden():
    reports, dt = _timed(verify.verify_g2)
    _run("criterion 2", 1.0, reports)
    assert dt < 1.0, f"G2 suite took {dt:.2f}s"
    print(f"[PASS] criterion 2: G2 reference cells incl. unique-reduced-expression "
          f"characterization ({dt:.2f}s)")


def test_criterion_3_c3_p0_golden():
    reports, dt = _timed(verify.verify_c3_p0)
    _run("criterion 3", 5.0, reports)
    assert dt < 5.0, f"C3 p=0 suite took {dt:.2f}s"
    print(f"[PASS] criterion 3: C3 p=0 cells, Hasse diagram, two-sided heights ({dt:.2f}s)")


def test_criterion_4_c3_p2_golden():
    reports, dt = _timed(verify.verify_c3_p2)
    _run("criterion 4", 5.0, reports)
    assert dt < 5.0, f"C3 p=2 suite took {dt:.2f}s"
    print(f"[PASS] criterion 4: C3 p=2 cell decomposition, Hasse diagram, "
          f"cell-module graph labels ({dt:.2f}s)")


def test_criterion_5_typea_suite():
    reports, dt = _timed(lambda: verify.run_suite("typea", 6))
    _run("criterion 5", 60.0, reports)
    assert dt < 60.0, f"type A suite took {dt:.2f}s"
    print(f"[PASS] criterion 5: type A cell theorem n=3..6, involution and "
          f"hook counts ({dt:.2f}s)")


def test_criterion_6_invariant_suite():
    def suite():
        return verify.verify_invariants() + verify.verify_parabolic()

    reports, dt = _timed(suite)
    _run("criterion 6", 30.0, reports)
    assert dt < 30.0, f"invariant suite took {dt:.2f}s"
    print(f"[PASS] criterion 6: descent/inverse-duality/identity-cell "
          f"invariants, table validations, parabolic compatibility ({dt:.2f}s)")


def test_criterion_7_star_suite():
    reports, dt = _timed(verify.verify_stars)
    _run("criterion 7", 60.0, reports)
    assert dt < 60.0, f"star suite took {dt:.2f}s"
    print(f"[PASS] criterion 7: sliding/base-change/structure-coefficient/"
          f"vanishing relations, star closure, W-graph checks on A3 and B3 ({dt:.2f}s)")


def test_criterion_8_tau_suite():
    reports, dt = _timed(verify.verify_tau)
    _run("criterion 8", 30.0, reports)
    assert dt < 30.0, f"tau suite took {dt:.2f}s"
    print(f"[PASS] criterion 8: tau invariants vs cells, decomposition "
          f"criterion outcomes ({dt:.2f}s)")


def test_criterion_9_negative_tests():
    t0 = time.monotonic()
    c3 = verify.get_system("C3")
    # a corrupted table is rejected with the offending pair located
    with pytest.raises(PCanValidationError) as err:
        load_table({"p": 2, "entries": [{
            "x": [2, 1, 2],
            "terms": [{"y": [2, 1, 2], "coeff": [[0, 1]]},
                      {"y": [2], "coeff": [[1, 1]]}]}]}, c3)
    assert "y=2, x=212" in str(err.value)

    # a perturbed W-graph fails the defining relations with a located report
    b2 = verify.get_system("B2")
    kl_b2 = verify.get_kl("B2")
    tab = identity_table(b2)
    left = compute_cells(tab, kl_b2, "left")
    cell = [b2.digits_to_id(w) for w in ("1", "21", "121")]
    assert left.cells[left.cell_of[min(cell)]] == tuple(sorted(cell))
    g = extract_wgraph(left, left.cell_of[min(cell)], tab, kl_b2)
    (a, b), labels = next(iter(sorted(g.edges.items())))
    labels[next(iter(labels))] = LaurentPoly(7)
    rep = verify_wgraph_relations(g, b2)
    assert not rep.ok and rep.violations

    # through the command line, a corrupt table exits with code 1
    import json as _json
    import tempfile
    from pcells.cli import main
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        _json.dump({"p": 2, "entries": [{
            "x": [2, 1, 2],
            "terms": [{"y": [2, 1, 2], "coeff": [[0, 1]]},
                      {"y": [2], "coeff": [[1, 1]]}]}]}, fh)
        path = fh.name
    assert main(["cells", "--type", "C3", "--p", "2", "--table", path]) == 1
    dt = time.monotonic() - t0
    print(f"[PASS] criterion 9: corrupted tables and perturbed W-graphs are "
          f"rejected with located violations ({dt:.2f}s)")


def test_golden_report_names():
    names = {fn.__name__: [rep.name for rep in fn()]
             for fn in (verify.verify_b2, verify.verify_g2,
                        verify.verify_c3_p0, verify.verify_c3_p2)}
    assert names == {
        "verify_b2": ["B2 KL right cells + Hasse",
                      "B2 KL two-sided cells + Hasse"],
        "verify_g2": ["G2 KL right cells + Hasse",
                      "G2 KL two-sided cells + Hasse",
                      "G2 unique-reduced-expression characterization"],
        "verify_c3_p0": ["C3 KL right cells + Hasse",
                         "C3 KL two-sided grouping"],
        "verify_c3_p2": ["C3 p=2 right cells + Hasse",
                         "C3 p=2 two-sided grouping",
                         "C3 p=2 cell-module graph on C6 u C12"],
    }


@pytest.mark.parametrize("suite", ["typea", "all"])
@pytest.mark.parametrize("n", [-1, 0, 2])
def test_run_suite_rejects_typea_n_below_3(suite, n):
    with pytest.raises(ValueError, match="below 3"):
        verify.run_suite(suite, typea_n=n)
