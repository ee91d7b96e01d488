import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pcells.cli import _PRIME_LIMIT, main
from pcells.coxeter import cartan_matrix_of_type
from pcells.stars import PBoundError

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cells_b2(capsys):
    code, out, _ = run(capsys, "cells", "--type", "B2", "--p", "0",
                       "--side", "right")
    assert code == 0
    assert "4 right cells" in out


def test_cells_c3_p2(capsys):
    code, out, _ = run(capsys, "cells", "--type", "C3", "--p", "2",
                       "--fixture", "c3_p2", "--side", "right")
    assert code == 0
    assert "17 right cells" in out


def test_cells_two_sided_a2(capsys):
    code, out, _ = run(capsys, "cells", "--type", "A2", "--p", "0",
                       "--side", "two-sided")
    assert code == 0
    assert "3 two-sided cells" in out
    # the CLI maps its "lr" and "2" aliases to "two-sided"
    for alias in ("lr", "2"):
        assert run(capsys, "cells", "--type", "A2", "--p", "0",
                   "--side", alias) == (code, out, "")


def test_cells_json_and_dot_formats(capsys, tmp_path):
    code, out, _ = run(capsys, "cells", "--type", "A2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["side"] == "right" and len(obj["cells"]) == 4
    code, out1, _ = run(capsys, "cells", "--type", "A2", "--format", "dot")
    code, out2, _ = run(capsys, "cells", "--type", "A2", "--format", "dot")
    assert out1 == out2 and out1.startswith("digraph")


def test_cells_missing_table_is_usage_error(capsys):
    code, _, err = run(capsys, "cells", "--type", "C3", "--p", "2")
    assert code == 2


def test_cells_corrupt_table_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "p": 2,
        "entries": [{"x": [2, 1, 2],
                     "terms": [{"y": [2, 1, 2], "coeff": [[0, 1]]},
                               {"y": [2], "coeff": [[1, 1]]}]}],
    }))
    code, _, err = run(capsys, "cells", "--type", "C3", "--p", "2",
                       "--table", str(bad))
    assert code == 1
    assert "self-dual" in err


def test_cells_cap_exceeded(capsys):
    code, _, err = run(capsys, "cells", "--type", "C3", "--cap", "10")
    assert code == 1
    assert "cap" in err


def test_cells_cartan_entries_must_be_integers(capsys):
    for matrix in ("[[2, -1.7], [-1, 2]]", '[[2, "-1"], [-1, 2]]'):
        code, _, err = run(capsys, "cells", "--cartan", matrix)
        assert code == 2
        assert "Cartan entry a(1,2)" in err and "is not an integer" in err


def test_cells_infinite_group(capsys):
    code, _, err = run(capsys, "cells", "--cartan",
                       "[[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]")
    assert code == 1
    assert "infinite" in err


def test_rs(capsys):
    code, out, _ = run(capsys, "rs", "312")
    assert code == 0
    assert "P = [[1, 2], [3]]" in out
    assert "Q = [[1, 3], [2]]" in out
    code, out, _ = run(capsys, "rs", "123")
    assert "[[1, 2, 3]]" in out
    code, out, _ = run(capsys, "rs", "321")
    assert "[[1], [2], [3]]" in out


def test_rs_malformed(capsys):
    # "1a" reported int()'s message, Arabic-Indic or fullwidth digits were
    # read as the ASCII ones, and an empty or blank input printed P = []
    for text in ("322", "1a", "\u0663\u0661\u0662", "\uff13 1 2", "", " "):
        code, out, err = run(capsys, "rs", text)
        assert (code, out) == (2, "")
        assert _one_error_line(err) == (
            f"error: {text!r} is not a permutation in one-line notation")


def test_tau(capsys):
    code, out, _ = run(capsys, "tau", "--type", "A1")
    assert code == 0
    assert "2 tau classes" in out
    code, out, _ = run(capsys, "tau", "--type", "B3", "--tilde")
    assert code == 0
    assert "tau-tilde classes" in out


def test_tau_json_export(capsys):
    code, out, _ = run(capsys, "tau", "--type", "A2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "tau" and len(obj["classes"]) == 4


def test_out_flag(capsys, tmp_path):
    target = tmp_path / "cells.json"
    code, out, _ = run(capsys, "cells", "--type", "A2", "--format", "json",
                       "--out", str(target))
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert len(obj["cells"]) == 4


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "b2")
    assert code == 0
    assert "[pass]" in out or "pass" in out


def test_usage_error(capsys):
    assert main(["cells"]) == 2  # no group spec


@pytest.mark.parametrize("error", [
    OverflowError("Kazhdan-Lusztig coefficient 1073741824 of v^3 reaches "
                  "2^30, beyond the packed kernel's width"),
    PBoundError("p = 2 is below the bound for bond order 4"),
    ValueError("an internal invariant failed"),
])
def test_errors_while_computing_exit_1(capsys, monkeypatch, error):
    def fail(system):
        raise error

    monkeypatch.setattr("pcells.cli.compute_kl_table", fail)
    code, out, err = run(capsys, "cells", "--type", "A2")
    assert (code, out, err) == (1, "", f"error: {error}\n")


def test_out_of_memory_exits_1(capsys, monkeypatch):
    def fail(system):
        raise MemoryError

    monkeypatch.setattr("pcells.cli.compute_kl_table", fail)
    code, out, err = run(capsys, "cells", "--type", "A2")
    assert (code, out, err) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize("argv", [
    ("cells", "--type", "Q3"),
    ("cells", "--cartan", "[[2, -1], [-1"),
    ("cells", "--cartan", "[[2, 1], [1, 2]]"),
    ("cells", "--type", "A2", "--side", "up"),
    ("tau", "--cartan", '{"rank": 2}'),
    ("rs", "1 3"),
    ("verify", "typea", "--n", "-1"),
    ("verify", "typea", "--n", "2"),
    ("verify", "all", "--n", "0"),
    ("verify", "typea", "--n", "three"),
])
def test_input_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error" in err


def _one_error_line(err: str) -> str:
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1 and "Traceback" not in err
    return lines[0]


@pytest.mark.parametrize("p", ["3", "5"])
def test_p_other_than_the_tables_is_a_usage_error(capsys, p):
    # the table is c3_p2: its prime is 2, whatever --p says
    code, out, err = run(capsys, "cells", "--type", "C3", "--p", p,
                         "--fixture", "c3_p2")
    assert (code, out) == (2, "")
    assert _one_error_line(err) == \
        f"error: --p {p} differs from the table's p = 2"


@pytest.mark.parametrize("p", ["4", "-2", "1", "-3", "9", "two"])
def test_p_neither_0_nor_prime_is_a_usage_error(capsys, p):
    code, out, err = run(capsys, "cells", "--type", "C3", "--p", p,
                         "--fixture", "c3_p2")
    assert (code, out) == (2, "")
    assert "--p" in _one_error_line(err)


def test_large_primes_are_accepted(capsys):
    assert run(capsys, "cells", "--type", "C3", "--p", "2",
               "--fixture", "c3_p2")[0] == 0
    for p in ("3", "1000000007", str(2 ** 61 - 1)):
        # the argument parses; only the table's prime rejects it
        code, out, err = run(capsys, "cells", "--type", "C3", "--p", p,
                             "--fixture", "c3_p2")
        assert (code, out) == (2, "")
        assert _one_error_line(err) == \
            f"error: --p {p} differs from the table's p = 2"


@pytest.mark.parametrize("p", ["1", "4", "561", "3215031751",
                               str(2 ** 61 + 1)])
def test_composites_are_rejected_at_once(capsys, p):
    # 561 is a Carmichael number and 3215031751 a strong pseudoprime to
    # the bases 2, 3, 5 and 7; trial division up to sqrt(2^61 + 1) would
    # take minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "cells", "--type", "A2", "--p", p)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert f"{p} is neither 0 nor a prime" in _one_error_line(err)


def test_p_beyond_the_decided_range_is_a_usage_error(capsys):
    code, out, err = run(capsys, "cells", "--type", "A2", "--p",
                         str(_PRIME_LIMIT))
    assert (code, out) == (2, "")
    assert f"is neither 0 nor a prime below {_PRIME_LIMIT}" in \
        _one_error_line(err)


@pytest.mark.parametrize("command", ["cells", "tau"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_1_is_a_usage_error(capsys, command, cap):
    code, out, err = run(capsys, command, "--type", "B2", "--cap", cap)
    assert (code, out) == (2, "")
    assert "--cap" in _one_error_line(err)
    # the smallest cap that holds B2 still works
    assert run(capsys, command, "--type", "B2", "--cap", "8")[0] == 0


def test_table_of_another_type_is_rejected(capsys):
    # c3_p2 names type C3; B3 has as many elements, and words of C3 are
    # words of B3, so without the check it would load
    code, out, err = run(capsys, "cells", "--type", "B3", "--p", "2",
                         "--fixture", "c3_p2")
    assert (code, out) == (1, "")
    assert _one_error_line(err) == "error: table is for type 'C3', not B3"
    # a group given by its Cartan matrix is checked through that matrix
    b3, c3 = (json.dumps(cartan_matrix_of_type(t)) for t in ("B3", "C3"))
    code, out, err = run(capsys, "cells", "--cartan", b3, "--p", "2",
                         "--fixture", "c3_p2")
    assert (code, out) == (1, "")
    assert _one_error_line(err).startswith("error: table is for type 'C3'")
    code, out, _ = run(capsys, "cells", "--cartan", c3, "--p", "2",
                       "--fixture", "c3_p2")
    assert code == 0 and out.startswith("17 right cells at p = 2:")


@pytest.mark.parametrize("argv", [
    ("cells", "--type", "A2", "--out", "{dir}"),
    ("tau", "--type", "A2", "--out", "{dir}"),
    ("cells", "--cartan", "{dir}"),
    ("cells", "--type", "C3", "--p", "2", "--table", "{dir}"),
])
def test_directory_at_a_file_option_exits_1(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (code, out) == (1, "")
    line = _one_error_line(err)
    assert line.startswith("error: ") and str(tmp_path) in line


def test_inline_cartan_longer_than_a_file_name(capsys, tmp_path):
    # A1^9 written inline is longer than the 255 bytes a file name may have
    a1_9 = json.dumps([[2 * (i == j) for j in range(9)] for i in range(9)])
    assert len(a1_9.encode()) > 255
    path = tmp_path / "a1_9.json"
    path.write_text(a1_9)
    for cartan in (a1_9, str(path)):
        code, out, _ = run(capsys, "tau", "--cartan", cartan)
        assert code == 0 and out.startswith("512 tau classes")
    code, out, err = run(capsys, "tau", "--cartan", a1_9, "--cap", "100")
    assert (code, out) == (1, "")
    assert _one_error_line(err).startswith("error: group exceeds cap of 100")


def test_cells_of_a1_9(capsys):
    # A1^9 has 9! Coxeter-graph automorphisms and 512 elements; listing
    # and lifting every one of them took the KL table past 2.5 GiB
    a1_9 = json.dumps([[2 * (i == j) for j in range(9)] for i in range(9)])
    code, out, _ = run(capsys, "cells", "--cartan", a1_9)
    assert code == 0 and out.startswith("512 right cells")


@pytest.mark.parametrize("command", ["cells", "tau"])
@pytest.mark.parametrize("option,group,rank", [
    ("--cartan", "{a10}", 10), ("--cartan", "{a12}", 12),
    ("--cartan", '{{"cartan": {a12}}}', 12), ("--type", "A10", 10),
    ("--cartan", '{{"type": "A12"}}', 12)])
def test_a_rank_above_9_is_a_usage_error(capsys, command, option, group,
                                         rank):
    # at rank 12, s12 and s1 s2 both printed as "12": A1^12 gave 4 096
    # elements 4 095 labels; at rank 10, s10 printed as "10", which no
    # digit string reads back
    a1 = {f"a{n}": json.dumps([[2 * (i == j) for j in range(n)]
                               for i in range(n)]) for n in (10, 12)}
    code, out, err = run(capsys, command, option, group.format(**a1),
                         "--format", "json")
    assert (code, out) == (2, "")
    assert _one_error_line(err) == (
        f"error: rank {rank} is above 9: elements print as words in the "
        "digits 1-9, one per generator")


def test_unparsable_table_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"p\": 2, ")
    code, _, err = run(capsys, "cells", "--type", "C3", "--p", "2",
                       "--table", str(bad))
    assert code == 2
    assert err.startswith("error: ")


def test_closed_output_pipe_exits_1_without_traceback():
    # the reader is gone before the first write, as when `| head -2` exits
    # before the output ends
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pcells", "tau", "--type", "A5", "--tilde"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: output pipe closed before all output was written"]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", ["cells", "tau"])
@pytest.mark.parametrize("spec,message", [
    ('{"type": 3}', "type label 3 is not a string"),
    ('{"type": ["A", 2]}', "type label ['A', 2] is not a string"),
    ("[1]", "Cartan matrix [1] is not a list of lists"),
    ('{"cartan": 5}', "Cartan matrix 5 is not a list of lists"),
    ("5", "group spec 5 is not an object"),
    ("null", "group spec None is not an object"),
    ('{"cartan": [[2, -1], [-1, 2]], "type": "B2"}',
     "group spec has both a 'type' and a 'cartan' key"),
    ('{"type": "  "}', "bad type label '  '"),
    ('{"type": "A\uff12"}', "bad type label 'A\uff12'"),
    ('{"type": "A3", "extra": 1}', "group spec has an unknown key 'extra'"),
])
def test_malformed_group_specs_are_usage_errors(capsys, command, spec,
                                                message):
    # each of these ended in an AttributeError, TypeError or IndexError
    # traceback, or built a group the spec does not name: B2 without
    # reading the matrix, A2 from a fullwidth rank, A3 ignoring a key
    code, out, err = run(capsys, command, "--cartan", spec)
    assert (code, out) == (2, "")
    assert _one_error_line(err) == f"error: {message}"


@pytest.mark.parametrize("command", ["cells", "tau"])
@pytest.mark.parametrize("label", [" ", "A\uff12", "A\u0663", "A01"])
def test_malformed_type_labels_are_usage_errors(capsys, command, label):
    code, out, err = run(capsys, command, "--type", label)
    assert (code, out) == (2, "")
    assert _one_error_line(err) == f"error: bad type label {label!r}"
