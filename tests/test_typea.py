import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcells.stars import DihedralStrings
from pcells.typea import (
    _intersection_failures,
    _perms_of_elements,
    all_permutations,
    hook_length_count,
    inverse_rs,
    involutions,
    knuth_moves,
    parse_one_line,
    perm_inverse,
    perm_of_element,
    rs_correspondence,
    shape_of,
    standard_tableaux_count,
    verify_typea_cell_theorem,
)
from pcells import verify


def perm_to_word(perm):
    """A reduced word for the permutation (peeling right descents)."""
    line = list(perm)
    word = []
    while True:
        for i in range(len(line) - 1):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                word.append(i)
                break
        else:
            return tuple(reversed(word))


def element_of_perm(system, perm):
    return system.word_to_id(perm_to_word(perm))


def is_standard(tableau):
    """Whether the tableau holds 1..n, increasing along rows and down
    columns, in rows of weakly decreasing length."""
    entries = sorted(x for row in tableau for x in row)
    n = len(entries)
    if entries != list(range(1, n + 1)):
        return False
    for row in tableau:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for r in range(1, len(tableau)):
        if len(tableau[r]) > len(tableau[r - 1]):
            return False
        if any(tableau[r][c] <= tableau[r - 1][c] for c in range(len(tableau[r]))):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)))
def test_rs_is_a_bijection_onto_pairs_of_standard_tableaux(w):
    p, q = rs_correspondence(w)
    assert is_standard(p) and is_standard(q)
    assert shape_of(p) == shape_of(q)
    assert inverse_rs(p, q) == w
    # Schutzenberger's symmetry: inverting w swaps P and Q
    assert rs_correspondence(perm_inverse(w)) == (q, p)


def test_rs_identity_and_w0():
    assert rs_correspondence((1, 2, 3, 4)) == (((1, 2, 3, 4),), ((1, 2, 3, 4),))
    p, q = rs_correspondence((4, 3, 2, 1))
    assert p == ((1,), (2,), (3,), (4,)) and q == p


def test_rs_312():
    p, q = rs_correspondence((3, 1, 2))
    assert p == ((1, 2), (3,))
    assert q == ((1, 3), (2,))


def test_inverse_rs():
    assert inverse_rs(((1, 2, 3),), ((1, 2, 3),)) == (1, 2, 3)
    for perm in all_permutations(5):
        p, q = rs_correspondence(perm)
        assert is_standard(p) and is_standard(q)
        assert inverse_rs(p, q) == perm
    with pytest.raises(ValueError):
        inverse_rs(((1, 2),), ((1,), (2,)))
    # reverse bumping 1 out of the second row of a nonstandard P finds no
    # smaller entry in the first row
    with pytest.raises(ValueError, match="not standard"):
        inverse_rs(((2,), (1,)), ((1,), (2,)))
    # a nonstandard Q is named, whichever way it fails: a row out of order,
    # a missing or repeated entry, an entry out of range, a column out of
    # order, and a shape that is not a partition (where the reverse bumps
    # alone would return (3, 2, 1))
    for p, q in ((((1, 2),), ((2, 1),)),
                 (((1, 3), (2,)), ((1, 2), (2,))),
                 (((1, 3), (2,)), ((1, 2), (4,))),
                 (((1, 3), (2,)), ((2, 3), (1,))),
                 (((1,), (3, 2)), ((1,), (2, 3)))):
        with pytest.raises(ValueError, match="Q is not standard"):
            inverse_rs(p, q)


def _rs_by_scan(perm):
    """rs_correspondence with a linear scan for the bumped entry: the
    oracle of its bisect search."""
    p_rows, q_rows = [], []
    for step, x in enumerate(perm, start=1):
        row = 0
        while True:
            if row == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            current = p_rows[row]
            bump_at = None
            for i, entry in enumerate(current):
                if entry > x:
                    bump_at = i
                    break
            if bump_at is None:
                current.append(x)
                q_rows[row].append(step)
                break
            current[bump_at], x = x, current[bump_at]
            row += 1
    return (tuple(tuple(r) for r in p_rows), tuple(tuple(r) for r in q_rows))


def _inverse_rs_by_scan(p, q):
    """inverse_rs with a reverse linear scan for the displaced entry: the
    oracle of its bisect search."""
    rows = [list(r) for r in p]
    order = {entry: (r, c) for r, row in enumerate(q)
             for c, entry in enumerate(row)}
    out = []
    for step in range(len(order), 0, -1):
        r, c = order[step]
        x = rows[r].pop(c)
        for row in range(r - 1, -1, -1):
            target = rows[row]
            for i in range(len(target) - 1, -1, -1):
                if target[i] < x:
                    target[i], x = x, target[i]
                    break
        out.append(x)
    return tuple(reversed(out))


def test_rs_bisect_matches_scan_oracle():
    for n in range(1, 9):
        for perm in all_permutations(n):
            p, q = rs_correspondence(perm)
            assert (p, q) == _rs_by_scan(perm)
            assert inverse_rs(p, q) == _inverse_rs_by_scan(p, q) == perm


def test_symmetry_theorem():
    for n in range(1, 6):
        for perm in all_permutations(n):
            p, q = rs_correspondence(perm)
            assert rs_correspondence(perm_inverse(perm)) == (q, p)


def test_rs_is_a_bijection():
    for n in range(1, 7):
        images = {rs_correspondence(w) for w in all_permutations(n)}
        assert len(images) == len(all_permutations(n))


def test_knuth_moves_examples():
    moves = knuth_moves((3, 1, 2))
    assert (2, (1, 3, 2)) in moves
    assert knuth_moves((1, 2, 3, 4)) == []
    for perm in all_permutations(4):
        for i, out in knuth_moves(perm):
            assert (i, perm) in knuth_moves(out)


def knuth_equivalent(x, y):
    """Whether y is reached from x by Knuth moves, by breadth-first search.
    By Knuth's theorem this holds iff x and y have the same P-symbol."""
    x, y = tuple(x), tuple(y)
    seen = {x}
    frontier = [x]
    found = x == y
    while frontier and not found:
        nxt = []
        for w in frontier:
            for _, u in knuth_moves(w):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
                    if u == y:
                        found = True
        frontier = nxt
    return found


def test_knuth_equivalence():
    assert knuth_equivalent((3, 1, 2), (3, 1, 2))
    assert knuth_equivalent((3, 1, 2), (1, 3, 2))
    # Knuth's theorem: the classes are the fibres of the P-symbol
    for n in (4, 5):
        classes = {}
        for perm in all_permutations(n):
            classes.setdefault(rs_correspondence(perm)[0], set()).add(perm)
        for cls in classes.values():
            rep = next(iter(cls))
            for other in all_permutations(n):
                assert knuth_equivalent(rep, other) == (other in cls)


def test_knuth_moves_are_star_operations():
    # K_i applies exactly on D_R(s_{i-1}, s_i) and equals the right star
    for n in range(2, 6):
        system = verify.get_system(f"A{n - 1}")
        # the right star map of the pair (s_{i-1}, s_i), 0-based (i-2, i-1)
        star_of = {i: DihedralStrings(system, i - 2, i - 1).star
                   for i in range(2, n)}
        for w in system.elements():
            perm = perm_of_element(system, w)
            applicable = {i for i, _ in knuth_moves(perm)}
            for i in range(2, n):
                assert (i in applicable) == (w in star_of[i])
                if i in applicable:
                    moved = dict(knuth_moves(perm))[i]
                    assert element_of_perm(system, moved) == star_of[i][w]


def _enumerate_standard_tableaux(shape):
    """All standard tableaux of a shape, by backtracking: the oracle of the
    corner count and of the hook length formula."""
    shape = tuple(shape)
    n = sum(shape)
    rows = [[] for _ in shape]
    out = []

    def place(step):
        if step > n:
            out.append(tuple(tuple(r) for r in rows))
            return
        for r, row in enumerate(rows):
            c = len(row)
            if c >= shape[r]:
                continue
            if r > 0 and len(rows[r - 1]) <= c:
                continue
            row.append(step)
            place(step + 1)
            row.pop()

    place(1)
    return out


def test_hook_lengths():
    assert hook_length_count((5,)) == 1
    assert hook_length_count((1, 1, 1)) == 1
    assert hook_length_count((2, 1)) == 2
    assert hook_length_count(()) == standard_tableaux_count((), {}) == 1
    counted = {}
    for n in range(1, 10):
        for shape in _partitions(n):
            tableaux = _enumerate_standard_tableaux(shape)
            assert all(map(is_standard, tableaux))
            assert hook_length_count(shape) == len(tableaux), shape
            assert standard_tableaux_count(shape, counted) == len(tableaux)
            # a fresh memo gives the same count
            assert standard_tableaux_count(shape, {}) == len(tableaux)
    # the memo holds every shape counted
    assert len(counted) == sum(1 for n in range(1, 10) for _ in _partitions(n))


def test_shapes_with_bad_parts_are_rejected():
    # each part must be an int of at least 1: (2, -1) and (3, -2) counted
    # 0 tableaux, (True,) read as (1,), and (1, 0, 0) as (1,)
    for shape in ((2, -1), (3, -2), (True,), (2, False), (1, 0, 0), (0,),
                  (2.0, 1), ("2",), (2, None)):
        for count in (hook_length_count,
                      lambda shape: standard_tableaux_count(shape, {})):
            with pytest.raises(ValueError, match="has part") as err:
                count(shape)
            bad = next(p for p in shape if isinstance(p, bool)
                       or not isinstance(p, int) or p < 1)
            assert repr(bad) in str(err.value)
    for count in (hook_length_count,
                  lambda shape: standard_tableaux_count(shape, {})):
        with pytest.raises(ValueError, match="weakly decreasing"):
            count((1, 2))


def _partitions(n, cap=None):
    if n == 0:
        yield ()
        return
    cap = n if cap is None else min(cap, n)
    for first in range(cap, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_involution_counts():
    assert [len(involutions(n)) for n in range(1, 7)] == [1, 2, 4, 10, 26, 76]


def test_word_round_trip():
    for n in range(2, 6):
        system = verify.get_system(f"A{n - 1}")
        for w in system.elements():
            perm = perm_of_element(system, w)
            assert element_of_perm(system, perm) == w
            assert len(perm_to_word(perm)) == system.length[w]


def test_one_pass_permutations_match_perm_of_element():
    # the cell theorem check builds every permutation in one pass over the
    # ids instead of one word walk per element
    for n in range(2, 7):
        system = verify.get_system(f"A{n - 1}")
        assert _perms_of_elements(system) == [
            perm_of_element(system, w) for w in system.elements()]


def test_parse_one_line():
    assert parse_one_line("312") == (3, 1, 2)
    assert parse_one_line("10 2 3 4 5 6 7 8 9 1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    # ASCII digits only: no int() message, no other script's digits
    for text in ("322", "1a", "1 a", "\u0663\u0661\u0662", "\uff13\uff11\uff12",
                 "3 \u0661 2", "\u00b9", "", " ", "\t"):
        with pytest.raises(ValueError, match="is not a permutation"):
            parse_one_line(text)


def test_cell_theorem_small():
    for n in (3, 4):
        counts = [len(involutions(k)) for k in range(1, n + 1)]
        theorem, invs = verify.verify_typea(n, counts)
        assert theorem.ok, theorem
        assert (invs.ok, invs.checked) == (True, n)


def test_typea_suite_counts_each_involution_set_once(monkeypatch):
    # verify_typea(n) recounted S_1 .. S_n for every n = 3 .. typea_n;
    # the suite counts each S_k once, and none past S_6, whose count is
    # the last one checked
    calls = []
    monkeypatch.setattr(verify, "involutions", lambda k: (
        calls.append(k), involutions(k))[1])
    reports = verify.run_suite("typea", 7)
    assert calls == [1, 2, 3, 4, 5, 6]
    assert all(rep.ok for rep in reports)
    # a wrong count is reported at every n that checks it
    bad = verify.verify_typea(5, [1, 2, 4, 9, 26])[1]
    assert (bad.violations, bad.checked) == (
        ["involution count of S_4 is not 10"], 5)


RULE = "left/right intersection rule fails"


def _intersection_rule_by_pairs(partitions):
    """The intersection rule over every (left cell, right cell) pair: they
    meet once if one element of each lies in one two-sided cell, and not at
    all otherwise.  The oracle of the one-pass count; returns the violations
    and the number of pairs."""
    two_of = partitions["two-sided"].cell_of
    bad = []
    checked = 0
    for cl in partitions["left"].cells:
        for cr in partitions["right"].cells:
            same_two = two_of[cl[0]] == two_of[cr[0]]
            checked += 1
            if len(set(cl).intersection(cr)) != (1 if same_two else 0):
                bad.append(RULE)
    return bad, checked


def _theorem_against_pairs(label, partitions):
    """The cell theorem's report on the partitions, with its intersection
    lines and check count compared against the pairwise oracle; returns
    the oracle's lines."""
    system = verify.get_system(label)
    rep = verify_typea_cell_theorem(system, partitions)
    lines, pairs = _intersection_rule_by_pairs(partitions)
    assert [v for v in rep.violations if v == RULE] == lines
    # one check per side, the involution count, one per left cell and two
    # per two-sided cell, besides the pairs
    left, two = partitions["left"], partitions["two-sided"]
    assert rep.checked == (len(partitions) + 1 + len(left.cells) + pairs
                           + 2 * len(two.cells))
    assert _intersection_failures(left, partitions["right"],
                                  two) == len(lines)
    return lines


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5"])
def test_intersection_count_matches_the_pairwise_loop(label):
    parts = {side: verify.get_cells(label, 0, side)
             for side in ("left", "right", "two-sided")}
    assert _theorem_against_pairs(label, parts) == []


def test_intersection_count_matches_the_pairwise_loop_on_mutants(
        left_mutants, right_mutants):
    found = 0
    for label in ("A3", "A4"):
        parts = {side: verify.get_cells(label, 0, side)
                 for side in ("left", "right", "two-sided")}
        for side, mutants in (("left", left_mutants(label)),
                              ("right", right_mutants(label))):
            for name, mutant in mutants.items():
                lines = _theorem_against_pairs(label,
                                               {**parts, side: mutant})
                found += bool(lines)
    assert found
