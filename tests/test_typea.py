import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcells.stars import DihedralStrings
from pcells.typea import (
    _perms_of_elements,
    all_permutations,
    element_of_perm,
    enumerate_standard_tableaux,
    hook_length_count,
    inverse_rs,
    involutions,
    knuth_moves,
    parse_one_line,
    perm_inverse,
    perm_of_element,
    perm_to_word,
    rs_correspondence,
    shape_of,
)
from pcells import verify


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


def test_hook_lengths():
    assert hook_length_count((5,)) == 1
    assert hook_length_count((1, 1, 1)) == 1
    assert hook_length_count((2, 1)) == 2
    for n in range(1, 9):
        for shape in _partitions(n):
            assert hook_length_count(shape) == len(enumerate_standard_tableaux(shape))


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
        label = f"A{n - 1}"
        rep = verify.verify_typea(n)[0]
        assert rep.ok, rep
