"""Symmetric-group combinatorics: Robinson-Schensted, Knuth moves, hooks.

Permutations are one-line tuples w(1)..w(n) acting on {1..n} on the left;
the generator s_i of the type A Coxeter system is the adjacent
transposition (i, i+1), and right multiplication by s_i swaps positions
i, i+1 of the one-line word.  Tableaux are tuples of row tuples, standard
(entries 1..n, increasing along rows and down columns).

The cell theorem checker cross-matches computed cell partitions against
the fibers of the Robinson-Schensted symbols: right cells are P-fibers,
left cells are Q-fibers, two-sided cells are shape fibers, with the
counting corollaries (one involution per left cell, the 0/1 intersection
rule, hook-length counts).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from math import factorial
from typing import Iterable, Sequence

from .cells import CellPartition
from .coxeter import CoxeterSystem
from .report import Report

Tableau = tuple[tuple[int, ...], ...]
Shape = tuple[int, ...]


# ---------------------------------------------------------------------------
# permutations in one-line notation

def perm_from_word(n: int, word: Iterable[int]) -> tuple[int, ...]:
    """The permutation of the word's product: right multiplication by s_i
    swaps positions i, i+1 (0-based index i)."""
    line = list(range(1, n + 1))
    for s in word:
        line[s], line[s + 1] = line[s + 1], line[s]
    return tuple(line)


def perm_to_word(perm: Sequence[int]) -> tuple[int, ...]:
    """A reduced word for the permutation (peeling right descents)."""
    line = list(perm)
    word: list[int] = []
    while True:
        for i in range(len(line) - 1):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                word.append(i)
                break
        else:
            return tuple(reversed(word))


def perm_inverse(perm: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v - 1] = i + 1
    return tuple(out)


def parse_one_line(text: str) -> tuple[int, ...]:
    """Parse "312" (or "3 1 2" / "10 2 1 ..." with spaces) as a permutation."""
    parts = text.split() if " " in text.strip() else list(text.strip())
    if parts and all(p.isascii() and p.isdigit() for p in parts):
        perm = tuple(int(p) for p in parts)
        if sorted(perm) == list(range(1, len(perm) + 1)):
            return perm
    raise ValueError(f"{text!r} is not a permutation in one-line notation")


def all_permutations(n: int) -> list[tuple[int, ...]]:
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def involutions(n: int) -> list[tuple[int, ...]]:
    return [p for p in all_permutations(n) if perm_inverse(p) == p]


# ---------------------------------------------------------------------------
# Robinson-Schensted row bumping

def rs_correspondence(perm: Sequence[int]) -> tuple[Tableau, Tableau]:
    """Row insertion of w(1), w(2), ...; Q records the box-addition order."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(perm, start=1):
        row = 0
        for current in p_rows:
            # bump the leftmost entry strictly greater than x (rows increase)
            bump_at = bisect_right(current, x)
            if bump_at == len(current):
                current.append(x)
                q_rows[row].append(step)
                break
            current[bump_at], x = x, current[bump_at]
            row += 1
        else:
            p_rows.append([x])
            q_rows.append([step])
    return tuple(map(tuple, p_rows)), tuple(map(tuple, q_rows))


def inverse_rs(p: Tableau, q: Tableau) -> tuple[int, ...]:
    """The unique permutation with the given P and Q symbols.

    Steps n, ..., 1 undo the insertions.  The box of step k is a corner of
    the shape left by the larger steps: present in Q, last in its row, and
    under a row at least as long.  Checking that for every k is checking
    that Q is standard, and a nonstandard Q raises ValueError.  P is not
    checked, but a reverse bump that finds no smaller entry raises."""
    if list(map(len, p)) != list(map(len, q)):
        raise ValueError("P and Q must have the same shape")
    rows = list(map(list, p))
    n = sum(map(len, rows))
    row_of = {entry: r for r, q_row in enumerate(q) for entry in q_row}
    out = [0] * n
    for step in range(n, 0, -1):
        r = row_of.get(step)
        if r is None:
            raise ValueError(f"Q is not standard: it has no entry {step}")
        row = rows[r]
        if q[r][len(row) - 1] != step or (r and len(rows[r - 1]) < len(row)):
            raise ValueError(f"Q is not standard: {step} is not in a corner "
                             "once the larger entries are removed")
        x = row.pop()
        while r:
            r -= 1
            target = rows[r]
            # reverse bumping: displace the rightmost entry smaller than x
            i = bisect_left(target, x) - 1
            if i < 0:
                raise ValueError(f"P is not standard: row {r + 1} has no "
                                 f"entry smaller than {x}")
            target[i], x = x, target[i]
        out[step - 1] = x
    return tuple(out)


def shape_of(tableau: Tableau) -> Shape:
    return tuple(map(len, tableau))


# ---------------------------------------------------------------------------
# Knuth moves

def knuth_moves(perm: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """All applicable elementary Knuth moves (K_i, result), K_i touching
    positions i-1, i, i+1 for 1 < i < n (1-based)."""
    n = len(perm)
    out = []
    for i in range(2, n):
        p, q, r = perm[i - 2], perm[i - 1], perm[i]
        line = list(perm)
        if min(q, r) < p < max(q, r):
            line[i - 1], line[i] = line[i], line[i - 1]
            out.append((i, tuple(line)))
        elif min(p, q) < r < max(p, q):
            line[i - 2], line[i - 1] = line[i - 1], line[i - 2]
            out.append((i, tuple(line)))
    return out


# ---------------------------------------------------------------------------
# shapes and hooks

def hook_length_count(shape: Sequence[int]) -> int:
    """Number of standard tableaux of the shape, by the hook length formula."""
    shape = tuple(shape)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError("shape must be weakly decreasing")
    n = sum(shape)
    cols = [sum(1 for r in shape if r > c) for c in range(shape[0])] if shape else []
    prod = 1
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            prod *= (row_len - j) + (cols[j] - i) - 1
    return factorial(n) // prod


def enumerate_standard_tableaux(shape: Sequence[int]) -> list[Tableau]:
    """All standard tableaux of a shape, by backtracking (count oracle for
    the hook length formula)."""
    shape = tuple(shape)
    n = sum(shape)
    rows: list[list[int]] = [[] for _ in shape]
    out: list[Tableau] = []

    def place(step: int) -> None:
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


# ---------------------------------------------------------------------------
# the cell theorem in type A

def perm_of_element(system: CoxeterSystem, w: int) -> tuple[int, ...]:
    return perm_from_word(system.rank + 1, system.words[w])


def element_of_perm(system: CoxeterSystem, perm: Sequence[int]) -> int:
    return system.word_to_id(perm_to_word(perm))


def _perms_of_elements(system: CoxeterSystem) -> list[tuple[int, ...]]:
    """perm_of_element of every id, in one pass: w = (w s) s for s the last
    letter of w, and right multiplication by s swaps positions s, s + 1.
    Ids are in length order, so w s is done before w."""
    cols, last = system.right_by_gen, system.last
    perms = [tuple(range(1, system.rank + 2))]
    for w in range(1, system.size):
        s = last[w]
        line = list(perms[cols[s][w]])
        line[s], line[s + 1] = line[s + 1], line[s]
        perms.append(tuple(line))
    return perms


def verify_typea_cell_theorem(system: CoxeterSystem,
                              partitions: dict[str, CellPartition]) -> Report:
    """Cells of S_n, given as the "left", "right" and "two-sided"
    partitions, against Robinson-Schensted fibers and the counting
    corollaries."""
    n = system.rank + 1
    rs = {w: rs_correspondence(p)
          for w, p in enumerate(_perms_of_elements(system))}

    bad: list[str] = []
    checked = 0

    def fibers(key) -> set[frozenset[int]]:
        groups: dict[object, set[int]] = {}
        for w in system.elements():
            groups.setdefault(key(w), set()).add(w)
        return {frozenset(g) for g in groups.values()}

    expected = {
        "left": fibers(lambda w: rs[w][1]),
        "right": fibers(lambda w: rs[w][0]),
        "two-sided": fibers(lambda w: shape_of(rs[w][0])),
    }
    for side, part in partitions.items():
        checked += 1
        if part.as_sets() != expected[side]:
            bad.append(f"{side} cells do not match the RS fibers")

    invs = {element_of_perm(system, p) for p in involutions(n)}
    checked += 1
    if len(partitions["left"].cells) != len(invs):
        bad.append("left cell count differs from the involution count")
    for i, cell in enumerate(partitions["left"].cells):
        checked += 1
        if len(cell & invs) != 1:
            bad.append(f"left cell {i} contains {len(cell & invs)} involutions")

    two_of = partitions["two-sided"].cell_of
    for cl in partitions["left"].cells:
        for cr in partitions["right"].cells:
            same_two = two_of[next(iter(cl))] == two_of[next(iter(cr))]
            checked += 1
            if len(cl & cr) != (1 if same_two else 0):
                bad.append("left/right intersection rule fails")

    for i, two_cell in enumerate(partitions["two-sided"].cells):
        shape = shape_of(rs[next(iter(two_cell))][0])
        f_pi = hook_length_count(shape)
        lefts = {partitions["left"].cell_of[w] for w in two_cell}
        checked += 2
        if len(lefts) != f_pi:
            bad.append(f"two-sided cell {i} has {len(lefts)} left cells, "
                       f"hook count {f_pi}")
        if any(len(partitions["left"].cells[j]) != f_pi for j in lefts):
            bad.append(f"left cell size in two-sided cell {i} differs from "
                       f"hook count {f_pi}")
    return Report(f"type-A cell theorem n={n}", bad, checked)
