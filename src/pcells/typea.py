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
from collections import Counter
from math import factorial
from typing import Sequence

from .cells import CellPartition, _renumber
from .coxeter import CoxeterSystem
from .report import Report

Tableau = tuple[tuple[int, ...], ...]
Shape = tuple[int, ...]


# ---------------------------------------------------------------------------
# permutations in one-line notation

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

def _check_shape(shape: Sequence[int]) -> Shape:
    """The shape as a tuple; ValueError naming a part that is not an int
    of at least 1 (a bool included), or a shape not weakly decreasing."""
    shape = tuple(shape)
    for part in shape:
        if isinstance(part, bool) or not isinstance(part, int) or part < 1:
            raise ValueError(f"shape {shape} has part {part!r}: parts must "
                             "be ints of at least 1")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError("shape must be weakly decreasing")
    return shape


def hook_length_count(shape: Sequence[int]) -> int:
    """Number of standard tableaux of the shape, by the hook length formula.
    ValueError for a part that is not an int of at least 1, or a shape that
    is not weakly decreasing."""
    shape = _check_shape(shape)
    n = sum(shape)
    cols = [sum(1 for r in shape if r > c) for c in range(shape[0])] if shape else []
    prod = 1
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            prod *= (row_len - j) + (cols[j] - i) - 1
    return factorial(n) // prod


def standard_tableaux_count(shape: Sequence[int], memo: dict[Shape, int]
                            ) -> int:
    """Number of standard tableaux of the shape, by its corners.

    The largest entry of a standard tableau sits in a corner c (the last
    box of a row longer than the row below it), and removing it leaves a
    standard tableau of the shape without c; so the count of a nonempty
    shape is the sum of the counts of the shapes without one corner each.
    This uses no hook length, so it checks hook_length_count.  memo maps
    shapes already counted to their counts, and gains every shape this call
    counts.  ValueError as in hook_length_count."""

    def count(shape: Shape) -> int:
        got = memo.get(shape)
        if got is None:
            if not shape:
                return 1
            got = 0
            for r, part in enumerate(shape):
                if r + 1 == len(shape) or shape[r + 1] < part:
                    # a part of 1 at a corner is the last row
                    rest = (part - 1,) if part > 1 else ()
                    got += count(shape[:r] + rest + shape[r + 1:])
            memo[shape] = got
        return got

    return count(_check_shape(shape))


# ---------------------------------------------------------------------------
# the cell theorem in type A

def perms_of_elements(system: CoxeterSystem) -> list[tuple[int, ...]]:
    """The one-line permutation of every id of a type A system, in one
    pass: w = (w s) s for s the last letter of w, and right multiplication
    by s (0-based) swaps positions s, s + 1.  Ids are in length order, so
    w s is done before w."""
    cols, last = system.right_by_gen, system.last
    perms = [tuple(range(1, system.rank + 2))]
    for w in range(1, system.size):
        s = last[w]
        line = list(perms[cols[s][w]])
        line[s], line[s + 1] = line[s + 1], line[s]
        perms.append(tuple(line))
    return perms


def _intersection_failures(left: CellPartition, right: CellPartition,
                           two: CellPartition) -> int:
    """The number of pairs (left cell, right cell) that break the rule: a
    left and a right cell meet in exactly one element if they lie in one
    two-sided cell, and in none otherwise.  Each cell's two-sided cell is
    read at its least element.

    One pass over W counts the elements of each pair that meets, so no pair
    of cells is intersected.  Start from the pairs inside one two-sided
    cell T, |L(T)| |R(T)| for L(T) and R(T) the left and right cells read
    in T, as if none of them met.  A pair of T that meets once passes, and
    comes off that count; one that meets more often fails, and stays on it.
    A pair that meets across two two-sided cells fails."""
    two_of = two.cell_of
    left_two = [two_of[c[0]] for c in left.cells]
    right_two = [two_of[c[0]] for c in right.cells]
    met = Counter(zip(left.cell_of, right.cell_of))
    lefts_in, rights_in = Counter(left_two), Counter(right_two)
    failures = sum(lefts_in[t] * rights_in[t] for t in lefts_in)
    for (i, j), k in met.items():
        if left_two[i] != right_two[j]:
            failures += 1
        elif k == 1:
            failures -= 1
    return failures


def verify_typea_cell_theorem(system: CoxeterSystem,
                              partitions: dict[str, CellPartition]) -> Report:
    """Cells of S_n, given as the "left", "right" and "two-sided"
    partitions, against Robinson-Schensted fibers and the counting
    corollaries."""
    n = system.rank + 1
    left, right, two = (partitions[side]
                        for side in ("left", "right", "two-sided"))
    # counted before the RS symbols are built, so that the pair counter and
    # the tableaux are not held at once
    failures = _intersection_failures(left, right, two)
    perms = perms_of_elements(system)
    rs = list(map(rs_correspondence, perms))

    bad: list[str] = []
    checked = 0

    # each side's RS fibers as class ids by element id, numbered by first
    # occurrence in id order as the cells are
    keys = {"left": [q for _, q in rs], "right": [p for p, _ in rs],
            "two-sided": [shape_of(p) for p, _ in rs]}
    for side, part in partitions.items():
        checked += 1
        if part.cell_of != tuple(_renumber(keys[side])):
            bad.append(f"{side} cells do not match the RS fibers")

    inverse = system.inverse
    invs = {w for w in system.elements() if w == inverse[w]}
    checked += 1
    if len(left.cells) != len(invs):
        bad.append("left cell count differs from the involution count")
    for i, cell in enumerate(left.cells):
        checked += 1
        held = sum(map(invs.__contains__, cell))
        if held != 1:
            bad.append(f"left cell {i} contains {held} involutions")

    checked += len(left.cells) * len(right.cells)
    bad += ["left/right intersection rule fails"] * failures

    for i, two_cell in enumerate(two.cells):
        shape = shape_of(rs[two_cell[0]][0])
        f_pi = hook_length_count(shape)
        lefts = {left.cell_of[w] for w in two_cell}
        checked += 2
        if len(lefts) != f_pi:
            bad.append(f"two-sided cell {i} has {len(lefts)} left cells, "
                       f"hook count {f_pi}")
        if any(len(left.cells[j]) != f_pi for j in lefts):
            bad.append(f"left cell size in two-sided cell {i} differs from "
                       f"hook count {f_pi}")
    return Report(f"type-A cell theorem n={n}", bad, checked)
