"""Robinson-Schensted, Knuth moves, and cells of the symmetric group.

Cells in type A are fibers of the Robinson-Schensted symbols: same Q gives
the left cell, same P the right cell, same shape the two-sided cell.
"""

from pcells import (
    CoxeterSystem,
    compute_cells,
    compute_kl_table,
    identity_table,
    hook_length_count,
    knuth_moves,
    rs_correspondence,
)
from pcells.typea import perm_of_element, shape_of

p, q = rs_correspondence((3, 1, 2))
print("RS(312): P =", [list(r) for r in p], " Q =", [list(r) for r in q])
print("Knuth moves of 312:", knuth_moves((3, 1, 2)))

s4 = CoxeterSystem.from_type("A3")
kl = compute_kl_table(s4)
left = compute_cells(identity_table(s4), kl, "left")

print(f"\nS_4 has {len(left.cells)} left cells; each is a Q-symbol fiber:")
for cell in left.cells:
    perms = sorted(perm_of_element(s4, w) for w in cell)
    q_symbol = rs_correspondence(perms[0])[1]
    print(f"  Q = {[list(r) for r in q_symbol]}: "
          f"{[''.join(map(str, w)) for w in perms]}")

two = compute_cells(identity_table(s4), kl, "two-sided")
print("\ntwo-sided cells are shape fibers, of size (hook count)^2:")
for cell in two.cells:
    shape = shape_of(rs_correspondence(perm_of_element(s4, cell[0]))[0])
    f = hook_length_count(shape)
    print(f"  shape {shape}: {len(cell)} elements = {f}^2")
