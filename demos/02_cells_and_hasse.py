"""Cells of the Kazhdan-Lusztig basis and their Hasse diagram.

Compute the fourteen right cells of type C3 at p = 0, print them with the
condensed preorder, and emit a DOT file for graphviz.
"""

from pathlib import Path

from pcells import CoxeterSystem, compute_cells, compute_kl_table, identity_table

c3 = CoxeterSystem.from_type("C3")
kl = compute_kl_table(c3)
table = identity_table(c3)

right = compute_cells(table, kl, "right")
print(f"{len(right.cells)} right cells:")
for i, cell in enumerate(right.cells):
    words = sorted((c3.id_to_digits(w) or "e" for w in cell),
                   key=lambda d: (len(d), d))
    print(f"  [{i:2d}] {{{', '.join(words)}}}")

print("\nHasse edges of the cell preorder (top cell first):")
print("  " + ", ".join(f"{i}->{j}" for i, j in sorted(right.hasse_edges)))

two = compute_cells(table, kl, "two-sided")
print(f"\n{len(two.cells)} two-sided cells; each right cell lies in exactly one:")
for i, cell in enumerate(right.cells):
    print(f"  right cell {i} -> two-sided cell {two.cell_of[cell[0]]}")

out = Path("c3_right_cells.dot")
out.write_text(right.to_dot(c3))
print(f"\nwrote {out} (render with: dot -Tpdf {out})")
