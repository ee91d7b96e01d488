"""The canonical basis of type C3 in characteristic 2 and its cells.

Load the shipped p = 2 table, show how the base change to the
Kazhdan-Lusztig basis looks, and watch three of the fourteen p = 0 cells
decompose (and two of them merge) at p = 2.
"""

from pcells import (
    CoxeterSystem,
    compute_cells,
    compute_kl_table,
    identity_table,
    load_fixture,
    structure_coefficients,
)

c3 = CoxeterSystem.from_type("C3")
kl = compute_kl_table(c3)
table = load_fixture("c3_p2", c3)

print("nontrivial rows of the p = 2 table:")
for x in table.nontrivial_elements():
    terms = " + ".join(f"({m}) C[{c3.id_to_digits(y)}]"
                       for y, m in sorted(table.rows[x].items()))
    print(f"  B[{c3.id_to_digits(x)}] = C[{c3.id_to_digits(x)}] + {terms}")

kl_cells = compute_cells(identity_table(c3), kl, "right")
p_cells = compute_cells(table, kl, "right")
print(f"\nright cells: {len(kl_cells.cells)} at p = 0, {len(p_cells.cells)} at p = 2")

print("\nhow the p = 0 cells decompose at p = 2:")
for i, cell in enumerate(kl_cells.cells):
    pieces = {}
    for w in cell:
        pieces.setdefault(p_cells.cell_of[w], set()).add(w)
    if len(pieces) > 1:
        parts = " | ".join(
            "{" + ", ".join(sorted(c3.id_to_digits(w) for w in piece)) + "}"
            for piece in pieces.values())
        print(f"  cell {i} splits: {parts}")

# the crossing cell: one p = 2 cell meets two p = 0 cells
for j, cell in enumerate(p_cells.cells):
    owners = {kl_cells.cell_of[w] for w in cell}
    if len(owners) > 1:
        words = sorted(c3.id_to_digits(w) for w in cell)
        print(f"  p-cell {{{', '.join(words)}}} crosses p = 0 cells {sorted(owners)}")

# a product responsible for the splitting
x = c3.digits_to_id("23212")
print("\nB[23212] * C_3 =", {
    c3.id_to_digits(z): str(c) for z, c in
    structure_coefficients(table, kl, x, 2, "right").items()})
print("(no term at 232: at p = 2 the cell of 232 splits off above)")
