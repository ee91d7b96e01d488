"""Strings, star operations and the generalized tau invariant.

Strings are the m - 1 middle layers of a dihedral coset; the star
operation flips each string end to end and preserves the cell structure.
The tau invariant refines right-descent-set equality through string
neighbourhoods and, in type A, recovers the left cells exactly.
"""

from pcells import (
    CoxeterSystem,
    DihedralStrings,
    compute_cells,
    compute_kl_table,
    identity_table,
    check_base_change_relations,
    tau_partition,
    tau_tilde_partition,
)

b3 = CoxeterSystem.from_type("B3")
kl = compute_kl_table(b3)
table = identity_table(b3)

r, t = 0, 1  # the bond of order 4
pair = DihedralStrings(b3, r, t)
print(f"strings for the pair (1, 2), m = {pair.m}:")
for s in pair.strings[:4]:
    words = [b3.id_to_digits(x) for x in s.elements]
    print(f"  minimal {b3.id_to_digits(s.coset_min) or 'e'} -> {words}")

x = b3.digits_to_id("121")
pos = next(s.elements.index(x) + 1 for s in pair.strings if x in s.elements)
print(f"\n121 sits at position {pos} of its string; "
      f"star image: {b3.id_to_digits(pair.star[x])}")

rep = check_base_change_relations(table, r, t)
print(f"\nbase-change relations on all string pairs: "
      f"{'pass' if rep.ok else 'fail'} ({rep.checked} checks)")

left = compute_cells(table, kl, "left")
tau = tau_partition(b3)
tau_t = tau_tilde_partition(b3)
print(f"\nB3: {len(left.cells)} left cells, {len(tau.classes)} tau classes, "
      f"{len(tau_t.classes)} tau-tilde classes")
refines = all(len({tau.class_of[w] for w in cell}) == 1 for cell in left.cells)
print("left cells refine the tau classes:", refines)

s4 = CoxeterSystem.from_type("A3")
kl4 = compute_kl_table(s4)
left4 = compute_cells(identity_table(s4), kl4, "left")
print("\nS_4: tau classes equal the left cells:",
      tau_partition(s4).class_of == left4.cell_of)
