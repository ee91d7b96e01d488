"""Laurent arithmetic, standard-basis products and the Kazhdan-Lusztig basis.

Build the Hecke algebra of type B2, multiply a few standard basis elements,
and print the full triangle of Kazhdan-Lusztig polynomials.
"""

from pcells import (
    CoxeterSystem,
    bar_involution,
    compute_kl_table,
    std_multiply,
)
from pcells.hecke import std_basis_element

b2 = CoxeterSystem.from_type("B2")
print(f"type B2: {b2.size} elements, Coxeter matrix {b2.coxeter_matrix}")

# the quadratic relation H_s^2 = (v^-1 - v) H_s + 1
s = std_basis_element(b2, b2.digits_to_id("1"))
print("\nH_1 * H_1 =", std_multiply(s, s))

# bar sends H_s to H_s + (v - v^-1)
print("bar(H_1)  =", bar_involution(s))

# the Kazhdan-Lusztig basis: each C_x is bar-invariant and unitriangular
kl = compute_kl_table(b2)
print("\nKazhdan-Lusztig polynomials h(y, x) for type B2:")
for x in b2.elements():
    row = ", ".join(
        f"h({b2.id_to_digits(y) or 'e'}) = {kl.h_poly(y, x)}"
        for y in sorted(kl.h[x], key=lambda w: (b2.length[w], w)))
    print(f"  C[{b2.id_to_digits(x) or 'e'}]: {row}")

c = kl.kl_element(b2.longest_element())
print("\nC[w0] is bar-invariant:", bar_involution(c) == c)
