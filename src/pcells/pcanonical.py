"""Canonical-basis tables in characteristic p and their validation.

A PCanTable records the unitriangular base change from the p-canonical
basis to the Kazhdan-Lusztig basis: B_x = C_x + sum over y < x of
m(y, x) C_y.  For p = 0 the table is the identity.  For p > 0 tables are
ingested from JSON fixtures and validated against the structural facts
every such basis satisfies:

  * unitriangularity with ones on the diagonal,
  * every m(y, x) self-dual with non-negative coefficients,
  * m(y, x) = 0 unless both descent sets of x are contained in those of y,
  * m(y, x) = m(y^-1, x^-1).

Structure coefficients mu^z(x, s) in B_x C_s = sum mu^z B_z (and the left
mirror) are computed exactly by expanding to the Kazhdan-Lusztig basis,
multiplying there, and back-substituting through the table when a term of
the product has a row.

JSON schema (words are 1-based digit lists, coefficients sorted
[exponent, value] pairs; omitted group elements default to identity rows):

    {"type": "C3", "p": 2,
     "entries": [{"x": [2,3,2,1,2],
                  "terms": [{"y": [2,3,2,1,2], "coeff": [[0,1]]},
                            {"y": [2,3,2],     "coeff": [[0,1]]}]}, ...]}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

from .coxeter import (CoxeterSystem, ParabolicEmbedding,
                      cartan_matrix_of_type)
from .hecke import (PCAN, STD, HeckeElt, KLTable, change_basis,
                    kl_multiply_by_generator, require_generator,
                    std_multiply, unitriangular_apply, unitriangular_solve)
from .laurent import GAUSS, ONE, ZERO, LaurentPoly
from .report import Report

DATA_DIR = Path(__file__).parent / "data"


class PCanValidationError(ValueError):
    """A loaded table violates a structural invariant."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


class PCanTable:
    """Base change from the canonical basis at prime p to the KL basis.

    rows[x] maps y -> m(y, x) for the nonzero strictly-lower terms; the
    diagonal entry 1 is implicit.  Elements absent from rows have identity
    rows (B_x = C_x).  Construction drops zero entries and empty rows, so
    rows holds exactly the nonzero terms.
    """

    def __init__(self, system: CoxeterSystem, prime: int,
                 rows: Mapping[int, Mapping[int, LaurentPoly]]):
        self.system = system
        self.prime = prime
        rows = ((x, {y: m for y, m in r.items() if m}) for x, r in rows.items())
        self.rows = {x: r for x, r in rows if r}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.system, self.prime, self.rows)
                == (other.system, other.prime, other.rows))

    def __repr__(self) -> str:
        return (f"PCanTable(system={self.system!r}, prime={self.prime!r}, "
                f"rows={self.rows!r})")

    def m(self, y: int, x: int) -> LaurentPoly:
        """The base-change coefficient m(y, x)."""
        if y == x:
            return ONE
        return self.rows.get(x, {}).get(y, ZERO)

    def nontrivial_elements(self) -> list[int]:
        return sorted(self.rows)

    def column(self, x: int) -> dict[int, LaurentPoly]:
        """B_x in the KL basis as a fresh dict of its nonzero m(y, x): 1 at
        y = x, then rows[x].  change_basis, structure_coefficients and the
        star checks read the table through here."""
        return {x: ONE, **self.rows.get(x, {})}


# ---------------------------------------------------------------------------
# construction, loading, validation

def identity_table(system: CoxeterSystem) -> PCanTable:
    """The p = 0 table: the canonical basis equals the KL basis."""
    return PCanTable(system, 0, {})


def validate_table(table: PCanTable) -> list[str]:
    """All invariant violations of a table (empty list means valid)."""
    sys_ = table.system
    bad: list[str] = []
    for x, row in table.rows.items():
        dx_l, dx_r = sys_.left_descents[x], sys_.right_descents[x]
        for y, m in row.items():
            lab = f"(y={sys_.id_to_digits(y)}, x={sys_.id_to_digits(x)})"
            if sys_.length[y] >= sys_.length[x] or not sys_.bruhat_leq(y, x):
                bad.append(f"unitriangularity violated at {lab}")
            if not m.is_self_dual():
                bad.append(f"m{lab} = {m} is not self-dual")
            if not m.is_nonnegative():
                bad.append(f"m{lab} = {m} has a negative coefficient")
            if not (dx_l <= sys_.left_descents[y] and dx_r <= sys_.right_descents[y]):
                bad.append(f"descent condition violated at {lab}")
            if table.m(sys_.inverse[y], sys_.inverse[x]) != m:
                bad.append(f"inverse symmetry violated at {lab}")
    return bad


# Miller-Rabin in these bases decides primality exactly below the limit
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Whether n is prime, exactly for n < _PRIME_LIMIT, by the strong
    probable-prime test in each of _PRIME_BASES: O(log n) multiplications
    per base."""
    if n < 2 or n in _PRIME_BASES:
        return n in _PRIME_BASES
    d, k = n - 1, 0
    while d % 2 == 0:
        d, k = d // 2, k + 1
    return all(pow(b, d, n) == 1
               or any(pow(b, d << i, n) == n - 1 for i in range(k))
               for b in _PRIME_BASES)


def load_table(source: str | Path | dict, system: CoxeterSystem
               ) -> PCanTable:
    """Load a table from a path or a parsed JSON dict, and validate it.

    Malformed input raises PCanValidationError: a p that is not a JSON
    integer, or not a prime below _PRIME_LIMIT, up to which primality is
    decided; a "type" that is not a supported type label, or whose Cartan
    matrix is not the system's; a missing key or bad value; and, naming
    the offending entry, a word letter that is not a JSON integer, a
    non-reduced word, a repeated x entry or y term, or a diagonal
    coefficient other than 1.  A table that breaks an invariant raises
    PCanValidationError whose violations are validate_table's, naming the
    offending pairs.
    """
    obj = source if isinstance(source, dict) else json.loads(
        Path(source).read_text())

    rows: dict[int, dict[int, LaurentPoly]] = {}
    schema_bad: list[str] = []

    def element(digits, where: str) -> int:
        for d in digits:
            if isinstance(d, bool) or not isinstance(d, int):
                raise PCanValidationError(
                    [f"{where}: letter {d!r} of word {list(digits)} is not "
                     "an integer"])
        word = tuple(d - 1 for d in digits)
        w = system.word_to_id(word)
        if system.length[w] != len(word):
            schema_bad.append(f"{where}: word {list(digits)} is not reduced")
        return w

    try:
        prime = obj["p"]
        if isinstance(prime, bool) or not isinstance(prime, int):
            raise PCanValidationError([f"p = {prime!r} is not an integer"])
        if not (prime < _PRIME_LIMIT and _is_prime(prime)):
            raise PCanValidationError(
                [f"p = {prime} is not a prime below {_PRIME_LIMIT}, the "
                 "bound up to which primality is decided"])
        label = obj.get("type")
        if label is not None:
            try:
                cartan = cartan_matrix_of_type(label)
            except ValueError as e:
                raise PCanValidationError([f"table type: {e}"]) from e
            if tuple(map(tuple, cartan)) != system.cartan:
                group = system.label or [list(row) for row in system.cartan]
                raise PCanValidationError(
                    [f"table is for type {label!r}, not {group}"])
        for entry in obj.get("entries", []):
            where = f"entry x={list(entry['x'])}"
            x = element(entry["x"], where)
            if x in rows:
                schema_bad.append(f"{where}: duplicate entry")
            terms: dict[int, LaurentPoly] = {}
            for term in entry["terms"]:
                y = element(term["y"], where)
                if y in terms:
                    schema_bad.append(
                        f"{where}: duplicate term y={list(term['y'])}")
                terms[y] = LaurentPoly.from_pairs(term["coeff"])
            diagonal = terms.pop(x, ONE)
            if diagonal != ONE:
                schema_bad.append(
                    f"diagonal entry at x={system.id_to_digits(x)} "
                    f"is {diagonal}, not 1")
            rows[x] = terms
    except PCanValidationError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise PCanValidationError([f"schema error: {e!r}"]) from e
    if schema_bad:
        raise PCanValidationError(schema_bad)

    table = PCanTable(system, prime, rows)
    bad = validate_table(table)
    if bad:
        raise PCanValidationError(bad)
    return table


def fixture_path(name: str) -> Path:
    return DATA_DIR / f"{name.lower()}.json"


def load_fixture(name: str, system: CoxeterSystem) -> PCanTable:
    """Load one of the tables shipped with the package (e.g. "c3_p2")."""
    path = fixture_path(name)
    if not path.exists():
        raise FileNotFoundError(f"no fixture named {name!r}")
    return load_table(path, system)


# ---------------------------------------------------------------------------
# coefficients derived from a table

def p_h(table: PCanTable, kl: KLTable, y: int, x: int) -> LaurentPoly:
    """Coefficient of H_y in B_x: sum over z of m(z, x) h(y, z)."""
    out = kl.h_poly(y, x)
    for z, m in table.rows.get(x, {}).items():
        hyz = kl.h_poly(y, z)
        if hyz:
            out = out + m * hyz
    return out


def require_same_group(table: PCanTable, kl: KLTable) -> None:
    """Raise ValueError unless the two tables live over one group: a KL
    table of another group would be read at the p-table's ids."""
    if kl.system is not table.system:
        raise ValueError("the KL table and the p-table live over different "
                         "groups")


def structure_coefficients(table: PCanTable, kl: KLTable, x: int, s: int,
                           side: str) -> dict[int, LaurentPoly]:
    """The coefficients mu^z in B_x C_s = sum_z mu^z B_z (mirror on the left).

    Descent case: {x: v + v^-1}.  Otherwise B_x, the table's column of x
    over the KL basis, is multiplied by the generator there, one C_z at a
    time (unitriangular_apply over the products C_z C_s; for an x without
    a row, B_x = C_x and the product is C_x C_s), and back-substituted
    (unitriangular_solve over the table's columns).  The
    back-substitution is skipped when no term of the product has a table
    row: each such C_z is then B_z, so the KL coefficients are already
    the answer.  At p = 0 that is every call; a p > 0 table solves
    exactly when a rowed element appears.  Every call returns a fresh
    dict.
    Raises ValueError for a side other than left or right or if the two
    tables live over different groups, and IndexError for an x or s
    outside the group.
    """
    sys_ = table.system
    if not (0 <= x < sys_.size and 0 <= s < sys_.rank):
        require_generator(sys_, x, s)
    descents = sys_.descents(side)
    require_same_group(table, kl)
    if s in descents[x]:
        return {x: GAUSS}
    if x in table.rows:
        acc = unitriangular_apply(table.column(x), lambda z: (
            kl_multiply_by_generator(kl, z, s, side).items()))
    else:
        acc = kl_multiply_by_generator(kl, x, s, side)
    if table.rows.keys().isdisjoint(acc):
        return acc
    return unitriangular_solve(sys_, acc, lambda z: table.column(z).items())


def pcan_general_product(table: PCanTable, kl: KLTable, x: int, w: int
                         ) -> dict[int, LaurentPoly]:
    """B_x B_w in the canonical basis: both factors are converted to the
    standard basis, multiplied there and converted back, all exactly."""
    bx, bw = (change_basis(HeckeElt(table.system, PCAN, {u: ONE}), STD,
                           kl=kl, pcan=table) for u in (x, w))
    return change_basis(std_multiply(bx, bw), PCAN, kl=kl, pcan=table).coeffs


# ---------------------------------------------------------------------------
# parabolic compatibility and automorphisms

def restrict_to_parabolic(table: PCanTable, emb: ParabolicEmbedding) -> PCanTable:
    """The table of the standard parabolic subgroup, read off the big table.

    Base change is block diagonal across cosets, so rows of elements of the
    parabolic restrict to the subgroup's own table.
    """
    parent_to_sub = emb.parent_to_sub()
    rows = {parent_to_sub[x]: {parent_to_sub[y]: m for y, m in row.items()
                               if y in parent_to_sub}
            for x, row in table.rows.items() if x in parent_to_sub}
    return PCanTable(emb.sub, table.prime, rows)


def verify_parabolic_factorization(table: PCanTable, kl: KLTable,
                                   gens: Sequence[int]) -> Report:
    """Check the coset factorization identities for a finitary subset I:
    p_h(x y, x z) = p_h(y, z) for every x in W^I and y, z in W_I.

    For a table unitriangular in Bruhat order (validate_table checks it)
    these imply the product identities mu^{x z}(x y, s) = mu^z(y, s) for s
    in I, so those are not checked:

      * Let J be the union of the cosets x' W_I with x' < x in W^I.  If
        u <= x z then u^I <= x (Deodhar), so the identities give
        B_{xz} = H_x B_z + R_z with R_z in the span of the H_u, u in J.
      * J is a Bruhat lower set (by the same fact), so that span is the
        span of the B_u, u in J, and it is stable under right
        multiplication by C_s for s in I, which keeps each coset.
      * Hence, modulo that span, B_{xy} C_s is congruent to
        H_x B_y C_s = sum_z mu^z(y, s) H_x B_z, and so to
        sum_z mu^z(y, s) B_{xz}.  B_{xy} C_s lies in the span of the B_u
        with u^I <= x, where the B_{xz} are independent modulo that span,
        so mu^{xz}(xy, s) = mu^z(y, s).  In the descent case both sides
        are v + v^-1, because s is in D_R(x y) iff it is in D_R(y).
    """
    sys_ = table.system
    sub_elements = sorted(sys_.parabolic_elements(gens))
    # the right-hand sides depend on y and z only
    sub_p_h = {(y, z): p_h(table, kl, y, z)
               for y in sub_elements for z in sub_elements}
    bad: list[str] = []
    checked = 0
    reps = sys_.minimal_coset_representatives(gens, "right")
    # row k holds x y for x = reps[k] and y over sub_elements
    rows = zip(*sys_.products(reps, sub_elements).values())
    for x, row in zip(reps, rows):
        prods = dict(zip(sub_elements, row))
        for y in sub_elements:
            for z in sub_elements:
                checked += 1
                lhs = p_h(table, kl, prods[y], prods[z])
                rhs = sub_p_h[y, z]
                if lhs != rhs:
                    bad.append(
                        f"p_h({sys_.id_to_digits(prods[y])}, "
                        f"{sys_.id_to_digits(prods[z])}) = {lhs} != {rhs} "
                        f"[x={sys_.id_to_digits(x)}]")
    return Report(f"parabolic-factorization I={sorted(gens)}", bad, checked)
