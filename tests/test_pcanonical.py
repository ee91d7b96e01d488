import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcells import verify
from pcells.coxeter import CoxeterSystem
from pcells.hecke import (KL, PCAN, STD, HeckeElt, change_basis,
                          kl_multiply_by_generator, std_multiply)
from pcells.laurent import GAUSS, ONE, ZERO, LaurentPoly
from pcells.pcanonical import (
    PCanTable,
    PCanValidationError,
    fixture_path,
    identity_table,
    load_fixture,
    load_table,
    p_h,
    pcan_general_product,
    restrict_to_parabolic,
    structure_coefficients,
    validate_table,
    verify_parabolic_factorization,
)


def test_identity_table(a2, kl_a2):
    tab = identity_table(a2)
    assert tab.is_identity
    assert tab.m(0, 0) == ONE
    assert tab.m(0, a2.digits_to_id("1")).is_zero()
    assert validate_table(tab) == []
    # B_x in the standard basis equals C_x
    for x in a2.elements():
        elt = HeckeElt(a2, "pcan", {x: ONE})
        assert change_basis(elt, STD, kl=kl_a2, pcan=tab) == kl_a2.kl_element(x)


def test_construction_drops_zero_entries(a2):
    # a zero coefficient is no entry: the table is the identity
    table = PCanTable(a2, 0, {3: {0: ZERO}})
    assert table.is_identity and table.rows == {}
    assert table.nontrivial_elements() == []
    s = a2.digits_to_id("1")
    x = a2.digits_to_id("121")
    assert PCanTable(a2, 0, {x: {0: ZERO, s: ONE}}).rows == {x: {s: ONE}}
    # load_table leaves the filtering to construction
    obj = {"p": 0, "entries": [{"x": [1, 2, 1], "terms": [
        {"y": [1], "coeff": []}, {"y": [2], "coeff": [[0, 1]]}]}]}
    assert load_table(obj, a2, strict=False).rows == \
        {x: {a2.digits_to_id("2"): ONE}}


def test_c3_fixture_rows(c3, c3_p2):
    m232 = c3.digits_to_id("232")
    assert c3_p2.prime == 2
    assert c3_p2.m(m232, c3.digits_to_id("23212")) == ONE
    assert c3_p2.m(m232, c3.digits_to_id("232123")) == GAUSS
    assert c3_p2.m(c3.digits_to_id("232123"), c3.digits_to_id("23212132")) == ONE


def test_c3_fixture_in_kl_basis(c3, kl_c3, c3_p2):
    # B[23212] expanded in the KL basis is C[23212] + C[232]
    x = c3.digits_to_id("23212")
    elt = HeckeElt(c3, "pcan", {x: ONE})
    got = change_basis(elt, KL, kl=kl_c3, pcan=c3_p2)
    assert got.coeffs == {x: ONE, c3.digits_to_id("232"): ONE}


def test_load_rejects_non_self_dual(c3, kl_c3):
    obj = {"p": 2, "entries": [{
        "x": [2, 1, 2],
        "terms": [{"y": [2, 1, 2], "coeff": [[0, 1]]},
                  {"y": [2], "coeff": [[1, 1]]}]}]}
    with pytest.raises(PCanValidationError) as err:
        load_table(obj, c3)
    assert "self-dual" in str(err.value)


def test_load_rejects_descent_violation(c3, kl_c3):
    obj = {"p": 2, "entries": [{
        "x": [2, 3, 2],
        "terms": [{"y": [2, 3, 2], "coeff": [[0, 1]]},
                  {"y": [2], "coeff": [[0, 1]]}]}]}
    with pytest.raises(PCanValidationError) as err:
        load_table(obj, c3)
    assert "descent" in str(err.value)


def test_load_rejects_inverse_asymmetry(c3, kl_c3):
    # the row at 212 is legal on its own; its inverse row is missing
    obj = {"p": 2, "entries": [{
        "x": [3, 2, 1, 2],
        "terms": [{"y": [3, 2, 1, 2], "coeff": [[0, 1]]},
                  {"y": [3, 2], "coeff": [[0, 1]]}]}]}
    with pytest.raises(PCanValidationError) as err:
        load_table(obj, c3)
    assert "inverse" in str(err.value)


def test_load_rejects_bad_diagonal(c3, kl_c3):
    obj = {"p": 2, "entries": [{
        "x": [2, 1, 2],
        "terms": [{"y": [2, 1, 2], "coeff": [[0, 2]]}]}]}
    with pytest.raises(PCanValidationError):
        load_table(obj, c3)


def test_load_rejects_non_reduced_words(c3):
    # 11212 and 222 reduce to 212 and 2, a valid row if read silently
    for x_word, y_word, bad in (([1, 1, 2, 1, 2], [2], [1, 1, 2, 1, 2]),
                                ([2, 1, 2], [2, 2, 2], [2, 2, 2])):
        obj = {"p": 2, "entries": [{
            "x": x_word,
            "terms": [{"y": x_word, "coeff": [[0, 1]]},
                      {"y": y_word, "coeff": [[0, 1]]}]}]}
        with pytest.raises(PCanValidationError) as err:
            load_table(obj, c3)
        assert f"entry x={x_word}: word {bad} is not reduced" in str(err.value)


def test_load_rejects_duplicates(c3):
    row = {"x": [2, 1, 2],
           "terms": [{"y": [2, 1, 2], "coeff": [[0, 1]]},
                     {"y": [2], "coeff": [[0, 1]]}]}
    load_table({"p": 2, "entries": [row]}, c3)
    twice = dict(row, terms=row["terms"] + [{"y": [2], "coeff": [[0, 2]]}])
    with pytest.raises(PCanValidationError) as err:
        load_table({"p": 2, "entries": [twice]}, c3)
    assert "entry x=[2, 1, 2]: duplicate term y=[2]" in str(err.value)
    with pytest.raises(PCanValidationError) as err:
        load_table({"p": 2, "entries": [row, row]}, c3)
    assert "entry x=[2, 1, 2]: duplicate entry" in str(err.value)


def test_load_rejects_non_integers(c3):
    # each of these used to load as the valid row m(2, 212) = 1 at p = 2
    def table(p=2, x=(2, 1, 2), y=(2,)):
        return {"p": p, "entries": [{
            "x": list(x),
            "terms": [{"y": list(x), "coeff": [[0, 1]]},
                      {"y": list(y), "coeff": [[0, 1]]}]}]}

    load_table(table(), c3)
    found = {"p": 2.9, "entries": [{
        "x": [2.7, 1, "2"],
        "terms": [{"y": [2, 1, 2], "coeff": [[0, 1]]},
                  {"y": [2.2], "coeff": [[0, 1]]}]}]}
    cases = [
        (found, "p = 2.9 is not an integer"),
        (table(p=2.9), "p = 2.9 is not an integer"),
        (table(p="2"), "p = '2' is not an integer"),
        (table(p=True), "p = True is not an integer"),
        (table(x=(2.7, 1, 2)),
         "entry x=[2.7, 1, 2]: letter 2.7 of word [2.7, 1, 2] is not an integer"),
        (table(x=(2, 1, "2")),
         "entry x=[2, 1, '2']: letter '2' of word [2, 1, '2'] is not an integer"),
        (table(y=(2.2,)),
         "entry x=[2, 1, 2]: letter 2.2 of word [2.2] is not an integer"),
        (table(y=(True,)),
         "entry x=[2, 1, 2]: letter True of word [True] is not an integer"),
    ]
    for obj, message in cases:
        with pytest.raises(PCanValidationError) as err:
            load_table(obj, c3)
        assert err.value.violations == [message]


def test_load_checks_the_tables_type(b2, b3, c3):
    # the shipped tables name their own types and load there
    for name, system in (("b2_p2", b2), ("c3_p2", c3)):
        assert load_fixture(name, system).prime == 2
    obj = json.loads(fixture_path("c3_p2").read_text())
    assert obj["type"] == "C3"
    # B3 has C3's elements and reduced words, so only the type tells them
    # apart
    with pytest.raises(PCanValidationError) as err:
        load_table(obj, b3)
    assert err.value.violations == ["table is for type 'C3', not B3"]
    for other in ("B2", 3, ""):
        with pytest.raises(PCanValidationError):
            load_table({**obj, "type": other}, c3)
    # a label is read as CoxeterSystem.from_type reads it
    assert load_table({**obj, "type": " c3"}, c3).rows == \
        load_table(obj, c3).rows
    assert CoxeterSystem.from_type(" c3 ").label == "C3"
    # a system built from a Cartan matrix has no label: the table's type is
    # compared by its Cartan matrix
    unlabelled = CoxeterSystem(c3.cartan)
    assert unlabelled.label is None
    assert load_table(obj, unlabelled).prime == 2
    with pytest.raises(PCanValidationError) as err:
        load_table(obj, CoxeterSystem(b3.cartan))
    assert err.value.violations == [
        "table is for type 'C3', not [[2, -2, 0], [-1, 2, -1], [0, -1, 2]]"]
    with pytest.raises(PCanValidationError, match="unsupported type label"):
        load_table({**obj, "type": "F4"}, unlabelled)


def test_strict_override(c3, kl_c3):
    obj = {"p": 2, "entries": [{
        "x": [2, 1, 2],
        "terms": [{"y": [2, 1, 2], "coeff": [[0, 1]]},
                  {"y": [2], "coeff": [[1, 1]]}]}]}
    tab = load_table(obj, c3, strict=False)
    assert len(validate_table(tab)) > 0


def test_p_h(c3, kl_c3, c3_p2):
    tab0 = identity_table(c3)
    x = c3.digits_to_id("23212")
    y = c3.digits_to_id("232")
    for w in (0, y, x):
        assert p_h(tab0, kl_c3, w, x) == kl_c3.h_poly(w, x)
    assert p_h(c3_p2, kl_c3, x, x) == ONE
    assert p_h(c3_p2, kl_c3, y, x) == kl_c3.h_poly(y, x) + ONE


def test_missing_entries_are_the_shared_zero(c3, kl_c3, c3_p2):
    # 1 is not below 2 in the Bruhat order, and B_2 = C_2 has no row
    x, y = c3.digits_to_id("2"), c3.digits_to_id("1")
    assert c3_p2.m(y, x) is ZERO
    assert p_h(c3_p2, kl_c3, y, x) is ZERO


def test_structure_coefficients_descent_case(c3, kl_c3, c3_p2):
    x = c3.digits_to_id("23212")
    assert structure_coefficients(c3_p2, kl_c3, x, 1, "right") == {x: GAUSS}


def test_structure_coefficients_a2(a2, kl_a2):
    tab = identity_table(a2)
    s = a2.digits_to_id("1")
    got = structure_coefficients(tab, kl_a2, s, 1, "right")
    assert got == {a2.digits_to_id("12"): ONE}


def test_structure_coefficients_rejects_unknown_side(a2, kl_a2):
    # s = 0 is a left descent of 12 but not a right one, s = 1 neither:
    # a misread side would answer the first and fail on the second
    tab, x = identity_table(a2), a2.digits_to_id("12")
    for side in ("Right", "Left", "two-sided"):
        for s in (0, 1):
            with pytest.raises(ValueError):
                structure_coefficients(tab, kl_a2, x, s, side)


def test_structure_coefficients_match_printed_graph(c3, kl_c3, c3_p2):
    # right multiplications of B[23212] per the reference cell-module graph
    x = c3.digits_to_id("23212")
    got1 = structure_coefficients(c3_p2, kl_c3, x, 0, "right")
    assert got1 == {c3.digits_to_id("232121"): ONE,
                    c3.digits_to_id("2321"): LaurentPoly(2)}
    got3 = structure_coefficients(c3_p2, kl_c3, x, 2, "right")
    assert got3 == {c3.digits_to_id("232123"): ONE,
                    c3.digits_to_id("2321"): ONE}


def test_structure_coefficients_positive_and_self_dual(c3, kl_c3, c3_p2):
    for x in c3.elements():
        for s in range(3):
            for side in ("left", "right"):
                for c in structure_coefficients(c3_p2, kl_c3, x, s, side).values():
                    assert c.is_nonnegative() and c.is_self_dual()


def test_standard_basis_coefficients_nonnegative(c3, kl_c3, c3_p2, b2, kl_b2, b2_p2):
    # the expansion of every B_x over the standard basis stays nonnegative
    for system, kl, tab in ((c3, kl_c3, c3_p2), (b2, kl_b2, b2_p2)):
        for x in system.elements():
            for y in system.elements():
                assert p_h(tab, kl, y, x).is_nonnegative()


def test_p0_structure_equals_kl_multiplication(b2, kl_b2):
    tab = identity_table(b2)
    for x in b2.elements():
        for s in range(2):
            for side in ("left", "right"):
                assert structure_coefficients(tab, kl_b2, x, s, side) == \
                    kl_multiply_by_generator(kl_b2, x, s, side)


def _structure_by_back_substitution(table, kl, x, s, side):
    """Oracle: structure_coefficients as it ran before the row-free shortcut,
    expanding B_x in the KL basis, multiplying by C_s there and always
    solving back through the table."""
    descents = (table.system.right_descents if side == "right"
                else table.system.left_descents)
    if s in descents[x]:
        return {x: GAUSS}
    acc = {}
    for z, c in [(x, ONE), *table.rows.get(x, {}).items()]:
        for w, d in kl_multiply_by_generator(kl, z, s, side).items():
            acc[w] = acc.get(w, LaurentPoly()) + c * d
    return table.kl_to_pcan_coeffs({w: c for w, c in acc.items() if c})


def test_structure_coefficients_match_back_substitution_oracle(
        b2, kl_b2, b2_p2, c3, kl_c3, c3_p2, b3, kl_b3):
    touched = 0  # row-free x whose product still needs the solve
    for table, kl in ((b2_p2, kl_b2), (c3_p2, kl_c3),
                      (identity_table(b3), kl_b3)):
        sys_ = table.system
        for x in sys_.elements():
            for s in range(sys_.rank):
                for side in ("left", "right"):
                    got = structure_coefficients(table, kl, x, s, side)
                    assert got == _structure_by_back_substitution(
                        table, kl, x, s, side)
                    product = kl_multiply_by_generator(kl, x, s, side)
                    touched += (x not in table.rows
                                and not table.rows.keys().isdisjoint(product))
    assert touched > 0


def test_structure_coefficients_returns_fresh_dicts(b2, kl_b2, c3, kl_c3,
                                                   c3_p2):
    for table, kl in ((identity_table(b2), kl_b2), (c3_p2, kl_c3)):
        sys_ = table.system
        for x in sys_.elements():
            for s in range(sys_.rank):
                first = structure_coefficients(table, kl, x, s, "right")
                want = dict(first)
                first.clear()
                first[x] = LaurentPoly(7)
                assert structure_coefficients(table, kl, x, s, "right") == want


def test_general_product_agrees_with_generator_path(b2, kl_b2, b2_p2):
    for x in b2.elements():
        for s in range(2):
            w = b2.right_by_gen[s][0]
            assert pcan_general_product(b2_p2, kl_b2, x, w) == \
                structure_coefficients(b2_p2, kl_b2, x, s, "right")


def _product_by_kl_round_trip(table, kl, x, w):
    """B_x B_w through the KL basis: each C_u of B_w times the KL expansion
    of B_x, via the standard basis, then solved back through the table.
    The oracle of pcan_general_product."""
    sys_ = table.system
    left = change_basis(HeckeElt(sys_, KL, table.expand_to_kl_coeffs({x: ONE})),
                        STD, kl=kl)
    acc = {}
    for u, d in table.expand_to_kl_coeffs({w: ONE}).items():
        right = change_basis(HeckeElt(sys_, KL, {u: ONE}), STD, kl=kl)
        prod = change_basis(std_multiply(left, right), KL, kl=kl)
        for b, cb in prod.coeffs.items():
            acc[b] = acc.get(b, LaurentPoly()) + cb * d
    return table.kl_to_pcan_coeffs({b: c for b, c in acc.items() if c})


def test_general_product_matches_kl_round_trip_oracle(b2, kl_b2, b2_p2, c3,
                                                      kl_c3, c3_p2):
    pairs = [(b2_p2, kl_b2, x, w) for x in b2.elements() for w in b2.elements()]
    c3_ws = sorted(set(c3_p2.rows) | {0, c3.longest_element()})
    pairs += [(c3_p2, kl_c3, x, w) for x in c3_p2.rows for w in c3_ws]
    for table, kl, x, w in pairs:
        assert pcan_general_product(table, kl, x, w) == \
            _product_by_kl_round_trip(table, kl, x, w)


def test_parabolic_factorization(b3, kl_b3, c3, kl_c3, c3_p2):
    assert verify_parabolic_factorization(identity_table(b3), kl_b3, [0, 1]).ok
    assert verify_parabolic_factorization(c3_p2, kl_c3, [1, 2]).ok
    assert verify_parabolic_factorization(c3_p2, kl_c3, [0, 1]).ok
    # corrupt one row and the check reports violations
    bad_rows = {x: dict(r) for x, r in c3_p2.rows.items()}
    bad_rows[c3.digits_to_id("23212")] = {c3.digits_to_id("232"): LaurentPoly(2)}
    bad = PCanTable(c3, 2, bad_rows)
    assert not verify_parabolic_factorization(bad, kl_c3, [0, 1]).ok


def _factorization_by_products(table, kl, gens) -> bool:
    """Whether mu^{x z}(x y, w) = mu^z(y, w) for all x in W^I and y, z, w in
    W_I, each side a full product through pcan_general_product: the
    identities that verify_parabolic_factorization's p_h check implies."""
    sys_ = table.system
    sub = sorted(sys_.parabolic_elements(gens))
    product = functools.cache(functools.partial(pcan_general_product, table, kl))
    for x in sys_.minimal_coset_representatives(gens, "right"):
        for y in sub:
            for w in sub:
                base = product(y, w)
                lifted = product(sys_.mult(x, y), w)
                if any(lifted.get(sys_.mult(x, z), LaurentPoly()) !=
                       base.get(z, LaurentPoly()) for z in sub):
                    return False
    return True


def test_factorization_on_generators_matches_products(b3, kl_b3, c3, kl_c3,
                                                      c3_p2):
    cases = [(identity_table(b3), kl_b3), (c3_p2, kl_c3)]
    bad_rows = {x: dict(r) for x, r in c3_p2.rows.items()}
    bad_rows[c3.digits_to_id("23212")] = {c3.digits_to_id("232"): LaurentPoly(2)}
    cases.append((PCanTable(c3, 2, bad_rows), kl_c3))
    # seeded corruptions of one coefficient that keep unitriangularity, the
    # hypothesis of the p_h check's proof, and the descent condition
    lower = [(y, x) for x in c3.elements() for y in c3.elements()
             if y != x and c3.bruhat_leq(y, x)
             and c3.left_descents[x] <= c3.left_descents[y]
             and c3.right_descents[x] <= c3.right_descents[y]]
    rng = random.Random(2)
    for _ in range(3):
        y, x = rng.choice(lower)
        rows = {w: dict(r) for w, r in c3_p2.rows.items()}
        rows.setdefault(x, {})[y] = rng.choice([ONE, GAUSS, LaurentPoly(2)])
        cases.append((PCanTable(c3, 2, rows), kl_c3))
    outcomes = set()
    for table, kl in cases:
        assert not [v for v in validate_table(table)
                    if "unitriangularity" in v or "descent" in v]
        for gens in ([0, 1], [1, 2]):
            rep = verify_parabolic_factorization(table, kl, gens)
            ok = _factorization_by_products(table, kl, gens)
            assert rep.ok == ok
            outcomes.add(ok)
    assert outcomes == {True, False}


def test_restrict_to_parabolic(c3, c3_p2, kl_c3):
    emb = c3.parabolic_subsystem([0, 1])
    sub = restrict_to_parabolic(c3_p2, emb)
    # the restriction is the rank-two table with the single row at 212
    x = emb.sub.digits_to_id("212")
    assert sub.rows == {x: {emb.sub.digits_to_id("2"): ONE}}
    emb23 = c3.parabolic_subsystem([1, 2])
    assert restrict_to_parabolic(c3_p2, emb23).is_identity


def test_json_round_trip(c3, kl_c3, c3_p2):
    obj = c3_p2.to_json_obj()
    again = load_table(json.loads(json.dumps(obj)), c3)
    assert again.rows == c3_p2.rows and again.prime == 2


# -- property test: change_basis round trips through any unitriangular table

_polys = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4),
                         max_size=3).map(LaurentPoly)


@pytest.mark.parametrize("label", ["A3", "B3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_change_basis_round_trips_on_random_unitriangular_tables(label, data):
    system, kl = verify.get_system(label), verify.get_kl(label)
    elements = list(system.elements())
    rows = {}
    for x in data.draw(st.lists(st.sampled_from(elements[1:]), max_size=5,
                                unique=True)):
        lower = [y for y in elements if system.length[y] < system.length[x]]
        rows[x] = data.draw(st.dictionaries(st.sampled_from(lower),
                                            _polys.filter(bool), max_size=4))
    table = PCanTable(system, 0, rows)

    def element(basis):
        return HeckeElt(system, basis, data.draw(
            st.dictionaries(st.sampled_from(elements), _polys, max_size=4)))

    def to(elt, basis):
        return change_basis(elt, basis, kl=kl, pcan=table)

    b = element(PCAN)
    assert to(to(b, STD), PCAN) == b
    h = element(STD)
    assert to(to(to(h, KL), PCAN), STD) == h


def test_tables_construct_and_compare_as_records(a2):
    s, x = a2.digits_to_id("1"), a2.digits_to_id("121")
    rows = {x: {0: ZERO, s: ONE}}
    table = PCanTable(a2, 0, rows, provenance="x")
    assert table.rows == {x: {s: ONE}} and table.provenance == "x"
    assert table == PCanTable(system=a2, prime=0, rows=rows, provenance="x")
    assert table == PCanTable(a2, 0, table.rows, "x")
    assert PCanTable(a2, 0, rows).provenance == "unspecified"
    assert table != PCanTable(a2, 0, rows)
    assert table != PCanTable(a2, 2, rows, "x")

    class Twin(PCanTable):
        pass

    assert table != Twin(a2, 0, rows, "x") and Twin(a2, 0, rows, "x") != table
    assert repr(table) == (f"PCanTable(system={a2!r}, prime=0, "
                           f"rows={table.rows!r}, provenance='x')")
    with pytest.raises(TypeError):
        hash(table)
