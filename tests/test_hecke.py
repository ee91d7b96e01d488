import itertools
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcells import hecke, verify
from pcells.coxeter import (
    CoxeterSystem,
    cartan_matrix_of_type,
    cartan_to_coxeter,
)
from pcells.hecke import (
    _VINV_MINUS_V,
    KL,
    STD,
    BasisMismatchError,
    PCAN,
    HeckeElt,
    KLTable,
    _Column,
    _acc,
    _graph_automorphisms,
    _kl_columns,
    _lift,
    _unpack,
    bar_involution,
    change_basis,
    compute_kl_table,
    kl_multiply_by_generator,
    std_basis_element,
    std_multiply,
    unit,
    unitriangular_solve,
)
from pcells.laurent import GAUSS, ONE, V, V_INV, ZERO, LaurentPoly
from pcells.pcanonical import identity_table
from test_coxeter import CARTAN


def H(system, digits):
    return std_basis_element(system, system.digits_to_id(digits))


def test_quadratic_relation(a2):
    s = H(a2, "1")
    got = std_multiply(s, s)
    want = HeckeElt(a2, STD, {a2.digits_to_id("1"): V_INV - V, 0: ONE})
    assert got == want


def test_lengths_add(a2):
    assert std_multiply(H(a2, "1"), H(a2, "2")) == H(a2, "12")
    assert std_multiply(unit(a2), H(a2, "21")) == H(a2, "21")


def test_braid_relations(a2, b2, g2):
    for system in (a2, b2, g2):
        m = system.coxeter_matrix[0][1]
        a = unit(system)
        b = unit(system)
        x, y = 0, 1
        for _ in range(m):
            sx, sy = system.right_by_gen[x][0], system.right_by_gen[y][0]
            a = std_multiply(a, std_basis_element(system, sx))
            b = std_multiply(b, std_basis_element(system, sy))
            x, y = y, x
        assert a == b


def test_bar_examples(a2):
    assert bar_involution(unit(a2)) == unit(a2)
    got = bar_involution(H(a2, "1"))
    want = HeckeElt(a2, STD, {a2.digits_to_id("1"): ONE, 0: V - V_INV})
    assert got == want
    assert bar_involution(unit(a2).scale(V)) == unit(a2).scale(V_INV)


def test_bar_is_involution(a3):
    rng = random.Random(3)
    for _ in range(20):
        coeffs = {rng.randrange(a3.size): LaurentPoly({rng.randint(-2, 2): 1})
                  for _ in range(3)}
        elt = HeckeElt(a3, STD, coeffs)
        assert bar_involution(bar_involution(elt)) == elt


def test_kl_generator_element(a2, kl_a2):
    assert kl_a2.kl_element(a2.digits_to_id("1")) == \
        HeckeElt(a2, STD, {a2.digits_to_id("1"): ONE, 0: V})


def test_kl_dihedral_column(a2, kl_a2):
    w0 = a2.longest_element()
    for y in a2.elements():
        assert kl_a2.h_poly(y, w0) == LaurentPoly.v(3 - a2.length[y])


def test_kl_s4_example(a3, kl_a3):
    x = a3.digits_to_id("2132")
    y = a3.digits_to_id("2")
    assert kl_a3.h_poly(y, x) == V + LaurentPoly.v(3)
    assert kl_a3.mu_coeff(y, x) == 1


def test_kl_defining_properties(a3, kl_a3):
    for x in a3.elements():
        c = kl_a3.kl_element(x)
        assert bar_involution(c) == c
        for y, h in kl_a3.h[x].items():
            if y == x:
                assert h == ONE
            else:
                assert h.valuation() >= 1


def _kl_by_self_duality(system):
    """Independent oracle: solve the bar-invariance conditions directly.

    Starting from H_x, repeatedly cancel the maximal bar defect with a
    correction c * C_y, where c is the positive-exponent part of the
    (anti-invariant) defect coefficient; the result is bar-invariant with
    corrections in v Z[v], hence equals C_x by uniqueness.
    """
    columns = {}
    for x in system.elements():
        m = {x: ONE}
        while True:
            elt = HeckeElt(system, STD, dict(m))
            defect = bar_involution(elt) - elt
            worst = None
            for y, c in defect.coeffs.items():
                if c and (worst is None
                          or (system.length[y], y) > (system.length[worst], worst)):
                    worst = y
            if worst is None:
                break
            d = defect.coeffs[worst]
            assert d.bar() == -d, "defect coefficient is not anti-invariant"
            c = LaurentPoly({e: d.coefficient_of(e) for e in d.support() if e > 0})
            for y, h in columns[worst].items():
                prev = m.get(y, LaurentPoly())
                m[y] = prev + c * h
                if not m[y]:
                    del m[y]
        columns[x] = m
    return columns


def test_kl_table_against_self_duality_oracle(a2, kl_a2, b2, kl_b2, a3, kl_a3):
    for system, table in ((a2, kl_a2), (b2, kl_b2), (a3, kl_a3)):
        oracle = _kl_by_self_duality(system)
        for x in system.elements():
            assert oracle[x] == table.h[x]


def _kl_by_recursion(system):
    """Oracle: the length recursion on LaurentPoly values, as compute_kl_table
    ran it before the packed kernel.  Returns (h, mu) in the same layout."""
    h = [{} for _ in system.elements()]
    mu = [{} for _ in system.elements()]
    h[0] = {0: ONE}
    for x in system.elements():
        if x == 0:
            continue
        s = min(system.right_descents[x])
        xp = system.right_by_gen[s][x]
        col = {}
        for w, c in h[xp].items():
            ws = system.right_by_gen[s][w]
            _acc(col, ws, c)
            _acc(col, w, c.shift(1))
            if system.length[ws] < system.length[w]:
                _acc(col, w, _VINV_MINUS_V * c)
        for z, m in mu[xp].items():
            if s in system.right_descents[z]:
                for w, c in h[z].items():
                    _acc(col, w, c.scale(-m))
        h[x] = col
        mu[x] = {y: m for y, c in col.items()
                 if y != x and (m := c.coefficient_of(1))}
    return h, mu


ORACLE_GROUPS = {"A4": "A4", "C3": "C3", "G2": "G2",
                 "B4": CARTAN["B4"], "D4": CARTAN["D4"]}
FULL_COLUMN_GROUPS = {**ORACLE_GROUPS, "F4": CARTAN["F4"]}


def _system(cartan):
    return (CoxeterSystem.from_type(cartan) if isinstance(cartan, str)
            else CoxeterSystem.from_cartan(cartan))


@pytest.mark.parametrize("label", ORACLE_GROUPS)
def test_packed_kernel_matches_recursion_oracle(label):
    system = _system(ORACLE_GROUPS[label])
    table = compute_kl_table(system)
    h, mu = _kl_by_recursion(system)
    assert table.h == h
    assert table.mu == mu


def _kl_by_full_columns(system):
    """Oracle: the packed kernel as it ran before the pair symmetry, building
    every entry of C_{x'} (H_s + v) and of each correction.  Returns (h, mu)
    with h decoded."""
    cols, descents = system.right_by_gen, system.right_descents
    packed = [{} for _ in system.elements()]
    mu = [{} for _ in system.elements()]
    packed[0] = {0: 1}
    for x in system.elements():
        if x == 0:
            continue
        s = min(descents[x])
        xp = cols[s][x]
        col = {}
        for w, c in packed[xp].items():
            ws = cols[s][w]
            col[ws] = col.get(ws, 0) + c
            col[w] = col.get(w, 0) + (c >> 32 if ws < w else c << 32)
        for z, m in mu[xp].items():
            if s in descents[z]:
                for w, c in packed[z].items():
                    col[w] -= m * c
        packed[x] = col = {w: c for w, c in col.items() if c}
        mu[x] = {y: m for y, c in col.items()
                 if y != x and (m := (c >> 32) & 0xFFFFFFFF)}
    decoded = {c: _unpack(c) for col in packed for c in set(col.values())}
    return [{w: decoded[c] for w, c in col.items()} for col in packed], mu


@pytest.mark.parametrize("label", FULL_COLUMN_GROUPS)
def test_pair_kernel_matches_full_column_oracle(label):
    system = _system(FULL_COLUMN_GROUPS[label])
    table = compute_kl_table(system)
    h, mu = _kl_by_full_columns(system)
    assert table.h == h
    assert table.mu == mu
    # the pair identity the kernel builds on: h(ts, x) = v h(t, x) for
    # s in D_R(x) and ts < t
    for x in system.elements():
        for s in system.right_descents[x]:
            for t, c in table.h[x].items():
                ts = system.right_by_gen[s][t]
                if ts < t:
                    assert table.h[x][ts] == c.shift(1)


def _kl_by_min_descent(system):
    """Oracle: the packed tops kernel as it ran before inverse pairs,
    building every column along min(D_R(x)).  Returns (h, mu) with h
    decoded."""
    cols, descents = system.right_by_gen, system.right_descents
    packed = [{} for _ in system.elements()]
    mu = [{} for _ in system.elements()]
    packed[0] = {0: 1}
    for x in system.elements():
        if x == 0:
            continue
        s = min(descents[x])
        xp = cols[s][x]
        top = {}
        for w, c in packed[xp].items():
            ws = cols[s][w]
            if ws < w:
                top[w] = top.get(w, 0) + (c >> 32)
            else:
                top[ws] = top.get(ws, 0) + c
        for z, m in mu[xp].items():
            if s in descents[z]:
                for w, c in packed[z].items():
                    if cols[s][w] < w:
                        top[w] -= m * c
        col = {}
        for t, c in top.items():
            if c:
                col[t] = c
                col[cols[s][t]] = c << 32
        packed[x] = col
        mu[x] = {t: m for t, c in top.items()
                 if t != x and (m := (c >> 32) & 0xFFFFFFFF)}
        mu[x][xp] = 1
    decoded = {c: _unpack(c) for col in packed for c in set(col.values())}
    return [{w: decoded[c] for w, c in col.items()} for col in packed], mu


MIN_DESCENT_GROUPS = {
    **FULL_COLUMN_GROUPS,
    "D5": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
           [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]],
}


@pytest.fixture(scope="module")
def f4_kl():
    system = _system(FULL_COLUMN_GROUPS["F4"])
    return system, compute_kl_table(system)


@pytest.mark.parametrize("label", MIN_DESCENT_GROUPS)
def test_inverse_pair_kernel_matches_min_descent_oracle(label):
    system = _system(MIN_DESCENT_GROUPS[label])
    table = compute_kl_table(system)
    h, mu = _kl_by_min_descent(system)
    assert table.h == h
    assert table.mu == mu
    # relabelled columns decode through the same cache: equal polynomials
    # are still one object
    seen = {}
    for col in table.h:
        for c in col.values():
            assert seen.setdefault(c, c) is c


def test_kl_table_is_iota_symmetric(f4_kl):
    # h(y, x) = h(y^-1, x^-1) and mu(y, x) = mu(y^-1, x^-1) on every entry
    system, table = f4_kl
    inv = system.inverse
    for x in system.elements():
        assert {inv[y]: c for y, c in table.h[x].items()} == table.h[inv[x]]
        assert {inv[y]: m for y, m in table.mu[x].items()} == table.mu[inv[x]]


AUTOMORPHISM_GROUPS = {
    **MIN_DESCENT_GROUPS, "A2": "A2", "A3": "A3", "A5": "A5", "B2": "B2",
    "B3": "B3",
}


def _coxeter(label):
    cartan = AUTOMORPHISM_GROUPS[label]
    return cartan_to_coxeter(cartan_matrix_of_type(cartan)
                             if isinstance(cartan, str) else cartan)


def _automorphisms_by_brute_force(coxeter):
    """Oracle: every permutation of the generators that preserves m."""
    n = len(coxeter)
    return [sigma for sigma in itertools.permutations(range(n))
            if all(coxeter[sigma[s]][sigma[t]] == coxeter[s][t]
                   for s in range(n) for t in range(n))]


def _relabellings(system):
    """Oracle for the kernel's relabellings: inversion, then for each graph
    automorphism sigma != 1 in lexicographic order its action on reduced
    words, then that action followed by inversion."""
    inv = system.inverse
    out = [inv]
    for sigma in _automorphisms_by_brute_force(system.coxeter_matrix)[1:]:
        lift = [system.word_to_id(sigma[s] for s in system.words[w])
                for w in system.elements()]
        out += [lift, [inv[w] for w in lift]]
    return out


def _orbit(relabellings, x):
    return list(dict.fromkeys([x, *[g[x] for g in relabellings]]))


def _orbit_count(system):
    relabellings = _relabellings(system)
    return len({min(_orbit(relabellings, x)) for x in system.elements()})


@pytest.mark.parametrize("label, order", [
    ("A2", 2), ("A3", 2), ("A4", 2), ("A5", 2), ("B2", 2), ("G2", 2),
    ("F4", 2), ("D5", 2), ("B3", 1), ("C3", 1), ("D4", 6)])
def test_graph_automorphisms_match_brute_force(label, order):
    coxeter = _coxeter(label)
    found = _graph_automorphisms(coxeter)
    assert found == _automorphisms_by_brute_force(coxeter)
    assert len(found) == order and found[0] == tuple(range(len(coxeter)))


@pytest.mark.parametrize("label", ["A4", "B2", "G2", "C3", "D4", "F4"])
def test_lifts_match_the_action_on_reduced_words(label):
    system = _system(AUTOMORPHISM_GROUPS[label])
    want = _relabellings(system)[1::2]
    assert [_lift(system, sigma) for sigma
            in _graph_automorphisms(system.coxeter_matrix)[1:]] == want


@pytest.mark.parametrize("label", ["A2", "A4", "B2", "G2", "C3", "B4", "D4",
                                   "F4"])
def test_kernel_builds_one_column_per_orbit(label):
    system = _system(AUTOMORPHISM_GROUPS[label])
    h, _, built = _kl_columns(system)
    assert sum(type(col) is _Column for col in h) == len(built) + 1 \
        == _orbit_count(system)


def test_kl_columns_build_the_cheapest_candidate(f4_kl):
    system, table = f4_kl
    inv, descents = system.inverse, system.right_descents
    cols = system.right_by_gen
    h, mu, built = _kl_columns(system)
    assert h == table.h
    assert mu == table.mu
    # each value keeps the packed int the kernel read, and decodes from it
    assert all(_unpack(c.packed) == c for col in h for c in col.values())
    relabellings = _relabellings(system)

    def cost(w, s):
        wp = cols[s][w]
        return len(h[wp]) + sum(len(h[z]) for z in mu[wp]
                                if s in descents[z])

    for x in system.elements():
        orbit = _orbit(relabellings, x)
        if x == 0 or x != min(orbit):
            continue
        # one column per orbit of inversion and the graph automorphisms is
        # built, along the cheapest (w, s) over the orbit, ties going to
        # the earlier orbit member (x, then g(x) in relabelling order) and
        # then to the smaller s
        done = [w for w in orbit if w in built]
        assert len(done) == 1
        w = done[0]
        candidates = [(cost(v, s), i, s, v)
                      for i, v in enumerate(orbit) for s in descents[v]]
        assert min(candidates)[2:] == (built[w], w)
        # every relabelled column holds the same objects
        for g in relabellings:
            for y, c in h[w].items():
                assert h[g[w]][g[y]] is c
    # F4 exercises every branch: columns relabelled through inversion and
    # through the graph automorphism, and columns built along a descent of
    # an orbit member other than its smallest id
    assert len(built) + 1 == _orbit_count(system) < system.size // 3
    assert any(w != min(_orbit(relabellings, w)) for w in built)
    assert len(built) + 1 < len({min(x, inv[x]) for x in system.elements()})


@pytest.mark.parametrize("label", ["D4", "B4", "F4"])
def test_kl_columns_hold_one_int_per_distinct_value(label):
    # each distinct h(y, x) is one object, shared by every column that
    # holds it, relabelled partner columns and bottoms included
    h, _, _ = _kl_columns(_system(FULL_COLUMN_GROUPS[label]))
    values = [c for col in h for c in col.values()]
    assert len({id(c) for c in values}) == len(set(values))


def _relabel(col, perm):
    """Oracle for a relabelled column: the dict the kernel copied it into,
    {perm[y]: c for y, c in col.items()}, in col's order."""
    return dict(zip(map(perm.__getitem__, col), col.values()))


def _odd_keys(system):
    """Keys that are not ids of the group, next to the ends of the id range.
    A dict with int keys answers True and 1.0 as it answers 1."""
    n = system.size
    return [-n - 1, -n, -2, -1, n, n + 1, 2 * n, True, False, 1.0, 2.5,
            "1", None, (1,), 10**30]


def _assert_reads_like(view, oracle, keys):
    for y in keys:
        assert view.get(y) is oracle.get(y)
        assert view.get(y, ZERO) is oracle.get(y, ZERO)
        assert (y in view) == (y in oracle)
        if y in oracle:
            assert view[y] is oracle[y]
        else:
            with pytest.raises(KeyError):
                view[y]


@pytest.mark.parametrize("label", ["D4", "B4", "F4"])
def test_partner_columns_are_read_only_views(label):
    system = _system(FULL_COLUMN_GROUPS[label])
    inv = system.inverse
    h, mu, built = _kl_columns(system)
    table = KLTable(system, h, mu)
    keys = _odd_keys(system)
    for w in system.elements():
        wi = inv[w]
        # one stored column per inverse pair: the identity's and the
        # built columns
        assert (type(h[w]) is _Column) == (w == 0 or w in built)
        if wi == w or type(h[w]) is not _Column:
            continue
        view, oracle = h[wi], _relabel(h[w], inv)
        assert type(view) is not dict and not hasattr(view, "__setitem__")
        with pytest.raises(TypeError):
            view[w] = ONE
        # the same entries in the same order, as the same objects
        assert view == oracle and len(view) == len(oracle)
        assert list(view) == list(oracle)
        assert list(view.items()) == list(oracle.items())
        assert list(view.keys()) == list(oracle.keys())
        assert all(a is b for a, b in zip(view.values(), oracle.values()))
        assert all(view[inv[y]] is c for y, c in h[w].items())
        assert (inv[w], h[w][w]) in view.items()
        assert table.kl_element(wi).coeffs == oracle
        _assert_reads_like(view, oracle, keys)
        with pytest.raises(TypeError):
            view.get([])
    assert sum(type(col) is _Column for col in h) == _orbit_count(system)


def test_partner_columns_read_every_int_key_like_the_copied_dict(a3, kl_a3):
    # a view reading col.get(inv[y]) would answer for negative ids, which
    # index inv from its end, and raise for ids >= |W|
    inv, n = a3.inverse, a3.size
    keys = [*range(-n - 2, n + 3), *_odd_keys(a3)]
    partners = [x for x in a3.elements() if type(kl_a3.h[x]) is not _Column]
    assert partners
    for x in partners:
        _assert_reads_like(kl_a3.h[x], _relabel(kl_a3.h[inv[x]], inv), keys)


@pytest.mark.parametrize("label", ["A4", "B2", "G2", "D4"])
def test_relabelled_columns_are_views_through_the_first_relabelling(label):
    # each column not built is the view of its orbit's built column w
    # through the first relabelling g with g(w) = x, inversion first; it
    # reads every int key and unhashable keys as the copied dict would
    system = _system(AUTOMORPHISM_GROUPS[label])
    h, mu, built = _kl_columns(system)
    n = system.size
    keys = [*range(-n - 2, n + 3), *_odd_keys(system)]
    seen = set(built) | {0}
    for w in built:
        for g in _relabellings(system):
            x = g[w]
            if x in seen:
                continue
            seen.add(x)
            view, oracle = h[x], _relabel(h[w], g)
            assert type(view) is not _Column
            assert list(view.items()) == list(oracle.items())
            assert list(view) == list(oracle)
            assert all(a is b for a, b in zip(view.values(), oracle.values()))
            assert mu[x] == _relabel(mu[w], g)
            _assert_reads_like(view, oracle, keys)
            for bad in ([], {}, {1}):
                with pytest.raises(TypeError):
                    view.get(bad)
                with pytest.raises(TypeError):
                    bad in view
    assert seen == set(system.elements())


def test_p_canonical_tables_are_not_graph_invariant(b2, kl_b2, b2_p2):
    # the generator swap of B2 preserves the Coxeter matrix, not the Cartan
    # matrix: it fixes the KL table but moves the row ^2B_121 = B_121 + B_1
    # of the p = 2 table to a row the table does not have
    swap = _relabellings(b2)[1]
    assert b2.coxeter_matrix == ((1, 4), (4, 1))
    swapped = tuple(tuple(b2.cartan[1 - s][1 - t] for t in range(2))
                    for s in range(2))
    assert swapped == ((2, -1), (-2, 2)) != b2.cartan
    for x in b2.elements():
        assert kl_b2.h[swap[x]] == _relabel(kl_b2.h[x], swap)
    moved = {swap[x]: _relabel(row, swap) for x, row in b2_p2.rows.items()}
    assert b2_p2.rows and moved != b2_p2.rows
    assert b2.digits_to_id("212") in moved
    assert b2.digits_to_id("212") not in b2_p2.rows


def _built(table):
    return [col for col in table.h if type(col) is _Column]


@pytest.mark.parametrize("label", ["B4", "F4"])
def test_built_columns_are_read_only_and_read_like_a_dict(label):
    system = _system(FULL_COLUMN_GROUPS[label])
    table = compute_kl_table(system)
    keys = [*range(-3, 3), *range(system.size - 3, system.size),
            *_odd_keys(system)]
    built = _built(table)
    assert table.h[0] in built
    assert not any(isinstance(col, dict) for col in table.h)
    for col in built:
        oracle = dict(col.items())
        assert not hasattr(col, "__setitem__")
        with pytest.raises(TypeError):
            col[0] = ONE
        assert col == oracle and len(col) == len(oracle)
        assert list(col) == list(oracle)
        assert list(col.keys()) == list(oracle.keys())
        assert all(a is b for a, b in zip(col.values(), oracle.values()))
        _assert_reads_like(col, oracle, keys + list(col)[:3])
        with pytest.raises(TypeError):
            col.get([])
        with pytest.raises(TypeError):
            [] in col


def test_iterating_a_column_builds_no_lookup_index(b3):
    table = compute_kl_table(b3)
    built = _built(table)
    for col in table.h:
        list(col.items()), list(col.keys()), list(col.values()), list(col)
        len(col), len(col.items()), len(col.values())
    # the kernel and change_basis iterate columns and look nothing up
    c = HeckeElt(b3, KL, {x: ONE for x in b3.elements()})
    change_basis(change_basis(c, STD, kl=table), KL, kl=table)
    assert all(col._index is None for col in built)
    longest = b3.longest_element()
    table.h_poly(0, longest)
    indexed = [col for col in built if col._index is not None]
    assert len(indexed) == 1 and indexed[0]._index == dict(indexed[0].items())


def test_first_lookup_from_threads_reads_like_the_dict():
    # every thread looks up in every column of a fresh table at once, so
    # first lookups race to build the same index
    system = _system(FULL_COLUMN_GROUPS["B4"])
    table = compute_kl_table(system)
    n = system.size
    keys = [-1, 0, n - 1, n, True, 1.0, None,
            *random.Random(8).sample(range(n), 40)]
    want = [[dict(col.items()).get(y) for y in keys] for col in table.h]
    start = threading.Barrier(8, timeout=60)

    def read(_):
        start.wait()
        return [[col.get(y) for y in keys] for col in table.h]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(read, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for answers in got:
        assert len(answers) == len(want)
        assert all(p is q for a, b in zip(answers, want)
                   for p, q in zip(a, b, strict=True))
    assert all(col._index == dict(col.items()) for col in _built(table))


def test_kl_table_shares_equal_polynomials(a3, kl_a3):
    seen = {}
    for col in kl_a3.h:
        for c in col.values():
            assert seen.setdefault(c, c) is c


def test_unpack_rejects_coefficients_at_the_limit():
    assert _unpack((3 << 32) | 1) == ONE + LaurentPoly.v(1, 3)
    assert _unpack(((1 << 30) - 1) << 32) == LaurentPoly.v(1, (1 << 30) - 1)
    for packed in (1 << 30, (1 << 30) << 32, ((1 << 31) + 5) << 64):
        with pytest.raises(OverflowError):
            _unpack(packed)


def test_every_table_value_passes_the_overflow_guard(monkeypatch):
    # A4's largest coefficient is 2: a guard at 2 must fire, at 3 it must not
    a4 = CoxeterSystem.from_type("A4")
    want = compute_kl_table(a4)
    monkeypatch.setattr(hecke, "_LIMIT", 2)
    with pytest.raises(OverflowError):
        compute_kl_table(a4)
    monkeypatch.setattr(hecke, "_LIMIT", 3)
    assert compute_kl_table(a4).h == want.h
    # every stored value, top, bottom or relabelled, comes from one call of
    # _unpack on its own packed int, and no value is decoded twice
    decoded = []

    def counting(packed):
        decoded.append(packed)
        return _unpack(packed)

    monkeypatch.setattr(hecke, "_unpack", counting)
    table = compute_kl_table(a4)
    values = {id(c): c for col in table.h for c in col.values()}.values()
    assert sorted(decoded) == sorted(c.packed for c in values)


def test_kl_multiply_by_generator(a2, kl_a2):
    s, t = a2.digits_to_id("1"), a2.digits_to_id("2")
    assert kl_multiply_by_generator(kl_a2, s, 0, "right") == {s: GAUSS}
    assert kl_multiply_by_generator(kl_a2, s, 1, "right") == {a2.digits_to_id("12"): ONE}
    st = a2.digits_to_id("12")
    got = kl_multiply_by_generator(kl_a2, st, 0, "right")
    assert got == {a2.digits_to_id("121"): ONE, s: ONE}
    # left mirror: C_s C_{ts} = C_{sts} + C_s
    got = kl_multiply_by_generator(kl_a2, a2.digits_to_id("21"), 0, "left")
    assert got == {a2.digits_to_id("121"): ONE, s: ONE}


def test_mu_fact(a3, kl_a3, b3, kl_b3):
    # for z < w with a right descent of w missing from z, mu(z, w) is
    # nonzero exactly when w covers z by that reflection, and then equals 1
    for system, table in ((a3, kl_a3), (b3, kl_b3)):
        for w in system.elements():
            for z in system.elements():
                if not (system.length[z] < system.length[w]
                        and system.bruhat_leq(z, w)):
                    continue
                extra = system.right_descents[w] - system.right_descents[z]
                for r in extra:
                    mu = table.mu_coeff(z, w)
                    if system.right_by_gen[r][z] == w:
                        assert mu == 1
                    else:
                        assert mu == 0


def iota(a: HeckeElt) -> HeckeElt:
    """The linear anti-involution H_x -> H at x^-1 (same formula in the
    Kazhdan-Lusztig and canonical bases): the oracle for the KL table's
    symmetry h(y, x) = h(y^-1, x^-1)."""
    inv = a.system.inverse
    return HeckeElt(a.system, a.basis, {inv[w]: c for w, c in a.coeffs.items()})


def test_iota(a2, a3):
    assert iota(H(a2, "12")) == H(a2, "21")
    rng = random.Random(5)
    for _ in range(10):
        a = HeckeElt(a3, STD, {rng.randrange(a3.size): ONE})
        b = HeckeElt(a3, STD, {rng.randrange(a3.size): V})
        assert iota(iota(a)) == a
        assert iota(std_multiply(a, b)) == std_multiply(iota(b), iota(a))


def test_iota_fixes_kl_basis(a3, kl_a3):
    for x in a3.elements():
        assert iota(kl_a3.kl_element(x)) == kl_a3.kl_element(a3.inverse[x])


def test_change_basis_round_trip(a3, kl_a3):
    rng = random.Random(9)
    for _ in range(10):
        coeffs = {rng.randrange(a3.size): LaurentPoly({rng.randint(-2, 2): rng.randint(1, 3)})
                  for _ in range(4)}
        elt = HeckeElt(a3, STD, coeffs)
        back = change_basis(change_basis(elt, "kl", kl=kl_a3), STD, kl=kl_a3)
        assert back == elt


def _kl_to_std_per_entry(coeffs, table):
    """Oracle: kl -> std as change_basis ran it before the product memo,
    one multiply per table entry."""
    out = {}
    for x, c in coeffs.items():
        for y, hyx in table.h[x].items():
            _acc(out, y, hyx * c)
    return out


def _solve_per_entry(system, coeffs, lower_row):
    """Oracle: unitriangular_solve before the product memo, one multiply
    per term of each lower row."""
    work = dict(coeffs)
    buckets = {}
    for x in work:
        buckets.setdefault(system.length[x], set()).add(x)
    out = {}
    for level in range(max(buckets, default=0), -1, -1):
        for x in sorted(buckets.get(level, ())):
            c = work.get(x)
            if not c:
                continue
            out[x] = c
            neg = -c
            for y, m in lower_row(x):
                _acc(work, y, m * neg)
                buckets.setdefault(system.length[y], set()).add(y)
    return out


def _std_to_kl_per_entry(system, coeffs, table):
    return _solve_per_entry(system, coeffs, lambda x: (
        (y, h) for y, h in table.h[x].items() if y != x))


def _kl_sample(system, seed, count=6, terms=3):
    rng = random.Random(seed)
    return [{rng.randrange(system.size):
             LaurentPoly.v(rng.randint(-3, 3), rng.choice((-2, -1, 1, 2)))
             for _ in range(terms)} for _ in range(count)]


def _check_change_basis_against_oracles(system, table, seed):
    for coeffs in _kl_sample(system, seed):
        std = change_basis(HeckeElt(system, KL, coeffs), STD, kl=table)
        assert std.coeffs == _kl_to_std_per_entry(coeffs, table)
        back = change_basis(std, KL, kl=table)
        assert back.coeffs == _std_to_kl_per_entry(system, std.coeffs, table)
        assert back.coeffs == coeffs


@pytest.fixture(scope="module")
def d5_kl():
    system = _system(MIN_DESCENT_GROUPS["D5"])
    return system, compute_kl_table(system)


@pytest.mark.parametrize("group", ["f4_kl", "d5_kl"])
def test_change_basis_matches_per_entry_oracles(group, request):
    system, table = request.getfixturevalue(group)
    _check_change_basis_against_oracles(system, table, seed=21)


def test_change_basis_memo_reads_values_not_objects():
    # a table holding a fresh copy of each polynomial in each entry, and a
    # lower row yielding temporaries (whose ids get reused), give the same
    # results as the per-entry oracles
    system = _system(ORACLE_GROUPS["B4"])
    table = compute_kl_table(system)
    fresh = KLTable(system, [
        {y: LaurentPoly.from_pairs(c.to_pairs()) for y, c in col.items()}
        for col in table.h], table.mu)
    assert fresh.h == table.h
    assert len({id(c) for col in fresh.h for c in col.values()}) \
        == sum(map(len, fresh.h))
    _check_change_basis_against_oracles(system, fresh, seed=22)

    def temporaries(x):
        return ((y, LaurentPoly.from_pairs(h.to_pairs()))
                for y, h in table.h[x].items() if y != x)

    for coeffs in _kl_sample(system, 23):
        std = change_basis(HeckeElt(system, KL, coeffs), STD, kl=table).coeffs
        assert unitriangular_solve(system, std, temporaries) \
            == _std_to_kl_per_entry(system, std, table) == coeffs


# (id, exponent, coefficient) terms: ids repeat and are summed, so a
# coefficient may be zero, cancel to zero, or carry negative exponents
_TERMS = st.lists(st.tuples(st.integers(0, 47), st.integers(-3, 3),
                            st.integers(-2, 2)), max_size=8)


def _summed(system, terms, ids=None):
    coeffs = {}
    for k, e, c in terms:
        x = ids[k % len(ids)] if ids else k % system.size
        coeffs[x] = coeffs.get(x, ZERO) + LaurentPoly.v(e, c)
    return coeffs


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["A3", "B3", "G2"]), st.sampled_from([STD, KL]),
       _TERMS)
def test_base_changes_match_per_entry_oracles(label, basis, terms):
    system, table = verify.get_system(label), verify.get_kl(label)
    coeffs = _summed(system, terms)
    elt = HeckeElt(system, basis, coeffs)
    if basis == KL:
        std = change_basis(elt, STD, kl=table)
        assert std.coeffs == _kl_to_std_per_entry(coeffs, table)
        back = change_basis(std, KL, kl=table)
        assert back.coeffs == _std_to_kl_per_entry(system, std.coeffs, table)
    else:
        kl = change_basis(elt, KL, kl=table)
        assert kl.coeffs == _std_to_kl_per_entry(system, coeffs, table)
        # the solve takes zero coefficients and a row holding its diagonal
        assert unitriangular_solve(
            system, coeffs, lambda x: table.h[x].items()) == kl.coeffs
        back = change_basis(kl, STD, kl=table)
        assert back.coeffs == _kl_to_std_per_entry(kl.coeffs, table)
    assert back == elt


@settings(max_examples=100, deadline=None)
@given(_TERMS)
def test_kl_to_pcan_matches_per_entry_oracle(c3, c3_p2, terms):
    def row(x):
        return c3_p2.rows.get(x, {}).items()

    # mostly rowed elements, so that the solve subtracts
    coeffs = _summed(c3, terms, sorted(c3_p2.rows) + [0, c3.size - 1])
    got = c3_p2.kl_to_pcan_coeffs(coeffs)
    assert got == _solve_per_entry(c3, coeffs, row)
    assert c3_p2.expand_to_kl_coeffs(got) == {
        x: c for x, c in coeffs.items() if c}


def test_change_basis_rejects_a_table_of_another_group(a3, b3, kl_b3, kl_a2,
                                                        kl_a3):
    # a table of another group is refused, not read: B3's columns would
    # give A3's ids a wrong answer, and A2's run out of range
    elt = HeckeElt(a3, KL, {5: ONE})
    for kl in (kl_b3, kl_a2):
        with pytest.raises(ValueError, match="different groups"):
            change_basis(elt, STD, kl=kl)
    with pytest.raises(ValueError, match="different groups"):
        change_basis(HeckeElt(a3, PCAN, {5: ONE}), STD, kl=kl_a3,
                     pcan=identity_table(b3))


def test_missing_entries_are_the_shared_zero(a2, kl_a2):
    s, t = a2.digits_to_id("1"), a2.digits_to_id("2")
    assert kl_a2.h_poly(t, s) is ZERO
    assert unit(a2).coefficient(s) is ZERO


def test_kl_table_json_export(a2, kl_a2):
    rows = kl_a2.export_json()
    assert {"y": "", "x": "121", "h": [[3, 1]]} in rows
    assert {"y": "1", "x": "1", "h": [[0, 1]]} in rows
    assert rows == kl_a2.export_json()


def test_mixed_basis_is_an_error(a2, kl_a2):
    a = unit(a2)
    b = change_basis(a, "kl", kl=kl_a2)
    with pytest.raises(BasisMismatchError):
        a + b
    with pytest.raises(ValueError):
        change_basis(a, "kl")  # table missing


def test_elements_get_a_coeffs_dict_of_their_own(a2):
    x, y = HeckeElt(a2, STD), HeckeElt(a2, STD)
    x.coeffs[0] = ONE
    assert y.coeffs == {} and x != y
    coeffs = {0: ONE, 1: ZERO}
    z = HeckeElt(a2, STD, coeffs=coeffs)
    assert z.coeffs == {0: ONE} and z.coeffs is not coeffs
    assert repr(z) == (f"HeckeElt(system={a2!r}, basis='std', "
                       f"coeffs={{0: {ONE!r}}})")
    with pytest.raises(TypeError):
        hash(z)


def test_elements_over_different_groups_are_unequal(a2, b2):
    # equal ids and coefficients name different elements in different
    # groups, as __add__'s check on the system already says
    assert HeckeElt(a2, STD, {1: ONE}) != HeckeElt(b2, STD, {1: ONE})
    assert HeckeElt(a2, STD, {1: ONE}) == HeckeElt(a2, STD, {1: ONE})
    assert HeckeElt(a2, STD) != HeckeElt(CoxeterSystem.from_type("A2"), STD)
