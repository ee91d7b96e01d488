import functools
import random
from array import array
from types import SimpleNamespace

import pytest

from pcells.cells import (_partition_from_graph, compute_cells,
                          elementary_relations, transport_preorder)
from pcells.coxeter import CoxeterSystem
from pcells.laurent import GAUSS, ONE, LaurentPoly
from pcells.pcanonical import (PCanTable, identity_table,
                               structure_coefficients, validate_table)
from pcells.stars import (
    _RELATIONS,
    _fixpoint,
    _neighbour_targets,
    _star_targets,
    DihedralStrings,
    PBoundError,
    StringDecomposition,
    TauPartition,
    check_base_change_relations,
    check_coefficient_sliding,
    check_string_vanishing,
    check_structure_coefficient_relations,
    classify_string_relation,
    p_bound_ok,
    star_closure_check,
    tau_partition,
    tau_tilde_partition,
)
from pcells import verify
from test_coxeter import CARTAN


def _in_d_r(system, x, r, t):
    return len(system.right_descents[x] & {r, t}) == 1


def _strings_through(pair, x):
    """The strings of the pair through x, each with the 1-based position
    of x in it."""
    return [(s.elements, s.elements.index(x) + 1)
            for s in pair.strings if x in s.elements]


def _star_left(pair, x):
    """The left star operation, *x = ((x^-1)*)^-1."""
    inverse = pair.system.inverse
    return inverse[pair.star[inverse[x]]]


def test_string_of_a2(a2):
    s, st = a2.digits_to_id("1"), a2.digits_to_id("12")
    pair = DihedralStrings(a2, 0, 1)
    assert _strings_through(pair, s) == [((s, st), 1)]
    assert _strings_through(pair, st) == [((s, st), 2)]
    # e and w0 are outside D_R(r, t): in no string, with no star image
    for x in (0, a2.longest_element()):
        assert _strings_through(pair, x) == []
        assert x not in pair.star and x not in pair.neighbours


def test_string_of_b2(b2):
    sts = b2.digits_to_id("121")
    want = tuple(b2.digits_to_id(w) for w in ("1", "12", "121"))
    assert _strings_through(DihedralStrings(b2, 0, 1), sts) == [(want, 3)]


def test_star_right(a2, b2):
    s, st = a2.digits_to_id("1"), a2.digits_to_id("12")
    star = DihedralStrings(a2, 0, 1).star
    assert star[s] == st
    assert star[st] == s
    # the middle of an m = 4 string is fixed
    st_b = b2.digits_to_id("12")
    star_b = DihedralStrings(b2, 0, 1).star
    assert star_b[st_b] == st_b
    for x in b2.elements():
        if _in_d_r(b2, x, 0, 1):
            assert star_b[star_b[x]] == x


def test_star_left(a2, b2):
    s, ts = a2.digits_to_id("1"), a2.digits_to_id("21")
    pair = DihedralStrings(a2, 0, 1)
    assert _star_left(pair, s) == ts
    assert _star_left(pair, ts) == s
    sts = b2.digits_to_id("121")
    assert _star_left(DihedralStrings(b2, 0, 1), sts) == b2.digits_to_id("1")
    # e is outside D_L(r, t), so it has no left star image
    with pytest.raises(KeyError):
        _star_left(pair, 0)


def test_t_neighbors(a2, b2):
    st = b2.digits_to_id("12")
    neighbours = DihedralStrings(b2, 0, 1).neighbours
    assert neighbours[st] == tuple(sorted(
        (b2.digits_to_id("1"), b2.digits_to_id("121"))))
    s = b2.digits_to_id("1")
    assert neighbours[s] == (st, st)
    sa = a2.digits_to_id("1")
    sta = a2.digits_to_id("12")
    assert DihedralStrings(a2, 0, 1).neighbours[sa] == (sta, sta)


@pytest.mark.parametrize("label,pairs", [("A3", [(0, 1), (1, 2)]),
                                         ("B3", [(0, 1), (1, 2)])])
def test_relation_checkers_p0(label, pairs):
    system = verify.get_system(label)
    kl = verify.get_kl(label)
    tab = identity_table(system)
    for (r, t) in pairs:
        assert check_base_change_relations(tab, r, t).ok
        assert check_structure_coefficient_relations(tab, kl, r, t).ok
        assert check_string_vanishing(tab, kl, r, t).ok
        assert check_coefficient_sliding(tab, kl, r, t).ok


def test_checkers_refuse_below_bound(c3, kl_c3, c3_p2, b2, kl_b2, b2_p2):
    # bond order 4 needs p > 2
    with pytest.raises(PBoundError):
        check_base_change_relations(c3_p2, 0, 1)
    with pytest.raises(PBoundError):
        check_string_vanishing(b2_p2, kl_b2, 0, 1)
    # coefficient sliding refuses like its three siblings
    with pytest.raises(PBoundError):
        check_coefficient_sliding(c3_p2, kl_c3, 0, 1)
    with pytest.raises(PBoundError):
        check_coefficient_sliding(b2_p2, kl_b2, 0, 1)
    # the m = 3 pair of C3 is fine at p = 2
    assert check_base_change_relations(c3_p2, 1, 2).ok
    assert check_string_vanishing(c3_p2, kl_c3, 1, 2).ok
    assert check_structure_coefficient_relations(c3_p2, kl_c3, 1, 2).ok
    assert check_coefficient_sliding(c3_p2, kl_c3, 1, 2).ok


def test_fabricated_table_fails_string_vanishing(b3, kl_b3):
    # plant a legal-looking row and find a string check that rejects it:
    # the table passes the elementary invariants but not the relations
    s121 = b3.digits_to_id("121")
    s1 = b3.digits_to_id("1")
    rows = {s121: {s1: ONE}}
    fake = PCanTable(b3, 97, rows)
    from pcells.pcanonical import validate_table
    assert validate_table(fake) == []
    bad = []
    for (r, t) in ((0, 1), (1, 2)):
        for rep in (check_base_change_relations(fake, r, t),
                    check_string_vanishing(fake, kl_b3, r, t),
                    check_structure_coefficient_relations(fake, kl_b3, r, t)):
            bad.extend(rep.violations)
    assert bad


def test_classification_cases(a3, kl_a3):
    tab = identity_table(a3)
    left = compute_cells(tab, kl_a3, "left")
    for (r, t) in ((0, 1), (1, 2)):
        strings = DihedralStrings(a3, r, t).strings
        labels = set()
        for sx in strings:
            assert classify_string_relation(left, sx, sx) != "empty"
            for sz in strings:
                labels.add(classify_string_relation(left, sx, sz))
        assert "nonstandard" not in labels
        assert "empty" in labels  # some strings are unrelated


def test_classification_b3(b3, kl_b3):
    tab = identity_table(b3)
    left = compute_cells(tab, kl_b3, "left")
    for (r, t) in ((0, 1), (1, 2)):
        strings = DihedralStrings(b3, r, t).strings
        for sx in strings:
            for sz in strings:
                assert classify_string_relation(left, sx, sz) != "nonstandard"


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_star_closure(label):
    system = verify.get_system(label)
    kl = verify.get_kl(label)
    tab = identity_table(system)
    left = compute_cells(tab, kl, "left")
    right = compute_cells(tab, kl, "right")
    for r in range(system.rank):
        for t in range(r + 1, system.rank):
            if system.coxeter_matrix[r][t] >= 3:
                assert star_closure_check(left, right, system, r, t, 0).ok


def _pairwise_star_invariance(partition, star):
    """The pairs (x, y) of D_R(r, t) with x <= y but not x* <= y*, or the
    reverse (the previous part (c) of star_closure_check)."""
    return [(x, y) for x in sorted(star) for y in sorted(star)
            if partition.leq(x, y) != partition.leq(star[x], star[y])]


def _star_pairs(system, prime):
    return [(r, t) for r in range(system.rank) for t in range(r + 1, system.rank)
            if system.coxeter_matrix[r][t] >= 3
            and p_bound_ok(prime, system.coxeter_matrix[r][t])]


@pytest.mark.parametrize("label,prime", [("A3", 0), ("B3", 0), ("C3", 0),
                                         ("G2", 0), ("A4", 0), ("C3", 2)])
def test_star_invariance_matches_the_pairwise_oracle(label, prime):
    system, kl = verify.get_system(label), verify.get_kl(label)
    table = verify.get_table(label, prime)
    right = verify.get_cells(label, prime, "right")
    direct = _partition_from_graph(
        system, elementary_relations(table, kl, "left"), "left", prime)
    for left in (verify.get_cells(label, prime, "left"), direct):
        for (r, t) in _star_pairs(system, prime):
            star = DihedralStrings(system, r, t).star
            assert transport_preorder(left, left, star)[1] == []
            assert not _pairwise_star_invariance(left, star)
            assert star_closure_check(left, right, system, r, t, prime).ok


# the left cells of each mutant whose string completion for (1, 2) is not
# a union of left cells
_BROKEN_COMPLETIONS = {
    "A3": {"merge": [2, 5], "split": [1, 5], "move": [1, 2, 4, 6]},
    "B3": {"merge": [5, 7, 8, 10], "split": [4, 6],
           "move": [4, 5, 6, 8, 9, 11]},
    "C3": {"merge": [5, 7, 8, 10], "split": [4, 6],
           "move": [4, 5, 6, 8, 9, 11]},
}


@pytest.mark.parametrize("label", ["A3", "B3", "C3"])
def test_star_closure_rejects_broken_partitions(label, left_mutants):
    system = verify.get_system(label)
    right = verify.get_cells(label, 0, "right")
    star = DihedralStrings(system, 0, 1).star
    for name, mutant in left_mutants(label).items():
        assert transport_preorder(mutant, mutant, star)[1], name
        assert _pairwise_star_invariance(mutant, star), name
        rep = star_closure_check(mutant, right, system, 0, 1, 0)
        assert not rep.ok, name
        assert [v for v in rep.violations if v.endswith(" union of left cells")
                ] == [f"string completion of left cell {i} is not a union "
                      "of left cells"
                      for i in _BROKEN_COMPLETIONS[label][name]], name


def _pairwise_relations(m, get, label, bad):
    """One relation system between one x-string and one z-string, get(j,
    i) the coefficient a(z_j, x_i)."""
    for lhs, rhs in _RELATIONS[m]:
        left = sum((get(j, i) for (j, i) in lhs), LaurentPoly())
        right = sum((get(j, i) for (j, i) in rhs), LaurentPoly())
        if left != right:
            bad.append(f"{label}: {lhs} = {left} but {rhs} = {right}")


def _pairwise_base_change(table, r, t):
    """The violations of check_base_change_relations, found by evaluating
    every pair of strings and comparing m(z, x) with m(z*, x*) for every
    pair in D_R(r, t) with l(z) <= l(x) (the previous checker)."""
    sys_ = table.system
    pair = DihedralStrings(sys_, r, t)
    star = pair.star
    bad = []
    for sx in pair.strings:
        for sz in pair.strings:
            _pairwise_relations(
                pair.m, lambda j, i: table.m(sz.elements[j - 1],
                                             sx.elements[i - 1]),
                f"m-relations x-string {sys_.id_to_digits(sx.elements[0])}"
                f" z-string {sys_.id_to_digits(sz.elements[0])}", bad)
    for x in sorted(star):
        for z in sorted(star):
            if (sys_.length[z] <= sys_.length[x]
                    and table.m(z, x) != table.m(star[z], star[x])):
                bad.append(("symmetry", z, x))
    return bad


def _pairwise_structure_coefficients(table, kl, r, t):
    """The violations of check_structure_coefficient_relations, found by
    evaluating every pair of strings for every s raising the x-string on
    the left, and every pair of D_R(r, t) for the star symmetry."""
    sys_ = table.system
    pair = DihedralStrings(sys_, r, t)
    star = pair.star
    left_mu = functools.cache(
        lambda s, x: structure_coefficients(table, kl, x, s, "left"))
    bad = []
    for sx in pair.strings:
        x1 = sx.elements[0]
        for s in range(sys_.rank):
            if s in sys_.left_descents[x1]:
                continue
            for sz in pair.strings:
                _pairwise_relations(
                    pair.m, lambda j, i: left_mu(s, sx.elements[i - 1]).get(
                        sz.elements[j - 1], LaurentPoly()),
                    f"mu-relations s={s + 1} x-string {sys_.id_to_digits(x1)}"
                    f" z-string {sys_.id_to_digits(sz.elements[0])}", bad)
    for x in sorted(star):
        for s in range(sys_.rank):
            if s in sys_.left_descents[x]:
                continue
            for y in sorted(star):
                if (left_mu(s, x).get(y, LaurentPoly())
                        != left_mu(s, star[x]).get(star[y], LaurentPoly())):
                    bad.append(("symmetry", s, x, y))
    return bad


def _pairwise_sliding(table, kl, r, t):
    """The pairs (z, x) of D_R(r, t) where check_coefficient_sliding's
    identity fails, every z compared (the previous checker)."""
    sys_ = table.system
    dr = sorted(DihedralStrings(sys_, r, t).positions)
    bad = []
    for x in dr:
        a = r if r in sys_.right_descents[x] else t
        b = t if a == r else r
        acc = table.expand_to_kl_coeffs(
            structure_coefficients(table, kl, x, b, "right"))
        for z in dr:
            want = sum((table.m(w, x) for w in (sys_.right_by_gen[a][z],
                                                 sys_.right_by_gen[b][z])
                        if w in dr), LaurentPoly())
            if acc.get(z, LaurentPoly()) != want:
                bad.append((z, x))
    return bad


def _relation_lines(violations):
    return [v for v in violations if isinstance(v, str) and "relations" in v]


def _relation_checkers_and_oracles(table, kl, r, t):
    """(report, oracle violations) for the three support-reading checkers."""
    return [(check_base_change_relations(table, r, t),
             _pairwise_base_change(table, r, t)),
            (check_structure_coefficient_relations(table, kl, r, t),
             _pairwise_structure_coefficients(table, kl, r, t)),
            (check_coefficient_sliding(table, kl, r, t),
             _pairwise_sliding(table, kl, r, t))]


@pytest.mark.parametrize("label,prime", [("A3", 0), ("B3", 0), ("C3", 0),
                                         ("G2", 0), ("A4", 0), ("B2", 0),
                                         ("C3", 2)])
def test_relation_checkers_match_the_pairwise_oracles(label, prime):
    system, kl = verify.get_system(label), verify.get_kl(label)
    table = verify.get_table(label, prime)
    for (r, t) in _star_pairs(system, prime):
        for rep, oracle in _relation_checkers_and_oracles(table, kl, r, t):
            assert rep.ok and oracle == [], rep.name


def _corrupted_tables(label, count, seed):
    """Copies of the p = 0 table with one entry m(y, x) set, each y below x
    in Bruhat order with the descent condition, so unitriangularity and
    the descent condition still hold."""
    system = verify.get_system(label)
    lower = [(y, x) for x in system.elements() for y in system.elements()
             if y != x and system.bruhat_leq(y, x)
             and system.left_descents[x] <= system.left_descents[y]
             and system.right_descents[x] <= system.right_descents[y]]
    rng = random.Random(seed)
    for _ in range(count):
        y, x = rng.choice(lower)
        value = rng.choice([ONE, GAUSS, LaurentPoly(2)])
        yield PCanTable(system, 0, {x: {y: value}})


def test_corrupted_tables_fail_checkers_and_oracles_alike():
    outcomes = []
    for seed, label in enumerate(["A3", "B3", "C3"]):
        kl = verify.get_kl(label)
        for table in _corrupted_tables(label, 6, seed):
            assert not [v for v in validate_table(table)
                        if "unitriangularity" in v or "descent" in v]
            for (r, t) in _star_pairs(table.system, 0):
                for rep, oracle in _relation_checkers_and_oracles(
                        table, kl, r, t):
                    assert rep.ok == (oracle == []), rep.name
                    assert _relation_lines(rep.violations) == \
                        _relation_lines(oracle), rep.name
                    outcomes.append(rep.ok)
    assert False in outcomes and True in outcomes


def test_tau_s3(a2, kl_a2):
    part = tau_partition(a2)
    left = compute_cells(identity_table(a2), kl_a2, "left")
    assert part.class_of == left.cell_of
    assert tau_tilde_partition(a2).class_of == part.class_of


def test_tau_a1():
    a1 = verify.get_system("A1")
    part = tau_partition(a1)
    assert part.classes == ((0,), (1,)) and part.class_of == (0, 1)


def test_tau_s4(a3, kl_a3):
    part = tau_partition(a3)
    left = compute_cells(identity_table(a3), kl_a3, "left")
    assert part.class_of == left.cell_of


def test_tau_tilde_b3(b3, kl_b3):
    part = tau_tilde_partition(b3)
    left = compute_cells(identity_table(b3), kl_b3, "left")
    for cell in left.cells:
        assert len({part.class_of[w] for w in cell}) == 1


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "B2", "B3", "C3", "G2"])
def test_tau_has_the_shape_of_the_left_cells(label):
    # both number their classes by first occurrence in id order, so where
    # tau and tau-tilde give the left cells the records agree as tuples
    left = verify.get_cells(label, 0, "left")
    for part in (tau_partition(verify.get_system(label)),
                 tau_tilde_partition(verify.get_system(label))):
        assert part.classes == left.cells
        assert part.class_of == left.cell_of


def test_verify_tau_reports_classes_that_differ_from_the_left_cells(
        monkeypatch, left_mutants):
    # tau on A3 is replaced by the left cells with two of them merged
    merged = left_mutants("A3")["merge"]
    a3 = verify.get_system("A3")
    real = verify.tau_partition
    monkeypatch.setattr(verify, "tau_partition", lambda system: (
        real(system)._replace(classes=merged.cells, class_of=merged.cell_of)
        if system is a3 else real(system)))
    reports = {rep.name: rep for rep in verify.verify_tau()}
    assert reports["A3: tau classes = left cells"].violations == [
        "tau classes differ from the p=0 left cells"]
    assert reports["A2: tau classes = left cells"].ok
    assert reports["A4: tau classes = left cells"].ok


def test_tau_restricted_to_valid_pairs_at_p2(c3, kl_c3, c3_p2):
    # at p = 2 only the order-3 pair of C3 is above the bound; the left
    # p-cells refine the tau classes built from that pair alone
    part = tau_partition(c3, orders=(3,))
    left = compute_cells(c3_p2, kl_c3, "left")
    for cell in left.cells:
        assert len({part.class_of[w] for w in cell}) == 1


# B4 and F4 mix m = 3 and m = 4 pairs; D4 and D5 branch
TAU_GROUPS = ["A3", "B3", "C3", "G2", "D4", "F4", "A5", "B4", "D5"]


def _system(label):
    if label in CARTAN:
        return CoxeterSystem.from_cartan(CARTAN[label])
    return verify.get_system(label)


def _tau_by_strings(system, orders=(3, 4), tilde=False):
    """The tau (or tau-tilde) fixpoint with each signature read per element
    and per round from _t_neighbors (or _star_right): the implementation the
    string maps replaced, refinement and renumbering included."""
    pairs = [(r, t) for r in range(system.rank) for t in range(r + 1, system.rank)
             if (system.coxeter_matrix[r][t] >= 3 if tilde
                 else system.coxeter_matrix[r][t] in orders)]

    def signature(class_of, x):
        sig = []
        for (r, t) in pairs:
            if not _in_d_r(system, x, r, t):
                sig.append(None)
            elif tilde:
                sig.append(class_of[_star_right(system, x, r, t)])
            else:
                a, b = _t_neighbors(system, x, r, t)
                sig.append(tuple(sorted((class_of[a], class_of[b]))))
        return tuple(sig)

    def refine(class_of, sig):
        buckets = {}
        for x in system.elements():
            buckets.setdefault((class_of[x],) + sig(x), []).append(x)
        out = {}
        for i, key in enumerate(sorted(buckets, key=lambda k: min(buckets[k]))):
            for x in buckets[key]:
                out[x] = i
        return out

    class_of = refine({x: 0 for x in system.elements()},
                      lambda x: (tuple(sorted(system.right_descents[x])),))
    iterations = 0
    while True:
        nxt = refine(class_of, lambda x: signature(class_of, x))
        iterations += 1
        if nxt == class_of:
            break
        class_of = nxt
    classes = [set() for _ in range(max(class_of.values()) + 1)]
    for x, i in class_of.items():
        classes[i].add(x)
    classes.sort(key=lambda c: (min(system.length[x] for x in c), min(c)))
    by_id = {x: i for i, c in enumerate(classes) for x in c}
    return TauPartition(classes=tuple(tuple(sorted(c)) for c in classes),
                        class_of=tuple(by_id[x] for x in system.elements()),
                        stabilized_at=iterations)


@pytest.mark.parametrize("label", TAU_GROUPS + ["A4"])
def test_tau_matches_string_oracle(label):
    system = _system(label)
    parts = [(tau_partition(system), _tau_by_strings(system)),
             (tau_partition(system, orders=(3,)), _tau_by_strings(system, (3,))),
             (tau_tilde_partition(system), _tau_by_strings(system, tilde=True))]
    for part, want in parts:
        assert part == want
        # each class an ascending tuple of ids, class_of a tuple by id
        assert type(part.classes) is type(part.class_of) is tuple
        assert len(part.class_of) == system.size
        for i, c in enumerate(part.classes):
            assert type(c) is tuple and list(c) == sorted(set(c))
            assert all(part.class_of[x] == i for x in c)


def _coset_min(system, x, r, t):
    while ds := system.right_descents[x] & {r, t}:
        x = system.right_by_gen[min(ds)][x]
    return x


def _string_of(system, x, r, t):
    """Oracle: the right <r, t>-string through x, as its elements, and the
    1-based position of x, walked from the coset minimum of x alone."""
    m = system.coxeter_matrix[r][t]
    for _, _, elements in _strings_one_by_one(
            system, r, t, m, [_coset_min(system, x, r, t)]):
        if x in elements:
            return elements, elements.index(x) + 1
    raise AssertionError("element escaped both strings of its coset")


def _star_right(system, x, r, t):
    """Oracle: the right star operation, position k to position m - k."""
    elements, k = _string_of(system, x, r, t)
    return elements[-k]


def _t_neighbors(system, x, r, t):
    """Oracle: the string neighbours {xr, xt} intersected with D_R(r, t),
    duplicated to a two-element multiset when only one exists."""
    out = [y for y in (system.right_by_gen[r][x], system.right_by_gen[t][x])
           if _in_d_r(system, y, r, t)]
    if len(out) == 1:
        out = out * 2
    if len(out) != 2:
        raise ValueError("element is not inside a string")
    return sorted(out)


@pytest.mark.parametrize("label", TAU_GROUPS)
def test_string_maps_match_star_right_and_t_neighbors(label):
    system = _system(label)
    for r in range(system.rank):
        for t in range(system.rank):
            if r == t:
                continue
            pair = DihedralStrings(system, r, t)
            if pair.m < 3:
                with pytest.raises(ValueError, match="bond order >= 3"):
                    pair.star
                with pytest.raises(ValueError, match="bond order >= 3"):
                    pair.neighbours
                continue
            star, neighbours = pair.star, pair.neighbours
            assert star.keys() == neighbours.keys() == {
                x for x in system.elements() if _in_d_r(system, x, r, t)}
            for x in star:
                assert star[x] == _star_right(system, x, r, t)
                assert list(neighbours[x]) == _t_neighbors(system, x, r, t)


def _strings_one_by_one(system, r, t, m, minima):
    """Oracle for the string walk: both right <r, t>-strings above each
    coset minimum, as (minimum, starting letter, elements), walked one
    string at a time (the generator the position-by-position walk
    replaced)."""
    cols = system.right_by_gen
    words = (((r, t) * m)[:m - 1], ((t, r) * m)[:m - 1])
    for w_min in minima:
        for word in words:
            x = w_min
            elements = []
            for s in word:
                x = cols[s][x]
                elements.append(x)
            yield w_min, word[0], elements


@pytest.mark.parametrize("label", TAU_GROUPS)
def test_strings_match_the_one_by_one_walk(label):
    system = _system(label)
    for r in range(system.rank):
        for t in range(system.rank):
            if r == t:
                continue
            m = system.coxeter_matrix[r][t]
            minima = sorted(system.minimal_coset_representatives({r, t},
                                                                 "right"))
            want = list(_strings_one_by_one(system, r, t, m, minima))
            # the same strings in the same order
            pair = DihedralStrings(system, r, t)
            # the starting letter is the one of r, t in D_R(x_1)
            assert [(s.coset_min,
                     *(system.right_descents[s.elements[0]] & {r, t}),
                     list(s.elements))
                    for s in pair.strings] == want
            # each element lies in one string, at its place in the walk:
            # one pass records every string through each element
            places = {}
            for string in pair.strings:
                for k, x in enumerate(string.elements, 1):
                    places.setdefault(x, []).append((string.elements, k))
            assert places == {x: [(tuple(elements), k)]
                              for _, _, elements in want
                              for k, x in enumerate(elements, 1)}
            if m < 3:
                continue
            star, neighbours = {}, {}
            for _, _, elements in want:
                star.update(zip(elements, reversed(elements)))
                ends = [elements[1], *elements, elements[-2]]
                neighbours.update(zip(elements, zip(ends, ends[2:])))
            assert (pair.star, pair.neighbours) == (star, neighbours)


@pytest.mark.parametrize("label", TAU_GROUPS)
def test_a_generator_paired_with_itself_is_rejected(label):
    system = _system(label)
    for r in range(system.rank):
        with pytest.raises(ValueError, match="two distinct generators"):
            DihedralStrings(system, r, r)


def test_infinite_bond_order_is_rejected():
    # no infinite group can be enumerated, so a bare Coxeter matrix stands in
    system = SimpleNamespace(rank=2, coxeter_matrix=[[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="infinite bond order"):
        DihedralStrings(system, 0, 1)


def test_tau_reads_star_at_m3_and_neighbours_at_m4_and_tau_tilde_only_star(
        monkeypatch, b3):
    # B3 has one m = 4 pair (1, 2) and one m = 3 pair (2, 3).  tau reads
    # each pair's maps as arrays over ids, and builds neither dict view
    want = tau_partition(b3), tau_tilde_partition(b3)
    reads = []
    columns = DihedralStrings._columns

    def recorded(self, targets):
        reads.append((targets.__name__, self.r, self.t))
        cols = columns(self, targets)
        assert all(type(col) is array and col.typecode == "I"
                   and len(col) == b3.size for col in cols)
        return cols

    def unread(self):
        raise AssertionError("tau built a dict view of the strings")

    with monkeypatch.context() as patch:
        patch.setattr(DihedralStrings, "_columns", recorded)
        for view in ("star", "neighbours"):
            patch.setattr(DihedralStrings, view, property(unread))
        assert tau_partition(b3) == want[0]
        assert sorted(reads) == [("_neighbour_targets", 0, 1),
                                 ("_star_targets", 1, 2)]
        reads.clear()
        assert tau_tilde_partition(b3) == want[1]
        assert sorted(reads) == [("_star_targets", 0, 1),
                                 ("_star_targets", 1, 2)]


@pytest.mark.parametrize("label", TAU_GROUPS)
def test_string_columns_read_like_the_views(label):
    # each array is the dict view's map, the identity outside D_R(r, t)
    system = _system(label)
    for r in range(system.rank):
        for t in range(r + 1, system.rank):
            if system.coxeter_matrix[r][t] < 3:
                continue
            pair = DihedralStrings(system, r, t)
            star, = pair._columns(_star_targets)
            before, after = pair._columns(_neighbour_targets)
            assert list(star) == [pair.star.get(x, x)
                                  for x in system.elements()]
            assert list(zip(before, after)) == [
                pair.neighbours.get(x, (x, x)) for x in system.elements()]


@pytest.mark.parametrize("orders", [(6,), (5,), (2,), (3, 6), (), [3], 3,
                                    (3.0,), (True,), "34", None],
                         ids=["6", "5", "2", "3-6", "empty", "list", "int",
                              "float", "bool", "str", "none"])
def test_tau_rejects_orders_other_than_3_and_4(g2, b3, orders):
    # (6,) on G2 read the m = 6 neighbours as if tau were defined there,
    # (5,) returned the descent-set partition, and 3 raised a TypeError
    for system in (g2, b3):
        with pytest.raises(ValueError, match="non-empty tuple of 3s and 4s"):
            tau_partition(system, orders=orders)


def test_neighbour_classes_are_keyed_as_a_multiset():
    # elements 0-3 each have a descent set of their own, so classes 0-3,
    # and 4, 5, 6 share one; their neighbours' classes are {0, 3}, {1, 2}
    # and {3, 0}: one sum, but only 4 and 6 have the same multiset
    system = SimpleNamespace(
        right_descents=[frozenset({k}) for k in range(4)] + [frozenset()] * 3,
        elements=lambda: range(7))
    before = array("I", [0, 1, 2, 3, 0, 1, 3])
    after = array("I", [0, 1, 2, 3, 3, 2, 0])
    assert _fixpoint(system, [], [(before, after)]) == (
        [0, 1, 2, 3, 4, 5, 4], 2)


def test_d6_tau_and_tau_tilde_agree_at_scale():
    # every bonded pair of D6 has m = 3, where tau reads the star images
    # just as tau-tilde does
    d6 = CoxeterSystem.from_cartan(CARTAN["D6"])
    tau, tilde = tau_partition(d6), tau_tilde_partition(d6)
    assert len(tau.classes) == 568
    assert tau == tilde


@pytest.mark.parametrize("generator", [-1, 3, True, "1"],
                         ids=["negative", "rank", "bool", "str"])
def test_a_generator_outside_the_rank_is_rejected(b3, generator):
    for r, t in ((generator, 1), (1, generator)):
        with pytest.raises(ValueError, match=r"must be ints in range\(3\)"):
            DihedralStrings(b3, r, t)


def test_strings_and_tau_partitions_are_immutable_tuples(a2):
    string = DihedralStrings(a2, 0, 1).strings[0]
    tau = tau_partition(a2)
    for record, field in ((string, "elements"), (tau, "classes")):
        with pytest.raises(AttributeError):
            setattr(record, field, ())
    assert hash(string) == hash(StringDecomposition(*string))
    assert string == tuple(string) and tau[2] == tau.stabilized_at
    assert repr(string) == (
        f"StringDecomposition(r={string.r!r}, t={string.t!r}, m={string.m!r}, "
        f"coset_min={string.coset_min!r}, "
        f"elements={string.elements!r})")
    assert repr(tau) == (
        f"TauPartition(classes={tau.classes!r}, class_of={tau.class_of!r}, "
        f"stabilized_at={tau.stabilized_at!r})")
