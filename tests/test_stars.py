import pytest

from pcells.cells import compute_cells
from pcells.coxeter import CoxeterSystem
from pcells.laurent import ONE
from pcells.pcanonical import PCanTable, identity_table
from pcells.stars import (
    PBoundError,
    TauPartition,
    _string_maps,
    all_strings,
    check_base_change_relations,
    check_coefficient_sliding,
    check_string_vanishing,
    check_structure_coefficient_relations,
    classify_string_relation,
    d_r_set,
    in_d_r,
    star_closure_check,
    star_left,
    star_right,
    string_of,
    t_neighbors,
    tau_partition,
    tau_tilde_partition,
)
from pcells import verify


def test_string_of_a2(a2):
    s, st = a2.digits_to_id("1"), a2.digits_to_id("12")
    sd, pos = string_of(a2, s, 0, 1)
    assert sd.elements == (s, st) and pos == 1
    sd2, pos2 = string_of(a2, st, 0, 1)
    assert sd2.elements == (s, st) and pos2 == 2
    with pytest.raises(ValueError):
        string_of(a2, 0, 0, 1)
    w0 = a2.longest_element()
    with pytest.raises(ValueError):
        string_of(a2, w0, 0, 1)


def test_string_of_b2(b2):
    sts = b2.digits_to_id("121")
    sd, pos = string_of(b2, sts, 0, 1)
    assert pos == 3
    assert sd.elements == tuple(b2.digits_to_id(w) for w in ("1", "12", "121"))


def test_star_right(a2, b2):
    s, st = a2.digits_to_id("1"), a2.digits_to_id("12")
    assert star_right(a2, s, 0, 1) == st
    assert star_right(a2, st, 0, 1) == s
    # the middle of an m = 4 string is fixed
    st_b = b2.digits_to_id("12")
    assert star_right(b2, st_b, 0, 1) == st_b
    for x in d_r_set(b2, 0, 1):
        assert star_right(b2, star_right(b2, x, 0, 1), 0, 1) == x


def test_star_left(a2, b2):
    s, ts = a2.digits_to_id("1"), a2.digits_to_id("21")
    assert star_left(a2, s, 0, 1) == ts
    assert star_left(a2, ts, 0, 1) == s
    sts = b2.digits_to_id("121")
    assert star_left(b2, sts, 0, 1) == b2.digits_to_id("1")
    with pytest.raises(ValueError):
        star_left(a2, 0, 0, 1)


def test_t_neighbors(a2, b2):
    st = b2.digits_to_id("12")
    assert t_neighbors(b2, st, 0, 1) == sorted(
        (b2.digits_to_id("1"), b2.digits_to_id("121")))
    s = b2.digits_to_id("1")
    assert t_neighbors(b2, s, 0, 1) == [st, st]
    sa = a2.digits_to_id("1")
    sta = a2.digits_to_id("12")
    assert t_neighbors(a2, sa, 0, 1) == [sta, sta]


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
        strings = all_strings(a3, r, t)
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
        for sx in all_strings(b3, r, t):
            for sz in all_strings(b3, r, t):
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


def test_tau_s3(a2, kl_a2):
    part = tau_partition(a2)
    left = compute_cells(identity_table(a2), kl_a2, "left")
    assert part.as_sets() == left.as_sets()
    assert tau_tilde_partition(a2).as_sets() == part.as_sets()


def test_tau_a1():
    a1 = verify.get_system("A1")
    part = tau_partition(a1)
    assert part.as_sets() == {frozenset({0}), frozenset({1})}


def test_tau_s4(a3, kl_a3):
    part = tau_partition(a3)
    left = compute_cells(identity_table(a3), kl_a3, "left")
    assert part.as_sets() == left.as_sets()


def test_tau_tilde_b3(b3, kl_b3):
    part = tau_tilde_partition(b3)
    left = compute_cells(identity_table(b3), kl_b3, "left")
    for cell in left.cells:
        assert len({part.class_of[w] for w in cell}) == 1


def test_tau_restricted_to_valid_pairs_at_p2(c3, kl_c3, c3_p2):
    # at p = 2 only the order-3 pair of C3 is above the bound; the left
    # p-cells refine the tau classes built from that pair alone
    part = tau_partition(c3, orders=(3,))
    left = compute_cells(c3_p2, kl_c3, "left")
    for cell in left.cells:
        assert len({part.class_of[w] for w in cell}) == 1


CARTAN = {
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    # generator 1 (0-based) is the branch node, in three m = 3 pairs
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}
TAU_GROUPS = ["A3", "B3", "C3", "G2", "D4", "F4", "A5"]


def _system(label):
    if label in CARTAN:
        return CoxeterSystem.from_cartan(CARTAN[label])
    return verify.get_system(label)


def _tau_by_strings(system, orders=(3, 4), tilde=False):
    """The tau (or tau-tilde) fixpoint with each signature read per element
    and per round from t_neighbors (or star_right): the implementation the
    string maps replaced, refinement and renumbering included."""
    pairs = [(r, t) for r in range(system.rank) for t in range(r + 1, system.rank)
             if (system.coxeter_matrix[r][t] >= 3 if tilde
                 else system.coxeter_matrix[r][t] in orders)]

    def signature(class_of, x):
        sig = []
        for (r, t) in pairs:
            if not in_d_r(system, x, r, t):
                sig.append(None)
            elif tilde:
                sig.append(class_of[star_right(system, x, r, t)])
            else:
                a, b = t_neighbors(system, x, r, t)
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
    return TauPartition(classes=tuple(frozenset(c) for c in classes),
                        class_of={x: i for i, c in enumerate(classes) for x in c},
                        stabilized_at=iterations)


@pytest.mark.parametrize("label", TAU_GROUPS)
def test_tau_matches_string_oracle(label):
    system = _system(label)
    assert tau_partition(system) == _tau_by_strings(system)
    assert tau_partition(system, orders=(3,)) == _tau_by_strings(system, (3,))
    assert tau_tilde_partition(system) == _tau_by_strings(system, tilde=True)


@pytest.mark.parametrize("label", TAU_GROUPS)
def test_string_maps_match_star_right_and_t_neighbors(label):
    system = _system(label)
    for r in range(system.rank):
        for t in range(r + 1, system.rank):
            if system.coxeter_matrix[r][t] < 3:
                with pytest.raises(ValueError):
                    _string_maps(system, r, t)
                continue
            star, neighbours = _string_maps(system, r, t)
            assert star.keys() == neighbours.keys() == d_r_set(system, r, t)
            for x in star:
                assert star[x] == star_right(system, x, r, t)
                assert list(neighbours[x]) == t_neighbors(system, x, r, t)


def _strings_one_by_one(system, r, t, m, minima):
    """Oracle for the string walk: both right <r, t>-strings above each
    coset minimum, as (minimum, starting letter, elements), walked one
    string at a time (the generator the position-by-position walk
    replaced)."""
    right = system.right
    words = (((r, t) * m)[:m - 1], ((t, r) * m)[:m - 1])
    for w_min in minima:
        for word in words:
            x = w_min
            elements = []
            for s in word:
                x = right[x][s]
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
            # all_strings: the same strings in the same order
            assert [(s.coset_min, s.start, list(s.elements))
                    for s in all_strings(system, r, t)] == want
            for w_min, start, elements in want:
                for k, x in enumerate(elements, 1):
                    s, pos = string_of(system, x, r, t)
                    assert (s.coset_min, s.start, list(s.elements), pos) \
                        == (w_min, start, elements, k)
            if m < 3:
                continue
            star, neighbours = {}, {}
            for _, _, elements in want:
                star.update(zip(elements, reversed(elements)))
                ends = [elements[1], *elements, elements[-2]]
                neighbours.update(zip(elements, zip(ends, ends[2:])))
            assert _string_maps(system, r, t) == (star, neighbours)
