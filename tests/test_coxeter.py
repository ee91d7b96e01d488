import itertools
import re
from array import array

import pytest

from pcells.coxeter import (
    CoxeterSystem,
    GroupTooLargeError,
    _infinite_reason,
    cartan_matrix_of_type,
    cartan_to_coxeter,
    parse_digits,
)


def test_cartan_to_coxeter_rule():
    assert cartan_to_coxeter([[2, -1], [-1, 2]])[0][1] == 3
    assert cartan_to_coxeter([[2, -1], [-2, 2]])[0][1] == 4
    assert cartan_to_coxeter([[2, -1], [-3, 2]])[0][1] == 6
    assert cartan_to_coxeter([[2, 0], [0, 2]])[0][1] == 2
    assert cartan_to_coxeter([[2, -2], [-2, 2]])[0][1] == 0  # infinite


def test_cartan_rejects_bad_input():
    with pytest.raises(ValueError):
        cartan_to_coxeter([[2, -1]])
    with pytest.raises(ValueError):
        cartan_to_coxeter([[1, -1], [-1, 2]])
    with pytest.raises(ValueError):
        cartan_to_coxeter([[2, 1], [-1, 2]])


def test_cartan_rejects_one_sided_zero():
    # a(s,t) = 0 != a(t,s) is no generalized Cartan matrix; it used to be
    # read as m = 2 and then ran to the element cap
    with pytest.raises(ValueError, match=r"a\(1,2\) = 0 but a\(2,1\) = -1"):
        cartan_to_coxeter([[2, 0], [-1, 2]])
    with pytest.raises(ValueError, match=r"a\(2,3\) = -2 but a\(3,2\) = 0"):
        CoxeterSystem.from_cartan([[2, -1, 0], [-1, 2, -2], [0, 0, 2]])


def test_cartan_rejects_non_integer_entries():
    # each of these used to be truncated through int() and build A2
    for entry, shown in ((-1.7, "-1.7"), ("-1", "'-1'"), (True, "True"),
                         (-1.0, "-1.0")):
        with pytest.raises(ValueError, match=rf"a\(1,2\) = {shown} is not "):
            CoxeterSystem.from_cartan([[2, entry], [-1, 2]])
    with pytest.raises(ValueError, match=r"a\(2,2\) = 2.0 is not "):
        cartan_to_coxeter([[2, -1], [-1, 2.0]])


def test_enumeration_sizes():
    assert CoxeterSystem.from_type("A2").size == 6
    assert CoxeterSystem.from_type("B2").size == 8
    assert CoxeterSystem.from_type("G2").size == 12
    c3 = CoxeterSystem.from_type("C3")
    assert c3.size == 48
    assert c3.length[c3.longest_element()] == 9


# Cartan matrices beyond the from_type labels; B5 is the benchmark's.
CARTAN = {
    # generator 1 (0-based) is the branch node, in three m = 3 pairs
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "D5": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
           [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]],
    "B4": [[2, -2, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "B5": [[2, -2, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0],
           [0, 0, -1, 2, -1], [0, 0, 0, -1, 2]],
    "D6": [[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [0, -1, 2, -1, 0, 0],
           [0, 0, -1, 2, -1, -1], [0, 0, 0, -1, 2, 0], [0, 0, 0, -1, 0, 2]],
}
ORACLE_GROUPS = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "C3", "G2",
                 "D4", "F4", "D5", "B5"]
AFFINE_A2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def _enumerate_by_matrices(cartan):
    """Breadth-first enumeration keyed by the n x n matrix of each element in
    the geometric representation s(alpha_t) = alpha_t - a(s,t) alpha_s,
    with s a right descent of w iff the column w(alpha_s) is a negative
    root: the implementation the height-vector enumeration replaced."""
    n = len(cartan)

    def mat_mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                           for j in range(n)) for i in range(n))

    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = [tuple(tuple((1 if k == j else 0) - (cartan[s][j] if k == s else 0)
                        for j in range(n)) for k in range(n))
            for s in range(n)]
    index = {identity: 0}
    matrices = [identity]
    words, length, right = [()], [0], []
    frontier = 0
    while frontier < len(matrices):
        w = frontier
        frontier += 1
        row = []
        for s in range(n):
            m = mat_mul(matrices[w], gens[s])
            if m not in index:
                index[m] = len(matrices)
                matrices.append(m)
                words.append(words[w] + (s,))
                length.append(length[w] + 1)
            row.append(index[m])
        right.append(row)

    def word_to_id(word):
        w = 0
        for s in word:
            w = right[w][s]
        return w

    right_descents = [
        frozenset(s for s in range(n) if all(row[s] <= 0 for row in mat))
        for mat in matrices]
    inverse = [word_to_id(reversed(word)) for word in words]
    left_descents = [right_descents[inverse[w]] for w in range(len(words))]
    return {"words": words, "length": length, "right": right,
            "right_descents": right_descents, "left_descents": left_descents,
            "inverse": inverse}


@pytest.mark.parametrize("label", ORACLE_GROUPS)
def test_enumeration_matches_matrix_oracle(label):
    cartan = CARTAN.get(label) or cartan_matrix_of_type(label)
    system = CoxeterSystem.from_cartan(cartan)
    want = _enumerate_by_matrices(cartan)
    assert system.size == len(want["words"])
    for key, value in want.items():
        got = getattr(system, key)
        if key == "right":  # a view of tuples read from the columns
            got = [list(row) for row in got]
        else:  # words is a view, inverse an array and length bytes
            got = list(got)
        assert got == value, key
    assert [list(col) for col in system.right_by_gen] == [
        [row[s] for row in want["right"]] for s in range(system.rank)]


def _system(label):
    return CoxeterSystem.from_cartan(CARTAN.get(label)
                                     or cartan_matrix_of_type(label))


def _inverse_by_word_walk(system):
    """Each id's inverse read by walking its reversed word through the
    right table, O(|W| l): the pass the tail recursion replaced."""
    return [system.word_to_id(reversed(word)) for word in system.words]


@pytest.mark.parametrize("label", ORACLE_GROUPS + ["D6"])
def test_inverse_matches_the_word_walk(label):
    system = _system(label)
    assert list(system.inverse) == _inverse_by_word_walk(system)


@pytest.mark.parametrize("label", ORACLE_GROUPS)
def test_descent_sets_and_ids_are_shared_objects(label):
    system = _system(label)
    right = system.right_descents
    assert len({id(d) for d in right}) == len(set(right))
    assert all(d is right[u]
               for d, u in zip(system.left_descents, system.inverse))
    # ids are machine words in flat tables, so there are no int objects
    # to share: one array per generator, an array for inverse, bytes for
    # length and last
    assert len(system.right_by_gen) == system.rank
    for table in [*system.right_by_gen, system.inverse]:
        assert type(table) is array and table.typecode == "I"
        assert len(table) == system.size
    assert type(system.length) is bytes and type(system.last) is bytes


def test_cap_exceeded():
    with pytest.raises(GroupTooLargeError):
        CoxeterSystem.from_type("C3", cap=10)
    # an infinite group hits the cap instead of hanging
    with pytest.raises(GroupTooLargeError):
        CoxeterSystem.from_cartan([[2, -2], [-2, 2]], cap=50)


def test_affine_a2_hits_the_cap():
    # affine A2 is infinite: the enumeration stops at the cap
    with pytest.raises(GroupTooLargeError):
        CoxeterSystem.from_cartan(AFFINE_A2, cap=200)


def _enumerates_within(cartan, cap):
    """Whether the height-vector enumeration, run without the finiteness
    check, closes within cap elements."""
    probe = CoxeterSystem.__new__(CoxeterSystem)
    probe.cartan, probe.rank = cartan, len(cartan)
    try:
        probe._enumerate(cap)
    except GroupTooLargeError:
        return False
    return True


def test_finiteness_matches_enumeration_in_rank_three():
    # every rank-3 generalized Cartan matrix over these bonds; a finite
    # group of rank 3 has at most 48 elements
    bonds = [(0, 0), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1),
             (-2, -2), (-1, -4)]
    finite = 0
    for b01, b02, b12 in itertools.product(bonds, repeat=3):
        cartan = [[2, b01[0], b02[0]], [b01[1], 2, b12[0]],
                  [b02[1], b12[1], 2]]
        reason = _infinite_reason(cartan)
        assert (reason is None) == _enumerates_within(cartan, 48), cartan
        finite += reason is None
    assert finite == 31


def test_infinite_group_is_rejected_before_enumerating():
    cases = [
        ("the Coxeter graph has a cycle", AFFINE_A2),
        ("m(1,2) = inf", [[2, -1], [-4, 2]]),
        # affine G2 and affine C2: forests whose form is not definite
        ("the symmetrised Cartan form is not positive definite",
         [[2, -1, 0], [-3, 2, -1], [0, -1, 2]]),
        ("the symmetrised Cartan form is not positive definite",
         [[2, -2, 0], [-1, 2, -2], [0, -1, 2]]),
    ]
    for reason, cartan in cases:
        with pytest.raises(GroupTooLargeError) as err:
            CoxeterSystem.from_cartan(cartan, cap=10**9)
        assert str(err.value) == f"the group is infinite: {reason}"
    for cartan in CARTAN.values():
        assert _infinite_reason(cartan) is None


def test_length_changes_by_one(a3, b3):
    for system in (a3, b3):
        for w in system.elements():
            for s in range(system.rank):
                ws = system.right_by_gen[s][w]
                assert abs(system.length[ws] - system.length[w]) == 1


def test_descents(b2):
    w0 = b2.longest_element()
    assert b2.right_descents[0] == frozenset()
    assert b2.right_descents[w0] == frozenset(range(b2.rank))
    for w in b2.elements():
        for s in range(b2.rank):
            drops = b2.length[b2.right_by_gen[s][w]] < b2.length[w]
            assert (s in b2.right_descents[w]) == drops
        assert b2.left_descents[w] == b2.right_descents[b2.inverse[w]]


def test_bruhat_basics(a2):
    s, t = a2.digits_to_id("1"), a2.digits_to_id("2")
    sts = a2.digits_to_id("121")
    for w in a2.elements():
        assert a2.bruhat_leq(0, w)
    assert a2.bruhat_leq(s, sts)
    assert not a2.bruhat_leq(s, t)
    assert not a2.bruhat_leq(sts, s)


def _bruhat_leq_by_subword(system, x, y):
    """x <= y iff some subword of the reduced word of y is a reduced word
    for x: the subword characterization, oracle of the descent recursion."""
    word_y = system.words[y]
    lx = system.length[x]

    def walk(pos, current, taken):
        if taken == lx:
            return current == x
        if lx - taken > len(word_y) - pos:
            return False
        if walk(pos + 1, current, taken):
            return True
        nxt = system.right_by_gen[word_y[pos]][current]
        if system.length[nxt] > system.length[current]:
            return walk(pos + 1, nxt, taken + 1)
        return False

    return walk(0, 0, 0)


def test_bruhat_recursion_matches_subword(a3, b3):
    for system in (a3, b3):
        for x in system.elements():
            for y in system.elements():
                assert system.bruhat_leq(x, y) == _bruhat_leq_by_subword(system, x, y)


def test_minimal_coset_representatives(a2, b3):
    assert a2.minimal_coset_representatives(range(a2.rank)) == frozenset({0})
    assert a2.minimal_coset_representatives(()) == frozenset(a2.elements())
    # representatives of W / W_{s} have no right descent s: e, t, st
    got = a2.minimal_coset_representatives({0})
    assert got == frozenset({0, a2.digits_to_id("2"), a2.digits_to_id("12")})
    # the left-side mirror has no left descent s: e, t, ts
    got = a2.minimal_coset_representatives({0}, side="left")
    assert got == frozenset({0, a2.digits_to_id("2"), a2.digits_to_id("21")})
    for k in range(b3.rank + 1):
        for gens in itertools.combinations(range(b3.rank), k):
            reps = b3.minimal_coset_representatives(gens)
            assert len(reps) * len(b3.parabolic_elements(gens)) == b3.size


def test_digit_strings(c3):
    w = c3.digits_to_id("23212")
    assert c3.length[w] == 5
    assert c3.digits_to_id(c3.id_to_digits(w)) == w
    assert parse_digits("231") == (1, 2, 0) and parse_digits("") == ()
    # ASCII 1-9 only: fullwidth, Arabic-Indic and superscript digits were
    # read as the ASCII ones
    for digits in ("2a1", "１２", "٣", "1²", "0", "10", "1 2"):
        with pytest.raises(ValueError, match="bad digit string"):
            parse_digits(digits)


def test_reduced_words(b2):
    w0 = b2.longest_element()
    words = b2.reduced_words(w0)
    assert len(words) == 2
    for word in words:
        assert b2.word_to_id(word) == w0
    # unique reduced words off the top element in a dihedral group
    for w in b2.elements():
        if w != w0 and w != 0:
            assert len(b2.reduced_words(w)) == 1


def test_parabolic_subsystem(c3):
    emb = c3.parabolic_subsystem([0, 1])
    assert emb.sub.size == 8
    assert emb.sub.coxeter_matrix[0][1] == 4
    for w in emb.sub.elements():
        assert c3.length[emb.to_parent[w]] == emb.sub.length[w]


@pytest.mark.parametrize("label, gens", [
    ("C3", [0, 2]), ("C3", [1, 2]), ("F4", [1, 2, 3]), ("D5", [0, 2, 3, 4]),
    ("B5", [0, 1, 3])])
def test_parabolic_embedding_matches_the_translated_words(label, gens):
    # oracle: the id of each subgroup word with its letters renamed
    system = _system(label)
    emb = system.parabolic_subsystem(gens)
    assert emb.to_parent == [
        system.word_to_id(tuple(gens[s] for s in word))
        for word in emb.sub.words]


def test_ids_outside_the_group_are_rejected(a2):
    # id_to_digits(-1) read the longest element's word "121", mult(1, -1)
    # and left_mult(0, -1) returned 4, reduced_words(-1) the longest
    # element's two words and bruhat_leq(-1, 2) False
    for w in (-1, a2.size, True, 1.0, "1"):
        shown = re.escape(repr(w))
        for read in (a2.words.__getitem__, a2.right.__getitem__,
                     a2.id_to_digits, a2.reduced_words,
                     lambda x: a2.mult(1, x), lambda x: a2.mult(x, 1),
                     lambda x: a2.left_mult(0, x),
                     lambda x: a2.bruhat_leq(x, 2),
                     lambda x: a2.bruhat_leq(2, x)):
            with pytest.raises(ValueError,
                               match=rf"element id {shown} is not an int "
                                     rf"in range\(6\)"):
                read(w)
    assert a2.id_to_digits(a2.size - 1) == "121"
    assert a2.mult(1, 2) == a2.digits_to_id("12")
    assert a2.right[0] == (1, 2)
    assert a2.left_mult(0, 2) == a2.digits_to_id("12")
    assert a2.reduced_words(a2.size - 1) == [(0, 1, 0), (1, 0, 1)]


def test_words_index_names_a_word_outside_the_group(a2):
    # the index used to run past the last id and fail on its id check,
    # with "element id 6 is not an int in range(6)"
    for word in a2.words:
        assert a2.words.index(word) == a2.word_to_id(word)
    for word in ((0, 0), (1, 0, 1), (2,), (True,), [0], "1"):
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(repr(word))} is not in words"):
            a2.words.index(word)


def test_generators_must_be_ints_in_range(a2):
    # (True,) was read as s2 and (1.0,) raised a TypeError; left_mult(-1, 0)
    # returned 2
    for s in (True, False, 1.0, "1", None, -1, 2):
        for read in (lambda x: a2.word_to_id((x,)),
                     lambda x: a2.left_mult(x, 0)):
            with pytest.raises(ValueError,
                               match=rf"generator {re.escape(repr(s))} is "
                                     rf"not an int in range\(2\)"):
                read(s)
    assert a2.word_to_id((1,)) == a2.digits_to_id("2")


def test_type_label_must_be_a_string():
    for label in (3, ["A", 2], None, b"A2"):
        with pytest.raises(ValueError, match="is not a string"):
            cartan_matrix_of_type(label)
        with pytest.raises(ValueError, match="is not a string"):
            CoxeterSystem.from_type(label)


def test_from_spec_rejects_malformed_specs():
    for spec in (5, None, "A3", [[2, -1], [-1, 2]]):
        with pytest.raises(ValueError, match="is not an object"):
            CoxeterSystem.from_spec(spec)
    for spec in ({"type": 3}, {"type": ["A", 2]}):
        with pytest.raises(ValueError, match="is not a string"):
            CoxeterSystem.from_spec(spec)
    for cartan in (5, [1], [[2, -1], 3], "[[2]]", ((2, -1), (-1, 2))):
        with pytest.raises(ValueError, match="is not a list of lists"):
            CoxeterSystem.from_spec({"cartan": cartan})
    with pytest.raises(ValueError, match="both"):
        CoxeterSystem.from_spec({"cartan": [[2, -1], [-1, 2]], "type": "B2"})
    with pytest.raises(ValueError, match="needs a 'type' or 'cartan' key"):
        CoxeterSystem.from_spec({"rank": 2})
    # any other key is an input error, not ignored
    for spec in ({"type": "A3", "extra": 1}, {"cartan": [[2]], "rank": 1}):
        with pytest.raises(ValueError, match="unknown key '(extra|rank)'"):
            CoxeterSystem.from_spec(spec)
    assert CoxeterSystem.from_spec({"type": "B2"}).size == 8
    assert CoxeterSystem.from_spec({"cartan": [[2, -1], [-1, 2]]}).size == 6


def test_type_labels_are_validated_before_parsing():
    # an empty label was an IndexError; a rank in other scripts' digits
    # (fullwidth, Arabic-Indic, superscript) was read as the ASCII rank
    # a leading zero built A1 labelled "A01"
    for label in ("", " ", "A", "2", "AB", "A 2", "A２", "A٣", "A²", "A01",
                  "B02"):
        with pytest.raises(ValueError, match="bad type label"):
            cartan_matrix_of_type(label)
        with pytest.raises(ValueError, match="bad type label"):
            CoxeterSystem.from_type(label)
    assert CoxeterSystem.from_type(" a2 ").size == 6
    assert CoxeterSystem.from_type("A1").label == "A1"


def test_parabolic_embedding_is_an_immutable_tuple(c3):
    emb = c3.parabolic_subsystem([0, 1])
    with pytest.raises(AttributeError):
        emb.gens = None
    # a record is the tuple of its fields
    assert emb == (emb.sub, emb.gens, emb.to_parent)
    assert emb[1] == emb.gens == (0, 1)
    assert repr(emb) == (f"ParabolicEmbedding(sub={emb.sub!r}, "
                         f"gens={emb.gens!r}, to_parent={emb.to_parent!r})")
