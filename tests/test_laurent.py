import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcells.laurent import GAUSS, ONE, V, V_INV, ZERO, LaurentPoly


def test_add_disjoint_exponents():
    assert V + V_INV == LaurentPoly({1: 1, -1: 1})


def test_add_cancellation():
    assert V + (-V) == ZERO
    assert not (V - V)


def test_add_doubles():
    p = ONE + V
    assert p + p == LaurentPoly({0: 2, 1: 2})


def test_mul_gauss_squared():
    assert GAUSS * GAUSS == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_mul_by_zero():
    assert (ONE + V + V_INV) * ZERO == ZERO


def test_mul_shift():
    assert (V_INV - V) * V == ONE - LaurentPoly({2: 1})


def test_bar_basic():
    assert V.bar() == V_INV
    sym = ONE + V + V_INV
    assert sym.bar() == sym
    assert LaurentPoly({2: 3}).bar() == LaurentPoly({-2: 3})


def test_self_duality():
    assert GAUSS.is_self_dual()
    assert not V.is_self_dual()
    assert ZERO.is_self_dual()


def test_nonnegativity():
    assert (ONE + LaurentPoly({2: 1})).is_nonnegative()
    assert not (V_INV - V).is_nonnegative()
    assert ZERO.is_nonnegative()


def _random_poly(rng):
    return LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5)
                        for _ in range(rng.randint(0, 5))})


def test_bar_is_ring_involution():
    rng = random.Random(7)
    for _ in range(200):
        a, b = _random_poly(rng), _random_poly(rng)
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()
        assert a.bar().bar() == a


def test_canonical_form_is_unique():
    rng = random.Random(11)
    for _ in range(100):
        a, b = _random_poly(rng), _random_poly(rng)
        diff = a - b
        assert (a == b) == (not diff)
        if a == b:
            assert hash(a) == hash(b)


def test_pairs_round_trip():
    p = LaurentPoly({-2: 4, 0: -1, 3: 2})
    assert p.to_pairs() == [[-2, 4], [0, -1], [3, 2]]
    assert LaurentPoly.from_pairs(p.to_pairs()) == p


@pytest.mark.parametrize("pairs", [[[0, 1.7]], [[0, 2.0]], [[1.0, 1]],
                                   [[0, "1"]], [[0, True]], [[None, 1]]])
def test_from_pairs_rejects_non_integers(pairs):
    with pytest.raises(ValueError):
        LaurentPoly.from_pairs(pairs)


@pytest.mark.parametrize("coeffs", [
    {0: 2.5}, {1.7: 1}, {"2": 1}, {True: 1}, {0: False}, True, 2.5, "2",
    [(0, 1.0)], [(None, 1)], [(1,)], [(1, 2, 3)], [7]])
def test_constructor_rejects_non_integer_terms(coeffs):
    with pytest.raises(ValueError, match="polynomial term"):
        LaurentPoly(coeffs)


def test_from_pairs_rejects_a_constant_or_a_coefficient_map():
    with pytest.raises(TypeError):
        LaurentPoly.from_pairs(3)
    with pytest.raises(ValueError, match="polynomial term"):
        LaurentPoly.from_pairs({0: 1})


def test_constant_polynomials_hash_like_ints():
    for n in (0, 1, 3, -7, 2**70):
        assert LaurentPoly(n) == n
        assert hash(LaurentPoly(n)) == hash(n)
    assert hash(ZERO) == hash(0)
    assert {LaurentPoly(3): 1}.get(3) == 1
    assert {3: 1}.get(LaurentPoly(3)) == 1
    assert {ZERO: "z"}.get(0) == "z"


def test_int_coercion_and_scale():
    assert LaurentPoly(3) == 3 * ONE
    assert GAUSS.scale(0) == ZERO
    assert 2 * GAUSS == LaurentPoly({1: 2, -1: 2})


def test_display():
    assert str(ZERO) == "0"
    assert str(GAUSS) == "v^-1 + v"
    assert str(ONE - LaurentPoly({2: 1})) == "1 - v^2"


# -- property tests: Z[v, v^-1] is a commutative ring, bar an involutive
# automorphism of it ------------------------------------------------------

polys = st.dictionaries(st.integers(-6, 6), st.integers(-2**40, 2**40),
                        max_size=6).map(LaurentPoly)
ring_laws = settings(max_examples=200, deadline=None)


@ring_laws
@given(polys, polys, polys)
def test_addition_is_an_abelian_group(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + ZERO == a == ZERO + a
    assert a - a == ZERO
    assert a + (-a) == ZERO
    assert a - b == a + (-b)


@ring_laws
@given(polys, polys, polys)
def test_multiplication_is_commutative_associative_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * ONE == a == ONE * a
    assert a * ZERO == ZERO


@ring_laws
@given(polys, polys)
def test_bar_is_an_involutive_ring_automorphism(a, b):
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()
    assert ONE.bar() == ONE and ZERO.bar() == ZERO


@ring_laws
@given(st.integers())
def test_constant_polynomials_hash_like_their_ints(n):
    assert LaurentPoly(n) == n
    assert hash(LaurentPoly(n)) == hash(n)
