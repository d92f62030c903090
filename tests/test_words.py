import random

import pytest
from hypothesis import given, strategies as st

from cwlab.bruteforce import EnumerationQuery, enumerate_solutions
from cwlab.errors import ModulusMismatchError, UsageError
from cwlab.ring import Modulus, mat_mul, minus_identity
from cwlab.verification import (
    _census_set,
    check_catalog_size_2,
    check_catalog_size_3,
    check_catalog_size_4,
)
from cwlab.words import (
    Word,
    canonical_form,
    equivalent,
    is_solution,
    oplus,
    _arrangements,
    parse_word,
    word,
    word_matrix,
)

from oracles import arrangements_oracle


def words_strategy(max_n=12, max_len=8):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=n - 1),
                           min_size=1, max_size=max_len).map(
            lambda vs: word(vs, n)))


def test_word_reduces_and_validates():
    w = word([-2, 0, -1, 1], 7)
    assert w.values == (5, 0, 6, 1)
    with pytest.raises(UsageError):
        word([], 7)
    for values in ((5,), (-1,)):  # Word takes residues only; word reduces
        with pytest.raises(UsageError, match=r"must lie in \[0, 5\)"):
            Word(values, Modulus(5))


def test_word_built_from_a_list_stores_a_tuple():
    w = Word([1, 1, 1], Modulus(5))
    assert type(w.values) is tuple
    assert w == word([1, 1, 1], 5)
    assert hash(w) == hash(word([1, 1, 1], 5))


def test_parse_word():
    assert parse_word("-2,0,-1,1", 7).values == (5, 0, 6, 1)
    assert parse_word(" 3 , 2 ", 5).values == (3, 2)
    with pytest.raises(UsageError):
        parse_word("3;2", 5)
    with pytest.raises(UsageError):
        parse_word("", 5)


def test_word_matrix_constant_pairs_and_triples():
    for n in (2, 3, 7, 10, 31):
        assert word_matrix(word([0, 0], n)) == minus_identity(n)
        assert word_matrix(word([1, 1, 1], n)) == minus_identity(n)


def test_word_matrix_all_two_word_mod_eight():
    # oracle: multiply the eight matrices [[2,-1],[1,0]] directly
    a, b, c, d = 1, 0, 0, 1
    for _ in range(8):
        a, b, c, d = (2 * a - c) % 8, (2 * b - d) % 8, a, b
    assert (a, b, c, d) == (1, 0, 0, 1)  # the product is the identity
    w = word([2] * 8, 8)
    assert word_matrix(w).entries == (1, 0, 0, 1)
    assert is_solution(w) == 1


def test_word_matrix_multiplicativity_examples():
    m = Modulus(9)
    u = word([4, 7], m)
    v = word([1, 2, 5], m)
    combined = word(v.values + u.values, m)
    assert word_matrix(combined) == mat_mul(word_matrix(u), word_matrix(v))


@given(st.data())
def test_word_matrix_multiplicativity(data):
    w = data.draw(words_strategy())
    cut = data.draw(st.integers(min_value=1, max_value=max(len(w) - 1, 1)))
    if cut >= len(w):
        return
    v = Word(w.values[:cut], w.modulus)
    u = Word(w.values[cut:], w.modulus)
    assert word_matrix(w) == mat_mul(word_matrix(u), word_matrix(v))


def test_is_solution_examples():
    assert is_solution(word([0, 0], 10)) == -1
    for n in range(2, 13):
        for k in range(n):
            assert is_solution(word([k], n)) is None
    assert is_solution(word([8, 3, 3, 3, 8], 10)) == -1


def test_oplus_examples():
    m = Modulus(11)
    assert oplus(word([3, 2, 1], m), word([1, 2, 3], m)).values == \
        word([6, 2, 2, 2], m).values
    assert oplus(word([-2, 0, -1, 1], m), word([3, -2, 2], m)).values == \
        word([0, 0, -1, 4, -2], m).values


def test_oplus_zero_pair_is_right_identity():
    m = Modulus(9)
    a = word([4, 1, 7, 2], m)
    zero = word([0, 0], m)
    assert oplus(a, zero).values == a.values
    # on the other side the formula yields a rotation, not equality
    assert oplus(zero, a).values == (2, 4, 1, 7)
    assert equivalent(oplus(zero, a), a)


def test_oplus_preconditions():
    m = Modulus(5)
    with pytest.raises(UsageError):
        oplus(word([1], m), word([1, 2], m))
    with pytest.raises(UsageError):
        oplus(word([1, 2], m), word([3], m))
    with pytest.raises(ModulusMismatchError):
        oplus(word([1, 2], 5), word([1, 2], 7))


def test_oplus_not_commutative():
    m = Modulus(7)
    a, b = word([3, 2, 1], m), word([1, 2, 3], m)
    assert oplus(a, b).values != oplus(b, a).values


def test_rotations_and_reversals():
    got = list(_arrangements((1, 2, 3)))
    assert got == [(1, 2, 3), (2, 3, 1), (3, 1, 2),
                   (3, 2, 1), (2, 1, 3), (1, 3, 2)]
    assert list(_arrangements((4, 4, 4, 4))) == [(4, 4, 4, 4)] * 8
    assert list(_arrangements((1, 2))) == [(1, 2), (2, 1), (2, 1), (1, 2)]


def test_equivalent_examples():
    assert equivalent(word([1, 2, 3], 5), word([3, 1, 2], 5))
    assert equivalent(word([1, 2, 3], 5), word([3, 2, 1], 5))
    # oracle: (1,2,2) does not appear among the six arrangements of (1,1,2)
    assert (1, 2, 2) not in arrangements_oracle((1, 1, 2))
    assert not equivalent(word([1, 1, 2], 5), word([1, 2, 2], 5))
    assert not equivalent(word([1, 2], 5), word([1, 2, 0], 5))
    with pytest.raises(ModulusMismatchError):
        equivalent(word([1, 2], 5), word([1, 2], 7))


def test_canonical_form_examples():
    assert canonical_form(word([3, 1, 2], 5)).values == (1, 2, 3)
    assert canonical_form(word([4, 4, 4], 5)).values == (4, 4, 4)
    # oracle: smallest of the eight arrangements of (0,2,0,4) mod 6
    assert min(arrangements_oracle((0, 2, 0, 4))) == (0, 2, 0, 4)
    assert canonical_form(word([0, 2, 0, 4], 6)).values == (0, 2, 0, 4)


@given(words_strategy())
def test_canonical_form_idempotent(w):
    c = canonical_form(w)
    assert canonical_form(c).values == c.values
    assert c.values == min(arrangements_oracle(w.values))


@given(st.data())
def test_canonical_form_characterizes_equivalence(data):
    u = data.draw(words_strategy())
    arrangement = word(data.draw(st.sampled_from(
        arrangements_oracle(u.values))), u.modulus)
    assert equivalent(u, arrangement)
    assert canonical_form(u).values == canonical_form(arrangement).values
    assert canonical_form(u).values == min(arrangements_oracle(u.values))
    other = data.draw(st.lists(
        st.integers(min_value=0, max_value=u.modulus.n - 1),
        min_size=len(u), max_size=len(u)).map(lambda vs: word(vs, u.modulus)))
    assert equivalent(u, other) == \
        (canonical_form(u).values == canonical_form(other).values)


def solutions_up_to(n, max_size):
    out = []
    for size in range(2, max_size + 1):
        census = enumerate_solutions(EnumerationQuery(Modulus(n), size))
        out.extend(census.words)
    return out


def test_sum_stability_against_enumerated_solutions():
    # with b a solution, a (+) b is a solution exactly when a is
    rng = random.Random(20260811)
    for n in range(2, 9):
        m = Modulus(n)
        solutions = solutions_up_to(n, 4)
        for b in solutions:
            for _ in range(40):
                length = rng.randint(2, 5)
                a = word([rng.randrange(n) for _ in range(length)], m)
                assert (is_solution(oplus(a, b)) is None) == \
                    (is_solution(a) is None)


def test_arrangement_stability():
    rng = random.Random(7)
    for n in range(2, 13):
        m = Modulus(n)
        for _ in range(60):
            length = rng.randint(1, 8)
            w = word([rng.randrange(n) for _ in range(length)], m)
            present = is_solution(w) is not None
            for t in arrangements_oracle(w.values):
                assert (is_solution(word(t, m)) is not None) == present


def test_size_two_catalog():
    assert [o.detail for o in map(check_catalog_size_2, range(2, 21))
            if not o.passed] == []


def test_size_three_catalog():
    # mod 2 the two constant words coincide
    assert [o.detail for o in map(check_catalog_size_3, range(2, 13))
            if not o.passed] == []


def test_size_four_catalog():
    # criterion 04 covers N = 2..10
    outcomes = [check_catalog_size_4(n, _census_set(n, 4))
                for n in range(11, 17)]
    assert [o.detail for o in outcomes if not o.passed] == []
