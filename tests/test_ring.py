from itertools import product

import pytest
from hypothesis import given, strategies as st

from cwlab.errors import ModulusMismatchError, UsageError
from cwlab.ring import (
    Mat2,
    Modulus,
    _closing_pair,
    _mul,
    _pm_sign,
    elementary,
    identity,
    is_pm_identity,
    mat_mul,
    mat_pow,
    minus_identity,
)
from cwlab.words import word, word_matrix


def test_modulus_validation():
    with pytest.raises(UsageError):
        Modulus(1)
    with pytest.raises(UsageError):
        Modulus(2**31)
    assert Modulus(12).factors == ((2, 2), (3, 1))


def test_elementary_examples():
    assert elementary(0, 7).rows() == [[0, 6], [1, 0]]
    assert elementary(2, 5).rows() == [[2, 4], [1, 0]]
    assert elementary(3, 10).rows() == [[3, 9], [1, 0]]


def test_mat_pow_examples():
    assert mat_pow(identity(9), 10) == identity(9)
    assert mat_pow(elementary(1, 5), 3) == minus_identity(5)
    e0 = elementary(0, 6)
    assert mat_mul(e0, e0) == minus_identity(6)


def test_mat_pow_rejects_negative_exponent():
    with pytest.raises(UsageError):
        mat_pow(identity(5), -1)


def test_is_pm_identity():
    assert is_pm_identity(identity(9)) == 1
    assert is_pm_identity(minus_identity(9)) == -1
    assert is_pm_identity(elementary(3, 10)) is None


def test_is_pm_identity_mod_two_reports_plus():
    # Id == -Id over N=2; the identity branch wins
    assert identity(2) == minus_identity(2)
    assert is_pm_identity(minus_identity(2)) == 1


def test_mat2_rejects_wrong_determinant():
    m = Modulus(7)
    with pytest.raises(UsageError):
        Mat2((1, 0, 0, 2), m)
    with pytest.raises(UsageError):
        Mat2((9, 0, 0, 1), m)  # entry out of range


def test_mat2_stores_four_entries_as_a_tuple():
    m = Modulus(7)
    with pytest.raises(UsageError):
        Mat2((1, 0, 0), m)
    with pytest.raises(UsageError):
        Mat2((1, 0, 0, 1, 0), m)
    mat = Mat2([3, 6, 1, 0], m)
    assert mat.entries == (3, 6, 1, 0)
    assert mat == elementary(3, 7)
    assert hash(mat) == hash(elementary(3, 7))


def test_mat_mul_rejects_mixed_moduli():
    with pytest.raises(ModulusMismatchError):
        mat_mul(identity(5), identity(7))


@given(st.data())
def test_word_matrix_has_determinant_one(data):
    n = data.draw(st.integers(min_value=2, max_value=50))
    length = data.draw(st.integers(min_value=1, max_value=20))
    values = data.draw(st.lists(st.integers(min_value=-100, max_value=100),
                                min_size=length, max_size=length))
    mat = word_matrix(word(values, n))
    m11, m12, m21, m22 = mat.entries
    det = (m11 * m22 - m12 * m21) % n
    assert det == 1 % n


@given(st.data())
def test_mat_pow_matches_repeated_multiplication(data):
    n = data.draw(st.integers(min_value=2, max_value=30))
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    e = data.draw(st.integers(min_value=0, max_value=12))
    acc = identity(n)
    base = elementary(k, n)
    for _ in range(e):
        acc = mat_mul(acc, base)
    assert mat_pow(base, e) == acc


def test_closing_pairs_match_the_literal_pair_scan():
    """Every matrix of SL2(Z/NZ), N <= 13, against all N**2 pairs."""
    matrices = 0
    for n in range(2, 14):
        one, minus_one = 1 % n, -1 % n
        for middle in product(range(n), repeat=4):
            if (middle[0] * middle[3] - middle[1] * middle[2]) % n != one:
                continue
            matrices += 1
            literal = []
            for a in range(n):
                x = _mul(middle, (a, minus_one, one, 0), n)
                literal.extend(
                    (a, b) for b in range(n)
                    if _pm_sign(_mul((b, minus_one, one, 0), x, n), n)
                    is not None)
            pair = _closing_pair(middle, n)
            assert ([] if pair is None else [pair]) == literal, (n, middle)
    assert matrices == 7086
