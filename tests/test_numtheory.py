import math

import pytest

from cwlab.errors import UsageError
from cwlab.numtheory import (
    binomial_valuation,
    euler_phi,
    factorize,
)


def exact_base_valuation(value: int, base: int) -> int:
    """Oracle: divide the exact integer out until it stops."""
    e = 0
    while value % base == 0:
        value //= base
        e += 1
    return e


def test_factorize_examples():
    assert factorize(30) == ((2, 1), (3, 1), (5, 1))
    assert factorize(16) == ((2, 4),)
    assert factorize(1) == ()
    assert factorize(97) == ((97, 1),)


def test_factorize_reconstructs():
    for v in range(1, 500):
        assert math.prod(p**e for p, e in factorize(v)) == v


def test_factorize_rejects_bad_input():
    with pytest.raises(UsageError):
        factorize(0)
    with pytest.raises(UsageError):
        factorize(-4)
    with pytest.raises(UsageError):
        factorize(2 ** 31)


def test_euler_phi_examples():
    assert euler_phi(9) == 6
    assert euler_phi(1) == 1
    # oracle: count the units by scan
    assert sum(1 for i in range(1, 30) if math.gcd(i, 30) == 1) == 8
    assert euler_phi(30) == 8


def test_euler_phi_matches_unit_count():
    for v in range(1, 200):
        units = sum(1 for i in range(1, v + 1) if math.gcd(i, v) == 1)
        assert euler_phi(v) == units


@pytest.mark.parametrize("top, j", [
    (6.5, 3), (6, 3.0), (6, True), (True, 0), (6.0, 2.0)])
def test_binomial_valuation_refuses_non_integers(top, j):
    with pytest.raises(UsageError):
        binomial_valuation(top, j, 2)


def test_binomial_valuation_examples():
    assert math.comb(8, 3) == 56  # 2**3 * 7
    assert binomial_valuation(8, 3, 2) == 3
    assert math.comb(4, 1) == 4
    assert binomial_valuation(4, 1, 2) == 2
    assert binomial_valuation(17, 0, 5) == 0
    assert binomial_valuation(17, 17, 5) == 0


def test_binomial_valuation_of_a_large_top():
    value = math.comb(2_000_000, 3)
    assert value % 2 ** 7 == 0 and value % 2 ** 8 != 0
    assert binomial_valuation(2_000_000, 3, 2) == 7


def test_binomial_valuation_range_errors():
    with pytest.raises(UsageError):
        binomial_valuation(3, 4, 2)
    with pytest.raises(UsageError):
        binomial_valuation(3, -1, 2)
    with pytest.raises(UsageError):
        binomial_valuation(3, 1, 1)
    with pytest.raises(UsageError, match="binomial_valuation .* base"):
        binomial_valuation(3, 1, 2 ** 31)
    with pytest.raises(UsageError, match="binomial_valuation .* base"):
        binomial_valuation(3, 1, 2.0)


@pytest.mark.parametrize("value", [0, -4, 2 ** 31, 2.0, True])
def test_euler_phi_refuses_values_outside_its_domain(value):
    with pytest.raises(UsageError, match="euler_phi expects an integer value"):
        euler_phi(value)


def test_binomial_valuation_against_exact_oracle():
    for top in range(61):
        for j in range(top + 1):
            value = math.comb(top, j)
            for base in (2, 3, 4, 5, 6, 10, 12):
                assert binomial_valuation(top, j, base) == \
                    exact_base_valuation(value, base), (top, j, base)
