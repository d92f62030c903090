"""Exact arithmetic support: factorization, Euler phi, valuations of binomials.

Everything here works on plain Python integers and is exact; no value ever
passes through floating point.
"""

from __future__ import annotations

from .errors import UsageError

#: Largest modulus, and largest value factored by trial division: a product
#: of two values plus a slack bit fits in 64-bit intermediates.  Desk-scale
#: N is tiny anyway.
MAX_MODULUS = 2**31 - 1


def factorize(v: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorization of v >= 1 as ((p, e), ...), primes
    ascending, e >= 1, with v == prod(p**e).  v == 1 gives ()."""
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise UsageError(f"factorize expects an integer >= 1, got {v!r}")
    if v > MAX_MODULUS:
        raise UsageError(f"factorize expects v <= {MAX_MODULUS}, got {v}")
    twos = (v & -v).bit_length() - 1
    n = v >> twos
    factors = [(2, twos)] if twos else []
    p = 3
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def euler_phi(value: int) -> int:
    """Euler's totient of 1 <= value <= MAX_MODULUS, via the product formula
    over the factorization."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or not 1 <= value <= MAX_MODULUS):
        raise UsageError(f"euler_phi expects an integer value in "
                         f"[1, {MAX_MODULUS}], got {value!r}")
    result = value
    for p, _ in factorize(value):
        result = result // p * (p - 1)
    return result


def _carry_count(i: int, j: int, p: int) -> int:
    """Number of carries when adding i and j in base p (both >= 0)."""
    carries = 0
    carry = 0
    while i or j or carry:
        s = i % p + j % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        i //= p
        j //= p
    return carries


def binomial_valuation(top: int, j: int, base: int) -> int:
    """Largest e >= 0 with base**e dividing C(top, j), for
    2 <= base <= MAX_MODULUS.

    The p-adic valuation of C(top, j) is the number of carries when adding
    j and top - j in base p; for a composite base prod(p_i**e_i) the answer
    is min_i floor(v_{p_i} / e_i), the unique e with base**e dividing the
    coefficient but base**(e+1) not.  C(top, j) itself is never materialized.
    """
    for name, v in (("top", top), ("j", j), ("base", base)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise UsageError(f"binomial_valuation expects an integer {name}, "
                             f"got {v!r}")
    if not (0 <= j <= top):
        raise UsageError(f"binomial_valuation expects 0 <= j <= top, "
                         f"got top={top}, j={j}")
    if base < 2:
        raise UsageError(f"binomial_valuation expects base >= 2, got {base}")
    if base > MAX_MODULUS:
        raise UsageError(f"binomial_valuation expects base <= {MAX_MODULUS}, "
                         f"got {base}")
    return _binomial_valuation(top, j, factorize(base))


def _binomial_valuation(top: int, j: int, factors) -> int:
    """`binomial_valuation` of a checked (top, j), the base as its factors."""
    result = None
    for p, e in factors:
        v = _carry_count(j, top - j, p) // e
        if result is None or v < result:
            result = v
    return result
