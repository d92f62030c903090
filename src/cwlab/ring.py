"""2x2 determinant-one matrices over Z/NZ, and the raw kernels on them.

Residues are plain ints reduced mod N to their least nonnegative
representatives.  All values are immutable and every operation is pure, so
everything in this module is safe to share between threads.  The private
kernels work on (m11, m12, m21, m22) tuples: `_mul` multiplies two of them,
`_pow` raises one to a power, `_fold` multiplies out the letters of a word,
and `_closing_pair` finds the boundary letters that close a product into
+/-Id.  `_continuants` gives the first column of a power of one letter
E(k), which determines that power, at about 3 products per bit of the
exponent.
"""

from __future__ import annotations

from ._record import Record
from .errors import ModulusMismatchError, UsageError
from .numtheory import MAX_MODULUS, factorize


class Modulus(Record):
    """The ring context Z/NZ for N >= 2, together with the factorization of N."""

    __slots__ = ("n", "factors")

    def __init__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise UsageError(f"modulus must be an integer >= 2, got {n!r}")
        if n > MAX_MODULUS:
            raise UsageError(f"modulus must be <= {MAX_MODULUS}, got {n}")
        set_n, set_factors = self._setters
        set_n(self, n)
        set_factors(self, factorize(n))

    def __reduce__(self):
        # the constructor takes N alone and recomputes the factors
        return Modulus, (self.n,)

    def __repr__(self) -> str:
        return f"Modulus({self.n})"


def as_modulus(m: "Modulus | int") -> Modulus:
    """Accept either a Modulus or a raw integer N."""
    return m if isinstance(m, Modulus) else Modulus(m)


def _residue(k, n: int) -> int:
    """k reduced mod n; anything but an int (a bool too) is a usage error."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise UsageError(f"residue must be an integer, got {k!r}")
    return k % n


def _same_modulus(a: Modulus, b: Modulus) -> Modulus:
    if a.n != b.n:
        raise ModulusMismatchError(f"mixed moduli {a.n} and {b.n}")
    return a


class Mat2(Record):
    """A 2x2 matrix over Z/NZ with determinant 1.

    `entries` is the kernels' (m11, m12, m21, m22) tuple of least
    nonnegative residues sharing one modulus; construction rejects anything
    with determinant != 1, so products of matrices built by this module can
    never silently leave SL2(Z/NZ).
    """

    __slots__ = ("entries", "modulus")

    def __init__(self, entries, modulus: Modulus):
        entries = tuple(entries)
        if len(entries) != 4:
            raise UsageError(f"a 2x2 matrix has 4 entries, got {len(entries)}")
        n = modulus.n
        for entry in entries:
            if not 0 <= entry < n:
                raise UsageError(f"matrix entry {entry} outside [0, {n})")
        det = (entries[0] * entries[3] - entries[1] * entries[2]) % n
        if det != 1 % n:
            raise UsageError(f"matrix determinant is {det}, not 1 (mod {n})")
        set_entries, set_modulus = self._setters
        set_entries(self, entries)
        set_modulus(self, modulus)

    def rows(self) -> list[list[int]]:
        return [list(self.entries[:2]), list(self.entries[2:])]

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return mat_mul(self, other)

    def __repr__(self) -> str:
        return f"Mat2({self.rows()} mod {self.modulus.n})"


def identity(modulus: "Modulus | int") -> Mat2:
    m = as_modulus(modulus)
    return Mat2((1 % m.n, 0, 0, 1 % m.n), m)


def minus_identity(modulus: "Modulus | int") -> Mat2:
    m = as_modulus(modulus)
    return Mat2((-1 % m.n, 0, 0, -1 % m.n), m)


def elementary(k: int, modulus: "Modulus | int") -> Mat2:
    """The matrix [[k, -1], [1, 0]], k reduced mod N; the single letter of
    every word product."""
    m = as_modulus(modulus)
    return Mat2((_residue(k, m.n), -1 % m.n, 1 % m.n, 0), m)


def _mul(a: tuple[int, int, int, int], b: tuple[int, int, int, int],
         n: int) -> tuple[int, int, int, int]:
    """Raw 2x2 product mod n on plain tuples, behind `_pow` and `mat_mul`."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return ((a11 * b11 + a12 * b21) % n,
            (a11 * b12 + a12 * b22) % n,
            (a21 * b11 + a22 * b21) % n,
            (a21 * b12 + a22 * b22) % n)


def _fold(values, n: int) -> tuple[int, int, int, int]:
    """E(a_n) ... E(a_1) mod n for values (a_1, ..., a_n), as a raw tuple.

    Each letter multiplies on the left:
    E(k) [[a, b], [c, d]] = [[k a - c, k b - d], [a, b]].
    """
    a, b, c, d = 1 % n, 0, 0, 1 % n
    for k in values:
        a, b, c, d = (k * a - c) % n, (k * b - d) % n, a, b
    return a, b, c, d


def _closing_pair(middle: tuple[int, int, int, int], n: int
                  ) -> tuple[int, int] | None:
    """The one (a, b) with E(b) middle E(a) = +/-Id, or None if none exists.

    With X = middle E(a), the product E(b) X =
    [[b X11 - X21, b X12 - X22], [X11, X12]] has X's top row as its bottom
    row, so it equals s Id only when X11 = 0 and X12 = s, and then b s = X22;
    X21 = -s follows from det X = det middle = 1.  Since
    X = [[middle11 a + middle12, -middle11], [middle21 a + middle22,
    -middle21]], that needs middle11 = -s = +/-1, which is its own inverse,
    so a = -middle11 middle12 and b = s X22 = middle11 middle21.
    """
    m11 = middle[0]
    if m11 != 1 % n and m11 != -1 % n:
        return None
    return -m11 * middle[1] % n, m11 * middle[2] % n


def _pm_sign(m: tuple[int, int, int, int], n: int) -> int | None:
    """Sign for +/-identity tuples, None otherwise (raw variant)."""
    if m[1] != 0 or m[2] != 0:
        return None
    one = 1 % n
    if m[0] == one and m[3] == one:
        return 1
    minus_one = -1 % n
    if m[0] == minus_one and m[3] == minus_one:
        return -1
    return None


def _continuants(k: int, e: int, n: int) -> tuple[int, int]:
    """(c_e, c_{e-1}) mod n for e >= 0, where
    E(k)**e = [[c_e, -c_{e-1}], [c_{e-1}, -c_{e-2}]]
    (c_{-1} = 0, c_0 = 1, c_{j+1} = k c_j - c_{j-1}).

    Doubles on U_i = c_{i-1}.  The (2,1) entry of E**(i+j) = E**i E**j is
    U_{i+j} = U_i U_{j+1} - U_{i-1} U_j; with U_{i-1} = k U_i - U_{i+1}
    this gives U_2i = U_i (2 U_{i+1} - k U_i), U_2i+1 = U_{i+1}**2 - U_i**2
    and U_2i+2 = U_{i+1} (k U_{i+1} - 2 U_i).  So the pair (U_i, U_{i+1})
    goes to (U_2i, U_2i+1) or (U_2i+1, U_2i+2) in about 3 products, one
    bit of e at a time, against 8 for one `_mul` squaring.
    """
    u, v = 0, 1  # U_i, U_{i+1} at i = 0
    for bit in bin(e)[2:]:
        if bit == "1":
            u, v = (v - u) * (v + u) % n, v * (k * v - 2 * u) % n
        else:
            u, v = u * (2 * v - k * u) % n, (v - u) * (v + u) % n
    return v, u


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    m = _same_modulus(a.modulus, b.modulus)
    return Mat2(_mul(a.entries, b.entries, m.n), m)


def _pow(a: tuple[int, int, int, int], e: int, n: int
         ) -> tuple[int, int, int, int]:
    """a**e mod n for e >= 0 by square-and-multiply, as a raw tuple."""
    result = (1 % n, 0, 0, 1 % n)
    while e:
        if e & 1:
            result = _mul(result, a, n)
        e >>= 1
        if e:
            a = _mul(a, a, n)
    return result


def mat_pow(a: Mat2, e: int) -> Mat2:
    """a**e for e >= 0 by square-and-multiply; mat_pow(a, 0) is the identity."""
    if not isinstance(e, int) or isinstance(e, bool) or e < 0:
        raise UsageError(f"exponent must be an integer >= 0, got {e!r}")
    return Mat2(_pow(a.entries, e, a.modulus.n), a.modulus)


def is_pm_identity(m: Mat2) -> int | None:
    """+1 for the identity, -1 for its negative, None otherwise.

    Over N = 2 the two coincide; the identity is checked first, so the
    reported sign is +1 there.
    """
    return _pm_sign(m.entries, m.modulus.n)
