"""Words over Z/NZ: the matrix product, the boundary sum, equivalence up to
rotation and reversal, canonical forms, and the solution predicate.

A word (a_1, ..., a_n) maps to the matrix E(a_n) E(a_{n-1}) ... E(a_1) with
E(k) = [[k, -1], [1, 0]]: the first component is the rightmost factor.  A word
is a solution when that product is plus or minus the identity.  The product
is `ring._fold`, the boundary sum is `_oplus`, and every arrangement of a
word (equivalence, canonical forms, the census orbits) comes from
`_arrangements`.  The private kernels work on plain value tuples.
"""

from __future__ import annotations

from ._record import Record
from .errors import UsageError
from .ring import (Mat2, Modulus, as_modulus, _fold, _pm_sign, _residue,
                   _same_modulus)


class Word(Record):
    """A nonempty tuple of residues sharing one modulus."""

    __slots__ = ("values", "modulus")

    def __init__(self, values: tuple[int, ...], modulus: Modulus):
        values = tuple(values)
        if len(values) < 1:
            raise UsageError("a word needs at least one component")
        n = modulus.n
        if min(values) < 0 or max(values) >= n:
            raise UsageError(f"word components must lie in [0, {n})")
        set_values, set_modulus = self._setters
        set_values(self, values)
        set_modulus(self, modulus)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        body = ",".join(str(v) for v in self.values)
        return f"Word({body} mod {self.modulus.n})"


def word(values, modulus: "Modulus | int") -> Word:
    """Build a Word from arbitrary integers, reducing mod N."""
    m = as_modulus(modulus)
    return Word(tuple(_residue(v, m.n) for v in values), m)


def parse_word(text: str, modulus: "Modulus | int") -> Word:
    """Parse the CLI encoding: comma-separated integers, negatives allowed."""
    m = as_modulus(modulus)
    parts = text.split(",")
    try:
        values = [int(p.strip()) for p in parts]
    except ValueError:
        raise UsageError(f"cannot parse word literal {text!r}: expected "
                         "comma-separated integers") from None
    return word(values, m)


def word_matrix(w: Word) -> Mat2:
    """E(a_n) ... E(a_1) for w = (a_1, ..., a_n)."""
    return Mat2(_fold(w.values, w.modulus.n), w.modulus)


def is_solution(w: Word) -> int | None:
    """+1 or -1 when the word's matrix is plus/minus identity, else None."""
    return _pm_sign(_fold(w.values, w.modulus.n), w.modulus.n)


def oplus(a: Word, b: Word) -> Word:
    """The boundary sum of two words.

    (a_1,...,a_n) (+) (b_1,...,b_m) =
        (a_1 + b_m, a_2, ..., a_{n-1}, a_n + b_1, b_2, ..., b_{m-1}),
    of length n + m - 2.  Both operands need length >= 2 because the formula
    consumes both boundary entries of each.
    """
    m = _same_modulus(a.modulus, b.modulus)
    if len(a) < 2 or len(b) < 2:
        raise UsageError("oplus needs both operands of length >= 2")
    return Word(_oplus(a.values, b.values, m.n), m)


def _oplus(av: tuple[int, ...], bv: tuple[int, ...],
           n: int) -> tuple[int, ...]:
    """The boundary sum on value tuples of length >= 2 over Z/nZ."""
    return (((av[0] + bv[-1]) % n,) + av[1:-1] +
            ((av[-1] + bv[0]) % n,) + bv[1:-1])


def _arrangements(values: tuple[int, ...]):
    """The rotations of values, then the rotations of their reversal.

    Always 2n tuples, duplicates retained, in a fixed scan order.
    """
    return (seq[r:] + seq[:r] for seq in (values, values[::-1])
            for r in range(len(values)))


def equivalent(u: Word, v: Word) -> bool:
    """True when v is a rotation of u or of u reversed."""
    _same_modulus(u.modulus, v.modulus)
    return len(u) == len(v) and v.values in _arrangements(u.values)


def canonical_form(w: Word) -> Word:
    """Lexicographically smallest arrangement; a total dedup key for classes.

    Idempotent, and two words are equivalent exactly when their canonical
    forms are equal.
    """
    return Word(min(_arrangements(w.values)), w.modulus)
