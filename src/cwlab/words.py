"""Words over Z/NZ: the matrix product, the boundary sum, equivalence up to
rotation and reversal, canonical forms, and the solution predicate.

A word (a_1, ..., a_n) maps to the matrix E(a_n) E(a_{n-1}) ... E(a_1) with
E(k) = [[k, -1], [1, 0]]: the first component is the rightmost factor.  A word
is a solution when that product is plus or minus the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ModulusMismatchError, UsageError
from .ring import Mat2, Modulus, Residue, as_modulus, _pm_sign


@dataclass(frozen=True)
class Word:
    """A nonempty tuple of residues sharing one modulus."""

    values: tuple[int, ...]
    modulus: Modulus

    def __post_init__(self):
        if len(self.values) < 1:
            raise UsageError("a word needs at least one component")
        n = self.modulus.n
        if min(self.values) < 0 or max(self.values) >= n:
            raise UsageError(f"word components must lie in [0, {n})")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __repr__(self) -> str:
        body = ",".join(str(v) for v in self.values)
        return f"Word({body} mod {self.modulus.n})"


def word(values, modulus: "Modulus | int") -> Word:
    """Build a Word from arbitrary integers (or Residues), reducing mod N."""
    m = as_modulus(modulus)
    reduced = []
    for v in values:
        if isinstance(v, Residue):
            if v.modulus != m:
                raise ModulusMismatchError(
                    f"component is mod {v.modulus.n}, word is mod {m.n}")
            reduced.append(v.value)
        else:
            reduced.append(v % m.n)
    return Word(tuple(reduced), m)


def parse_word(text: str, modulus: "Modulus | int") -> Word:
    """Parse the CLI encoding: comma-separated integers, negatives allowed."""
    m = as_modulus(modulus)
    parts = text.split(",")
    try:
        values = [int(p.strip()) for p in parts]
    except ValueError:
        raise UsageError(f"cannot parse word literal {text!r}: expected "
                         "comma-separated integers") from None
    if not values:
        raise UsageError("empty word literal")
    return word(values, m)


def _same_word_modulus(u: Word, v: Word) -> Modulus:
    if u.modulus != v.modulus:
        raise ModulusMismatchError(
            f"mixed moduli {u.modulus.n} and {v.modulus.n}")
    return u.modulus


def word_matrix(w: Word) -> Mat2:
    """E(a_n) ... E(a_1) for w = (a_1, ..., a_n).

    Components are folded left to right, each new letter multiplying on the
    left, which realizes the reversal convention above.
    """
    if len(w) < 1:
        raise UsageError("word_matrix needs a nonempty word")
    n = w.modulus.n
    a, b, c, d = 1 % n, 0, 0, 1 % n
    for k in w.values:
        # E(k) . [[a, b], [c, d]] = [[k a - c, k b - d], [a, b]]
        a, b, c, d = (k * a - c) % n, (k * b - d) % n, a, b
    return Mat2(a, b, c, d, w.modulus)


def is_solution(w: Word) -> int | None:
    """+1 or -1 when the word's matrix is plus/minus identity, else None."""
    n = w.modulus.n
    a, b, c, d = 1 % n, 0, 0, 1 % n
    for k in w.values:
        a, b, c, d = (k * a - c) % n, (k * b - d) % n, a, b
    return _pm_sign((a, b, c, d), n)


@dataclass(frozen=True)
class SolutionRecord:
    """A word together with its verified sign; construction re-checks it."""

    word: Word
    sign: int

    def __post_init__(self):
        actual = is_solution(self.word)
        if actual != self.sign:
            raise UsageError(
                f"{self.word!r} has sign {actual}, not {self.sign}")


def oplus(a: Word, b: Word) -> Word:
    """The boundary sum of two words.

    (a_1,...,a_n) (+) (b_1,...,b_m) =
        (a_1 + b_m, a_2, ..., a_{n-1}, a_n + b_1, b_2, ..., b_{m-1}),
    of length n + m - 2.  Both operands need length >= 2 because the formula
    consumes both boundary entries of each.
    """
    m = _same_word_modulus(a, b)
    if len(a) < 2 or len(b) < 2:
        raise UsageError("oplus needs both operands of length >= 2")
    n = m.n
    av, bv = a.values, b.values
    out = ((av[0] + bv[-1]) % n,) + av[1:-1] + \
          ((av[-1] + bv[0]) % n,) + bv[1:-1]
    return Word(out, m)


def rotations_and_reversals(w: Word) -> list[Word]:
    """All cyclic rotations of w, then all rotations of the reversed word.

    Always returns exactly 2n words; duplicates are retained so callers get a
    fixed, reproducible scan order.
    """
    n = len(w)
    vals = w.values
    rev = vals[::-1]
    out = []
    for seq in (vals, rev):
        for r in range(n):
            out.append(Word(seq[r:] + seq[:r], w.modulus))
    return out


def equivalent(u: Word, v: Word) -> bool:
    """True when v is a rotation of u or of u reversed."""
    _same_word_modulus(u, v)
    if len(u) != len(v):
        return False
    return any(v.values == t.values for t in rotations_and_reversals(u))


def _least_arrangement(values: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically smallest rotation of values or of their reversal."""
    return min(seq[r:] + seq[:r] for seq in (values, values[::-1])
               for r in range(len(values)))


def canonical_form(w: Word) -> Word:
    """Lexicographically smallest arrangement; a total dedup key for classes.

    Idempotent, and two words are equivalent exactly when their canonical
    forms are equal.
    """
    return Word(_least_arrangement(w.values), w.modulus)
