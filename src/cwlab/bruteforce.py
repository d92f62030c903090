"""Brute-force ground truth: exhaustive enumeration of solutions at small
N and n, and an unstructured reducibility oracle that searches every
distinct arrangement, split and boundary pair instead of trusting any
structure.

The one census scan, `_solutions`, walks the N**(n-2) prefixes of the first
n-2 letters depth-first, carrying the running matrix product so each
extension costs one multiplication.  The last two letters are not scanned:
the prefix's matrix either rules out every tail or forces the only one, so
every solution is still found, in lexicographic order, and each costs one
test.  Deduplication keeps the first member of each class met, which is its
least arrangement by closure under arrangement (see enumerate_solutions),
at classes * 2n arrangements plus one set lookup per solution.  The oracle
folds each split's interior with `ring._fold` and derives its one boundary
pair with `ring._closing_pair`, the closed form that `verify` uses, so a
split costs O(n) products whatever N is.  Both the scan order and the
oracle's search order are fixed, which makes output and witnesses
reproducible byte for byte.
"""

from __future__ import annotations

from ._record import Record
from .errors import BudgetExceededError, InternalCheckError, UsageError
from .ring import Modulus, _closing_pair, _fold, as_modulus
from .words import Word, _arrangements, is_solution

#: Default enumeration budget, in matrix multiplications.  The CLI lets the
#: environment override it (CWL_BUDGET).
DEFAULT_BUDGET = 10**8


class EnumerationQuery(Record):
    """A request to enumerate all solutions of a given size: dedup keeps one
    least arrangement per class (the canonical form), count_only only the
    total.  The scan needs about N**(size-2) multiplications, checked
    against the budget before it starts."""

    __slots__ = ("modulus", "size", "dedup", "count_only", "budget")

    def __init__(self, modulus: "Modulus | int", size: int,
                 dedup: bool = False, count_only: bool = False,
                 budget: int = DEFAULT_BUDGET):
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise UsageError(f"size must be an integer >= 1, got {size!r}")
        if (not isinstance(budget, int) or isinstance(budget, bool)
                or budget < 1):
            raise UsageError(f"budget must be an integer >= 1, got {budget!r}")
        object.__setattr__(self, "modulus", as_modulus(modulus))
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "dedup", dedup)
        object.__setattr__(self, "count_only", count_only)
        object.__setattr__(self, "budget", budget)


class Census(Record):
    """Result of an enumeration: the raw solution count and, unless
    count_only was set, the solutions as value tuples (canonical
    representatives, pairwise inequivalent, when dedup was set; otherwise
    every solution in scan order).  `words` builds their `Word`s on demand."""

    __slots__ = ("modulus", "size", "total", "dedup", "values")

    def __init__(self, modulus: Modulus, size: int, total: int, dedup: bool,
                 values: tuple[tuple[int, ...], ...] = ()):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "dedup", dedup)
        object.__setattr__(self, "values", values)

    @property
    def words(self) -> tuple[Word, ...]:
        return tuple(Word(v, self.modulus) for v in self.values)


def _check_budget(n: int, exponent: int, budget: int) -> None:
    """Refuse when n**exponent exceeds the budget: with n >= 2 it does once
    exponent >= budget.bit_length(), so only smaller powers are built."""
    if exponent >= budget.bit_length() or n ** exponent > budget:
        raise BudgetExceededError(n, exponent, budget)


def _solutions(n: int, size: int):
    """Every solution of a size >= 2 over Z/nZ as a value tuple, from the
    N**(size-2) prefixes and each one's solved last two letters.

    With P = E(a_{n-2}) ... E(a_1), the word is a solution exactly when
    E(y) E(x) P = +/-Id, i.e. E(x) P E(y) = +/-Id, so (y, x) is
    `ring._closing_pair(P)`: the tail exists exactly when P_11 = +/-1, and
    then (x, y) = (P_11 P_21, -P_11 P_12), spelled inline in the hot loop.
    Each prefix therefore has at most one solution, so the words come out
    in lexicographic order.
    """
    prefix_len = size - 2
    one = 1 % n
    minus_one = -1 % n
    prefix = [(one, 0, 0, one)] * (prefix_len + 1)
    digits = [0] * prefix_len
    pos = 0
    while True:
        while pos < prefix_len:
            k = digits[pos]
            a, b, c, d = prefix[pos]
            # E(k) . [[a, b], [c, d]]
            prefix[pos + 1] = ((k * a - c) % n, (k * b - d) % n, a, b)
            pos += 1
        a, b, c, _ = prefix[prefix_len]
        if a == one or a == minus_one:
            # a = -s, so (x, y) = (a c, -a b)
            yield tuple(digits) + (a * c % n, -a * b % n)
        pos = prefix_len - 1
        while pos >= 0 and digits[pos] == n - 1:
            digits[pos] = 0
            pos -= 1
        if pos < 0:
            return
        digits[pos] += 1


def enumerate_solutions(query: EnumerationQuery) -> Census:
    """Every solution of the query's size, from one scan of `_solutions`,
    kept as the value tuples the scan yields (no `Word` is built).

    Under dedup, the first member v of a class met by the scan is kept and
    its other arrangements (the rotations of v and of its reversal) wait in
    a pending set, so a later member costs one lookup and is removed.  The
    kept v is the least arrangement: solutions are closed under rotation,
    which conjugates the product by E(a_1), and under reversal, which sends
    M to (J M J)^T with J = diag(1, -1); so every arrangement of v is a
    solution, and the lexicographic scan meets the least one first.
    """
    m = query.modulus
    size = query.size
    if size == 1:
        # E(a) has nonzero off-diagonal entries
        return Census(m, size, 0, query.dedup)
    _check_budget(m.n, size - 2, query.budget)
    solutions = _solutions(m.n, size)
    if query.count_only:
        return Census(m, size, sum(1 for _ in solutions), query.dedup)
    total = 0
    found: list[tuple[int, ...]] = []
    pending: set[tuple[int, ...]] = set()
    for v in solutions:
        total += 1
        if not query.dedup:
            found.append(v)
        elif v in pending:
            pending.remove(v)
        else:
            found.append(v)
            pending.update(_arrangements(v))
            pending.discard(v)
    return Census(m, size, total, query.dedup, tuple(found))


def is_reducible_oracle(w: Word):
    """Literal reducibility search for any solution word of length >= 3.

    For every arrangement t of w (rotations, then rotations of the
    reversal) and every split with right-summand length l in [3, n-1] (left
    length n + 2 - l is then automatically >= 3), the split fixes the
    summand interiors from t, and the first split whose right summand can
    be closed into a solution is the witness.  At most one boundary pair
    (b_1, b_l) closes it, and `ring._closing_pair` derives that pair from
    the interior's product, so a split costs one fold of its interior
    instead of a scan of all N**2 pairs.  Both summands are then solutions
    (the sum equals t, which is a solution), and both are double-checked
    rather than assumed.

    An arrangement whose values equal an earlier one's is skipped: its
    candidates were all tried already, so the verdict and the first witness
    are unchanged, and a constant word costs one arrangement instead of 2n.

    Returns (True, (left, right, arrangement)) for the first witness in
    scan order, or (False, None) after an exhaustive search.
    """
    if is_solution(w) is None:
        raise UsageError(f"oracle expects a solution word, got {w!r}")
    n = len(w)
    if n < 3:
        raise UsageError(f"oracle expects length >= 3, got {n}")
    big = w.modulus.n
    searched = set()
    for tv in _arrangements(w.values):
        if tv in searched:
            continue
        searched.add(tv)
        for right_len in range(3, n):
            left_len = n + 2 - right_len
            interior = tv[left_len:]
            pair = _closing_pair(_fold(interior, big), big)
            if pair is None:
                continue
            b_first, b_last = pair
            left = Word(((tv[0] - b_last) % big,) + tv[1:left_len - 1]
                        + ((tv[left_len - 1] - b_first) % big,), w.modulus)
            right = Word((b_first,) + interior + (b_last,), w.modulus)
            for summand in (left, right):
                if is_solution(summand) is None:
                    raise InternalCheckError(
                        f"summand {summand!r} of a found split is not "
                        f"a solution")
            return True, (left, right, Word(tv, w.modulus))
    return False, None
