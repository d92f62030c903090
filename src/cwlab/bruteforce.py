"""Brute-force ground truth: exhaustive enumeration of solutions at small
N and n, and an unstructured reducibility oracle that searches every
distinct arrangement, split and boundary pair instead of trusting any
structure.

The census scan, `_solutions`, walks the N**(n-2) prefixes of the first
n-2 letters depth-first, carrying the running matrix product so each
extension costs one multiplication.  The last two letters are not scanned:
the prefix's matrix either rules out every tail or forces the only one, so
every solution is still found, in lexicographic order, and each costs one
test.  The last prefix letter is not multiplied in either: that test
reads only the top-left entry of E(k) P, P the product of the letters
before it, which is k P_11 - P_21 and so steps by P_11 as k runs over
0..N-1; one addition per letter replaces the product, and the rest of the
matrix is formed only for the tails it admits.  It assumes nothing about
the solutions, so it serves verify's census checks and the short plain and
count-only censuses, and it is the tests' oracle for the join and for the
dedup scan.

Long plain and count-only censuses take a meet in the middle instead (the
join, `_joined_solutions` and `_joined_count`; Horowitz and Sahni,
"Computing partitions with applications to the knapsack problem", J. ACM
21, 1974).  A word w = u + v, u its first m = ceil(n/2) letters and v the
rest, has M(w) = M(v) M(u), so M(w) = s Id exactly when M(u) = s M(v)^-1:
w is a solution exactly when M(u) and M(v)^-1 lie in one +/-Id class,
keyed by the smaller of a matrix's entry tuple and its negation's.  The
join files every v, in lexicographic order, under the class of M(v)^-1,
then streams the u in lexicographic order and lists u + v for each v
filed under the class of M(u), so it lists exactly the solutions, each
once.  They come out in the scan's lexicographic order: all u have length
m, so u + v orders first by u, the outer loop, and then by v, which each
class list keeps in generation order.  The count needs no word: it is the
sum over classes of #u * #v.

The join forms N**m + N**(n-m) products, and at most as many again for
the halves' shorter prefixes, against the scan's N**(n-2) stepped
letters.  It holds N**m class keys (N**(n-m) filed words), so no
list or dict passes N**ceil(n/2) entries besides the solutions themselves.
A product costs several stepped letters, so `enumerate_solutions` takes
the join only when N**(n-2) >= 4 (N**m + N**(n-m)), measured as about the
point where it starts to win: at N = 2 from n = 10, at N = 3 and 4 from
n = 8, at N >= 5 from n = 7, at n = 6 from N = 8, and never at n <= 5.
Shorter words keep the scan, which is 100x faster or more at n = 3 and 4:
(N, n) = (46, 3) takes about 0.004 ms by the scan and 0.5-1.3 ms by the
join.

Deduplication has its own scan, `_least_solutions`.  It keeps the same
product stack and forced tail but walks only the prefixes that can begin
a class's least arrangement, in the way of Fredricksen, Kessler and
Maiorana (FKM; Cattell, Ruskey, Sawada, Serra and Miers, "Fast algorithms
to generate necklaces, unlabeled necklaces, and irreducible polynomials
over GF(2)", J. Algorithms 37, 2000; Sawada, "Generating bracelets in
constant amortized time", SIAM J. Comput. 31, 2001).  A necklace is a word
that is least among its rotations, a prenecklace a prefix of a necklace,
and lyn(a) the length of the longest prefix of a that is a Lyndon word.
Its correctness rests on four steps.

1. The representative (least arrangement) v of a class is <= each of its
   rotations, so it is a necklace, and every prefix of v, its
   (n-2)-prefix among them, is a prenecklace.
2. FKM meets every prenecklace of a given length, in lexicographic order:
   if a_1..a_{t-1} is a prenecklace with p = lyn, then a_1..a_t is one
   exactly when a_t >= a_{t-p}, and its lyn is p when a_t = a_{t-p} and t
   otherwise (the fundamental theorem of necklaces, Cattell et al.).  So
   starting letter t at a_{t-p} instead of 0 skips exactly the prefixes
   that are not prenecklaces, and keeping p per depth costs O(1) per
   letter.
3. The forced tail (x, y) extends the prefix under the same rule, so at
   the leaf the scan knows whether the whole word is a prenecklace and
   its p = lyn; a prenecklace of length n is a necklace exactly when
   p divides n (ibid.).  A necklace v is then its class's representative
   exactly when v <= the least rotation r of its reversal.
4. A necklace with p | n is (a_1..a_p)**(n/p) with a_1..a_p a Lyndon word,
   which is primitive, so v has exactly p distinct rotations, and so has
   its reversal.  The class is both rotation orbits: one orbit of p words
   when v = r, two disjoint ones (2p words) when v < r, because v < r is
   the least of the class and not a rotation of the reversal.

The bracelet test of steps 3 and 4 needs no least rotation r: it walks
the rotations of the reversal in turn and stops at the first one that
decides.  A rotation below v means v > r, and v is dropped.  A rotation
equal to v puts v in the reversal's orbit, so the two orbits are one; every
rotation of the reversal is then a rotation of v, none is below the
necklace v, so r = v and the class has p words.  A pass that no rotation
stops has every rotation above v, so v < r and the class has 2p words.

Every arrangement of a solution is a solution (see enumerate_solutions),
so the class sizes of the representatives sum to the raw total, and each
representative is found once, in lexicographic order, as the plain scan
would meet it first.

The oracle folds each split's interior with `ring._fold` and derives its
one boundary pair with `ring._closing_pair`, the closed form that `verify`
uses, so a split costs O(n) products whatever N is.  The census orders and
the oracle's search order are fixed, which makes output and witnesses
reproducible byte for byte.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from ._record import Record
from .errors import BudgetExceededError, InternalCheckError, UsageError
from .ring import Modulus, _closing_pair, _fold, as_modulus
from .words import Word, _arrangements, is_solution

#: Default enumeration budget, in prefix letters: a census of size n scans
#: N**(n-2) of them.  The CLI lets the environment override it (CWL_BUDGET),
#: and also caps the letters of a monomial JSON certificate by it.
DEFAULT_BUDGET = 10**8


class EnumerationQuery(Record):
    """A request to enumerate all solutions of a given size: dedup keeps one
    least arrangement per class (the canonical form), count_only only the
    total.  The scan steps through N**(size-2) prefix letters, a count
    checked against the budget before the scan or the join starts."""

    __slots__ = ("modulus", "size", "dedup", "count_only", "budget")

    def __init__(self, modulus: "Modulus | int", size: int,
                 dedup: bool = False, count_only: bool = False,
                 budget: int = DEFAULT_BUDGET):
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise UsageError(f"size must be an integer >= 1, got {size!r}")
        if (not isinstance(budget, int) or isinstance(budget, bool)
                or budget < 1):
            raise UsageError(f"budget must be an integer >= 1, got {budget!r}")
        for name, flag in (("dedup", dedup), ("count_only", count_only)):
            if not isinstance(flag, bool):
                raise UsageError(f"{name} must be True or False, got {flag!r}")
        set_modulus, set_size, set_dedup, set_count_only, set_budget = (
            self._setters)
        set_modulus(self, as_modulus(modulus))
        set_size(self, size)
        set_dedup(self, dedup)
        set_count_only(self, count_only)
        set_budget(self, budget)


class Census(Record):
    """Result of an enumeration: the raw solution count and, unless
    count_only was set, the solutions as value tuples (canonical
    representatives, pairwise inequivalent, when dedup was set; otherwise
    every solution in lexicographic order, which the scan and the join
    share).  `words` builds their `Word`s on demand."""

    __slots__ = ("modulus", "size", "total", "dedup", "values")

    def __init__(self, modulus: Modulus, size: int, total: int, dedup: bool,
                 values: tuple[tuple[int, ...], ...] = ()):
        set_modulus, set_size, set_total, set_dedup, set_values = (
            self._setters)
        set_modulus(self, modulus)
        set_size(self, size)
        set_total(self, total)
        set_dedup(self, dedup)
        set_values(self, values)

    @property
    def words(self) -> tuple[Word, ...]:
        return tuple(Word(v, self.modulus) for v in self.values)


def _check_budget(n: int, exponent: int, budget: int) -> None:
    """Refuse when n**exponent exceeds the budget: with n >= 2 it does once
    exponent >= budget.bit_length(), so only smaller powers are built."""
    if exponent >= budget.bit_length() or n ** exponent > budget:
        raise BudgetExceededError("enumeration",
                                  f"{n}**{exponent} prefix letters", budget)


def _solutions(n: int, size: int):
    """Every solution of a size >= 2 over Z/nZ as a value tuple, from the
    N**(size-2) prefixes and each one's solved last two letters.

    With Q = E(a_{n-2}) ... E(a_1), the word is a solution exactly when
    E(y) E(x) Q = +/-Id, i.e. E(x) Q E(y) = +/-Id, so (y, x) is
    `ring._closing_pair(Q)`: the tail exists exactly when Q_11 = +/-1, and
    then (x, y) = (Q_11 Q_21, -Q_11 Q_12), spelled inline in the hot loop.
    Each prefix therefore has at most one solution, so the words come out
    in lexicographic order.

    The product stack stops at letter n-3, P = E(a_{n-3}) ... E(a_1).  The
    last prefix letter k gives Q = E(k) P, whose first row is
    (k P_11 - P_21, k P_12 - P_22) and second row (P_11, P_12), so Q_11
    steps through k = 0..N-1 by P_11 and the rest of Q is formed only
    where Q_11 = +/-1.
    """
    if size == 2:
        # E(y) E(x) = [[x y - 1, -y], [x, -1]]
        yield (0, 0)
        return
    depth = size - 3
    one = 1 % n
    minus_one = -1 % n
    prefix = [(one, 0, 0, one)] * (depth + 1)
    digits = [0] * depth
    pos = 0
    while True:
        while pos < depth:
            k = digits[pos]
            a, b, c, d = prefix[pos]
            # E(k) . [[a, b], [c, d]]
            prefix[pos + 1] = ((k * a - c) % n, (k * b - d) % n, a, b)
            pos += 1
        a, b, c, d = prefix[depth]
        head = tuple(digits)
        top = -c % n
        for k in range(n):
            if top == one or top == minus_one:
                # top = -s, so (x, y) = (top a, -top (k b - d))
                yield head + (k, top * a % n, -top * (k * b - d) % n)
            top = (top + a) % n
        pos = depth - 1
        while pos >= 0 and digits[pos] == n - 1:
            digits[pos] = 0
            pos -= 1
        if pos < 0:
            return
        digits[pos] += 1


def _half_classes(n: int, length: int, inverse: bool) -> list:
    """The +/-Id class key of M(w), or of M(w)^-1 when inverse, for every
    word w of the given length over Z/nZ, in lexicographic order of w."""
    level = [(1 % n, 0, 0, 1 % n)]
    for _ in range(length):
        # E(k) . [[a, b], [c, d]], the last letter k varying fastest
        level = [((k * a - c) % n, (k * b - d) % n, a, b)
                 for a, b, c, d in level for k in range(n)]
    if inverse:
        # [[a, b], [c, d]]^-1 = [[d, -b], [-c, a]] at determinant 1
        level = [(d, -b % n, -c % n, a) for a, b, c, d in level]
    # the class key: the smaller of the matrix and its negation
    return list(map(min, level, ((-a % n, -b % n, -c % n, -d % n)
                                 for a, b, c, d in level)))


def _joined_solutions(n: int, size: int) -> list[tuple[int, ...]]:
    """The words of `_solutions`, in its order, from the meet in the middle
    of the module docstring: v, the last size - m letters, filed under the
    class of M(v)^-1, and u, the first m, streamed against it."""
    first = (size + 1) // 2
    table = {}
    for key, v in zip(_half_classes(n, size - first, True),
                      product(range(n), repeat=size - first)):
        table.setdefault(key, []).append(v)
    found = []
    for key, u in zip(_half_classes(n, first, False),
                      product(range(n), repeat=first)):
        hits = table.get(key)
        if hits:
            found += map(u.__add__, hits)
    return found


def _joined_count(n: int, size: int) -> int:
    """The number of `_solutions`: the sum over classes of #u * #v."""
    first = (size + 1) // 2
    filed = Counter(_half_classes(n, size - first, True))
    return sum(count * filed[key] for key, count
               in Counter(_half_classes(n, first, False)).items())


def _least_solutions(n: int, size: int):
    """The least arrangement of every class of solutions of a size >= 2
    over Z/nZ, with its class size, in lexicographic order.

    `_solutions` restricted to the FKM prenecklace prefixes (see the module
    docstring): a[t] is letter t (1-based; a[0] = 0 < N - 1 is the FKM
    sentinel and stops the backtrack), period[t] is lyn(a[1..t]) and
    prefix[t] the product of its letters.
    """
    prefix_len = size - 2
    one = 1 % n
    minus_one = -1 % n
    prefix = [(one, 0, 0, one)] * (prefix_len + 1)
    a = [0] * (size + 1)
    period = [1] * (prefix_len + 1)
    t = 0
    while True:
        while t < prefix_len:
            p = period[t]
            k = a[t + 1 - p]
            a[t + 1] = k
            period[t + 1] = p
            ma, mb, mc, md = prefix[t]
            # E(k) . [[ma, mb], [mc, md]]
            prefix[t + 1] = ((k * ma - mc) % n, (k * mb - md) % n, ma, mb)
            t += 1
        ma, mb, mc, _ = prefix[prefix_len]
        if ma == one or ma == minus_one:
            # the forced tail, as in _solutions, under the FKM rule
            p = period[prefix_len]
            for t, k in ((size - 1, ma * mc % n), (size, -ma * mb % n)):
                if k < a[t - p]:
                    break
                if k > a[t - p]:
                    p = t
                a[t] = k
            else:
                if size % p == 0:
                    v = tuple(a[1:])
                    twice = v[::-1] * 2
                    for r in range(size):
                        rotation = twice[r:r + size]
                        if rotation < v:
                            break
                        if rotation == v:
                            yield v, p
                            break
                    else:
                        yield v, 2 * p
        t = prefix_len
        while a[t] == n - 1:
            t -= 1
        if t == 0:
            return
        k = a[t] + 1
        a[t] = k
        period[t] = t
        ma, mb, mc, md = prefix[t - 1]
        prefix[t] = ((k * ma - mc) % n, (k * mb - md) % n, ma, mb)


def enumerate_solutions(query: EnumerationQuery) -> Census:
    """Every solution of the query's size, kept as the value tuples the
    scan or the join yields (no `Word` is built).

    Without dedup, and for count_only, that is one scan of `_solutions`, or
    for long words the join (`_joined_solutions`, `_joined_count`), chosen
    from N and the size alone by the rule in the module docstring.
    Under dedup it is one scan of `_least_solutions`, which yields each
    class's least arrangement with the class's size, and the total is the
    sum of those sizes.  That needs every arrangement of a solution to be
    a solution: rotation conjugates the product by E(a_1), and reversal
    sends M to (J M J)^T with J = diag(1, -1), so +/-Id stays +/-Id.
    """
    m = query.modulus
    size = query.size
    if size == 1:
        # E(a) has nonzero off-diagonal entries
        return Census(m, size, 0, query.dedup)
    n = m.n
    _check_budget(n, size - 2, query.budget)
    # the rule of the module docstring, which no size <= 5 meets
    join = size > 5 and (n ** (size - 2)
                         >= 4 * (n ** (size // 2) + n ** (size - size // 2)))
    if query.count_only:
        total = (_joined_count(n, size) if join
                 else sum(1 for _ in _solutions(n, size)))
        return Census(m, size, total, query.dedup)
    if not query.dedup:
        found = tuple((_joined_solutions if join else _solutions)(n, size))
        return Census(m, size, len(found), False, found)
    total = 0
    found = []
    for v, orbit in _least_solutions(n, size):
        total += orbit
        found.append(v)
    return Census(m, size, total, True, tuple(found))


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
