"""Minimal monomial solutions and their reducibility, with certificates.

For a residue k, the k-monomial minimal solution is the shortest all-k word
whose matrix is plus or minus the identity; its length h is the order of
E(k) = [[k, -1], [1, 0]] in SL2(Z/NZ) modulo sign, so the all-k solution
lengths are exactly the multiples of h.

Size, sign and reducibility come from the continuants c_j, defined by
E(k)**j = [[c_j, -c_{j-1}], [c_{j-1}, -c_{j-2}]]
(c_0 = 1, c_1 = k, c_{j+1} = k c_j - c_{j-1}).  E(k)**j = +/-Id exactly
when c_{j-1} = 0 and c_j = +/-1, which gives h and its sign.  Writing the
target as a sum forces a right summand (a, k, ..., k, b) of length j + 2
with E(b) E(k)**j E(a) = +/-Id, and `ring._closing_pair` of E(k)**j solves
that: a solution exists exactly when c_j = +/-1, and then
a = b = x = c_j c_{j-1} is unique and a root of x(x - k) = 0 mod N.  The
decision is certified by a claim anyone can recheck: the split (k, size,
j, x), or (N, k, size) with no (length, root) candidate a solution.
The roots of x(x - k) come in closed form per prime power of N, combined by
the Chinese remainder theorem.  The unstructured search in the bruteforce
module cross-checks this logic.

No split without a nontrivial root: when 0 and k are the only roots and
k != 0, the minimal all-k solution is irreducible.  Suppose c_j = +/-1 for
some 1 <= j <= h - 3, with boundary x = c_j c_{j-1}.  If x = 0 then
c_{j-1} = 0, as c_j is a unit, so E(k)**j = +/-Id (c_{j-2} = -c_j from
det = 1) and h divides j.  If x = k the all-k word of length j + 2 is the
right summand, a solution, so h divides j + 2.  Both contradict
1 <= j <= h - 3.  This covers every k != 0 over a prime, every unit over a
prime power, and composite cases such as N = 6, k = 3.  Such a k needs only
its size, the order of E(k): a proved multiple B of it with every prime
divided out that can go while the power stays +/-Id, one continuant
doubling of O(log B) bits per prime tested (`minimal_monomial_size`).

Splits come in pairs j <-> h - 2 - j.  Run the recursion downward to
define c_j for j < 0: c_{-1} = 0, c_{-2} = -1, and d_j = -c_{-2-j} obeys
the same recursion from the same start, so c_{-2-j} = -c_j.  With
E(k)**h = s Id, the (2,1) entry of E**(i+h) = s E**i gives
c_{i+h} = s c_i for every i.  Hence c_{h-2-j} = -s c_j, so c_j = +/-1
exactly when c_{h-2-j} = +/-1, and the boundary there is
c_{h-2-j} c_{h-3-j} = c_j c_{j+1} = k c_j**2 - c_j c_{j-1} = k - x.  The
map j -> h - 2 - j sends [1, h - 3] to itself, so a root x splits at j
exactly when k - x splits at h - 2 - j.

The walk `_walk` stops at the first centre of that symmetry, the glide
of Coxeter's frieze patterns (Acta Arith. 18, 1971).  The recursion reads
the same both ways, so c_{2m-i} = -s c_i (s = +/-1, 2m an integer) at
two adjacent i holds at every i, and i = -1, -2 give c_{2m+1} = 0,
c_{2m+2} = s: E**(2m+2) = s Id, and conversely as above.  The centres
are -1 + (h/2)Z, the first m >= 0 is h/2 - 1, and the least split, at
most its pair h - 2 - j, lies at or before it.

The split as a discrete log.  The right summand (x, k, ..., k, x) with j
letters k is a solution, E(x) E(k)**j E(x) = +/-Id, exactly when
c_j = +/-1 and x = c_j c_{j-1} (the closing pair), that is when
(c_j, c_{j-1}) = +/-(1, x), the first column E(k)**j e_1.  If
E**i e_1 = +/-E**i' e_1, then E**(i-i') e_1 = +/-e_1, so c_{i-i'-1} = 0
and c_{i-i'} = +/-1, E**(i-i') = +/-Id and h divides i - i'.  So a root x
splits at most one j mod h, the discrete log of +/-(1, x) under the
cyclic group <E(k)> / +/-Id of order h acting on first columns.  x = 0
has log 0, x = k has log h - 2, and no x has log h - 1, as c_{h-1} = 0;
so only the other roots, the nontrivial ones, can split, each in
[1, h - 3], and by the pairing one root of each pair {x, k - x}
suffices.  Shanks' baby-step giant-step finds the logs of r such roots
in about sqrt(2 r h) steps (`_log_split`).  `monomial_report` takes h
from the order and the least split from the log; `classify_monomials`
takes h, sign and split from `_walk`, which stops at the first centre,
in about h/2 steps.

A decomposition's certificate stands for three words, the target, left
and right summands, of 2h + 2 letters in all.  The claim (k, size, j, x)
rechecks in O(log j), but `cwl monomial N k --format json` writes the
words out, so it refuses with a budget error when they pass the
default enumeration budget (`DEFAULT_BUDGET`); text and CSV print only
the claim.
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt, lcm

from ._record import Record
from .errors import InternalCheckError, UsageError
from .numtheory import factorize
from .ring import (Mat2, Modulus, as_modulus, elementary, mat_pow,
                   _closing_pair, _continuants, _residue)
from .words import Word


def _walk(n: int, k: int) -> tuple[int, int, tuple[int, int] | None]:
    """(h, sign, split) of E(k) mod n (k reduced), from the continuants c_j
    up to their first centre, m = h/2 - 1 (module docstring).

    E(k)**h = sign Id (sign +1 at N = 2); split is the least
    (j, c_j c_{j-1}) with 1 <= j <= h - 3 and c_j = +/-1, else None.  Step
    j holds (c_{j-1}, c_j, c_{j+1}): m = j when c_{j+1} = e c_{j-1} and
    (1 - e) c_j = 0, m = j + 1/2 when c_{j+1} = e c_j (e = +/-1, -1 tried
    first for N = 2); then h = 2m + 2, sign = -e.  Past both, h >= 2j + 4
    and c_{j+1} is a split candidate.  (0, 1) = (c_{-1}, c_0) returns under
    the bijection (u, v) -> (v, k v - u) of (Z/nZ)**2 minus (0, 0) within
    n**2 - 1 steps: h <= n**2 - 1, the centre is at j <= (n**2 - 3) / 2,
    and a walk past n**2 // 2 steps signals a bug.
    """
    a, b, c = 0, 1, k  # c_{j-1}, c_j, c_{j+1} at j = 0
    minus_one, split = n - 1, None
    for j in range(n * n // 2):
        if c == b or c == a or c + b == n or c + a == n:
            if (c + a) % n == 0 and 2 * b % n == 0:
                return 2 * j + 2, 1, split
            if c == a:
                return 2 * j + 2, -1, split
            if c + b == n or c == b:
                return 2 * j + 3, 1 if c + b == n else -1, split
        if (c == 1 or c == minus_one) and split is None:
            split = (j + 1, c * b % n)
        a, b, c = b, c, (k * c - b) % n
    raise InternalCheckError(
        f"E({k}) mod {n}: no centre within {n * n // 2} steps")


def _order_bound(m: Modulus, kv: int) -> tuple[int, set[int]]:
    """A multiple B of the order of E(kv) mod N, and the primes of B.

    For each p**a exactly dividing N, E = E(kv) satisfies
    E**(p**(a-1) t) = Id mod p**a, where t = 6 for p = 2 and, for odd p,
    t = 2p when kv**2 = 4, p - 1 when kv**2 - 4 is a nonzero square and
    p + 1 otherwise (mod p).  Mod p, E has characteristic polynomial
    x**2 - kv x + 1 with discriminant kv**2 - 4.  A nonzero square gives
    distinct eigenvalues in F_p*, so E is diagonalisable over F_p and
    E**(p-1) = Id.  A non-square gives conjugate eigenvalues in F_{p**2}
    whose product, their norm, is 1, so they lie in the norm-1 subgroup
    of order p + 1 and E**(p+1) = Id.  Discriminant 0 gives the double
    eigenvalue kv/2 = +/-1, so E = +/-(Id + X) with X**2 = 0 and
    E**(2p) = Id.  SL2(F_2) has order 6, which covers p = 2.  Lifting:
    if E**e = Id + p**i X with i >= 1, then
    (Id + p**i X)**p = Id + p**(i+1) X + (binomial terms divisible by
    p**(i+1)), which holds for p = 2 as well, since 2i >= i + 1; so each
    factor p raises the exponent of agreement by one, up to p**a.  Hence
    E**B = Id mod N for B = lcm of the p**(a-1) t.  The primes of B are
    those of p and of t: p, 2, 3, and those of t / 2, which is factored
    (t = p + 1 can be 2**31, past `factorize`'s domain; 2 is listed anyway).
    """
    d = kv * kv - 4
    bound, primes = 1, {2, 3}
    for p, a in m.factors:
        primes.add(p)
        if p == 2:
            t = 6
        elif d % p == 0:
            t = 2 * p
        else:
            t = p - 1 if pow(d, (p - 1) // 2, p) == 1 else p + 1
            primes.update(q for q, _ in factorize(t // 2))
        bound = lcm(bound, p ** (a - 1) * t)
    return bound, primes


def _order(m: Modulus, kv: int) -> tuple[int, int]:
    """(h, sign) of E(kv) mod N (kv reduced) from its order, not a walk.

    {j : E**j = +/-Id} is the subgroup hZ, so h divides the bound B of
    `_order_bound`.  Each prime l of B is divided out of the current
    multiple e of h (e = B at the start) while E**(e/l) is still +/-Id:
    that holds exactly when h divides e/l, so e keeps a multiple of h, and
    once no prime can go, e = h (the standard reduction, Cohen, GTM 138,
    section 1.4).  The bound needs no check of its own once a prime
    divides out: E**(B/l) = +/-Id already gives E**B = +/-Id.  Only when
    none does is E**B computed, and h = B, or the bound is wrong.  Each
    power E**e is held as its continuants (c_e, c_{e-1})
    (`ring._continuants`), one doubling of O(log B) bits per prime tested;
    it is +/-Id exactly when c_{e-1} = 0 and c_e = +/-1.  The sign is c_h,
    so +1 over N = 2.
    """
    n = m.n
    one, minus_one = 1 % n, -1 % n
    h, primes = _order_bound(m, kv)
    c = None
    for l in primes:
        while h % l == 0:
            c_l, d_l = _continuants(kv, h // l, n)
            if d_l or c_l != one and c_l != minus_one:
                break
            h, c = h // l, c_l
    if c is None:
        c, d = _continuants(kv, h, n)
        if d or c != one and c != minus_one:
            raise InternalCheckError(
                f"E({kv})**{h} mod {n} is not +/-identity; the order bound "
                f"is wrong")
    return h, 1 if c == one else -1


def _log_split(n: int, k: int, h: int, targets) -> tuple[int, int] | None:
    """The least split (j, x) of E(k) mod n of order h, or None, by a
    baby-step giant-step discrete log; targets holds one root x of each
    pair {x, k - x} of nontrivial roots.

    (j, x) is a split exactly when E**j e_1 = +/-(1, x), and that j is
    unique mod h (module docstring).  With s = isqrt(r h / 2) + 1 capped
    at h, for r targets: a table of the first columns (c_i, c_{i-1}) of
    E**i, i < s, under both signs, whose keys are distinct since s <= h;
    then giant steps (1, x), E**-s (1, x), E**-2s (1, x), ... until one
    lands in the table at step g, entry i, giving the least log
    j = g s + i.  Each log also gives its pair (h - 2 - j, k - x).  A baby
    step, with its two inserts, costs about as much as a giant step, and
    a giant walk ends halfway on average, so the cost is about
    s + r h / (2 s) steps, least at s = sqrt(r h / 2): about sqrt(2 r h)
    steps, at most s + r h / s.
    """
    s = min(isqrt(len(targets) * h // 2) + 1, h)
    table = {}
    prev, cur = 0, 1  # c_{i-1}, c_i at i = 0
    for i in range(s):
        table[cur * n + prev] = table[-cur % n * n + -prev % n] = i
        prev, cur = cur, (k * cur - prev) % n
    # E**-s = [[-c_{s-2}, c_{s-1}], [-c_{s-1}, c_s]], the inverse of E**s
    cs, cs1 = _continuants(k, s, n)
    cs2 = (k * cs1 - cs) % n
    splits = []
    for x in targets:
        a, b = 1, x
        for g in range(0, h, s):
            i = table.get(a * n + b)
            if i is not None:
                splits += [(g + i, x), (h - 2 - g - i, (k - x) % n)]
                break
            a, b = (cs1 * b - cs2 * a) % n, (cs * b - cs1 * a) % n
    return min(splits, default=None)


def minimal_monomial_size(modulus: "Modulus | int",
                          k: int) -> tuple[int, int]:
    """Smallest h >= 1 with E(k)**h = +/-Id, and the sign attained there.

    h is the order of E(k) modulo +/-Id, found by `_order` with no walk:
    E(k)**B = Id for an explicit multiple B of h built from the primes of
    N, and h is B with each prime divided out while E(k) to the quotient
    stays +/-Id, at one continuant doubling of O(log B) bits per prime
    tested.  The bound is proved in `_order_bound`, the reduction in
    `_order`.
    """
    m = as_modulus(modulus)
    return _order(m, _residue(k, m.n))


def closed_form_size(modulus: "Modulus | int", k: int) -> int | None:
    """Minimal monomial size by formula, when every prime of N divides k.

    The size is then 2N / gcd(N, k), i.e. 2 * prod(p_i**(alpha_i - beta_i))
    over N = prod(p_i**alpha_i), with beta_i the p_i-adic valuation of k
    capped at alpha_i.  When some prime of N does not divide k the formula
    does not apply and None is returned; `minimal_monomial_size` still works.
    """
    m = as_modulus(modulus)
    kv = _residue(k, m.n)
    for p, _ in m.factors:
        if kv % p:
            return None
    return 2 * m.n // gcd(kv, m.n)


class QuadraticRoots(Record):
    """All x in Z/NZ with x(x - k) = 0; always contains 0 and k and is
    closed under x -> k - x."""

    __slots__ = ("modulus", "k", "roots")

    def __init__(self, modulus: Modulus, k: int, roots: tuple[int, ...]):
        n = modulus.n
        rs = set(roots)
        if 0 not in rs or k % n not in rs:
            raise InternalCheckError(f"root set {roots} misses 0 or k")
        if {(k - x) % n for x in rs} != rs:
            raise InternalCheckError(
                f"root set {roots} not closed under x -> k - x")
        set_modulus, set_k, set_roots = self._setters
        set_modulus(self, modulus)
        set_k(self, k)
        set_roots(self, roots)


def quadratic_roots(modulus: "Modulus | int", k: int) -> QuadraticRoots:
    """All x in [0, N) with x(x - k) = 0 mod N, in closed form.

    For each prime power q = p**a exactly dividing N, let b be the p-adic
    valuation of k mod q (a when q divides k) and t = p**(a - min(b, a // 2)),
    which is q / gcd(k, p**(a // 2)).  The roots mod q are exactly the x
    with x = 0 or x = k mod t; when t = q (a = 1, or p does not divide k),
    that is just {0, k mod q}.  The components are combined by the Chinese
    remainder theorem, in O(sqrt(N) + #roots).  The result is validated
    once, as a `QuadraticRoots`.
    """
    m = as_modulus(modulus)
    kv = _residue(k, m.n)
    roots, step = [0], 1
    for p, a in m.factors:
        q = p ** a
        t = q // gcd(kv, p ** (a // 2))
        local = ({0, kv % q} if t == q
                 else set(range(0, q, t)).union(range(kv % t, q, t)))
        inverse = pow(step, -1, q)
        roots = [r + step * ((s - r) * inverse % q) for r in roots
                 for s in local]
        step *= q
    return QuadraticRoots(m, kv, tuple(sorted(roots)))


def _closes(k: int, j: int, x: int, n: int) -> bool:
    """Whether (x, k, ..., k, x) with j letters k is a solution mod n (k and
    x reduced): (x, x) is the `ring._closing_pair` of E(k)**j, taken from
    its continuants in O(log j)."""
    c, d = _continuants(k, j, n)  # E(k)**j = [[c, -d], [d, c - k d]]
    return _closing_pair((c, -d % n, d, (c - k * d) % n), n) == (x, x)


def _checked_solution_word(x: int, k: int, length: int, modulus: Modulus,
                           what: str) -> Word:
    """The word (x, k, ..., k, x) of `length` letters, refused unless
    `_closes` finds it a solution."""
    w = Word((x, *(k,) * (length - 2), x), modulus)
    if not _closes(k, length - 2, x, modulus.n):
        raise InternalCheckError(f"{what} failed to produce a solution: {w!r}")
    return w


def power_monomial_word(l: int, n: int, m: int, a: int) -> Word:
    """All-(a l**m) word of length 2 l**(n-m) over N = l**n; a solution for
    every integer a.  Requires l, n >= 2 and 1 <= m <= n - 1."""
    if l < 2 or n < 2 or not 1 <= m <= n - 1:
        raise UsageError(
            f"power_monomial_word needs l, n >= 2 and 1 <= m <= n - 1; "
            f"got l={l}, n={n}, m={m}")
    modulus = Modulus(l ** n)
    k = a * l ** m % modulus.n
    return _checked_solution_word(k, k, 2 * l ** (n - m), modulus,
                                  "power monomial family")


def odd_boundary_word(l: int, n: int, m: int, a: int) -> Word:
    """(2a l**(n-1), a l**m, ..., a l**m, 2a l**(n-1)) of length
    2 l**(n-m) - 4 l**(n-m-1) + 2 over N = l**n; a solution for every
    integer a.  Requires l > 2, n >= 3 and 1 <= m <= n - 2."""
    if l <= 2 or n < 3 or not 1 <= m <= n - 2:
        raise UsageError(
            f"odd_boundary_word needs l > 2, n >= 3 and 1 <= m <= n - 2; "
            f"got l={l}, n={n}, m={m}")
    modulus = Modulus(l ** n)
    boundary = 2 * a * l ** (n - 1) % modulus.n
    k = a * l ** m % modulus.n
    length = 2 * l ** (n - m) - 4 * l ** (n - m - 1) + 2
    return _checked_solution_word(boundary, k, length, modulus,
                                  "odd boundary family")


def two_boundary_word(n: int, m: int, a: int) -> Word:
    """(a 2**(n-1), a 2**m, ..., a 2**m, a 2**(n-1)) of length 2**(n-m) + 2
    over N = 2**n; a solution for every integer a.  Requires n >= 4 and
    2 <= m <= n - 2."""
    if n < 4 or not 2 <= m <= n - 2:
        raise UsageError(
            f"two_boundary_word needs n >= 4 and 2 <= m <= n - 2; "
            f"got n={n}, m={m}")
    modulus = Modulus(2 ** n)
    boundary = a * 2 ** (n - 1) % modulus.n
    k = a * 2 ** m % modulus.n
    length = 2 ** (n - m) + 2
    return _checked_solution_word(boundary, k, length, modulus,
                                  "two boundary family")


def power_matrix_identity(n: int, a: int) -> Mat2:
    """The product of 2**n copies of E(2a) over N = 2**(n+1), for odd a.

    Computes the product by square-and-multiply and checks it equals
    [[1 + 2**n a**2, 2**n a], [-2**n a, 1 + 2**n a**2]] before returning it.
    Requires n >= 3, and n <= 29 for `Modulus` to accept 2**(n+1); note the
    product is not +/-identity, which is what pins the minimal all-(2a)
    solution length over 2**(n+1) to 2**(n+1).
    """
    if n < 3:
        raise UsageError(f"power_matrix_identity needs n >= 3, got {n}")
    if a % 2 == 0:
        raise UsageError(f"power_matrix_identity needs odd a, got {a}")
    modulus = Modulus(2 ** (n + 1))
    big = modulus.n
    k = 2 * a % big
    product = mat_pow(elementary(k, modulus), 2 ** n)
    diag = (1 + 2 ** n * a * a) % big
    off = 2 ** n * a % big
    expected = (diag, off, -off % big, diag)
    if product.entries != expected:
        raise InternalCheckError(
            f"product of 2**{n} copies of E({k}) mod {big} is "
            f"{product.entries}, expected {expected}")
    return product


class Decomposition(Record):
    """The claim that the all-k target of length `size` is left (+) right,
    where right = (x, k, ..., k, x) has length j + 2 and left, with k - x at
    both ends, has length size - j; the three words are derived on demand.

    Construction checks, in O(log j), the two parts that can fail: both
    summands have length >= 3, and (x, x) closes E(k)**j, so right is a
    solution.  Left is then one by sum stability, and left (+) right is the
    constant target exactly, since (k - x) + x = k."""

    __slots__ = ("modulus", "k", "size", "j", "x")

    variant = "decomposition"
    rotation_note = "left (+) right reproduces the all-k target exactly"

    def __init__(self, modulus: Modulus, k: int, size: int, j: int, x: int):
        if not 1 <= j <= size - 3:
            raise InternalCheckError(f"summand shorter than 3 at j={j}")
        if not _closes(k, j, x, modulus.n):
            raise InternalCheckError(f"x={x} does not close E({k})**{j}")
        set_modulus, set_k, set_size, set_j, set_x = self._setters
        set_modulus(self, modulus)
        set_k(self, k)
        set_size(self, size)
        set_j(self, j)
        set_x(self, x)

    @property
    def target(self) -> Word:
        return Word((self.k,) * self.size, self.modulus)

    @property
    def left(self) -> Word:
        k, y = self.k, (self.k - self.x) % self.modulus.n
        return Word((y, *(k,) * (self.size - self.j - 2), y), self.modulus)

    @property
    def right(self) -> Word:
        return Word((self.x, *(self.k,) * self.j, self.x), self.modulus)

    def summary(self) -> str:
        return (f"splits as {self.size - self.j}+{self.j + 2} with "
                f"boundaries {(self.k - self.x) % self.modulus.n}/{self.x}")


class Exhausted(Record):
    """The claim that, over N, no right summand (x, k, ..., k, x) of the
    all-k target of length `size`, with x a root of x(x - k) and length in
    [3, size - 1], is a solution, i.e. no continuant c_j with
    j <= size - 3 is +/-1.  It proves irreducibility relative to the forced
    summand shape, and anyone can recheck it from N, k and size."""

    __slots__ = ("modulus", "k", "size")

    variant = "exhausted"

    def __init__(self, modulus: Modulus, k: int, size: int):
        set_modulus, set_k, set_size = self._setters
        set_modulus(self, modulus)
        set_k(self, k)
        set_size(self, size)

    @property
    def roots(self) -> tuple[int, ...]:
        """The candidate boundaries, ascending, from `quadratic_roots`,
        which validates them; derived again on each access."""
        return quadratic_roots(self.modulus, self.k).roots

    @property
    def examined(self) -> tuple[tuple[int, int], ...]:
        """Every (right length, root) candidate, ascending.  Kept only for
        bench/tracer.py, which counts len(examined); it can go once the
        tracer counts (size - 3) * len(roots) instead."""
        return tuple(product(range(3, self.size), self.roots))

    def summary(self) -> str:
        return (f"exhausted {(self.size - 3) * len(self.roots)} "
                f"split candidates")


class ZeroExcluded(Record):
    """Sentinel for k = 0: the minimal solution is the pair (0, 0), which by
    convention is not counted as irreducible (and is too short for the
    reducibility definition to apply)."""

    __slots__ = ()

    variant = "zero-excluded"
    note = "minimal solution is (0, 0); excluded from irreducibility"

    def summary(self) -> str:
        return self.note


class MonomialReport(Record):
    """Per-k record: minimal size, sign there, verdict and certificate."""

    __slots__ = ("modulus", "k", "size", "sign", "irreducible", "certificate")

    def __init__(self, modulus: Modulus, k: int, size: int, sign: int,
                 irreducible: bool,
                 certificate: Decomposition | Exhausted | ZeroExcluded):
        (set_modulus, set_k, set_size, set_sign, set_irreducible,
         set_certificate) = self._setters
        set_modulus(self, modulus)
        set_k(self, k)
        set_size(self, size)
        set_sign(self, sign)
        set_irreducible(self, irreducible)
        set_certificate(self, certificate)


def _report(m: Modulus, kv: int, h: int, sign: int, split
            ) -> MonomialReport:
    """kv's report from its size, sign and first split (None for none).  On
    a prime power the verdict is checked against the closed-form rule: a
    disagreement means the decider or the rule is wrong."""
    if kv == 0:
        certificate = ZeroExcluded()
    elif split is not None:
        certificate = Decomposition(m, kv, h, *split)
    else:
        certificate = Exhausted(m, kv, h)
    irreducible = isinstance(certificate, Exhausted)
    if len(m.factors) == 1:
        expected = _prime_power_irreducible(*m.factors[0], kv)
        if expected != irreducible:
            raise InternalCheckError(
                f"N={m.n}, k={kv}: computed irreducible={irreducible} but "
                f"the prime-power rule says {expected}")
    return MonomialReport(m, kv, h, sign, irreducible, certificate)


def monomial_report(modulus: "Modulus | int", k: int) -> MonomialReport:
    """Minimal size, sign and certified reducibility verdict.

    The target of length h is reducible exactly when some right summand
    (x, k, ..., k, x) of length l = j + 2 in [3, h-1] is a solution, which
    holds exactly when the continuant c_j is +/-1; the matching left summand
    (k-x, k, ..., k, k-x) of length h - j is then a solution too.  Its
    boundary x = c_j c_{j-1} is a root of x(x - k) = 0, the only one that
    works at that length.  h and the sign come from the order of E(k).
    When the roots are only 0 and k, no split exists (module docstring)
    and the verdict is irreducible.  Otherwise the least split comes from
    a baby-step giant-step log of one root of each of the r pairs
    {x, k - x} of nontrivial roots, in about sqrt(2 r h) steps.  The
    roots come from `quadratic_roots`; an `Exhausted` certificate stores
    only (N, k, size) and derives them again when read.  For k = 0 the
    minimal solution is the pair (0, 0), reported as not irreducible with a
    sentinel certificate.  On a prime power the verdict is checked against
    the closed-form rule.
    """
    m = as_modulus(modulus)
    n, kv = m.n, _residue(k, m.n)
    roots = quadratic_roots(m, kv).roots
    h, sign = _order(m, kv)
    targets = [x for x in roots
               if x != 0 and x != kv and x <= (kv - x) % n]
    # no split without a nontrivial root (module docstring)
    split = _log_split(n, kv, h, targets) if targets else None
    return _report(m, kv, h, sign, split)


def is_reducible_monomial(modulus: "Modulus | int", k: int) -> tuple[
        bool, Decomposition | Exhausted | ZeroExcluded]:
    """Decide reducibility of the minimal all-k solution, with certificate
    (see monomial_report)."""
    report = monomial_report(modulus, k)
    return not report.irreducible, report.certificate


def _prime_power_irreducible(p: int, exponent: int, k: int) -> bool:
    """Closed-form irreducibility rule over N = p**exponent.

    Odd p: irreducible exactly when p does not divide k.  p = 2: exactly
    when k is odd, or k = 2**(exponent-1), or exponent >= 2 and k = 2a with
    a odd.  k is the least nonnegative representative.
    """
    if p != 2:
        return k % p != 0
    if k % 2 == 1:
        return True
    if k == 2 ** (exponent - 1):
        return True
    return exponent >= 2 and (k // 2) % 2 == 1


def classify_monomials(modulus: "Modulus | int") -> list[MonomialReport]:
    """One report per k in [0, N), ordered by k.

    Only k <= N // 2 is walked, to its continuants' first centre (`_walk`,
    about h/2 steps).  E(-k) = -J E(k) J with J = diag(1, -1), so
    c_j(-k) = (-1)**j c_j(k): N - k gets k's h and split index, the sign
    times (-1)**h and boundary -x.  No roots are computed: an `Exhausted`
    certificate derives them when read.
    """
    m = as_modulus(modulus)
    n = m.n
    reports = [None] * n
    for k in range(n // 2 + 1):
        h, sign, split = _walk(n, k)
        reports[k] = _report(m, k, h, sign, split)
        if 0 < k < n - k:
            reports[n - k] = _report(m, n - k, h, (-1) ** h * sign,
                                     split and (split[0], -split[1] % n))
    return reports
