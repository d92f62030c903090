"""Minimal monomial solutions and their reducibility, with certificates.

For a residue k, the k-monomial minimal solution is the shortest all-k word
whose matrix is plus or minus the identity; its length h is the order of
E(k) = [[k, -1], [1, 0]] in SL2(Z/NZ) modulo sign, so the all-k solution
lengths are exactly the multiples of h.

Size, sign and reducibility all come from one walk over the continuants
c_j, defined by E(k)**j = [[c_j, -c_{j-1}], [c_{j-1}, -c_{j-2}]]
(c_0 = 1, c_1 = k, c_{j+1} = k c_j - c_{j-1}).  E(k)**j = +/-Id exactly
when c_{j-1} = 0 and c_j = +/-1, which gives h and its sign.  Writing the
target as a sum forces both summands to be boundary words (x, k, ..., k, x),
and by boundary rigidity E(x) E(k)**j E(x) = +/-Id forces
E(k)**j = +/-E(x)**-2.  Comparing entries, a right summand of length j + 2
exists exactly when c_j = +/-1, and then its boundary x = +/-c_{j-1} is
unique and a root of x(x - k) = 0 mod N.  The decision is certified: either
a verified decomposition, or the claim that no (length, root) candidate is a
solution, which anyone can recompute.  The roots of x(x - k) come in closed
form per prime power of N, combined by the Chinese remainder theorem.  The
unstructured search in the bruteforce module cross-checks this logic.
"""

from __future__ import annotations

from math import gcd

from ._record import Record
from .errors import InternalCheckError, UsageError, VerificationError
from .ring import MAX_MODULUS, Mat2, Modulus, as_modulus, elementary, mat_pow
from .words import Word, is_solution, oplus


def size_cap(modulus: "Modulus | int") -> int:
    """Iteration bound for the minimal monomial size search.

    For a prime power p**alpha the minimal size is at most 3 p**alpha.  When
    N has r distinct primes, the minimal size divides twice the least common
    multiple of the per-prime-power sizes (the factor 2 makes every component
    sign +1), and that lcm is at most prod(3 p_i**alpha_i) = 3**r * N.  The
    multi-prime bound is derived here, not taken from a sharper known result,
    so it is deliberately generous; exceeding it signals a bug, never bad
    input.
    """
    m = as_modulus(modulus)
    return 2 * 3 ** len(m.factors) * m.n


def _walk(n: int, k: int, cap: int
          ) -> tuple[int, int, tuple[int, int, int] | None]:
    """Walk the continuants c_j of E(k) mod n (k reduced) once.

    Returns (h, sign, split): h is the first j with c_{j-1} = 0 and
    c_j = +/-1, sign is +1 when c_j = 1 (so +1 for N = 2), and split is
    (j, c_{j-1}, c_j) for the first j <= h - 3 with c_j = +/-1, else None.
    The h test comes first, since c_{h-2} = -sign is always +/-1.
    """
    one, minus_one = 1 % n, -1 % n
    prev, cur = one, k  # c_{j-1}, c_j at j = 1
    split = None
    for j in range(1, cap + 1):
        if cur == one or cur == minus_one:
            if prev == 0:
                if split is not None and split[0] > j - 3:
                    split = None
                return j, 1 if cur == one else -1, split
            if split is None:
                split = (j, prev, cur)
        prev, cur = cur, (k * cur - prev) % n
    raise InternalCheckError(
        f"no power of E({k}) mod {n} reached +/-identity within {cap} steps")


def minimal_monomial_size(modulus: "Modulus | int",
                          k: int) -> tuple[int, int]:
    """Smallest h >= 1 with E(k)**h = +/-Id, and the sign attained there:
    the first j with c_{j-1} = 0 and c_j = +/-1 on the continuant walk."""
    m = as_modulus(modulus)
    h, sign, _ = _walk(m.n, k % m.n, size_cap(m))
    return h, sign


def closed_form_size(modulus: "Modulus | int", k: int) -> int | None:
    """Minimal monomial size by formula, when every prime of N divides k.

    The size is then 2N / gcd(N, k), i.e. 2 * prod(p_i**(alpha_i - beta_i))
    over N = prod(p_i**alpha_i), with beta_i the p_i-adic valuation of k
    capped at alpha_i.  When some prime of N does not divide k the formula
    does not apply and None is returned; the iterative search still works.
    """
    m = as_modulus(modulus)
    kv = k % m.n
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
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "roots", roots)


def quadratic_roots(modulus: "Modulus | int", k: int) -> QuadraticRoots:
    """All x in [0, N) with x(x - k) = 0 mod N, in closed form.

    For each prime power q = p**a exactly dividing N, let b be the p-adic
    valuation of k mod q (a when q divides k) and t = p**(a - min(b, a // 2)),
    which is q / gcd(k, p**(a // 2)).  The roots mod q are exactly the x
    with x = 0 or x = k mod t.  The components are combined by the Chinese
    remainder theorem, in O(sqrt(N) + #roots).
    """
    m = as_modulus(modulus)
    kv = k % m.n
    roots, step = [0], 1
    for p, a in m.factors:
        q = p ** a
        t = q // gcd(kv, p ** (a // 2))
        local = set(range(0, q, t)).union(range(kv % t, q, t))
        inverse = pow(step, -1, q)
        roots = [r + step * ((s - r) * inverse % q) for r in roots
                 for s in local]
        step *= q
    return QuadraticRoots(m, kv, tuple(sorted(roots)))


def _checked_solution_word(values, modulus, what: str) -> Word:
    w = Word(tuple(values), modulus)
    if is_solution(w) is None:
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
    return _checked_solution_word([k] * (2 * l ** (n - m)), modulus,
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
    return _checked_solution_word(
        [boundary] + [k] * (length - 2) + [boundary], modulus,
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
    return _checked_solution_word(
        [boundary] + [k] * (length - 2) + [boundary], modulus,
        "two boundary family")


def power_matrix_identity(n: int, a: int) -> Mat2:
    """The product of 2**n copies of E(2a) over N = 2**(n+1), for odd a.

    Computes the product by square-and-multiply and checks it equals
    [[1 + 2**n a**2, 2**n a], [-2**n a, 1 + 2**n a**2]] before returning it.
    Requires n >= 3; note the product is not +/-identity, which is what
    pins the minimal all-(2a) solution length over 2**(n+1) to 2**(n+1).
    """
    if n < 3:
        raise UsageError(f"power_matrix_identity needs n >= 3, got {n}")
    if a % 2 == 0:
        raise UsageError(f"power_matrix_identity needs odd a, got {a}")
    if 2 ** (n + 1) > MAX_MODULUS:
        raise UsageError(f"2**{n + 1} exceeds the modulus cap")
    modulus = Modulus(2 ** (n + 1))
    big = modulus.n
    k = 2 * a % big
    product = mat_pow(elementary(k, modulus), 2 ** n)
    diag = (1 + 2 ** n * a * a) % big
    off = 2 ** n * a % big
    expected = (diag, off, -off % big, diag)
    if product.entries() != expected:
        raise InternalCheckError(
            f"product of 2**{n} copies of E({k}) mod {big} is "
            f"{product.entries()}, expected {expected}")
    return product


class Decomposition(Record):
    """A verified split of the target into left (+) right.

    Construction re-checks everything the split claims, in O(h): both
    summands have length >= 3, the right summand is a solution, and the sum
    equals the target.  The left summand is then a solution by sum
    stability.  A certificate therefore cannot exist unverified.  The
    target is constant, so its only arrangement is itself and the sum always
    reproduces it exactly.
    """

    __slots__ = ("target", "left", "right")

    variant = "decomposition"
    rotation_note = "left (+) right reproduces the all-k target exactly"

    def __init__(self, target: Word, left: Word, right: Word):
        if len(left) < 3 or len(right) < 3:
            raise InternalCheckError("decomposition summand shorter than 3")
        if is_solution(right) is None:
            raise InternalCheckError(
                f"right summand {right!r} is not a solution")
        if oplus(left, right) != target:
            raise InternalCheckError(
                f"{left!r} (+) {right!r} is not {target!r}")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def summary(self) -> str:
        return (f"splits as {len(self.left)}+{len(self.right)} with "
                f"boundaries {self.left[0]}/{self.right[0]}")


class Exhausted(Record):
    """The claim that no right summand (x, k, ..., k, x) with x in `roots`
    and length in [3, size - 1] is a solution, i.e. no continuant c_j with
    j <= size - 3 is +/-1.  It proves irreducibility relative to the forced
    summand shape, and anyone can recheck it from size and roots."""

    __slots__ = ("size", "roots")

    variant = "exhausted"

    def __init__(self, size: int, roots: tuple[int, ...]):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "roots", roots)

    @property
    def examined(self) -> tuple[tuple[int, int], ...]:
        """Every (right length, root) candidate, ascending.  Kept only for
        bench/tracer.py, which counts len(examined); it can go once the
        tracer counts (size - 3) * len(roots) instead."""
        return tuple((length, x)
                     for length in range(3, self.size) for x in self.roots)

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
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "irreducible", irreducible)
        object.__setattr__(self, "certificate", certificate)


def monomial_report(modulus: "Modulus | int", k: int) -> MonomialReport:
    """Minimal size, sign and certified reducibility verdict from one walk.

    The target of length h is reducible exactly when some right summand
    (x, k, ..., k, x) of length l = j + 2 in [3, h-1] is a solution, which
    holds exactly when the continuant c_j is +/-1; the matching left summand
    (k-x, k, ..., k, k-x) of length h - j is then a solution too.  The walk
    that finds h also finds the shortest right summand; its boundary is
    x = c_{j-1} when c_j = 1 and x = -c_{j-1} when c_j = -1, the only root
    that works at that length.  For k = 0 the minimal solution is the pair
    (0, 0), reported as not irreducible with a sentinel certificate.
    """
    m = as_modulus(modulus)
    n = m.n
    kv = k % n
    h, sign, split = _walk(n, kv, size_cap(m))
    if kv == 0:
        certificate = ZeroExcluded()
    elif split is not None:
        j, prev, cur = split
        x = prev if cur == 1 % n else -prev % n
        y = (kv - x) % n
        certificate = Decomposition(Word((kv,) * h, m),
                                    Word((y,) + (kv,) * (h - j - 2) + (y,), m),
                                    Word((x,) + (kv,) * j + (x,), m))
    else:
        certificate = Exhausted(h, quadratic_roots(m, kv).roots)
    return MonomialReport(m, kv, h, sign, isinstance(certificate, Exhausted),
                          certificate)


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

    Over a prime power the computed verdicts are cross-checked against the
    closed-form irreducibility rule; any disagreement raises, since it would
    mean either the decider or the rule is wrong.
    """
    m = as_modulus(modulus)
    reports = [monomial_report(m, k) for k in range(m.n)]
    if len(m.factors) == 1:
        p, exponent = m.factors[0]
        for report in reports:
            expected = _prime_power_irreducible(p, exponent, report.k)
            if expected != report.irreducible:
                raise VerificationError(
                    f"N={m.n}, k={report.k}: computed "
                    f"irreducible={report.irreducible} but the prime-power "
                    f"rule says {expected}")
    return reports
