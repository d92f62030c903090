"""Slow oracles shared by the test modules."""

from cwlab.errors import InternalCheckError


def arrangements_oracle(values):
    """The rotations of the tuple, then those of its mirror, listed by hand
    rather than by words._arrangements, the kernel these oracles check."""
    mirror = tuple(reversed(values))
    return ([values[r:] + values[:r] for r in range(len(values))]
            + [mirror[r:] + mirror[:r] for r in range(len(values))])


def walk_oracle(n, k):
    """Walk the continuants c_j of E(k) mod n (k reduced) all the way to h.

    Returns (h, sign, split): h is the first j with c_{j-1} = 0 and
    c_j = +/-1, sign is +1 when c_j = 1 (so +1 for N = 2), and split is
    (j, x) for the first j <= h - 3 with c_j = +/-1, else None, where
    x = c_j c_{j-1} makes (x, x) the `ring._closing_pair` of
    E(k)**j = [[c_j, -c_{j-1}], [c_{j-1}, -c_{j-2}]].  The h test comes
    first, since c_{h-2} = -sign is always +/-1.  This is the literal
    definition: no symmetry of c_j is used, so it checks the walk of
    `monomial._walk`, which stops at the first centre of c_j.

    It stops by pigeonhole, not by `monomial._order_bound`, so it stays
    an oracle independent of the bound.  (c_{j-1}, c_j) moves under the
    bijection (u, v) -> (v, k v - u) of (Z/nZ)**2, so the orbit of
    (c_{-1}, c_0) = (0, 1) is a cycle that misses the fixed point (0, 0):
    it comes back to (0, 1), where E(k)**j = Id, within n**2 - 1 steps.
    Running past that signals a bug.
    """
    one, minus_one = 1 % n, -1 % n
    prev, cur = one, k  # c_{j-1}, c_j at j = 1
    split = None
    for j in range(1, n * n):
        if cur == one or cur == minus_one:
            if prev == 0:
                if split is not None and split[0] > j - 3:
                    split = None
                return j, 1 if cur == one else -1, split
            if split is None:
                split = (j, cur * prev % n)
        prev, cur = cur, (k * cur - prev) % n
    raise InternalCheckError(
        f"no power of E({k}) mod {n} reached +/-identity within {n * n - 1} "
        f"steps")
