"""Exhaustive enumeration at small sizes, and the unstructured oracle.

The enumerator is the ground truth for everything the rest of the library
claims: for short words it scans every one of the N**(n-2) prefixes of a
given size and solves the last two letters in closed form, and for long
ones it joins the two halves of each word on the +/-Id class of their
products, so no solution is missed either way.  The
reducibility oracle is its companion: a literal search over all
arrangements, splits and boundary pairs, used to cross-check the fast
structured decider.

Run:  python3 demos/03_exhaustive_census.py
"""

from cwlab import (
    EnumerationQuery,
    Modulus,
    enumerate_solutions,
    is_reducible_oracle,
    monomial_report,
    word,
)

m = Modulus(6)
for size in (2, 3, 4):
    census = enumerate_solutions(EnumerationQuery(m, size))
    print(f"N=6, size {size}: {census.total} solutions")
    for w in census.words:
        print(f"  {w.values}")
print()

# Deduplication by canonical form collapses rotation/reversal classes.
census = enumerate_solutions(EnumerationQuery(m, 4, dedup=True))
print(f"N=6, size 4 up to equivalence: {len(census.words)} classes "
      f"of {census.total} words")
print()

# Structured decider vs literal oracle on a minimal all-k solution.
n, k = 10, 3
report = monomial_report(n, k)
target = word([k] * report.size, n)
oracle, witness = is_reducible_oracle(target)
print(f"N={n}, k={k}: minimal all-{k} solution has length {report.size}")
print(f"  structured decider: reducible={not report.irreducible}, "
      f"{report.certificate.summary()}")
left, right, _arrangement = witness
print(f"  literal oracle:     reducible={oracle}, "
      f"witness {left.values} (+) {right.values}")
