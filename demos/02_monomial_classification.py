"""Minimal monomial solutions and their reducibility certificates.

The all-k word of minimal solution length h is reducible when it splits as
a sum of two shorter solutions (both of length >= 3); over a prime power
the irreducible k form a clean closed-form family, and the classifier
cross-checks its computed verdicts against that rule on every run.

Run:  python3 demos/02_monomial_classification.py
"""

from cwlab import classify_monomials, euler_phi, monomial_report

for n in (16, 27):
    reports = classify_monomials(n)
    print(f"N = {n}")
    print(f"{'k':>4} {'size':>5} {'sign':>5} {'irreducible':>12}  certificate")
    for r in reports:
        print(f"{r.k:>4} {r.size:>5} {r.sign:>+5d} "
              f"{str(r.irreducible):>12}  {r.certificate.summary()}")
    count = sum(r.irreducible for r in reports)
    print(f"irreducible count: {count}   (phi({n}) = {euler_phi(n)})")
    print()

# The certificates are verified objects, not strings: a decomposition stores
# its claim (k, size, j, x), re-checks it on construction and derives its
# summands from it.
report = monomial_report(10, 3)
certificate = report.certificate
print(f"N=10, k=3 reducible: {not report.irreducible}")
print(f"  target {certificate.target.values}")
print(f"  left   {certificate.left.values}")
print(f"  right  {certificate.right.values}")
print(f"  note: {certificate.rotation_note}")
