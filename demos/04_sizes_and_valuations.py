"""Closed-form minimal sizes and the binomial valuations behind them.

When every prime of N divides k, the minimal all-k solution length follows
a product formula; the proof-bearing divisibilities of binomial
coefficients are computable exactly from digit carries, without ever
materializing the coefficients.

Run:  python3 demos/04_sizes_and_valuations.py
"""

from math import comb

from cwlab import binomial_valuation, closed_form_size, minimal_monomial_size

print("minimal sizes: formula vs the order of E(k)")
for n, k in ((36, 6), (9, 3), (32, 8), (18, 12), (30, 6), (10, 3)):
    formula = closed_form_size(n, k)
    order, _sign = minimal_monomial_size(n, k)
    shown = formula if formula is not None else "n/a"
    print(f"  N={n:>3} k={k:>2}: formula {shown!s:>4}, order {order}")
print()

print("valuations of C(2**(n-1), j) at 2: at least n+1-j for j >= 3")
for n in range(3, 9):
    top = 2 ** (n - 1)
    row = [binomial_valuation(top, j, 2) for j in range(3, n + 1)]
    print(f"  n={n}: {row}")
print()

print("spot check against exact binomials:")
for top, j, base in ((8, 3, 2), (16, 5, 2), (54, 7, 3)):
    value = comb(top, j)
    e = binomial_valuation(top, j, base)
    print(f"  C({top},{j}) = {value} = {base}^{e} * {value // base**e}")
