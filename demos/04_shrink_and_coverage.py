"""Shrinking to hit the prime exactly, and the coverage threshold.

When the uniform bound formula n(k-1) - mn(n-1) + 1 overshoots p, the
sets can be shrunk to sizes k'/k'+1 so the bound lands exactly on p —
which is how the min(p, ...) form of the bound is reached.  Stacking
that with an integer threshold on |A| gives full coverage: every residue
is a sum of n elements of A with pairwise differences outside S.

Run:  python demos/04_shrink_and_coverage.py
"""

from itertools import islice

from sumsetlab import (
    SumsetInstance,
    coverage_sweep,
    coverage_threshold,
    enumerate_restricted_sumset,
    shrink_sizes,
    uniform_forbidden,
)

print("=" * 64)
print("Shrink construction")
print("=" * 64)

for p, n, m, k in [(7, 3, 0, 4), (11, 3, 0, 6), (7, 2, 1, 6)]:
    sizes = shrink_sizes(p, n, m, k)
    print(f"p={p}, n={n}, m={m}, k={k}: shrink to sizes {sizes} "
          f"(sum(|A'_j|-1) - mn(n-1) = {sum(sizes) - n - m * n * (n - 1)} = p - 1)")

# enumerate one shrunk instance and watch it cover at least p residues
p, n, m, k = 7, 2, 1, 6
sizes = shrink_sizes(p, n, m, k)
A = tuple(range(k))
inst = SumsetInstance(p, [A[:sz] for sz in sizes], uniform_forbidden(n, {0}))
C = enumerate_restricted_sumset(inst)
print(f"shrunk instance over Z/{p}Z: |C| = {len(C)} >= {p}")

print()
print("=" * 64)
print("Coverage thresholds")
print("=" * 64)

for p in (7, 11, 13):
    for m in (1, 2):
        print(f"p={p:>2}, m={m}: smallest |A| with guaranteed coverage is "
              f"{coverage_threshold(p, m)}")

print()
print("=" * 64)
print("Exhaustive check at p=7, m=1")
print("=" * 64)

sweep = coverage_sweep(7, 1, mode="exhaustive")
print(f"threshold {sweep.threshold}; testing all 21 subsets of that size")
for row in islice(sweep.rows, 5):
    print(f"  A = {row.subset}: n = {row.n}, covered = {row.covered}")
print(f"  ... {len(sweep.rows)} subsets total, failures: {len(sweep.failures())}")
