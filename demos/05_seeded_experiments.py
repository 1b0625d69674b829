"""Seeded random soundness sweeps, as used by the acceptance suite.

Instances are generated from a documented SplitMix64 stream, so the same
seed reproduces the same experiment bit for bit on any machine.  The CLI
equivalent of this script is:

    sumsetlab experiment --seed 11 --trials 25 --enforce thm3 --format doc

Run:  python demos/05_seeded_experiments.py
"""

from collections import Counter

from sumsetlab import random_instance, run_experiment

print("=" * 64)
print("One reproducible instance")
print("=" * 64)

inst = random_instance(seed=1, p=7, n=2, k=3, m=1)
print(f"seed 1, p=7, n=2, k=3, m=1 always gives: sets {inst.sets}, forbidden "
      f"{ {k: sorted(v) for k, v in sorted(inst.forbidden.items())} }")

print()
print("=" * 64)
print("25 seeded trials, thm3 hypothesis enforced")
print("=" * 64)

rows = run_experiment(seed=11, trials=25, p_set=(5, 7, 11, 13),
                      n_set=(2, 3), m_set=(0, 1), k_max=6, enforce="thm3")

header = f"{'trial':>5} {'p':>3} {'n':>2} {'k':>2} {'m':>2} {'|C|':>4} {'thm3':>5} {'cert':>9}"
print(header)
print("-" * len(header))
for row in rows:
    result = row.analysis  # the InstanceAnalysis of this trial's instance
    cert = ("skipped" if result.certificate is None
            else "valid" if result.certificate.certificate_valid else "vanishes")
    print(f"{row.index:>5} {row.p:>3} {row.n:>2} {row.k:>2} {row.m:>2} "
          f"{len(result.sumset):>4} {result.bounds.thm3.value:>5} {cert:>9}")

violations = sum(len(row.analysis.violations) for row in rows)
certified = Counter(
    "valid" if row.analysis.certificate and row.analysis.certificate.certificate_valid
    else "other"
    for row in rows
)
print(f"\nviolations: {violations}; certificates valid on {certified['valid']}/25 trials")
assert violations == 0
