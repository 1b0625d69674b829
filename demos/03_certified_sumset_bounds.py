"""Restricted sumsets end to end: enumerate, bound, certify.

The running example is the classic one: sums of two distinct elements of
A = {0,1,2,3} in Z/7Z, whose sumset has exactly 2|A| - 3 = 5 elements.

Run:  python demos/03_certified_sumset_bounds.py
"""

from sumsetlab import (
    SumsetInstance,
    certificate_check,
    compute_bounds,
    enumerate_restricted_sumset,
    uniform_forbidden,
)

print("=" * 64)
print("Sums of two distinct elements of {0,1,2,3} in Z/7Z")
print("=" * 64)

A = (0, 1, 2, 3)
inst = SumsetInstance(7, [A, A], uniform_forbidden(2, {0}))
C = sorted(enumerate_restricted_sumset(inst))
print(f"C = {C}, |C| = {len(C)} = 2|A| - 3")

report = compute_bounds(inst)
for entry in report.entries():
    value = "n/a" if entry.value is None else entry.value
    print(f"  {entry.name:>4}: value {value:>3}  hypothesis {entry.hypothesis_met!s:>5}  ({entry.reason})")

cert = certificate_check(inst)
print(f"certificate: coefficient {cert.coefficient_integer} "
      f"= {cert.coefficient_mod_p} mod 7, claimed bound {cert.claimed_bound}, "
      f"valid: {cert.certificate_valid}")
assert len(C) >= cert.claimed_bound

print()
print("=" * 64)
print("Non-uniform forbidden sets: the same certificate route")
print("=" * 64)

# only the (1,2) direction is constrained: a1 - a2 != 0.  Only the sizes
# |S_ij| reach the coefficient, through prod (x_i - x_j)^|S_ij|; the
# method label just records that they are not uniform
asym = SumsetInstance(5, [(0, 1), (0, 1, 2)], {(0, 1): [0]})
C2 = sorted(enumerate_restricted_sumset(asym))
cert_asym = certificate_check(asym)
print(f"C = {C2}; [{cert_asym.method}] coefficient {cert_asym.coefficient_integer} "
      f"= {cert_asym.coefficient_mod_p} mod 5, claimed bound {cert_asym.claimed_bound}, "
      f"valid: {cert_asym.certificate_valid}")
assert len(C2) >= cert_asym.claimed_bound

print()
print("=" * 64)
print("A certificate that vanishes proves nothing")
print("=" * 64)

tiny = SumsetInstance(2, [(0, 1), (0, 1)], uniform_forbidden(2, {0}))
cert2 = certificate_check(tiny)
print(f"p = 2, sizes (2, 2): coefficient {cert2.coefficient_integer} "
      f"= {cert2.coefficient_mod_p} mod 2 -> valid: {cert2.certificate_valid}")
print(f"(the sumset is {sorted(enumerate_restricted_sumset(tiny))}; the "
      "hypothesis p > mn fails at p = 2, and the certificate correctly stays silent)")
