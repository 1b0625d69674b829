"""Tour of the exact-arithmetic core: prime moduli and difference products.

Run:  python demos/01_prime_fields_and_polynomials.py
"""

from sumsetlab import (
    PrimeField,
    difference_coeff,
)

print("=" * 64)
print("Prime fields")
print("=" * 64)

# PrimeField only validates the modulus; residues are plain ints
p = PrimeField(7).p
x, y = 3, 5
print(f"working in Z/{p}Z")
print(f"3 + 5      = {(x + y) % p}")
print(f"3 * 5      = {(x * y) % p}")
inv = pow(x, -1, p)
print(f"3^(-1)     = {inv}   (check: 3 * {inv} = {(x * inv) % p})")
print(f"-3         = {-x % p}")

try:
    PrimeField(6)
except Exception as exc:
    print(f"PrimeField(6) -> {type(exc).__name__}: {exc}")

print()
print("=" * 64)
print("Coefficients of difference products")
print("=" * 64)

# difference_coeff(nvars, mults, target) is the coefficient of
# prod x_j^{target_j} in prod (x_i - x_j)^e (x_0 + ... + x_{nvars-1})^E,
# over the pairs ((i, j), e) of mults, with E = sum(target) - sum(e);
# no polynomial is ever built
c = difference_coeff(2, [((0, 1), 2)], (2, 2))
print(f"[x0^2 x1^2] (x0-x1)^2 (x0+x1)^2        = {c}")

c = difference_coeff(2, [], (2, 2))
print(f"[x0^2 x1^2] (x0+x1)^4                  = {c}")

# Laurent constant terms: clearing denominators, 1 - x1/x0 = (x0 - x1)/x0
# and 1 - x0/x1 = (x1 - x0)/x1, so the constant term of their product is
# the coefficient of x0 x1 in the difference product; the engine merges
# (x1 - x0) into (x0 - x1) with a sign
c = difference_coeff(2, [((0, 1), 1), ((1, 0), 1)], (1, 1))
print(f"CT (1 - x1/x0)(1 - x0/x1) = [x0 x1] (x0-x1)(x1-x0) = {c}")
