"""Tour of the exact-arithmetic core: prime moduli and sparse polynomials.

Run:  python demos/01_prime_fields_and_polynomials.py
"""

from sumsetlab import (
    PrimeField,
    SparsePoly,
    targeted_coeff,
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
print("Sparse polynomials with arbitrary-precision coefficients")
print("=" * 64)

# two variables x0, x1; exponent tuples map to integer coefficients
x0 = SparsePoly.variable(2, 0)
x1 = SparsePoly.variable(2, 1)

p = (x0 + x1) ** 4
print(f"(x0 + x1)^4              = {p}")
print(f"[x0^2 x1^2] (x0+x1)^4    = {p.coeff((2, 2))}")

q = (x0 - x1) ** 2 * (x0 + x1) ** 2
print(f"(x0-x1)^2 (x0+x1)^2      = {q}")

# the same coefficient without expanding the whole product: factors are
# multiplied one by one and every partial term that already exceeds the
# target in some variable is dropped
c = targeted_coeff([(x0 - x1, 2), (x0 + x1, 2)], (2, 2))
print(f"targeted [x0^2 x1^2]     = {c}")

# Laurent constant terms: clearing denominators, 1 - x1/x0 = (x0 - x1)/x0
# and 1 - x0/x1 = (x1 - x0)/x1, so the constant term of their product is
# the coefficient of x0 x1 in the difference product
c = targeted_coeff([x0 - x1, x1 - x0], (1, 1))
print(f"CT (1 - x1/x0)(1 - x0/x1) = [x0 x1] (x0-x1)(x1-x0) = {c}")
