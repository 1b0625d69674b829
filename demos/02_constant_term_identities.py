"""Constant-term identities: brute force against closed forms.

Every value is computed twice — once by expanding the product with the
sparse polynomial engine, once from an exact factorial formula — and the
two must agree on the nose.

Run:  python demos/02_constant_term_identities.py
"""

import itertools
from math import factorial

from sumsetlab import (
    AomotoParams,
    aomoto_closed_form,
    aomoto_constant_term,
    dyson_closed_form,
    dyson_constant_term,
    leading_coefficient_check,
    zeilberger_coefficient,
)
from sumsetlab.identities import ratio_text

print("=" * 64)
print("Dyson: CT of prod_(i!=j) (1 - x_i/x_j)^(a_j)  vs  the multinomial")
print("=" * 64)

for avec in [(1, 1), (2, 1), (1, 1, 1), (2, 2, 1), (1, 1, 1, 1)]:
    ct = dyson_constant_term(avec)
    closed = dyson_closed_form(avec)
    coeff = zeilberger_coefficient(avec)
    print(f"a = {avec}: expansion {ct}, multinomial {closed}, "
          f"signed coefficient form {coeff}")
    assert ct == closed == coeff

checked = 0
for nv in (2, 3):
    for avec in itertools.product(range(3), repeat=nv):
        assert dyson_constant_term(avec) == dyson_closed_form(avec)
        checked += 1
print(f"swept {checked} vectors, all agree")

print()
print("=" * 64)
print("Aomoto: the shifted product, in both chi orientations")
print("=" * 64)

# x_v -> 1/x_v turns the product with the shift on the b side into the
# one with the shift on the a side and a, b exchanged, so side b of
# (n, s, a, b, m) is the package's (a-side) value on (n, s, b, a, m)
params = AomotoParams(n=2, s=1, a=2, b=1, m=1)
swapped = params._replace(a=params.b, b=params.a)
print(f"params: {params}")
print(f"  CT with the shift on the a side : {aomoto_constant_term(params)}")
print(f"  closed form (a-side factorials) : {aomoto_closed_form(params)}")
print(f"  CT with the shift on the b side : {aomoto_constant_term(swapped)}")
print(f"  closed form (b-side factorials) : {aomoto_closed_form(swapped)}")

# with s >= 1 and a != b the two orientations genuinely differ, which is
# why the pairing matters
p2 = AomotoParams(n=1, s=1, a=1, b=0, m=0)
print(f"asymmetric point {p2}: "
      f"a-side CT {aomoto_constant_term(p2)}, "
      f"b-side CT {aomoto_constant_term(p2._replace(a=p2.b, b=p2.a))}")

print()
print("=" * 64)
print("The closed form is a polynomial in its first argument")
print("=" * 64)

# the report holds D! times each coefficient, so every value is an int
rep = leading_coefficient_check(n=2, s=0, b=1, m=1)
scale = factorial(rep.degree)
print(f"sampled values at a = 0..{rep.degree + 2}: {rep.sample_values}")
print(f"interpolant coefficients (ascending): "
      f"{[ratio_text(c, scale) for c in rep.coefficients]}")
print(f"leading coefficient {ratio_text(rep.leading_coefficient, scale)}, "
      f"independent CT route gives {ratio_text(rep.expected_leading, scale)}, "
      f"agree: {rep.agree}")
