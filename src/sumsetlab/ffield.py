"""Validated prime moduli for Z/pZ.

This is the only field family the package enumerates over.  Residues
are plain Python ints reduced with ``% p`` (inverses with
``pow(x, -1, p)``); coefficient work in characteristic 0 is done
directly with Python integers elsewhere.
"""


class OutOfRange(ValueError):
    """Modulus or other parameter outside the permitted range."""


class NotPrime(ValueError):
    """Composite modulus passed where a prime is required."""


def is_prime(n: int) -> bool:
    """Deterministic trial division up to sqrt(n); instant at desk scale (p < 10**6)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field Z/pZ, identified by its validated prime modulus p.

    >>> PrimeField(7).p
    7
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise OutOfRange(f"modulus must be an integer >= 2, got {p!r}")
        if not is_prime(p):
            raise NotPrime(f"modulus {p} is composite")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"
