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


# Miller-Rabin with the prime bases 2..41 decides primality exactly below
# this ceiling (Sorenson and Webster, Math. Comp. 86 (2017)); at or above
# it these bases are not known to suffice, so such moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CEILING = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_CEILING.

    Raises OutOfRange for n >= PRIME_CEILING.
    """
    if n < 2:
        return False
    if n >= PRIME_CEILING:
        raise OutOfRange(f"primality is only decided below {PRIME_CEILING}, got {n}")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
