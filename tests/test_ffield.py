import pytest
from hypothesis import given, settings, strategies as st

from oracles import trial_division_is_prime
from sumsetlab import (
    NotPrime,
    OutOfRange,
    PrimeField,
    is_prime,
)
from sumsetlab.ffield import PRIME_CEILING


def test_prime_moduli_accepted():
    assert PrimeField(7).p == 7
    assert PrimeField(2).p == 2
    assert PrimeField(999983).p == 999983
    assert PrimeField(7) == PrimeField(7) != PrimeField(11)


@pytest.mark.parametrize("p", [4, 6, 9, 15, 1000000])
def test_composite_rejected(p):
    with pytest.raises(NotPrime):
        PrimeField(p)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_too_small_rejected(p):
    with pytest.raises(OutOfRange):
        PrimeField(p)


def test_non_integer_rejected():
    with pytest.raises(OutOfRange):
        PrimeField("7")


def test_is_prime_spots():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(-7)


def test_is_prime_matches_trial_division_below_1e5():
    assert all(is_prime(n) == trial_division_is_prime(n) for n in range(-2, 10 ** 5))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_is_prime_matches_trial_division_below_1e9(n):
    assert is_prime(n) == trial_division_is_prime(n)


@pytest.mark.parametrize("n", [
    3215031751,                  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,         # strong pseudoprime to bases 2 .. 23
    318665857834031151167461,    # strong pseudoprime to bases 2 .. 37
])
def test_strong_pseudoprimes_are_composite(n):
    assert not is_prime(n)


def test_large_primes():
    assert is_prime(10 ** 18 + 3)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime((10 ** 9 + 7) * (10 ** 9 + 9))
    assert PrimeField(10 ** 18 + 3).p == 10 ** 18 + 3


def test_prime_ceiling():
    assert not is_prime(PRIME_CEILING - 1)  # even
    with pytest.raises(OutOfRange):
        is_prime(PRIME_CEILING)
    with pytest.raises(OutOfRange):
        PrimeField(PRIME_CEILING + 2)
