import pytest

from sumsetlab import (
    NotPrime,
    OutOfRange,
    PrimeField,
    is_prime,
)


def test_prime_moduli_accepted():
    assert PrimeField(7).p == 7
    assert PrimeField(2).p == 2
    assert PrimeField(999983).p == 999983


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
