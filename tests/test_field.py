from __future__ import annotations

import pytest

from spikelab import (
    CompositeModulusError,
    MAX_MODULUS,
    OutOfRangeError,
    PrimeField,
    ZeroInverseError,
    is_prime,
)


def _naive_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


def test_is_prime_matches_naive_below_200():
    for n in range(-3, 200):
        assert is_prime(n) == _naive_prime(n), n


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15, 65519 - 2])  # 65517 = 3*21839
def test_composite_modulus_rejected(p):
    with pytest.raises(CompositeModulusError):
        PrimeField(p)


def test_modulus_cap():
    PrimeField(MAX_MODULUS)  # largest allowed prime
    with pytest.raises(OutOfRangeError):
        PrimeField(65537)


def test_bool_is_not_a_modulus():
    with pytest.raises(CompositeModulusError):
        PrimeField(True)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97, MAX_MODULUS])
def test_inverses(p):
    f = PrimeField(p)
    for a in range(1, p):
        assert a * f.inv(a) % p == 1
    with pytest.raises(ZeroInverseError):
        f.inv(0)
    table = f.inverse_table()
    assert table[0] == 0  # filler slot; 0 has no inverse
    for a in range(1, p):
        assert table[a] == f.inv(a)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_balanced_lift(p):
    f = PrimeField(p)
    for a in range(p):
        lift = f.balanced_lift(a)
        assert lift % p == a
        if p == 2:
            assert lift == a
        else:
            assert abs(lift) <= (p - 1) // 2


def test_balanced_lift_examples():
    f = PrimeField(7)
    assert [f.balanced_lift(a) for a in range(7)] == [0, 1, 2, 3, -3, -2, -1]


def test_field_identity_semantics():
    assert PrimeField(11) == PrimeField(11)
    assert hash(PrimeField(11)) == hash(PrimeField(11))
    assert PrimeField(11) != PrimeField(13)
