"""Exact arithmetic in GF(p) for prime p.

Residues are plain ints in [0, p).  ``PrimeField`` validates and carries the
modulus and supplies the two operations plain int arithmetic lacks: the
inverse (Python's ``pow(a, -1, p)``) and the balanced lift.
"""

from __future__ import annotations

from .errors import CompositeModulusError, OutOfRangeError, ZeroInverseError

MAX_MODULUS = 65521  # largest 16-bit prime


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (n is at most 16 bits)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field GF(p), p prime, 2 <= p <= 65521."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise CompositeModulusError(f"modulus must be an integer, got {p!r}")
        if p > MAX_MODULUS:
            raise OutOfRangeError(f"modulus {p} exceeds {MAX_MODULUS}")
        if not is_prime(p):
            raise CompositeModulusError(f"{p} is not prime")
        self.p = p

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def inv(self, a: int) -> int:
        """Inverse of a mod p."""
        a %= self.p
        if a == 0:
            raise ZeroInverseError(f"0 has no inverse in {self!r}")
        return pow(a, -1, self.p)

    def balanced_lift(self, a: int) -> int:
        """The representative of a in [-(p-1)/2, (p-1)/2]; for p=2 the residue itself."""
        a %= self.p
        if self.p == 2:
            return a
        return a if a <= (self.p - 1) // 2 else a - self.p

    def inverse_table(self) -> list[int]:
        """inv_table[v] = v^-1 for v in [1,p), with inv_table[0] = 0 as filler."""
        return [0] + [self.inv(v) for v in range(1, self.p)]
