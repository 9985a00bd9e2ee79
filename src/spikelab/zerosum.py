"""Subset-sum witnesses over GF(p) and the exhaustive lemma verifiers.

Reachable sums are tracked as a p-bit register: adding a_i maps bit s to
bit (s + a_i) mod p, a left rotation.  Keeping one register snapshot per
step lets a witness be rebuilt by walking first-reach steps backwards,
which lands on the least-bitmask witness by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import (
    BudgetExceededError,
    NoWitnessError,
    OutOfRangeError,
    TooSmallError,
    ZeroEntryError,
)
from .field import PrimeField

VERIFY_BUDGET = 10**9


@dataclass(frozen=True)
class ZeroSumInstance:
    field: PrimeField
    a: tuple[int, ...]
    k: Optional[int] = None  # target; None means the zero-sum problem

    def __post_init__(self):
        p = self.field.p
        object.__setattr__(self, "a", tuple(int(v) % p for v in self.a))
        if self.k is not None:
            object.__setattr__(self, "k", int(self.k) % p)


def _reach_history(p: int, a: Sequence[int]) -> list[int]:
    """hist[i] = bitmask of sums attainable by nonempty subsets of a[:i+1]."""
    # a reachability register over residues, not a per-mask table: no subset_sums
    full = (1 << p) - 1
    hist = []
    R = 0
    for ai in a:
        if ai:
            rot = ((R << ai) | (R >> (p - ai))) & full
        else:
            rot = R
        R = R | rot | (1 << ai)
        hist.append(R)
        if R == full:
            break
    return hist


def _reconstruct(p: int, a: Sequence[int], hist: list[int], target: int) -> tuple[int, ...]:
    """Walk first-reach steps backwards; yields the least-bitmask witness."""
    out = []
    k = target
    limit = len(hist)
    while True:
        step = next(i for i in range(1, limit + 1) if hist[i - 1] >> k & 1)
        out.append(step)
        k = (k - a[step - 1]) % p
        if k == 0:
            break
        limit = step - 1
    return tuple(reversed(out))


def _solve(field: PrimeField, a: Sequence[int], target: int) -> tuple[int, ...]:
    p = field.p
    hist = _reach_history(p, a)
    if not hist or not hist[-1] >> target & 1:
        raise NoWitnessError(f"no nonempty subset of {tuple(a)} sums to {target} mod {p}")
    witness = _reconstruct(p, a, hist, target)
    assert sum(a[i - 1] for i in witness) % p == target, "witness failed re-summation"
    return witness


def subset_with_sum(inst: ZeroSumInstance) -> tuple[int, ...]:
    """Least-bitmask nonempty subset with the given nonzero sum; entries nonzero."""
    p = inst.field.p
    if any(v == 0 for v in inst.a):
        raise ZeroEntryError("subset_with_sum requires nonzero entries")
    if inst.k is None or inst.k == 0:
        raise OutOfRangeError("subset_with_sum requires a nonzero target")
    return _solve(inst.field, inst.a, inst.k)


def zero_sum_subset(inst: ZeroSumInstance) -> tuple[int, ...]:
    """Least-bitmask nonempty subset summing to zero; entries arbitrary."""
    return _solve(inst.field, inst.a, 0)


def verify_lemma_2_1(p: int, n: int, budget: int = VERIFY_BUDGET) -> dict:
    """Every length-n nonzero tuple reaches every nonzero target (needs n >= p-1)."""
    field = PrimeField(p)
    if n < p - 1:
        raise TooSmallError(f"guarantee needs n >= p-1 = {p - 1}, got n={n}")
    cost = (p - 1) ** n * (p - 1)
    if cost > budget:
        raise BudgetExceededError(f"{cost} checks exceed budget {budget}")
    checked = 0
    failures = []
    targets = range(1, p)
    for a in product(range(1, p), repeat=n):
        hist = _reach_history(p, a)
        final = hist[-1]
        for k in targets:
            checked += 1
            if not final >> k & 1:
                failures.append({"a": list(a), "k": k})
                continue
            witness = _reconstruct(p, a, hist, k)
            if sum(a[i - 1] for i in witness) % p != k:
                failures.append({"a": list(a), "k": k, "witness": list(witness)})
    return {
        "lemma": "2.1",
        "p": p,
        "n": n,
        "checked": checked,
        "failures": failures,
    }


def verify_lemma_2_2(p: int, n: int, budget: int = VERIFY_BUDGET) -> dict:
    """Every length-n tuple has a nonempty zero-sum subset (needs n >= p)."""
    field = PrimeField(p)
    if n < p:
        raise TooSmallError(f"guarantee needs n >= p = {p}, got n={n}")
    cost = p**n
    if cost > budget:
        raise BudgetExceededError(f"{cost} tuples exceed budget {budget}")
    checked = 0
    failures = []
    for a in product(range(p), repeat=n):
        checked += 1
        hist = _reach_history(p, a)
        if not hist[-1] & 1:
            failures.append({"a": list(a)})
            continue
        witness = _reconstruct(p, a, hist, 0)
        if sum(a[i - 1] for i in witness) % p != 0:
            failures.append({"a": list(a), "witness": list(witness)})
    return {
        "lemma": "2.2",
        "p": p,
        "n": n,
        "checked": checked,
        "failures": failures,
    }
