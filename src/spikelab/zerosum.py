"""Subset-sum witnesses over GF(p) and the exhaustive lemma verifiers.

Reachable sums are tracked as a p-bit register: adding a_i maps bit s to
bit (s + a_i) mod p, a left rotation.  Keeping one register snapshot per
step lets a witness be rebuilt by walking first-reach steps backwards,
which lands on the least-bitmask witness by construction.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .errors import (
    BudgetExceededError,
    NoWitnessError,
    OutOfRangeError,
    TooSmallError,
    ZeroEntryError,
)
from .field import PrimeField

VERIFY_BUDGET = 10**9


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


def _solve(p: int, a: tuple[int, ...], target: int) -> tuple[int, ...]:
    hist = _reach_history(p, a)
    if not hist or not hist[-1] >> target & 1:
        raise NoWitnessError(f"no nonempty subset of {a} sums to {target} mod {p}")
    witness = _reconstruct(p, a, hist, target)
    assert sum(a[i - 1] for i in witness) % p == target, "witness failed re-summation"
    return witness


def subset_with_sum(field: PrimeField, a: Sequence[int], k: int) -> tuple[int, ...]:
    """Least-bitmask nonempty subset of a summing to k mod p; entries and k nonzero mod p."""
    p = field.p
    a = tuple(int(v) % p for v in a)
    k = int(k) % p
    if 0 in a:
        raise ZeroEntryError("subset_with_sum requires nonzero entries")
    if k == 0:
        raise OutOfRangeError("subset_with_sum requires a nonzero target")
    return _solve(p, a, k)


def zero_sum_subset(field: PrimeField, a: Sequence[int]) -> tuple[int, ...]:
    """Least-bitmask nonempty subset of a summing to zero mod p; entries arbitrary."""
    p = field.p
    return _solve(p, tuple(int(v) % p for v in a), 0)


def _sweep(lemma: str, p: int, n: int, low: int, targets: Sequence[int]) -> dict:
    """Rebuild and re-sum a witness for every target of every tuple in [low, p)^n.

    A failure names the tuple and target, plus the witness when one was
    rebuilt but did not re-sum.
    """
    checked = 0
    failures = []
    for a in product(range(low, p), repeat=n):
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
    return {"lemma": lemma, "p": p, "n": n, "checked": checked, "failures": failures}


def verify_lemma_2_1(p: int, n: int) -> dict:
    """Every length-n nonzero tuple reaches every nonzero target (needs n >= p-1)."""
    PrimeField(p)
    if n < p - 1:
        raise TooSmallError(f"guarantee needs n >= p-1 = {p - 1}, got n={n}")
    cost = (p - 1) ** n * (p - 1)
    if cost > VERIFY_BUDGET:
        raise BudgetExceededError(f"{cost} checks exceed budget {VERIFY_BUDGET}")
    return _sweep("2.1", p, n, 1, range(1, p))


def verify_lemma_2_2(p: int, n: int) -> dict:
    """Every length-n tuple has a nonempty zero-sum subset (needs n >= p)."""
    PrimeField(p)
    if n < p:
        raise TooSmallError(f"guarantee needs n >= p = {p}, got n={n}")
    cost = p**n
    if cost > VERIFY_BUDGET:
        raise BudgetExceededError(f"{cost} tuples exceed budget {VERIFY_BUDGET}")
    return _sweep("2.2", p, n, 0, (0,))
