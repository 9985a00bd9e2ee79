"""Subset-sum witnesses over GF(p) and the exhaustive lemma verifiers.

Reachable sums are tracked as a p-bit register, one Python int: adding a_i
maps bit s to bit (s + a_i) mod p, a left rotation, and the register stops
once it is full.  The residues each step first reaches are kept, and a
witness is rebuilt by walking first-reach steps backwards, which lands on
the least-bitmask witness by construction; every witness is re-summed
before it counts.  A register is a set, so a sweep runs this kernel once per
sorted tuple and counts the tuple's arrangements; only a failing sorted
tuple is expanded into its arrangements, each run on its own.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Sequence

from .errors import (
    BudgetExceededError,
    NoWitnessError,
    OutOfRangeError,
    TooSmallError,
    VerdictMismatchError,
    ZeroEntryError,
)
from .field import PrimeField
from .spikes import _arrangements

# register steps: a sweep over [low, p)^n with T targets counts n * (1 + T)
# for each of its C(p - low + n - 1, n) sorted tuples; the largest admitted
# sweeps take 0.3-1.2 s on a 2-core VM, and the n-entry tuple bounds memory
# (87 MB peak at lemma21 --p 2 --n 2500000)
VERIFY_BUDGET = 5 * 10**6


def _reach_history(p: int, a: Sequence[int]) -> tuple[list[int], int]:
    """The residues each step of a first reaches, and the final register.

    Returns (layers, R): R is the p-bit mask of sums of nonempty subsets of
    a, and layers[i] the mask of residues that enter it at step i, from 0.
    The register stops once it is full, so there is one layer per step
    taken, and the layers are disjoint.
    """
    # a reachability register over residues, not a per-mask table: no subset_sums
    full = (1 << p) - 1
    layers = []
    R = 0
    for v in a:
        new = ((R << v | R >> (p - v)) & full | 1 << v) & ~R
        R |= new
        layers.append(new)
        if R == full:
            break
    return layers, R


def _witness(p: int, a: Sequence[int], layers: list[int], target: int) -> list[int]:
    """The least-bitmask witness of a target the register holds, as steps from 0.

    The registers are monotone, so the walk goes down the layers from the
    last to the one where the target was first reached, subtracts that
    step's entry, and goes on down for the rest until it is zero.  Each layer
    is read at most once, so a corrupt history gives a witness that fails
    its re-sum instead of a loop.
    """
    steps = []
    k, i = target, len(layers)
    while i:
        i -= 1
        if layers[i] >> k & 1:
            steps.append(i)
            k = (k - a[i]) % p
            if not k:
                break
    steps.reverse()
    return steps


def _resums(p: int, a: Sequence[int], steps: list[int], target: int) -> bool:
    # a plain loop: on a witness of a few steps, sum(map(...)) costs twice as much
    total = 0
    for i in steps:
        total += a[i]
    return bool(steps) and total % p == target


def _failures(p: int, a: tuple[int, ...], targets: Sequence[int]) -> list[dict]:
    """a's failures in target order: a target its register lacks, or one
    whose witness does not re-sum, named with that witness."""
    layers, R = _reach_history(p, a)
    out = []
    for k in targets:
        if not R >> k & 1:
            out.append({"a": list(a), "k": k})
            continue
        steps = _witness(p, a, layers, k)
        if not _resums(p, a, steps, k):
            out.append({"a": list(a), "k": k, "witness": [i + 1 for i in steps]})
    return out


def _solve(p: int, a: tuple[int, ...], target: int) -> tuple[int, ...]:
    layers, R = _reach_history(p, a)
    if not R >> target & 1:
        raise NoWitnessError(f"no nonempty subset of {a} sums to {target} mod {p}")
    steps = _witness(p, a, layers, target)
    witness = tuple(i + 1 for i in steps)
    if not _resums(p, a, steps, target):
        raise VerdictMismatchError(f"witness {witness} of {a} does not re-sum to {target} mod {p}")
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


def _check_budget(lemma: str, p: int, n: int, low: int, targets: int) -> None:
    """Refuse a sweep over [low, p)^n of more than VERIFY_BUDGET register steps."""
    steps = n * (1 + targets)
    # times C(n + i, i) for i up to p - low - 1, the sorted tuples; each factor
    # is at least 2 (n >= p - low - 1), so the count stops soon past the budget
    for i in range(1, p - low):
        if steps > VERIFY_BUDGET:
            break
        steps = steps * (n + i) // i
    if steps > VERIFY_BUDGET:
        raise BudgetExceededError(
            f"lemma {lemma} at p={p}, n={n} exceeds the budget of {VERIFY_BUDGET} register steps"
        )


def _distinct_arrangements(s: tuple[int, ...]):
    """The distinct arrangements of a sorted tuple, in lexicographic order."""
    a = list(s)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


def _sweep(lemma: str, p: int, n: int, low: int, targets: Sequence[int]) -> dict:
    """Rebuild and re-sum a witness for every target of every tuple in [low, p)^n.

    The kernel runs once per sorted tuple, which stands for all of its
    arrangements; their counts must add up to (p - low)^n.  A failing
    (sorted tuple, target) is expanded into those of its arrangements that
    fail on their own run.  A failure names the tuple and target, plus the
    witness when one was rebuilt but did not re-sum; failures come in
    product order, then target order.
    """
    total = 0
    failing = []
    for s in combinations_with_replacement(range(low, p), n):
        total += _arrangements(s)
        bad = _failures(p, s, targets)
        if bad:
            ks = [f["k"] for f in bad]
            failing.extend(filter(None, (_failures(p, a, ks) for a in _distinct_arrangements(s))))
    if total != (p - low) ** n:
        raise VerdictMismatchError(f"arrangement counts add up to {total}, not {p - low}^{n}")
    failing.sort(key=lambda fs: fs[0]["a"])
    failures = [f for fs in failing for f in fs]
    return {"lemma": lemma, "p": p, "n": n, "checked": total * len(targets), "failures": failures}


def verify_lemma_2_1(p: int, n: int) -> dict:
    """Every length-n nonzero tuple reaches every nonzero target (needs n >= p-1)."""
    PrimeField(p)
    if n < p - 1:
        raise TooSmallError(f"guarantee needs n >= p-1 = {p - 1}, got n={n}")
    _check_budget("2.1", p, n, 1, p - 1)
    return _sweep("2.1", p, n, 1, range(1, p))


def verify_lemma_2_2(p: int, n: int) -> dict:
    """Every length-n tuple has a nonempty zero-sum subset (needs n >= p)."""
    PrimeField(p)
    if n < p:
        raise TooSmallError(f"guarantee needs n >= p = {p}, got n={n}")
    _check_budget("2.2", p, n, 0, 1)
    return _sweep("2.2", p, n, 0, (0,))
