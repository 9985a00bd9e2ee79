"""Subset-sum witnesses over GF(p) and the exhaustive lemma verifiers.

Reachable sums are tracked as a p-bit register: adding a_i maps bit s to bit
(s + a_i) mod p, a left rotation.  One kernel steps a (T, n) array of tuples
at once, one register a row: uint64 below p = 64, a Python int in an object
array from there.  It stops once every register holds every target, and
keeps the residues each step first reaches.  A witness is rebuilt by walking
first-reach steps backwards, which lands on the least-bitmask witness by
construction, and every witness is re-summed from its recorded steps before
it counts.  A register is a set, so a sweep runs the kernel once over the
level's sorted tuples and counts each tuple's arrangements; a failing sorted
tuple is expanded into its arrangements, which run the kernel once more.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    NoWitnessError,
    OutOfRangeError,
    TooSmallError,
    VerdictMismatchError,
    ZeroEntryError,
)
from .field import PrimeField
from .spikes import _arrangement_counts, _level

# register steps: a sweep over [low, p)^n with T targets counts n * (1 + T)
# for each of its S = C(p - low + n - 1, n) sorted tuples, the kernel's n
# steps and the witness walk's n layers a target, each step one numpy pass
# over the level.  Memory: 8 bytes a kernel step (the uint64 layers, or the
# int64 entries the arrangement count reads first), two bytes a walk step
# (the steps each witness takes, and their entries while they are re-summed)
# and a byte a level entry, about 30 MB at most; a level of one 2.5M-entry
# tuple is built through Python tuples (40 MB traced).  The largest admitted sweeps take 0.03-0.12 s and 39-70 MB with
# the interpreter on a 2-core VM
VERIFY_BUDGET = 5 * 10**6

# tuple entries the kernel widens to registers at a time
_WIDEN = 1 << 16


def _reach_history(
    p: int, a: "np.ndarray", targets: Sequence[int]
) -> tuple["np.ndarray", "np.ndarray"]:
    """Each step's first-reach layers over a (T, n) array of tuples, and the
    final registers.

    Returns (layers, R): R[t] is the p-bit mask of sums of nonempty subsets
    of row t, and layers[i, t] the mask of residues that enter it at step i,
    from 0.  The kernel stops once every register holds every target, so
    there is one layer per step taken, and R holds each target a row
    reaches; a row's layers are disjoint, and zero once its own register is
    full.
    """
    # a reachability register over residues, not a per-mask table: no subset_sums
    dtype = np.dtype(np.uint64 if p < 64 else object)
    full = dtype.type((1 << p) - 1)
    wanted = dtype.type(sum(1 << int(t) for t in set(targets)))
    # the residues each register lacks, and Z = R | 1: adding v to the sums
    # and to 0 rotates Z left by v
    lacks = np.empty(len(a), dtype=dtype)
    lacks.fill(full)
    Z = np.empty(len(a), dtype=dtype)
    Z.fill(1)
    layers = np.empty(a.shape[::-1], dtype=dtype)
    width = max(1, _WIDEN // max(1, len(a)))
    for start in range(0, a.shape[1], width):
        v = a[:, start : start + width].T.astype(dtype, order="C")
        w = p - v
        for i in range(len(v)):
            new = layers[start + i]
            np.bitwise_and(Z << v[i] | Z >> w[i], lacks, out=new)
            Z |= new
            lacks ^= new
            if not np.count_nonzero(lacks & wanted):
                return layers[: start + i + 1], full ^ lacks
    return layers, full ^ lacks


def _witnesses(p: int, a: "np.ndarray", layers: "np.ndarray", targets: Sequence[int]) -> "np.ndarray":
    """The least-bitmask witness of every target for every row of a, as a
    (steps, rows, targets) bool array of the steps each takes.

    The registers are monotone, so each walk goes down the layers from the
    last to the one where its target was first reached, takes that step,
    subtracts its entry, and goes on down for the rest until it is zero.
    No walk takes a step above the last layer that holds a target, so the
    walks start there.  Each layer is read once, so a corrupt history gives
    a witness that fails its re-sum instead of a loop.
    """
    wanted = layers.dtype.type(sum(1 << int(t) for t in set(targets)))
    held = (np.bitwise_or.reduce(layers, axis=1) & wanted).nonzero()[0]
    top = int(held[-1]) + 1 if len(held) else 0
    # k: the residue each walk has left to reach, or p once it is done
    after = _after(p)
    back = p - 1 - a[:, :top]
    k = np.empty((len(a), len(targets)), dtype=after.dtype)
    k[:] = targets
    one = layers.dtype.type(1)
    steps = np.zeros((top,) + k.shape, dtype=bool)
    for i in range(top - 1, -1, -1):
        hit = steps[i]
        np.bitwise_and(layers[i][:, None] >> k, one, out=hit, casting="unsafe")
        k = np.where(hit, after[k + back[:, i : i + 1]], k)
    return steps


# a sweep reads a few primes; the solvers any, with a table of 2p entries each
@lru_cache(maxsize=8)
def _after(p: int) -> "np.ndarray":
    """The witness walk's step table, read-only: k is the residue left, or p
    once it is zero, which no layer holds, and a step of entry a takes k to
    after[k + p - 1 - a], that is (k - a) % p, or p for 0."""
    after = (np.arange(2 * p) % p + 1).astype(np.min_scalar_type(2 * p))
    after.setflags(write=False)
    return after


def _resums(p: int, a: "np.ndarray", steps: "np.ndarray", targets: "np.ndarray") -> "np.ndarray":
    """(rows, targets) bool: a witness counts iff it is nonempty and its
    recorded steps sum to its target mod p."""
    taken = steps * a.T[: len(steps), :, None]
    total = np.add.reduce(taken, axis=0, dtype=np.int64)
    return np.logical_or.reduce(steps, axis=0) & (total % p == targets)


def _failures(p: int, a: "np.ndarray", targets: Sequence[int]) -> list[list[dict]]:
    """The failures of each row of a (T, n) array that has any, in row order,
    each row's in target order: a target its register lacks, or one whose
    witness does not re-sum, named with that witness."""
    layers, R = _reach_history(p, a, targets)
    targets = np.array(targets)
    steps = _witnesses(p, a, layers, targets)
    reached = (R[:, None] >> targets.astype(R.dtype) & 1).astype(bool)
    good = reached & _resums(p, a, steps, targets)
    if good.all():
        return []
    out = []
    for t in (~good).any(axis=1).nonzero()[0].tolist():
        row = a[t].tolist()
        fs = []
        for j in (~good[t]).nonzero()[0].tolist():
            f = {"a": list(row), "k": int(targets[j])}
            if reached[t, j]:
                f["witness"] = (steps[:, t, j].nonzero()[0] + 1).tolist()
            fs.append(f)
        out.append(fs)
    return out


def _solve(p: int, a: tuple[int, ...], target: int) -> tuple[int, ...]:
    row = np.array([a], dtype=np.int64).reshape(1, len(a))
    layers, R = _reach_history(p, row, (target,))
    if not int(R[0]) >> target & 1:
        raise NoWitnessError(f"no nonempty subset of {a} sums to {target} mod {p}")
    steps = _witnesses(p, row, layers, (target,))
    witness = tuple((np.flatnonzero(steps[:, 0, 0]) + 1).tolist())
    if not _resums(p, row, steps, np.array([target]))[0, 0]:
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

    The kernel runs once over the level's sorted tuples, each of which
    stands for all of its arrangements; their counts must add up to
    (p - low)^n.  A failing (sorted tuple, target) is expanded into those of
    its arrangements that fail on their own run, one kernel run a sorted
    tuple.  A failure names the tuple and target, plus the witness when one
    was rebuilt but did not re-sum; failures come in product order, then
    target order.
    """
    # the sorted n-tuples of [low, p): those of [1, p + 1 - low), shifted
    level = _level(p + 1 - low, n)
    if not low:
        level -= 1
    counts, patterns = _arrangement_counts(level, low, p)
    total = sum(map(mul, counts, np.bincount(patterns).tolist()))
    failing = []
    for bad in _failures(p, level, targets):
        ks = [f["k"] for f in bad]
        arrangements = np.array(list(_distinct_arrangements(tuple(bad[0]["a"]))), dtype=level.dtype)
        failing.extend(_failures(p, arrangements, ks))
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
