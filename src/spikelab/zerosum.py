"""Subset-sum witnesses over GF(p) and the exhaustive lemma verifiers.

Reachable sums are tracked as a p-bit register: adding a_i maps bit s to
bit (s + a_i) mod p, a left rotation.  One register per row advances one
coordinate at a time over a whole block of rows, and the history of
registers lets every row's witness be rebuilt at once by walking
first-reach steps backwards, which lands on the least-bitmask witness by
construction.
"""

from __future__ import annotations

from itertools import product
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

# register steps: a block of r rows, n coordinates and T targets takes
# r * n * (1 + T); large sweeps run at 15-40 ns a step on a 2-core VM
VERIFY_BUDGET = 10**9

# rows per sweep block: it bounds the memory of the block's registers,
# history and witness masks to a few MB per coordinate
_SWEEP_CHUNK = 1 << 16

# below this many rows numpy's per-call cost dominates a block: a one-row
# block takes about 11 us a coordinate, 512 rows' steps at 20 ns
_BLOCK_MIN_ROWS = 512


def _register_dtype(p: int):
    """A p-bit register fits a machine word below p = 64; past it, Python ints."""
    return np.uint64 if p < 64 else object


def _reach_history(p: int, a: np.ndarray) -> np.ndarray:
    """hist[i, r] = bitmask of sums attainable by nonempty subsets of a[r, :i+1]."""
    # a reachability register over residues, not a per-mask table: no subset_sums
    dtype = _register_dtype(p)
    cols = np.ascontiguousarray(np.asarray(a, dtype=dtype).T)
    n, rows = cols.shape
    full = (1 << p) - 1
    hist = np.empty((n, rows), dtype=dtype)
    R = np.zeros(rows, dtype=dtype)
    for i, ai in enumerate(cols):
        R = R | ((R << ai | R >> (p - ai)) & full) | (1 << ai)
        hist[i] = R
    return hist


def _reconstruct(
    p: int, a: np.ndarray, hist: np.ndarray, target: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per row: whether the final register holds target, and the least-bitmask
    witness as a (rows, n) step mask, all False where the target is unreached.

    The history is monotone, so a residue the final register holds is first
    reached at the step that counts the earlier registers lacking it; the
    walk goes there, subtracts that step's entry and repeats until zero.
    """
    n, rows = hist.shape
    a = np.asarray(a, dtype=hist.dtype)
    reached = (hist[-1:] >> target & 1 != 0).any(axis=0)
    mask = np.zeros((rows, n), dtype=bool)
    live = np.flatnonzero(reached)
    k = np.full(live.size, target, dtype=hist.dtype)
    while live.size:
        step = (hist[:-1, live] >> k & 1 == 0).sum(axis=0)
        mask[live, step] = True
        k = (k + p - a[live, step]) % p
        going = k != 0
        live, k = live[going], k[going]
    return reached, mask


def _solve(p: int, a: tuple[int, ...], target: int) -> tuple[int, ...]:
    rows = np.array(a, dtype=_register_dtype(p)).reshape(1, len(a))
    reached, mask = _reconstruct(p, rows, _reach_history(p, rows), target)
    if not reached[0]:
        raise NoWitnessError(f"no nonempty subset of {a} sums to {target} mod {p}")
    witness = tuple(int(i) + 1 for i in np.flatnonzero(mask[0]))
    if sum(a[i - 1] for i in witness) % p != target:
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


def _block_width(m: int, n: int) -> int:
    """How many trailing coordinates a block spans: as many as fit in
    _SWEEP_CHUNK rows (none when m = 1, where every block is one row)."""
    t = 0
    while t < n and 1 < m ** (t + 1) <= _SWEEP_CHUNK:
        t += 1
    return t


def _check_budget(lemma: str, p: int, n: int, low: int, targets: int) -> None:
    """Refuse a sweep over [low, p)^n of more than VERIFY_BUDGET register steps."""
    m, t = p - low, _block_width(p - low, n)
    # past 2^64 blocks any sweep is over budget; the cap keeps the power small
    if m ** min(n - t, 64) * max(m**t, _BLOCK_MIN_ROWS) * n * (1 + targets) > VERIFY_BUDGET:
        raise BudgetExceededError(
            f"lemma {lemma} at p={p}, n={n} exceeds the budget of {VERIFY_BUDGET} register steps"
        )


def _sweep(lemma: str, p: int, n: int, low: int, targets: Sequence[int]) -> dict:
    """Rebuild and re-sum a witness for every target of every tuple in [low, p)^n.

    The product runs in blocks: the trailing coordinates that fit in
    _SWEEP_CHUNK rows span a block, and the leading ones are enumerated.  A
    failure names the tuple and target, plus the witness when one was rebuilt
    but did not re-sum; failures come in product order, then target order.
    """
    m = p - low
    t = _block_width(m, n)
    block = np.empty((m**t, n), dtype=_register_dtype(p))
    codes = np.arange(m**t)
    for j in range(n - 1, n - 1 - t, -1):  # the last coordinate varies fastest
        codes, block[:, j] = np.divmod(codes, m)
    block[:, n - t :] += low
    checked = 0
    failures = []
    for head in product(range(low, p), repeat=n - t):
        block[:, : n - t] = head
        hist = _reach_history(p, block)
        verdicts = []
        bad = np.zeros(len(block), dtype=bool)
        for k in targets:
            reached, mask = _reconstruct(p, block, hist, k)
            checked += len(block)
            wrong = reached & (np.where(mask, block, 0).sum(axis=1) % p != k)
            bad |= ~reached | wrong
            verdicts.append((k, reached, mask, wrong))
        for r in np.flatnonzero(bad):
            row = [int(v) for v in block[r]]
            for k, reached, mask, wrong in verdicts:
                if not reached[r]:
                    failures.append({"a": row, "k": k})
                elif wrong[r]:
                    witness = [int(i) + 1 for i in np.flatnonzero(mask[r])]
                    failures.append({"a": row, "k": k, "witness": witness})
    return {"lemma": lemma, "p": p, "n": n, "checked": checked, "failures": failures}


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
