"""Subset-sum witnesses over GF(p) and the exhaustive lemma verifiers.

Reachable sums are tracked as a p-bit register: adding a_i maps bit s to
bit (s + a_i) mod p, a left rotation.  A sweep runs in blocks of rows that
share their leading coordinates, the head: the head's register advances
once, as one Python int, and past it each coordinate keeps one register
per distinct prefix of the block's rows, not one per row.  The step at
which each residue is first reached is kept per prefix of n-1 entries, and
every row's witness is rebuilt by walking first-reach steps backwards,
which lands on the least-bitmask witness by construction; each witness is
re-summed before it counts.  A solver is a one-row block, all head.
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

# register steps: a block of r rows, n coordinates and T targets counts
# r * n * (1 + T); large sweeps run at 3-6 ns a counted step on a 2-core VM
VERIFY_BUDGET = 10**9

# rows per sweep block: it bounds the memory of the block's entries and
# witness masks to a few MB per coordinate
_SWEEP_CHUNK = 1 << 16

# a block counts as at least this many rows: numpy's per-call cost dominates
# small blocks (a 256-row block runs at 80-90 ns a counted step), while a
# one-row block, all head, costs about 0.1 us a coordinate
_BLOCK_MIN_ROWS = 512


def _register_dtype(p: int):
    """A p-bit register fits a machine word below p = 64; past it, Python ints."""
    return np.uint64 if p < 64 else object


def _reach_history(p: int, head: Sequence[int], low: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """First-reach steps and final registers of the block head x [low, p)^t.

    The block's rows are head followed by each t-tuple over [low, p), the
    last coordinate fastest.  Returns (first, final): final[r] is the
    register of row r, the p-bit mask of sums of nonempty subsets of its n
    entries, and first[q, k] is the step, from 0, at which residue k enters
    the registers of the q-th distinct prefix of n-1 entries, or n-1 if it
    does not (in a one-row block, n if it never does).  The head's register
    is one Python int; past it, each step holds one register per distinct
    prefix, never one per row.
    """
    # a reachability register over residues, not a per-mask table: no subset_sums
    n = len(head) + t
    full = (1 << p) - 1
    # the step at which each residue first enters the head's register
    enters = [len(head)] * p
    R = 0
    for i, a in enumerate(head):
        grown = R | ((R << a | R >> (p - a)) & full) | 1 << a
        new, R = grown & ~R, grown
        while new:
            enters[(new & -new).bit_length() - 1] = i
            new &= new - 1
        if R == full:
            break
    first = np.array([enters], dtype=np.min_scalar_type(n))
    dtype = _register_dtype(p)
    level = np.array([R], dtype=dtype)
    if not t:
        return first, level
    values = np.arange(low, p).astype(dtype)[None, :]
    spread = 1 << values
    residues = np.arange(p).astype(dtype)
    for j in range(t):
        if j:
            # a residue the last step's register lacks enters one step later
            first = np.repeat(first, p - low, axis=0) + (level[:, None] >> residues & 1 == 0)
        R = level[:, None]
        level = (R | ((R << values | R >> (p - values)) & full) | spread).reshape(-1)
    return first, level


def _reconstruct(
    p: int, block: np.ndarray, first: np.ndarray, final: np.ndarray, target: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per row: whether its final register holds target, and the least-bitmask
    witness as an (n, rows) step mask, all False where the target is unreached.

    block holds the rows' entries, one line per step.  The registers are
    monotone, so from a residue the final register holds, the walk goes to
    the step where it was first reached, subtracts that step's entry and
    repeats until zero.  The rows of one prefix read the same first-reach
    steps.
    """
    n, rows = block.shape
    reached = final >> target & 1 != 0
    mask = np.zeros((n, rows), dtype=bool)
    live = np.flatnonzero(reached)
    # where the steps of each live row's prefix start in the flat table
    at = live // (rows // len(first)) * p
    k = np.full(live.size, target, dtype=np.int64)
    first, entries, marks = first.reshape(-1), block.reshape(-1), mask.reshape(-1)
    # each step is earlier than the last, so a sound walk ends within n steps
    for _ in range(n):
        if not live.size:
            break
        cell = np.multiply(first[at + k], rows, dtype=np.intp) + live
        marks[cell] = True
        k = (k - entries[cell]) % p
        going = k != 0
        live, at, k = live[going], at[going], k[going]
    return reached, mask


def _solve(p: int, a: tuple[int, ...], target: int) -> tuple[int, ...]:
    first, final = _reach_history(p, a, 0, 0)
    block = np.array(a, dtype=np.int64).reshape(len(a), 1)
    reached, mask = _reconstruct(p, block, first, final, target)
    if not reached[0]:
        raise NoWitnessError(f"no nonempty subset of {a} sums to {target} mod {p}")
    witness = tuple(int(i) + 1 for i in np.flatnonzero(mask))
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
    # one line of entries per step, one column per row
    block = np.empty((n, m**t), dtype=np.min_scalar_type(p))
    codes = np.arange(m**t)
    for j in range(n - 1, n - 1 - t, -1):  # the last coordinate varies fastest
        codes, block[j] = np.divmod(codes, m)
    block[n - t :] += low
    checked = 0
    failures = []
    for head in product(range(low, p), repeat=n - t):
        block[: n - t] = np.reshape(head, (-1, 1))
        first, final = _reach_history(p, head, low, t)
        verdicts = []
        bad = np.zeros(block.shape[1], dtype=bool)
        for k in targets:
            reached, mask = _reconstruct(p, block, first, final, k)
            checked += block.shape[1]
            wrong = reached & ((block * mask).sum(axis=0, dtype=np.int64) % p != k)
            bad |= ~reached | wrong
            verdicts.append((k, reached, mask, wrong))
        for r in np.flatnonzero(bad):
            row = [int(v) for v in block[:, r]]
            for k, reached, mask, wrong in verdicts:
                if not reached[r]:
                    failures.append({"a": row, "k": k})
                elif wrong[r]:
                    witness = [int(i) + 1 for i in np.flatnonzero(mask[:, r])]
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
