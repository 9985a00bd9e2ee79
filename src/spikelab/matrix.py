"""Dense exact matrices over GF(p), and reduced row echelon form over Q or GF(q).

Entries are raw ints in [0, p); the modulus rides along as a PrimeField.
Rank, determinant and ``rref`` share one fraction-free forward elimination,
``_echelon``, which runs in numpy int64 on a stack of matrices at once, on
integers over Z or on residues mod q, and refuses a stack whose values could
pass int64.  Every value it yields is an integer, and ``rref`` has one scale
in both fields: it returns d times the reduced form, with d its last pivot,
so over Q each entry is a minor of the input, and mod q the same rows
reduced mod q whenever q divides no pivot.  Callers with many small
matrices hand over stacks: the determinant check, ``spikes.check_axioms``,
and the threshold experiment's levels through ``_rref``.
"""

from __future__ import annotations

from math import log2
from random import Random
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    MismatchedShapeError,
    NonSquareError,
    TooLargeError,
    TooSmallError,
    ZeroEntryError,
)
from .field import PrimeField

DETCHECK_MAX_N = 12  # (12, 10^4) takes about 0.2-0.3 s on a 2-core VM
DETCHECK_MAX_SAMPLES = 10_000


class MatrixGF:
    """Row-major matrix over GF(p)."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: PrimeField, rows: Sequence[Sequence[int]]):
        self.field = field
        data = [[int(v) % field.p for v in row] for row in rows]
        if not data or not data[0]:
            raise MismatchedShapeError("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise MismatchedShapeError("ragged rows")
        self.rows = len(data)
        self.cols = width
        self.entries = data

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "MatrixGF":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixGF)
            and other.field == self.field
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.field, tuple(map(tuple, self.entries))))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"MatrixGF({self.field!r}, [{body}])"

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def select_columns(self, cols: Iterable[int]) -> "MatrixGF":
        idx = list(cols)
        return MatrixGF(self.field, [[self.entries[i][j] for j in idx] for i in range(self.rows)])

    def rank(self) -> int:
        return int(_echelon([self.entries], self.field.p)[1][0])

    def det(self) -> int:
        if self.rows != self.cols:
            raise NonSquareError(f"det of {self.rows}x{self.cols} matrix")
        return int(_dets([self.entries], self.field.p)[0])


# residues below 2^31 multiply to below 2^62, so pv*a - c*b fits int64
_MODULUS_LIMIT = 1 << 31


def _check_entry_bound(a: "np.ndarray", q: Optional[int]) -> None:
    """Refuse a stack whose elimination could pass int64, before any of it runs.

    Mod q every product is of two residues, below 2^62 when q < 2^31.  Over
    Z every value the elimination and ``rref`` keep is a minor of the input,
    at most k x k with k = min(r, c), so at most H = N^k with N the largest
    row norm (Hadamard); every value they form on the way is a sum of at
    most k + 1 products of two such minors.  So (k + 1) H^2 must stay below
    2^63.
    """
    if q is not None:
        if q >= _MODULUS_LIMIT:
            raise TooLargeError(f"elimination mod q needs q < 2^31, got {q}")
        return
    k = min(a.shape[1:])
    if not a.size:
        return
    floats = a.astype(np.float64)
    norm_sq = float(np.einsum("brc,brc->br", floats, floats).max())
    # log2 of (k + 1) H^2; the float error is far inside the 2^-20 margin
    bits = k * log2(max(norm_sq, 1.0)) + log2(k + 1)
    if bits >= 63 - 2.0**-20:
        raise TooLargeError(f"elimination values could pass int64 (bound 2^{bits:.2f})")


def _bareiss_step(rows, pivot_row, pv, prev, col: int, q: Optional[int]) -> None:
    """Replace each row a in place by (pv*a - c*b) / prev, with c its entry in
    col and b the pivot row; mod q, prev^-1 multiplies.

    rows are one matrix's, with ints pv and prev, or a stack's, with
    (B, 1, 1) arrays of them; prev None stands for 1, before the first pivot.
    """
    t = rows[..., col, None] * pivot_row[..., None, :]
    rows *= pv
    rows -= t
    if q is None:
        if prev is not None:
            rows //= prev
        return
    rows %= q
    if prev is not None:
        if isinstance(prev, int):
            rows *= pow(prev, -1, q)
        else:
            inv = [pow(v, -1, q) for v in prev.ravel().tolist()]
            rows *= np.array(inv, dtype=np.int64).reshape(prev.shape)
        rows %= q


def _single_steps(
    m, q: Optional[int], lo: int, col: int, prev: int, cols, pivots
) -> tuple[int, int]:
    """Carry one matrix's elimination on from rank lo at column col, prev its
    last pivot (1 before the first), with Python-int pivots on row slices.

    Writes each new pivot's column and value into cols and pivots, and
    returns the rank and the sign of the swaps it made.
    """
    r, c = m.shape
    sign = 1
    for col in range(col, c):
        if lo == r:
            break
        hits = m[lo:, col].nonzero()[0]
        if not len(hits):
            continue
        if hits[0]:
            at = lo + int(hits[0])
            m[[lo, at]] = m[[at, lo]]
            sign = -sign
        pv = int(m[lo, col])
        if lo + 1 < r:
            _bareiss_step(m[lo + 1 :], m[lo], pv, prev if prev != 1 else None, col, q)
        cols[lo], pivots[lo], prev = col, pv, pv
        lo += 1
    return lo, sign


# below this many matrices, a stack whose ranks have parted, and its
# back-substitution, go one matrix at a time: a masked step costs about as
# many numpy calls as six single ones
_MASKED_MIN = 8


def _echelon(
    stack, q: Optional[int] = None
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """One fraction-free (Bareiss) forward elimination of a (B, r, c) stack of
    integer matrices, each on its own, over Z (q None) or GF(q).

    Returns (rows, rank, cols, pivots, sign): the eliminated stack, where
    matrix b holds its rank[b] echelon rows above zero rows; its pivot
    columns and its pivots as they were met, in the first rank[b] entries of
    row b of cols and pivots (B x min(r, c)); and the sign of its row swaps.
    Each step replaces every row below the pivot row by (pv*a - c*b) / prev,
    where pv is the new pivot and prev the one before: exact division over
    Z, so every entry is a minor of the input, and multiplication by
    prev^-1 over GF(q).  The pivot row is the first at or below the
    matrix's rank with a nonzero entry, so over GF(q) this is the run over Z
    reduced mod q if q divides no pivot, and zero rows below the real ones
    change nothing.  The last pivot of a square matrix of full rank is
    sign * det.  ``_check_entry_bound`` refuses the stack first if a value
    could pass int64.  While all the matrices share one rank a step updates
    the slice of rows below it; from the first column where their ranks
    part, it masks the rows at or above each matrix's own, or, with fewer
    than _MASKED_MIN matrices, carries each on alone.  A single matrix runs
    alone from the start: ``_single_steps`` keeps its pivots as Python ints,
    which small matrices notice.
    """
    try:
        a = np.array(stack, dtype=np.int64)
    except OverflowError:
        raise TooLargeError("matrix entries exceed int64") from None
    B, r, c = a.shape
    _check_entry_bound(a, q)
    if q is not None:
        np.remainder(a, q, out=a)
    k = min(r, c)
    cols = np.zeros((B, k), dtype=np.int64)
    pivots = np.zeros((B, k), dtype=np.int64)
    sign = np.ones(B, dtype=np.int64)
    if B == 1:
        rank, sign[0] = _single_steps(a[0], q, 0, 0, 1, cols[0], pivots[0])
        return a, np.array([rank]), cols, pivots, sign
    lo = col = 0
    prev = None
    every = np.arange(B)
    while col < c and lo < r:
        lead = a[:, lo:, col]
        at = lead.astype(bool).argmax(axis=1)
        pv = lead[every, at]
        found = np.count_nonzero(pv)
        if found < B:
            if found:
                break  # the ranks part at this column
            col += 1
            continue
        moved = at.nonzero()[0]
        if len(moved):
            at = at[moved] + lo
            a[moved, lo], a[moved, at] = a[moved, at], a[moved, lo]
            sign[moved] *= -1
        if lo + 1 < r:
            last = prev if lo else None
            _bareiss_step(a[:, lo + 1 :], a[:, lo], pv[:, None, None], last, col, q)
        cols[:, lo] = col
        pivots[:, lo] = pv
        prev = pv[:, None, None]
        lo += 1
        col += 1
    rank = np.full(B, lo, dtype=np.int64)
    if not lo:
        prev = np.ones((B, 1, 1), dtype=np.int64)
    if B < _MASKED_MIN and col < c and lo < r:
        for b, last in enumerate(prev.ravel().tolist()):
            rank[b], turn = _single_steps(a[b], q, lo, col, last, cols[b], pivots[b])
            sign[b] *= turn
        return a, rank, cols, pivots, sign
    below = np.arange(r)
    for col in range(col, c if lo < r else 0):
        nonzero = (a[:, :, col] != 0) & (below >= rank[:, None])
        sel = np.flatnonzero(nonzero.any(axis=1))
        if not len(sel):
            continue
        m = a[sel]
        top = rank[sel]
        at = nonzero[sel].argmax(axis=1)
        moved = np.flatnonzero(at != top)
        if len(moved):
            at, to = at[moved], top[moved]
            m[moved, to], m[moved, at] = m[moved, at], m[moved, to]
            sign[sel[moved]] *= -1
        pivot_row = m[np.arange(len(sel)), top]
        pv = pivot_row[:, col, None, None]
        step = m.copy()
        _bareiss_step(step, pivot_row, pv, prev[sel], col, q)
        a[sel] = np.where((below > top[:, None])[:, :, None], step, m)
        cols[sel, top] = col
        pivots[sel, top] = pv[:, 0, 0]
        prev[sel] = pv
        rank[sel] += 1
    return a, rank, cols, pivots, sign


def _dets(stack, p: int) -> "np.ndarray":
    """The determinant mod p of each square matrix of a stack."""
    _, rank, _, pivots, sign = _echelon(stack, p)
    return np.where(rank == pivots.shape[1], sign * pivots[:, -1] % p, 0)


def _rref(
    stack, q: Optional[int] = None
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """``rref`` of each matrix of a (B, r, c) stack: (rows, rank, cols, pivots),
    with matrix b's rank[b] reduced rows on top and its cols and pivots as
    ``_echelon`` returns them.

    Back-substitution takes one later row j at a time, for the rows above
    it in every matrix that has a row j.  Fewer than _MASKED_MIN matrices
    take it one at a time, with Python-int pivots on row slices.
    """
    a, rank, cols, pivots, _ = _echelon(stack, q)
    B = len(a)
    k = int(rank.max()) if B else 0
    if k < 2:
        return a, rank, cols, pivots
    echelon = a[:, :k].copy()
    if B < _MASKED_MIN:
        for m, lead, kb, cb, pv in zip(a, echelon, rank.tolist(), cols.tolist(), pivots.tolist()):
            if kb > 1:
                acc = pv[kb - 1] * lead[: kb - 1]
                for j in range(kb - 1, 0, -1):
                    acc[:j] -= lead[:j, cb[j], None] * m[j]
                    if q is None:
                        m[j - 1] = acc[j - 1] // pv[j - 1]
                    else:
                        acc[:j] %= q
                        m[j - 1] = acc[j - 1] * pow(pv[j - 1], -1, q) % q
        return a, rank, cols, pivots
    # lead[b, i, j]: row i's entry in matrix b's pivot column j
    lead = np.take_along_axis(echelon, np.broadcast_to(cols[:, None, :k], (B, k, k)), axis=2)
    last = pivots[np.arange(B), np.maximum(rank - 1, 0)]
    acc = last[:, None, None] * echelon[:, :-1]
    for j in range(k - 1, 0, -1):
        sel = np.flatnonzero(rank > j)
        part = acc[sel, :j] - lead[sel, :j, j, None] * a[sel, j, None, :]
        pv = pivots[sel, j - 1]
        if q is None:
            a[sel, j - 1] = part[:, j - 1] // pv[:, None]
        else:
            part %= q
            inv = np.array([pow(v, -1, q) for v in pv.tolist()], dtype=np.int64)
            a[sel, j - 1] = part[:, j - 1] * inv[:, None] % q
        acc[sel, :j] = part
    return a, rank, cols, pivots


def rref(
    rows, q: Optional[int] = None
) -> tuple[list[list[int]], list[int], list[int]]:
    """d times the reduced row echelon form of an integer matrix, over Q (q None)
    or over GF(q), with d the last pivot.

    Returns the nonzero reduced rows, their pivot columns, and each pivot as
    ``_echelon`` met it, all as plain ints.  Back-substitution keeps the
    rows integral: from the last pivot row up, row k becomes (d*row_k - sum
    of row_k[c_j] * row_j over the later pivot rows) / pv_k, with d the last
    pivot and the later rows already in this form, so every pivot entry
    becomes d and every other pivot column entry 0.  Over Q, by Cramer's
    rule, each entry is, up to sign, a minor of the input; over GF(q) the
    division is by the inverse, so the rows are those over Q reduced mod q
    if q divides no pivot.
    """
    if not len(rows):
        return [], [], []
    a, rank, cols, pivots = _rref([rows], q)
    k = int(rank[0])
    return a[0, :k].tolist(), cols[0, :k].tolist(), pivots[0, :k].tolist()


def spike_det(field: PrimeField, x: Sequence[int]) -> int:
    """det(all-ones + diag(x)) = (1 + sum of inverses) * product, in O(n)."""
    inv_sum = 0
    prod = 1
    for v in x:
        v %= field.p
        if v == 0:
            raise ZeroEntryError("diagonal entries must be nonzero")
        inv_sum = (inv_sum + field.inv(v)) % field.p
        prod = (prod * v) % field.p
    return ((1 + inv_sum) * prod) % field.p


def ones_plus_diag(field: PrimeField, x: Sequence[int]) -> MatrixGF:
    """The explicit n x n matrix with 1 + x_i on the diagonal, 1 elsewhere."""
    n = len(x)
    return MatrixGF(
        field,
        [[1 + x[i] if i == j else 1 for j in range(n)] for i in range(n)],
    )


def verify_det_identity(p: int, n_max: int = 7, samples: int = 500, seed: int = 0) -> dict:
    """Check spike_det against Gaussian elimination on random diagonals."""
    field = PrimeField(p)
    if n_max < 1:
        raise TooSmallError(f"determinant check needs n_max >= 1, got {n_max}")
    if samples < 0:
        raise TooSmallError(f"sample count must be >= 0, got {samples}")
    if n_max > DETCHECK_MAX_N:
        raise TooLargeError(f"determinant check capped at n_max={DETCHECK_MAX_N}, got {n_max}")
    if samples > DETCHECK_MAX_SAMPLES:
        raise TooLargeError(
            f"determinant check capped at {DETCHECK_MAX_SAMPLES} samples, got {samples}"
        )
    rng = Random(seed)
    draws = []
    for _ in range(samples):
        n = rng.randint(1, n_max)
        draws.append([rng.randint(1, p - 1) for _ in range(n)])
    # one stack of explicit matrices per n, eliminated at once
    slow = [0] * samples
    by_n: dict[int, list[int]] = {}
    for i, x in enumerate(draws):
        by_n.setdefault(len(x), []).append(i)
    for n, at in by_n.items():
        stack = np.ones((len(at), n, n), dtype=np.int64)
        stack[:, range(n), range(n)] += np.array([draws[i] for i in at], dtype=np.int64)
        for i, det in zip(at, _dets(stack, p).tolist()):
            slow[i] = det
    failures = []
    for x, det in zip(draws, slow):
        fast = spike_det(field, x)
        if fast != det:
            failures.append({"x": x, "closed_form": fast, "elimination": det})
    return {
        "p": p,
        "n_max": n_max,
        "samples": samples,
        "checked": samples,
        "failures": failures,
    }
