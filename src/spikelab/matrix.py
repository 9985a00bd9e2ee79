"""Dense exact matrices over GF(p), and reduced row echelon form over Q or GF(q).

Entries are raw ints in [0, p); the modulus rides along as a PrimeField.
Rank, determinant and ``rref`` share one fraction-free forward elimination,
``_echelon``, which runs on integers over Z or on residues mod q.  Every
value it yields is an integer, and ``rref`` has one scale in both fields:
it returns d times the reduced form, with d its last pivot, so over Q each
entry is a minor of the input, and mod q the same rows reduced mod q
whenever q divides no pivot.
"""

from __future__ import annotations

from random import Random
from typing import Iterable, Optional, Sequence

from .errors import (
    MismatchedShapeError,
    NonSquareError,
    TooLargeError,
    TooSmallError,
    ZeroEntryError,
)
from .field import PrimeField

DETCHECK_MAX_N = 12  # (12, 10^4) takes about 1.2 s on a 2-core VM
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
        return len(_echelon(self.entries, self.field.p)[1])

    def det(self) -> int:
        if self.rows != self.cols:
            raise NonSquareError(f"det of {self.rows}x{self.cols} matrix")
        _, cols, pivots, sign = _echelon(self.entries, self.field.p)
        if len(cols) < self.rows:
            return 0
        return sign * pivots[-1] % self.field.p


def _echelon(
    rows: Sequence[Sequence[int]], q: Optional[int] = None
) -> tuple[list[list[int]], list[int], list[int], int]:
    """One fraction-free (Bareiss) forward elimination, over Z (q None) or GF(q).

    Returns the nonzero echelon rows, their pivot columns, each pivot as it
    was met, and the sign of the row swaps.  Each step replaces every row
    below the pivot row by (pv*a - c*b) / prev, where pv is the new pivot
    and prev the one before: exact division over Z, so every entry is a
    minor of the input, and multiplication by prev^-1 over GF(q).  The
    pivot row is the first at or below the rank with a nonzero entry, so
    over GF(q) this is the run over Z reduced mod q if q divides no pivot.
    The last pivot of a square matrix of full rank is sign * det.
    """
    mat = [[v if q is None else v % q for v in row] for row in rows]
    nrows = len(mat)
    cols: list[int] = []
    pivots: list[int] = []
    sign = 1
    prev = 1
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        for r in range(rank, nrows):
            if mat[r][col]:
                break
        else:
            continue
        if r != rank:
            mat[rank], mat[r] = mat[r], mat[rank]
            sign = -sign
        pivot_row = mat[rank]
        pv = pivot_row[col]
        if q is not None:
            inv = pow(prev, -1, q)
            s = pv * inv % q
        for i in range(rank + 1, nrows):
            other = mat[i]
            c = other[col]
            if not c and pv == prev:
                continue  # the update would leave the row as it is
            if q is None:
                mat[i] = [(pv * a - c * b) // prev for a, b in zip(other, pivot_row)]
            else:
                t = c * inv % q
                mat[i] = [(s * a - t * b) % q for a, b in zip(other, pivot_row)]
        cols.append(col)
        pivots.append(pv)
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return mat[:rank], cols, pivots, sign


def rref(
    rows: Sequence[Sequence[int]], q: Optional[int] = None
) -> tuple[list[list[int]], list[int], list[int]]:
    """d times the reduced row echelon form of an integer matrix, over Q (q None)
    or over GF(q), with d the last pivot.

    Returns the nonzero reduced rows, their pivot columns, and each pivot as
    ``_echelon`` met it.  Back-substitution keeps the rows integral: from
    the last pivot row up, row k becomes (d*row_k - sum of row_k[c_j] *
    row_j over the later pivot rows) / pv_k, with d the last pivot and the
    later rows already in this form, so every pivot entry becomes d and
    every other pivot column entry 0.  Over Q, by Cramer's rule, each entry
    is, up to sign, a minor of the input; over GF(q) the division is by the
    inverse, so the rows are those over Q reduced mod q if q divides no pivot.
    """
    mat, cols, pivots, _ = _echelon(rows, q)
    d = pivots[-1] if pivots else 1
    for k in range(len(cols) - 2, -1, -1):
        row = mat[k]
        acc = [d * a for a in row]
        for j in range(k + 1, len(cols)):
            c = row[cols[j]]
            if c:
                acc = [a - c * b for a, b in zip(acc, mat[j])]
        if q is None:
            mat[k] = [a // pivots[k] for a in acc]
        else:
            inv = pow(pivots[k], -1, q)
            mat[k] = [a * inv % q for a in acc]
    return mat, cols, pivots


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
        [[(1 + x[i]) % field.p if i == j else 1 for j in range(n)] for i in range(n)],
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
    failures = []
    checked = 0
    for _ in range(samples):
        n = rng.randint(1, n_max)
        x = [rng.randint(1, p - 1) for _ in range(n)]
        fast = spike_det(field, x)
        slow = ones_plus_diag(field, x).det()
        checked += 1
        if fast != slow:
            failures.append({"x": x, "closed_form": fast, "elimination": slow})
    return {
        "p": p,
        "n_max": n_max,
        "samples": samples,
        "checked": checked,
        "failures": failures,
    }
