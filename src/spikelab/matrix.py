"""Dense exact matrices over GF(p), and reduced row echelon form over Q or GF(q).

Entries are raw ints in [0, p); the modulus rides along as a PrimeField.
Everything here is pivoted Gaussian elimination, exact over a finite field
or, through ``rref``, over the rationals with ``Fraction`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Optional, Sequence

from .errors import (
    MismatchedModulusError,
    MismatchedShapeError,
    NonSquareError,
    RankDeficientError,
    TooLargeError,
    TooSmallError,
    ZeroEntryError,
)
from .field import PrimeField

BASIS_FAMILY_MAX_COLS = 21
BASIS_FAMILY_MAX_ROWS = 10


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

    def copy_entries(self) -> list[list[int]]:
        return [row[:] for row in self.entries]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def select_columns(self, cols: Iterable[int]) -> "MatrixGF":
        idx = list(cols)
        return MatrixGF(self.field, [[self.entries[i][j] for j in idx] for i in range(self.rows)])

    def matmul(self, other: "MatrixGF") -> "MatrixGF":
        if other.field != self.field:
            raise MismatchedModulusError("matmul across different moduli")
        if self.cols != other.rows:
            raise MismatchedShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        p = self.field.p
        out = []
        for i in range(self.rows):
            arow = self.entries[i]
            out.append(
                [
                    sum(arow[k] * other.entries[k][j] for k in range(self.cols)) % p
                    for j in range(other.cols)
                ]
            )
        return MatrixGF(self.field, out)

    # elimination --------------------------------------------------------

    def _eliminate(self, mat: list[list[int]]) -> tuple[int, int, int]:
        """In-place row reduction; returns (rank, det_sign, pivot_product mod p)."""
        p = self.field.p
        nrows, ncols = len(mat), len(mat[0])
        rank = 0
        sign = 1
        pivprod = 1
        for col in range(ncols):
            if rank == nrows:
                break
            pivot = next((r for r in range(rank, nrows) if mat[r][col]), -1)
            if pivot == -1:
                continue
            if pivot != rank:
                mat[rank], mat[pivot] = mat[pivot], mat[rank]
                sign = -sign
            pv = mat[rank][col]
            pivprod = (pivprod * pv) % p
            inv = self.field.inv(pv)
            row = mat[rank]
            for r in range(rank + 1, nrows):
                c = mat[r][col]
                if c:
                    factor = (c * inv) % p
                    mr = mat[r]
                    for k in range(col, ncols):
                        mr[k] = (mr[k] - factor * row[k]) % p
            rank += 1
        return rank, sign, pivprod

    def rank(self) -> int:
        r, _, _ = self._eliminate(self.copy_entries())
        return r

    def det(self) -> int:
        if self.rows != self.cols:
            raise NonSquareError(f"det of {self.rows}x{self.cols} matrix")
        mat = self.copy_entries()
        rank, sign, pivprod = self._eliminate(mat)
        if rank < self.rows:
            return 0
        return pivprod if sign == 1 else -pivprod % self.field.p

    def inverse(self) -> "MatrixGF":
        """Inverse via Gauss-Jordan on [M | I]."""
        if self.rows != self.cols:
            raise NonSquareError(f"inverse of {self.rows}x{self.cols} matrix")
        n = self.rows
        aug = [row + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(self.entries)]
        reduced, cols, _ = rref(aug, self.field.p)
        if cols[:n] != list(range(n)):
            raise RankDeficientError("matrix is singular")
        return MatrixGF(self.field, [row[n:] for row in reduced])


def rref(
    rows: Sequence[Sequence[int]], q: Optional[int] = None
) -> tuple[list[list], list[int], list[int]]:
    """Reduced row echelon form of an integer matrix over Q (q None) or over GF(q).

    Returns the nonzero reduced rows (Fraction entries over Q), their pivot
    columns, and each pivot as it was met.  Fraction-free Gauss-Jordan: each
    step multiplies every row by the new pivot and divides exactly by the
    previous one, so over Q the entries stay integers (minors of the input).
    The pivot row is the first at or below the rank with a nonzero entry, so
    over GF(q) this is the run over Q reduced mod q if q divides no pivot.
    """
    mat = [[v if q is None else v % q for v in row] for row in rows]
    cols: list[int] = []
    pivots: list[int] = []
    prev = 1
    for col in range(len(mat[0]) if mat else 0):
        rank = len(cols)
        r = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if r is None:
            continue
        mat[rank], mat[r] = mat[r], mat[rank]
        pivot_row = mat[rank]
        pv = pivot_row[col]
        inv = 1 if q is None else pow(prev, -1, q)
        for i, other in enumerate(mat):
            if i == rank:
                continue
            c = other[col]
            if q is None:
                mat[i] = [(pv * a - c * b) // prev for a, b in zip(other, pivot_row)]
            else:
                mat[i] = [(pv * a - c * b) * inv % q for a, b in zip(other, pivot_row)]
        cols.append(col)
        pivots.append(pv)
        prev = pv
    # every pivot entry now equals the last pivot
    if q is None:
        return [[Fraction(v, prev) for v in row] for row in mat[: len(cols)]], cols, pivots
    inv = pow(prev, -1, q)
    return [[v * inv % q for v in row] for row in mat[: len(cols)]], cols, pivots


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


@dataclass(frozen=True)
class BasisFamily:
    """All full-rank column selections of a matrix, as bitmasks over columns 1..groundSize."""

    n: int
    ground_size: int
    members: tuple[int, ...]  # sorted ascending bitmasks, column j at bit j-1

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.members


def basis_family(M: MatrixGF) -> BasisFamily:
    """Enumerate all rows-sized independent column subsets.

    Lexicographic DFS over column indices with an incremental echelon basis:
    a dependent prefix kills the whole subtree since subsets of independent
    sets stay independent.
    """
    if M.cols > BASIS_FAMILY_MAX_COLS or M.rows > BASIS_FAMILY_MAX_ROWS:
        raise TooLargeError(
            f"{M.rows}x{M.cols} exceeds basis enumeration cap "
            f"{BASIS_FAMILY_MAX_ROWS}x{BASIS_FAMILY_MAX_COLS}"
        )
    if M.rank() != M.rows:
        raise RankDeficientError("matrix does not have full row rank")
    n = M.rows
    p = M.field.p
    inv = M.field.inv
    colvecs = [list(M.column(j)) for j in range(M.cols)]
    members: list[int] = []
    echelon: list[tuple[int, list[int]]] = []  # (pivot index, normalized vector)
    chosen: list[int] = []

    def dfs(start: int) -> None:
        if len(chosen) == n:
            members.append(sum(1 << j for j in chosen))
            return
        last = M.cols - (n - len(chosen))
        for j in range(start, last + 1):
            v = colvecs[j][:]
            for piv, row in echelon:
                c = v[piv]
                if c:
                    for k in range(piv, n):
                        v[k] = (v[k] - c * row[k]) % p
            piv = next((k for k in range(n) if v[k]), -1)
            if piv == -1:
                continue
            scale = inv(v[piv])
            v = [(scale * t) % p for t in v]
            echelon.append((piv, v))
            chosen.append(j)
            dfs(j + 1)
            echelon.pop()
            chosen.pop()

    dfs(0)
    members.sort()
    return BasisFamily(n=n, ground_size=M.cols, members=tuple(members))


def verify_det_identity(p: int, n_max: int = 7, samples: int = 500, seed: int = 0) -> dict:
    """Check spike_det against Gaussian elimination on random diagonals."""
    field = PrimeField(p)
    if n_max < 1:
        raise TooSmallError(f"determinant check needs n_max >= 1, got {n_max}")
    if samples < 0:
        raise TooSmallError(f"sample count must be >= 0, got {samples}")
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
