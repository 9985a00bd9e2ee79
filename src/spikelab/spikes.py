"""Diagonals, special standard representations, signatures, swaps, canonical forms.

A rank-n spike over GF(p) is pinned down by its diagonal: the vector
(x_1..x_n) of nonzero residues sitting in the co-basis block of the
n x (2n+1) special standard matrix [I | tip | tip + x_i e_i].  The
combinatorial fingerprint is the signature: the family of index sets I
with sum of inverse entries equal to -1, which are exactly the dependent
transversals (circuit-hyperplanes).

Swaps and relabelings generate weak equivalence.  One int64 kernel gives
every swap of a stack of diagonals at once.  The census scans the sorted
diagonals of one n in lex order, each known by its rank in that order,
with one entry per rank for the class that met it; the unmet ones are
closed in chunks, and a diagonal starts a class iff its rank is the least
in its closure.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .bitsets import indices_from_mask, mask_from_indices, subset_sums
from .errors import (
    DependentTransversalError,
    MismatchedShapeError,
    NoCircuitHyperplaneError,
    NotInSignatureError,
    OutOfRangeError,
    TooLargeError,
    TooSmallError,
    VerdictMismatchError,
    ZeroEntryError,
)
from .field import PrimeField
from . import matrix
from .matrix import MatrixGF

SIGNATURE_MAX_N = 24
AXIOMS_MAX_N = 24  # three stacks of ranks, the widest n x (2n - 1): 8-12 ms at n = 24
CANONICAL_MAX_N = 7
ENUMERATE_MAX_P = 17

IndexSetLike = Union[int, Iterable[int]]


def as_mask(K: IndexSetLike, n: int) -> int:
    """Normalize an index set (bitmask int or iterable of 1-based indices)."""
    mask = K if isinstance(K, int) else mask_from_indices(K)
    if mask < 0 or mask >= (1 << n):
        raise OutOfRangeError(f"index set {K!r} not within [1, {n}]")
    return mask


@dataclass(frozen=True)
class Diagonal:
    """Nonzero residues (x_1..x_n) over GF(p), n >= 1."""

    field: PrimeField
    x: tuple[int, ...]

    def __post_init__(self):
        p = self.field.p
        vals = tuple(int(v) % p for v in self.x)
        if len(vals) < 1:
            raise TooSmallError("diagonal needs at least one entry")
        if any(v == 0 for v in vals):
            raise ZeroEntryError(f"diagonal entries must be nonzero mod {p}")
        object.__setattr__(self, "x", vals)

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def p(self) -> int:
        return self.field.p

    def inverses(self) -> tuple[int, ...]:
        return tuple(self.field.inv(v) for v in self.x)

    def balanced(self) -> tuple[int, ...]:
        return tuple(self.field.balanced_lift(v) for v in self.x)

    def text(self) -> str:
        return f"p={self.p};x=" + ",".join(str(v) for v in self.x)

    @classmethod
    def parse(cls, text: str) -> "Diagonal":
        """Parse `p=<prime>;x=<v1>,...,<vn>`; residues in [1, p) only."""
        parts = text.strip().split(";")
        if len(parts) != 2 or not parts[0].startswith("p=") or not parts[1].startswith("x="):
            raise ValueError(f"expected 'p=<prime>;x=<v1>,...,<vn>', got {text!r}")
        p = int(parts[0][2:])
        field = PrimeField(p)
        entries = []
        for tok in parts[1][2:].split(","):
            tok = tok.strip()
            if not tok.isdigit():
                raise ValueError(f"diagonal entries must be nonnegative residues, got {tok!r}")
            v = int(tok)
            if not 1 <= v < p:
                raise ValueError(f"entry {v} outside [1, {p})")
            entries.append(v)
        return cls(field, tuple(entries))

    def __repr__(self) -> str:
        return f"Diagonal({self.text()!r})"


def _standard_rows(values: tuple[int, ...]) -> list[list[int]]:
    """The integer rows of [I | 1 | 1 + x_i e_i] for the entries x_i in values."""
    n = len(values)
    return [
        [1 if j == i else 0 for j in range(n)]
        + [1]
        + [1 + values[i] if j == i else 1 for j in range(n)]
        for i in range(n)
    ]


def build_rep(x: Diagonal) -> MatrixGF:
    """The special standard matrix [I | 1 | t + x_i e_i], columns e_1..e_n, t, f_1..f_n."""
    if x.n < 3:
        raise TooSmallError(f"spike matroids need n >= 3, got n={x.n}")
    return MatrixGF(x.field, _standard_rows(x.x))


def check_axioms(M: MatrixGF) -> bool:
    """Rank-oracle verification of the three spike conditions.

    (i) each line {e_i, t, f_i} is a rank-2 set of three pairwise
    non-parallel nonzero points; (ii) any k < n lines together have rank
    k+1; (iii) all n lines have rank n.  Given (i), k lines span rank k+1
    exactly when their directions modulo the tip t are independent, and
    independence passes to subsets, so (ii) holds once every n-1 lines
    have rank n.  Those lines already span all n rows, which is (iii).
    The ranks come from three stacks: the 3n pairs, the n lines, and the
    n sets of every line but one.
    """
    n = M.rows
    if n < 3:
        raise TooSmallError(f"spike matroids need n >= 3, got n={n}")
    if n > AXIOMS_MAX_N:
        raise TooLargeError(f"axiom check capped at n={AXIOMS_MAX_N}")
    if M.cols != 2 * n + 1:
        raise MismatchedShapeError(f"expected {2 * n + 1} columns, got {M.cols}")
    entries = np.array(M.entries, dtype=np.int64)

    def ranks(column_sets: list) -> "np.ndarray":
        # one matrix per set of columns: (sets, n rows, columns per set)
        return matrix._echelon(entries[:, column_sets].transpose(1, 0, 2), M.field.p)[1]

    lines = [[i, n, n + 1 + i] for i in range(n)]
    # a pair has rank 2 iff its points are nonzero and not parallel
    pairs = [list(pair) for line in lines for pair in itertools.combinations(line, 2)]
    # every line but line i: all columns except e_i and f_i
    rest = [[c for c in range(2 * n + 1) if c not in (i, n + 1 + i)] for i in range(n)]
    return bool(
        (ranks(pairs) == 2).all() and (ranks(lines) == 2).all() and (ranks(rest) == n).all()
    )


@dataclass(frozen=True)
class Signature:
    """Set family over [1,n] as a 2^n-bit pattern: subset I sits at bit mask(I)."""

    n: int
    bits: int

    def __post_init__(self):
        if self.bits & 1:
            raise ValueError("empty set cannot be a signature member")
        if self.bits < 0 or self.bits >> (1 << self.n):
            raise OutOfRangeError("bit pattern wider than 2^n")

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def flags(self) -> "np.ndarray":
        """Membership of every mask, 0 or 1, as a uint8 array indexed by mask.

        One pass over the pattern's bytes, linear in 2^n; testing bits one at
        a time would shift the 2^n-bit int once per test.
        """
        raw = self.bits.to_bytes(((1 << self.n) + 7) // 8, "little")
        flat = np.frombuffer(raw, dtype=np.uint8)
        return np.unpackbits(flat, count=1 << self.n, bitorder="little")

    def members(self) -> tuple[int, ...]:
        """Member subsets as masks, ascending."""
        return tuple(np.flatnonzero(self.flags()).tolist())

    def member_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(indices_from_mask(m) for m in self.members())

    def __contains__(self, K: IndexSetLike) -> bool:
        mask = as_mask(K, self.n)
        return bool(self.bits >> mask & 1)

    def hex(self) -> str:
        digits = ((1 << self.n) + 3) // 4
        return format(self.bits, f"0{digits}x")

    @classmethod
    def from_hex(cls, n: int, text: str) -> "Signature":
        return cls(n=n, bits=int(text, 16))

    @classmethod
    def from_members(cls, n: int, members: Iterable[IndexSetLike]) -> "Signature":
        bits = 0
        for K in members:
            bits |= 1 << as_mask(K, n)
        return cls(n=n, bits=bits)

    def xor_transform(self, S: IndexSetLike) -> "Signature":
        """The swap law: members map to their symmetric difference with S."""
        smask = as_mask(S, self.n)
        if self.bits >> smask & 1:
            raise DependentTransversalError("transform would produce the empty set")
        return Signature.from_members(self.n, (m ^ smask for m in self.members()))

    def permute(self, perm: tuple[int, ...]) -> "Signature":
        """perm maps old index i to perm[i-1]; members map pointwise."""
        if sorted(perm) != list(range(1, self.n + 1)):
            raise OutOfRangeError(f"not a permutation of [1,{self.n}]: {perm!r}")
        return Signature.from_members(
            self.n, ([perm[i - 1] for i in indices_from_mask(m)] for m in self.members())
        )


def _signature_rows(p: int, z: "np.ndarray") -> "np.ndarray":
    """Signature bits of each row of inverse entries, packed little-endian by mask.

    Sums stay in int16 while n(p-1) fits, else int32, which holds them at
    every cap; the remainder overwrites the sum table instead of copying it.
    """
    n = z.shape[-1]
    dtype = np.int16 if n * (p - 1) < 1 << 15 else np.int32
    sums = subset_sums(z.astype(dtype))
    hits = np.remainder(sums, p, out=sums) == p - 1
    return np.packbits(hits, axis=-1, bitorder="little")


def signature(x: Diagonal) -> Signature:
    """All nonempty I with sum over I of x_i^-1 = -1, read off the subset-sum table."""
    n = x.n
    if n > SIGNATURE_MAX_N:
        raise TooLargeError(f"signature enumeration capped at n={SIGNATURE_MAX_N}")
    row = _signature_rows(x.p, np.array(x.inverses()))
    return Signature(n=n, bits=int.from_bytes(row.tobytes(), "little"))


def _transversal_factor(x: Diagonal, mask: int) -> int:
    """(1 + sum over the mask of x_i^-1) mod p: zero iff that transversal is dependent."""
    return (1 + sum(x.field.inv(x.x[i - 1]) for i in indices_from_mask(mask))) % x.p


def is_dependent_transversal(x: Diagonal, K: IndexSetLike) -> bool:
    """Prop-2.3 fast path: the transversal taking f_i at K is dependent iff sum = -1."""
    return _transversal_factor(x, as_mask(K, x.n)) == 0


def circuit_hyperplane(x: Diagonal, I: IndexSetLike) -> tuple[str, ...]:
    """Column labels of the circuit-hyperplane circuit for a signature member."""
    n = x.n
    if n < 3:
        raise TooSmallError(f"spike matroids need n >= 3, got n={n}")
    mask = as_mask(I, n)
    if not is_dependent_transversal(x, mask):
        raise NotInSignatureError(f"{indices_from_mask(mask)} is not in the signature")
    return tuple(f"f{i}" if mask >> (i - 1) & 1 else f"e{i}" for i in range(1, n + 1))


def swap(x: Diagonal, S: IndexSetLike) -> Diagonal:
    """Interchange conjugates at S and re-standardize, at the diagonal level.

    With s = sum over S of x_i^-1 the new transversal is a basis iff
    1 + s != 0, and the re-standardized diagonal is x_i (1+s) off S and
    -x_i (1+s) on S (the tests check it against a change of basis on the matrix).
    """
    n, p = x.n, x.p
    smask = as_mask(S, n)
    fac = _transversal_factor(x, smask)
    if fac == 0:
        raise DependentTransversalError(
            f"swap set {indices_from_mask(smask)} is in the signature"
        )
    y = tuple(
        (-x.x[i] * fac) % p if smask >> i & 1 else (x.x[i] * fac) % p for i in range(n)
    )
    return Diagonal(x.field, y)


def normalize(x: Diagonal) -> Diagonal:
    """A weakly equivalent diagonal with first entry -1.

    Take the lexicographically least signature member I, move min(I) to
    position 1 by a transposition, then swap at I minus its minimum.
    """
    sig = signature(x)
    if sig.bits == 0:
        raise NoCircuitHyperplaneError("signature is empty; nothing to normalize at")
    I = min(sig.members(), key=indices_from_mask)
    m = (I & -I).bit_length()  # 1-based minimum of I
    if m != 1:
        perm = list(x.x)
        perm[0], perm[m - 1] = perm[m - 1], perm[0]
        x = Diagonal(x.field, tuple(perm))
        I = (I & ~(1 << (m - 1))) | 1
    y = swap(x, I & ~1)
    if y.x[0] != x.p - 1:
        raise VerdictMismatchError(f"normalize gave first entry {y.x[0]}, not {x.p - 1}")
    return y


def _refuse_past_closure_cap(n: int) -> None:
    """Every orbit computation refuses n > CANONICAL_MAX_N here, on n alone."""
    if n > CANONICAL_MAX_N:
        raise TooLargeError(f"swap closure capped at n={CANONICAL_MAX_N}, got {n}")


def _closure_rows(p: int, x: "np.ndarray", z: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """swap(x, S) for each diagonal x of a (B, n) stack over GF(p) and every mask S.

    z holds the stack's inverse entries, in int64.  Returns the (B, 2^n, n) rows, by
    ascending mask (x itself at mask 0), and a (B, 2^n) flag that is False
    at the invalid masks.  S is valid iff fac = 1 + (sum over S of x_i^-1) is
    nonzero mod p; its row is x * fac with the sign flipped on S, and an
    invalid mask's row is 0.
    """
    n = x.shape[-1]
    _refuse_past_closure_cap(n)
    # int64 is exact: at p <= 65521 and n <= 7 the sums stay below 2^19, and x * fac < p^2 < 2^32
    fac = (1 + subset_sums(z)) % p
    rows = x[:, None, :] * _swap_signs(n) * fac[..., None] % p
    return rows, fac != 0


@functools.cache
def _swap_signs(n: int) -> "np.ndarray":
    """-1 where mask S holds index i, else 1: a read-only (2^n, n) table."""
    signs = 1 - 2 * (np.arange(1 << n)[:, None] >> np.arange(n) & 1)
    signs.setflags(write=False)
    return signs


def _closure_of(x: Diagonal) -> "np.ndarray":
    """x's valid closure rows by ascending mask: the kernel on a stack of one."""
    rows, valid = _closure_rows(x.p, np.array([x.x]), np.array([x.inverses()]))
    return rows[valid]


def swap_closure(x: Diagonal) -> list[Diagonal]:
    """All diagonals reachable by sequences of swaps, in first-seen order.

    Swaps compose by symmetric difference of their sets (T is a valid swap
    of swap(x, S) iff S xor T is one of x), so one application per valid S
    already gives the closure: x, then swap(x, S) for each valid S in
    ascending mask order, all from one int64 kernel over the subset sums of
    x's inverses (exact while p <= 65521 and n <= 7).  It refuses
    n > CANONICAL_MAX_N before any kernel work, and so does every orbit
    computation built on that kernel: the closure costs 2^n subset sums, and
    ``orbit`` n! permutations of each distinct multiset.
    """
    rows = dict.fromkeys(map(tuple, _closure_of(x).tolist()))
    return [Diagonal(x.field, y) for y in rows]


def _closure_multisets(x: Diagonal) -> list[tuple[int, ...]]:
    """Distinct sorted swap-closure members, ascending: the orbit's multisets."""
    return sorted(set(map(tuple, np.sort(_closure_of(x), axis=1).tolist())))


def _arrangements(m: tuple[int, ...]) -> int:
    """Distinct arrangements of a sorted tuple, n!/prod(multiplicity!), from run lengths."""
    count = run = 1
    for i in range(1, len(m)):
        run = run + 1 if m[i] == m[i - 1] else 1
        count = count * (i + 1) // run
    return count


def canonical_form(x: Diagonal) -> Diagonal:
    """Lexicographically least diagonal over the swap-and-permutation orbit."""
    return Diagonal(x.field, _closure_multisets(x)[0])


def _canonical_and_orbit_size(x: Diagonal) -> tuple[Diagonal, int]:
    """canonical_form(x) and orbit_size(x) read off one closure."""
    multisets = _closure_multisets(x)
    return Diagonal(x.field, multisets[0]), sum(map(_arrangements, multisets))


def weakly_equivalent(x: Diagonal, y: Diagonal) -> bool:
    if x.p != y.p or x.n != y.n:
        raise MismatchedShapeError(
            f"cannot compare p={x.p},n={x.n} against p={y.p},n={y.n}"
        )
    return canonical_form(x).x == canonical_form(y).x


def orbit(x: Diagonal) -> set[tuple[int, ...]]:
    """Full weak-equivalence orbit: permutations of every swap-closure member.

    A member and its sorted multiset have the same permutations, so the
    distinct closure multisets suffice.
    """
    return {perm for m in _closure_multisets(x) for perm in itertools.permutations(m)}


def orbit_size(x: Diagonal) -> int:
    """len(orbit(x)) without building it: the orbit is the disjoint union of
    the permutations of each distinct closure multiset."""
    return sum(map(_arrangements, _closure_multisets(x)))


def enumerate_spikes(p: int, n: int) -> list[Diagonal]:
    """One canonical representative per weak-equivalence class, lex order."""
    multisets, closures = _enumerate_orbits(p, n)
    field = PrimeField(p)
    return [Diagonal(field, tuple(m)) for m in multisets[closures[:, 0]].tolist()]


def _multinomial(parts: list[int]) -> int:
    """sum(parts)! / prod(part!), as a product of binomials."""
    count, total = 1, 0
    for m in parts:
        total += m
        count *= math.comb(total, m)
    return count


def _arrangement_counts(
    multisets: "np.ndarray", low: int, high: int
) -> tuple[list[int], "np.ndarray"]:
    """``_arrangements`` of every sorted row of a (M, n) array of entries in
    [low, high), once per pattern.

    A row's arrangements are n! / prod(m!) over its values' multiplicities
    m, so they depend only on its pattern, the multiplicities sorted.
    Returns each distinct pattern's count, exact, and each row's pattern.
    """
    M, n = multisets.shape
    width = high - low
    # row r holds value low + v mult[r, v] times: one bincount over the level
    slots = np.add(multisets, np.arange(-low, M * width - low, width)[:, None], dtype=np.int64)
    mult = np.bincount(slots.ravel(), minlength=M * width).reshape(M, width)
    del slots
    mult.sort(axis=1)
    # a pattern is its largest min(n, width) multiplicities, read base n + 1;
    # where that could pass int64, the key read so far is first ranked (< M)
    key = mult[:, -1]
    bound = n + 1
    for col in mult.T[-2 : -min(n, width) - 1 : -1]:
        if bound > (1 << 62) // (n + 1):
            key = np.unique(key, return_inverse=True)[1]
            bound = M
        key = key * (n + 1) + col
        bound *= n + 1
    # one row a pattern and each row's pattern, as np.unique's index and
    # inverse would give them, for a fraction of its fixed cost
    order = key.argsort()
    ranked = key[order]
    first = np.empty(M, dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    patterns = ranked[first].searchsorted(key)
    return [_multinomial(row) for row in mult[order[first]].tolist()], patterns


def spike_census(p: int, n: int) -> dict:
    """Class census with orbit sizes; orbit sizes must add up to (p-1)^n.

    A class's orbit size sums the arrangements of its distinct closure multisets.
    """
    multisets, closures = _enumerate_orbits(p, n)
    distinct = np.ones(closures.shape, dtype=bool)
    np.not_equal(closures[:, 1:], closures[:, :-1], out=distinct[:, 1:])
    counts, patterns = _arrangement_counts(multisets, 1, p)
    arrangements = np.array(counts)[patterns]
    sizes = np.where(distinct, arrangements[closures], 0).sum(axis=1).tolist()
    total = sum(sizes)
    if total != (p - 1) ** n:
        raise VerdictMismatchError(f"orbit sizes add up to {total}, not {(p - 1) ** n}")
    reps = multisets[closures[:, 0]].tolist()
    return {
        "p": p,
        "n": n,
        "class_count": len(reps),
        "classes": [{"diagonal": d, "orbit_size": size} for d, size in zip(reps, sizes)],
        "total_diagonals": total,
    }


# diagonals the lex scan closes at once (4096 closure rows at n = 7): fewer
# pay numpy's fixed cost more often, more close diagonals that an earlier
# one's closure would have met
_CHUNK = 32


def _level(p: int, n: int) -> "np.ndarray":
    """The multisets of n entries from [1, p), as uint8 rows in lex order."""
    count = math.comb(p + n - 2, n)
    tuples = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(1, p), n))
    return np.fromiter(tuples, dtype=np.uint8, count=count * n).reshape(count, n)


@functools.cache
def _rank_table(p: int, n: int) -> tuple["np.ndarray", "np.ndarray"]:
    """The flat rank table of ``_level(p, n)`` and its row offsets: a sorted row
    a is row sum(table[offsets + a]) of the level.  Both are read-only.

    N(k, v) = C(p - v + k - 1, k) sorted k-tuples have every entry >= v.
    The rows before a are those that agree with a before some j and hold a
    value in [a_(j-1), a_j) at j (a_(-1) = 1), so there are the sum over j of
    N(n - j, a_(j-1)) - N(n - j, a_j) of them.  Collected by a_j, with N(0, v)
    = 1 and the constant N(n, 1) - 1 put in row 0, that is the table.
    """
    N = np.array([[math.comb(p - v + k - 1, k) for v in range(p)] for k in range(n + 1)])
    # row j is N(n - j - 1, .) - N(n - j, .); column 0 is never read
    table = N[n - 1 :: -1] - N[n:0:-1]
    table[0] += N[n, 1] - 1
    offsets = p * np.arange(n)
    for a in (table, offsets):
        a.setflags(write=False)
    return table.ravel(), offsets


def _enumerate_orbits(p: int, n: int) -> tuple["np.ndarray", "np.ndarray"]:
    """The level's multisets in lex order, and each class's closure ranks.

    A multiset's rank is its row in the level.  Each class gets one row of
    closures, in lex order of its least member: the ranks of its 2^n closure
    rows sorted, repeats kept and an invalid mask reading the member's own
    rank, so column 0 is the representative's rank.  ``owner`` holds, per
    rank, the representative whose closure met it, or -1 while unseen.  The
    unseen ranks are closed in chunks, in ascending order; a candidate is
    its class's representative iff its rank is the least in its closure,
    and each representative then owns its closure.  So every candidate must
    end its chunk owned by the least rank of its own closure; one that is
    not raises VerdictMismatchError.
    """
    field = PrimeField(p)
    if n < 1:
        raise TooSmallError(f"enumeration needs n >= 1, got {n}")
    # refused on n itself: the scan's first tuple and diagonal have n entries
    _refuse_past_closure_cap(n)
    if p > ENUMERATE_MAX_P:
        raise TooLargeError(f"enumeration capped at p={ENUMERATE_MAX_P}")
    multisets = _level(p, n)
    table, offsets = _rank_table(p, n)
    inv = np.array(field.inverse_table())
    owner = np.full(len(multisets), -1)
    # unmet ranks are looked for in windows of as many ranks as a chunk has rows
    span = _CHUNK << n
    classes = []
    start = 0
    while start < len(owner):
        window = (owner[start : start + span] < 0).nonzero()[0]
        if not len(window):
            start += span
            continue
        cand = start + window[:_CHUNK]
        start = int(cand[-1]) + 1
        x = multisets[cand]
        rows, valid = _closure_rows(p, x, inv[x])
        ranks = table.take(np.sort(rows, axis=-1) + offsets).sum(axis=-1)
        ranks = np.where(valid, ranks, cand[:, None])
        ranks.sort(axis=1)
        least = ranks[:, 0]
        closure = ranks[least == cand]
        owner[closure] = closure[:, :1]
        stray = owner[cand] != least
        if stray.any():
            i = stray.argmax()
            raise VerdictMismatchError(
                f"lex scan met the orbit of {tuple(multisets[least[i]].tolist())}"
                f" at {tuple(multisets[cand[i]].tolist())}"
            )
        classes.append(closure)
    return multisets, np.concatenate(classes)
