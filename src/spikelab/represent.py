"""Cross-field representability machinery.

A signature is field-agnostic data: which transversals are dependent.  This
module decides, for a given signature, over which prime fields a diagonal
with exactly that signature exists: per prime by pruned exhaustive search,
and for every characteristic at once by one elimination over Q, with a
pruned search over GF(q) for the finitely many primes it leaves open.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice
from math import isqrt
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .bitsets import subset_sums
from .errors import (
    BudgetExceededError,
    OutOfRangeError,
    TooLargeError,
    TooSmallError,
    VerdictMismatchError,
    ZeroEntryError,
)
from .field import PrimeField
from .matrix import _rref
from .spikes import (
    CANONICAL_MAX_N,
    ENUMERATE_MAX_P,
    SIGNATURE_MAX_N,
    Diagonal,
    Signature,
    _enumerate_orbits,
    _signature_rows,
    _standard_rows,
    signature,
)

AUDIT_BUDGET = 10**9
SEARCH_MAX_N = 12
MAX_TEST_PRIME = 97

# diagonals summed at once by an audit at n <= 3
_LOW_CHUNK = 1 << 14

# row bytes an audit at n >= 4 gathers and keys at once: a block stays in
# cache between its gather and its key (2^18 beat 2^14 and 2^16 at (7,7)
# and (5,8) on a 2-core VM)
_BLOCK_BYTES = 1 << 18

# int64 entries in one stack of member systems (2 MB); the elimination holds
# a few arrays of its size, so a level of thousands of classes stays small
_STACK_ENTRIES = 1 << 18


# ---------------------------------------------------------------------------
# exhaustive representability search


# lattice sums a search may read and write before it hands over to the
# solution-space search; a sum takes 0.05 us on wide levels and up to 0.5 us
# on narrow ones (2-core VM), so the lattice stops within about 0.5 s
_LATTICE_CAP = 10**6


def search_rep(sig: Signature, q: int) -> tuple[Optional[Diagonal], int]:
    """Find a diagonal over GF(q) with exactly this signature, plus sums counted.

    Depth-first over inverse vectors z in (GF(q)\\{0})^n in lex order, one
    level per coordinate.  At level k the sums of the subsets below 2^k are
    fixed, and the members whose top index is k+1 decide z_k.  With any
    such member I, z_k is forced to -1 - sum(I minus k+1), and it is
    admissible iff it is nonzero and exactly those members' lower sets have
    that sum.  With none, z_k may be any value that puts no lower sum at -1.
    Values are tried in ascending order, so a complete search is exhaustive
    (None proves non-existence) and meets the lex-least z first.  A level's
    members are listed on its first visit.  Past _LATTICE_CAP sums the
    lattice hands over to ``_admissible_point``, which meets the same
    lex-least z first.  The count is the lower sums read plus the level sums
    written, so it exceeds the cap exactly when the lattice handed over.
    """
    n = sig.n
    if n > SEARCH_MAX_N:
        raise TooLargeError(f"search capped at n={SEARCH_MAX_N}, got {n}")
    field = PrimeField(q)
    flags = sig.flags()
    members: list[Optional[list[int]]] = [None] * n
    cap = _LATTICE_CAP
    sums = [0] * (1 << n)
    z = [0] * n
    spent = 0

    def dfs(k: int) -> bool:
        nonlocal spent
        base = 1 << k
        lower = sums[:base]
        spent += base
        if spent > cap:
            raise BudgetExceededError(f"lattice cap {cap} reached searching GF({q})")
        below = members[k]
        if below is None:
            below = members[k] = flags[base : 2 * base].nonzero()[0].tolist()
        if below:
            s = lower[below[0]]
            v = (-1 - s) % q
            hits = len(below)
            if not v or lower.count(s) != hits or [lower[i] for i in below].count(s) != hits:
                return False
            values: Iterable[int] = (v,)
        else:
            taken = set(lower)
            values = (v for v in range(1, q) if (-1 - v) % q not in taken)
        for v in values:
            spent += base
            if spent > cap:
                raise BudgetExceededError(f"lattice cap {cap} reached searching GF({q})")
            sums[base : 2 * base] = [(s + v) % q for s in lower]
            z[k] = v
            if k + 1 == n or dfs(k + 1):
                return True
        return False

    try:
        found = dfs(0)
    except BudgetExceededError:
        z, _ = _admissible_point(sig, q, AUDIT_BUDGET)
        found = z is not None
    if not found:
        return None, spent
    return Diagonal(field, tuple(field.inv(v) for v in z)), spent


# ---------------------------------------------------------------------------
# uniqueness audit (signature-map injectivity)


def _decode_diagonals(p: int, n: int, ts: "np.ndarray") -> "np.ndarray":
    """Mixed-radix decode of linear indices into diagonals (coordinate 1 fastest)."""
    radix = (p - 1) ** np.arange(n, dtype=np.int64)
    return (ts[:, None] // radix[None, :]) % (p - 1) + 1


def _row_block(table: "np.ndarray", need: "np.ndarray") -> "np.ndarray":
    """The signature rows of a run of high blocks, one row per diagonal in decode order.

    Row byte mH of diagonal (l, h) is table[need[h, mH], l], so one take
    copies whole L-byte residue rows into a (b, W, L) block, W the row width
    in bytes; its transpose is copied into (b * L, W) row bytes.
    """
    block = np.take(table, need, axis=0)
    return np.ascontiguousarray(block.transpose(0, 2, 1)).reshape(-1, need.shape[1])


def _audit_keys(p: int, n: int) -> "np.ndarray":
    """One key per diagonal, in decode order; diagonals with equal rows get equal keys.

    A row is the diagonal's signature, packed little-endian.  Diagonal
    t = l + L*h splits into its first k = min(n, 3) coordinates, the low
    block l (L = (p-1)^k of them), and the other n - k, the high block h.
    Mask mL | mH << 3 is a member iff low-sum(mL) = -1 - high-sum(mH), so
    the members of one low block at one residue fill exactly one byte,
    table[r, l], and byte mH of row (l, h) is table[need[h, mH], l] with
    need = (-1 - high sums) mod p.  At p >= 3 neither table nor need
    outgrows the rows.  With n <= 3 there is no high block and only residue
    -1 is read: those rows are summed chunk by chunk, and a key is the
    row's one byte.  Otherwise rows are gathered a run of high blocks at a
    time, within _BLOCK_BYTES or one high block, and keyed while in cache,
    so the rows of all diagonals are never held.  A row of at most 8 bytes
    is its key, read bytewise, so key order is row order; a wider row's key
    is a mix of its native-order words.
    """
    if p == 2:
        # the one diagonal (1, ..., 1) has no copies: its key, never compared, stays 0
        return np.zeros(1, dtype=np.uint8)
    inv = np.array(PrimeField(p).inverse_table(), dtype=np.int32)
    k = min(n, 3)
    L = (p - 1) ** k
    if n == k:
        keys = np.empty(L, dtype=np.uint8)
        for start in range(0, L, _LOW_CHUNK):
            ls = np.arange(start, min(start + _LOW_CHUNK, L))
            rows = _signature_rows(p, inv[_decode_diagonals(p, n, ls)])
            keys[start : start + len(ls)] = rows[:, 0]
        return keys
    # residues are below 2^16 and n <= 24, so every sum fits int32
    ls = np.arange(L)
    low = subset_sums(inv[_decode_diagonals(p, k, ls)]) % p
    table = np.zeros((p, L), dtype=np.uint8)
    for mL in range(1 << k):
        table[low[:, mL], ls] |= 1 << mL
    H = (p - 1) ** (n - k)
    need = subset_sums(inv[_decode_diagonals(p, n - k, np.arange(H))])
    np.subtract(-1, need, out=need)
    np.remainder(need, p, out=need)
    width = need.shape[1]
    exact = width <= 8
    keys = np.empty(H * L, dtype=f"u{width}" if exact else np.uint64)
    step = max(1, _BLOCK_BYTES // (L * width))
    for h in range(0, H, step):
        rows = _row_block(table, need[h : h + step])
        at = slice(h * L, h * L + len(rows))
        keys[at] = rows.view(f">u{width}")[:, 0] if exact else _mix_words(rows.view(np.uint64))
    return keys


# odd multiplier of the row-key mix: the fraction bits of the golden ratio
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _mix_words(words: "np.ndarray") -> "np.ndarray":
    """One 64-bit key per row of several words; equal rows get equal keys."""
    key = np.zeros(len(words), dtype=np.uint64)
    for column in words.T:
        key ^= column
        key *= _MIX
        key ^= key >> np.uint64(29)
    return key


def _key_groups(p: int, n: int, keys: "np.ndarray") -> tuple[int, Iterator["np.ndarray"]]:
    """The number of distinct rows, and the groups of diagonals whose rows have copies.

    Only the keys are sorted.  A diagonal whose key no other has has a
    distinct row.  Up to n = 6 a key is its row; past that, the rows of the
    diagonals that share a key are summed again and sorted bytewise, which
    compares them exactly and splits any run of distinct rows.  Groups come
    in bytewise order of their row, each as its diagonals ascending.
    """
    if len(keys) < 2:
        return len(keys), iter(())
    # numpy's radix sort beats its quicksort on bytes, and only there
    ranked = np.sort(keys, kind="stable" if keys.itemsize == 1 else None)
    # one entry per copy of a key past its first
    repeats = ranked[1:][ranked[1:] == ranked[:-1]]
    del ranked
    if n <= 6:
        # key order is bytewise order, and a key is its row
        new = np.ones(len(repeats), dtype=bool)
        np.not_equal(repeats[1:], repeats[:-1], out=new[1:])
        return len(keys) - len(repeats), (np.flatnonzero(keys == k) for k in repeats[new])
    if not len(repeats):
        return len(keys), iter(())
    at = np.searchsorted(repeats, keys)
    np.minimum(at, len(repeats) - 1, out=at)
    shared = np.flatnonzero(repeats[at] == keys)
    del at
    inv = np.array(PrimeField(p).inverse_table(), dtype=np.int32)
    # read as big-endian words, so word order is bytewise order
    words = _signature_rows(p, inv[_decode_diagonals(p, n, shared)]).view(">u8")
    if not words.dtype.isnative:
        words = words.byteswap(inplace=True).view(words.dtype.newbyteorder())
    # stable, so each group keeps its diagonals ascending
    order = np.lexsort(words.T[::-1])
    shared = shared[order]
    ranked = words[order]
    new = np.ones(len(shared), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new).tolist()
    bounds = zip(starts, starts[1:] + [len(shared)])
    groups = (shared[a:b] for a, b in bounds if b - a > 1)
    return len(keys) - len(shared) + len(starts), groups


def uniqueness_audit(p: int, n: int) -> dict:
    """Compute every diagonal's signature over GF(p) and count collisions."""
    PrimeField(p)
    if n < 1:
        raise TooSmallError(f"audit needs n >= 1, got {n}")
    if n > SIGNATURE_MAX_N:
        raise TooLargeError(f"audit capped at n={SIGNATURE_MAX_N}")
    total = (p - 1) ** n
    # each diagonal is counted its 2^n-bit row and 64 bits.  The row bounds the
    # time: it is gathered and keyed once, never held.  Both bound the memory:
    # an audit holds the keys and their sorted copy, two rows a diagonal up to
    # n = 6 and two 64-bit words past it
    cost = total * ((1 << n) + 64)
    if cost > AUDIT_BUDGET:
        raise BudgetExceededError(
            f"{cost} bits of signature rows and row keys exceed budget {AUDIT_BUDGET}"
        )
    distinct, groups = _key_groups(p, n, _audit_keys(p, n))
    examples = []
    for ts in islice(groups, 5):
        diags = _decode_diagonals(p, n, ts[:4])
        examples.append([[int(v) for v in row] for row in diags])
    return {
        "p": p,
        "n": n,
        "diagonals": total,
        "distinct_signatures": distinct,
        "collisions": total - distinct,
        "collision_examples": examples,
    }


# ---------------------------------------------------------------------------
# the exact characteristic decision


def _prime_factors(v: int) -> list[int]:
    v = abs(v)
    out = []
    d = 2
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            while v % d == 0:
                v //= d
        d += 1 if d == 2 else 2
    if v > 1:
        out.append(v)
    return out


def _solution_spaces(
    flags: "np.ndarray", q: Optional[int] = None
) -> list[tuple[Optional["np.ndarray"], int, list[int]]]:
    """The z with sum(z_i, i in I) = -1 for every member I, over Q (q None) or
    GF(q), for each signature of a (B, 2^n) stack of membership flags
    (``Signature.flags``): one stacked ``_rref``.

    Returns (F, one, pivots) per signature.  F is an int64 matrix scaled so
    that 1 reads ``one``: row 0 is a particular solution, and each later row
    a direction, one per free coordinate, which holds ``one`` there and 0 at
    the other free coordinates; the solutions are row 0 plus any combination
    of the directions, all over ``one``.  In both fields ``one`` is the
    elimination's last pivot d (1 with no pivots) and F's entries are those
    of ``rref``'s rows, d times the reduced form: over Q minors of [A | -1],
    mod q residues or their negatives, left unreduced.  F is None when
    there is no solution.  pivots are the elimination's, as ``rref`` met
    them.  The columns are eliminated in reverse, so a pivot coordinate
    depends only on free coordinates of smaller index: ordered by their
    free coordinates, the solutions are in lex order.  Each member system
    is padded with zero rows to the longest, which changes no pivot, and a
    stack holds at most _STACK_ENTRIES entries.
    """
    B, size = flags.shape
    if not B:
        return []
    n = size.bit_length() - 1
    counts = flags.sum(axis=1)
    longest = int(counts.max())
    # each signature's members first, ascending by mask, by a stable sort on non-membership
    members = np.argsort(flags == 0, axis=1, kind="stable")[:, :longest]
    padding = np.arange(longest) >= counts[:, None]
    equations = _member_equations(n)
    per = max(1, _STACK_ENTRIES // max(1, longest * (n + 1)))
    spaces = []
    for start in range(0, B, per):
        stack = equations[members[start : start + per]]
        stack[padding[start : start + per]] = 0
        reduced, rank, cols, pivots = _rref(stack, q)
        for rows, k, c, pv in zip(reduced, rank.tolist(), cols.tolist(), pivots.tolist()):
            spaces.append(_space(n, rows[:k].tolist(), c[:k], pv[:k]))
    return spaces


@functools.cache
def _member_equations(n: int) -> "np.ndarray":
    """Row I of this read-only (2^n, n + 1) table is the equation sum(z_i, i in I)
    = -1: column j holds coordinate n - 1 - j, and the last column the constant -1."""
    rows = np.empty((1 << n, n + 1), dtype=np.int64)
    rows[:, :n] = np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    rows[:, n] = -1
    rows.setflags(write=False)
    return rows


def _space(
    n: int, reduced: list[list[int]], cols: list[int], pivots: list[int]
) -> tuple[Optional["np.ndarray"], int, list[int]]:
    """``_solution_spaces``' (F, one, pivots) from one system's reduced rows."""
    one = pivots[-1] if pivots else 1
    if cols and cols[-1] == n:
        return None, one, pivots
    # coordinate i is column n - 1 - i of the eliminated rows
    solved = {n - 1 - c: row for row, c in zip(reduced, cols)}
    F = [[solved[i][n] if i in solved else 0 for i in range(n)]]
    for f in (j for j in range(n) if j not in solved):
        v = [0] * n
        v[f] = one
        for i, row in solved.items():
            v[i] = -row[n - 1 - f]
        F.append(v)
    return np.array(F, dtype=np.int64), one, pivots


def _forms(F: "np.ndarray", one) -> "np.ndarray":
    """Coefficients of every subset's affine form on a solution space, for one
    space or a stack of them.

    F and ``one`` are ``_solution_spaces``': the particular solution and
    the directions as integers, scaled so that 1 reads ``one``.  Column J <
    2^n is sum(z_i, i in J) + 1, then column 2^n + i is z_i: row 0 the
    constant, row j the coefficient on direction j.  The forbidden forms
    are those ``_is_form`` marks, and a point is admissible iff none of them
    vanishes.  Zero rows padded below F add nothing.
    """
    sums = subset_sums(F)
    sums[..., 0, :] += np.asarray(one)[..., None]
    return np.concatenate([sums, F], axis=-1)


def _is_form(flags: "np.ndarray") -> "np.ndarray":
    """Which of ``_forms``' columns are forbidden: each nonempty non-member and
    each coordinate.  Mask 0, the empty set, is never a member and never a form."""
    n = flags.shape[-1].bit_length() - 1
    form = np.concatenate([flags == 0, np.ones(flags.shape[:-1] + (n,), dtype=bool)], axis=-1)
    form[..., 0] = False
    return form


def _admissible_point(
    sig: Signature, q: int, budget: int, rational: Optional[tuple] = None
) -> tuple[Optional[list[int]], int]:
    """The lex-least inverse vector over GF(q) with exactly this signature, or
    None; plus form values spent.

    Takes the solution space of the member equations over GF(q) and the
    forms on it at ``_solution_spaces``' scale ``one``, as the certificate
    does over Q; a nonzero scale leaves each form's zeros in place.  Given
    ``rational``, the space over Q, and q dividing none of its pivots, the
    space is its F and ``one`` reduced mod q, since there the elimination
    mod q is the one over Q reduced; otherwise the member equations are
    row-reduced mod q.  It then searches depth-first over nonzero free
    coordinates in ascending order, so by ``_solution_spaces``' order it
    meets the lex-least point first, and divides that point by ``one``.  A
    forbidden form is checked as soon as its last free coordinate with a
    nonzero coefficient is set, where it rules out one value, so a level
    with fewer forms to check than q - 1 values never dead-ends.  A
    complete pruned search is exhaustive, so None proves there is no point.
    Each form value counts as one subset sum against the budget.
    """
    # q < 2^29 (a special prime divides a form coefficient or a pivot), so
    # sums of a dozen products of residues fit in int64
    flags = sig.flags()
    if rational is not None and all(pv % q for pv in rational[2]):
        F, one, _ = rational
        F, one = None if F is None else F % q, one % q
    else:
        F, one, _ = _solution_spaces(flags[None], q)[0]
    if F is None:
        return None, 0
    forms = _forms(F, one)[:, _is_form(flags)] % q
    spent = forms.size
    k = len(F) - 1
    # the level of each form's last nonzero direction, 0 for a constant form
    nonzero = np.vstack([forms[:0:-1] != 0, np.ones(forms.shape[1], dtype=bool)])
    settled_at = k - np.argmax(nonzero, axis=0)
    if not forms[0, settled_at == 0].all():
        return None, spent
    levels = [np.flatnonzero(settled_at == j + 1) for j in range(k)]
    t = np.zeros(k, dtype=np.int64)

    def extend(j: int) -> bool:
        nonlocal spent
        cols = levels[j]
        base = (forms[0, cols] + t[:j] @ forms[1 : j + 1, cols]) % q
        coef = forms[j + 1, cols]
        for v in range(1, q):
            spent += len(cols)
            if spent > budget:
                raise BudgetExceededError(f"subset-sum budget exhausted searching GF({q})")
            if ((base + v * coef) % q).all():
                t[j] = v
                if j + 1 == k or extend(j + 1):
                    return True
        return False

    if k and not extend(0):
        return None, spent
    # reduce before scaling: the unreduced sum times a residue could pass int64
    return ((F[0] + t @ F[1:]) % q * pow(one, -1, q) % q).tolist(), spent


@dataclass(frozen=True)
class CharCertificate:
    """The exact set of characteristics over which a signature is representable.

    A finite set lists its primes; a cofinite one lists the primes it
    leaves out.  Either way every characteristic is covered, not just the
    primes anyone tested.  m is the unique rational solution of the member
    equations when it is integral, else None.
    """

    n: int
    sig_bits: int
    m: Optional[tuple[int, ...]]
    kind: str  # "finite" | "cofinite"
    primes: tuple[int, ...] = ()
    excluded: tuple[int, ...] = ()

    def admits(self, q: int) -> bool:
        if self.kind == "finite":
            return q in self.primes
        return q not in self.excluded

    def to_report(self) -> dict:
        out = {
            "kind": self.kind,
            "singleton_integers": list(self.m) if self.m is not None else None,
        }
        if self.kind == "finite":
            out["admissible_primes"] = list(self.primes)
        else:
            out["excluded_primes"] = list(self.excluded)
        return out


def _rational_part(
    flags: "np.ndarray", spaces: Optional[list] = None
) -> list[tuple[bool, list[int], int, Optional[tuple[int, ...]], tuple]]:
    """The certificate's elimination over Q for each signature of a (B, 2^n)
    stack of membership flags: (generic, special primes, h, m, space) each,
    with space the signature's ``_solution_spaces`` entry over Q.  spaces
    are those entries, computed here unless given.

    Let V be the rational solutions of the member equations, k its
    dimension, and h the number of forbidden hyperplanes (one per nonempty
    non-member, one per coordinate).  Outside the primes B that divide a
    pivot of the elimination, reduction mod q commutes with it, so V mod q
    is the solution space over GF(q).  There a prime q gets the generic
    answer: no if V is empty or a forbidden hyperplane contains V, yes
    otherwise, unless q divides every coefficient of some forbidden form
    on V, or k >= 1 and q <= h (h hyperplanes cover at most h q^(k-1) < q^k
    points only when q > h).  The primes of the first kind and B are the
    special primes returned, ascending.  The primes up to h are special only
    in a generic class with k >= 1; they are left to the caller through h,
    which is 0 otherwise.  generic says whether the other primes get a yes.
    Each form's content, the gcd of its coefficients, comes from one
    ``gcd.reduce`` over a stack of spaces padded with zero rows, at most
    _STACK_ENTRIES form coefficients a stack.
    """
    B, size = flags.shape
    n = size.bit_length() - 1
    if n > SEARCH_MAX_N:
        raise TooLargeError(f"characteristic decision capped at n={SEARCH_MAX_N}")
    if spaces is None:
        spaces = _solution_spaces(flags)
    solved = [b for b, space in enumerate(spaces) if space[0] is not None]
    # each generic class's distinct form contents
    contents = {}
    if solved:
        longest = max(len(spaces[b][0]) for b in solved)
        per = max(1, _STACK_ENTRIES // (longest * (size + n)))
        for start in range(0, len(solved), per):
            part = solved[start : start + per]
            F = np.zeros((len(part), longest, n), dtype=np.int64)
            for rows, b in zip(F, part):
                rows[: len(spaces[b][0])] = spaces[b][0]
            one = np.array([spaces[b][1] for b in part], dtype=np.int64)
            # F's entries and one are k x k minors of the 0/+-1 matrix [A | -1],
            # k <= n + 1, so at most k^(k/2) (Hadamard): below 13^6.5 < 2^25 at
            # n <= 12 and 14^7 < 2^27 at n = 13.  A form coefficient sums at most
            # n + 1 of them, so it stays below 2^29 (2^31 at n = 13) in int64
            gcds = np.gcd.reduce(np.abs(_forms(F, one)), axis=1)
            # a column that is no form reads 1, which no prime divides
            content = np.where(_is_form(flags[part]), gcds, 1)
            generic = content.all(axis=1)
            for b, row in zip(np.array(part)[generic].tolist(), content[generic].tolist()):
                contents[b] = set(row)
    sizes = flags.sum(axis=1).tolist()
    factors: dict[int, list[int]] = {}

    def primes_of(values) -> set[int]:
        for v in values:
            if v not in factors:
                factors[v] = _prime_factors(v)
        return {f for v in values for f in factors[v]}

    parts = []
    for b, (F, one, pivots) in enumerate(spaces):
        special = primes_of(pivots)
        generic = b in contents
        h = 0
        m = None
        if generic:
            special |= primes_of(contents[b])
            if len(F) > 1:
                h = (1 << n) - 1 - sizes[b] + n
        if F is not None and len(F) == 1:
            row = F[0].tolist()
            if all(v % one == 0 for v in row):
                m = tuple(v // one for v in row)
        parts.append((generic, sorted(special), h, m, (F, one, pivots)))
    return parts


def _decisions(
    sig: Signature, primes: Sequence[int], rational: tuple
) -> Iterator[tuple[int, bool]]:
    """Yield (q, representable over GF(q)) for each prime in the given order.

    One ``_admissible_point`` search each, on the rational solution space
    ``rational`` wherever it reduces mod q, lazily, so a caller that stops
    consuming stops the searches; the primes share one AUDIT_BUDGET.
    """
    spent = 0
    for q in primes:
        point, cost = _admissible_point(sig, q, AUDIT_BUDGET - spent, rational)
        spent += cost
        yield q, point is not None


def _primes_upto(h: int) -> list[int]:
    """The primes up to h, ascending, by one sieve of Eratosthenes."""
    if h < 2:
        return []
    sieve = np.ones(h + 1, dtype=bool)
    sieve[:2] = False
    for v in range(2, isqrt(h) + 1):
        if sieve[v]:
            sieve[v * v :: v] = False
    return np.flatnonzero(sieve).tolist()


def build_certificate(sig: Signature) -> CharCertificate:
    """Decide every characteristic at once from one elimination over Q.

    ``_rational_part`` gives the generic answer, the special primes it
    leaves open and its bound h; the primes up to h come from one sieve.
    Each special prime is then decided by ``_admissible_point``, on the
    rational solution space wherever q divides none of its pivots.
    """
    generic, special, h, m, rational = _rational_part(sig.flags()[None])[0]
    special = sorted(set(special).union(_primes_upto(h)))
    # a cofinite set lists the special primes that fail, a finite one those that pass
    listed = tuple(q for q, ok in _decisions(sig, special, rational) if ok != generic)
    if generic:
        return CharCertificate(sig.n, sig.bits, m, "cofinite", excluded=listed)
    return CharCertificate(sig.n, sig.bits, m, "finite", primes=listed)


# ---------------------------------------------------------------------------
# characteristic-set verdicts


def _check_test_primes(primes: Sequence[int]) -> None:
    for q in primes:
        if q > MAX_TEST_PRIME:
            raise OutOfRangeError(f"test primes capped at {MAX_TEST_PRIME}, got {q}")
        PrimeField(q)


def characteristic_set(x: Diagonal, primes: Sequence[int]) -> dict:
    """Per-prime verdicts by ``search_rep``, plus the exact certificate.

    Certificate and search must agree on every prime; disagreement means a
    bug and raises VerdictMismatchError.  The certificate refuses n >
    SEARCH_MAX_N before its elimination, so no search starts either.
    """
    _check_test_primes(primes)
    sig = signature(x)
    cert = build_certificate(sig)
    return {
        "p": x.p,
        "n": x.n,
        "diagonal": list(x.x),
        "primes": list(primes),
        "verdicts": _verdicts(x, sig, cert, primes),
        "certificate": cert.to_report(),
    }


def _verdicts(x: Diagonal, sig: Signature, cert: CharCertificate, primes: Sequence[int]) -> list:
    """Search every prime and check each verdict against the certificate."""
    verdicts = []
    for q in primes:
        witness, _ = search_rep(sig, q)
        if cert.admits(q) != (witness is not None):
            raise VerdictMismatchError(
                f"certificate and search disagree at q={q} for diagonal {x.text()}"
            )
        w = list(witness.x) if witness else None
        verdicts.append({"q": q, "representable": "yes" if witness else "no", "witness": w})
    return verdicts


# ---------------------------------------------------------------------------
# the two integer constructions


@dataclass(frozen=True)
class IntegerDiagonal:
    """A diagonal given by nonzero integers, reducible mod any admissible prime."""

    values: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def over(self, q: int) -> Diagonal:
        return Diagonal(PrimeField(q), self.values)

    def rep_rows(self) -> list[list[int]]:
        """Integer special standard matrix rows (reduce mod q to represent)."""
        return _standard_rows(self.values)


@dataclass(frozen=True)
class InverseIntegerDiagonal:
    """A diagonal pinned by the integer values of its inverse entries."""

    inverse_values: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.inverse_values)

    def over(self, q: int) -> Diagonal:
        field = PrimeField(q)
        z = tuple(v % q for v in self.inverse_values)
        if any(r == 0 for r in z):
            raise ZeroEntryError(f"inverse entry divisible by {q}")
        return Diagonal(field, tuple(field.inv(r) for r in z))


def construct_multichar(p: int) -> IntegerDiagonal:
    """n = 2p-2 integer diagonal (-1 taken p times, then 1 taken p-2 times).

    Reduced mod any prime q >= p it stays a spike diagonal, giving a spike
    representable across many characteristics — sharpness for n = 2p-2.
    """
    PrimeField(p)
    if p < 3:
        raise TooSmallError("construction needs p >= 3")
    return IntegerDiagonal((-1,) * p + (1,) * (p - 2))


def construct_char_only(p: int) -> InverseIntegerDiagonal:
    """n = 2*floor(log2 p)+2 diagonal representable only in characteristic p.

    Inverse vector (-1, -1, 1, -2, 2, ..., -2^(k-1), 2^(k-1), -2^k) with
    k = floor(log2 p); powers of two keep the certificate divisibilities
    pinned to p alone.
    """
    PrimeField(p)
    if p < 3:
        raise TooSmallError("construction needs an odd prime")
    k = p.bit_length() - 1
    vals = [-1]
    for i in range(k):
        vals.extend([-(1 << i), 1 << i])
    vals.append(-(1 << k))
    return InverseIntegerDiagonal(tuple(vals))


# ---------------------------------------------------------------------------
# least-n experiment for single-characteristic spikes


def threshold_interval(p: int) -> tuple[int, int]:
    lo = (p + 2).bit_length()
    hi = lo + (4 * (p + 2) // 3).bit_length() - 2
    return lo, hi


def _only_in_characteristic(
    sig: Signature, p: int, part: Optional[tuple] = None
) -> Optional[CharCertificate]:
    """``build_certificate(sig)`` if its exact set is {p}, else None.

    A cofinite class, or a finite one whose special primes leave out p, is
    rejected after the elimination over Q.  Otherwise p is decided first
    and then the other special primes, up to the first answer that rules
    out {p}; a class that passes has had every special prime decided.  Only
    a generic class has a bound h, so no prime up to h is ever built here.
    part is the class's ``_rational_part`` when a caller eliminated its
    level at once.
    """
    if part is None:
        part = _rational_part(sig.flags()[None])[0]
    generic, special, _, m, rational = part
    if generic or p not in special:
        return None
    order = [p] + [q for q in special if q != p]
    if all(ok == (q == p) for q, ok in _decisions(sig, order, rational)):
        return CharCertificate(sig.n, sig.bits, m, "finite", primes=(p,))
    return None


def estimate_L(p: int, primes: Sequence[int], n_max: int) -> dict:
    """Least n in [3, n_max] with a spike over GF(p) in no other characteristic.

    Scans canonical class representatives in order; a class counts when its
    exact characteristic set is {p}, whatever primes were given.  The
    winning class is confirmed by a search over every given prime against
    its certificate, which raises VerdictMismatchError where they disagree.
    """
    field = PrimeField(p)
    if p > ENUMERATE_MAX_P:
        raise OutOfRangeError(f"experiment capped at p={ENUMERATE_MAX_P}")
    if n_max > CANONICAL_MAX_N:
        raise TooLargeError(f"experiment capped at n_max={CANONICAL_MAX_N}")
    if n_max < 3:
        raise TooSmallError("spikes need n >= 3")
    _check_test_primes(primes)
    inv = np.array(field.inverse_table())
    levels = []
    certified: list[tuple[Diagonal, Signature, CharCertificate]] = []
    for n in range(3, n_max + 1):
        multisets, closures = _enumerate_orbits(p, n)
        reps = multisets[closures[:, 0]]
        # the level's signatures at once, and one elimination over Q for them all
        packed = _signature_rows(p, inv[reps])
        parts = _rational_part(np.unpackbits(packed, axis=-1, count=1 << n, bitorder="little"))
        certified = []
        for x, row, part in zip(reps.tolist(), packed, parts):
            sig = Signature(n, int.from_bytes(row.tobytes(), "little"))
            cert = _only_in_characteristic(sig, p, part)
            if cert is not None:
                certified.append((Diagonal(field, tuple(x)), sig, cert))
        levels.append({"n": n, "classes": len(reps), "certified": len(certified)})
        if certified:
            break
    found, sig, cert = certified[0] if certified else (None, None, None)
    lo, hi = threshold_interval(p)
    if found is not None:
        _verdicts(found, sig, cert, primes)
    found_n = found.n if found else None
    return {
        "p": p,
        "n_max": n_max,
        "primes": list(primes),
        "found_n": found_n,
        "witness": list(found.x) if found else None,
        "witness_text": found.text() if found else None,
        "certificate": cert.to_report() if cert else None,
        "interval": [lo, hi],
        "in_interval": found_n is not None and lo <= found_n <= hi,
        "levels": levels,
    }
