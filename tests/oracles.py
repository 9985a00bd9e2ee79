"""Slow, independently written reference implementations.

Everything here favors obviousness over speed: cofactor determinants and
inverses, one matrix eliminated row by row in Python ints, per-subset
summation, rank probes against explicitly built column sets, the swap as
an explicit change of basis, the lemma sweep as one scalar loop over the
product.  Fast library code is only trusted where it agrees with these.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from spikelab import (
    CharCertificate,
    DependentTransversalError,
    Diagonal,
    MatrixGF,
    MismatchedShapeError,
    PrimeField,
    Signature,
    TooLargeError,
    build_rep,
    indices_from_mask,
    signature,
    swap,
)
from spikelab.bitsets import subset_sums
from spikelab.represent import _decode_diagonals, _mix_words
from spikelab.spikes import _closure_multisets, _signature_rows


def det_cofactor(p: int, rows: list[list[int]]) -> int:
    """Determinant mod p by first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % p
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(p, minor)
        total += term if j % 2 == 0 else -term
    return total % p


def matmul(p: int, A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """The product A B mod p, entry by entry as a plain sum."""
    return [
        [sum(A[i][t] * B[t][j] for t in range(len(B))) % p for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def inverse_by_cofactors(p: int, rows: list[list[int]]) -> list[list[int]] | None:
    """The inverse mod p as the adjugate over the determinant; None if singular."""
    n = len(rows)
    det = det_cofactor(p, rows)
    if det == 0:
        return None
    if n == 1:
        return [[pow(det, -1, p)]]
    inv = pow(det, -1, p)

    def cofactor(i: int, j: int) -> int:
        minor = [row[:j] + row[j + 1 :] for k, row in enumerate(rows) if k != i]
        return (-1) ** (i + j) * det_cofactor(p, minor)

    # the adjugate is the transposed cofactor matrix
    return [[cofactor(j, i) * inv % p for j in range(n)] for i in range(n)]


def echelon_by_rows(
    rows: list[list[int]], q: Optional[int] = None
) -> tuple[list[list[int]], list[int], list[int], int]:
    """Fraction-free (Bareiss) forward elimination of one matrix, row by row
    in Python ints, over Z (q None) or GF(q): the nonzero echelon rows, their
    pivot columns, each pivot as met, and the sign of the row swaps.

    The pivot row is the first at or below the rank with a nonzero entry;
    each row below it becomes (pv*a - c*b) / prev, exactly over Z and with
    prev^-1 over GF(q).  This is the reference for ``matrix._echelon``.
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


def rref_by_rows(
    rows: list[list[int]], q: Optional[int] = None
) -> tuple[list[list[int]], list[int], list[int]]:
    """d times the reduced row echelon form, d the last pivot, by back-substitution
    one row at a time over ``echelon_by_rows``: the reference for ``matrix.rref``."""
    mat, cols, pivots, _ = echelon_by_rows(rows, q)
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


def rank_by_rows(M: MatrixGF) -> int:
    """The rank over GF(p) by ``echelon_by_rows``, not by the library's kernel."""
    return len(echelon_by_rows(M.entries, M.field.p)[1])


def det_identity_per_sample(p: int, n_max: int, samples: int, seed: int, closed_form) -> dict:
    """``verify_det_identity``'s report, one sample at a time: draw n and the
    diagonal, then compare closed_form(field, x) with the determinant of the
    explicit matrix by ``echelon_by_rows``."""
    field = PrimeField(p)
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        n = rng.randint(1, n_max)
        x = [rng.randint(1, p - 1) for _ in range(n)]
        rows = [[1 + x[i] if i == j else 1 for j in range(n)] for i in range(n)]
        _, cols, pivots, sign = echelon_by_rows(rows, p)
        slow = sign * pivots[-1] % p if len(cols) == n else 0
        fast = closed_form(field, x)
        if fast != slow:
            failures.append({"x": x, "closed_form": fast, "elimination": slow})
    return {"p": p, "n_max": n_max, "samples": samples, "checked": samples, "failures": failures}


def rank_by_minors(p: int, rows: list[list[int]]) -> int:
    """Largest k with a nonvanishing k-by-k minor.  Exponential; keep tiny."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if det_cofactor(p, sub) != 0:
                    return k
    return 0


def transversal_matrix(x: Diagonal, mask: int) -> MatrixGF:
    """Columns e_i for i outside the subset, f_i = (1,...,1) + x_i e_i inside."""
    n, p = x.n, x.p
    cols = []
    for i in range(n):
        if mask >> i & 1:
            cols.append([(1 + (x.x[i] if r == i else 0)) % p for r in range(n)])
        else:
            cols.append([1 if r == i else 0 for r in range(n)])
    rows = [[cols[j][r] for j in range(n)] for r in range(n)]
    return MatrixGF(x.field, rows)


def signature_by_rank(x: Diagonal) -> int:
    """Signature bits via the geometry: a subset is in iff its transversal drops rank."""
    bits = 0
    for mask in range(1, 1 << x.n):
        if rank_by_rows(transversal_matrix(x, mask)) < x.n:
            bits |= 1 << mask
    return bits


def signature_by_sums(x: Diagonal) -> int:
    """Signature bits by naive per-subset summation of inverse entries."""
    p = x.p
    invs = x.inverses()
    bits = 0
    for mask in range(1, 1 << x.n):
        s = sum(invs[i] for i in range(x.n) if mask >> i & 1) % p
        if s == p - 1:
            bits |= 1 << mask
    return bits


def search_by_values(sig: Signature, q: int) -> Optional[Diagonal]:
    """The lex-least diagonal over GF(q) with exactly this signature, or None.

    Depth-first over inverse vectors z in lex order: at level k every value
    of z_k is tried in turn, the level's subset sums are filled one by one,
    and a value fails at the first sum whose membership disagrees.
    """
    n = sig.n
    member = sig.flags().tolist()
    sums = [0] * (1 << n)
    z = [0] * n

    def dfs(k: int) -> bool:
        base = 1 << k
        for v in range(1, q):
            ok = True
            for lower in range(base):
                s = (sums[lower] + v) % q
                sums[lower | base] = s
                if (s == q - 1) != member[lower | base]:
                    ok = False
                    break
            if ok:
                z[k] = v
                if k + 1 == n or dfs(k + 1):
                    return True
        return False

    if not dfs(0):
        return None
    field = PrimeField(q)
    return Diagonal(field, tuple(field.inv(v) for v in z))


def audit_rows_per_diagonal(p: int, n: int) -> np.ndarray:
    """Every diagonal's packed signature row, one ``_signature_rows`` call each.

    Diagonals come in the audit's order, coordinate 1 fastest; each row is
    summed on its own, with no split into blocks.
    """
    inv = PrimeField(p).inverse_table()
    rows = [
        _signature_rows(p, np.array([inv[v] for v in reversed(t)]))
        for t in itertools.product(range(1, p), repeat=n)
    ]
    return np.array(rows, dtype=np.uint8)


def audit_rows_by_table(p: int, n: int) -> np.ndarray:
    """Every diagonal's signature row (little-endian packed bytes), in decode order.

    The audit's rows held whole: with k = min(n, 3), the low block of the
    first k coordinates picks a (p-1)^k x p byte table of members by
    residue, and row (l, h) is table[l, need[h]] with need = (-1 - high
    sums) mod p, gathered one high block at a time.  With n <= 3 the rows
    are summed 2^14 diagonals at a time.
    """
    inv = np.array(PrimeField(p).inverse_table(), dtype=np.int32)
    k = min(n, 3)
    L = (p - 1) ** k
    if n == k:
        rows = np.empty((L, 1), dtype=np.uint8)
        for start in range(0, L, 1 << 14):
            ls = np.arange(start, min(start + (1 << 14), L))
            rows[start : start + len(ls)] = _signature_rows(p, inv[_decode_diagonals(p, n, ls)])
        return rows
    low = subset_sums(inv[_decode_diagonals(p, k, np.arange(L))]) % p
    table = np.zeros((L, p), dtype=np.uint8)
    for mL in range(1 << k):
        table[np.arange(L), low[:, mL]] |= 1 << mL
    H = (p - 1) ** (n - k)
    need = subset_sums(inv[_decode_diagonals(p, n - k, np.arange(H))])
    need = (-1 - need) % p
    rows = np.empty((H, L, need.shape[1]), dtype=np.uint8)
    for h in range(H):
        rows[h] = table[:, need[h]]
    return rows.reshape(H * L, -1)


def row_groups_by_keys(rows: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """The number of distinct rows, and the groups of rows that have copies.

    Each row is read as big-endian words, so word order is bytewise order,
    and gets one key: its one word, or a mix of its words.  Rows that share
    a key are sorted bytewise, which splits any run of distinct rows.
    Groups come in bytewise order of their row, each as its row indices
    ascending.  The rows are overwritten.
    """
    if len(rows) < 2:
        return len(rows), []
    words = rows.view(f">u{min(rows.shape[1], 8)}")
    if not words.dtype.isnative:
        words = words.byteswap(inplace=True).view(words.dtype.newbyteorder())
    exact = words.shape[1] == 1
    key = words[:, 0] if exact else _mix_words(words)
    ranked = np.sort(key)
    repeats = np.unique(ranked[1:][ranked[1:] == ranked[:-1]])
    if exact:
        return len(key) - int(np.isin(key, repeats).sum()) + len(repeats), [
            np.flatnonzero(key == k) for k in repeats
        ]
    shared = np.flatnonzero(np.isin(key, repeats))
    shared = shared[np.lexsort(words[shared].T[::-1])]
    ranked = words[shared]
    new = np.ones(len(shared), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    starts = np.flatnonzero(new).tolist()
    bounds = zip(starts, starts[1:] + [len(shared)])
    groups = [shared[a:b] for a, b in bounds if b - a > 1]
    return len(words) - len(shared) + len(starts), groups


def audit_by_table(p: int, n: int) -> dict:
    """uniqueness_audit's report from the rows held whole and grouped by their keys."""
    distinct, groups = row_groups_by_keys(audit_rows_by_table(p, n))
    total = (p - 1) ** n
    return {
        "p": p,
        "n": n,
        "diagonals": total,
        "distinct_signatures": distinct,
        "collisions": total - distinct,
        "collision_examples": [
            [[int(v) for v in row] for row in _decode_diagonals(p, n, group[:4])]
            for group in groups[:5]
        ],
    }


def members_by_peeling(bits: int) -> tuple[int, ...]:
    """Set bit positions, ascending, by peeling off the lowest bit each step."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def certificate_admits_by_sums(cert, q: int) -> bool:
    """Recheck a certificate at q by summing each subset of its integers directly."""
    if any(mi % q == 0 for mi in cert.m):
        return False
    for mask in range(1, 1 << cert.n):
        s = sum(cert.m[i] for i in range(cert.n) if mask >> i & 1)
        if ((s + 1) % q == 0) != bool(cert.sig_bits >> mask & 1):
            return False
    return True


FACTS_MAX_N = 16


@dataclass(frozen=True, order=True)
class LinearFact:
    """Sum of inverse-diagonal entries over `mask` equals the integer c in
    every special standard representation of the spike, over any field."""

    mask: int
    c: int

    def indices(self) -> tuple[int, ...]:
        return indices_from_mask(self.mask)


def propagate_facts(sig: Signature, p: int) -> frozenset[LinearFact]:
    """Saturate: members give -1; disjoint facts add; nested facts subtract.

    Values beyond p(p-1)/2 in absolute value cannot occur and are dropped.
    The rule set is sound but not claimed complete.
    """
    n = sig.n
    if n > FACTS_MAX_N:
        raise TooLargeError(f"fact propagation capped at n={FACTS_MAX_N}")
    bound = p * (p - 1) // 2
    seeds = [(m, -1) for m in sig.members()]
    facts: set[tuple[int, int]] = set(seeds)
    work = list(seeds)
    while work:
        I, c = work.pop()
        for J, d in list(facts):
            if I & J == 0:
                new = [(I | J, c + d)]
            elif I == J:
                continue
            elif I & J == I:
                new = [(J & ~I, d - c)]
            elif I & J == J:
                new = [(I & ~J, c - d)]
            else:
                continue
            for item in new:
                if abs(item[1]) <= bound and item not in facts:
                    facts.add(item)
                    work.append(item)
    return frozenset(LinearFact(mask, c) for mask, c in facts)


def _prime_divisors(v: int) -> list[int]:
    v = abs(v)
    return [d for d in range(2, v + 1) if v % d == 0 and all(d % e for e in range(2, d))]


def certificate_by_facts(
    sig: Signature, facts: frozenset[LinearFact], p: int
) -> Optional[CharCertificate]:
    """The certificate from facts that pin an integer for every singleton, else None."""
    n = sig.n
    pinned: dict[int, list[int]] = {i: [] for i in range(n)}
    for f in facts:
        if f.mask.bit_count() == 1:
            pinned[f.mask.bit_length() - 1].append(f.c)
    if any(not vals for vals in pinned.values()):
        return None
    return certificate_from_integers(
        sig, tuple(min(pinned[i], key=lambda c: (abs(c), c)) for i in range(n))
    )


def certificate_from_integers(sig: Signature, m: tuple[int, ...]) -> CharCertificate:
    """The certificate of inverse entries pinned to the integers m.

    A prime q admits the signature iff q divides sum(m_i, i in I) + 1
    exactly for the member subsets I, and q divides no m_i.
    """
    n = sig.n
    required: list[int] = []
    forbidden: list[int] = list(m)
    for mask in range(1, 1 << n):
        s = sum(m[i] for i in range(n) if mask >> i & 1) + 1
        (required if sig.bits >> mask & 1 else forbidden).append(s)
    if any(v == 0 for v in forbidden):
        # some divisibility is demanded of every prime and refused of every
        # prime at once: no characteristic works
        return CharCertificate(n=n, sig_bits=sig.bits, m=m, kind="finite")
    g = 0
    for v in required:
        g = gcd(g, abs(v))
    if g == 0:
        excluded = sorted({q for v in forbidden for q in _prime_divisors(v)})
        return CharCertificate(
            n=n, sig_bits=sig.bits, m=m, kind="cofinite", excluded=tuple(excluded)
        )
    admissible = [q for q in _prime_divisors(g) if all(v % q != 0 for v in forbidden)]
    return CharCertificate(
        n=n, sig_bits=sig.bits, m=m, kind="finite", primes=tuple(admissible)
    )


def is_circuit(M: MatrixGF) -> bool:
    """The column set is dependent but every proper subset is independent."""
    k = M.cols
    if rank_by_rows(M) == k:
        return False
    for drop in range(k):
        keep = [j for j in range(k) if j != drop]
        if rank_by_rows(M.select_columns(keep)) < k - 1:
            return False
    return True


def axioms_by_definition(M: MatrixGF) -> bool:
    """The three spike conditions as stated: every pair of points on a line
    ranked, every set of k < n lines ranked, then the whole matrix."""
    n = M.rows
    line = [[i, n, n + 1 + i] for i in range(n)]
    for cols in line:
        for pair in itertools.combinations(cols, 2):
            if rank_by_rows(M.select_columns(pair)) != 2:
                return False
    for k in range(1, n):
        for lines in itertools.combinations(range(n), k):
            cols = sorted({c for i in lines for c in line[i]})
            if rank_by_rows(M.select_columns(cols)) != k + 1:
                return False
    return rank_by_rows(M) == n


def least_mask_subset_sum(p: int, a: tuple[int, ...], target: int) -> int | None:
    """Smallest bitmask of a nonempty subset of a summing to target mod p."""
    for mask in range(1, 1 << len(a)):
        s = sum(a[i] for i in range(len(a)) if mask >> i & 1) % p
        if s == target % p:
            return mask
    return None


def reach_history_by_rotation(p: int, a: tuple[int, ...]) -> list[int]:
    """hist[i] = bitmask of sums attainable by nonempty subsets of a[:i+1], one int per step."""
    full = (1 << p) - 1
    hist = []
    R = 0
    for ai in a:
        rot = ((R << ai) | (R >> (p - ai))) & full if ai else R
        R = R | rot | (1 << ai)
        hist.append(R)
        if R == full:
            break
    return hist


def reconstruct_by_first_reach(
    p: int, a: tuple[int, ...], hist: list[int], target: int
) -> tuple[int, ...]:
    """Walk first-reach steps backwards, searching each step's prefix of the history."""
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


def sweep_by_product(lemma: str, p: int, n: int, low: int, targets) -> dict:
    """The lemma sweep as one scalar loop over itertools.product, tuple by tuple."""
    checked = 0
    failures = []
    for a in itertools.product(range(low, p), repeat=n):
        hist = reach_history_by_rotation(p, a)
        for k in targets:
            checked += 1
            if not hist[-1] >> k & 1:
                failures.append({"a": list(a), "k": k})
                continue
            witness = reconstruct_by_first_reach(p, a, hist, k)
            if sum(a[i - 1] for i in witness) % p != k:
                failures.append({"a": list(a), "k": k, "witness": list(witness)})
    return {"lemma": lemma, "p": p, "n": n, "checked": checked, "failures": failures}


def bases_bruteforce(M: MatrixGF) -> tuple[int, ...]:
    """All maximal-rank column subsets as ascending bitmasks, by direct rank calls."""
    n_cols = M.cols
    r = rank_by_rows(M)
    out = []
    for cols in itertools.combinations(range(n_cols), r):
        if rank_by_rows(M.select_columns(list(cols))) == r:
            out.append(sum(1 << j for j in cols))
    return tuple(sorted(out))


def swap_closure_bfs(x: Diagonal) -> list[Diagonal]:
    """All diagonals reachable by sequences of swaps, by search to a fixpoint.

    Applies every valid swap to every member found, so it assumes nothing
    about how swaps compose.  First-seen order.
    """
    n = x.n
    seen = {x.x}
    queue = [x]
    out = [x]
    while queue:
        z = queue.pop()
        sig = signature(z)
        for smask in range(1, 1 << n):
            if smask in sig:
                continue
            w = swap(z, smask)
            if w.x not in seen:
                seen.add(w.x)
                queue.append(w)
                out.append(w)
    return out


def swap_closure_by_swaps(x: Diagonal) -> list[Diagonal]:
    """x, then swap(x, S) for each nonempty S outside the signature, ascending
    by mask: one scalar swap call per valid set, deduplicated first-seen."""
    sig = signature(x)
    members = {x.x: x}
    for smask in range(1, 1 << x.n):
        if not sig.bits >> smask & 1:
            w = swap(x, smask)
            members.setdefault(w.x, w)
    return list(members.values())


def closure_rows_by_swaps(p: int, x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``spikes._closure_rows`` by one scalar swap call per valid mask: each
    diagonal's 2^n rows by ascending mask, 0 at a mask in its signature, and
    which masks are valid.  The inverse entries z are not read."""
    B, n = x.shape
    rows = np.zeros((B, 1 << n, n), dtype=np.int64)
    valid = np.zeros((B, 1 << n), dtype=bool)
    field = PrimeField(p)
    for b, entries in enumerate(x.tolist()):
        d = Diagonal(field, tuple(entries))
        sig = signature(d)
        for smask in range(1 << n):
            if not sig.bits >> smask & 1:
                rows[b, smask] = swap(d, smask).x
                valid[b, smask] = True
    return rows, valid


def enumerate_orbits_by_tuples(p: int, n: int) -> list[tuple[Diagonal, list[tuple[int, ...]]]]:
    """Each class's lex-least member with its distinct closure multisets, in
    lex order, by the lex scan that keeps every closure multiset met as a tuple
    in one set: a multiset not yet met starts a new class."""
    field = PrimeField(p)
    seen: set[tuple[int, ...]] = set()
    classes = []
    for vec in itertools.combinations_with_replacement(range(1, p), n):
        if vec in seen:
            continue
        d = Diagonal(field, vec)
        multisets = _closure_multisets(d)
        assert vec == multisets[0], f"lex scan met the orbit of {multisets[0]} at {vec}"
        seen.update(multisets)
        classes.append((d, multisets))
    return classes


def orbit_materialized(x: Diagonal) -> set[tuple[int, ...]]:
    """Weak-equivalence orbit as a set: every permutation of every BFS member."""
    return {
        perm for z in swap_closure_bfs(x) for perm in itertools.permutations(z.x)
    }


def random_diagonal(rng: random.Random, p: int, n: int) -> Diagonal:
    field = PrimeField(p)
    return Diagonal(field, tuple(rng.randrange(1, p) for _ in range(n)))


def random_matrix(rng: random.Random, p: int, m: int, n: int) -> list[list[int]]:
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(
        [f"e{i}" for i in range(1, n + 1)] + ["t"] + [f"f{i}" for i in range(1, n + 1)]
    )


@dataclass(frozen=True)
class SpikeRep:
    """n x (2n+1) special standard matrix; labels track which original column sits where."""

    matrix: MatrixGF
    labels: tuple[str, ...]

    @classmethod
    def of(cls, x: Diagonal) -> "SpikeRep":
        return cls(build_rep(x), default_labels(x.n))

    @property
    def n(self) -> int:
        return self.matrix.rows

    def diagonal(self) -> Diagonal:
        """Read the diagonal off the co-basis block; insists on the standard pattern."""
        n = self.n
        m = self.matrix.entries
        p = self.matrix.field.p
        x = []
        for j in range(n):
            for i in range(n):
                if i != j and m[i][n + 1 + j] != 1:
                    raise MismatchedShapeError("co-basis block is not in standard form")
            x.append((m[j][n + 1 + j] - 1) % p)
        return Diagonal(self.matrix.field, tuple(x))


def change_basis_standardize(R: SpikeRep, smask: int) -> SpikeRep:
    """Matrix-level swap: change to the transversal basis at smask, then re-standardize.

    Order of operations: invert the new basis block by cofactors, multiply,
    reorder columns so the new basis leads (labels move with their
    columns), scale each row to make the tip column all ones (compensating
    in the basis block), then scale each co-basis column to make its
    off-diagonal entries 1.  The final pattern is asserted before the
    diagonal is read off.
    """
    n = R.n
    if smask == 0:
        return R
    field = R.matrix.field
    p = field.p
    basis_src = [n + 1 + i if smask >> i & 1 else i for i in range(n)]
    cobasis_src = [i if smask >> i & 1 else n + 1 + i for i in range(n)]
    Binv = inverse_by_cofactors(p, R.matrix.select_columns(basis_src).entries)
    if Binv is None:
        raise DependentTransversalError(
            f"transversal at {indices_from_mask(smask)} is not a basis"
        )
    order = basis_src + [n] + cobasis_src
    ent = matmul(p, Binv, R.matrix.select_columns(order).entries)
    labels = tuple(R.labels[j] for j in order)
    for i in range(n):
        for j in range(n):
            assert ent[i][j] == (1 if i == j else 0), "basis block failed to reduce"
    tip = [ent[i][n] for i in range(n)]
    assert all(tip), "tip column hit a zero coordinate"
    alpha = [field.inv(t) for t in tip]
    out = [[1 if j == i else 0 for j in range(n)] + [1] + [0] * n for i in range(n)]
    for j in range(n):
        col = [(alpha[i] * ent[i][n + 1 + j]) % p for i in range(n)]
        off = {col[i] for i in range(n) if i != j}
        assert len(off) == 1, "co-basis column off-diagonals disagree"
        common = off.pop()
        assert common != 0, "co-basis column has zero off-diagonal"
        y = (col[j] * field.inv(common) - 1) % p
        assert y != 0, "re-standardized diagonal entry is zero"
        for i in range(n):
            out[i][n + 1 + j] = 1 if i != j else (1 + y) % p
    return SpikeRep(MatrixGF(field, out), labels)
