"""Slow, independently written reference implementations.

Everything here favors obviousness over speed: cofactor determinants,
per-subset summation, rank probes against explicitly built column sets.
Fast library code is only trusted where it agrees with these.
"""

from __future__ import annotations

import itertools
import random

from spikelab import Diagonal, MatrixGF, PrimeField, signature, swap


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
        if transversal_matrix(x, mask).rank() < x.n:
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


def certificate_admits_by_sums(cert, q: int) -> bool:
    """Recheck a certificate at q by summing each subset of its integers directly."""
    if any(mi % q == 0 for mi in cert.m):
        return False
    for mask in range(1, 1 << cert.n):
        s = sum(cert.m[i] for i in range(cert.n) if mask >> i & 1)
        if ((s + 1) % q == 0) != bool(cert.sig_bits >> mask & 1):
            return False
    return True


def is_circuit(M: MatrixGF) -> bool:
    """The column set is dependent but every proper subset is independent."""
    k = M.cols
    if M.rank() == k:
        return False
    for drop in range(k):
        keep = [j for j in range(k) if j != drop]
        if M.select_columns(keep).rank() < k - 1:
            return False
    return True


def least_mask_subset_sum(p: int, a: tuple[int, ...], target: int) -> int | None:
    """Smallest bitmask of a nonempty subset of a summing to target mod p."""
    for mask in range(1, 1 << len(a)):
        s = sum(a[i] for i in range(len(a)) if mask >> i & 1) % p
        if s == target % p:
            return mask
    return None


def bases_bruteforce(M: MatrixGF) -> tuple[int, ...]:
    """All maximal-rank column subsets as ascending bitmasks, by direct rank calls."""
    n_cols = M.cols
    r = M.rank()
    out = []
    for cols in itertools.combinations(range(n_cols), r):
        if M.select_columns(list(cols)).rank() == r:
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
