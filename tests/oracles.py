"""Slow, independently written reference implementations.

Everything here favors obviousness over speed: cofactor determinants and
inverses, per-subset summation, rank probes against explicitly built column
sets, the swap as an explicit change of basis, the lemma sweep as one
scalar loop over the product.  Fast library code is only
trusted where it agrees with these.
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
from spikelab.spikes import _signature_rows


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
    if M.rank() == k:
        return False
    for drop in range(k):
        keep = [j for j in range(k) if j != drop]
        if M.select_columns(keep).rank() < k - 1:
            return False
    return True


def axioms_by_definition(M: MatrixGF) -> bool:
    """The three spike conditions as stated: every pair of points on a line
    ranked, every set of k < n lines ranked, then the whole matrix."""
    n = M.rows
    line = [[i, n, n + 1 + i] for i in range(n)]
    for cols in line:
        for pair in itertools.combinations(cols, 2):
            if M.select_columns(pair).rank() != 2:
                return False
    for k in range(1, n):
        for lines in itertools.combinations(range(n), k):
            cols = sorted({c for i in lines for c in line[i]})
            if M.select_columns(cols).rank() != k + 1:
                return False
    return M.rank() == n


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
