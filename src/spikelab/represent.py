"""Cross-field representability machinery.

A signature is field-agnostic data: which transversals are dependent.  This
module decides, for a given signature, over which prime fields a diagonal
with exactly that signature exists — by pruned exhaustive search, and when
integer fact propagation pins every coordinate, by an exact divisibility
certificate that covers all characteristics at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .bitsets import indices_from_mask, subset_sums
from .errors import (
    BudgetExceededError,
    InconclusiveError,
    OutOfRangeError,
    TooLargeError,
    TooSmallError,
    VerdictMismatchError,
    ZeroEntryError,
)
from .field import PrimeField
from .spikes import (
    CANONICAL_MAX_N,
    Diagonal,
    Signature,
    enumerate_spikes,
    signature,
    swap_closure,
)

DEFAULT_NODE_BUDGET = 10**8
AUDIT_BUDGET = 10**9
SEARCH_MAX_N = 12
FACTS_MAX_N = 16
MAX_TEST_PRIME = 97
LBOUND_MAX_P = 7

_AUDIT_CHUNK = 8192


# ---------------------------------------------------------------------------
# exhaustive representability search


def search_rep(
    sig: Signature, q: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[Optional[Diagonal], int]:
    """Find a diagonal over GF(q) with exactly this signature, plus node count.

    Depth-first over inverse vectors z in (GF(q)\\{0})^n in lex order.  Once
    z_k is placed, every subset whose top index is k+1 has its sum settled,
    so membership can be enforced immediately; a complete pruned sweep is
    still exhaustive, so a None return proves non-existence.
    """
    n = sig.n
    if n > SEARCH_MAX_N:
        raise TooLargeError(f"search capped at n={SEARCH_MAX_N}, got {n}")
    field = PrimeField(q)
    target = q - 1
    sigbits = sig.bits
    sums = [0] * (1 << n)
    z = [0] * n
    nodes = 0

    def dfs(k: int) -> bool:
        nonlocal nodes
        base = 1 << k
        # fills one lattice level per node and exits early: not subset_sums
        for v in range(1, q):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"node budget {node_budget} exhausted searching GF({q})"
                )
            ok = True
            for lower in range(base):
                s = sums[lower] + v
                if s >= q:
                    s -= q
                mask = lower | base
                sums[mask] = s
                if (s == target) != bool(sigbits >> mask & 1):
                    ok = False
                    break
            if ok:
                z[k] = v
                if k + 1 == n or dfs(k + 1):
                    return True
        return False

    if dfs(0):
        return Diagonal(field, tuple(field.inv(v) for v in z)), nodes
    return None, nodes


# ---------------------------------------------------------------------------
# uniqueness audit (signature-map injectivity)


def _decode_diagonals(p: int, n: int, ts: "np.ndarray") -> "np.ndarray":
    """Mixed-radix decode of linear indices into diagonals (coordinate 1 fastest)."""
    radix = (p - 1) ** np.arange(n, dtype=np.int64)
    return (ts[:, None] // radix[None, :]) % (p - 1) + 1


def _packed_sig_rows(field: PrimeField, diags: "np.ndarray") -> "np.ndarray":
    """Signature bit rows (little-endian packed bytes) for a block of diagonals.

    Sums stay in int16 while n(p-1) fits, else int32.
    """
    p = field.p
    n = diags.shape[1]
    dtype = np.int16 if n * (p - 1) < 1 << 15 else np.int32
    Z = np.array(field.inverse_table(), dtype=dtype)[diags]
    return np.packbits(subset_sums(Z) % p == p - 1, axis=1, bitorder="little")


def uniqueness_audit(p: int, n: int, budget: int = AUDIT_BUDGET) -> dict:
    """Compute every diagonal's signature over GF(p) and count collisions."""
    field = PrimeField(p)
    total = (p - 1) ** n
    cost = total * (1 << n)
    if cost > budget:
        raise BudgetExceededError(f"{cost} subset sums exceed budget {budget}")
    width = ((1 << n) + 7) // 8
    rows = np.empty((total, width), dtype=np.uint8)
    for start in range(0, total, _AUDIT_CHUNK):
        stop = min(start + _AUDIT_CHUNK, total)
        ts = np.arange(start, stop, dtype=np.int64)
        rows[start:stop] = _packed_sig_rows(field, _decode_diagonals(p, n, ts))
    # rows as opaque byte strings: the same bytewise order as
    # np.unique(axis=0), without its structured dtype of one field per byte
    _, inverse, counts = np.unique(
        rows.view(np.dtype((np.void, width))).ravel(),
        return_inverse=True,
        return_counts=True,
    )
    distinct = len(counts)
    collisions = total - distinct
    examples = []
    if collisions:
        dup_groups = np.flatnonzero(counts > 1)[:5]
        for g in dup_groups:
            ts = np.flatnonzero(inverse == g)[:4]
            diags = _decode_diagonals(p, n, ts.astype(np.int64))
            examples.append([[int(v) for v in row] for row in diags])
    return {
        "command": "unique",
        "p": p,
        "n": n,
        "diagonals": total,
        "distinct_signatures": distinct,
        "collisions": collisions,
        "collision_examples": examples,
    }


# ---------------------------------------------------------------------------
# integer fact propagation and the characteristic certificate


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


@dataclass(frozen=True)
class CharCertificate:
    """Exact admissible-characteristic description from pinned integers m_i.

    A prime q admits a diagonal with the signature iff q divides
    sum(m_i, i in I) + 1 exactly for the member subsets I, and q divides no
    m_i.  The derivation is exact, so the finite/cofinite description covers
    every characteristic, not just the primes anyone tested.
    """

    n: int
    sig_bits: int
    m: tuple[int, ...]
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
            "singleton_integers": list(self.m),
            "covers_all_characteristics": True,
        }
        if self.kind == "finite":
            out["admissible_primes"] = list(self.primes)
        else:
            out["excluded_primes"] = list(self.excluded)
        return out


def build_certificate(
    sig: Signature, facts: frozenset[LinearFact], p: int
) -> Optional[CharCertificate]:
    """Certificate when the facts pin an integer for every singleton, else None."""
    n = sig.n
    pinned: dict[int, list[int]] = {i: [] for i in range(n)}
    for f in facts:
        if f.mask.bit_count() == 1:
            pinned[f.mask.bit_length() - 1].append(f.c)
    if any(not vals for vals in pinned.values()):
        return None
    m = tuple(min(pinned[i], key=lambda c: (abs(c), c)) for i in range(n))
    # |sum| <= FACTS_MAX_N * p(p-1)/2 < 2^63
    sums = subset_sums(np.array(m, dtype=np.int64)).tolist()
    required: list[int] = []
    forbidden: list[int] = list(m)
    for mask in range(1, 1 << n):
        (required if sig.bits >> mask & 1 else forbidden).append(sums[mask] + 1)
    if any(v == 0 for v in forbidden):
        # some divisibility is demanded of every prime and refused of every
        # prime at once: no characteristic works
        return CharCertificate(n=n, sig_bits=sig.bits, m=m, kind="finite")
    g = 0
    for v in required:
        g = gcd(g, abs(v))
    if g == 0:
        excluded = sorted({q for v in forbidden for q in _prime_factors(v)})
        return CharCertificate(
            n=n, sig_bits=sig.bits, m=m, kind="cofinite", excluded=tuple(excluded)
        )
    admissible = [
        q for q in _prime_factors(g) if all(v % q != 0 for v in forbidden)
    ]
    return CharCertificate(
        n=n, sig_bits=sig.bits, m=m, kind="finite", primes=tuple(admissible)
    )


def _witness_from_certificate(cert: CharCertificate, q: int) -> Diagonal:
    field = PrimeField(q)
    z = [mi % q for mi in cert.m]
    assert all(z), "certificate admitted q yet a pinned integer vanishes mod q"
    diag = Diagonal(field, tuple(field.inv(v) for v in z))
    assert signature(diag).bits == cert.sig_bits, (
        "certificate witness failed signature recomputation"
    )
    return diag


# ---------------------------------------------------------------------------
# characteristic-set verdicts


@dataclass(frozen=True)
class CharVerdict:
    q: int
    representable: str  # "yes" | "no" | "unknown"
    witness: Optional[Diagonal]
    method: str  # "exhaustive-search" | "certificate"

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "representable": self.representable,
            "witness": list(self.witness.x) if self.witness else None,
            "method": self.method,
        }


def _check_test_primes(primes: Sequence[int]) -> None:
    for q in primes:
        if q > MAX_TEST_PRIME:
            raise OutOfRangeError(f"test primes capped at {MAX_TEST_PRIME}, got {q}")
        PrimeField(q)


def characteristic_set(
    x: Diagonal,
    primes: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> dict:
    """Per-prime verdicts by search, plus the exact certificate when facts allow.

    Certificate and search must agree on every prime where the search came
    to a conclusion; disagreement means a bug and raises VerdictMismatchError.
    """
    if x.n > SEARCH_MAX_N:
        raise TooLargeError(f"characteristic scan capped at n={SEARCH_MAX_N}")
    _check_test_primes(primes)
    sig = signature(x)
    facts = propagate_facts(sig, x.p)
    cert = build_certificate(sig, facts, x.p)
    verdicts: list[CharVerdict] = []
    nodes_total = 0
    exhausted: list[int] = []
    for q in primes:
        try:
            witness, nodes = search_rep(sig, q, node_budget)
            nodes_total += nodes
            verdicts.append(
                CharVerdict(
                    q=q,
                    representable="yes" if witness else "no",
                    witness=witness,
                    method="exhaustive-search",
                )
            )
        except BudgetExceededError:
            nodes_total += node_budget
            exhausted.append(q)
            if cert is not None:
                ok = cert.admits(q)
                verdicts.append(
                    CharVerdict(
                        q=q,
                        representable="yes" if ok else "no",
                        witness=_witness_from_certificate(cert, q) if ok else None,
                        method="certificate",
                    )
                )
            else:
                verdicts.append(
                    CharVerdict(
                        q=q, representable="unknown", witness=None,
                        method="exhaustive-search",
                    )
                )
    if cert is not None:
        for v in verdicts:
            if v.method == "exhaustive-search" and v.representable != "unknown":
                if cert.admits(v.q) != (v.representable == "yes"):
                    raise VerdictMismatchError(
                        f"certificate and search disagree at q={v.q} "
                        f"for diagonal {x.text()}"
                    )
    return {
        "command": "charset",
        "p": x.p,
        "n": x.n,
        "diagonal": list(x.x),
        "primes": list(primes),
        "verdicts": [v.to_dict() for v in verdicts],
        "certificate": cert.to_report() if cert else None,
        "budget_exhausted": exhausted,
        "nodes_visited": nodes_total,
    }


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
        field = PrimeField(q)
        residues = tuple(v % q for v in self.values)
        if any(r == 0 for r in residues):
            raise ZeroEntryError(f"entry divisible by {q}")
        return Diagonal(field, residues)

    def rep_rows(self) -> list[list[int]]:
        """Integer special standard matrix rows (reduce mod q to represent)."""
        n = self.n
        return [
            [1 if j == i else 0 for j in range(n)]
            + [1]
            + [1 + self.values[i] if j == i else 1 for j in range(n)]
            for i in range(n)
        ]


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


def _floor_log2_frac(num: int, den: int) -> int:
    """floor(log2(num/den)) for num/den >= 1, in exact integer arithmetic."""
    t = 0
    while den << (t + 1) <= num:
        t += 1
    return t


def threshold_interval(p: int) -> tuple[int, int]:
    lo = (p + 2).bit_length() - 1 + 1
    hi = (p + 2).bit_length() - 1 + _floor_log2_frac(4 * (p + 2), 3)
    return lo, hi


def _class_certificate(
    d: Diagonal, p: int
) -> tuple[Optional[CharCertificate], Optional[Diagonal]]:
    """Certificate for d, else for any swap-equivalent labeled diagonal.

    Representability over a field is a weak-equivalence invariant, so a
    certificate for any orbit member settles the whole class.  Permutations
    never help (the rules are label-equivariant), so only the swap closure
    is scanned.
    """
    sig = signature(d)
    cert = build_certificate(sig, propagate_facts(sig, p), p)
    if cert is not None:
        return cert, d
    for z in swap_closure(d):
        if z.x == d.x:
            continue
        s = signature(z)
        cert = build_certificate(s, propagate_facts(s, p), p)
        if cert is not None:
            return cert, z
    return None, None


def estimate_L(
    p: int,
    primes: Sequence[int],
    n_max: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> dict:
    """Least n in [3, n_max] with a spike over GF(p) in no other tested characteristic.

    Scans canonical class representatives; a class counts only when a
    certificate excludes every other tested prime.  A class that defeats
    every search yet has no certificate makes the level inconclusive, which
    raises rather than guesses.  The winning class is searched again over
    every prime; a conclusive verdict that its certificate contradicts
    raises VerdictMismatchError.
    """
    PrimeField(p)
    if p > LBOUND_MAX_P:
        raise OutOfRangeError(f"experiment capped at p={LBOUND_MAX_P}")
    if n_max > CANONICAL_MAX_N:
        raise TooLargeError(f"experiment capped at n_max={CANONICAL_MAX_N}")
    if n_max < 3:
        raise TooSmallError("spikes need n >= 3")
    _check_test_primes(primes)
    others = [q for q in primes if q != p]
    nodes_total = 0
    levels = []
    found: Optional[Diagonal] = None
    found_cert: Optional[CharCertificate] = None
    found_via: Optional[Diagonal] = None
    found_n: Optional[int] = None
    for n in range(3, n_max + 1):
        reps = enumerate_spikes(p, n)
        certified: list[tuple[Diagonal, CharCertificate, Diagonal]] = []
        unexplained: list[Diagonal] = []
        for d in reps:
            cert, via = _class_certificate(d, p)
            if cert is not None:
                if all(not cert.admits(q) for q in others):
                    certified.append((d, cert, via))
                continue
            sig = signature(d)
            all_no = True
            for q in others:
                witness, nodes = search_rep(sig, q, node_budget)
                nodes_total += nodes
                if witness is not None:
                    all_no = False
                    break
            if all_no:
                unexplained.append(d)
        levels.append(
            {
                "n": n,
                "classes": len(reps),
                "certified": len(certified),
                "uncertified_candidates": len(unexplained),
            }
        )
        if certified:
            found, found_cert, found_via = certified[0]
            found_n = n
            break
        if unexplained:
            raise InconclusiveError(
                f"n={n}: {unexplained[0].text()} defeated every search over "
                f"{others} but no certificate pins its characteristic"
            )
    lo, hi = threshold_interval(p)
    if found is not None and found_cert is not None:
        # cross-check the winning class against plain search on every prime
        confirm = characteristic_set(found, list(primes), node_budget)
        nodes_total += confirm["nodes_visited"]
        for v in confirm["verdicts"]:
            if v["representable"] != "unknown" and (
                (v["representable"] == "yes") != found_cert.admits(v["q"])
            ):
                raise VerdictMismatchError(
                    f"confirming run disagrees with the certificate at q={v['q']} "
                    f"for diagonal {found.text()}"
                )
    return {
        "command": "lbound",
        "p": p,
        "n_max": n_max,
        "primes": list(primes),
        "found_n": found_n,
        "witness": list(found.x) if found else None,
        "witness_text": found.text() if found else None,
        "certificate": found_cert.to_report() if found_cert else None,
        "certified_via": list(found_via.x) if found_via is not None else None,
        "interval": [lo, hi],
        "in_interval": found_n is not None and lo <= found_n <= hi,
        "levels": levels,
        "nodes_visited": nodes_total,
    }
