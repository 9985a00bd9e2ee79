"""Cross-field representability machinery.

A signature is field-agnostic data: which transversals are dependent.  This
module decides, for a given signature, over which prime fields a diagonal
with exactly that signature exists: per prime by pruned exhaustive search,
and for every characteristic at once by one elimination over Q, with a
pruned search over GF(q) for the finitely many primes it leaves open.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

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
from .field import PrimeField, is_prime
from .matrix import rref
from .spikes import (
    CANONICAL_MAX_N,
    SIGNATURE_MAX_N,
    Diagonal,
    Signature,
    enumerate_spikes,
    signature,
)

DEFAULT_NODE_BUDGET = 10**8
AUDIT_BUDGET = 10**9
SEARCH_MAX_N = 12
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
    if node_budget < 0:
        raise TooSmallError(f"node budget must be >= 0, got {node_budget}")
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
    if n < 1:
        raise TooSmallError(f"audit needs n >= 1, got {n}")
    if n > SIGNATURE_MAX_N:
        raise TooLargeError(f"audit capped at n={SIGNATURE_MAX_N}")
    total = (p - 1) ** n
    cost = total * (1 << n)
    if cost > budget:
        raise BudgetExceededError(f"{cost} subset sums exceed budget {budget}")
    width = ((1 << n) + 7) // 8
    rows = np.empty((total, width), dtype=np.uint8)
    # no chunk's sum table outgrows signature's at its cap
    chunk = min(_AUDIT_CHUNK, (1 << SIGNATURE_MAX_N) >> n)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
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


def _solution_space(sig: Signature, q: Optional[int] = None) -> tuple[list, list[list], list]:
    """The z with sum(z_i, i in I) = -1 for every member I, over Q (q None) or GF(q).

    Returns (z0, directions, pivots): the solutions are z0 plus any
    combination of the directions, one per free coordinate, which is 1 there
    and 0 at the other free coordinates (mod q, its entries are left
    unreduced); z0 is None when there is no solution.  pivots are the
    elimination's, as ``rref`` met them.
    """
    n = sig.n
    rows = [[mask >> i & 1 for i in range(n)] + [-1] for mask in sig.members()]
    reduced, cols, pivots = rref(rows, q)
    if cols and cols[-1] == n:
        return None, [], pivots
    z0 = [0] * n
    for row, c in zip(reduced, cols):
        z0[c] = row[n]
    directions = []
    for f in (j for j in range(n) if j not in cols):
        v = [0] * n
        v[f] = 1
        for row, c in zip(reduced, cols):
            v[c] = -row[f]
        directions.append(v)
    return z0, directions, pivots


def _forms(sig: Signature, F: "np.ndarray", one: int) -> "np.ndarray":
    """Coefficients of the forbidden affine forms on the solution space.

    F stacks z0 and the directions as integers, scaled so that 1 reads
    ``one``.  The columns are sum(z_i, i in J) + 1 for each nonempty
    non-member J, then z_i for each i: row 0 the constant, row j the
    coefficient on direction j.  A point is admissible iff no form vanishes.
    """
    sums = subset_sums(F)
    sums[0] += one
    nonmember = [mask for mask in range(1, 1 << sig.n) if not sig.bits >> mask & 1]
    return np.concatenate([sums[:, nonmember], F], axis=1)


def _admissible_point(sig: Signature, q: int, budget: int) -> tuple[Optional[list[int]], int]:
    """An inverse vector over GF(q) with exactly this signature, or None; plus form values spent.

    Row-reduces the member equations mod q, then searches the solution
    space depth-first over nonzero free coordinates in ascending order.  A
    forbidden form is checked as soon as its last free coordinate with a
    nonzero coefficient is set, where it rules out one value, so a level
    with fewer forms to check than q - 1 values never dead-ends.  A
    complete pruned search is exhaustive, so None proves there is no point.
    Each form value counts as one subset sum against the budget.
    """
    z0, directions, _ = _solution_space(sig, q)
    if z0 is None:
        return None, 0
    # q < 2^29 (a special prime divides a form coefficient or a pivot), so
    # sums of a dozen products of residues fit in int64
    F = np.array([z0] + directions, dtype=np.int64)
    forms = _forms(sig, F, 1) % q
    spent = forms.size
    k = len(directions)
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
    return ((F[0] + t @ F[1:]) % q).tolist(), spent


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
            "covers_all_characteristics": True,
        }
        if self.kind == "finite":
            out["admissible_primes"] = list(self.primes)
        else:
            out["excluded_primes"] = list(self.excluded)
        return out


def build_certificate(sig: Signature) -> CharCertificate:
    """Decide every characteristic at once from one elimination over Q.

    Let V be the rational solutions of the member equations, k its
    dimension, and h the number of forbidden hyperplanes (one per nonempty
    non-member, one per coordinate).  Outside the primes B that divide a
    pivot of the elimination, reduction mod q commutes with it, so V mod q
    is the solution space over GF(q).  There a prime q gets the
    generic answer: no if V is empty or a forbidden hyperplane contains V,
    yes otherwise, unless q divides every coefficient of some forbidden
    form on V, or k >= 1 and q <= h (h hyperplanes cover at most
    h q^(k-1) < q^k points only when q > h).  Those primes, and B, are
    decided one by one by ``_admissible_point``.
    """
    n = sig.n
    if n > SEARCH_MAX_N:
        raise TooLargeError(f"characteristic decision capped at n={SEARCH_MAX_N}")
    z0, directions, pivots = _solution_space(sig)
    special = {f for pv in pivots for f in _prime_factors(pv)}
    generic = False
    m = None
    if z0 is not None:
        scale = lcm(*(v.denominator for v in z0 + [c for d in directions for c in d]))
        # scaled entries are minors of [A | -1], at most 13^6.5 < 2^25 (Hadamard)
        # for n <= 12, so every form coefficient stays below 2^29
        F = np.array([[int(v * scale) for v in row] for row in [z0] + directions], dtype=np.int64)
        content = np.gcd.reduce(np.abs(_forms(sig, F, scale)), axis=0)
        generic = bool(content.all())
        if generic:
            special.update(f for v in np.unique(content).tolist() for f in _prime_factors(v))
            if directions:
                h = (1 << n) - 1 - sig.size + n
                special.update(v for v in range(2, h + 1) if is_prime(v))
        if not directions and scale == 1:
            m = tuple(int(v) for v in z0)
    # a cofinite set lists the special primes that fail, a finite one those that pass
    listed = []
    spent = 0
    for q in sorted(special):
        point, cost = _admissible_point(sig, q, AUDIT_BUDGET - spent)
        spent += cost
        if (point is None) == generic:
            listed.append(q)
    if generic:
        return CharCertificate(n, sig.bits, m, "cofinite", excluded=tuple(listed))
    return CharCertificate(n, sig.bits, m, "finite", primes=tuple(listed))


def _witness(sig: Signature, q: int) -> Diagonal:
    """The diagonal over GF(q) of the point ``_admissible_point`` finds."""
    z, _ = _admissible_point(sig, q, AUDIT_BUDGET)
    if z is None:
        raise VerdictMismatchError(f"the certificate admits q={q} but GF({q}) has no point")
    field = PrimeField(q)
    diag = Diagonal(field, tuple(field.inv(v) for v in z))
    assert signature(diag).bits == sig.bits, "witness failed signature recomputation"
    return diag


# ---------------------------------------------------------------------------
# characteristic-set verdicts


@dataclass(frozen=True)
class CharVerdict:
    q: int
    representable: str  # "yes" | "no"
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
    """Per-prime verdicts by search, plus the exact certificate.

    Where the search runs out of budget the certificate gives the verdict,
    with the point ``_admissible_point`` finds as the witness.  Certificate
    and search must agree on every prime the search finished; disagreement
    means a bug and raises VerdictMismatchError.
    """
    if x.n > SEARCH_MAX_N:
        raise TooLargeError(f"characteristic scan capped at n={SEARCH_MAX_N}")
    _check_test_primes(primes)
    sig = signature(x)
    cert = build_certificate(sig)
    verdicts: list[CharVerdict] = []
    nodes_total = 0
    exhausted: list[int] = []
    for q in primes:
        try:
            witness, nodes = search_rep(sig, q, node_budget)
        except BudgetExceededError:
            nodes_total += node_budget
            exhausted.append(q)
            witness = _witness(sig, q) if cert.admits(q) else None
            verdicts.append(CharVerdict(q, "yes" if witness else "no", witness, "certificate"))
            continue
        nodes_total += nodes
        if cert.admits(q) != (witness is not None):
            raise VerdictMismatchError(
                f"certificate and search disagree at q={q} for diagonal {x.text()}"
            )
        verdicts.append(
            CharVerdict(q, "yes" if witness else "no", witness, "exhaustive-search")
        )
    return {
        "command": "charset",
        "p": x.p,
        "n": x.n,
        "diagonal": list(x.x),
        "primes": list(primes),
        "verdicts": [v.to_dict() for v in verdicts],
        "certificate": cert.to_report(),
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


def estimate_L(
    p: int,
    primes: Sequence[int],
    n_max: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> dict:
    """Least n in [3, n_max] with a spike over GF(p) in no other tested characteristic.

    Scans canonical class representatives in order; a class counts when its
    certificate admits none of the other tested primes.  The winning class
    is searched again over every prime; a verdict that its certificate
    contradicts raises VerdictMismatchError.
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
    levels = []
    certified: list[tuple[Diagonal, CharCertificate]] = []
    for n in range(3, n_max + 1):
        reps = enumerate_spikes(p, n)
        certs = [(d, build_certificate(signature(d))) for d in reps]
        certified = [(d, c) for d, c in certs if not any(c.admits(q) for q in others)]
        levels.append({"n": n, "classes": len(reps), "certified": len(certified)})
        if certified:
            break
    found, cert = certified[0] if certified else (None, None)
    lo, hi = threshold_interval(p)
    nodes_total = 0
    if found is not None:
        # cross-check the winning class against plain search on every prime
        confirm = characteristic_set(found, list(primes), node_budget)
        nodes_total = confirm["nodes_visited"]
        for v in confirm["verdicts"]:
            if (v["representable"] == "yes") != cert.admits(v["q"]):
                raise VerdictMismatchError(
                    f"confirming run disagrees with the certificate at q={v['q']} "
                    f"for diagonal {found.text()}"
                )
    found_n = found.n if found else None
    return {
        "command": "lbound",
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
        "nodes_visited": nodes_total,
    }
