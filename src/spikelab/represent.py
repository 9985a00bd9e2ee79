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
    _signature_rows,
    enumerate_spikes,
    signature,
)

AUDIT_BUDGET = 10**9
SEARCH_MAX_N = 12
MAX_TEST_PRIME = 97
LBOUND_MAX_P = 7

_AUDIT_CHUNK = 8192


# ---------------------------------------------------------------------------
# exhaustive representability search


# subset sums a lattice search may compute before it hands over to the
# solution-space search; at about 0.3 us a sum that is about 0.3 s
_LATTICE_CAP = 10**6


def search_rep(sig: Signature, q: int) -> tuple[Optional[Diagonal], int]:
    """Find a diagonal over GF(q) with exactly this signature, plus sums computed.

    Depth-first over inverse vectors z in (GF(q)\\{0})^n in lex order.  Once
    z_k is placed, every subset whose top index is k+1 has its sum settled,
    so membership can be enforced immediately; a complete pruned sweep is
    still exhaustive, so a None return proves non-existence.  Past
    _LATTICE_CAP subset sums the lattice hands over to ``_admissible_point``,
    which meets the same lex-least z first.  The count is the subset sums
    the lattice computed, so it exceeds the cap exactly when it handed over.
    """
    n = sig.n
    if n > SEARCH_MAX_N:
        raise TooLargeError(f"search capped at n={SEARCH_MAX_N}, got {n}")
    field = PrimeField(q)
    target = q - 1
    sigbits = sig.bits
    cap = _LATTICE_CAP
    sums = [0] * (1 << n)
    z = [0] * n
    spent = 0

    def dfs(k: int) -> bool:
        nonlocal spent
        base = 1 << k
        # fills one lattice level per value tried and exits early: not subset_sums
        for v in range(1, q):
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
            spent += lower + 1
            if spent > cap:
                raise BudgetExceededError(f"lattice cap {cap} reached searching GF({q})")
            if ok:
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


def _packed_sig_rows(field: PrimeField, diags: "np.ndarray") -> "np.ndarray":
    """Signature bit rows (little-endian packed bytes) for a block of diagonals."""
    return _signature_rows(field.p, np.array(field.inverse_table())[diags])


def uniqueness_audit(p: int, n: int) -> dict:
    """Compute every diagonal's signature over GF(p) and count collisions."""
    field = PrimeField(p)
    if n < 1:
        raise TooSmallError(f"audit needs n >= 1, got {n}")
    if n > SIGNATURE_MAX_N:
        raise TooLargeError(f"audit capped at n={SIGNATURE_MAX_N}")
    total = (p - 1) ** n
    cost = total * (1 << n)
    if cost > AUDIT_BUDGET:
        raise BudgetExceededError(f"{cost} subset sums exceed budget {AUDIT_BUDGET}")
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
    elimination's, as ``rref`` met them.  The columns are eliminated in
    reverse, so a pivot coordinate depends only on free coordinates of
    smaller index: ordered by their free coordinates, the solutions are in
    lex order.
    """
    n = sig.n
    rows = [[mask >> i & 1 for i in range(n - 1, -1, -1)] + [-1] for mask in sig.members()]
    reduced, cols, pivots = rref(rows, q)
    if cols and cols[-1] == n:
        return None, [], pivots
    # coordinate i is column n - 1 - i of the eliminated rows
    solved = {n - 1 - c: row for row, c in zip(reduced, cols)}
    z0 = [solved[i][n] if i in solved else 0 for i in range(n)]
    directions = []
    for f in (j for j in range(n) if j not in solved):
        v = [0] * n
        v[f] = 1
        for i, row in solved.items():
            v[i] = -row[n - 1 - f]
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
    """The lex-least inverse vector over GF(q) with exactly this signature, or
    None; plus form values spent.

    Row-reduces the member equations mod q, then searches the solution
    space depth-first over nonzero free coordinates in ascending order, so
    by ``_solution_space``'s order it meets the lex-least point first.  A
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
    bug and raises VerdictMismatchError.
    """
    if x.n > SEARCH_MAX_N:
        raise TooLargeError(f"characteristic scan capped at n={SEARCH_MAX_N}")
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


def estimate_L(p: int, primes: Sequence[int], n_max: int) -> dict:
    """Least n in [3, n_max] with a spike over GF(p) in no other tested characteristic.

    Scans canonical class representatives in order; a class counts when its
    certificate admits none of the other tested primes.  The winning class
    is confirmed by a search over every tested prime against the certificate
    the scan built, which raises VerdictMismatchError where they disagree.
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
    if found is not None:
        _verdicts(found, signature(found), cert, primes)
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
