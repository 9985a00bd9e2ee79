"""Cross-field representability machinery.

A signature is field-agnostic data: which transversals are dependent.  This
module decides, for a given signature, over which prime fields a diagonal
with exactly that signature exists: per prime by pruned exhaustive search,
and for every characteristic at once by one elimination over Q, with a
pruned search over GF(q) for the finitely many primes it leaves open.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

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
    ENUMERATE_MAX_P,
    SIGNATURE_MAX_N,
    Diagonal,
    Signature,
    _signature_rows,
    _standard_rows,
    enumerate_spikes,
    signature,
)

AUDIT_BUDGET = 10**9
SEARCH_MAX_N = 12
MAX_TEST_PRIME = 97

# diagonals summed at once by an audit at n <= 3
_LOW_CHUNK = 1 << 14


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
    member = sig.flags().tolist()
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
                if (s == target) != member[mask]:
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


def _audit_rows(p: int, n: int) -> "np.ndarray":
    """Every diagonal's signature row (little-endian packed bytes), in decode order.

    Diagonal t = l + L*h splits into its first k = min(n, 3) coordinates,
    the low block l (L = (p-1)^k of them), and the other n - k, the high
    block h.  Mask mL | mH << 3 is a member iff low-sum(mL) = -1 -
    high-sum(mH), so the members of one low block at one residue fill
    exactly one byte, table[l, r], and byte mH of row (l, h) is
    table[l, need[h, mH]] with need = (-1 - high sums) mod p.  At p >= 3
    neither table nor need outgrows the rows.  With n <= 3 there is no high
    block and only residue -1 is read: those rows are summed chunk by chunk.
    """
    inv = np.array(PrimeField(p).inverse_table(), dtype=np.int32)
    k = min(n, 3)
    L = (p - 1) ** k
    if n == k:
        rows = np.empty((L, 1), dtype=np.uint8)
        for start in range(0, L, _LOW_CHUNK):
            ls = np.arange(start, min(start + _LOW_CHUNK, L))
            rows[start : start + len(ls)] = _signature_rows(p, inv[_decode_diagonals(p, n, ls)])
        return rows
    # residues are below 2^16 and n <= 24, so every sum fits int32
    low = subset_sums(inv[_decode_diagonals(p, k, np.arange(L))]) % p
    table = np.zeros((L, p), dtype=np.uint8)
    for mL in range(1 << k):
        table[np.arange(L), low[:, mL]] |= 1 << mL
    H = (p - 1) ** (n - k)
    need = subset_sums(inv[_decode_diagonals(p, n - k, np.arange(H))])
    np.subtract(-1, need, out=need)
    np.remainder(need, p, out=need)
    rows = np.empty((H, L, need.shape[1]), dtype=np.uint8)
    for h in range(H):
        rows[h] = table[:, need[h]]
    return rows.reshape(H * L, -1)


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


def _row_groups(rows: "np.ndarray") -> tuple[int, Iterator["np.ndarray"]]:
    """The number of distinct rows, and the groups of rows that have copies.

    Each row gets one integer key: the row itself when it fits one word,
    else a mix of its words.  Only the keys are sorted.  A row whose key
    no other row has is distinct; the rows that share a key are sorted
    bytewise, which compares them exactly and splits any run of distinct
    rows.  Groups come in bytewise order of their row, each as its row
    indices ascending.  The rows are overwritten: they are read in place as
    big-endian unsigned words, one per row up to 8 bytes, so word order is
    bytewise order.
    """
    if len(rows) < 2:
        # a lone row has no copies, and its key would cost a pass over its words
        return len(rows), iter(())
    words = rows.view(f">u{min(rows.shape[1], 8)}")
    if not words.dtype.isnative:
        words = words.byteswap(inplace=True).view(words.dtype.newbyteorder())
    exact = words.shape[1] == 1
    key = words[:, 0] if exact else _mix_words(words)
    # numpy's radix sort beats its quicksort on bytes, and only there
    ranked = np.sort(key, kind="stable" if key.itemsize == 1 else None)
    # one entry per copy of a key past its first
    repeats = ranked[1:][ranked[1:] == ranked[:-1]]
    del ranked
    if exact:
        # key order is bytewise order, and a key is its row
        new = np.ones(len(repeats), dtype=bool)
        np.not_equal(repeats[1:], repeats[:-1], out=new[1:])
        return len(key) - len(repeats), (np.flatnonzero(key == k) for k in repeats[new])
    if not len(repeats):
        return len(key), iter(())
    at = np.searchsorted(repeats, key)
    np.minimum(at, len(repeats) - 1, out=at)
    shared = np.flatnonzero(repeats[at] == key)
    del at, key
    # stable, so each group keeps its indices ascending
    shared = shared[np.lexsort(words[shared].T[::-1])]
    ranked = words[shared]
    new = np.ones(len(shared), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new).tolist()
    bounds = zip(starts, starts[1:] + [len(shared)])
    groups = (shared[a:b] for a, b in bounds if b - a > 1)
    return len(words) - len(shared) + len(starts), groups


def uniqueness_audit(p: int, n: int) -> dict:
    """Compute every diagonal's signature over GF(p) and count collisions."""
    PrimeField(p)
    if n < 1:
        raise TooSmallError(f"audit needs n >= 1, got {n}")
    if n > SIGNATURE_MAX_N:
        raise TooLargeError(f"audit capped at n={SIGNATURE_MAX_N}")
    total = (p - 1) ** n
    # each diagonal is counted its 2^n-bit row and a 64-bit key; past n = 6 the
    # keys' sorted copy is a second word, at most half a row
    cost = total * ((1 << n) + 64)
    if cost > AUDIT_BUDGET:
        raise BudgetExceededError(
            f"{cost} bits of signature rows and row keys exceed budget {AUDIT_BUDGET}"
        )
    distinct, groups = _row_groups(_audit_rows(p, n))
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


def _solution_space(
    sig: Signature, q: Optional[int] = None
) -> tuple[Optional["np.ndarray"], int, list[int]]:
    """The z with sum(z_i, i in I) = -1 for every member I, over Q (q None) or GF(q).

    Returns (F, one, pivots).  F is an int64 matrix scaled so that 1 reads
    ``one``: row 0 is a particular solution, and each later row a direction,
    one per free coordinate, which holds ``one`` there and 0 at the other
    free coordinates; the solutions are row 0 plus any combination of the
    directions, all over ``one``.  In both fields ``one`` is the
    elimination's last pivot d (1 with no pivots) and F's entries are those
    of ``rref``'s rows, d times the reduced form: over Q minors of [A | -1],
    mod q residues or their negatives, left unreduced.  F is None when
    there is no solution.  pivots are the elimination's, as ``rref`` met
    them.  The columns are eliminated in reverse, so a pivot coordinate
    depends only on free coordinates of smaller index: ordered by their
    free coordinates, the solutions are in lex order.
    """
    n = sig.n
    rows = [[mask >> i & 1 for i in range(n - 1, -1, -1)] + [-1] for mask in sig.members()]
    reduced, cols, pivots = rref(rows, q)
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


def _forms(sig: Signature, F: "np.ndarray", one: int) -> "np.ndarray":
    """Coefficients of the forbidden affine forms on the solution space.

    F and ``one`` are ``_solution_space``'s: the particular solution and
    the directions as integers, scaled so that 1 reads ``one``.  The
    columns are sum(z_i, i in J) + 1 for each nonempty non-member J, then
    z_i for each i: row 0 the constant, row j the coefficient on direction
    j.  A point is admissible iff no form vanishes.
    """
    sums = subset_sums(F)
    sums[0] += one
    # mask 0, the empty set, is never a member and never a form
    nonmember = np.flatnonzero(sig.flags() == 0)[1:]
    return np.concatenate([sums[:, nonmember], F], axis=1)


def _admissible_point(sig: Signature, q: int, budget: int) -> tuple[Optional[list[int]], int]:
    """The lex-least inverse vector over GF(q) with exactly this signature, or
    None; plus form values spent.

    Row-reduces the member equations mod q and takes the forms on the
    solution space at ``_solution_space``'s scale ``one``, as the
    certificate does over Q; a nonzero scale leaves each form's zeros in
    place.  It then searches depth-first over nonzero free coordinates in
    ascending order, so by ``_solution_space``'s order it meets the
    lex-least point first, and divides that point by ``one``.  A
    forbidden form is checked as soon as its last free coordinate with a
    nonzero coefficient is set, where it rules out one value, so a level
    with fewer forms to check than q - 1 values never dead-ends.  A
    complete pruned search is exhaustive, so None proves there is no point.
    Each form value counts as one subset sum against the budget.
    """
    # q < 2^29 (a special prime divides a form coefficient or a pivot), so
    # sums of a dozen products of residues fit in int64
    F, one, _ = _solution_space(sig, q)
    if F is None:
        return None, 0
    forms = _forms(sig, F, one) % q
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


def _rational_part(sig: Signature) -> tuple[bool, list[int], int, Optional[tuple[int, ...]]]:
    """The certificate's elimination over Q: (generic, special primes, h, m).

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
    """
    n = sig.n
    if n > SEARCH_MAX_N:
        raise TooLargeError(f"characteristic decision capped at n={SEARCH_MAX_N}")
    F, one, pivots = _solution_space(sig)
    special = {f for pv in pivots for f in _prime_factors(pv)}
    generic = False
    h = 0
    m = None
    if F is not None:
        # F's entries and one are k x k minors of the 0/+-1 matrix [A | -1],
        # k <= n + 1, so at most k^(k/2) (Hadamard): below 13^6.5 < 2^25 at
        # n <= 12 and 14^7 < 2^27 at n = 13.  A form coefficient sums at most
        # n + 1 of them, so it stays below 2^29 (2^31 at n = 13) in int64
        content = np.gcd.reduce(np.abs(_forms(sig, F, one)), axis=0)
        generic = bool(content.all())
        if generic:
            special.update(f for v in set(content.tolist()) for f in _prime_factors(v))
            if len(F) > 1:
                h = (1 << n) - 1 - sig.size + n
        if len(F) == 1 and not (F[0] % one).any():
            m = tuple((F[0] // one).tolist())
    return generic, sorted(special), h, m


def _decisions(sig: Signature, primes: Sequence[int]) -> Iterator[tuple[int, bool]]:
    """Yield (q, representable over GF(q)) for each prime in the given order.

    One ``_admissible_point`` search each, lazily, so a caller that stops
    consuming stops the searches; the primes share one AUDIT_BUDGET.
    """
    spent = 0
    for q in primes:
        point, cost = _admissible_point(sig, q, AUDIT_BUDGET - spent)
        spent += cost
        yield q, point is not None


def build_certificate(sig: Signature) -> CharCertificate:
    """Decide every characteristic at once from one elimination over Q.

    ``_rational_part`` gives the generic answer and the special primes it
    leaves open, the primes up to its bound h among them; each of those is
    then decided by ``_admissible_point``.
    """
    generic, special, h, m = _rational_part(sig)
    special = sorted(set(special).union(v for v in range(2, h + 1) if is_prime(v)))
    # a cofinite set lists the special primes that fail, a finite one those that pass
    listed = tuple(q for q, ok in _decisions(sig, special) if ok != generic)
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


def _only_in_characteristic(sig: Signature, p: int) -> Optional[CharCertificate]:
    """``build_certificate(sig)`` if its exact set is {p}, else None.

    A cofinite class, or a finite one whose special primes leave out p, is
    rejected after the elimination over Q.  Otherwise p is decided first
    and then the other special primes, up to the first answer that rules
    out {p}; a class that passes has had every special prime decided.  Only
    a generic class has a bound h, so no prime up to h is ever built here.
    """
    generic, special, _, m = _rational_part(sig)
    if generic or p not in special:
        return None
    order = [p] + [q for q in special if q != p]
    if all(ok == (q == p) for q, ok in _decisions(sig, order)):
        return CharCertificate(sig.n, sig.bits, m, "finite", primes=(p,))
    return None


def estimate_L(p: int, primes: Sequence[int], n_max: int) -> dict:
    """Least n in [3, n_max] with a spike over GF(p) in no other characteristic.

    Scans canonical class representatives in order; a class counts when its
    exact characteristic set is {p}, whatever primes were given.  The
    winning class is confirmed by a search over every given prime against
    its certificate, which raises VerdictMismatchError where they disagree.
    """
    PrimeField(p)
    if p > ENUMERATE_MAX_P:
        raise OutOfRangeError(f"experiment capped at p={ENUMERATE_MAX_P}")
    if n_max > CANONICAL_MAX_N:
        raise TooLargeError(f"experiment capped at n_max={CANONICAL_MAX_N}")
    if n_max < 3:
        raise TooSmallError("spikes need n >= 3")
    _check_test_primes(primes)
    levels = []
    certified: list[tuple[Diagonal, CharCertificate]] = []
    for n in range(3, n_max + 1):
        reps = enumerate_spikes(p, n)
        certs = [(d, _only_in_characteristic(signature(d), p)) for d in reps]
        certified = [(d, c) for d, c in certs if c is not None]
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
