from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spikelab import (
    BudgetExceededError,
    Diagonal,
    IntegerDiagonal,
    InverseIntegerDiagonal,
    MatrixGF,
    OutOfRangeError,
    PrimeField,
    TooLargeError,
    TooSmallError,
    ZeroEntryError,
    build_certificate,
    build_rep,
    characteristic_set,
    check_axioms,
    construct_char_only,
    construct_multichar,
    enumerate_spikes,
    estimate_L,
    represent,
    search_rep,
    signature,
    spikes,
    threshold_interval,
    uniqueness_audit,
)
from spikelab.bitsets import subset_sums

from oracles import (
    LinearFact,
    audit_by_table,
    audit_rows_by_table,
    audit_rows_per_diagonal,
    bases_bruteforce,
    certificate_admits_by_sums,
    certificate_by_facts,
    certificate_from_integers,
    propagate_facts,
    random_diagonal,
    row_groups_by_keys,
    search_by_values,
    signature_by_sums,
)
from spikelab.field import is_prime

GF3 = PrimeField(3)
GF5 = PrimeField(5)


def _pure_distinct_signatures(p: int, n: int) -> dict[int, list[tuple[int, ...]]]:
    f = PrimeField(p)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for x in itertools.product(range(1, p), repeat=n):
        groups.setdefault(signature(Diagonal(f, x)).bits, []).append(x)
    return groups


# exhaustive representability search -------------------------------------------


def test_search_finds_the_defining_class():
    rng = random.Random(307)
    for _ in range(20):
        p = rng.choice((3, 5, 7))
        d = random_diagonal(rng, p, rng.randrange(2, 7))
        sig = signature(d)
        w = search_rep(sig, p)[0]
        assert w is not None
        assert signature(w) == sig


def test_search_frozen_transfer_example():
    # all three -1 entries force z=(4,4,4); the triples then force z_4=1
    d = Diagonal(GF3, (2, 2, 2, 1))
    w, sums = search_rep(signature(d), 5)
    assert w is not None and w.x == (4, 4, 4, 1)
    # each level reads its lower sums and writes its own once: 2 (1 + 2 + 4 + 8)
    assert sums == 30
    again, sums2 = search_rep(signature(d), 5)
    assert again.x == w.x and sums2 == sums


def test_search_matches_the_per_value_oracle():
    # solving each level meets the same lex-least witness as trying every value
    rng = random.Random(313)
    answers, lattice = set(), 0
    for _ in range(300):
        p = rng.choice((3, 5, 7, 11, 13))
        d = random_diagonal(rng, p, rng.randrange(1, 8))
        q = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23))
        sig = signature(d)
        witness, sums = search_rep(sig, q)
        assert witness == search_by_values(sig, q), (d, q)
        answers.add(witness is None)
        lattice += sums <= represent._LATTICE_CAP
    assert answers == {True, False} and lattice > 290


def test_search_exhaustive_no():
    d = Diagonal(GF3, (2, 2, 1, 1))
    for q in (2, 5, 7):
        w, _ = search_rep(signature(d), q)
        assert w is None


def test_search_budget_and_cap(monkeypatch):
    # past the lattice cap the solution-space search meets the same lex-least
    # witness; the search raises only when that runs out of budget too
    sig = signature(Diagonal.parse("p=13;x=1,1,1,3,8,9"))
    witness, sums = search_rep(sig, 13)
    assert witness.x == (1, 1, 1, 3, 10, 9) and sums <= represent._LATTICE_CAP
    monkeypatch.setattr(represent, "_LATTICE_CAP", 3)
    handed, count = search_rep(sig, 13)
    assert handed == witness and count > 3
    monkeypatch.setattr(represent, "AUDIT_BUDGET", 3)
    with pytest.raises(BudgetExceededError):
        search_rep(sig, 13)
    with pytest.raises(TooLargeError):
        search_rep(signature(Diagonal(PrimeField(2), (1,) * 13)), 3)


def test_search_witness_entries_nonzero():
    rng = random.Random(311)
    for _ in range(10):
        d = random_diagonal(rng, 3, 4)
        w = search_rep(signature(d), 7)[0]
        if w is not None:
            assert all(1 <= v < 7 for v in w.x)


# fact propagation (the reference in tests/oracles.py) ------------------------------


def _facts_sound_for(d: Diagonal) -> None:
    sig = signature(d)
    invs = d.inverses()
    p = d.p
    for fact in propagate_facts(sig, p):
        s = sum(invs[i - 1] for i in fact.indices()) % p
        assert s == fact.c % p, (d.x, fact)


def test_facts_sound_exhaustive_gf3():
    for n in range(1, 5):
        for x in itertools.product((1, 2), repeat=n):
            _facts_sound_for(Diagonal(GF3, x))


def test_facts_sound_for_constructions():
    _facts_sound_for(construct_multichar(5).over(5))
    _facts_sound_for(construct_char_only(5).over(5))
    _facts_sound_for(construct_char_only(7).over(7))


def test_facts_pin_singletons_in_frozen_example():
    sig = signature(Diagonal(GF3, (2, 2, 1, 1)))
    facts = propagate_facts(sig, 3)
    assert LinearFact(mask=0b0001, c=-1) in facts
    assert LinearFact(mask=0b0010, c=-1) in facts
    assert LinearFact(mask=0b0100, c=1) in facts
    assert LinearFact(mask=0b1000, c=1) in facts


def test_facts_cap():
    with pytest.raises(TooLargeError):
        propagate_facts(signature(Diagonal(PrimeField(2), (1,) * 17)), 2)


def test_fact_indices():
    assert LinearFact(mask=0b1010, c=3).indices() == (2, 4)


# certificates from facts (the reference in tests/oracles.py) ----------------------


def _certificate_of(d: Diagonal):
    sig = signature(d)
    return certificate_by_facts(sig, propagate_facts(sig, d.p), d.p)


def test_certificate_frozen_cases():
    cert = _certificate_of(Diagonal(GF3, (2, 2, 1, 1)))
    assert cert is not None
    assert cert.kind == "finite" and cert.primes == (3,)
    assert cert.m == (-1, -1, 1, 1)

    for n in (3, 4, 5):
        cert = _certificate_of(Diagonal(PrimeField(2), (1,) * n))
        assert cert is not None and cert.kind == "finite" and cert.primes == (2,)

    cert = _certificate_of(Diagonal(GF5, (4, 4, 1, 2, 2)))
    assert cert is not None and cert.kind == "finite" and cert.primes == (5,)
    assert cert.m == (-1, -1, 1, -2, -2)


def test_certificate_none_when_singletons_not_pinned():
    # the rank-3 free spike over GF(3) lives in many characteristics
    assert _certificate_of(Diagonal(GF3, (1, 1, 1))) is None


def test_certificate_lists_match_direct_recomputation():
    test_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    certs = []
    for x in itertools.product((1, 2), repeat=4):
        c = _certificate_of(Diagonal(GF3, x))
        if c is not None:
            certs.append(c)
    certs.append(_certificate_of(construct_char_only(5).over(5)))
    certs.append(_certificate_of(construct_char_only(7).over(7)))
    assert any(c is not None for c in certs)
    for cert in certs:
        for q in test_primes:
            assert cert.admits(q) == certificate_admits_by_sums(cert, q), (cert, q)


def test_certificate_agrees_with_search_exhaustive_gf3_n4():
    for x in itertools.product((1, 2), repeat=4):
        d = Diagonal(GF3, x)
        cert = _certificate_of(d)
        if cert is None:
            continue
        sig = signature(d)
        for q in (2, 3, 5, 7):
            assert cert.admits(q) == (search_rep(sig, q)[0] is not None), (x, q)


def test_certificate_matches_facts_oracle_and_search():
    """Every class at p in {3, 5, 7}, n <= 6, and the characteristic-only family."""
    cases = [(d, None) for p in (3, 5, 7) for n in range(1, 7) for d in enumerate_spikes(p, n)]
    # propagating facts at n = 8 takes seconds: the family's own integers stand in
    for p in (3, 5, 7, 11, 13):
        c = construct_char_only(p)
        cases.append((c.over(p), c.inverse_values))
    certified = 0
    for d, integers in cases:
        sig = signature(d)
        cert = build_certificate(sig)
        assert cert.admits(d.p)
        old = _certificate_of(d) if integers is None else certificate_from_integers(sig, integers)
        if old is not None:
            certified += 1
            assert (cert.kind, cert.primes, cert.excluded) == (old.kind, old.primes, old.excluded)
            assert cert.m is None or cert.m == old.m, d
        for q in (2, 3, 5, 7, 11, 13):
            assert cert.admits(q) == (search_rep(sig, q)[0] is not None), (d, q)
    assert certified > 0


def test_certificate_singleton_integers_only_when_unique_and_integral():
    # x = (-1, -1, 1, 1) over GF(5): unique integral rational solution
    cert = build_certificate(signature(Diagonal(GF5, (4, 4, 1, 1))))
    assert cert.m == (-1, -1, 1, 1)
    # the free rank-3 spike: a 2-dimensional solution space
    assert build_certificate(signature(Diagonal(GF3, (1, 1, 1)))).m is None
    # solvable only modulo 3: no rational solution
    assert build_certificate(signature(Diagonal(GF3, (2, 2, 1, 1)))).m is None


def test_certificate_cap():
    with pytest.raises(TooLargeError):
        build_certificate(signature(Diagonal(PrimeField(2), (1,) * 13)))


def test_certificate_report_shape():
    cert = _certificate_of(Diagonal(GF3, (2, 2, 1, 1)))
    report = cert.to_report()
    assert report == {
        "kind": "finite",
        "singleton_integers": [-1, -1, 1, 1],
        "admissible_primes": [3],
    }


# uniqueness audit -----------------------------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (3, 5), (5, 3), (5, 4)])
def test_audit_matches_pure_python_count(p, n):
    groups = _pure_distinct_signatures(p, n)
    report = uniqueness_audit(p, n)
    assert report["diagonals"] == (p - 1) ** n
    assert report["distinct_signatures"] == len(groups)
    assert report["collisions"] == (p - 1) ** n - len(groups)


def _audit_examples_oracle(p: int, n: int) -> list[list[list[int]]]:
    """First 5 colliding groups by packed signature bytes, 4 diagonals each.

    Diagonals are visited in the audit's mixed-radix order (coordinate 1
    fastest); groups are ordered by their little-endian signature bytes.
    """
    f = PrimeField(p)
    width = ((1 << n) + 7) // 8
    groups: dict[bytes, list[list[int]]] = {}
    for t in itertools.product(range(1, p), repeat=n):
        x = t[::-1]
        key = signature_by_sums(Diagonal(f, x)).to_bytes(width, "little")
        groups.setdefault(key, []).append(list(x))
    dups = [groups[k] for k in sorted(groups) if len(groups[k]) > 1]
    return [g[:4] for g in dups[:5]]


def test_audit_collision_examples_are_real():
    report = uniqueness_audit(5, 3)
    assert report["collisions"] == 64 - 25
    assert report["collision_examples"]
    for group in report["collision_examples"]:
        sigs = {signature(Diagonal(GF5, tuple(x))).bits for x in group}
        assert len(group) > 1 and len(sigs) == 1
    for p, n in [(5, 3), (3, 4), (7, 3), (2, 6), (5, 4), (11, 2)]:
        got = uniqueness_audit(p, n)["collision_examples"]
        assert got == _audit_examples_oracle(p, n), (p, n)


@pytest.mark.parametrize("width", [1, 2, 4, 8, 16, 32])
def test_audit_groups_follow_bytewise_order(monkeypatch, width):
    # no admitted audit past 8 bytes a row has a collision, so the groups are
    # checked on drawn rows against a stable sort by bytes: the oracle's at
    # every width, and past 8 bytes the audit's own, with every key shared and
    # the drawn rows standing in for the rows it sums again
    rng = np.random.default_rng(width)
    rows = rng.integers(0, 3, size=(400, width), dtype=np.uint8)
    rows[::5] = rows[3]
    rows[1::9, : width // 2] = rows[2, : width // 2]
    expect = sorted(range(len(rows)), key=lambda i: rows[i].tobytes())
    groups = [list(g) for _, g in itertools.groupby(expect, key=lambda i: rows[i].tobytes())]
    copies = [g for g in groups if len(g) > 1]
    distinct, got = row_groups_by_keys(rows.copy())
    assert distinct == len(groups)
    assert [g.tolist() for g in got] == copies
    if width > 8:
        monkeypatch.setattr(represent, "_signature_rows", lambda p, z: rows.copy())
        n = width.bit_length() + 2  # 2^n bits a row
        distinct, got = represent._key_groups(3, n, np.zeros(len(rows), dtype=np.uint64))
        assert distinct == len(groups)
        assert [g.tolist() for g in got] == copies


def test_key_groups_hold_the_keys_and_one_sorted_copy():
    # (23, 5) has 8811 distinct rows among 5.15M diagonals, so nearly every
    # key repeats: past the keys, the grouping holds their sorted copy, a
    # byte a key for the equal-neighbour mask and one more while it is turned
    # into first copies, and each repeated key once
    keys = represent._audit_keys(23, 5)
    tracemalloc.start()
    try:
        distinct, groups = represent._key_groups(23, 5, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert distinct == 8811
    assert peak <= keys.nbytes + 2 * len(keys) + (1 << 20)


def _audit_by_bytes(p: int, n: int) -> dict:
    """uniqueness_audit's report from the oracle's rows grouped by their bytes in a dict."""
    groups: dict[bytes, list[int]] = {}
    for t, row in enumerate(audit_rows_by_table(p, n)):
        groups.setdefault(row.tobytes(), []).append(t)
    dups = [groups[key] for key in sorted(groups) if len(groups[key]) > 1]
    total = (p - 1) ** n
    return {
        "p": p,
        "n": n,
        "diagonals": total,
        "distinct_signatures": len(groups),
        "collisions": total - len(groups),
        "collision_examples": [
            [[t // (p - 1) ** i % (p - 1) + 1 for i in range(n)] for t in group[:4]]
            for group in dups[:5]
        ],
    }


# the library's key weights, for the degraded weights to wrap
key_weights = represent._key_weights


def _constant_weights(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every weight 1: a key counts its row's members."""
    return np.ones(1 << k, dtype=np.uint64), np.ones(1 << (n - k), dtype=np.uint64)


def _first_word_weights(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The library's weights, zero on every mask past the row's first 64 bits."""
    a, b = key_weights(k, n)
    b[np.arange(len(b)) << k >= 64] = 0
    return a, b


@pytest.mark.parametrize("weights", [_constant_weights, _first_word_weights],
                         ids=["constant", "first-word"])
@pytest.mark.parametrize("p,n", [(3, 7), (5, 5), (7, 4), (5, 8)])
def test_audit_survives_a_degenerate_key_mix(monkeypatch, weights, p, n):
    # distinct rows that share a key must be told apart by their bytes; at
    # n <= 6 a row is its own key and the weights are never read
    calls = []

    def recording(k, n_):
        calls.append(k)
        return weights(k, n_)

    monkeypatch.setattr(represent, "_key_weights", recording)
    expect = _audit_by_bytes(p, n)
    assert uniqueness_audit(p, n) == expect
    assert bool(calls) == (n > 6)
    if n > 6:
        # the weak keys do repeat for distinct rows, so the bytes decide
        assert len(np.unique(represent._audit_keys(p, n))) < expect["distinct_signatures"]


def test_audit_of_a_lone_diagonal_builds_no_key(monkeypatch):
    # over GF(2) the one diagonal is (1, ..., 1): its row has no copies to find
    def no_key(*args):
        raise AssertionError("a lone row was keyed")

    monkeypatch.setattr(represent, "_key_weights", no_key)
    monkeypatch.setattr(represent, "_row_block", no_key)
    for n in range(1, spikes.SIGNATURE_MAX_N + 1):
        report = uniqueness_audit(2, n)
        assert (report["distinct_signatures"], report["collisions"]) == (1, 0), n
        assert report["collision_examples"] == []


def test_audit_injective_at_guarantee_threshold():
    report = uniqueness_audit(3, 5)  # n = 2p-1
    assert report["collisions"] == 0
    assert report["distinct_signatures"] == 32


def test_audit_refuses_past_signature_cap_before_summing(monkeypatch):
    def no_sums(values):
        raise AssertionError("the audit summed past its cap")

    monkeypatch.setattr(spikes, "subset_sums", no_sums)
    monkeypatch.setattr(represent, "subset_sums", no_sums)
    with pytest.raises(TooLargeError):
        uniqueness_audit(2, 25)  # 2^25 row bits: within budget, past the cap


@pytest.mark.parametrize("p,n", [
    (p, n) for p in (2, 3, 5, 7, 13) for n in range(1, 21)
    if n <= 4 or (p - 1) ** n << n <= 1 << 19
])
def test_audit_rows_match_per_diagonal_rows(monkeypatch, p, n):
    # n = 3 has no high block and n = 4 the first; the bytes must not move,
    # in the oracle's whole table nor in the audit's blocks, and past n = 6,
    # where no row is gathered, the keys hash the oracle's rows
    expect = audit_rows_per_diagonal(p, n).tobytes()
    table = audit_rows_by_table(p, n)
    assert table.dtype == np.uint8 and table.tobytes() == expect
    blocks = []

    def recording(table, need):
        rows = row_block(table, need)
        blocks.append(rows.copy())
        return rows

    row_block = represent._row_block
    monkeypatch.setattr(represent, "_row_block", recording)
    keys = represent._audit_keys(p, n)
    if p == 2:
        # the lone diagonal is never gathered
        assert not blocks and len(keys) == 1
    elif n <= 3:
        assert not blocks and keys.tobytes() == expect
    elif n <= 6:
        assert b"".join(rows.tobytes() for rows in blocks) == expect
    else:
        assert not blocks and np.array_equal(keys, _oracle_keys(p, n))


def _oracle_keys(p: int, n: int) -> np.ndarray:
    """The audit's keys from the oracle's rows.

    Up to n = 6 the row read bytewise; past it the sum of a[mL] * b[mH] mod
    2^64 over the row's members mL | mH << k, with the library's split and
    weights, the row's bits unpacked 2^12 rows at a time.
    """
    rows = audit_rows_by_table(p, n)
    if n <= 6:
        return rows.view(f">u{rows.shape[1]}")[:, 0].astype(f"u{rows.shape[1]}")
    k = represent._audit_split(p, n)
    a, b = represent._key_weights(k, n)
    weights = np.multiply.outer(b, a).reshape(-1)
    keys = np.empty(len(rows), dtype=np.uint64)
    for start in range(0, len(rows), 1 << 12):
        bits = np.unpackbits(rows[start : start + (1 << 12)], axis=1, bitorder="little")
        keys[start : start + len(bits)] = bits.astype(np.uint64) @ weights
    return keys


def _high_block_bytes(p: int, n: int) -> int:
    """The bytes the audit gathers for one high block: rows up to n = 6, words past it."""
    k = represent._audit_split(p, n)
    return (p - 1) ** k << (n - k) if n <= 6 else (p - 1) ** k << (n - k + 3)


@pytest.mark.parametrize("shape", ["under-one-high-block", "ragged", "past-the-table"])
@pytest.mark.parametrize("p,n", [
    (3, 5), (5, 4), (7, 4), (5, 6), (13, 5), (7, 6), (3, 7), (5, 7), (3, 9), (7, 7), (5, 8)
])
def test_audit_keys_and_report_match_the_oracle(monkeypatch, shape, p, n):
    # exact keys up to n = 6, hashed past it; collision-rich (13, 5) and (7, 6)
    # have thousands of groups, the rest of the grid few or none
    H, high = (p - 1) ** (n - represent._audit_split(p, n)), _high_block_bytes(p, n)
    # a block of one high block, a last block shorter than the others, one block
    block_bytes = {
        "under-one-high-block": 1,
        "ragged": next(s for s in range(2, H) if H % s) * high + high - 1,
        "past-the-table": 2 * H * high,
    }
    monkeypatch.setattr(represent, "_BLOCK_BYTES", block_bytes[shape])
    keys = represent._audit_keys(p, n)
    expect = _oracle_keys(p, n)
    assert keys.dtype == expect.dtype and np.array_equal(keys, expect)
    assert uniqueness_audit(p, n) == audit_by_table(p, n)


@pytest.mark.parametrize("p,n,block_bytes", [
    (7, 7, None), (5, 8, None), (3, 12, None), (59, 4, None), (13, 6, 10**4), (5, 7, 1000),
])
def test_audit_gathers_within_the_block_bytes(monkeypatch, p, n, block_bytes):
    # a block holds at most _BLOCK_BYTES of rows up to n = 6, or of key words
    # past it, or one high block past that; each diagonal is gathered once
    if block_bytes is not None:
        monkeypatch.setattr(represent, "_BLOCK_BYTES", block_bytes)
    high = _high_block_bytes(p, n)
    limit = max(represent._BLOCK_BYTES, high)
    rows, words = [], []

    def recording_rows(table, need):
        block = row_block(table, need)
        rows.append(block.nbytes)
        return block

    def recording_words(table, need, out):
        words.append(need.size * table.shape[1] * table.itemsize)
        key_block(table, need, out)

    row_block, key_block = represent._row_block, represent._key_block
    monkeypatch.setattr(represent, "_row_block", recording_rows)
    monkeypatch.setattr(represent, "_key_block", recording_words)
    report = uniqueness_audit(p, n)
    sizes = rows if n <= 6 else words
    assert not (words if n <= 6 else rows)
    H = (p - 1) ** (n - represent._audit_split(p, n))
    assert sum(sizes) == H * high and max(sizes) <= limit


@pytest.mark.parametrize("p,n", [(7, 7), (5, 9), (3, 7), (7, 6), (13, 5)] + [
    (3, 8), (3, 9), (3, 10), (3, 11), (3, 12), (3, 13), (3, 14), (5, 7), (5, 8), (7, 8)
])
def test_audit_sums_no_row_again_where_keys_decide(monkeypatch, p, n):
    # every admitted audit past n = 6, (3, 7..14), (5, 7..9) and (7, 7..8), is
    # injective and repeats no key, and up to n = 6 a key is its row,
    # collisions or not: past n = 3 no row is summed but by its blocks
    def no_rows(p, z):
        raise AssertionError(f"{len(z)} rows summed again")

    monkeypatch.setattr(represent, "_signature_rows", no_rows)
    report = uniqueness_audit(p, n)
    assert (report["collisions"] > 0) == (n <= 6)


@pytest.mark.parametrize("p,n", [(3, 7), (5, 7), (7, 7), (5, 8)])
def test_audit_sums_again_only_the_rows_whose_keys_repeat(monkeypatch, p, n):
    # a weights shifted up to the top j bits keep only a key's low j bits, at
    # most 2 (p-1)^n values, which repeat for some rows and not others:
    # exactly the rows that share a key are summed again, in one call, and
    # the audit has no collisions to decode after it
    total = (p - 1) ** n
    shift = np.uint64(64 - total.bit_length())

    def weak(k, n_):
        a, b = key_weights(k, n_)
        return a << shift, b

    monkeypatch.setattr(represent, "_key_weights", weak)
    keys = _oracle_keys(p, n)
    values, counts = np.unique(keys, return_counts=True)
    expect = np.flatnonzero(np.isin(keys, values[counts > 1]))
    assert 0 < len(expect) < total
    calls = []

    def recording(p_, k, ts):
        if k == n:
            calls.append(ts.copy())
        return decode(p_, k, ts)

    decode = represent._decode_diagonals
    monkeypatch.setattr(represent, "_decode_diagonals", recording)
    uniqueness_audit(p, n)
    assert len(calls) == 1 and np.array_equal(calls[0], expect)


@pytest.mark.parametrize("p,n", [(3, 13), (7, 7), (1009, 2)])
def test_audit_sums_stay_within_the_rows(monkeypatch, p, n):
    tables = []

    def recording(values):
        sums = subset_sums(values)
        tables.append(sums)
        return sums

    monkeypatch.setattr(represent, "subset_sums", recording)
    monkeypatch.setattr(spikes, "subset_sums", recording)
    report = uniqueness_audit(p, n)
    rows = report["diagonals"] * (((1 << n) + 7) // 8)
    assert all(sums.nbytes <= rows for sums in tables)
    if n <= 3:
        # chunks of whole rows, never all diagonals at once
        assert len(tables) > 1 and sum(len(sums) for sums in tables) == report["diagonals"]
    else:
        # the low sums give the (p-1)^k x p table, of bytes up to n = 6 and of
        # 64-bit words past it, and the high sums become need
        k = represent._audit_split(p, n)
        low, high = tables
        assert low.shape == ((p - 1) ** k, 1 << k)
        assert high.shape == ((p - 1) ** (n - k), 1 << (n - k))
        assert low.shape[0] * p * (1 if n <= 6 else 8) <= rows


@pytest.mark.parametrize("p,n", [(7, 8), (3, 14)])
def test_audit_past_n6_holds_keys_not_rows(p, n):
    # no row is held past n = 6: the peak is the keys, their sorted copy, the
    # (W p, L) word table and one gathered block, where the rows alone would
    # take 54 MB at (7, 8) and 32 MB at (3, 14)
    total, k = (p - 1) ** n, represent._audit_split(p, n)
    words = (p - 1) ** k << (n - k)
    table, block = 8 * p * words, max(represent._BLOCK_BYTES, 8 * words)
    tracemalloc.start()
    try:
        report = uniqueness_audit(p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["collisions"] == 0
    assert peak <= 2 * 8 * total + table + block + (1 << 20)


def test_audit_of_every_nonzero_residue_is_fast():
    # n = 1 has no high block, so no (p-1) x p table: two signatures, x = -1 or not
    start = time.perf_counter()
    report = uniqueness_audit(65521, 1)
    elapsed = time.perf_counter() - start
    assert report["distinct_signatures"] == 2 and report["collisions"] == 65518
    assert report["collision_examples"] == [[[1], [2], [3], [4]]]
    assert elapsed < 1.0, f"audit took {elapsed:.2f}s against a 1s budget"


def test_audit_budget():
    with pytest.raises(BudgetExceededError):
        uniqueness_audit(7, 12)


class _Admitted(Exception):
    pass


def test_audit_budget_counts_rows_and_keys(monkeypatch):
    # the edge is tested by refusal: an admitted audit stops before summing
    def admitted(p, n):
        raise _Admitted

    monkeypatch.setattr(represent, "_audit_keys", admitted)
    # (p-1)^n diagonals, each a 2^n-bit row and a 64-bit key
    for p, n in [(241, 3), (3833, 2), (59, 4), (23, 5), (13, 6), (7, 8), (5, 9), (3, 14)]:
        assert (p - 1) ** n * ((1 << n) + 64) <= represent.AUDIT_BUDGET
        with pytest.raises(_Admitted):
            uniqueness_audit(p, n)
    for p, n in [(251, 3), (499, 3), (3847, 2), (15809, 2), (61, 4), (89, 4), (29, 5), (31, 5)]:
        with pytest.raises(BudgetExceededError, match="bits of signature rows and row keys"):
            uniqueness_audit(p, n)


# integer constructions ---------------------------------------------------------------


def test_multichar_construction_values():
    c = construct_multichar(3)
    assert c.values == (-1, -1, -1, 1)
    assert c.n == 4
    assert c.over(3).x == (2, 2, 2, 1)
    assert c.over(5).x == (4, 4, 4, 1)
    assert construct_multichar(5).values == (-1,) * 5 + (1,) * 3
    with pytest.raises(TooSmallError):
        construct_multichar(2)


def test_multichar_reduction_matches_integer_matrix():
    c = construct_multichar(3)
    for q in (3, 5, 7):
        d = c.over(q)
        assert build_rep(d) == MatrixGF(PrimeField(q), c.rep_rows())


def test_multichar_same_bases_across_fields():
    c = construct_multichar(3)
    fams = []
    for q in (3, 5, 7):
        M = MatrixGF(PrimeField(q), c.rep_rows())
        assert check_axioms(build_rep(c.over(q)))
        fams.append(bases_bruteforce(M))
    assert fams[0] == fams[1] == fams[2]


def test_char_only_construction_values():
    assert construct_char_only(3).inverse_values == (-1, -1, 1, -2)
    assert construct_char_only(5).inverse_values == (-1, -1, 1, -2, 2, -4)
    assert construct_char_only(7).inverse_values == (-1, -1, 1, -2, 2, -4)
    assert construct_char_only(3).over(3).x == (2, 2, 1, 1)
    assert construct_char_only(5).over(5).x == (4, 4, 1, 2, 3, 1)
    assert construct_char_only(7).over(7).x == (6, 6, 1, 3, 4, 5)
    with pytest.raises(TooSmallError):
        construct_char_only(2)


def test_char_only_certificate_is_exactly_p():
    for p in (3, 5, 7):
        cert = _certificate_of(construct_char_only(p).over(p))
        assert cert is not None
        assert cert.kind == "finite" and cert.primes == (p,)


def test_inverse_integer_reduction_rejects_vanishing_entry():
    c = construct_char_only(5)  # contains -4, which vanishes mod 2
    with pytest.raises(ZeroEntryError):
        c.over(2)


def test_integer_reduction_rejects_vanishing_entry():
    with pytest.raises(ZeroEntryError):
        IntegerDiagonal((3, 1, 1)).over(3)
    with pytest.raises(ZeroEntryError):
        InverseIntegerDiagonal((5, 1)).over(5)


# characteristic-set verdicts -----------------------------------------------------


def test_charset_frozen_example():
    d = Diagonal(GF3, (2, 2, 1, 1))
    report = characteristic_set(d, [2, 5, 7, 11, 13])
    assert [v["representable"] for v in report["verdicts"]] == ["no"] * 5
    assert [v["witness"] for v in report["verdicts"]] == [None] * 5
    assert report["certificate"]["admissible_primes"] == [3]


def test_charset_yes_verdicts_carry_witnesses():
    report = characteristic_set(Diagonal(GF3, (1, 1, 1)), [3, 5])
    for v in report["verdicts"]:
        assert v["representable"] == "yes"
        w = Diagonal(PrimeField(v["q"]), tuple(v["witness"]))
        assert signature(w).bits == signature(Diagonal(GF3, (1, 1, 1))).bits


def test_charset_certificate_closes_the_p13_class():
    # two members of rational rank 2: a 4-dimensional solution space off 67
    # forbidden hyperplanes, so every q > 67 represents it; facts do not pin
    # every singleton here, and a list of tested primes cannot show that
    d = Diagonal.parse("p=13;x=1,1,1,3,8,9")
    report = characteristic_set(d, [2, 3, 5, 7, 11, 13])
    cert = report["certificate"]
    assert cert["kind"] == "cofinite"
    assert cert["excluded_primes"] == [2, 3, 5, 7, 11]
    assert cert["singleton_integers"] is None
    assert [v["representable"] for v in report["verdicts"]] == ["no"] * 5 + ["yes"]


def test_charset_certificate_rescues_exhausted_budget(monkeypatch):
    monkeypatch.setattr(represent, "_LATTICE_CAP", 2)
    d = Diagonal(GF3, (2, 2, 1, 1))
    report = characteristic_set(d, [3, 7])
    assert all(search_rep(signature(d), q)[1] > 2 for q in (3, 7))
    by_q = {v["q"]: v for v in report["verdicts"]}
    assert by_q[3]["representable"] == "yes"
    assert signature(Diagonal(GF3, tuple(by_q[3]["witness"]))) == signature(d)
    assert by_q[7]["representable"] == "no" and by_q[7]["witness"] is None


def test_charset_caps():
    with pytest.raises(OutOfRangeError):
        characteristic_set(Diagonal(GF3, (1, 1)), [101])
    with pytest.raises(TooLargeError):
        characteristic_set(Diagonal(PrimeField(2), (1,) * 13), [3])


@pytest.mark.parametrize("p, sizes", [(3, range(3, 7)), (5, range(3, 6)), (7, range(3, 6))])
def test_special_primes_reuse_the_rational_space_where_no_pivot_vanishes(p, sizes):
    # reduced mod q the rational space gives every special prime the point
    # and decision a fresh elimination mod q gives
    reused = 0
    for n in sizes:
        for d in enumerate_spikes(p, n):
            sig = signature(d)
            flags = sig.flags()
            generic, special, _, rational = represent._rational_part(flags[None])[0]
            # every prime up to the form count, a bound on the certificate's own
            h = int(represent._is_form(flags).sum()) if generic and len(rational[0]) > 1 else 0
            for q in sorted(set(special).union(represent._primes_upto(h))):
                got = represent._admissible_point(sig, q, represent.AUDIT_BUDGET, rational)
                assert got == represent._admissible_point(sig, q, represent.AUDIT_BUDGET), (d, q)
                reused += all(pv % q for pv in rational[2])
    assert reused


@pytest.mark.parametrize("entries", [represent._STACK_ENTRIES, 200])
def test_a_level_eliminated_at_once_gives_each_class_its_own_space(monkeypatch, entries):
    # the threshold scan stacks a level's member systems, padded with zero
    # rows, in stacks of bounded size: here one stack, or several
    monkeypatch.setattr(represent, "_STACK_ENTRIES", entries)
    for p, n in ((3, 5), (5, 5), (7, 6)):
        flags = np.stack([signature(d).flags() for d in enumerate_spikes(p, n)])
        for q in (None, 2, 3, 7):
            for row, (F, one, pivots) in zip(flags, represent._solution_spaces(flags, q)):
                alone, one_alone, pivots_alone = represent._solution_spaces(row[None], q)[0]
                assert (one, pivots) == (one_alone, pivots_alone)
                assert (F is None and alone is None) or F.tolist() == alone.tolist()


def _hyperplanes_by_fractions(flags, F, one) -> int:
    """Distinct forms with a direction part, each scaled by Fractions so its
    first nonzero direction coefficient reads 1."""
    forms = represent._forms(F, one)[:, represent._is_form(flags)].T.tolist()
    seen = set()
    for form in forms:
        lead = next((v for v in form[1:] if v), 0)
        if lead:
            seen.add(tuple(Fraction(v, lead) for v in form))
    return len(seen)


def _generic_spaces(diagonals):
    for d in diagonals:
        flags = signature(d).flags()
        generic, _, _, (F, one, _) = represent._rational_part(flags[None])[0]
        if generic and len(F) > 1:
            yield d, flags, int(represent._is_form(flags).sum()), F, one


def _drawn_diagonals(seed: int, count: int):
    rng = random.Random(seed)
    primes = [q for q in range(2, 32) if is_prime(q)]
    for _ in range(count):
        yield random_diagonal(rng, rng.choice(primes), rng.randrange(3, 9))


def test_hyperplanes_count_forms_up_to_scale():
    # the generic class with h = 1024 forms: 11 are constants, and the other
    # 1013 cut 382 distinct hyperplanes
    x = Diagonal(PrimeField(97), (17, 9, 96, 18, 14, 9, 70, 69, 36, 80))
    [(_, flags, h, F, one)] = _generic_spaces([x])
    assert (h, represent._hyperplanes(flags, F, one)) == (1024, 382)
    census = [d for p, n in ((3, 5), (5, 5), (7, 4)) for d in enumerate_spikes(p, n)]
    checked = 0
    for d, flags, h, F, one in _generic_spaces(census + list(_drawn_diagonals(7, 150))):
        got = represent._hyperplanes(flags, F, one)
        assert got == _hyperplanes_by_fractions(flags, F, one) <= h, d
        checked += 1
    assert checked > 50


def test_distinct_hyperplanes_leave_every_certificate_as_it_was(monkeypatch):
    # a prime above the distinct count has a point, so no listed prime moves
    census = [d for p, n in ((3, 6), (5, 5), (7, 5)) for d in enumerate_spikes(p, n)]
    sigs = [signature(d) for d in census + list(_drawn_diagonals(11, 150))]
    narrowed = [build_certificate(sig) for sig in sigs]
    monkeypatch.setattr(
        represent, "_hyperplanes", lambda flags, F, one: int(represent._is_form(flags).sum())
    )
    assert narrowed == [build_certificate(sig) for sig in sigs]


def test_prime_sieve_matches_trial_division():
    for h in (0, 1, 2, 3, 4, 97, 4108):
        assert represent._primes_upto(h) == [v for v in range(2, h + 1) if is_prime(v)]


# the threshold experiment ---------------------------------------------------------


def test_threshold_interval_values():
    assert threshold_interval(2) == (3, 4)
    assert threshold_interval(3) == (3, 4)
    assert threshold_interval(5) == (3, 5)
    assert threshold_interval(7) == (4, 6)


def test_threshold_interval_matches_a_loop_reference():
    def floor_log2(num: int, den: int) -> int:
        t = 0
        while den << (t + 1) <= num:
            t += 1
        return t

    limit = 65521
    composite = bytearray(limit + 1)
    checked = 0
    for p in range(2, limit + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, limit + 1, p))
        lo = floor_log2(p + 2, 1) + 1
        hi = floor_log2(p + 2, 1) + floor_log2(4 * (p + 2), 3)
        assert threshold_interval(p) == (lo, hi), p
        checked += 1
    assert checked == 6542


def test_estimate_frozen_gf2():
    report = estimate_L(2, [2, 3, 5], 4)
    assert report["found_n"] == 3
    assert report["witness"] == [1, 1, 1]
    assert report["certificate"]["admissible_primes"] == [2]
    assert report["in_interval"] is True


def test_estimate_frozen_gf3():
    report = estimate_L(3, [2, 3, 5], 5)
    assert report["found_n"] == 4
    assert report["witness"] == [1, 1, 1, 2]
    assert report["certificate"]["admissible_primes"] == [3]
    assert report["in_interval"] is True
    assert report["interval"] == [3, 4]
    # the n=3 level was scanned and nothing there qualified
    assert report["levels"][0] == {"n": 3, "classes": 2, "certified": 0}


@pytest.mark.parametrize(
    "p, n_max, found_n, witness",
    [(5, 5, 5, [1, 1, 2, 3, 3]), (7, 6, 6, [1, 1, 1, 2, 5, 5])],
)
def test_estimate_frozen_gf5_gf7(p, n_max, found_n, witness):
    report = estimate_L(p, [2, 3, 5, 7, 11], n_max)
    assert report["found_n"] == found_n
    assert report["witness"] == witness
    assert report["certificate"]["admissible_primes"] == [p]
    assert report["in_interval"] is True


@pytest.mark.parametrize(
    "p, primes, n_max, found_n, witness",
    [(3, [2, 3], 4, 4, [1, 1, 1, 2]), (5, [2, 3], 6, 5, [1, 1, 2, 3, 3])],
)
def test_estimate_counts_a_class_only_for_the_exact_set(p, primes, n_max, found_n, witness):
    # the all-ones class at n = 3 is cofinite (it excludes only 2, or 2 and 3),
    # so it does not count even though no given prime other than p admits it
    report = estimate_L(p, primes, n_max)
    assert report["found_n"] == found_n
    assert report["witness"] == witness
    assert report["certificate"] == {
        "kind": "finite",
        "singleton_integers": None,
        "admissible_primes": [p],
    }


@pytest.mark.parametrize(
    "p, found_n, witness, interval, classes, certified",
    [
        (11, 7, [1, 1, 1, 2, 3, 4, 7], [4, 7], [42, 84, 152, 252, 396], [0, 0, 0, 0, 37]),
        (13, 7, [1, 1, 1, 3, 4, 9, 11], [4, 7], [66, 148, 294, 542, 924], [0, 0, 0, 0, 29]),
        (17, 7, [1, 1, 3, 8, 12, 13, 13], [5, 8], [135, 373, 891, 1933, 3861], [0, 0, 0, 0, 4]),
    ],
)
def test_estimate_frozen_gf11_gf13_gf17(p, found_n, witness, interval, classes, certified):
    report = estimate_L(p, [2, 3, 5, 7, 11, 13], 7)
    assert report["found_n"] == found_n
    assert report["witness"] == witness
    assert report["certificate"]["admissible_primes"] == [p]
    assert report["interval"] == interval
    assert report["in_interval"] is True
    assert [level["classes"] for level in report["levels"]] == classes
    assert [level["certified"] for level in report["levels"]] == certified


@pytest.mark.parametrize("admit_all", [False, True], ids=["searched", "admit-all"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_estimate_class_decision_matches_the_full_certificate(monkeypatch, p, admit_all):
    # the scan counts a class iff its full certificate is finite with exactly
    # {p}, level by level up to the first level that has one, and reports
    # that level's first such class with its certificate.  Every finite class
    # at these sizes has the set {p}, so a forged search that admits every
    # prime also checks that the other special primes are decided
    if admit_all:
        monkeypatch.setattr(represent, "_admissible_point", lambda *args: ([1], 1))
    report = estimate_L(p, [p], 6)
    certified, winner = [], None
    for n in range(3, 7):
        certs = [(d, build_certificate(signature(d))) for d in enumerate_spikes(p, n)]
        hits = [(d, c) for d, c in certs if c.kind == "finite" and c.primes == (p,)]
        certified.append(len(hits))
        if hits:
            winner = hits[0]
            break
    assert winner is not None
    assert [level["certified"] for level in report["levels"]] == certified
    assert report["witness"] == list(winner[0].x)
    assert report["certificate"] == winner[1].to_report()


def test_estimate_eliminates_once_per_class_and_skips_cofinite_searches(monkeypatch):
    rational = represent._rational_part
    searched = represent._admissible_point
    eliminated, cofinite, decided = [], set(), []

    def eliminate(flags):
        parts = rational(flags)
        for row, (generic, *_) in zip(flags, parts):
            bits = int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            eliminated.append(bits)
            if generic:
                cofinite.add(bits)
        return parts

    def search(sig, q, budget, space):
        decided.append(sig.bits)
        return searched(sig, q, budget, space)

    def unused(sig):
        raise AssertionError("the scan confirms the winner against its own certificate")

    monkeypatch.setattr(represent, "_rational_part", eliminate)
    monkeypatch.setattr(represent, "_admissible_point", search)
    monkeypatch.setattr(represent, "build_certificate", unused)
    report = estimate_L(5, [2, 3, 5, 7], 5)
    assert report["found_n"] == 5
    assert len(eliminated) == sum(level["classes"] for level in report["levels"])
    assert cofinite and decided
    assert cofinite.isdisjoint(decided)


def test_estimate_builds_no_prime_list(monkeypatch):
    # the primes up to h matter only to a generic class, which the scan rejects
    def no_primes(v):
        raise AssertionError("the scan built the primes up to h")

    monkeypatch.setattr(represent, "_primes_upto", no_primes)
    report = estimate_L(7, [2, 3, 5, 7, 11], 6)
    assert report["found_n"] is not None


def test_estimate_caps():
    with pytest.raises(OutOfRangeError):
        estimate_L(19, [2, 3], 7)
    with pytest.raises(TooLargeError):
        estimate_L(3, [2, 5], 9)
    with pytest.raises(TooSmallError):
        estimate_L(3, [2, 5], 2)
    with pytest.raises(OutOfRangeError):
        estimate_L(3, [101], 4)
