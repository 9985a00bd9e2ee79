from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from spikelab import matrix, spikes
from spikelab import (
    DependentTransversalError,
    Diagonal,
    MatrixGF,
    MismatchedShapeError,
    NoCircuitHyperplaneError,
    NotInSignatureError,
    OutOfRangeError,
    PrimeField,
    Signature,
    TooLargeError,
    TooSmallError,
    ZeroEntryError,
    build_rep,
    canonical_form,
    check_axioms,
    circuit_hyperplane,
    enumerate_spikes,
    is_dependent_transversal,
    mask_from_indices,
    normalize,
    orbit,
    orbit_size,
    signature,
    spike_census,
    swap,
    swap_closure,
    weakly_equivalent,
)

from oracles import (
    SpikeRep,
    axioms_by_definition,
    change_basis_standardize,
    default_labels,
    enumerate_orbits_by_tuples,
    is_circuit,
    members_by_peeling,
    orbit_materialized,
    random_diagonal,
    signature_by_rank,
    signature_by_sums,
    swap_closure_bfs,
    transversal_matrix,
)

GF3 = PrimeField(3)
GF5 = PrimeField(5)


def d3(*x):
    return Diagonal(GF3, x)


# diagonals --------------------------------------------------------------------


def test_diagonal_reduces_mod_p():
    assert Diagonal(GF3, (4, -1, 7)).x == (1, 2, 1)


def test_diagonal_rejects_zero_and_empty():
    with pytest.raises(ZeroEntryError):
        Diagonal(GF3, (1, 3, 2))  # 3 = 0 mod 3
    with pytest.raises(TooSmallError):
        Diagonal(GF3, ())


def test_diagonal_views():
    d = Diagonal(GF5, (4, 1, 3))
    assert d.n == 3 and d.p == 5
    assert d.inverses() == (4, 1, 2)
    assert d.balanced() == (-1, 1, -2)
    assert d.text() == "p=5;x=4,1,3"


def test_parse_round_trip():
    for text in ("p=3;x=2,2,1,1", "p=5;x=4,1,3", "p=2;x=1,1,1"):
        assert Diagonal.parse(text).text() == text


@pytest.mark.parametrize(
    "bad",
    [
        "p=3;x=",
        "p=3",
        "x=1,2",
        "p=4;x=1,2",
        "p=3;x=0,1",
        "p=3;x=3,1",
        "p=3;x=1,2;y=0",
        "p=3;x=1,-2",
        "q=3;x=1,2",
        "p=3;x=a,b",
        "",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        Diagonal.parse(bad)


def test_parse_tolerates_spacing():
    assert Diagonal.parse(" p=3;x=1, 2 ").x == (1, 2)


# representations and axioms -----------------------------------------------------


def test_build_rep_shape_and_labels():
    d = d3(1, 1, 2)
    M = build_rep(d)
    assert M.rows == 3 and M.cols == 7
    assert SpikeRep.of(d).labels == ("e1", "e2", "e3", "t", "f1", "f2", "f3")
    assert default_labels(3) == SpikeRep.of(d).labels
    # identity block, tip of ones, co-basis = ones + diag
    assert M.column(0) == (1, 0, 0)
    assert M.column(3) == (1, 1, 1)
    assert M.column(4) == (2, 1, 1)
    assert M.column(6) == (1, 1, 0)  # f3 = t + 2*e3, and 1+2 = 0 mod 3


def test_rep_diagonal_round_trip():
    for x in itertools.product((1, 2), repeat=4):
        d = Diagonal(GF3, x)
        assert SpikeRep.of(d).diagonal() == d


def test_build_rep_needs_three_lines():
    with pytest.raises(TooSmallError):
        build_rep(d3(1, 2))


def test_check_axioms_holds_for_all_small_diagonals():
    for p, nmax in ((2, 5), (3, 4)):
        f = PrimeField(p)
        for n in range(3, nmax + 1):
            for x in itertools.product(range(1, p), repeat=n):
                assert check_axioms(build_rep(Diagonal(f, x)))


def test_check_axioms_random_larger_fields():
    rng = random.Random(101)
    for _ in range(25):
        p = rng.choice((5, 7, 11))
        d = random_diagonal(rng, p, rng.randrange(3, 7))
        assert check_axioms(build_rep(d))


def test_check_axioms_detects_breakage():
    d = d3(1, 1, 1)
    rows = [row[:] for row in build_rep(d).entries]
    for r in range(3):
        rows[r][3] = 0  # kill the tip column: lines no longer share a point
    assert not check_axioms(MatrixGF(GF3, rows))


def test_check_axioms_detects_a_line_of_rank_3():
    # f_i plus e_r (r != i) leaves span(e_i, t): line i has rank 3, while its
    # points stay nonzero and pairwise non-parallel
    for n in range(3, 7):
        d = Diagonal(GF5, tuple(1 + i % 4 for i in range(n)))
        for i in range(n):
            rows = [row[:] for row in build_rep(d).entries]
            rows[(i + 1) % n][n + 1 + i] = 2  # was 1
            assert not check_axioms(MatrixGF(GF5, rows)), (n, i)


def test_check_axioms_detects_two_parallel_points_on_a_line():
    # zeroing the off-diagonal entries of f_i leaves (1 + x_i) e_i: nonzero,
    # but parallel to e_i
    for n in range(3, 7):
        d = Diagonal(GF5, tuple(1 + i % 3 for i in range(n)))
        for i in range(n):
            rows = [row[:] for row in build_rep(d).entries]
            for r in range(n):
                if r != i:
                    rows[r][n + 1 + i] = 0
            assert not check_axioms(MatrixGF(GF5, rows)), (n, i)


def test_check_axioms_ranks_each_line_and_its_complement_once(monkeypatch):
    stacks = []
    echelon = matrix._echelon

    def counted(stack, q=None):
        stacks.append(len(stack))
        return echelon(stack, q)

    monkeypatch.setattr(matrix, "_echelon", counted)
    for n in range(3, spikes.AXIOMS_MAX_N + 1):
        stacks.clear()
        assert check_axioms(build_rep(Diagonal(GF5, (1,) * n)))
        # one stack of the 3n pairs, one of the n lines, one of every line
        # but one; one rank per set of lines would pass 2^n from n = 5 on
        assert stacks == [3 * n, n, n], n


def _near_spike(rng: random.Random, p: int, n: int) -> MatrixGF:
    """Columns e_1..e_n, t, f_1..f_n, where line i spans t and direction d_i
    and its three points are pairwise non-parallel.

    The d_i are the columns of a random invertible matrix P and t = P s, so
    the lines through t form a spike exactly when every s_i is nonzero.
    Each s_i is zero with probability 1/(2n), and each d_i is redrawn with
    the same probability as a random combination of other directions and t.
    """
    field = PrimeField(p)
    while True:
        P = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if MatrixGF(field, P).rank() == n:
            break
    d = [[P[r][i] for r in range(n)] for i in range(n)]
    while True:
        s = [0 if rng.random() < 1 / (2 * n) else rng.randrange(1, p) for _ in range(n)]
        if sum(v != 0 for v in s) >= 2:  # t is then parallel to no d_i
            break
    t = [sum(P[r][i] * s[i] for i in range(n)) % p for r in range(n)]
    for i in range(n):
        if rng.random() < 1 / (2 * n):
            others = rng.sample([j for j in range(n) if j != i], rng.randrange(1, n - 1))
            coef = {j: rng.randrange(1, p) for j in others}
            a = rng.randrange(p)
            d[i] = [(a * t[r] + sum(c * d[j][r] for j, c in coef.items())) % p for r in range(n)]
    es, fs = [], []
    for i in range(n):
        while True:
            a, c = rng.randrange(p), rng.randrange(p)
            b, g = rng.randrange(1, p), rng.randrange(1, p)
            if (a * g - b * c) % p:
                break
        es.append([(a * t[r] + b * d[i][r]) % p for r in range(n)])
        fs.append([(c * t[r] + g * d[i][r]) % p for r in range(n)])
    cols = es + [t] + fs
    return MatrixGF(field, [[col[r] for col in cols] for r in range(n)])


def test_check_axioms_matches_the_definition_on_near_spikes():
    rng = random.Random(109)
    outcomes = {n: set() for n in range(3, 8)}
    for p in (2, 3, 5):
        for n in outcomes:
            for _ in range(20):
                M = _near_spike(rng, p, n)
                holds = axioms_by_definition(M)
                assert check_axioms(M) == holds, (p, n, M.entries)
                outcomes[n].add(holds)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def test_check_axioms_rejects_wrong_shape():
    narrower = build_rep(d3(1, 1, 1)).select_columns(range(6))
    with pytest.raises(MismatchedShapeError):
        check_axioms(narrower)


# signatures ---------------------------------------------------------------------


def test_signature_frozen_example():
    sig = signature(d3(2, 2, 1, 1))
    assert sig.hex() == "1886"
    assert sig.member_indices() == ((1,), (2,), (1, 2, 3), (1, 2, 4), (3, 4))
    assert sig.size == 5


def test_signature_matches_both_oracles_exhaustive_gf3():
    for n in range(1, 6):
        for x in itertools.product((1, 2), repeat=n):
            d = Diagonal(GF3, x)
            bits = signature(d).bits
            assert bits == signature_by_sums(d)
            if n >= 3:
                assert bits == signature_by_rank(d)


def test_signature_matches_oracles_sampled():
    rng = random.Random(103)
    for _ in range(40):
        p = rng.choice((5, 7))
        d = random_diagonal(rng, p, rng.randrange(3, 8))
        bits = signature(d).bits
        assert bits == signature_by_sums(d)
        if d.n <= 6:
            assert bits == signature_by_rank(d)
    # wide tables, and p = 65521 where the sums need more than 16 bits
    wide = [random_diagonal(rng, p, n) for p in (3, 5) for n in (10, 14)]
    f = PrimeField(65521)
    big = Diagonal(f, tuple(f.inv(z) for z in (30000, 35520, 40000, 50000)))
    for d in wide + [big]:
        assert signature(d).bits == signature_by_sums(d)
    assert (1, 2) in signature(big).member_indices()


def test_signature_size_cap():
    with pytest.raises(TooLargeError):
        signature(Diagonal(PrimeField(2), (1,) * 25))


def test_signature_container_round_trips():
    sig = signature(d3(2, 2, 1, 1))
    assert Signature.from_hex(4, sig.hex()) == sig
    assert Signature.from_members(4, sig.member_indices()) == sig
    assert (1,) in sig and (3, 4) in sig and (1, 2) not in sig
    assert mask_from_indices((1, 2, 3)) in sig


def test_members_match_bit_peeling_on_random_signatures():
    rng = random.Random(331)
    for n in [*range(9), 11, 13]:
        for _ in range(20):
            dense = rng.getrandbits(1 << n)
            bits = rng.choice((dense, dense & rng.getrandbits(1 << n), 1 << rng.randrange(1 << n)))
            sig = Signature(n, bits & ~1)
            assert sig.members() == members_by_peeling(sig.bits), (n, sig.hex())
            assert all(type(m) is int for m in sig.members())


def test_members_decode_dense_n20_within_budget():
    # about 350000 members; peeling bits off the int took about 17 s on a 2-core VM
    sig = signature(Diagonal(GF3, (1,) * 20))  # members: sizes 2 mod 3
    start = time.perf_counter()
    members = sig.members()
    elapsed = time.perf_counter() - start
    assert len(members) == sig.size > 300_000
    assert members[:4] == (0b11, 0b101, 0b110, 0b1001)
    assert members[-1] == (1 << 20) - 1  # 20 is 2 mod 3
    assert elapsed < 2.0, f"decoding took {elapsed:.2f}s against a 2s budget"


def test_signature_rejects_empty_subset_bit():
    with pytest.raises(ValueError):
        Signature(n=2, bits=0b1)  # bit 0 would be the empty set


def test_signature_rejects_overwide_bits():
    with pytest.raises(OutOfRangeError):
        Signature(n=2, bits=1 << 16)


def test_is_dependent_transversal_agrees_with_signature():
    # both scalar readers of the transversal rule, against the signature kernel:
    # swap refuses exactly the dependent transversals
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        for n in range(1, 5):
            for x in itertools.product(range(1, p), repeat=n):
                d = Diagonal(field, x)
                sig = signature(d)
                for mask in range(1 << n):
                    dependent = mask in sig
                    assert is_dependent_transversal(d, mask) == dependent, (d, mask)
                    if dependent:
                        with pytest.raises(DependentTransversalError):
                            swap(d, mask)
                    else:
                        swap(d, mask)


def test_circuit_hyperplane_labels_and_geometry():
    d = d3(2, 2, 1, 1)
    labels = circuit_hyperplane(d, (3, 4))
    assert labels == ("e1", "e2", "f3", "f4")
    # geometric cross-check: it really is a circuit of rank n-1
    M = transversal_matrix(d, mask_from_indices((3, 4)))
    assert M.rank() == 3
    assert is_circuit(M)


def test_circuit_hyperplane_rejects_non_member():
    with pytest.raises(NotInSignatureError):
        circuit_hyperplane(d3(2, 2, 1, 1), (1, 2))


# swaps --------------------------------------------------------------------------


def test_swap_examples():
    assert swap(d3(1, 1, 1), (1, 2, 3)).x == (2, 2, 2)
    # sigma = 1/x_3 = 1, so entries double and the swapped one also negates
    assert swap(d3(2, 2, 1, 1), (3,)).x == (1, 1, 1, 2)


def test_swap_rejects_dependent_transversal():
    d = d3(2, 2, 1, 1)
    with pytest.raises(DependentTransversalError):
        swap(d, (1,))  # {1} is in the signature
    with pytest.raises(DependentTransversalError):
        swap(d, (3, 4))


def test_swap_matches_matrix_restandardization_exhaustive_gf3():
    for n in (3, 4):
        for x in itertools.product((1, 2), repeat=n):
            d = Diagonal(GF3, x)
            sig = signature(d)
            R = SpikeRep.of(d)
            for smask in range(1, 1 << n):
                if smask in sig:
                    continue
                via_matrix = change_basis_standardize(R, smask).diagonal()
                assert swap(d, smask) == via_matrix


def test_matrix_swap_oracle_runs_no_library_elimination(monkeypatch):
    def no_elimination(*args, **kwargs):
        raise AssertionError("the swap oracle must not run the elimination it checks")

    monkeypatch.setattr(matrix, "_echelon", no_elimination)
    d = Diagonal(GF5, (4, 1, 3, 2))
    assert change_basis_standardize(SpikeRep.of(d), 0b101).diagonal() == swap(d, 0b101)
    with pytest.raises(DependentTransversalError):
        change_basis_standardize(SpikeRep.of(d3(2, 2, 1)), 0b001)  # {1} is a member


def test_swap_matches_matrix_restandardization_sampled():
    rng = random.Random(107)
    done = 0
    while done < 60:
        p = rng.choice((5, 7))
        d = random_diagonal(rng, p, rng.randrange(3, 7))
        sig = signature(d)
        smask = rng.randrange(1, 1 << d.n)
        if smask in sig:
            continue
        via_matrix = change_basis_standardize(SpikeRep.of(d), smask).diagonal()
        assert swap(d, smask) == via_matrix
        done += 1


def test_swap_involution_and_transform_law():
    rng = random.Random(109)
    done = 0
    while done < 80:
        p = rng.choice((3, 5, 7))
        d = random_diagonal(rng, p, rng.randrange(1, 7))
        sig = signature(d)
        smask = rng.randrange(1, 1 << d.n)
        if smask in sig:
            continue
        y = swap(d, smask)
        assert swap(y, smask) == d
        assert signature(y) == sig.xor_transform(smask)
        done += 1


def test_signature_transforms_refuse_bad_input():
    sig = signature(d3(2, 2, 1, 1))
    assert 0b0001 in sig and 0b1100 in sig
    for member in (0b0001, (3, 4)):
        with pytest.raises(DependentTransversalError):
            sig.xor_transform(member)
    with pytest.raises(OutOfRangeError):
        sig.permute((1, 2, 2, 4))


def test_swap_composition_is_symmetric_difference():
    rng = random.Random(113)
    done = 0
    while done < 50:
        p = rng.choice((3, 5))
        d = random_diagonal(rng, p, rng.randrange(2, 6))
        sig = signature(d)
        s, t = rng.randrange(1, 1 << d.n), rng.randrange(1, 1 << d.n)
        if s in sig or s == t:
            continue
        y = swap(d, s)
        if t in signature(y):
            continue
        z = swap(y, t)
        if s ^ t == 0:
            assert z == d
        else:
            assert z == swap(d, s ^ t)
        done += 1


def test_swap_permutation_equivariance():
    rng = random.Random(127)
    done = 0
    while done < 50:
        p = rng.choice((3, 5, 7))
        d = random_diagonal(rng, p, rng.randrange(2, 7))
        sig = signature(d)
        smask = rng.randrange(1, 1 << d.n)
        if smask in sig:
            continue
        perm = list(range(1, d.n + 1))
        rng.shuffle(perm)
        # permute the diagonal, then swap at the permuted subset
        dp = Diagonal(d.field, tuple(d.x[perm.index(i + 1)] for i in range(d.n)))
        pmask = mask_from_indices(perm[i - 1] for i in range(1, d.n + 1) if smask >> (i - 1) & 1)
        lhs = swap(dp, pmask)
        rhs = swap(d, smask)
        assert lhs.x == tuple(rhs.x[perm.index(i + 1)] for i in range(d.n))
        assert signature(dp) == signature(d).permute(tuple(perm))
        done += 1


def test_change_basis_standardize_round_trip():
    d = Diagonal(GF5, (4, 1, 3, 2))
    assert (1, 3) not in signature(d)
    R = SpikeRep.of(d)
    once = change_basis_standardize(R, mask_from_indices((1, 3)))
    twice = change_basis_standardize(once, mask_from_indices((1, 3)))
    assert twice.matrix == R.matrix
    assert twice.labels == R.labels


# normalize / canonical / orbits ---------------------------------------------------


def test_normalize_examples():
    assert normalize(d3(1, 1, 1)).x == (2, 1, 2)
    assert normalize(d3(1, 1)).x == (2, 1)


def test_normalize_first_entry_always_minus_one():
    for n in range(1, 6):
        for x in itertools.product((1, 2), repeat=n):
            d = Diagonal(GF3, x)
            if signature(d).bits == 0:
                continue
            y = normalize(d)
            assert y.x[0] == 2
            assert weakly_equivalent(d, y)


def test_normalize_requires_a_circuit_hyperplane():
    with pytest.raises(NoCircuitHyperplaneError):
        normalize(Diagonal(GF5, (1, 1)))  # no subset of inverses sums to -1


def test_swap_closure_contains_start_and_is_closed():
    d = d3(1, 1, 1)
    closure = swap_closure(d)
    seen = {z.x for z in closure}
    assert d.x in seen
    # swaps at {1},{2},{3},{1,2,3} (the non-members) give the other four
    assert seen == {(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2)}
    for z in closure:
        sig = signature(z)
        for smask in range(1, 1 << 3):
            if smask not in sig:
                assert swap(z, smask).x in seen


def test_swap_closure_matches_bfs_oracle():
    rng = random.Random(83)
    for p in (3, 5, 7):
        for n in range(1, 7):
            for _ in range(8):
                d = random_diagonal(rng, p, n)
                assert [z.x for z in swap_closure(d)] == [
                    z.x for z in swap_closure_bfs(d)
                ]


def test_canonical_form_is_orbit_invariant():
    for n in (3, 4):
        for x in itertools.product((1, 2), repeat=n):
            d = Diagonal(GF3, x)
            c = canonical_form(d)
            assert c.x == min(orbit(d))
            for member in orbit(d):
                assert canonical_form(Diagonal(GF3, member)).x == c.x


def test_canonical_cap():
    with pytest.raises(TooLargeError):
        canonical_form(Diagonal(PrimeField(2), (1,) * 8))


@pytest.mark.parametrize(
    "call",
    [
        swap_closure,
        orbit,
        orbit_size,
        canonical_form,
        lambda d: weakly_equivalent(d, d),
        lambda d: enumerate_spikes(d.p, d.n),
        lambda d: spike_census(d.p, d.n),
    ],
    ids=[
        "swap_closure",
        "orbit",
        "orbit_size",
        "canonical_form",
        "weakly_equivalent",
        "enumerate_spikes",
        "spike_census",
    ],
)
def test_orbit_functions_refused_past_cap_before_any_swap(monkeypatch, call):
    # the closure holds the cap, so every orbit computation refuses before the
    # closure kernel takes its first subset sum
    def kernel_reached(*args):
        raise AssertionError("closure kernel reached")

    monkeypatch.setattr(spikes, "subset_sums", kernel_reached)
    with pytest.raises(TooLargeError, match="swap closure capped at n=7, got 8"):
        call(Diagonal(GF3, (1,) * (spikes.CANONICAL_MAX_N + 1)))
    with pytest.raises(AssertionError, match="closure kernel reached"):
        call(Diagonal(GF3, (1,) * spikes.CANONICAL_MAX_N))


def test_enumeration_refuses_past_cap_before_its_first_tuple(monkeypatch):
    # the scan's first tuple has n entries, so the cap is checked on n itself
    def scan_started(*args):
        raise AssertionError("enumeration scan started")

    monkeypatch.setattr(spikes.itertools, "combinations_with_replacement", scan_started)
    for call in (enumerate_spikes, spike_census):
        with pytest.raises(TooLargeError, match=f"swap closure capped at n=7, got {10**12}$"):
            call(3, 10**12)


def test_weak_equivalence_examples():
    # (2,2,2) is the full swap of (1,1,1): same matroid, relabeled
    assert weakly_equivalent(d3(2, 2, 2), d3(1, 1, 1))
    assert weakly_equivalent(d3(2, 1, 2), d3(1, 1, 1))
    assert not weakly_equivalent(d3(1, 1, 2), d3(1, 1, 1))
    with pytest.raises(MismatchedShapeError):
        weakly_equivalent(d3(1, 1, 1), Diagonal(GF5, (1, 1, 1)))
    with pytest.raises(MismatchedShapeError):
        weakly_equivalent(d3(1, 1, 1), d3(1, 1, 1, 1))


def test_orbits_partition_the_cube():
    for p, n in ((3, 3), (3, 4), (5, 3), (5, 4), (7, 3)):
        f = PrimeField(p)
        size_by_min = {}
        covered = set()
        for x in itertools.product(range(1, p), repeat=n):
            if x in covered:
                continue
            orb = orbit_materialized(Diagonal(f, x))
            assert orbit(Diagonal(f, x)) == orb
            assert not (orb & covered)
            covered |= orb
            size_by_min[min(orb)] = len(orb)
        assert len(covered) == (p - 1) ** n
        reps = enumerate_spikes(p, n)
        assert [r.x for r in reps] == sorted(size_by_min)
        census = spike_census(p, n)["classes"]
        assert {tuple(c["diagonal"]): c["orbit_size"] for c in census} == size_by_min
        for r in reps:
            assert orbit_size(r) == size_by_min[r.x]


def test_census_frozen_gf3_n3():
    report = spike_census(3, 3)
    assert report["class_count"] == 2
    assert report["classes"] == [
        {"diagonal": [1, 1, 1], "orbit_size": 5},
        {"diagonal": [1, 1, 2], "orbit_size": 3},
    ]
    assert report["total_diagonals"] == 8


def test_census_caps():
    with pytest.raises(TooLargeError):
        spike_census(3, 8)
    with pytest.raises(TooLargeError):
        spike_census(19, 3)
    with pytest.raises(TooLargeError):
        enumerate_spikes(19, 3)


# the chunked lex scan over the rank bitmap, against the scan over tuples

ORACLE_GRID = [
    (p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(1, 6)
] + [(7, 6), (11, 4), (13, 6), (17, 5)]


@pytest.mark.parametrize("p, n", ORACLE_GRID)
def test_lex_scan_matches_the_tuple_set_scan(p, n):
    # representatives, orbit sizes and each class's distinct closure multisets
    want = enumerate_orbits_by_tuples(p, n)
    multisets, closures = spikes._enumerate_orbits(p, n)
    got = [[tuple(m) for m in multisets[np.unique(row)].tolist()] for row in closures]
    assert got == [ms for _, ms in want]
    assert [d.x for d in enumerate_spikes(p, n)] == [d.x for d, _ in want]
    sizes = [c["orbit_size"] for c in spike_census(p, n)["classes"]]
    assert sizes == [sum(map(spikes._arrangements, ms)) for _, ms in want]


@pytest.mark.parametrize("chunk", [1, 5, spikes._CHUNK])
def test_lex_scan_is_the_same_whatever_the_chunk(monkeypatch, chunk):
    # one candidate a chunk, a few, or the default: chunks only batch the scan
    monkeypatch.setattr(spikes, "_CHUNK", chunk)
    for p, n in ((3, 4), (5, 5), (7, 4)):
        assert [d.x for d in enumerate_spikes(p, n)] == [
            d.x for d, _ in enumerate_orbits_by_tuples(p, n)
        ]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_rank_order_is_the_combinations_order(p):
    for n in range(1, 7 if p < 17 else 6):
        multisets = spikes._level(p, n)
        want = list(itertools.combinations_with_replacement(range(1, p), n))
        assert list(map(tuple, multisets.tolist())) == want
        table, offsets = spikes._rank_table(p, n)
        ranks = table.take(multisets + offsets).sum(axis=-1)
        assert ranks.tolist() == list(range(len(want)))


def _counts_by_row(multisets, low, high):
    counts, patterns = spikes._arrangement_counts(multisets, low, high)
    return [counts[i] for i in patterns.tolist()]


def test_level_counts_are_the_run_length_counts():
    # the count for every multiset at once, against the scalar count
    for p, n in ((2, 1), (3, 4), (5, 6), (7, 7), (17, 4)):
        multisets = spikes._level(p, n)
        want = [spikes._arrangements(m) for m in map(tuple, multisets.tolist())]
        assert _counts_by_row(multisets, 1, p) == want
        # one count a multiplicity pattern, the multiplicities sorted
        patterns = {tuple(sorted(Counter(m).values())) for m in multisets.tolist()}
        assert len(spikes._arrangement_counts(multisets, 1, p)[0]) == len(patterns)


def test_level_counts_rank_keys_that_would_pass_int64():
    # 40 distinct entries read base 41 would pass 2^62 after 11 of them, so
    # the key is ranked on the way; the counts stay exact past int64
    rng = random.Random(40)
    rows = [sorted(rng.choice(range(40)) for _ in range(40)) for _ in range(30)]
    rows += [list(range(40)), [0] * 40, [0] * 20 + [1] * 20]
    multisets = np.array(rows, dtype=np.uint8)
    want = [spikes._arrangements(tuple(m)) for m in rows]
    assert _counts_by_row(multisets, 0, 40) == want
    assert want[-3] == math.factorial(40) > 1 << 63
