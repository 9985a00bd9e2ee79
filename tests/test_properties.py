"""Property tests: the swap laws, the closure kernel, orbit sizes and the characteristic
decision on random diagonals, the two routes of the per-prime search, the threshold
experiment's independence of its test primes, and the zero-sum register kernel on
random batches of tuples."""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spikelab import (
    Diagonal,
    PrimeField,
    build_certificate,
    estimate_L,
    orbit_size,
    represent,
    search_rep,
    signature,
    spikes,
    swap,
    swap_closure,
    zerosum,
)

from oracles import (
    least_mask_subset_sum,
    orbit_materialized,
    reach_history_by_rotation,
    reconstruct_by_first_reach,
    swap_closure_by_swaps,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def diagonals(n_max: int, primes: tuple[int, ...] = SMALL_PRIMES) -> st.SearchStrategy:
    return st.sampled_from(primes).flatmap(
        lambda p: st.lists(st.integers(1, p - 1), min_size=1, max_size=n_max).map(
            lambda xs: Diagonal(PrimeField(p), tuple(xs))
        )
    )


def relabel(d: Diagonal, perm: list[int]) -> Diagonal:
    """Entry i moves to position perm[i-1], as in Signature.permute."""
    y = [0] * d.n
    for i, v in enumerate(d.x):
        y[perm[i] - 1] = v
    return Diagonal(d.field, tuple(y))


def _swap_set(d: Diagonal, data: st.DataObject) -> int:
    sig = signature(d)
    free = [m for m in range(1, 1 << d.n) if m not in sig]
    assume(free)
    return data.draw(st.sampled_from(free))


@settings(max_examples=150, deadline=None)
@given(d=diagonals(7), data=st.data())
def test_swap_is_an_involution_obeying_the_transform_law(d, data):
    smask = _swap_set(d, data)
    y = swap(d, smask)
    assert swap(y, smask) == d
    assert signature(y) == signature(d).xor_transform(smask)


@settings(max_examples=150, deadline=None)
@given(d=diagonals(7), data=st.data())
def test_swap_and_signature_commute_with_relabeling(d, data):
    smask = _swap_set(d, data)
    perm = data.draw(st.permutations(range(1, d.n + 1)))
    pmask = sum(1 << (perm[i] - 1) for i in range(d.n) if smask >> i & 1)
    assert signature(relabel(d, perm)) == signature(d).permute(tuple(perm))
    assert swap(relabel(d, perm), pmask) == relabel(swap(d, smask), perm)


@settings(max_examples=150, deadline=None)
@given(d=diagonals(7, (*SMALL_PRIMES, 65521)))
def test_swap_closure_kernel_matches_the_per_swap_loop(d):
    # 65521 takes the kernel's int64 products to their largest
    by_swaps = swap_closure_by_swaps(d)
    assert swap_closure(d) == by_swaps
    assert spikes._closure_multisets(d) == sorted({tuple(sorted(z.x)) for z in by_swaps})


@settings(max_examples=60, deadline=None)
@given(d=diagonals(5))
def test_orbit_size_counts_the_materialized_orbit(d):
    assert orbit_size(d) == len(orbit_materialized(d))


@settings(max_examples=200, deadline=None)
@given(m=st.lists(st.integers(0, 4), max_size=12).map(lambda xs: tuple(sorted(xs))))
def test_run_length_count_is_the_multinomial(m):
    # n!/prod(multiplicity!) from factorials, the count the run lengths replace
    want = math.factorial(len(m)) // math.prod(map(math.factorial, Counter(m).values()))
    assert spikes._arrangements(m) == want


@settings(max_examples=150, deadline=None)
@given(d=diagonals(5))
def test_certificate_admits_own_prime_and_agrees_with_search(d):
    sig = signature(d)
    cert = build_certificate(sig)
    assert cert.admits(d.p)
    for q in SMALL_PRIMES:
        assert cert.admits(q) == (search_rep(sig, q)[0] is not None), (d, q)


@settings(max_examples=150, deadline=None)
@given(d=diagonals(7), q=st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23)))
def test_solution_space_search_meets_the_lattice_witness(d, q):
    # the lattice and the solution-space search both meet the lex-least inverse
    # vector first, so the handover never changes a reported witness
    sig = signature(d)
    field = PrimeField(q)
    witness, sums = search_rep(sig, q)
    assume(sums <= represent._LATTICE_CAP)  # answered by the lattice
    z, _ = represent._admissible_point(sig, q, represent.AUDIT_BUDGET)
    assert z == (None if witness is None else [field.inv(v) for v in witness.x]), (d, q)
    with mock.patch.object(represent, "_LATTICE_CAP", 0):
        handed, count = search_rep(sig, q)
    assert handed == witness and count > 0, (d, q)


@st.composite
def kernel_batches(draw) -> tuple[int, list[tuple[int, ...]]]:
    """A prime and 1 to 12 tuples of the same 1 to 10 residues, zero allowed."""
    # 67 takes the registers past a machine word, into Python ints
    p = draw(st.sampled_from((2, 3, 5, 7, 67)))
    n = draw(st.integers(1, 10))
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(tuple)
    return p, draw(st.lists(row, min_size=1, max_size=12))


@cache
def _estimate_with_every_prime(p: int, n_max: int) -> dict:
    return estimate_L(p, list(SMALL_PRIMES), n_max)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5)),
    n_max=st.integers(3, 5),
    primes=st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=6, unique=True),
)
def test_threshold_experiment_does_not_depend_on_its_test_primes(p, n_max, primes):
    # a class counts iff its exact characteristic set is {p}; the test primes
    # only choose which per-prime searches cross-check the winner
    report = estimate_L(p, sorted(primes), n_max)
    want = _estimate_with_every_prime(p, n_max)
    for key in ("found_n", "witness", "certificate", "levels"):
        assert report[key] == want[key], key


@settings(max_examples=150, deadline=None)
@given(drawn=kernel_batches())
def test_register_kernel_rows_match_least_mask_oracle(drawn):
    # one kernel run over the batch: each row's layers, register, verdicts and
    # walked witnesses against the scalar register walk and the bitmask scan
    p, rows = drawn
    a = np.array(rows, dtype=np.uint8 if p < 64 else np.int64)
    targets = np.arange(p)
    layers, final = zerosum._reach_history(p, a, targets)
    steps = zerosum._witnesses(p, a, layers, targets)
    resums = zerosum._resums(p, a, steps, targets)
    hists = [reach_history_by_rotation(p, row) for row in rows]
    # every residue is a target, so the run stops once every register is full
    assert len(layers) == max(map(len, hists)), (p, rows)
    for t, (row, hist) in enumerate(zip(rows, hists)):
        first = [h & ~g for g, h in zip([0] + hist, hist)]
        assert layers[:, t].tolist() == first + [0] * (len(layers) - len(hist)), (p, row)
        assert final[t] == hist[-1], (p, row)
        for target in range(p):
            want = least_mask_subset_sum(p, row, target)
            reached = bool(int(final[t]) >> target & 1)
            assert reached == (want is not None), (p, row, target)
            if reached:
                walked = tuple(np.flatnonzero(steps[:, t, target]) + 1)
                assert walked == reconstruct_by_first_reach(p, row, hist, target), (p, row, target)
                assert sum(1 << (i - 1) for i in walked) == want, (p, row, target)
                assert resums[t, target], (p, row, target)
