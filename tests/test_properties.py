"""Property tests on random diagonals: the swap laws, orbit sizes and the characteristic decision."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spikelab import (
    Diagonal,
    PrimeField,
    build_certificate,
    orbit_size,
    search_rep,
    signature,
    swap,
)

from oracles import orbit_materialized

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def diagonals(n_max: int) -> st.SearchStrategy[Diagonal]:
    return st.sampled_from(SMALL_PRIMES).flatmap(
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


@settings(max_examples=60, deadline=None)
@given(d=diagonals(5))
def test_orbit_size_counts_the_materialized_orbit(d):
    assert orbit_size(d) == len(orbit_materialized(d))


@settings(max_examples=150, deadline=None)
@given(d=diagonals(5))
def test_certificate_admits_own_prime_and_agrees_with_search(d):
    sig = signature(d)
    cert = build_certificate(sig)
    assert cert.admits(d.p)
    for q in SMALL_PRIMES:
        assert cert.admits(q) == (search_rep(sig, q)[0] is not None), (d, q)
