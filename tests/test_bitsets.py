from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikelab import indices_from_mask, mask_from_indices
from spikelab.bitsets import subset_sums


def test_mask_round_trip():
    for mask in range(1 << 8):
        assert mask_from_indices(indices_from_mask(mask)) == mask


def test_mask_from_indices_examples():
    assert mask_from_indices([]) == 0
    assert mask_from_indices([1]) == 1
    assert mask_from_indices([3, 1]) == 0b101
    assert mask_from_indices((2, 4)) == 0b1010


def test_indices_are_one_based_and_sorted():
    assert indices_from_mask(0b1101) == (1, 3, 4)
    with pytest.raises(ValueError):
        mask_from_indices([0])
    with pytest.raises(ValueError):
        mask_from_indices([-2])


def _sums_by_subset(row: list[int]) -> list[int]:
    n = len(row)
    return [sum(row[i] for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


_values = st.integers(-(10**6), 10**6)


@settings(max_examples=60, deadline=None)
@given(st.lists(_values, max_size=10))
@example([])
def test_subset_sums_matches_per_subset_sums(row):
    out = subset_sums(np.array(row, dtype=np.int64))
    assert out.shape == (1 << len(row),)
    assert out.tolist() == _sums_by_subset(row)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10).flatmap(
        lambda n: st.lists(st.lists(_values, min_size=n, max_size=n), min_size=1, max_size=4)
    )
)
@example([[], []])
def test_subset_sums_batched_rows(rows):
    values = np.array(rows, dtype=np.int64)
    out = subset_sums(values)
    assert out.shape == (len(rows), 1 << values.shape[1])
    assert out.tolist() == [_sums_by_subset(row) for row in rows]
