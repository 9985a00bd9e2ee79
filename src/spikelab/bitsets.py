"""Subsets of {1,..,n} as bitmasks: index i lives at bit i-1."""

from __future__ import annotations

from typing import Iterable

import numpy as np


def mask_from_indices(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"indices are 1-based, got {i}")
        m |= 1 << (i - 1)
    return m


def indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subset_sums(values: "np.ndarray") -> "np.ndarray":
    """Sums of every subset of the last axis, indexed by mask; one row per leading index.

    Doubling: the upper half of the first 2^(j+1) entries is the lower half
    plus value j, so 2^n sums cost n vector adds.  The input's dtype is kept.
    """
    n = values.shape[-1]
    sums = np.zeros(values.shape[:-1] + (1 << n,), dtype=values.dtype)
    for j in range(n):
        size = 1 << j
        np.add(sums[..., :size], values[..., j : j + 1], out=sums[..., size : 2 * size])
    return sums
