"""The package's public surface: one sorted list of names, each of which resolves."""

from __future__ import annotations

import spikelab


def test_all_is_sorted_and_unique():
    names = spikelab.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_every_exported_name_resolves():
    missing = [name for name in spikelab.__all__ if not hasattr(spikelab, name)]
    assert missing == []
