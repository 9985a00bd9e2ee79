from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from spikelab import (
    MatrixGF,
    MismatchedShapeError,
    NonSquareError,
    PrimeField,
    TooLargeError,
    TooSmallError,
    ZeroEntryError,
    ones_plus_diag,
    spike_det,
    verify_det_identity,
)
from spikelab.matrix import DETCHECK_MAX_N, DETCHECK_MAX_SAMPLES, rref

from oracles import det_cofactor, random_matrix, rank_by_minors


# construction ---------------------------------------------------------------


def test_entries_reduced_mod_p():
    M = MatrixGF(PrimeField(5), [[7, -1], [10, 3]])
    assert M.entries == [[2, 4], [0, 3]]


def test_ragged_and_empty_rejected():
    f = PrimeField(3)
    with pytest.raises(MismatchedShapeError):
        MatrixGF(f, [[1, 2], [1]])
    with pytest.raises(MismatchedShapeError):
        MatrixGF(f, [])
    with pytest.raises(MismatchedShapeError):
        MatrixGF(f, [[]])


def test_identity_and_equality():
    f = PrimeField(7)
    I = MatrixGF.identity(f, 3)
    assert I == MatrixGF(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert I != MatrixGF(PrimeField(5), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert hash(I) == hash(MatrixGF.identity(f, 3))


# determinant and rank -------------------------------------------------------


def test_det_against_cofactor_oracle():
    rng = random.Random(23)
    for p in (2, 3, 5, 7):
        f = PrimeField(p)
        for _ in range(50):
            n = rng.randrange(1, 6)
            rows = random_matrix(rng, p, n, n)
            assert MatrixGF(f, rows).det() == det_cofactor(p, rows)


def test_det_known_values():
    f = PrimeField(5)
    assert MatrixGF.identity(f, 4).det() == 1
    assert MatrixGF(f, [[2, 0], [0, 3]]).det() == 1
    assert MatrixGF(f, [[1, 2], [2, 4]]).det() == 0  # proportional rows


def test_det_requires_square():
    with pytest.raises(NonSquareError):
        MatrixGF(PrimeField(3), [[1, 2, 0], [0, 1, 1]]).det()


def test_rank_against_minor_oracle():
    rng = random.Random(31)
    for p in (2, 3, 5):
        f = PrimeField(p)
        for _ in range(40):
            m, n = rng.randrange(1, 5), rng.randrange(1, 5)
            rows = random_matrix(rng, p, m, n)
            assert MatrixGF(f, rows).rank() == rank_by_minors(p, rows)


def test_rank_known_cases():
    f = PrimeField(3)
    assert MatrixGF(f, [[0, 0], [0, 0]]).rank() == 0
    assert MatrixGF.identity(f, 4).rank() == 4
    assert MatrixGF(f, [[1, 2, 0], [2, 1, 0], [0, 0, 0]]).rank() == 1  # rows proportional mod 3
    assert MatrixGF(f, [[1, 1, 0], [0, 1, 1], [1, 2, 1]]).rank() == 2  # row3 = row1 + row2


# reduced row echelon form ------------------------------------------------------


def _is_reduced(reduced, cols, q, d):
    """Each row leads with d at its pivot column, and pivot columns are d times unit vectors."""
    if cols != sorted(set(cols)):
        return False
    for i, (row, c) in enumerate(zip(reduced, cols)):
        if any(row[:c]) or row[c] != d:
            return False
        if any(other[c] for k, other in enumerate(reduced) if k != i):
            return False
    return all(0 <= v < q for row in reduced for v in row)


def test_rref_over_gf_q_against_minor_oracle():
    rng = random.Random(71)
    for q in (2, 3, 5, 7):
        for _ in range(40):
            m, n = rng.randrange(1, 5), rng.randrange(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            reduced, cols, pivots = rref(rows, q)
            rank = rank_by_minors(q, rows)
            assert len(cols) == len(pivots) == len(reduced) == rank
            assert all(0 < pv < q for pv in pivots)
            # one scale in both fields: every pivot entry is the last pivot
            assert _is_reduced(reduced, cols, q, pivots[-1] % q if pivots else 1)
            # the reduced rows lie in the input's row space
            assert rank_by_minors(q, [[v % q for v in r] for r in rows] + reduced) == rank


def test_rref_over_q_reduces_to_rref_mod_q():
    # outside the primes dividing a pivot, elimination commutes with reduction
    # mod q, entry by entry at the one scale: build_certificate's special set
    # B rests on this
    rng = random.Random(73)
    checked = 0
    for _ in range(150):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        reduced, cols, pivots = rref(rows)
        assert all(type(v) is int for row in reduced for v in row)
        d = pivots[-1] if pivots else 1
        assert all(row[c] == d for row, c in zip(reduced, cols))
        for q in (2, 3, 5, 7, 11, 13):
            if any(pv % q == 0 for pv in pivots):
                continue
            want = [[v % q for v in row] for row in reduced]
            assert rref(rows, q) == (want, cols, [pv % q for pv in pivots])
            checked += 1
    assert checked > 500


def test_rref_over_q_entries_are_minors():
    # d times the reduced form, d the last pivot: by Cramer's rule each entry
    # is +-det of the pivot columns with column k swapped for column j, over
    # any rows whose pivot-column minor is +-d.  build_certificate's int64
    # bound rests on this.  M exceeds every minor here, so equality mod M is
    # equality.
    M = (1 << 61) - 1
    rng = random.Random(79)
    checked = 0
    for _ in range(80):
        m, n = rng.randrange(1, 6), rng.randrange(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        reduced, cols, pivots = rref(rows)
        if not cols:
            continue

        def minor(R, C):
            return det_cofactor(M, [[rows[i][j] for j in C] for i in R])

        d = pivots[-1]
        R = next(
            R for R in itertools.combinations(range(m), len(cols))
            if minor(R, cols) in (d % M, -d % M)
        )
        sign = 1 if minor(R, cols) == d % M else -1
        for k, row in enumerate(reduced):
            for j, v in enumerate(row):
                swapped = cols[:k] + [j] + cols[k + 1 :]
                assert v % M == sign * minor(R, swapped) % M, (rows, k, j)
                checked += 1
    assert checked > 500


def test_rref_known_values():
    reduced, cols, pivots = rref([[2, 4, 2], [1, 3, 4], [3, 7, 6]])
    assert cols == [0, 1] and pivots == [2, 2]
    assert reduced == [[2, 0, -10], [0, 2, 6]]
    assert [[Fraction(v, pivots[-1]) for v in row] for row in reduced] == [[1, 0, -5], [0, 1, 3]]
    assert rref([[2, 4, 2], [1, 3, 4], [3, 7, 6]], 2) == ([[1, 1, 0]], [0], [1])
    assert rref([[0, 0], [0, 0]]) == ([], [], [])


# the closed-form spike determinant ------------------------------------------


def test_spike_det_exhaustive_small():
    for p in (2, 3):
        f = PrimeField(p)
        for n in range(1, 5):
            for x in itertools.product(range(1, p), repeat=n):
                assert spike_det(f, x) == ones_plus_diag(f, x).det()


def test_spike_det_random_larger():
    rng = random.Random(59)
    for p in (5, 7, 11):
        f = PrimeField(p)
        for _ in range(60):
            n = rng.randrange(1, 8)
            x = tuple(rng.randrange(1, p) for _ in range(n))
            assert spike_det(f, x) == ones_plus_diag(f, x).det()


def test_spike_det_zero_entry_rejected():
    with pytest.raises(ZeroEntryError):
        spike_det(PrimeField(5), (1, 0, 2))


def test_verify_det_identity_report():
    report = verify_det_identity(5, n_max=6, samples=120, seed=7)
    assert report["p"] == 5
    assert report["checked"] == 120
    assert report["failures"] == []
    assert "ms" not in report
    # same seed, same outcome
    assert report == verify_det_identity(5, n_max=6, samples=120, seed=7)


@pytest.mark.parametrize("n_max, samples", [(0, 10), (-2, 10), (3, -1)])
def test_verify_det_identity_rejects_bad_sizes(n_max, samples):
    with pytest.raises(TooSmallError):
        verify_det_identity(5, n_max=n_max, samples=samples)


@pytest.mark.parametrize(
    "n_max, samples",
    [(DETCHECK_MAX_N + 1, 1), (DETCHECK_MAX_N, DETCHECK_MAX_SAMPLES + 1)],
)
def test_verify_det_identity_refuses_past_its_caps(monkeypatch, n_max, samples):
    def no_elimination(self):
        raise AssertionError("a refused check must not eliminate")

    monkeypatch.setattr(MatrixGF, "det", no_elimination)
    with pytest.raises(TooLargeError):
        verify_det_identity(5, n_max=n_max, samples=samples)
