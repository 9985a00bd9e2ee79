from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from spikelab import (
    Diagonal,
    MatrixGF,
    MismatchedShapeError,
    NonSquareError,
    PrimeField,
    TooLargeError,
    TooSmallError,
    ZeroEntryError,
    build_certificate,
    build_rep,
    check_axioms,
    ones_plus_diag,
    signature,
    spike_det,
    verify_det_identity,
)
from spikelab import matrix
from spikelab.matrix import DETCHECK_MAX_N, DETCHECK_MAX_SAMPLES, rref

from oracles import (
    det_cofactor,
    det_identity_per_sample,
    echelon_by_rows,
    random_matrix,
    rank_by_minors,
    rref_by_rows,
)


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


# the stacked elimination against the row-by-row reference --------------------

# 2^29 - 3 and 2^31 - 1 are prime; the kernel admits any q below 2^31
_MODULI = (None, 2, 3, 5, 13, (1 << 29) - 3, (1 << 31) - 1)


def _drawn_matrix(rng: random.Random, r: int, c: int) -> list[list[int]]:
    """Small integer entries, often zero, and now and then a singular shape:
    an all-zero matrix, zero rows, or a row that combines two others."""
    rows = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(c)] for _ in range(r)]
    kind = rng.random()
    if kind < 0.15:
        rows = [[0] * c for _ in range(r)]
    elif kind < 0.3:
        rows[rng.randrange(r)] = [0] * c
    elif kind < 0.5 and r > 2:
        i, j, k = rng.sample(range(r), 3)
        rows[k] = [a - 2 * b for a, b in zip(rows[i], rows[j])]
    return rows


def _per_matrix(out, b: int):
    rows, rank, cols, pivots, sign = out
    k = int(rank[b])
    assert not rows[b, k:].any(), "rows below the rank are zero"
    return rows[b, :k].tolist(), cols[b, :k].tolist(), pivots[b, :k].tolist(), int(sign[b])


def test_stacked_echelon_and_rref_match_the_row_oracle_matrix_by_matrix():
    rng = random.Random(401)
    seen = set()
    for _ in range(300):
        q = rng.choice(_MODULI)
        r, c, B = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 12)
        stack = [_drawn_matrix(rng, r, c) for _ in range(B)]
        out = matrix._echelon(stack, q)
        reduced = matrix._rref(stack, q)
        seen.add((B >= matrix._MASKED_MIN, len(set(out[1].tolist())) > 1))
        for b, rows in enumerate(stack):
            assert _per_matrix(out, b) == echelon_by_rows(rows, q), (q, rows)
            assert _per_matrix((*reduced, out[4]), b)[:3] == rref_by_rows(rows, q), (q, rows)
    # small and large stacks, each with ranks that part and with one shared rank
    assert len(seen) == 4


def test_zero_rows_below_the_real_ones_change_nothing():
    rng = random.Random(409)
    for _ in range(150):
        q = rng.choice(_MODULI)
        r, c, B = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 12)
        stack = [_drawn_matrix(rng, r, c) for _ in range(B)]
        pad = rng.randint(1, 4)
        padded = [rows + [[0] * c for _ in range(pad)] for rows in stack]
        out, wide = matrix._echelon(stack, q), matrix._echelon(padded, q)
        for b in range(B):
            assert _per_matrix(wide, b) == _per_matrix(out, b)


def test_rref_matches_the_row_oracle():
    rng = random.Random(419)
    for _ in range(300):
        q = rng.choice(_MODULI)
        rows = _drawn_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rref(rows, q) == rref_by_rows(rows, q), (q, rows)
    # certificate-sized systems: one row of 0/1 coefficients and -1 per member
    for _ in range(20):
        n = rng.randint(6, 10)
        members = rng.sample(range(1, 1 << n), rng.randint(n, 3 * n))
        rows = [[m >> i & 1 for i in range(n - 1, -1, -1)] + [-1] for m in members]
        for q in (None, 2, 3, 7, 13):
            assert rref(rows, q) == rref_by_rows(rows, q)


def test_int64_guard_refuses_at_its_edge(monkeypatch):
    def no_step(*args):
        raise AssertionError("a refused stack must not be eliminated")

    # over Z: (k + 1) N^(2k) < 2^63, N the largest row norm; here k = 2 and
    # N = a, so the edge lies between a = 41000 and a = 42000
    a = 41000
    assert rref([[a, 0], [0, a]]) == ([[a * a, 0], [0, a * a]], [0, 1], [a, a * a])
    monkeypatch.setattr(matrix, "_bareiss_step", no_step)
    with pytest.raises(TooLargeError):
        rref([[42000, 0], [0, 42000]])
    # one matrix past the bound refuses its whole stack
    with pytest.raises(TooLargeError):
        matrix._echelon([[[1, 0], [0, 1]], [[42000, 0], [0, 42000]]])
    with pytest.raises(TooLargeError):
        rref([[1 << 70]])
    # mod q: residues below 2^31 multiply within int64
    with pytest.raises(TooLargeError):
        rref([[1, 2], [3, 4]], 1 << 31)
    monkeypatch.undo()
    assert rref([[1, 2], [3, 4]], (1 << 31) - 1)[1] == [0, 1]


def test_verify_det_identity_matches_the_per_sample_loop(monkeypatch):
    rng = random.Random(431)
    cases = [(rng.choice((2, 3, 5, 11, 13, 65521)), rng.randint(1, DETCHECK_MAX_N),
              rng.randint(0, 300), rng.randrange(1000)) for _ in range(12)]
    for p, n_max, samples, seed in cases:
        want = det_identity_per_sample(p, n_max, samples, seed, spike_det)
        assert verify_det_identity(p, n_max, samples, seed) == want

    def faulty(field, x):
        # wrong exactly when the diagonal has a 1 in it
        return (spike_det(field, x) + (1 in x)) % field.p

    monkeypatch.setattr(matrix, "spike_det", faulty)
    for p, n_max, samples, seed in cases:
        want = det_identity_per_sample(p, n_max, samples, seed, faulty)
        assert verify_det_identity(p, n_max, samples, seed) == want
    assert any(det_identity_per_sample(*case, faulty)["failures"] for case in cases)


def test_every_elimination_runs_on_the_stacked_kernel(monkeypatch):
    def no_elimination(*args):
        raise RuntimeError("eliminated")

    monkeypatch.setattr(matrix, "_echelon", no_elimination)
    M = MatrixGF(PrimeField(5), [[1, 2], [3, 4]])
    d = Diagonal(PrimeField(5), (1, 2, 3, 4))
    calls = [
        M.rank,
        M.det,
        lambda: rref([[1, 2], [3, 4]]),
        lambda: check_axioms(build_rep(d)),
        lambda: verify_det_identity(5, 4, 10, 1),
        lambda: build_certificate(signature(d)),
    ]
    for call in calls:
        with pytest.raises(RuntimeError, match="eliminated"):
            call()


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
    def no_elimination(*args):
        raise AssertionError("a refused check must not eliminate")

    monkeypatch.setattr(matrix, "_echelon", no_elimination)
    with pytest.raises(TooLargeError):
        verify_det_identity(5, n_max=n_max, samples=samples)
