"""Acceptance gates: eleven end-to-end criteria, each with a wall-clock budget.

Every criterion is a single test that prints one PASS/FAIL line (visible with
``pytest -v`` as the test verdict, and on stdout under ``-s``).  All checks
are exact; the only tolerances are the per-criterion time budgets.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
import time

import pytest

from spikelab import (
    Diagonal,
    MatrixGF,
    PrimeField,
    build_rep,
    characteristic_set,
    check_axioms,
    circuit_hyperplane,
    construct_char_only,
    construct_multichar,
    estimate_L,
    normalize,
    search_rep,
    signature,
    swap,
    uniqueness_audit,
    verify_det_identity,
    verify_lemma_2_1,
    verify_lemma_2_2,
)
from spikelab.cli import main as cli_main
from spikelab.represent import _LATTICE_CAP

from oracles import bases_bruteforce, is_circuit, signature_by_rank, transversal_matrix


@contextlib.contextmanager
def gate(num: int, budget_s: float, title: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        print(f"criterion {num:2d} FAIL ({elapsed:7.2f}s / {budget_s:.0f}s): {title}")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget_s
    print(
        f"criterion {num:2d} {'PASS' if ok else 'FAIL'} "
        f"({elapsed:7.2f}s / {budget_s:.0f}s): {title}"
    )
    assert ok, f"criterion {num} blew its {budget_s:.0f}s budget: {elapsed:.2f}s"


def test_c01_determinant_identity():
    with gate(1, 5, "closed-form determinant == elimination, 500 samples per field"):
        for p in (3, 5, 7, 11):
            report = verify_det_identity(p, n_max=7, samples=500, seed=p)
            assert report["checked"] == 500
            assert report["failures"] == []


def test_c02_nonzero_subset_sums_exhaustive():
    with gate(2, 60, "every nonzero target hit by a subset, exhaustive"):
        for p, n in ((3, 2), (5, 4), (7, 6)):
            report = verify_lemma_2_1(p, n)
            assert report["checked"] == (p - 1) ** n * (p - 1)
            assert report["failures"] == []


def test_c03_zero_sum_subsets_exhaustive():
    with gate(3, 60, "every long-enough tuple has a zero-sum subset, exhaustive"):
        for p, n in ((3, 3), (5, 5), (7, 7)):
            report = verify_lemma_2_2(p, n)
            assert report["checked"] == p**n
            assert report["failures"] == []


def test_c04_signature_matches_rank_oracle():
    with gate(4, 60, "sum criterion == rank oracle; members are circuit-hyperplanes"):
        def check(d: Diagonal) -> None:
            sig = signature(d)
            assert sig.bits == signature_by_rank(d)
            for mask in sig.members():
                labels = circuit_hyperplane(d, mask)
                assert len(labels) == d.n
                M = transversal_matrix(d, mask)
                assert M.rank() == d.n - 1
                assert is_circuit(M)

        for n in range(3, 6):  # exhaustive over GF(3)
            for x in itertools.product((1, 2), repeat=n):
                check(Diagonal(PrimeField(3), x))
        rng = random.Random(404)
        for _ in range(100):  # sampled over GF(5), GF(7)
            p = rng.choice((5, 7))
            n = rng.randrange(3, 9)
            check(Diagonal(PrimeField(p), tuple(rng.randrange(1, p) for _ in range(n))))


def test_c05_swap_calculus():
    with gate(5, 30, "swap involution, transform law, equivariance; normalize pins -1"):
        def check_swap(d: Diagonal, smask: int) -> None:
            sig = signature(d)
            y = swap(d, smask)
            assert swap(y, smask) == d
            assert signature(y) == sig.xor_transform(smask)

        for n in range(3, 6):  # exhaustive over GF(3)
            for x in itertools.product((1, 2), repeat=n):
                d = Diagonal(PrimeField(3), x)
                sig = signature(d)
                if sig.bits:
                    assert normalize(d).x[0] == 2
                for smask in range(1, 1 << n):
                    if smask not in sig:
                        check_swap(d, smask)

        rng = random.Random(505)
        done = 0
        while done < 500:
            p = rng.choice((3, 5, 7))
            n = rng.randrange(2, 8)
            d = Diagonal(PrimeField(p), tuple(rng.randrange(1, p) for _ in range(n)))
            sig = signature(d)
            smask = rng.randrange(1, 1 << n)
            if smask in sig:
                continue
            check_swap(d, smask)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            dp = Diagonal(d.field, tuple(d.x[perm.index(i + 1)] for i in range(n)))
            pmask = sum(1 << (perm[i] - 1) for i in range(n) if smask >> i & 1)
            lhs = swap(dp, pmask)
            rhs = swap(d, smask)
            assert lhs.x == tuple(rhs.x[perm.index(i + 1)] for i in range(n))
            if sig.bits:
                assert normalize(d).x[0] == p - 1
            done += 1


def test_c06_signature_map_injective():
    with gate(6, 120, "signature map injective at (3,5), (3,6), (5,9)"):
        for p, n in ((3, 5), (3, 6), (5, 9)):
            report = uniqueness_audit(p, n)
            assert report["diagonals"] == (p - 1) ** n
            assert report["collisions"] == 0
            assert report["distinct_signatures"] == (p - 1) ** n


def test_c07_characteristic_restriction():
    with gate(7, 180, "no cross-characteristic representations past the threshold"):
        for x in itertools.product((1, 2), repeat=5):  # exhaustive GF(3), n=5
            sig = signature(Diagonal(PrimeField(3), x))
            for q in (2, 5, 7, 11, 13):
                witness, _ = search_rep(sig, q)
                assert witness is None, (x, q)
        for n in (4, 5):  # GF(2): the all-ones diagonal is the only one
            sig = signature(Diagonal(PrimeField(2), (1,) * n))
            for q in (3, 5, 7):
                witness, _ = search_rep(sig, q)
                assert witness is None, (n, q)
        rng = random.Random(905)  # GF(5), n=9, sampled
        for _ in range(50):
            d = Diagonal(PrimeField(5), tuple(rng.randrange(1, 5) for _ in range(9)))
            sig = signature(d)
            for q in (2, 3, 7, 11, 13):
                witness, _ = search_rep(sig, q)
                assert witness is None, (d.x, q)


def test_c08_integer_matrix_sharpness():
    with gate(8, 30, "one integer matrix, identical bases over p and the next two primes"):
        for p, qs in ((3, (3, 5, 7)), (5, (5, 7, 11))):
            c = construct_multichar(p)
            assert c.n == 2 * p - 2
            families = []
            for q in qs:
                M = MatrixGF(PrimeField(q), c.rep_rows())
                assert check_axioms(build_rep(c.over(q)))
                families.append(bases_bruteforce(M))
            assert families[0] == families[1] == families[2]


def test_c09_characteristic_only_construction():
    with gate(9, 60, "certificate pins the characteristic set to exactly {p}"):
        for p in (3, 5, 7):
            d = construct_char_only(p).over(p)
            report = characteristic_set(d, [2, 3, 5, 7, 11, 13])
            cert = report["certificate"]
            assert cert is not None
            assert cert["kind"] == "finite"
            assert cert["admissible_primes"] == [p]
            sig = signature(d)
            for v in report["verdicts"]:
                # every prime is decided by the lattice, with no handover
                assert search_rep(sig, v["q"])[1] <= _LATTICE_CAP
                assert v["representable"] == ("yes" if v["q"] == p else "no")


def test_c10_threshold_experiment():
    with gate(10, 180, "least single-characteristic spike size lands in the interval"):
        r2 = estimate_L(2, [2, 3, 5, 7], 4)
        assert r2["found_n"] == 3
        assert r2["certificate"] is not None
        assert r2["witness"] is not None

        r3 = estimate_L(3, [2, 3, 5, 7], 4)
        assert r3["interval"] == [3, 4]
        assert 3 <= r3["found_n"] <= 4
        assert r3["certificate"] is not None

        r5 = estimate_L(5, [2, 3, 5, 7], 5)
        assert r5["interval"] == [3, 5]
        assert 3 <= r5["found_n"] <= 5
        assert r5["certificate"] is not None


CLI_RUNS = [
    ["axioms", "--diag", "p=3;x=1,1,1"],
    ["signature", "--diag", "p=3;x=2,2,1,1"],
    ["normalize", "--diag", "p=3;x=1,1,1"],
    ["canonical", "--diag", "p=3;x=2,2,2"],
    ["enumerate", "--p", "3", "--n", "4"],
    ["lemma21", "--p", "5", "--n", "4"],
    ["lemma22", "--p", "5", "--n", "5"],
    ["detcheck", "--p", "11", "--n-max", "7", "--samples", "500", "--seed", "11"],
    ["unique", "--p", "3", "--n", "6"],
    ["transfer", "--diag", "p=3;x=2,2,2,1", "--q", "5"],
    ["charset", "--diag", "p=3;x=2,2,1,1", "--primes", "2,5,7,11,13"],
    ["construct", "prop41", "--p", "5", "--q", "7"],
    ["construct", "prop43", "--p", "7"],
    ["lbound", "--p", "3", "--primes", "2,3,5,7", "--n-max", "4"],
]


def test_c11_cli_determinism(tmp_path):
    with gate(11, 120, "byte-identical verdict payloads on repeated runs"):
        for i, argv in enumerate(CLI_RUNS):
            paths = [tmp_path / f"run{i}_{j}.json" for j in (0, 1)]
            payloads = []
            for path in paths:
                code = cli_main([*argv, "--output", str(path)])
                assert code == 0, argv
                doc = json.loads(path.read_text())
                payloads.append(
                    json.dumps(doc["result"], indent=2, sort_keys=False).encode()
                )
            assert payloads[0] == payloads[1], argv
