from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from spikelab import (
    BudgetExceededError,
    NoWitnessError,
    OutOfRangeError,
    PrimeField,
    TooSmallError,
    VerdictMismatchError,
    ZeroEntryError,
    spikes,
    subset_with_sum,
    verify_lemma_2_1,
    verify_lemma_2_2,
    zero_sum_subset,
    zerosum,
)
from spikelab.cli import main

from oracles import least_mask_subset_sum, sweep_by_product


def _mask(indices: tuple[int, ...]) -> int:
    return sum(1 << (i - 1) for i in indices)


def test_witness_format_and_value():
    a = (2, 3, 1)
    w = subset_with_sum(PrimeField(5), a, 4)
    assert w == tuple(sorted(w))
    assert all(1 <= i <= 3 for i in w)
    assert sum(a[i - 1] for i in w) % 5 == 4


def test_least_bitmask_witness_exhaustive():
    # the returned witness must be the minimum-bitmask one, every time
    for p in (3, 5):
        f = PrimeField(p)
        for n in range(1, 6):
            for a in itertools.product(range(1, p), repeat=n):
                for k in range(1, p):
                    want = least_mask_subset_sum(p, a, k)
                    if want is None:
                        with pytest.raises(NoWitnessError):
                            subset_with_sum(f, a, k)
                    else:
                        got = subset_with_sum(f, a, k)
                        assert _mask(got) == want, (p, a, k)


def test_least_bitmask_witness_sampled_gf7():
    rng = random.Random(211)
    f = PrimeField(7)
    for _ in range(300):
        n = rng.randrange(1, 9)
        a = tuple(rng.randrange(1, 7) for _ in range(n))
        k = rng.randrange(1, 7)
        want = least_mask_subset_sum(7, a, k)
        if want is None:
            with pytest.raises(NoWitnessError):
                subset_with_sum(f, a, k)
        else:
            assert _mask(subset_with_sum(f, a, k)) == want


def test_zero_sum_subset_allows_zero_entries_in_input():
    # zero-sum variant takes arbitrary residues; a zero entry is itself a witness
    f = PrimeField(5)
    assert zero_sum_subset(f, (3, 0, 2)) == (2,)


def test_zero_sum_subset_matches_oracle():
    rng = random.Random(223)
    f = PrimeField(7)
    for _ in range(200):
        n = rng.randrange(1, 9)
        a = tuple(rng.randrange(7) for _ in range(n))
        want = least_mask_subset_sum(7, a, 0)
        if want is None:
            with pytest.raises(NoWitnessError):
                zero_sum_subset(f, a)
        else:
            assert _mask(zero_sum_subset(f, a)) == want


def test_subset_with_sum_input_contract():
    f = PrimeField(5)
    with pytest.raises(ZeroEntryError):
        subset_with_sum(f, (1, 0, 2), 3)
    with pytest.raises(ZeroEntryError):
        subset_with_sum(f, (1, 5, 2), 3)  # 5 is zero mod 5
    with pytest.raises(OutOfRangeError):
        subset_with_sum(f, (1, 2), 0)
    with pytest.raises(OutOfRangeError):
        subset_with_sum(f, (1, 2), 10)  # 10 is zero mod 5


def test_tightness_below_guarantee():
    # p-2 ones cannot reach p-1: the length bound in the guarantee is sharp
    f = PrimeField(5)
    with pytest.raises(NoWitnessError):
        subset_with_sum(f, (1, 1, 1), 4)


def test_verify_nonzero_targets_small():
    for p, n in ((3, 2), (3, 4), (5, 4)):
        report = verify_lemma_2_1(p, n)
        assert report["lemma"] == "2.1"
        assert report["p"] == p and report["n"] == n
        assert report["checked"] == (p - 1) ** n * (p - 1)
        assert report["failures"] == []


def test_verify_zero_sum_small():
    for p, n in ((3, 3), (3, 5), (5, 5)):
        report = verify_lemma_2_2(p, n)
        assert report["lemma"] == "2.2"
        assert report["checked"] == p**n
        assert report["failures"] == []


def test_verify_length_requirements():
    with pytest.raises(TooSmallError):
        verify_lemma_2_1(5, 3)  # needs n >= p-1
    with pytest.raises(TooSmallError):
        verify_lemma_2_2(5, 4)  # needs n >= p


def test_verify_budget(monkeypatch, capsys):
    # the first over-cap sizes at p = 7 are refused before any tuple is swept
    def no_sweep(*args):
        raise AssertionError("a refused size must not sweep")

    monkeypatch.setattr(zerosum, "_sweep", no_sweep)
    # C(24, 19) * 19 * 7 and C(25, 20) * 20 * 7 register steps
    for p, n in ((7, 19), (7, 20)):
        with pytest.raises(BudgetExceededError):
            verify_lemma_2_1(p, n)
    with pytest.raises(BudgetExceededError):
        verify_lemma_2_2(7, 19)  # C(25, 19) * 19 * 2 register steps
    assert main(["lemma22", "--p", "7", "--n", "19"]) == 3
    assert capsys.readouterr().err == (
        "error: lemma 2.2 at p=7, n=19 exceeds the budget of 5000000 register steps\n"
    )


# per (lemma, p < 7): the largest admitted n, and the first refused one, at 5 * 10^6
# register steps, C(p - low + n - 1, n) sorted tuples times n * (1 + T); the admitted
# sizes take 0.03-0.12 s on a 2-core VM, and 70 MB at most (the one 2.5M-entry tuple)
BUDGET_EDGES = [
    ("2.1", 2, 2500000, 2500001),  # one sorted tuple, n * 2 steps
    ("2.1", 3, 1290, 1291), ("2.1", 5, 48, 49),
    ("2.2", 2, 1580, 1581), ("2.2", 3, 169, 170), ("2.2", 5, 33, 34),
]


@pytest.mark.parametrize("lemma, p, admitted, refused", BUDGET_EDGES)
def test_verify_budget_edge_in_register_steps(monkeypatch, lemma, p, admitted, refused):
    calls = []
    monkeypatch.setattr(zerosum, "_sweep", lambda *args: calls.append(args[:3]))
    verify = verify_lemma_2_1 if lemma == "2.1" else verify_lemma_2_2
    verify(p, admitted)
    assert calls == [(lemma, p, admitted)]
    with pytest.raises(BudgetExceededError):
        verify(p, refused)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["lemma21", "--p", "1009", "--n", "2000"],
        ["lemma22", "--p", "65521", "--n", "65521"],
        ["lemma21", "--p", "2", "--n", "1000000000"],
    ],
)
def test_huge_sweeps_exit_3_with_one_line(monkeypatch, capsys, argv):
    # the refusal never writes out the sweep's cost, which can run past
    # Python's 4300-digit limit on integer to string conversion
    def no_sweep(*args):
        raise AssertionError("a refused size must not sweep")

    monkeypatch.setattr(zerosum, "_sweep", no_sweep)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: lemma 2.")
    assert captured.err.endswith("exceeds the budget of 5000000 register steps\n")
    assert captured.err.count("\n") == 1


def test_verify_budget_admits_largest_p7_sweeps(monkeypatch):
    # C(23, 18) * 18 * 7 and C(24, 18) * 18 * 2 register steps fit, and so does
    # n = 9, the largest size the budget admitted in tuples of the product
    calls = []

    def record(*args):
        calls.append(args[:3])
        return {}

    monkeypatch.setattr(zerosum, "_sweep", record)
    for n in (9, 18):
        verify_lemma_2_1(7, n)
        verify_lemma_2_2(7, n)
    assert calls == [("2.1", 7, 9), ("2.2", 7, 9), ("2.1", 7, 18), ("2.2", 7, 18)]


def test_checked_prints_at_every_admitted_size():
    # checked is (p - low)^n * T; at the largest admitted n of each lemma and
    # prime it stays within Python's 4300-digit limit on int to str conversion
    for lemma in ("2.1", "2.2"):
        for p in (2, 3, 5, 7, 11, 13):  # from p = 11 on, the least n is refused
            n = _largest_admitted(lemma, p)
            if n is not None:
                _, _, _, low, targets = _sweep_args(lemma, p, n)
                assert len(str((p - low) ** n * len(targets))) < 4300, (lemma, p, n)


def _largest_admitted(lemma: str, p: int) -> int | None:
    """The largest n the budget admits, by doubling and bisection on refusals."""

    def admits(n: int) -> bool:
        _, _, _, low, targets = _sweep_args(lemma, p, n)
        try:
            zerosum._check_budget(lemma, p, n, low, len(targets))
        except BudgetExceededError:
            return False
        return True

    n = p - 1 if lemma == "2.1" else p  # the least n the hypothesis admits
    if not admits(n):
        return None
    hi = n + 1
    while admits(hi):
        n, hi = hi, 2 * hi
    while hi - n > 1:
        mid = (n + hi) // 2
        n, hi = (mid, hi) if admits(mid) else (n, mid)
    return n


SWEEP_GRID = [
    ("2.1", 2, 1), ("2.1", 2, 4), ("2.1", 3, 2), ("2.1", 3, 4), ("2.1", 5, 4), ("2.1", 5, 5),
    ("2.2", 2, 2), ("2.2", 3, 3), ("2.2", 3, 5), ("2.2", 5, 5), ("2.2", 5, 6),
    # below the hypothesis, where failures are real and their order shows
    ("2.1", 5, 2), ("2.1", 5, 3), ("2.1", 7, 5), ("2.2", 5, 3), ("2.2", 7, 4),
]


def _sweep_args(lemma: str, p: int, n: int) -> tuple:
    return (lemma, p, n) + ((1, range(1, p)) if lemma == "2.1" else (0, (0,)))


def _same_json(report: dict, want: dict) -> None:
    assert json.dumps(report) == json.dumps(want)


@pytest.mark.parametrize("lemma, p, n", SWEEP_GRID)
def test_sweep_matches_scalar_loop(lemma, p, n):
    args = _sweep_args(lemma, p, n)
    _same_json(zerosum._sweep(*args), sweep_by_product(*args))


def _counted_kernel_runs(monkeypatch) -> list:
    runs = []
    real = zerosum._reach_history

    def counted(p, a, targets):
        runs.append(list(map(tuple, a.tolist())))
        return real(p, a, targets)

    monkeypatch.setattr(zerosum, "_reach_history", counted)
    return runs


def test_sweep_runs_the_kernel_once_per_level(monkeypatch):
    runs = _counted_kernel_runs(monkeypatch)
    report = verify_lemma_2_2(5, 8)
    assert report["checked"] == 5**8 and report["failures"] == []
    # one run over all C(12, 8) = 495 sorted tuples
    assert runs == [list(itertools.combinations_with_replacement(range(5), 8))]


@pytest.mark.parametrize("p, n", [(2, 6), (3, 5), (5, 8), (7, 9)])
def test_lemma22_kernel_stops_once_every_register_holds_zero(monkeypatch, p, n):
    # any p entries have a zero-sum subset, so the level's one run stops at
    # step p though the all-zero tuple's register never fills; the all-ones
    # tuple first reaches zero there
    steps = []
    real = zerosum._reach_history

    def counted(p, a, targets):
        layers, final = real(p, a, targets)
        steps.append(len(layers))
        return layers, final

    monkeypatch.setattr(zerosum, "_reach_history", counted)
    assert verify_lemma_2_2(p, n)["failures"] == []
    assert steps == [p]


def test_sweep_runs_the_kernel_once_more_per_failing_tuple(monkeypatch):
    # below the hypothesis: each failing sorted tuple runs its distinct
    # arrangements at once, after the one run over the level
    runs = _counted_kernel_runs(monkeypatch)
    report = zerosum._sweep(*_sweep_args("2.1", 5, 3))
    level = list(itertools.combinations_with_replacement(range(1, 5), 3))
    failing = sorted({tuple(sorted(f["a"])) for f in report["failures"]})
    assert runs == [level] + [list(zerosum._distinct_arrangements(s)) for s in failing]
    assert len(failing) == 8 and len(runs) == 9


def test_failing_tuples_expand_into_their_distinct_arrangements():
    # lexicographic order, one tuple per arrangement: the expansion never
    # walks all n! orders of a tuple with repeated entries
    for n in range(6):
        for s in itertools.combinations_with_replacement(range(3), n):
            got = list(zerosum._distinct_arrangements(s))
            assert got == sorted(set(itertools.permutations(s))), s
            assert len(got) == spikes._arrangements(s)


def test_arrangement_counts_that_miss_the_product_exit_1(monkeypatch, capsys):
    # the counts must add up to (p - low)^n, or the sweep checked other tuples
    real = zerosum._arrangement_counts

    def overcount(multisets, *bounds):
        # (0, 1, 2) is the one sorted tuple with three distinct entries
        counts, patterns = real(multisets, *bounds)
        counts[patterns[multisets.tolist().index([0, 1, 2])]] += 1
        return counts, patterns

    monkeypatch.setattr(zerosum, "_arrangement_counts", overcount)
    with pytest.raises(VerdictMismatchError, match=r"arrangement counts add up to 28, not 3\^3"):
        verify_lemma_2_2(3, 3)
    assert main(["lemma22", "--p", "3", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: arrangement counts add up to 28, not 3^3\n"


def test_least_bitmask_witness_past_a_machine_word():
    # GF(65521): the register is one 65521-bit Python int
    rng = random.Random(65521)
    f = PrimeField(65521)
    for _ in range(20):
        a = tuple(rng.randrange(1, 65521) for _ in range(rng.randrange(1, 11)))
        sums = [sum(a[i] for i in range(len(a)) if mask >> i & 1) % 65521
                for mask in range(1, 1 << len(a))]
        for k in rng.sample(sums, min(3, len(sums))) + [rng.randrange(1, 65521)]:
            want = least_mask_subset_sum(65521, a, k)
            if want is None:
                with pytest.raises(NoWitnessError):
                    subset_with_sum(f, a, k)
            else:
                assert _mask(subset_with_sum(f, a, k)) == want, (a, k)


def test_one_row_sweep_runs_on_its_head(capsys):
    # p = 2 has one nonzero residue, so the sweep runs the kernel on one sorted tuple
    assert main(["lemma21", "--p", "2", "--n", "300"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["checked"] == 1 and result["failures"] == []
    # the register stops once it holds the target, one step in, or once it
    # is full, two steps in
    ones = np.ones((1, 300), dtype=np.uint8)
    layers, final = zerosum._reach_history(2, ones, (1,))
    assert (layers.tolist(), final.tolist()) == ([[0b10]], [0b10])
    layers, final = zerosum._reach_history(2, ones, (0, 1))
    assert (layers.tolist(), final.tolist()) == ([[0b10], [0b01]], [0b11])
    # 299 is first reached at step 299, and the walk takes all 299 steps
    assert subset_with_sum(PrimeField(1009), (1,) * 300, 299) == tuple(range(1, 300))


def test_solvers_reduce_inputs_mod_p():
    f = PrimeField(5)
    assert subset_with_sum(f, (7, -1, 12), 9) == subset_with_sum(f, (2, 4, 2), 4)
    assert zero_sum_subset(f, (7, -1, 13)) == zero_sum_subset(f, (2, 4, 3)) == (1, 3)


def _wrong_witness(p, a, layers, targets):
    # every witness is step 1, which sums to a[0] whatever the target
    steps = np.zeros((len(layers), len(a), len(targets)), dtype=bool)
    steps[0] = True
    return steps


def _drop_final_bits(mask):
    real = zerosum._reach_history

    def dropped(*args):
        layers, final = real(*args)
        return layers, final & ~np.uint64(mask)

    return dropped


def test_sweep_reports_witness_that_fails_to_resum(monkeypatch):
    # the fault acts on sorted tuples: a failing (sorted tuple, target) lists
    # those of its arrangements that fail on their own run
    monkeypatch.setattr(zerosum, "_witnesses", _wrong_witness)
    report = verify_lemma_2_1(3, 2)
    assert report["checked"] == 8
    assert report["failures"] == [
        {"a": [1, 1], "k": 2, "witness": [1]},
        {"a": [1, 2], "k": 2, "witness": [1]},  # (2, 1) re-sums to 2 at k = 2
        {"a": [2, 2], "k": 1, "witness": [1]},  # sorted (1, 2) passes at k = 1
    ]
    report = verify_lemma_2_2(3, 3)
    assert report["checked"] == 27
    # a sorted tuple with a zero starts with it, so only the zero-free ones fail
    assert report["failures"] == [
        {"a": list(a), "k": 0, "witness": [1]} for a in itertools.product((1, 2), repeat=3)
    ]


def test_corrupt_history_fails_the_resum_instead_of_looping(monkeypatch):
    # 4 enters at step 3, but the residue left after it, 1, is in no layer
    # below: each layer is read once, and the part witness does not re-sum
    layers = np.array([[0b00001], [0b00100], [0b00000], [0b10000]], dtype=np.uint64)
    history = (layers, np.array([0b11111], dtype=np.uint64))
    monkeypatch.setattr(zerosum, "_reach_history", lambda p, a, targets: history)
    with pytest.raises(VerdictMismatchError, match=r"witness \(4,\) of \(1, 2, 3, 3\) does not"):
        subset_with_sum(PrimeField(5), (1, 2, 3, 3), 4)
    # a register that claims zero with no layer holding it walks to no step at
    # all, and the empty set is no witness, though it sums to zero
    history = (np.array([[0b110]], dtype=np.uint64), np.array([0b111], dtype=np.uint64))
    monkeypatch.setattr(zerosum, "_reach_history", lambda p, a, targets: history)
    with pytest.raises(VerdictMismatchError, match=r"witness \(\) of \(1,\) does not re-sum to 0"):
        zero_sum_subset(PrimeField(3), (1,))


def test_solver_witness_that_fails_to_resum_raises(monkeypatch):
    monkeypatch.setattr(zerosum, "_witnesses", _wrong_witness)
    with pytest.raises(VerdictMismatchError, match=r"witness \(1,\) of \(1, 2, 3\) does not re-sum"):
        subset_with_sum(PrimeField(5), (1, 2, 3), 4)
    with pytest.raises(VerdictMismatchError):
        zero_sum_subset(PrimeField(5), (1, 2, 3))


def test_solver_resum_check_survives_optimized_python():
    # a raise, not an assert, so python -O keeps it
    script = textwrap.dedent("""
        from spikelab import PrimeField, VerdictMismatchError, subset_with_sum, zerosum
        from test_zerosum import _wrong_witness

        zerosum._witnesses = _wrong_witness
        try:
            subset_with_sum(PrimeField(5), (1, 2, 3), 4)
        except VerdictMismatchError as exc:
            print(exc)
    """)
    tests = Path(__file__).resolve().parent
    src = str(Path(zerosum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(tests)])}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "witness (1,) of (1, 2, 3) does not re-sum to 4 mod 5\n"


def test_sweep_reports_unreached_target(monkeypatch):
    monkeypatch.setattr(zerosum, "_reach_history", _drop_final_bits(0b100))
    report = verify_lemma_2_1(3, 2)
    assert report["checked"] == 8
    assert report["failures"] == [{"a": list(a), "k": 2} for a in ((1, 1), (1, 2), (2, 1), (2, 2))]
    monkeypatch.setattr(zerosum, "_reach_history", _drop_final_bits(0b001))
    report = verify_lemma_2_2(3, 3)
    assert report["checked"] == 27
    assert report["failures"] == [
        {"a": list(a), "k": 0} for a in itertools.product(range(3), repeat=3)
    ]


@pytest.mark.parametrize(
    "attr, fault",
    [("_witnesses", _wrong_witness), ("_reach_history", _drop_final_bits(0b101))],
)
def test_lemma_failures_exit_1(monkeypatch, capsys, attr, fault):
    monkeypatch.setattr(zerosum, attr, fault)
    for argv in (["lemma21", "--p", "3", "--n", "2"], ["lemma22", "--p", "3", "--n", "3"]):
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["result"]["failures"]
