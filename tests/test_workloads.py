"""The benchmark keeps its own copy of gate c11's argv list, its lemma jobs must stay
inside the sweep budget and its audits inside the audit budget, its searches far inside
the lattice cap, every job of its seed-1 runs must return its exit code and pass its
result check, and the functions its tracer requires must exist; none of these may drift
from the library."""

from __future__ import annotations

import importlib
import json
import runpy
from pathlib import Path

import pytest

from spikelab import Diagonal, represent, signature, zerosum
from spikelab.cli import main

import test_acceptance

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = BENCH / "workloads.py"


def _bench_argvs(bench: dict) -> set[tuple[str, ...]]:
    """Every distinct command line of CLI_RUNS and the four workloads, seeds 1 and 2,
    full and smoke."""
    argvs = {tuple(argv) for argv in bench["CLI_RUNS"]}
    for name in bench["WORKLOADS"]:
        for seed in (1, 2):
            for smoke in (False, True):
                argvs.update(tuple(job.argv) for job in bench["build"](name, seed, smoke))
    return argvs


def test_bench_cli_runs_match_gate_c11():
    # run_path compiles the source in memory: nothing is written under bench/
    bench = runpy.run_path(str(WORKLOADS))
    assert bench["CLI_RUNS"] == test_acceptance.CLI_RUNS


def test_bench_checks_accept_every_cli_run(tmp_path):
    # a payload change that drops a key a check reads fails here, not as the
    # benchmark's failure fraction
    bench = runpy.run_path(str(WORKLOADS))
    for i, argv in enumerate(bench["CLI_RUNS"]):
        job = bench["job"](argv)
        path = tmp_path / f"run{i}.json"
        assert main([*argv, "--output", str(path)]) == job.expect, argv
        result = json.loads(path.read_text())["result"]
        assert bench["CHECKS"][argv[0]](job, result, None) is None, argv


def test_bench_seed_1_jobs_pass_their_checks_in_order(tmp_path, capsys):
    # every job the benchmark times at seed 1, full and smoke, as its child runs
    # them: a job that fails here would raise the benchmark's failed share, and
    # a paired check reads the result of the job just before it
    bench = runpy.run_path(str(WORKLOADS))
    path = tmp_path / "result.json"
    jobs = 0
    for name in bench["WORKLOADS"]:
        for smoke in (False, True):
            prev = None
            for job in bench["build"](name, 1, smoke):
                path.unlink(missing_ok=True)
                code = main([*job.argv, "--output", str(path)])
                assert code == job.expect, (name, smoke, job.argv)
                result = None
                if code == 0:
                    result = json.loads(path.read_text())["result"]
                    assert job.check(job, result, prev) is None, (name, smoke, job.argv)
                prev = result
                jobs += 1
    assert jobs > 1000


def test_bench_lemma_jobs_fit_the_hypothesis():
    # a job below the hypothesis exits 2; admission by the budget is checked
    # through the library, in test_bench_lemma_jobs_fit_the_register_step_budget
    bench = runpy.run_path(str(WORKLOADS))
    hypothesis = {"lemma21": lambda p, n: n >= p - 1, "lemma22": lambda p, n: n >= p}
    lemma_jobs = 0
    for name in bench["WORKLOADS"]:
        for seed in (1, 2):
            for smoke in (False, True):
                for job in bench["build"](name, seed, smoke):
                    cmd = job.argv[0]
                    if cmd not in hypothesis:
                        continue
                    p = int(job.argv[job.argv.index("--p") + 1])
                    n = int(job.argv[job.argv.index("--n") + 1])
                    assert hypothesis[cmd](p, n), (name, seed, smoke, job.argv)
                    assert job.expect == 0, job.argv
                    lemma_jobs += 1
    assert lemma_jobs > 0


class _Admitted(Exception):
    pass


def test_bench_audit_jobs_fit_the_budget(monkeypatch):
    # a budget change must never turn a benchmark audit into a refusal (exit 3);
    # an admitted audit stops here before summing
    def admitted(p, n):
        raise _Admitted

    monkeypatch.setattr(represent, "_audit_keys", admitted)
    audits = 0
    for argv in _bench_argvs(runpy.run_path(str(WORKLOADS))):
        if argv[0] == "unique":
            opts = dict(zip(argv[1::2], argv[2::2]))
            with pytest.raises(_Admitted):
                represent.uniqueness_audit(int(opts["--p"]), int(opts["--n"]))
            audits += 1
    assert audits > 10


def test_bench_lemma_jobs_fit_the_register_step_budget(monkeypatch):
    calls = []
    monkeypatch.setattr(zerosum, "_sweep", lambda *args: calls.append(args[:3]))
    verify = {"lemma21": zerosum.verify_lemma_2_1, "lemma22": zerosum.verify_lemma_2_2}
    for argv in _bench_argvs(runpy.run_path(str(WORKLOADS))):
        if argv[0] in verify:
            opts = dict(zip(argv[1::2], argv[2::2]))
            verify[argv[0]](int(opts["--p"]), int(opts["--n"]))  # a refusal raises
    assert calls


def test_bench_searches_stay_within_an_eighth_of_the_lattice_cap(monkeypatch):
    # past the cap a search hands over: same result, other cost, so no
    # benchmark search may come near it; a handover reports more sums than the cap
    bench = runpy.run_path(str(WORKLOADS))
    monkeypatch.setattr(represent, "_LATTICE_CAP", represent._LATTICE_CAP // 8)
    real = represent.search_rep
    counts = []

    def record(sig, q):
        witness, count = real(sig, q)
        counts.append(count)
        return witness, count

    monkeypatch.setattr(represent, "search_rep", record)
    for argv in sorted(_bench_argvs(bench)):
        opts = dict(zip(argv[1::2], argv[2::2]))
        if argv[0] == "transfer":
            record(signature(Diagonal.parse(opts["--diag"])), int(opts["--q"]))
        elif argv[0] == "charset":
            sig = signature(Diagonal.parse(opts["--diag"]))
            for q in opts["--primes"].split(","):
                record(sig, int(q))
        elif argv[0] == "lbound":
            primes = [int(q) for q in opts["--primes"].split(",")]
            represent.estimate_L(int(opts["--p"]), primes, int(opts["--n-max"]))
    assert len(counts) > 600
    assert max(counts) <= represent._LATTICE_CAP


# deleted functions the tracer still names; replacing its tables is its own change
STALE_TRACED = {"represent.propagate_facts", "represent._packed_sig_rows"}


def test_tracer_required_names_resolve():
    # a traced function that no longer exists fails the benchmark's smoke run
    required = runpy.run_path(str(BENCH / "tracer.py"))["REQUIRED"]
    missing = set()
    for name in required:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"spikelab.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.add(name)
    assert missing <= STALE_TRACED
