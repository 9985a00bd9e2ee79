"""The benchmark keeps its own copy of gate c11's argv list, and its lemma jobs must
stay inside the sweep budget; neither may drift from the library."""

from __future__ import annotations

import runpy
from pathlib import Path

from spikelab import zerosum

import test_acceptance

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_bench_cli_runs_match_gate_c11():
    # run_path compiles the source in memory: nothing is written under bench/
    bench = runpy.run_path(str(WORKLOADS))
    assert bench["CLI_RUNS"] == test_acceptance.CLI_RUNS


def test_bench_lemma_jobs_fit_hypothesis_and_budget():
    # a cap change must never turn a benchmark lemma job into a refusal (exit 3)
    bench = runpy.run_path(str(WORKLOADS))
    cost = {"lemma21": lambda p, n: (p - 1) ** n * (p - 1), "lemma22": lambda p, n: p**n}
    hypothesis = {"lemma21": lambda p, n: n >= p - 1, "lemma22": lambda p, n: n >= p}
    lemma_jobs = 0
    for name in bench["WORKLOADS"]:
        for seed in (1, 2):
            for smoke in (False, True):
                for job in bench["build"](name, seed, smoke):
                    cmd = job.argv[0]
                    if cmd not in cost:
                        continue
                    p = int(job.argv[job.argv.index("--p") + 1])
                    n = int(job.argv[job.argv.index("--n") + 1])
                    assert hypothesis[cmd](p, n), (name, seed, smoke, job.argv)
                    assert cost[cmd](p, n) <= zerosum.VERIFY_BUDGET, (name, seed, smoke, job.argv)
                    assert job.expect == 0, job.argv
                    lemma_jobs += 1
    assert lemma_jobs > 0
