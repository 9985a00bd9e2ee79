"""The benchmark keeps its own copy of gate c11's argv list; the two must not drift."""

from __future__ import annotations

import runpy
from pathlib import Path

import test_acceptance

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_bench_cli_runs_match_gate_c11():
    # run_path compiles the source in memory: nothing is written under bench/
    bench = runpy.run_path(str(WORKLOADS))
    assert bench["CLI_RUNS"] == test_acceptance.CLI_RUNS
