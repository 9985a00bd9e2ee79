"""Benchmark child: one workload in one fresh, single-threaded process.

The parent (run.py) starts this script once per set-up probe and once per
measured run.  Each job is an in-process ``spikelab.cli.main(argv)`` call
with ``--output`` pointed at a scratch file, so the timed path is the one a
user's command takes, from argparse to the JSON file.  One client runs the
jobs in a closed loop: the next job starts when the last returns.  Reading
and checking each job's output happens between jobs, outside the timed call.

Usage (normally only from run.py):
    python3 bench/child.py --root DIR --workload NAME --seed N --seconds S
        --trace 0|1 --mode setup|run --out FILE --t-spawn T [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import tracer
import workloads

TRACED_PASSES = 2


def _import_program(root: Path):
    """Import numpy and the checkout's own ``spikelab``, never an installed copy."""
    src = root / "src"
    if not (src / "spikelab" / "__init__.py").is_file():
        raise SystemExit(f"no spikelab sources under {src}")
    sys.path.insert(0, str(src))
    import numpy
    import spikelab
    from spikelab import cli

    if Path(spikelab.__file__).resolve().parent != (src / "spikelab").resolve():
        raise SystemExit(f"imported spikelab from {spikelab.__file__}, not from {src}")
    return cli, numpy.__version__


def run_pass(jobs: list, call, out: Path) -> dict:
    """Run every job once; returns latencies, failures and the result digest."""
    latencies = []
    failures = []
    prev = None  # the previous job's result, all a paired check reads
    digest = hashlib.sha256()
    for i, job in enumerate(jobs):
        if out.exists():
            out.unlink()
        argv = job.argv + ["--output", str(out)]
        t0 = perf_counter()
        try:
            code, raised = call(i, argv), None
        except Exception as exc:  # a traceback is a failed job, not a dead run
            code, raised = None, exc
        latencies.append(perf_counter() - t0)
        error = None if raised is None else f"uncaught {type(raised).__name__}: {raised}"
        result = None
        if error is None and code != job.expect:
            error = f"exit code {code}, expected {job.expect}"
        elif error is None and code == 0:
            try:
                result = json.loads(out.read_text())["result"]
                digest.update(json.dumps(result, indent=2).encode())
                error = job.check(job, result, prev)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"unreadable or malformed result: {type(exc).__name__}: {exc}"
        elif error is None:
            digest.update(f"exit {code}".encode())
        prev = result
        if error is not None:
            failures.append({"job": i, "argv": job.argv, "error": error})
    return {"latencies": latencies, "failures": failures, "digest": digest.hexdigest()}


def _timed_passes(jobs: list, call, out: Path, budget: float) -> list[dict]:
    """Whole passes while the next one is expected to end within the budget."""
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        p = run_pass(jobs, call, out)
        p["wall"] = perf_counter() - t0
        passes.append(p)
        typical = statistics.median(q["wall"] for q in passes)
        if perf_counter() - start + typical > budget:
            return passes


def end_to_end(passes: list[dict]) -> dict:
    """Per-run figures from the untraced passes (setup_s is added by the parent)."""
    per_job = list(zip(*(p["latencies"] for p in passes)))
    samples = [t for p in passes for t in p["latencies"]]
    out = {
        # one pass over the job list, each job at its median over the passes
        "wall_s": sum(statistics.median(ts) for ts in per_job),
        "job_ms_p50": statistics.median(samples) * 1e3,
        "samples": len(samples),
        "passes": len(passes),
        "pass_walls_s": [p["wall"] for p in passes],
        "job_latencies_s": per_job,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(samples) >= 1000:  # at least ten samples beyond the 99th percentile
        out["job_ms_p99"] = statistics.quantiles(samples, n=100)[98] * 1e3
    return out


def _job_time(p: dict) -> float:
    """Time inside the timed cli.main calls of a pass, without the checks between them."""
    return sum(p["latencies"])


def traced_run(jobs: list, cli, out: Path, untraced: float) -> dict:
    """Two traced passes: per-layer metrics, a count-repeat check and the spans."""
    runs = []
    for _ in range(TRACED_PASSES):
        tr = tracer.Tracer()
        tr.install()
        job_call = tr.wrap("job", lambda argv: cli.main(argv))

        def call(i: int, argv: list[str], tr=tr, job_call=job_call) -> int:
            tr.job = i
            return job_call(argv)

        try:
            t0 = perf_counter()
            p = run_pass(jobs, call, out)
            p["wall"] = perf_counter() - t0
        finally:
            tr.uninstall()
        runs.append((tr, p, tracer.layer_metrics(tr)))
    first, second = runs[0][2], runs[1][2]
    unstable = sorted(
        name for name, (value, unit) in first.items()
        if unit in tracer.COUNT_UNITS and value != second[name][0]
    )
    metrics = {}
    for name, (_, unit) in first.items():
        vals = [m[name][0] for _, _, m in runs]
        metrics[name] = (first[name][0] if unit in tracer.COUNT_UNITS else statistics.median(vals), unit)
    traced = statistics.median(_job_time(p) for _, p, _ in runs)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    metrics["trace.unstable_counts"] = (len(unstable), "count")
    tr, p, _ = runs[0]
    ranking = sorted(tr.self_time.items(), key=lambda kv: -kv[1])[:12]
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unstable_counts": unstable,
        "absent": tr.absent,
        "passes": [p for _, p, _ in runs],
        "top_self_s": [[name, secs, secs / _job_time(p)] for name, secs in ranking],
        "trace": {
            "spans": tr.spans,
            "calls": dict(tr.calls),
            "self_s": dict(tr.self_time),
            "counts": dict(tr.counts),
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    root = Path(args.root)

    cli, numpy_version = _import_program(root)
    jobs = workloads.build(args.workload, args.seed, args.smoke)
    setup_s = time.monotonic() - args.t_spawn

    record = {"setup_s": setup_s, "numpy": numpy_version}
    if args.mode == "run":
        scratch = Path(args.out).parent / f"job-{os.getpid()}.json"
        budget = args.seconds / 3 if args.trace else args.seconds
        passes = _timed_passes(jobs, lambda i, argv: cli.main(argv), scratch, budget)
        record["end_to_end"] = end_to_end(passes)
        record["failures"] = [f for p in passes for f in p["failures"]]
        record["attempted"] = sum(len(p["latencies"]) for p in passes)
        record["digests"] = sorted({p["digest"] for p in passes})
        if args.trace:
            untraced = statistics.median(_job_time(p) for p in passes)
            traced = traced_run(jobs, cli, scratch, untraced)
            for p in traced.pop("passes"):
                record["failures"] += p["failures"]
                record["attempted"] += len(p["latencies"])
                record["digests"] = sorted(set(record["digests"]) | {p["digest"]})
            record["traced"] = traced
        if scratch.exists():
            scratch.unlink()
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
