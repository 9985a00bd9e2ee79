"""spikelab's benchmark: time real CLI jobs end to end, and layer by layer.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table
    python3 bench/run.py --smoke                      # tiny sizes, checks the output shape

Each run starts a fresh child process (child.py) for the workload and
waits for it.  Before that it starts SETUP_PROBES more children that only
import the program and build the inputs, so ``setup_s`` is a median.  With
``--trace 0`` the last line of output carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of the traced run.  Earlier
lines describe the machine, the inputs and every figure with its unit and
sample count.  The full record, with the job list and the trace spans, is
written under ``.bench_build/bench/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 3  # set-up-only children before the measured child, and as many after
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# end-to-end metrics: name -> unit.  fail_frac and job_ms_p99 are printed but
# are not in BENCHMARK.json: fail_frac is 0 on a correct program (the final
# line's "failed" carries it), and only cli-mix has the samples for a p99.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_ms_p50": "ms", "peak_rss_mb": "MB"}


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class ChildFailed(RuntimeError):
    pass


def spawn(out_dir: Path, mode: str, args, deadline: float) -> dict:
    """Start child.py, wait for it (killing it at the deadline) and read its record."""
    out = out_dir / f"{args.workload}-{mode}-{os.getpid()}.json"
    err = out_dir / f"{args.workload}-{mode}-{os.getpid()}.stderr"
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    t_spawn = time.monotonic()
    cmd = [sys.executable, "-s", str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--mode", mode,
           "--out", str(out), "--t-spawn", repr(t_spawn)]
    if args.smoke:
        cmd.append("--smoke")
    with open(err, "w") as errfh:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=errfh, cwd=ROOT, env=env)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} child for {args.workload} passed the time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not out.is_file():
        tail = err.read_text()[-2000:]
        raise ChildFailed(f"{mode} child for {args.workload} exited {proc.returncode}:\n{tail}")
    record = json.loads(out.read_text())
    out.unlink()
    if err.stat().st_size == 0:
        err.unlink()
    return record


def run_workload(args, out_dir: Path, deadline: float) -> dict:
    probes = 0 if args.smoke else SETUP_PROBES

    def probe() -> list[float]:
        return [spawn(out_dir, "setup", args, deadline)["setup_s"]
                for _ in range(probes)]

    # probes on both sides of the measured child sample the machine twice
    before = probe()
    rec = spawn(out_dir, "run", args, deadline)
    setups = before + [rec["setup_s"]] + probe()
    rec["setup_s_samples"] = setups
    rec["end_to_end"]["setup_s"] = statistics.median(setups)
    rec["fail_frac"] = len(rec["failures"]) / rec["attempted"]
    jobs = workloads.build(args.workload, args.seed, args.smoke)
    rec["inputs"] = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                     "jobs_per_pass": len(jobs), "jobs": workloads.describe(jobs)}
    rec["job_list"] = [j.argv for j in jobs]
    rec["machine"] = dict(machine(), numpy=rec.pop("numpy"))
    return rec


def final_line(rec: dict, trace: int) -> dict:
    correct = not rec["failures"] and len(rec["digests"]) == 1
    if trace:
        traced = rec["traced"]
        correct = correct and not traced["unstable_counts"]
        metrics = traced["metrics"]
    else:
        e2e = rec["end_to_end"]
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    return {"correct": correct, "attempted": rec["attempted"],
            "failed": len(rec["failures"]), "metrics": metrics}


def report(rec: dict, trace: int) -> list[str]:
    """Human-readable lines: machine, inputs, and every figure with unit and samples."""
    e2e = rec["end_to_end"]
    inp = rec["inputs"]
    lines = [
        f"# machine {json.dumps(rec['machine'], sort_keys=True)}",
        f"# inputs {inp['workload']} seed={inp['seed']} jobs/pass={inp['jobs_per_pass']} "
        + json.dumps({k: v['jobs'] for k, v in inp['jobs'].items()}, sort_keys=True),
        f"# {inp['workload']} passes={e2e['passes']} "
        f"pass_walls_s={[round(w, 3) for w in e2e['pass_walls_s']]}",
        f"setup_s      {e2e['setup_s']:.4f} s     median of {len(rec['setup_s_samples'])} set-ups",
        f"wall_s       {e2e['wall_s']:.4f} s     {inp['jobs_per_pass']} jobs, "
        f"each at its median of {e2e['passes']} passes",
        f"job_ms_p50   {e2e['job_ms_p50']:.4f} ms    {e2e['samples']} samples",
    ]
    if "job_ms_p99" in e2e:
        lines.append(f"job_ms_p99   {e2e['job_ms_p99']:.4f} ms    {e2e['samples']} samples")
    lines += [
        f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB    child ru_maxrss after the untraced passes",
        f"fail_frac    {rec['fail_frac']:.4f} ratio {len(rec['failures'])} of {rec['attempted']} jobs",
        f"result_digest {' '.join(rec['digests'])}",
    ]
    for f in rec["failures"][:10]:
        lines.append(f"# FAILED job {f['job']}: {' '.join(f['argv'])}: {f['error']}")
    if trace:
        t = rec["traced"]
        lines.append("# traced run: self time over one pass, largest first")
        for name, secs, share in t["top_self_s"]:
            lines.append(f"#   {name:34s} {secs:9.4f} s  {share:6.1%}")
        for name, m in t["metrics"].items():
            lines.append(f"{name:42s} {m['value']:.6g} {m['unit']}")
        if t["unstable_counts"]:
            lines.append(f"# DEFECT counts differ between traced passes: {t['unstable_counts']}")
        if t["absent"]:
            lines.append(f"# not in this program, reported as 0: {t['absent']}")
    return lines


def smoke(args, out_dir: Path) -> int:
    """Tiny sizes, all four workloads, untraced and traced; check the output shape.

    Every declared metric must be present with its declared unit, no job may
    fail, and the traced counts must repeat.  cli-mix runs long enough for
    the 1000 samples its p99 needs.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if want[0] != E2E_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {want[0]} != {E2E_UNITS}")
    if {w["name"] for w in bench["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            args.workload, args.trace = name, trace
            args.seconds = 6.0 if name == "cli-mix" and not trace else 0.5
            rec = run_workload(args, out_dir, time.monotonic() + RUN_LIMIT_S)
            line = final_line(rec, trace)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != {want[trace]}")
            if rec["fail_frac"] != 0 or not line["correct"]:
                problems.append(f"{name} trace={trace}: not correct: {rec['failures'][:3]}")
            if name == "cli-mix" and not trace and "job_ms_p99" not in rec["end_to_end"]:
                problems.append("cli-mix reported no job_ms_p99")
            if trace and rec["traced"]["absent"]:
                problems.append(f"traced functions missing: {rec['traced']['absent']}")
            print(f"smoke {name} trace={trace}: {rec['inputs']['jobs_per_pass']} jobs/pass, "
                  f"{rec['attempted']} attempted, fail_frac={rec['fail_frac']}, "
                  f"{len(got)} metrics")
    for p in problems:
        print("SMOKE PROBLEM:", p)
    print("smoke ok" if not problems else "smoke FAILED")
    return 0 if not problems else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; checks the output shape")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "spikelab" / "__init__.py").is_file():
        print(f"error: no spikelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_build" / "bench"
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        if args.smoke:
            return smoke(args, out_dir)
        names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        lines = []
        for name in names:
            args.workload = name
            rec = run_workload(args, out_dir, started + RUN_LIMIT_S * len(names))
            path = out_dir / f"record-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(rec))
            for line in report(rec, args.trace):
                print(line if len(names) == 1 else f"[{name}] {line}")
            lines.append(final_line(rec, args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{n}.{k}": v for n, x in zip(names, lines) for k, v in x["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
