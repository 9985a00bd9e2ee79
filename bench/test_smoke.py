"""Smoke test of the benchmark itself: tiny sizes, every workload, untraced and traced.

Run with ``python -m pytest bench/test_smoke.py`` from the repository root.
It takes about 15 seconds on two cores.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_reports_every_metric_and_no_failures():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"
