"""Smoke run of the benchmark harness on the smallest workload."""

import json
import subprocess
import sys

from conftest import REPO


def test_lih_scan_workload_passes():
    # One pass of the LiH workload (two scan calls, no timed repeats): every
    # geometry correct and the iteration count the benchmark was defined at.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lih_scan",
         "--seed", "0", "--seconds", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["iters_total"]["value"] == 381
    # The iteration clock wraps subspace.iteration by name; if that name
    # stops being called, the fastest iteration reads 0 without an error.
    assert result["metrics"]["iter_ms_min"]["value"] > 0
