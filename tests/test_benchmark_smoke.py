"""Smoke runs of the benchmark harness: one pass of a workload, no timed repeats."""

import json
import subprocess
import sys

from conftest import REPO


def _workload(name):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", "0", "--seconds", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_lih_scan_workload_passes():
    # Two scan calls: every geometry correct and the iteration count the
    # benchmark was defined at.
    result = _workload("lih_scan")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["iters_total"]["value"] == 381
    # The iteration clock wraps subspace.iteration by name; if that name
    # stops being called, the fastest iteration reads 0 without an error.
    assert result["metrics"]["iter_ms_min"]["value"] > 0


def test_h2_trace_workload_passes():
    # The only workload that reads trace.csv: the harness checks its
    # iter/level layout and the last row's energies, and that both calls
    # wrote the same bytes.
    result = _workload("h2_trace")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["iters_total"]["value"] == 1922
    assert result["metrics"]["iter_ms_min"]["value"] > 0
