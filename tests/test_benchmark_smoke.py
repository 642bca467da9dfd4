"""Smoke runs of the benchmark harness: one pass of a workload, no timed repeats."""

import importlib.util
import json
import subprocess
import sys

import pytest

from conftest import DATA, REPO
from ssqite.bench_cli import main


def _workload(name):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", "0", "--seconds", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name, iters_total", [("lih_scan", 381), ("h2_trace", 1922)],
                         ids=["lih_scan", "h2_trace"])
def test_workload_passes(name, iters_total):
    # Every output correct and the iteration count the benchmark was defined
    # at.  h2_trace is the only workload that reads trace.csv: the harness
    # checks its iter/level layout and the last row's energies, and that both
    # calls wrote the same bytes.  The iteration clock wraps
    # subspace.iteration by name; if that name stops being called, the
    # fastest iteration reads 0 without an error.
    result = _workload(name)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["iters_total"]["value"] == iters_total
    assert result["metrics"]["iter_ms_min"]["value"] > 0


def test_tracer_reads_every_layer_of_the_cli_path(tmp_path):
    # The harness's tracer hooks the program's functions by name; a renamed
    # or bypassed one reads 0 calls without an error.  One H2 trace capped
    # at 25 iterations: every hot-loop layer runs once per iteration, and
    # the final readout sweeps once.
    spec = importlib.util.spec_from_file_location("tracer", REPO / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"hamiltonian_path = {DATA / 'h2_sto3g.txt'}\nansatz = twolocal\n"
                   f"seed = 11\nmax_iters = 25\noutput_dir = {tmp_path / 'out'}\n",
                   encoding="utf-8")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = main(["trace", "--config", str(cfg), "--bond-length", "0.95"])
    finally:
        tracer.uninstall()
    assert code == 1  # MaxItersExceeded
    per_iteration = ("subspace.iteration", "qite_engine.assemble", "qite_engine.solve",
                     "simulator.derivative_stack")
    assert {name: tracer.calls[name] for name in per_iteration} == dict.fromkeys(per_iteration, 25)
    assert tracer.calls["simulator.apply"] == 1
    # Traced names that the CLI path does not reach: the first two no longer
    # exist, and apply_pauli_sum serves only the reference expectation.
    # Dropping them from the harness is ROADMAP item 1.
    unreached = ("subspace.ortho_report", "simulator.overlap", "simulator.apply_pauli_sum")
    assert [tracer.calls.get(name, 0) for name in unreached] == [0, 0, 0]
