"""ssqite benchmark: dissociation-scan and trace workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload h2_scan --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics: iterations, the fastest
iteration, set-up time and peak memory.  ``--trace 1`` calls the CLI once
untraced and once with a span around every public function it reaches, and
prints the per-layer metrics.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it holds the run's detail: wall and CPU time of every CLI call,
iterations per geometry, library versions and the host's steal time.

The program runs at the shipped configs' seed (11).  ``--seed`` is recorded
and changes no input: other program seeds change the H2 iteration counts
several-fold and make stretched geometries hit ``max_iters``, so they would
measure the seed, not the program.  ``--ssqite-seed N`` passes N to the
program through ``SSQITE_SEED``.  ``--full`` runs the whole geometry series
of the shipped config once instead of the benchmark's part of it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("h2_scan", "lih_scan", "h2_trace")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _steal_ticks() -> int | None:
    """Host steal time so far, from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _worker(args, env, timeout):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")] + args,
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ssqite benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ssqite-seed", type=int)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args(argv)

    for needed in ("BENCHMARK.json", "src/ssqite/bench_cli.py", "configs", "data"):
        if not (ROOT / needed).exists():
            return _fail(f"{needed} not found under {ROOT}; run from a full checkout")

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("SSQITE_SEED", None)
    if args.ssqite_seed is not None:
        env["SSQITE_SEED"] = str(args.ssqite_seed)

    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    steal_before = _steal_ticks()
    try:
        setup = [
            _worker(["--setup", "--workload", args.workload], env,
                    deadline - time.monotonic())["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        worker_args = [
            "--workload", args.workload, "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work),
        ] + (["--full"] if args.full else [])
        result = _worker(worker_args, env, deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    steal_after = _steal_ticks()

    detail = result["detail"]
    detail["seed"] = args.seed
    detail["setup_probes_s"] = setup
    if steal_before is not None and steal_after is not None:
        detail["host_steal_ticks"] = steal_after - steal_before
    detail["clock_ticks_per_s"] = os.sysconf("SC_CLK_TCK")

    if args.trace:
        values = result["per_layer"]
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setup))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        return _fail(f"workload reported no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
