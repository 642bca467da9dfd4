"""One workload process: runs the ssqite CLI in-process and checks its output.

Started by ``run.py`` with BLAS threads pinned to 1.  Two modes:

    worker.py --setup --workload NAME
        time a fresh interpreter's set-up: import ssqite, parse the config,
        load the geometry series and build the ansatz; prints seconds.

    worker.py --workload NAME --seconds S --trace 0|1 --work DIR [--full]
        run the workload's CLI command repeatedly and print one JSON line.

The interpreter's own start-up is outside both timings.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 1.6e-3  # chemical accuracy, Hartree
EXACT_COLUMN_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    command: str  # "scan" or "trace"
    config: str  # shipped config, relative to the repository root
    bonds: tuple[float, ...]  # geometries a timed run covers


# A timed run covers part of the shipped series, so that at least two CLI
# calls fit in one benchmark run; ``--full`` runs the whole series instead.
# h2_scan: near equilibrium then a stretched geometry, in file order, so a
# change in iteration count or continuation along the curve shows.
# lih_scan: 64-gate circuit on 8 amplitudes; the circuit sweep dominates and
# the iteration count is short, so kernel changes show and little else.
# h2_trace: the longest H2 run (1922 iterations), the only workload that
# writes the per-iteration records.
WORKLOADS = {
    "h2_scan": Workload("scan", "configs/h2_scan.cfg", (1.3, 1.75)),
    "lih_scan": Workload("scan", "configs/lih_scan.cfg", (1.6, 1.8, 2.0, 2.25)),
    "h2_trace": Workload("trace", "configs/h2_scan.cfg", (2.25,)),
}

# Iterations per geometry of the shipped configs at their seed 11, measured
# on the tree that defined this benchmark.  Reported next to each run so a
# change in iteration count is seen at once; a mismatch is not a failure.
BASELINE_ITERS = {
    "configs/h2_scan.cfg": {
        0.35: 262, 0.45: 254, 0.55: 243, 0.65: 236, 0.735: 230, 0.8: 234,
        0.95: 267, 1.1: 317, 1.3: 230, 1.5: 1755, 1.75: 1019, 2.0: 1174,
        2.25: 1922,
    },
    "configs/lih_scan.cfg": {
        1.0: 342, 1.2: 294, 1.4: 136, 1.6: 127, 1.8: 92, 2.0: 92, 2.25: 70,
        2.5: 123, 2.75: 161, 3.0: 286,
    },
}


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from ssqite import bench_cli

    return bench_cli


def setup_probe(workload: Workload) -> float:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import ssqite
    from ssqite.bench_cli import parse_config

    cfg = parse_config(ROOT / workload.config)
    ssqite.load_geometry_series(cfg.hamiltonian_path)
    builders = {
        "twolocal": ssqite.build_twolocal,
        "excitation-preserving": ssqite.build_excitation_preserving,
    }
    builders[cfg.ansatz]()
    return time.perf_counter() - start


def _subset_series(source: Path, bonds, target: Path) -> None:
    """Copy the header and the chosen geometry blocks of a coefficient file."""
    wanted = {f"{b:.4f}" for b in bonds}
    keep, out = True, []
    for line in source.read_text(encoding="utf-8").splitlines():
        fields = line.split("#", 1)[0].split()
        if fields and fields[0] == "geometry":
            keep = f"{float(fields[1]):.4f}" in wanted
        if keep:
            out.append(line)
    target.write_text("\n".join(out) + "\n", encoding="utf-8")


def _derived_config(shipped: Path, hamiltonian: Path, target: Path) -> None:
    """The shipped config with only its coefficient file replaced."""
    out = []
    for line in shipped.read_text(encoding="utf-8").splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        out.append(f"hamiltonian_path = {hamiltonian}" if key == "hamiltonian_path" else line)
    target.write_text("\n".join(out) + "\n", encoding="utf-8")


def _reference(cli, cfg_path: Path, bonds):
    """Exact levels of every geometry the run covers, from the same file."""
    from ssqite.exact_oracle import eigensolve

    cfg = cli.parse_config(cfg_path)
    series = cli.load_geometry_series(cfg.hamiltonian_path)
    points = series.points if bonds is None else [series.nearest(b) for b in bonds]
    return cfg, {bond: eigensolve(h).eigenvalues[: cfg.k] for bond, h in points}


def _levels_ok(energies, exact) -> bool:
    within = all(abs(e - x) < TOLERANCE for e, x in zip(energies, exact))
    ascending = all(b >= a - 1e-6 for a, b in zip(energies, energies[1:]))
    return within and ascending and len(energies) == len(exact)


def check_scan(text: str | None, reference, k: int):
    """(failed geometries, wrong values, iterations per geometry)."""
    if text is None:
        return len(reference), 0, {}
    rows = list(csv.DictReader(io.StringIO(text)))
    by_bond: dict[float, dict[int, dict]] = {}
    for row in rows:
        by_bond.setdefault(float(row["R"]), {})[int(row["level"])] = row
    failed = wrong = 0
    iters = {}
    for bond, exact in reference.items():
        got = by_bond.get(bond, {})
        if sorted(got) != list(range(k)):
            failed += 1
            continue
        energies = [float(got[l]["E_ssqite"]) for l in range(k)]
        column = [float(got[l]["E_exact"]) for l in range(k)]
        iters[bond] = int(got[0]["iters"])
        if not _levels_ok(energies, exact):
            failed += 1
            wrong += 1
        elif any(abs(c - x) > EXACT_COLUMN_TOL for c, x in zip(column, exact)):
            wrong += 1
    return failed, wrong, iters


def check_trace(text: str | None, reference, k: int):
    """Same result shape as check_scan, from the last iteration's energies."""
    (bond, exact), = reference.items()
    if text is None:
        return 1, 0, {}
    rows = list(csv.DictReader(io.StringIO(text)))
    n_iters = len(rows) // k
    expected = [(i, l) for i in range(n_iters) for l in range(k)]
    if n_iters == 0 or [(int(r["iter"]), int(r["level"])) for r in rows] != expected:
        return 1, 1, {}
    energies = [float(r["energy_Ha"]) for r in rows[-k:]]
    if not _levels_ok(energies, exact):
        return 1, 1, {bond: n_iters}
    return 0, 0, {bond: n_iters}


def _call_cli(cli, argv, out_dir: Path, output_name: str):
    sink = io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv + ["--out", str(out_dir)])
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    path = out_dir / output_name
    text = path.read_text(encoding="utf-8") if path.is_file() else None
    return wall, cpu, code, text, sink.getvalue().strip()


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _fastest_cycle(starts) -> float | None:
    """Shortest time between the starts of two consecutive iterations.

    On a shared host, other load can halve the speed of the process for
    seconds at a time; some iterations still run undisturbed, so the fastest
    one is a steadier measure of what an iteration costs than the mean.  Gaps
    between geometries are long and never the minimum.
    """
    return min((b - a for a, b in zip(starts, starts[1:])), default=None)


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _prepare(cli, workload: Workload, work: Path, full: bool):
    """Config to run and the exact levels of every geometry it covers."""
    shipped = ROOT / workload.config
    bonds = workload.bonds if not full or workload.command == "trace" else None
    if full:
        cfg_path = shipped
    else:
        subset = work / "series.txt"
        _subset_series(cli.parse_config(shipped).hamiltonian_path, bonds, subset)
        cfg_path = work / "run.cfg"
        _derived_config(shipped, subset, cfg_path)
    argv = [workload.command, "--config", str(cfg_path)]
    if workload.command == "trace":
        argv += ["--bond-length", repr(bonds[0])]
    cfg, reference = _reference(cli, cfg_path, bonds)
    return argv, cfg, reference


def run_workload(name: str, seconds: float, traced: bool, work: Path, full: bool) -> dict:
    """Call the CLI repeatedly, check every output, and measure.

    Untraced calls read the clock once per iteration and nothing else.  With
    ``traced`` the second call runs under the span tracer instead.
    """
    from tracer import TRACED, IterationClock, Tracer

    workload = WORKLOADS[name]
    cli = _import_cli()
    argv, cfg, reference = _prepare(cli, workload, work, full)
    output_name = f"{workload.command}.csv"
    checker = check_scan if workload.command == "scan" else check_trace

    # Two calls at least, so the outputs can be compared byte for byte; the
    # whole series runs once.
    min_calls = 1 if full else 2
    units, texts, hooks = [], [], []
    begin = time.perf_counter()
    while True:
        hook = Tracer() if traced and len(units) == 1 else IterationClock()
        hook.install()
        try:
            wall, cpu, code, text, output = _call_cli(
                cli, argv, work / f"call{len(units)}", output_name)
        finally:
            hook.uninstall()
        failed, wrong, iters = checker(text, reference, cfg.k)
        units.append({"wall_s": wall, "cpu_s": cpu, "exit": code, "output": output,
                      "failed": failed, "wrong": wrong, "iters": iters,
                      "traced": isinstance(hook, Tracer)})
        texts.append(text)
        hooks.append(hook)
        if traced:
            if len(units) == 2:
                break
        elif len(units) >= min_calls and time.perf_counter() - begin + statistics.median(
                u["wall_s"] for u in units) > seconds:
            break

    clocks = [h for h in hooks if isinstance(h, IterationClock)]
    cycles = [c for c in (_fastest_cycle(h.starts) for h in clocks) if c is not None]
    wall_s = statistics.median(u["wall_s"] for u in units if not u["traced"])
    iters = units[0]["iters"]
    iters_total = sum(iters.values())
    geometries = len(reference)
    attempted = geometries * len(units)
    failed = sum(u["failed"] for u in units)
    identical = all(t == texts[0] for t in texts)
    baseline = BASELINE_ITERS.get(workload.config, {})
    result = {
        "correct": identical and not any(u["wrong"] for u in units),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "iters_total": iters_total,
            "iter_ms_min": 1000.0 * min(cycles) if cycles else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "detail": {
            "workload": name,
            "command": argv,
            "ssqite_seed": cfg.seed,
            "geometries": sorted(reference),
            "iters_per_geometry": {repr(b): n for b, n in sorted(iters.items())},
            "baseline_iters_match": len(iters) == geometries
            and all(baseline.get(b) == n for b, n in iters.items()),
            "outputs_identical": identical,
            "wall_s": wall_s,
            "ms_per_iter": 1000.0 * wall_s / iters_total if iters_total else 0.0,
            "failed_share": failed / attempted,
            "calls": units,
            "environment": _environment(),
        },
    }
    if traced:
        tracer = hooks[1]
        iterations = tracer.calls["subspace.iteration"] or 1
        layers = {}
        for span in TRACED:
            layers[f"{span}.calls"] = tracer.calls[span]
            layers[f"{span}.self_s"] = tracer.self_s[span]
        samples = tracer.iteration_s or [0.0]
        layers["subspace.iteration.p50_ms"] = 1000.0 * _percentile(samples, 0.50)
        layers["subspace.iteration.p99_ms"] = 1000.0 * _percentile(samples, 0.99)
        layers["subspace.sweeps_per_iter"] = (
            tracer.calls["simulator.derivative_stack"] + tracer.calls["simulator.apply"]
        ) / iterations
        layers["simulator.overlaps_per_iter"] = tracer.calls["simulator.overlap"] / iterations
        traced_cycle = _fastest_cycle(tracer.starts)
        layers["trace.overhead_share"] = (
            traced_cycle / min(cycles) - 1.0 if traced_cycle and cycles else 0.0
        )
        layers["cli.wall_s"] = wall_s
        layers["cli.ms_per_iter"] = result["detail"]["ms_per_iter"]
        layers["cli.failed_share"] = failed / attempted
        result["per_layer"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args(argv)
    if args.setup:
        print(json.dumps({"setup_s": setup_probe(WORKLOADS[args.workload])}))
        return 0
    if args.work is None:
        parser.error("--work is required for a workload run")
    args.work.mkdir(parents=True, exist_ok=True)
    result = run_workload(args.workload, args.seconds, bool(args.trace), args.work, args.full)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
