"""Benchmark command line: dissociation scans, convergence traces, exact curves.

Subcommands::

    ssqite scan  --config h2.cfg [--tolerance 1.6e-3] [--out DIR]
    ssqite trace --config h2.cfg --bond-length 0.95 [--out DIR]
    ssqite exact --config h2.cfg [--out DIR]

Config files are flat ``key = value`` text with ``#`` comments, each key at
most once; relative paths resolve against the config file's directory.  The
environment variable ``SSQITE_SEED`` overrides the configured seed.  With
``shots > 0`` only the final energy readout of each level is sampled; the
McLachlan systems that drive the evolution stay exact.  Exit codes: 0 success, 1 accuracy or
convergence failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import MaxItersExceeded, ParseError, SingularSystem, SsqiteError
from .exact_oracle import eigensolve
from .pauli_algebra import content_lines, load_geometry_series
from .simulator import (
    Statevector,
    build_excitation_preserving,
    build_twolocal,
    sample_expectation,
)
from .subspace import SsqiteConfig, SubspaceResult, run

ANSATZE = ("twolocal", "excitation-preserving")
_DEFAULT_LABELS = {
    "twolocal": ("00", "01", "10", "11"),
    "excitation-preserving": ("010", "001", "100"),
}
CHEMICAL_ACCURACY = 1.6e-3


@dataclass(frozen=True)
class RunConfig:
    """One benchmark setup, as read from a config file."""

    hamiltonian_path: Path
    ansatz: str
    k: int = 3
    b: float = SsqiteConfig.b
    grad_tol: float = SsqiteConfig.grad_tol
    patience: int = SsqiteConfig.patience
    max_iters: int = SsqiteConfig.max_iters
    seed: int = 0
    shots: int = 0
    output_dir: Path = Path("out")
    initial_states: tuple[str, ...] = ()
    theta0_scale: float = 0.1

    def __post_init__(self):
        if self.ansatz not in ANSATZE:
            raise ParseError(f"ansatz must be one of {ANSATZE}, got {self.ansatz!r}")
        if self.k < 1:
            raise ParseError(f"k must be >= 1, got {self.k}")
        if self.shots < 0:
            raise ParseError(f"shots must be >= 0, got {self.shots}")
        if self.seed < 0:
            raise ParseError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.theta0_scale < np.inf:
            raise ParseError(f"theta0_scale must be >= 0 and finite, got {self.theta0_scale}")
        width, labels = len(_DEFAULT_LABELS[self.ansatz][0]), self.initial_states
        bad = [l for l in labels if len(l) != width or set(l) - {"0", "1"}]
        if bad or len(set(labels)) < len(labels):
            raise ParseError(f"initial_states must be distinct {width}-bit binary labels, "
                             f"got {','.join(labels)}")
        try:
            self.subspace_config()
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    def state_labels(self) -> tuple[str, ...]:
        labels = self.initial_states or _DEFAULT_LABELS[self.ansatz][: self.k]
        if len(labels) != self.k:
            raise ParseError(
                f"{self.k} levels requested but {len(labels)} initial states available"
            )
        return tuple(labels)

    def subspace_config(self) -> SsqiteConfig:
        return SsqiteConfig(
            b=self.b,
            grad_tol=self.grad_tol,
            patience=self.patience,
            max_iters=self.max_iters,
        )


_FIELD_PARSERS = {
    "hamiltonian_path": str,
    "ansatz": str,
    "k": int,
    "b": float,
    "grad_tol": float,
    "patience": int,
    "max_iters": int,
    "seed": int,
    "shots": int,
    "output_dir": str,
    "initial_states": str,
    "theta0_scale": float,
}


def parse_config(path) -> RunConfig:
    """Read a flat key=value config; paths must resolve at load time."""
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"config file {path} not found")
    values: dict = {}
    for lineno, line in content_lines(path):
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_PARSERS:
            raise ParseError(f"unknown config key {key!r}", lineno)
        if key in values:
            raise ParseError(f"repeated config key {key!r}", lineno)
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except ValueError:
            raise ParseError(f"bad value for {key}: {value!r}", lineno) from None
    if "hamiltonian_path" not in values or "ansatz" not in values:
        raise ParseError(f"{path}: config needs hamiltonian_path and ansatz")
    base = path.parent
    values["hamiltonian_path"] = (base / values["hamiltonian_path"]).resolve()
    values["output_dir"] = (base / values.get("output_dir", "out")).resolve()
    if "initial_states" in values:
        values["initial_states"] = tuple(
            s.strip() for s in values["initial_states"].split(",") if s.strip()
        )
    cfg = RunConfig(**values)
    if not cfg.hamiltonian_path.is_file():
        raise ParseError(f"hamiltonian file {cfg.hamiltonian_path} not found")
    env_seed = os.environ.get("SSQITE_SEED")
    if env_seed is not None:
        try:
            cfg = replace(cfg, seed=int(env_seed))
        except ValueError:
            raise ParseError(f"SSQITE_SEED must be an integer, got {env_seed!r}") from None
    return cfg


def _build_ansatz(cfg: RunConfig):
    if cfg.ansatz == "twolocal":
        return build_twolocal()
    return build_excitation_preserving()


def _initial_theta(cfg: RunConfig, num_params: int) -> np.ndarray:
    # Small seeded perturbation; an all-zero start can sit on a symmetric
    # stationary manifold of the flow.
    rng = np.random.default_rng(cfg.seed)
    return rng.normal(0.0, cfg.theta0_scale, num_params)


def _sample_seed(seed: int, geometry_index: int, level: int) -> int:
    return int(np.random.SeedSequence((seed, geometry_index, level)).generate_state(1)[0])


def _run_geometry(cfg: RunConfig, circuit, hamiltonian) -> SubspaceResult:
    states = [Statevector.from_label(l) for l in cfg.state_labels()]
    return run(
        hamiltonian,
        circuit,
        states,
        cfg.subspace_config(),
        theta0=_initial_theta(cfg, circuit.num_params),
    )


def _fmt(x: float) -> str:
    """Shortest text that parses back to the same double."""
    return repr(float(x))


def _write_lines(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_scan(cfg: RunConfig, tolerance: float = CHEMICAL_ACCURACY) -> int:
    """Run the full geometry series and emit scan.csv / summary.json."""
    if not 0 < tolerance < np.inf:
        raise ParseError(f"tolerance must be positive and finite, got {tolerance}")
    t_start = time.perf_counter()
    series = load_geometry_series(cfg.hamiltonian_path)
    circuit = _build_ansatz(cfg)
    lines = ["R,level,E_ssqite,E_exact,abs_err,iters"]
    errors = np.zeros((len(series), cfg.k))
    iterations, walls = {}, {}
    for gi, (bond, hamiltonian) in enumerate(series.points):
        t_geometry = time.perf_counter()
        result = _run_geometry(cfg, circuit, hamiltonian)
        exact = eigensolve(hamiltonian).eigenvalues[: cfg.k]
        for level in range(cfg.k):
            energy = result.energies[level]
            if cfg.shots > 0:
                energy = sample_expectation(
                    hamiltonian,
                    result.final_states[level],
                    cfg.shots,
                    seed=_sample_seed(cfg.seed, gi, level),
                )
            errors[gi, level] = abs_err = abs(energy - exact[level])
            lines.append(f"{_fmt(bond)},{level},{_fmt(energy)},{_fmt(exact[level])},"
                         f"{_fmt(abs_err)},{result.iterations}")
        iterations[_fmt(bond)] = result.iterations
        walls[_fmt(bond)] = time.perf_counter() - t_geometry
    _write_lines(cfg.output_dir / "scan.csv", lines)

    summary = {
        "molecule": series.label,
        "geometries": len(series),
        "levels": cfg.k,
        "tolerance_Ha": tolerance,
        "max_abs_err_Ha": float(errors.max()),
        "max_abs_err_per_level_Ha": {
            str(l): float(errors[:, l].max()) for l in range(cfg.k)
        },
        "wall_time_s": time.perf_counter() - t_start,
        "iterations_per_geometry": iterations,
        "iterations_total": sum(iterations.values()),
        "wall_s_per_geometry": walls,
    }
    (cfg.output_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"scan: {series.label}, {len(series)} geometries, "
        f"max |E - E_exact| = {errors.max():.3e} Ha "
        f"({'within' if errors.max() < tolerance else 'ABOVE'} {tolerance:g} Ha)"
    )
    return 0 if errors.max() < tolerance else 1


def cmd_trace(cfg: RunConfig, bond_length: float) -> int:
    """Run one geometry and emit the per-iteration trace.csv.

    A run that hits ``max_iters`` still writes the trace of the iterations
    it made before its MaxItersExceeded propagates (exit 1).
    """
    series = load_geometry_series(cfg.hamiltonian_path)
    bond, hamiltonian = series.nearest(bond_length)
    circuit = _build_ansatz(cfg)
    try:
        result = _run_geometry(cfg, circuit, hamiltonian)
    except MaxItersExceeded as exc:
        _write_trace(cfg, exc.result)
        raise
    _write_trace(cfg, result)
    final = ", ".join(f"{e:.6f}" for e in result.energies)
    print(
        f"trace: R={bond} converged in {result.iterations} iterations, "
        f"energies [{final}] Ha"
    )
    return 0


def _write_trace(cfg: RunConfig, result: SubspaceResult) -> None:
    history = result.history
    lines = ["iter,level,energy_Ha,grad_inf_norm,dtau,ortho_max_offdiag"]
    rows = zip(history.energies.tolist(), history.grads.tolist(), history.dtau.tolist(),
               map(_fmt, history.max_offdiag.tolist()))
    for i, (energies, grads, dtau, ortho) in enumerate(rows):
        for level in range(cfg.k):
            lines.append(f"{i},{level},{_fmt(energies[level])},"
                         f"{_fmt(grads[level])},{_fmt(dtau[level])},{ortho}")
    _write_lines(cfg.output_dir / "trace.csv", lines)


def cmd_exact(cfg: RunConfig) -> int:
    """Diagonalize every geometry and emit the reference exact.csv."""
    series = load_geometry_series(cfg.hamiltonian_path)
    dim = 2 ** series.n
    if cfg.k > dim:
        raise ParseError(f"k={cfg.k} exceeds the {dim}-dimensional spectrum")
    header = "R," + ",".join(f"E_{l}" for l in range(cfg.k))
    lines = [header]
    for bond, hamiltonian in series.points:
        values = eigensolve(hamiltonian).eigenvalues[: cfg.k]
        lines.append(",".join([_fmt(bond)] + [_fmt(v) for v in values]))
    _write_lines(cfg.output_dir / "exact.csv", lines)
    print(f"exact: wrote {len(series)} geometries x {cfg.k} levels")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssqite", description="Subspace-search imaginary-time benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("scan", "trace", "exact"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a run config file")
        p.add_argument("--out", help="override the configured output directory")
        if name == "scan":
            p.add_argument(
                "--tolerance",
                type=float,
                default=CHEMICAL_ACCURACY,
                help="accuracy gate in Hartree (default: chemical accuracy)",
            )
        if name == "trace":
            p.add_argument("--bond-length", type=float, required=True)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.out:
            cfg = replace(cfg, output_dir=Path(args.out).resolve())
        if args.command == "scan":
            return cmd_scan(cfg, tolerance=args.tolerance)
        if args.command == "trace":
            return cmd_trace(cfg, bond_length=args.bond_length)
        return cmd_exact(cfg)
    except (MaxItersExceeded, SingularSystem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SsqiteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
