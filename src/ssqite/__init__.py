"""Subspace-search quantum imaginary time evolution on a statevector simulator."""

from . import errors
from .exact_oracle import Spectrum, eigensolve
from .pauli_algebra import (
    GeometrySeries,
    PauliSum,
    decompose_dense,
    load_geometry_series,
    parse_pauli_string,
)
from .qite_engine import McLachlanSystem, QiteResult, SsqiteConfig, assemble, run_qite, solve
from .simulator import (
    Circuit,
    Gate,
    Statevector,
    apply,
    build_excitation_preserving,
    build_twolocal,
    derivative_state,
    expectation,
    hadamard_test,
    sample_expectation,
)
from .subspace import (
    SubspaceResult,
    SubspaceRun,
    init_schedule,
    iteration,
    run,
    scan,
)

__all__ = [
    "errors",
    "Spectrum",
    "eigensolve",
    "GeometrySeries",
    "PauliSum",
    "decompose_dense",
    "load_geometry_series",
    "parse_pauli_string",
    "McLachlanSystem",
    "QiteResult",
    "SsqiteConfig",
    "assemble",
    "run_qite",
    "solve",
    "Circuit",
    "Gate",
    "Statevector",
    "apply",
    "build_excitation_preserving",
    "build_twolocal",
    "derivative_state",
    "expectation",
    "hadamard_test",
    "sample_expectation",
    "SubspaceResult",
    "SubspaceRun",
    "init_schedule",
    "iteration",
    "run",
    "scan",
]
