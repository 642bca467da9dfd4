"""Ground-truth spectra from dense Hermitian diagonalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli_algebra import PauliSum


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition, eigenvalues ascending, eigenvectors columns.

    The eigenvectors are ``eigh``'s, each defined up to a phase; the CLI reads
    only the eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigensolve(h: PauliSum) -> Spectrum:
    """Diagonalize the dense form ``h.dense`` of a Pauli sum (capped at 12 qubits)."""
    values, vectors = np.linalg.eigh(h.dense)
    return Spectrum(eigenvalues=values, eigenvectors=vectors)

