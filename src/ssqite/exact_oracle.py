"""Ground-truth spectra from dense Hermitian diagonalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli_algebra import GeometrySeries, PauliSum


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition, eigenvalues ascending, eigenvectors columns.

    Eigenvector phases are fixed by making each column's largest-magnitude
    component real and positive, so overlap reports are reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __len__(self) -> int:
        return self.eigenvalues.shape[0]


def eigensolve(h: PauliSum) -> Spectrum:
    """Diagonalize the dense form ``h.dense`` of a Pauli sum (capped at 12 qubits)."""
    values, vectors = np.linalg.eigh(h.dense)
    for col in range(vectors.shape[1]):
        lead = np.argmax(np.abs(vectors[:, col]))
        pivot = vectors[lead, col]
        if abs(pivot) > 0:
            vectors[:, col] *= np.conj(pivot) / abs(pivot)
    return Spectrum(eigenvalues=values, eigenvectors=vectors)


def reference_curve(series: GeometrySeries, k: int) -> np.ndarray:
    """k lowest eigenvalues per geometry, rows aligned with the bond lengths."""
    dim = 2 ** series.n
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    rows = []
    for _, hamiltonian in series.points:
        rows.append(eigensolve(hamiltonian).eigenvalues[:k])
    return np.array(rows)
